"""Belief-support safety shield computed by backward induction.

Safety here is a reach-avoid property over belief supports rather than
beliefs: whatever the observation sequence turns out to be, the support of
the belief must stay clear of the per-lookahead unsafe state sets derived
from the agent predictions and their conformal radii. The pipeline per
planning step:

1. enumerate the belief supports reachable from the current support within
   the prediction horizon (a small transition system over supports),
2. mark states whose distance margin to any predicted agent falls below
   the scaled conformal radius as unsafe, per lookahead,
3. sweep backward over the horizon once: per support, the actions that
   keep every observation outcome winning (the shield table), and from
   those the winning supports, safe ones with at least one such action,
4. answer, for any support and depth, which actions are certified safe.

Supports are canonical frozensets of state indices; all structures built
here are immutable once constructed and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, UnknownSupport

MARGIN_BLOCK = 16_384     # state-agent pairs per block of margins


def validate_support(model, states):
    """Canonicalize a support and check members share a possible observation."""
    sup = frozenset(int(s) for s in states)
    if not sup:
        raise InvalidSpec("belief support must be nonempty")
    common = None
    for s in sup:
        if not (0 <= s < model.n_states):
            raise InvalidSpec(f"state {s} outside the model")
        obs = model.obs_support[s]
        common = obs if common is None else common & obs
    if not common:
        raise InvalidSpec(
            f"support {sorted(sup)} members share no common observation")
    return sup


def _successor_groups(model, sup):
    """Per action, the observation-grouped successor supports of ``sup``:
    a tuple of {observation: support} dicts, one per action."""
    groups = []
    for a in range(model.n_actions):
        grouped = {}
        union = set()
        for s in sup:
            union.update(model.successors(s, a))
        for s2 in union:
            # group by the observations possible under THIS action; Z may
            # be action-dependent
            for o in model.observation_support(s2, a):
                grouped.setdefault(o, set()).add(s2)
        groups.append({o: frozenset(ss) for o, ss in grouped.items()})
    return tuple(groups)


class Bsts:
    """Reachable belief supports within the horizon, layered by depth.

    ``levels[q]`` holds the supports reachable in exactly q steps from the
    root; ``post_by_obs(sup, q, a)`` the observation-grouped successor
    supports. With deterministic observations the successor supports
    partition the one-step successor union; with noisy observations a
    successor state can appear under every observation it may emit, so the
    groups form a cover. Either way each group is exactly the support the
    belief update would produce under that observation.

    A support's successor groups do not depend on its depth, so ``expansions``
    (support -> per-action groups) may be shared by every BSTS of one model:
    a support expanded once is read from it, and new ones are added to it.
    ``_post[(sup, q)]`` holds the groups of each node below the horizon.
    """

    def __init__(self, model, root, horizon, expansions=None):
        if horizon < 1:
            raise InvalidSpec(f"horizon must be >= 1, got {horizon}")
        self.model = model
        self.horizon = horizon
        self.root = validate_support(model, root)
        self.levels = {0: {self.root}}
        self._post = {}
        if expansions is None:
            expansions = {}
        for q in range(horizon):
            nxt = set()
            for sup in self.levels[q]:
                groups = expansions.get(sup)
                if groups is None:
                    groups = expansions[sup] = _successor_groups(model, sup)
                self._post[(sup, q)] = groups
                for by_obs in groups:
                    nxt.update(by_obs.values())
            self.levels[q + 1] = nxt

    def post_by_obs(self, support, q, a):
        """dict observation -> successor support for one (node, action)."""
        try:
            return self._post[(support, q)][a]
        except KeyError:
            raise UnknownSupport(
                f"({sorted(support)}, {q}) is not an expanded node") from None

    def node_count(self):
        return sum(len(sups) for sups in self.levels.values())


def _nearest_sq(ax, ay, sx, sy, bx, by):
    """Min over the agents (ax, ay) of the squared distance to each state
    (sx, sy), computed in (agents, states) blocks at the front of the flat
    buffers bx and by."""
    shape = (ax.size, sx.size)
    bx = bx[:ax.size * sx.size].reshape(shape)
    by = by[:ax.size * sx.size].reshape(shape)
    np.subtract(sx, ax[:, None], out=bx)
    np.subtract(sy, ay[:, None], out=by)
    bx *= bx
    by *= by
    bx += by
    return bx.min(axis=0)


def _agents_per_block(n_states):
    """About ``MARGIN_BLOCK`` state-agent pairs a block, at least 16 agents."""
    return max(16, MARGIN_BLOCK // max(n_states, 1))


def _block_buffers(n_agents, n_states):
    """Two flat buffers, each big enough for any block of at most
    ``n_agents`` agents against ``n_states`` or fewer states."""
    size = min(n_agents * n_states, max(16 * n_states, MARGIN_BLOCK))
    return np.empty(size), np.empty(size)


def constraint_values(positions, agent_positions, epsilon):
    """Distance margin of every state's center to the closest predicted agent.

    positions: (n_states, 2), NaN rows for states without a location (those
    get +inf: nothing spatial can collide with them). agent_positions:
    (N, 2). Returns min_i dist(state, agent_i) - epsilon, with the min over
    zero agents +inf.

    Works through the agents in (agents, states) blocks of about
    ``MARGIN_BLOCK`` pairs, keeping the running min of the squared
    distances. The square root is taken after the min over agents: sqrt is
    monotone and correctly rounded, so this equals the min of the per-agent
    distances bit for bit.
    """
    pos = np.asarray(positions, dtype=float)
    agents = np.asarray(agent_positions, dtype=float).reshape(-1, 2)
    n_states, n_agents = pos.shape[0], agents.shape[0]
    out = np.full(n_states, math.inf)
    if n_agents == 0:
        return out
    k = _agents_per_block(n_states)
    bx, by = _block_buffers(n_agents, n_states)
    sx, sy = pos[:, 0], pos[:, 1]
    dists = None
    for lo in range(0, n_agents, k):
        block = _nearest_sq(agents[lo:lo + k, 0], agents[lo:lo + k, 1], sx, sy, bx, by)
        dists = block if dists is None else np.minimum(dists, block, out=dists)
    np.sqrt(dists, out=dists)
    finite = np.isfinite(dists)
    out[finite] = dists[finite] - epsilon
    return out


@dataclass
class UnsafeSets:
    """Per-lookahead unsafe state sets, with what their margins need.

    f_sets[tau] holds the states whose margin to the lookahead-tau
    prediction is below thresholds[tau] = lipschitz * radius(tau).
    Lookahead 0 is the already realized present and is always safe.
    ``margins(tau, states)`` computes the constraint values of a few states
    on demand (used by the fallback action choice) from the state
    positions, the lookahead-tau agent positions ``agents[tau]`` and
    ``epsilon``.
    """

    horizon: int
    f_sets: dict
    thresholds: dict
    positions: np.ndarray
    agents: dict
    epsilon: float

    def margins(self, tau, states):
        """Constraint values of ``states`` against the lookahead-tau agents."""
        return constraint_values(self.positions[states], self.agents[tau], self.epsilon)


def _first_witness(pos, located, agents, epsilon, threshold):
    """Sorted states of ``located`` whose margin to ``agents`` is below
    ``threshold``.

    The undecided states meet the agents block by block, (k agents,
    undecided states) with k = max(16, MARGIN_BLOCK // undecided), and a
    state leaves at the first block whose nearest agent puts its margin
    below the threshold. sqrt and the subtraction of epsilon are monotone,
    so a block's minimum passes exactly when the minimum over all agents
    does.
    """
    n_agents = agents.shape[0]
    bx, by = _block_buffers(n_agents, located.size)
    hits = []
    undecided, lo = located, 0
    while undecided.size and lo < n_agents:
        hi = lo + _agents_per_block(undecided.size)
        near = _nearest_sq(agents[lo:hi, 0], agents[lo:hi, 1], pos[undecided, 0],
                           pos[undecided, 1], bx, by)
        np.sqrt(near, out=near)
        near -= epsilon
        hit = near < threshold
        hits.append(undecided[hit])
        undecided, lo = undecided[~hit], hi
    return np.sort(np.concatenate(hits)) if hits else located[:0]


def unsafe_sets(positions, predictions, regions, epsilon, lipschitz=1.0):
    """Build per-lookahead unsafe sets from predictions and their radii.

    For each lookahead tau, a state is unsafe when its distance margin to
    the predicted joint agent state (minimum over agents, minus epsilon)
    falls below lipschitz * radius(tau). An infinite radius during ACP
    warm-up therefore marks every located state unsafe, the conservative
    answer; states without a location are never unsafe.
    """
    if predictions.horizon != regions.horizon:
        raise InvalidSpec(
            f"prediction horizon {predictions.horizon} != regions horizon "
            f"{regions.horizon}")
    if epsilon < 0.0:
        raise InvalidSpec(f"epsilon must be >= 0, got {epsilon}")
    if lipschitz <= 0.0:
        raise InvalidSpec(f"lipschitz constant must be > 0, got {lipschitz}")
    pos = np.asarray(positions, dtype=float)
    located = np.flatnonzero(np.isfinite(pos).all(axis=1))
    horizon = predictions.horizon
    f_sets, agents, thresholds = {}, {}, {}
    for tau in range(1, horizon + 1):
        agents[tau] = predictions.at(tau).positions
        thresholds[tau] = lipschitz * regions.radius(tau)
        unsafe = _first_witness(pos, located, agents[tau], epsilon, thresholds[tau])
        f_sets[tau] = frozenset(unsafe.tolist())
    return UnsafeSets(horizon=horizon, f_sets=f_sets, thresholds=thresholds,
                      positions=pos, agents=agents, epsilon=epsilon)


@dataclass
class WinningRegions:
    """Winning supports and the shield table of one BSTS.

    ``regions[tau]`` holds the winning supports of level tau, 1..horizon.
    ``allowed[(support, q)]`` holds, for every node below the horizon, the
    actions whose every observation outcome lands in ``regions[q + 1]``.
    """

    regions: dict                # tau -> frozenset of supports
    allowed: dict                # (support, q) -> tuple of actions, q < horizon


def compute_winning_regions(bsts, unsafe):
    """One backward sweep over the BSTS levels: winning regions and table.

    Depth-H supports win by avoiding the depth-H unsafe states alone (no
    lookahead exists beyond the prediction horizon). Below that, each
    node's allowed actions are those sending every observation outcome into
    the next level's winning set, and a support wins when it is safe at its
    own depth and that tuple is nonempty.
    """
    if unsafe.horizon != bsts.horizon:
        raise InvalidSpec(
            f"unsafe horizon {unsafe.horizon} != bsts horizon {bsts.horizon}")
    h = bsts.horizon
    f_sets = unsafe.f_sets
    post = bsts._post
    regions = {h: frozenset(sup for sup in bsts.levels[h]
                            if f_sets[h].isdisjoint(sup))}
    allowed = {}
    for q in range(h - 1, -1, -1):
        above = regions[q + 1]
        won = set()
        for sup in bsts.levels[q]:
            acts = tuple(a for a, by_obs in enumerate(post[(sup, q)])
                         if above.issuperset(by_obs.values()))
            allowed[(sup, q)] = acts
            if acts and (q == 0 or f_sets[q].isdisjoint(sup)):
                won.add(sup)
        if q >= 1:
            regions[q] = frozenset(won)
    return WinningRegions(regions=regions, allowed=allowed)


def keeps_winning(bsts, winning, support, q, action):
    """Certificate predicate: every successor of (support, q) under
    ``action`` lies in the claimed W^{q+1}, read straight off the BSTS edges.
    """
    return winning.regions[q + 1].issuperset(bsts.post_by_obs(support, q, action).values())


def verify_winning_regions(bsts, unsafe, winning):
    """Independent certificate check of the winning regions and shield table.

    Re-derives, straight from the BSTS edges and unsafe sets, that (a) every
    claimed winning support is a level node with no unsafe state at its
    depth, (b) below the horizon it has a nonempty table entry, (c) every
    node below the horizon has a table entry, and (d) every tabled action
    keeps all successors winning. (b) and (d) together give each winning
    support an all-winning action. Returns a list of violation
    descriptions, empty when the certificate holds.
    """
    problems = []
    h = bsts.horizon
    for tau in range(1, h + 1):
        for sup in winning.regions[tau]:
            if sup not in bsts.levels[tau]:
                problems.append(f"tau={tau}: {sorted(sup)} is not a level node")
                continue
            bad = sup & unsafe.f_sets[tau]
            if bad:
                problems.append(
                    f"tau={tau}: {sorted(sup)} contains unsafe states {sorted(bad)}")
            if tau < h and not winning.allowed.get((sup, tau)):
                problems.append(
                    f"tau={tau}: {sorted(sup)} has no all-winning action")
    for q in range(h):
        for sup in bsts.levels[q]:
            acts = winning.allowed.get((sup, q))
            if acts is None:
                problems.append(f"q={q}: {sorted(sup)} has no table entry")
                continue
            for a in acts:
                if not keeps_winning(bsts, winning, sup, q, a):
                    problems.append(
                        f"q={q}: {sorted(sup)} allows action {a}, which can "
                        f"leave W^{q + 1}")
    return problems


class Shield:
    """Per-step shield: the certified actions of every BSTS node.

    ``allowed(support, depth)`` answers which actions are certified from a
    support sitting ``depth`` steps into the future (depth 0 is now).
    Depths at or beyond the horizon are unconstrained: the prediction
    regions say nothing about them.

    The planner's inner loop reads the tables directly:
    ``table[(support, depth)]`` is the certified action tuple and
    ``groups[(support, depth)][action]`` the {observation: child support}
    dict of every node below the horizon.
    """

    def __init__(self, bsts, winning):
        self.bsts = bsts
        self.horizon = bsts.horizon
        self.table = winning.allowed
        self.groups = bsts._post
        self._unconstrained = tuple(range(bsts.model.n_actions))

    def allowed(self, support, depth):
        """Certified actions from (support, depth); all actions past horizon."""
        if depth >= self.horizon:
            return self._unconstrained
        try:
            return self.table[(support, depth)]
        except KeyError:
            raise UnknownSupport(
                f"({sorted(support)}, {depth}) is not a BSTS node") from None

