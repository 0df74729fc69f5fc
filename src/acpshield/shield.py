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

MARGIN_BLOCK = 16_384     # state-agent pairs per block of constraint_values


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


class Bsts:
    """Reachable belief supports within the horizon, layered by depth.

    ``levels[q]`` holds the supports reachable in exactly q steps from the
    root; ``post(sup, q, a)`` the observation-grouped successor supports.
    With deterministic observations the successor supports partition the
    one-step successor union; with noisy observations a successor state can
    appear under every observation it may emit, so the groups form a cover.
    Either way each group is exactly the support the belief update would
    produce under that observation.
    """

    def __init__(self, model, root, horizon):
        if horizon < 1:
            raise InvalidSpec(f"horizon must be >= 1, got {horizon}")
        self.model = model
        self.horizon = horizon
        self.root = validate_support(model, root)
        self.levels = {0: {self.root}}
        self._post = {}
        for q in range(horizon):
            nxt = set()
            for sup in self.levels[q]:
                for a in range(model.n_actions):
                    grouped = {}
                    union = set()
                    for s in sup:
                        union.update(model.successors(s, a))
                    for s2 in union:
                        # group by the observations possible under THIS
                        # action; Z may be action-dependent
                        for o in model.observation_support(s2, a):
                            grouped.setdefault(o, set()).add(s2)
                    by_obs = {o: frozenset(ss) for o, ss in grouped.items()}
                    self._post[(sup, q, a)] = by_obs
                    nxt.update(by_obs.values())
            self.levels[q + 1] = nxt

    def post_by_obs(self, support, q, a):
        """dict observation -> successor support for one (node, action)."""
        try:
            return self._post[(support, q, a)]
        except KeyError:
            raise UnknownSupport(
                f"({sorted(support)}, {q}) is not an expanded node") from None

    def post(self, support, q, a):
        """Set of successor supports of (support, q) under action a."""
        return frozenset(self.post_by_obs(support, q, a).values())

    def node_count(self):
        return sum(len(sups) for sups in self.levels.values())


def constraint_values(positions, agent_positions, epsilon):
    """Distance margin of every state's center to the closest predicted agent.

    positions: (n_states, 2), NaN rows for states without a location (those
    get +inf: nothing spatial can collide with them). agent_positions:
    (N, 2). Returns min_i dist(state, agent_i) - epsilon, with the min over
    zero agents +inf.

    Works through the states in row blocks of about ``MARGIN_BLOCK``
    state-agent pairs, reusing two block buffers, so its temporaries stay in
    cache whatever the grid size. The square root is taken after the min
    over agents: sqrt is monotone and correctly rounded, so this equals the
    min of the per-agent distances bit for bit.
    """
    pos = np.asarray(positions, dtype=float)
    agents = np.asarray(agent_positions, dtype=float).reshape(-1, 2)
    n_states, n_agents = pos.shape[0], agents.shape[0]
    out = np.full(n_states, math.inf)
    if n_agents == 0:
        return out
    rows = max(1, MARGIN_BLOCK // n_agents)
    dx = np.empty((min(rows, n_states), n_agents))
    dy = np.empty_like(dx)
    ax, ay = agents[:, 0], agents[:, 1]
    dists = np.empty(n_states)
    for lo in range(0, n_states, rows):
        hi = min(lo + rows, n_states)
        bx, by = dx[:hi - lo], dy[:hi - lo]
        np.subtract(pos[lo:hi, 0, None], ax, out=bx)
        np.subtract(pos[lo:hi, 1, None], ay, out=by)
        bx *= bx
        by *= by
        bx += by
        bx.min(axis=1, out=dists[lo:hi])
    np.sqrt(dists, out=dists)
    finite = np.isfinite(dists)
    out[finite] = dists[finite] - epsilon
    return out


@dataclass
class UnsafeSets:
    """Per-lookahead unsafe state sets and their constraint margins.

    f_sets[tau] holds the states whose margin to the lookahead-tau
    prediction is below lipschitz * radius(tau). Lookahead 0 is the already
    realized present and is always safe. margins[tau] keeps the raw
    constraint values for every state (used by the fallback action choice).
    """

    horizon: int
    f_sets: dict
    margins: dict
    thresholds: dict

    def is_unsafe(self, support, q):
        if q < 1 or q > self.horizon:
            return False
        f = self.f_sets[q]
        return any(s in f for s in support)


def unsafe_sets(positions, predictions, regions, epsilon, lipschitz=1.0):
    """Build per-lookahead unsafe sets from predictions and their radii.

    For each lookahead tau, a state is unsafe when its distance margin to
    the predicted joint agent state (minimum over agents, minus epsilon)
    falls below lipschitz * radius(tau). An infinite radius during ACP
    warm-up therefore marks every located state unsafe, the conservative
    answer; states without a location (margin +inf) are never unsafe.
    """
    if predictions.horizon != regions.horizon:
        raise InvalidSpec(
            f"prediction horizon {predictions.horizon} != regions horizon "
            f"{regions.horizon}")
    if epsilon < 0.0:
        raise InvalidSpec(f"epsilon must be >= 0, got {epsilon}")
    if lipschitz <= 0.0:
        raise InvalidSpec(f"lipschitz constant must be > 0, got {lipschitz}")
    horizon = predictions.horizon
    f_sets, margins, thresholds = {}, {}, {}
    for tau in range(1, horizon + 1):
        vals = constraint_values(positions, predictions.at(tau).positions, epsilon)
        threshold = lipschitz * regions.radius(tau)
        f_sets[tau] = frozenset(np.flatnonzero(vals < threshold).tolist())
        margins[tau] = vals
        thresholds[tau] = threshold
    return UnsafeSets(horizon=horizon, f_sets=f_sets, margins=margins,
                      thresholds=thresholds)


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
    actions = range(bsts.model.n_actions)
    regions = {h: frozenset(sup for sup in bsts.levels[h]
                            if not unsafe.is_unsafe(sup, h))}
    allowed = {}
    for q in range(h - 1, -1, -1):
        above = regions[q + 1]
        won = set()
        for sup in bsts.levels[q]:
            acts = tuple(
                a for a in actions
                if all(child in above
                       for child in bsts.post_by_obs(sup, q, a).values()))
            allowed[(sup, q)] = acts
            if acts and not unsafe.is_unsafe(sup, q):
                won.add(sup)
        if q >= 1:
            regions[q] = frozenset(won)
    return WinningRegions(regions=regions, allowed=allowed)


def keeps_winning(bsts, winning, support, q, action):
    """Certificate predicate: every successor of (support, q) under
    ``action`` lies in the claimed W^{q+1}, read straight off the BSTS edges.
    """
    target = winning.regions[q + 1]
    return all(child in target for child in bsts.post(support, q, action))


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
    """

    def __init__(self, bsts, winning):
        self.bsts = bsts
        self.horizon = bsts.horizon
        self._allowed = winning.allowed
        self._unconstrained = tuple(range(bsts.model.n_actions))

    def allowed(self, support, depth):
        """Certified actions from (support, depth); all actions past horizon."""
        if depth >= self.horizon:
            return self._unconstrained
        try:
            return self._allowed[(support, depth)]
        except KeyError:
            raise UnknownSupport(
                f"({sorted(support)}, {depth}) is not a BSTS node") from None

    def successor(self, support, depth, action, obs):
        """Child support after (action, obs), or None if obs impossible."""
        return self.bsts.post_by_obs(support, depth, action).get(obs)
