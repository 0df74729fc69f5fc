"""Belief-support safety shield computed by backward induction.

Safety here is a reach-avoid property over belief supports rather than
beliefs: whatever the observation sequence turns out to be, the support of
the belief must stay clear of the per-lookahead unsafe state sets derived
from the agent predictions and their conformal radii. The pipeline per
planning step:

1. enumerate the belief supports reachable from the current support within
   the prediction horizon (a small transition system over supports),
2. per lookahead tau, the unsafe set F_tau: the states whose distance
   margin to the predicted agents falls below the conformal radius,
   decided only on the states those supports hold,
3. sweep backward over the horizon once: per depth and support, the
   actions that keep every observation outcome winning (the shield table),
   and from those the winning supports, safe ones with at least one such
   action,
4. hold both in the step's one ``Shield``, which answers, for any support
   and depth, which actions are certified safe.

Supports are canonical frozensets of state indices; all structures built
here are immutable once constructed and safe to share.
"""

from __future__ import annotations

import math

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

    A support's successor groups do not depend on its depth, so the edges
    live in one map, ``expansions`` (support -> per-action groups), which
    every BSTS of one model may share: a support expanded once is read from
    it, and new ones are added to it. The map may hold supports that are
    not nodes of this BSTS, so lookups go through ``levels`` first.

    ``states`` is the sorted int array of the states the supports of levels
    1..H hold, the only states whose unsafe-set membership the shield reads.
    """

    def __init__(self, model, root, horizon, expansions=None):
        if horizon < 1:
            raise InvalidSpec(f"horizon must be >= 1, got {horizon}")
        self.model = model
        self.horizon = horizon
        self.root = validate_support(model, root)
        self.levels = {0: {self.root}}
        self.expansions = expansions = {} if expansions is None else expansions
        held = set()
        for q in range(horizon):
            nxt = set()
            for sup in self.levels[q]:
                groups = expansions.get(sup)
                if groups is None:
                    groups = expansions[sup] = _successor_groups(model, sup)
                for by_obs in groups:
                    nxt.update(by_obs.values())
            self.levels[q + 1] = nxt
            held.update(*nxt)
        self.states = np.sort(np.fromiter(held, dtype=np.intp, count=len(held)))

    def post_by_obs(self, support, q, a):
        """dict observation -> successor support for one (node, action)."""
        if not (0 <= q < self.horizon and support in self.levels[q]):
            raise UnknownSupport(f"({sorted(support)}, {q}) is not an expanded node")
        return self.expansions[support][a]

    def node_count(self):
        return sum(len(sups) for sups in self.levels.values())


def constraint_values(positions, agent_positions, epsilon):
    """Distance margin of every state's center to the closest predicted agent.

    positions: (n_states, 2), NaN rows for states without a location (those
    get +inf: nothing spatial can collide with them). agent_positions:
    (N, 2). Returns min_i dist(state, agent_i) - epsilon, with the min over
    zero agents +inf.

    Works through the agents in (agents, states) blocks of about
    ``MARGIN_BLOCK`` pairs, at least 16 agents a block, keeping the running
    min of the squared distances, so no temporary outgrows a block's two
    (agents, states) arrays. The square root is taken after the min over
    agents: sqrt is monotone and correctly rounded, so this equals the min
    of the per-agent distances bit for bit.
    """
    pos = np.asarray(positions, dtype=float)
    agents = np.asarray(agent_positions, dtype=float).reshape(-1, 2)
    sx, sy = pos[:, 0], pos[:, 1]
    nearest = np.full(pos.shape[0], math.inf)
    k = max(16, MARGIN_BLOCK // max(pos.shape[0], 1))
    for lo in range(0, agents.shape[0], k):
        dx = sx - agents[lo:lo + k, 0, None]
        dy = sy - agents[lo:lo + k, 1, None]
        dx *= dx
        dy *= dy
        dx += dy
        np.minimum(nearest, dx.min(axis=0), out=nearest)
    np.sqrt(nearest, out=nearest)
    return np.where(np.isfinite(nearest), nearest - epsilon, math.inf)


def unsafe_sets(positions, predictions, radii, epsilon, within=None):
    """The unsafe sets {tau: F_tau}, tau = 1..H, of the predictions and the
    radii issued with them (``radii[tau - 1]`` for lookahead tau).

    F_tau holds the states whose ``constraint_values`` margin to the
    lookahead-tau prediction falls below its radius. The radius itself is
    the threshold because the margin c(x, Y) = min_i ||x - y_i|| - epsilon
    is 1-Lipschitz in the agent positions Y under the nonconformity score's
    norm: agents within radius(tau) of their prediction move no margin by
    more than radius(tau). A larger factor would only shrink the safe set,
    a smaller one would be unsound. An infinite radius during ACP warm-up
    therefore marks every located state unsafe, the conservative answer;
    states without a location have a +inf margin and are never unsafe. A
    NaN or negative radius raises InvalidSpec, as does a radius count other
    than the prediction horizon.

    ``within``, an int array of states, limits the decision to those
    states: each set is then F_tau restricted to ``within``. The default
    decides every state. A caller that reads the sets only on some states,
    such as the shield on its BSTS's, passes them here.
    """
    horizon = predictions.horizon
    if len(radii) != horizon:
        raise InvalidSpec(f"{len(radii)} radii for prediction horizon {horizon}")
    if not all(r >= 0.0 for r in radii):
        raise InvalidSpec(f"radii must be >= 0, got {tuple(radii)}")
    if not epsilon >= 0.0:
        raise InvalidSpec(f"epsilon must be >= 0, got {epsilon}")
    pos = np.asarray(positions, dtype=float)
    states = np.arange(pos.shape[0]) if within is None else np.asarray(within, dtype=np.intp)
    pos = pos[states]
    return {tau: frozenset(states[constraint_values(pos, predictions.at(tau).positions,
                                                    epsilon) < radii[tau - 1]].tolist())
            for tau in range(1, horizon + 1)}


def compute_winning_regions(bsts, f_sets):
    """One backward sweep over the BSTS levels: ``(regions, table)``, the
    two maps a ``Shield`` holds.

    Depth-H supports win by avoiding the depth-H unsafe states alone (no
    lookahead exists beyond the prediction horizon). Below that, each
    node's table entry is the actions sending every observation outcome
    into the next level's winning set, and a support wins when it is safe
    at its own depth and that tuple is nonempty.
    """
    if len(f_sets) != bsts.horizon:
        raise InvalidSpec(f"{len(f_sets)} unsafe sets for bsts horizon {bsts.horizon}")
    h = bsts.horizon
    post = bsts.expansions
    regions = {h: frozenset(sup for sup in bsts.levels[h]
                            if f_sets[h].isdisjoint(sup))}
    table = {}
    for q in range(h - 1, -1, -1):
        above = regions[q + 1]
        won = set()
        row = table[q] = {}
        for sup in bsts.levels[q]:
            acts = row[sup] = tuple(a for a, by_obs in enumerate(post[sup])
                                    if above.issuperset(by_obs.values()))
            if acts and (q == 0 or f_sets[q].isdisjoint(sup)):
                won.add(sup)
        if q >= 1:
            regions[q] = frozenset(won)
    return regions, table


class Shield:
    """Per-step shield: the winning regions and certified actions of one BSTS.

    ``regions[tau]`` holds the winning supports of level tau, 1..horizon, and
    ``table[q][support]`` the certified actions of every level-q node below
    the horizon: those whose every observation outcome lands in
    ``regions[q + 1]``. ``groups[support][action]`` is the {observation:
    child support} dict of every expanded support; it is the BSTS's shared
    edge map, so it may hold supports of other BSTSs. The planner's inner
    loop reads these maps directly.

    ``allowed(support, depth)`` answers which actions are certified from a
    support sitting ``depth`` steps into the future (depth 0 is now).
    Depths at or beyond the horizon are unconstrained: the prediction
    regions say nothing about them.
    """

    def __init__(self, bsts, regions, table):
        self.bsts = bsts
        self.horizon = bsts.horizon
        self.regions = regions
        self.table = table
        self.groups = bsts.expansions
        self._unconstrained = tuple(range(bsts.model.n_actions))

    def allowed(self, support, depth):
        """Certified actions from (support, depth); all actions past horizon."""
        if depth >= self.horizon:
            return self._unconstrained
        try:
            return self.table[depth][support]
        except KeyError:
            raise UnknownSupport(
                f"({sorted(support)}, {depth}) is not a BSTS node") from None


def keeps_winning(shield, support, q, action):
    """Certificate predicate: every successor of (support, q) under
    ``action`` lies in the claimed W^{q+1}, read straight off the BSTS edges.
    """
    return shield.regions[q + 1].issuperset(
        shield.bsts.post_by_obs(support, q, action).values())


def verify_winning_regions(shield, f_sets):
    """Independent certificate check of a shield's winning regions and table.

    Re-derives, straight from the BSTS edges and unsafe sets, that (a) every
    claimed winning support is a level node with no unsafe state at its
    depth, (b) below the horizon it has a nonempty table entry, (c) every
    node below the horizon has a table entry, and (d) every tabled action
    keeps all successors winning. (b) and (d) together give each winning
    support an all-winning action. Returns a list of violation
    descriptions, empty when the certificate holds.
    """
    problems = []
    bsts, table = shield.bsts, shield.table
    h = bsts.horizon
    for tau in range(1, h + 1):
        for sup in shield.regions[tau]:
            if sup not in bsts.levels[tau]:
                problems.append(f"tau={tau}: {sorted(sup)} is not a level node")
                continue
            bad = sup & f_sets[tau]
            if bad:
                problems.append(
                    f"tau={tau}: {sorted(sup)} contains unsafe states {sorted(bad)}")
            if tau < h and not table[tau].get(sup):
                problems.append(
                    f"tau={tau}: {sorted(sup)} has no all-winning action")
    for q in range(h):
        for sup in bsts.levels[q]:
            acts = table[q].get(sup)
            if acts is None:
                problems.append(f"q={q}: {sorted(sup)} has no table entry")
                continue
            for a in acts:
                if not keeps_winning(shield, sup, q, a):
                    problems.append(
                        f"q={q}: {sorted(sup)} allows action {a}, which can "
                        f"leave W^{q + 1}")
    return problems
