"""Belief-support safety shield computed by backward induction.

Safety here is a reach-avoid property over belief supports rather than
beliefs: whatever the observation sequence turns out to be, the support of
the belief must stay clear of the per-lookahead unsafe state sets derived
from the agent predictions and their conformal radii. The pipeline per
planning step:

1. enumerate the belief supports reachable from the current support within
   the prediction horizon (a small transition system over supports), level
   by level: once level q is collected, the unsafe set F_q (the states whose
   distance margin to the predicted agents falls below the conformal
   radius) is decided on the states that level holds alone, and only the
   supports clear of it are expanded. A support holding a state of F_q
   loses whatever lies below it, so it stays a leaf;
2. sweep backward over the horizon once: per depth and support, the
   actions that keep every observation outcome winning (the shield table),
   and from those the winning supports, safe ones with at least one such
   action; a leaf certifies nothing;
3. hold both in the step's one ``Shield``, which answers, for any support
   and depth, which actions are certified safe.

Supports are canonical frozensets of state indices; all structures built
here are immutable once constructed and safe to share.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidSpec, OutOfRange, UnknownSupport, is_int, require_int

MARGIN_BLOCK = 16_384     # state-agent pairs per block of margins


def validate_support(model, states):
    """Canonicalize a support and check members share a possible observation."""
    members = tuple(states)
    for s in members:
        if not is_int(s):
            raise InvalidSpec(f"support member {s!r} is not an int state")
    sup = frozenset(map(int, members))
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
    """Reachable belief supports within the horizon, layered by depth, built
    through safe supports only.

    ``levels[q]`` holds the level-q nodes: the root at 0, and the supports
    reachable in q steps through supports that are safe at their own level.
    Once level q (1..H) is collected, ``unsafe(q, states)`` decides F_q on
    ``states[q]``, the sorted int array of the states the level holds, and
    returns the set of those that are unsafe, kept as ``f_sets[q]``.
    ``safe[q]`` holds the level-q supports clear of it. Below the horizon
    those, and the root, are the expanded nodes; a support holding a state
    of F_q loses at its own depth whatever lies below it, so it stays an
    unexpanded leaf. Without ``unsafe`` nothing is unsafe and every node
    below the horizon is expanded.

    ``post_by_obs(sup, q, a)`` gives an expanded node's observation-grouped
    successor supports. With deterministic observations the successor
    supports partition the one-step successor union; with noisy observations
    a successor state can appear under every observation it may emit, so the
    groups form a cover. Either way each group is exactly the support the
    belief update would produce under that observation.

    A support's successor groups do not depend on its depth, so the edges
    live in one map, ``expansions`` (support -> per-action groups), which
    every BSTS of one model may share: a support expanded once is read from
    it, and new ones are added to it. The map may hold supports that are
    not expanded nodes of this BSTS, so lookups go through ``safe`` first.
    """

    def __init__(self, model, root, horizon, expansions=None, unsafe=None):
        require_int("horizon", horizon, 1)
        self.model = model
        self.horizon = horizon
        self.root = validate_support(model, root)
        self.levels = {0: {self.root}}
        self.states, self.f_sets, self.safe = {}, {}, {}
        self.expansions = expansions = {} if expansions is None else expansions
        frontier = (self.root,)
        for q in range(1, horizon + 1):
            nxt = set()
            for sup in frontier:
                groups = expansions.get(sup)
                if groups is None:
                    groups = expansions[sup] = _successor_groups(model, sup)
                for by_obs in groups:
                    nxt.update(by_obs.values())
            self.levels[q] = nxt
            held = set().union(*nxt)
            states = self.states[q] = np.sort(
                np.fromiter(held, dtype=np.intp, count=len(held)))
            f = frozenset() if unsafe is None or not held else unsafe(q, states)
            if not isinstance(f, (set, frozenset)):
                raise InvalidSpec(f"unsafe decision for lookahead {q} is not a set "
                                  f"of states: {f!r}")
            self.f_sets[q] = f
            frontier = self.safe[q] = frozenset(sup for sup in nxt if f.isdisjoint(sup))

    def expanded(self, support, q):
        """True when (support, q) is a node whose successors were collected."""
        return 0 <= q < self.horizon and (
            support in self.safe[q] if q else support == self.root)

    def post_by_obs(self, support, q, a):
        """dict observation -> successor support for one (node, action)."""
        if not self.expanded(support, q):
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


class UnsafeSet(frozenset):
    """F_tau on the states it was decided on: the frozenset of those whose
    constraint value falls below the radius.

    It keeps what it was decided from: ``states``, the int array of the
    decided states, ``values``, their ``constraint_values`` in the same
    order, and ``radius``, so a caller that ranks states by margin,
    such as ``planner.fallback_action``, need not compute them again.
    """

    __slots__ = ("states", "values", "radius")

    def __new__(cls, states, values, radius):
        self = super().__new__(cls, states[values < radius].tolist())
        self.states, self.values, self.radius = states, values, radius
        return self


def unsafe_sets(positions, predictions, radii, epsilon, within=None):
    """The unsafe sets {tau: F_tau}, tau = 1..H, of the predictions and the
    radii issued with them (``radii[tau - 1]`` for lookahead tau), each an
    ``UnsafeSet``.

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

    ``within``, a {tau: int array of states} map, limits the decision to
    those lookaheads and states: the result then holds, for each of its
    keys, F_tau restricted to its states. The default decides every
    lookahead on every state. A caller that reads a set only on some
    states, such as the BSTS build on one level's, passes them here. A
    nonempty states array whose dtype is not an integer one raises
    InvalidSpec, and one holding a state outside 0..n-1, n the number of
    positions, raises OutOfRange naming the first such state.
    """
    horizon = predictions.horizon
    if len(radii) != horizon:
        raise InvalidSpec(f"{len(radii)} radii for prediction horizon {horizon}")
    if not all(r >= 0.0 for r in radii):
        raise InvalidSpec(f"radii must be >= 0, got {tuple(radii)}")
    if not epsilon >= 0.0:
        raise InvalidSpec(f"epsilon must be >= 0, got {epsilon}")
    pos = np.asarray(positions, dtype=float)
    if within is None:
        within = dict.fromkeys(range(1, horizon + 1), np.arange(pos.shape[0]))
    out = {}
    n = pos.shape[0]
    for tau, states in within.items():
        agents = predictions.at(tau).positions
        given = np.asarray(states)
        if given.dtype.kind not in "iu" and given.size:
            raise InvalidSpec(f"within[{tau}] must be an int array of states, "
                              f"got dtype {given.dtype}")
        states = given.astype(np.intp, copy=False)
        if states.size and states.view(np.uintp).max() >= n:   # a negative state wraps past n
            first = given[(given < 0) | (given >= n)][0]
            raise OutOfRange(f"within[{tau}] holds state {first}, outside 0..{n - 1}")
        out[tau] = UnsafeSet(states, constraint_values(pos[states], agents, epsilon),
                             radii[tau - 1])
    return out


def compute_winning_regions(bsts):
    """One backward sweep over the BSTS levels: ``(regions, table)``, the
    two maps a ``Shield`` holds.

    It reads the BSTS's own safety decisions, ``bsts.safe``, and tests none
    again. Depth-H supports win by being safe alone (no lookahead exists
    beyond the prediction horizon). Below that, each expanded node's table
    entry is the actions sending every observation outcome into the next
    level's winning set, and it wins when that tuple is nonempty. An
    unexpanded leaf holds an unsafe state: its entry is empty and it loses.
    """
    h = bsts.horizon
    post = bsts.expansions
    regions = {h: bsts.safe[h]}
    table = {}
    for q in range(h - 1, -1, -1):
        above = regions[q + 1]
        row = table[q] = dict.fromkeys(bsts.levels[q], ())
        for sup in bsts.safe[q] if q else bsts.levels[0]:
            row[sup] = tuple(a for a, by_obs in enumerate(post[sup])
                             if above.issuperset(by_obs.values()))
        if q >= 1:
            regions[q] = frozenset(sup for sup, acts in row.items() if acts)
    return regions, table


class Shield:
    """Per-step shield: the winning regions and certified actions of one BSTS.

    ``regions[tau]`` holds the winning supports of level tau, 1..horizon, and
    ``table[q][support]`` the certified actions of every level-q node below
    the horizon: those whose every observation outcome lands in
    ``regions[q + 1]``, none for an unexpanded leaf. ``groups[support][action]``
    is the {observation: child support} dict of every expanded support; it
    is the BSTS's shared edge map, so it may hold supports of other BSTSs.
    The planner's inner loop reads these maps directly.

    ``allowed(support, depth)`` answers which actions are certified from a
    support sitting ``depth`` steps into the future (depth 0 is now).
    Depths at or beyond the horizon are unconstrained: the prediction
    regions say nothing about them. A negative depth raises OutOfRange.
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
        if depth < 0:
            raise OutOfRange(f"depth {depth} is negative")
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

    Re-derives, straight from the BSTS edges and the unsafe sets ``f_sets``
    ({tau: F_tau}, tau = 1..H, each at least on its level's states; anything
    else raises InvalidSpec), that (a) every claimed winning support is a
    level node with no unsafe state at its depth, (b) below the horizon it
    has a nonempty table entry, (c) every node below the horizon has a table
    entry, (d) every tabled action of an expanded node keeps all successors
    winning, and (e) every unexpanded node below the horizon holds a state
    of its F_q and certifies no action, so nothing safe was left out. (b)
    and (d) together give each winning support an all-winning action.
    Returns a list of violation descriptions, empty when the certificate
    holds.
    """
    problems = []
    bsts, table = shield.bsts, shield.table
    h = bsts.horizon
    if not (isinstance(f_sets, dict) and f_sets.keys() == set(range(1, h + 1))
            and all(isinstance(f, (set, frozenset)) for f in f_sets.values())):
        raise InvalidSpec(f"unsafe sets must map each lookahead 1..{h} to a "
                          f"set of states, got {f_sets!r}")
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
        expanded = bsts.safe[q] if q else bsts.levels[0]
        for sup in bsts.levels[q]:
            acts = table[q].get(sup)
            if acts is None:
                problems.append(f"q={q}: {sorted(sup)} has no table entry")
                continue
            if sup not in expanded:
                if f_sets[q].isdisjoint(sup):
                    problems.append(f"q={q}: {sorted(sup)} is left unexpanded but "
                                    "holds no unsafe state")
                if acts:
                    problems.append(f"q={q}: {sorted(sup)} is unexpanded but allows "
                                    f"actions {list(acts)}")
                continue
            for a in acts:
                if not keeps_winning(shield, sup, q, a):
                    problems.append(
                        f"q={q}: {sorted(sup)} allows action {a}, which can "
                        f"leave W^{q + 1}")
    return problems
