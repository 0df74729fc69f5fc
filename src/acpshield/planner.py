"""Shielded Monte Carlo tree search over histories (POMCP-style).

One simulation is one flat loop: it walks down the tree by UCB action
selection while the nodes are expanded, expands the first unexpanded node
with a rollout, and backs the discounted return up the walked path in
reverse as incremental means. An action's edge is created the first time
the action is selected; an action without one counts as unvisited. Every
step draws its successor and observation straight from the model's sparse
rows (:attr:`.PomdpModel.rows`), with the same two ``rng.random()``
draws as :meth:`.PomdpModel.generative_step`, which only the environment
calls. Past the shield horizon a rollout reads one precomputed row per
state and still makes the observation draw, so the random-number stream
does not depend on how a step is sampled.

The shield from :mod:`.shield` restricts both selection and rollouts for
the first H tree levels: an action is searchable only when every
observation outcome keeps the belief support winning. Each tree node's
belief support is resolved exactly from the BSTS (the root support is the
set of states the root's particle counts hold; each refresh returns the
counts with its particles), and its searchable actions are read straight
off the shield's depth-indexed table, ``Shield.table[depth][support]``,
with the child support from ``Shield.groups``, without a method call per
child.
That table never leaves a reachable node below the horizon without an
action, so the search has no dead ends to handle; a broken table is the
certificate verifier's to catch.

A planning step owns the tree exclusively. Trees are rebuilt from a fresh
root each environment step: the shield changes with every new prediction,
so retained grandchildren would carry stale pruning decisions.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import AllActionsShielded, EmptyBelief, InvalidSpec, require_int
from .pomdp import resample_particles


class ActionEdge:
    """Statistics of one action at one history node."""

    __slots__ = ("visits", "value", "children")

    def __init__(self):
        self.visits = 0
        self.value = 0.0
        self.children = {}        # observation -> SearchNode


class SearchNode:
    """One history node: its visit count and the actions search may take.

    ``support`` is the node's exact belief support: at the root the support
    of its particles, below it the BSTS node reached along the (action,
    observation) path. It is None once the node sits at or beyond the shield
    horizon, and below the root when unshielded. ``allowed`` is the tuple of
    actions search may take: the shield table's entry for the node below
    the horizon, every action otherwise. ``edges`` is None until the node
    is expanded, then one slot per action, None until search first selects
    that action. Only the root holds ``particles``, the particle list search
    samples from, and ``counts``, the same particles as {state: n_s} in
    first-occurrence order, from which the next refresh starts: the tree is
    rebuilt every step, so nothing reads particles below it.
    """

    __slots__ = ("visits", "particles", "counts", "support", "depth", "edges", "allowed")

    def __init__(self, depth, support, allowed, particles=None, counts=None):
        self.visits = 0
        self.particles = particles
        self.counts = counts
        self.depth = depth
        self.support = support
        self.edges = None
        self.allowed = allowed


@dataclass
class PlannerConfig:
    """Search budget and constants; defaults follow the benchmark setup."""

    num_simulations: int = 4096
    max_depth: int = 200
    ucb_constant: float = 500.0
    particle_count: int = 10000
    rollout_policy: str = "random"
    seed: int = 0

    def __post_init__(self):
        require_int("num_simulations", self.num_simulations, 1)
        require_int("max_depth", self.max_depth, 1)
        require_int("particle_count", self.particle_count, 1)
        require_int("seed", self.seed, 0)
        if not 0.0 <= self.ucb_constant < math.inf:
            raise InvalidSpec(f"ucb_constant must be finite and >= 0, got {self.ucb_constant}")
        if self.rollout_policy not in ("random", "goal-greedy"):
            raise InvalidSpec(f"rollout_policy {self.rollout_policy!r} is not "
                              "'random' or 'goal-greedy'")


@dataclass
class PlanStats:
    """Diagnostics of the last planning call."""

    simulations: int
    nodes: int
    chosen: int
    root_allowed: tuple
    root_pruned: tuple


def fallback_action(model, support, unsafe_1):
    """Least-bad action when the shield allows nothing.

    Maximizes the worst-case one-step margin over all successor states of
    the support: each successor's constraint value against the lookahead-1
    prediction, less its radius; ties go to the lowest action index. The
    values and the radius come from ``unsafe_1``, the ``UnsafeSet`` F_1 as
    ``unsafe_sets`` decided it on at least those successors (the BSTS build
    decides it on level 1, exactly the root's successors), so no margin is
    computed twice. A state without a location (c = +inf) keeps +inf even
    against an infinite radius. Used only after AllActionsShielded, so
    "safe" options no longer exist and the margin ranking is a best effort.
    """
    values = unsafe_1.values
    with np.errstate(invalid="ignore"):
        margins = np.where(np.isinf(values), values, values - unsafe_1.radius)
    margin = dict(zip(unsafe_1.states.tolist(), margins.tolist()))
    worst = [min(margin[s2] for s in support for s2 in model.successors(s, a))
             for a in range(model.n_actions)]
    return worst.index(max(worst))


class Planner:
    """Per-episode planner: owns the rng, the config, and the rollout actions.

    ``rollout_actions`` optionally holds one preferred rollout action per
    model state (for example :func:`.gridworld.goal_greedy_actions`); the
    shield still filters it. None means uniform random rollouts.
    """

    def __init__(self, model, config=None, rollout_actions=None):
        self.model = model
        self.config = config or PlannerConfig()
        self.rng = random.Random(self.config.seed)
        self.discount = model.discount
        self._all_actions = tuple(range(model.n_actions))
        if rollout_actions is not None and len(rollout_actions) != model.n_states:
            raise InvalidSpec(f"rollout table has {len(rollout_actions)} entries "
                              f"for {model.n_states} states")
        self.rollout_actions = rollout_actions
        self.last_stats = None
        self._node_count = 0
        rows = self._rows = model.rows
        # the unshielded rollout tail's row per state: the table action's
        # row, or every action's without a table; None where it stops
        absorbing = model.absorbing_zero
        self._tail = tuple(
            None if s in absorbing else
            rows[s] if rollout_actions is None else rows[s][rollout_actions[s]]
            for s in range(model.n_states))

    # -- tree construction ---------------------------------------------------

    def make_root(self, particles, counts=None):
        """Root node over a particle list, kept as given, not copied; the
        next plan call certifies its actions.

        ``counts`` are the particles as {state: n_s} in first-occurrence
        order, as :func:`.pomdp.resample_particles` returns them; None counts
        the list with one ``Counter``, as for an episode's first root. The
        root's support is the set of the counted states.
        """
        if not particles:
            raise EmptyBelief("root needs at least one particle")
        if counts is None:
            counts = Counter(particles)
        self._node_count = 1
        return SearchNode(0, frozenset(counts), self._all_actions, particles, counts)

    def _make_child(self, parent, action, observation, shield):
        depth = parent.depth + 1
        self._node_count += 1
        if shield is None or parent.support is None or depth >= shield.horizon:
            return SearchNode(depth, None, self._all_actions)
        support = shield.groups[parent.support][action].get(observation)
        return SearchNode(depth, support, shield.table[depth][support])

    # -- search ---------------------------------------------------------------

    def plan(self, root, shield=None):
        """Run the simulation budget and return the best certified action.

        Raises UnknownSupport when the root support is not the shield's
        BSTS root, and AllActionsShielded when the shield certifies nothing.
        """
        cfg = self.config
        if shield is not None and cfg.max_depth < shield.horizon:
            raise InvalidSpec(
                f"max_depth {cfg.max_depth} below shield horizon {shield.horizon}")
        root.allowed = (self._all_actions if shield is None
                        else shield.allowed(root.support, 0))
        states = root.particles
        n_states = len(states)
        draw = self.rng.random
        simulate = self.simulate
        sims = 0
        while sims < cfg.num_simulations and root.allowed:
            simulate(root, states[int(draw() * n_states)], 0, shield)
            sims += 1
        chosen = None
        best = -math.inf
        if root.edges is not None:
            for a in root.allowed:
                edge = root.edges[a]
                v = edge.value if edge is not None else 0.0
                if v > best:
                    best, chosen = v, a
        elif root.allowed:
            chosen = root.allowed[0]      # no simulation managed to expand
        self.last_stats = PlanStats(
            simulations=sims, nodes=self._node_count, chosen=chosen,
            root_allowed=root.allowed,
            root_pruned=tuple(a for a in self._all_actions if a not in root.allowed))
        if chosen is None:
            raise AllActionsShielded(
                f"no action is certified from support {sorted(root.support)}")
        return chosen

    def simulate(self, node, state, depth, shield):
        """One search pass from ``node`` at ``state``; returns the sampled return.

        Walks down by UCB while the nodes are expanded, drawing each step
        straight from the model's rows, expands the first unexpanded node
        with a rollout, then backs the discounted return up the walked
        path in reverse, as incremental means.
        """
        max_depth = self.config.max_depth
        absorbing = self.model.absorbing_zero
        rows = self._rows
        draw = self.rng.random
        select = self._select_ucb
        path = []
        ret = 0.0
        while depth < max_depth and state not in absorbing:
            edges = node.edges
            if edges is None:
                node.edges = [None] * len(self._all_actions)
                node.visits += 1
                ret = self.rollout(state, depth, node.support, shield)
                break
            action = select(node)
            succ, cum, reward, obs_rows = rows[state][action]
            i = bisect_left(cum, draw())
            obs, ocum = obs_rows[i]
            obs = obs[bisect_left(ocum, draw())]
            edge = edges[action]
            if edge is None:
                edge = edges[action] = ActionEdge()
            child = edge.children.get(obs)
            if child is None:
                child = edge.children[obs] = self._make_child(node, action, obs, shield)
            path.append((node, edge, reward))
            node, state = child, succ[i]
            depth += 1
        discount = self.discount
        for node, edge, reward in reversed(path):
            ret = reward + discount * ret
            edge.visits += 1
            edge.value += (ret - edge.value) / edge.visits
            node.visits += 1
        return ret

    def _select_ucb(self, node):
        """Lowest-index allowed action without an edge, else the highest UCB score."""
        edges = node.edges
        allowed = node.allowed
        log_n = math.log(node.visits) if node.visits > 0 else 0.0
        c = self.config.ucb_constant
        sqrt = math.sqrt
        best_a = allowed[0]
        best = -math.inf
        for a in allowed:
            edge = edges[a]
            if edge is None:
                return a
            score = edge.value + c * sqrt(log_n / edge.visits)
            if score > best:
                best, best_a = score, a
        return best_a

    def rollout(self, state, depth, support, shield):
        """Play out from ``state`` at ``depth``; returns the discounted return.

        Each step takes the state's entry of ``rollout_actions``, or a
        uniform random action without a table. While the shield has a
        support for the step (below its horizon), only certified actions
        are taken: an uncertified table entry is replaced by a uniform
        draw among the certified ones, and a support with none ends the
        rollout. Past the horizon the rollout is unconstrained and reads
        one precomputed row per state; it still draws the observation it
        does not need, so every step takes the same draws as
        :meth:`.PomdpModel.generative_step`.
        """
        max_depth = self.config.max_depth
        draw = self.rng.random
        table = self.rollout_actions
        discount = self.discount
        ret = 0.0
        disc = 1.0
        d = depth
        if shield is not None and support is not None:
            absorbing = self.model.absorbing_zero
            rows = self._rows
            horizon, certified, groups = shield.horizon, shield.table, shield.groups
            while d < max_depth and d < horizon and support is not None:
                if state in absorbing:
                    return ret
                acts = certified[d][support]
                if not acts:
                    return ret            # dead end: truncate the rollout
                if table is None or table[state] not in acts:
                    action = acts[int(draw() * len(acts))]
                else:
                    action = table[state]
                succ, cum, reward, obs_rows = rows[state][action]
                i = bisect_left(cum, draw())
                obs, ocum = obs_rows[i]
                obs = obs[bisect_left(ocum, draw())]
                state = succ[i]
                ret += disc * reward
                disc *= discount
                support = groups[support][action].get(obs) if d + 1 < horizon else None
                d += 1
        tail = self._tail
        if table is None:
            n_actions = self.model.n_actions
            for _ in range(d, max_depth):
                row = tail[state]
                if row is None:
                    break
                succ, cum, reward, _ = row[int(draw() * n_actions)]
                state = succ[bisect_left(cum, draw())]
                draw()                    # the observation, unused
                ret += disc * reward
                disc *= discount
        else:
            for _ in range(d, max_depth):
                row = tail[state]
                if row is None:
                    break
                succ, cum, reward, _ = row
                state = succ[bisect_left(cum, draw())]
                draw()                    # the observation, unused
                ret += disc * reward
                disc *= discount
        return ret

    # -- root advancement ------------------------------------------------------

    def advance_root(self, root, action, observation):
        """Fresh root for the executed (action, observation).

        Its particles are drawn from the exact posterior of the old root's
        counts (:func:`.pomdp.resample_particles`), which also counts them
        for the new root. The subtree is
        discarded because the next step's shield invalidates every stored
        pruning decision. Raises ParticleDeprivation when no successor of
        the old particles is consistent with the observation.
        """
        return self.make_root(*resample_particles(
            self.model, root.counts, action, observation,
            self.config.particle_count, self.rng))
