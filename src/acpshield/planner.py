"""Shielded Monte Carlo tree search over histories (POMCP-style).

The planner runs simulations through the generative model: UCB action
selection at visited nodes, expansion plus a rollout at the frontier, and
incremental-mean backpropagation of discounted returns. The shield from
:mod:`.shield` restricts both selection and rollouts for the first H tree
levels: an action is searchable only when every observation outcome keeps
the belief support winning. Each tree node's belief support is resolved
exactly from the BSTS (the root support is the particle support), and its
searchable actions are read straight off the shield table. That table
never leaves a reachable node below the horizon without an action, so the
search has no dead ends to handle; a broken table is the certificate
verifier's to catch.

A planning step owns the tree exclusively. Trees are rebuilt from a fresh
root each environment step: the shield changes with every new prediction,
so retained grandchildren would carry stale pruning decisions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import AllActionsShielded, EmptyBelief, InvalidSpec
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
    is expanded. Only the root holds ``particles``: the tree is rebuilt
    every step, so nothing reads particles below it.
    """

    __slots__ = ("visits", "particles", "support", "depth", "edges", "allowed")

    def __init__(self, depth, support, allowed, particles=None):
        self.visits = 0
        self.particles = particles
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
        if self.num_simulations < 1:
            raise InvalidSpec(f"num_simulations must be >= 1, got {self.num_simulations}")
        if self.max_depth < 1:
            raise InvalidSpec(f"max_depth must be >= 1, got {self.max_depth}")
        if self.particle_count < 1:
            raise InvalidSpec(f"particle_count must be >= 1, got {self.particle_count}")
        if self.ucb_constant < 0.0:
            raise InvalidSpec(f"ucb_constant must be >= 0, got {self.ucb_constant}")
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


def safe_margin(constraint_value, threshold):
    """Margin of one successor state against the lookahead-1 threshold.

    Located states keep c - threshold; states without a location
    (c = +inf) are unconditionally safe, and a +inf threshold makes every
    located state maximally unsafe. The two rules keep inf - inf out of
    the arithmetic.
    """
    if math.isinf(constraint_value):
        return math.inf
    if math.isinf(threshold):
        return -math.inf
    return constraint_value - threshold


def fallback_action(model, support, unsafe):
    """Least-bad action when the shield allows nothing.

    Maximizes the worst-case one-step margin over all successor states of
    the support; ties go to the lowest action index. Used only after
    AllActionsShielded, so "safe" options no longer exist and the margin
    ranking is a best effort. Only the successors' margins are computed.
    """
    threshold = unsafe.thresholds.get(1)
    if threshold is None or 1 not in unsafe.agents:
        raise InvalidSpec("unsafe sets carry no lookahead-1 agent positions")
    successors = [[s2 for s in support for s2 in model.successors(s, a)]
                  for a in range(model.n_actions)]
    states = sorted(set().union(*successors))
    margins = dict(zip(states, unsafe.margins(1, states).tolist()))
    best_action, best = 0, -math.inf
    for a, succ in enumerate(successors):
        worst = math.inf
        for s2 in succ:
            m = safe_margin(margins[s2], threshold)
            if m < worst:
                worst = m
        if worst > best:
            best, best_action = worst, a
    return best_action


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

    # -- tree construction ---------------------------------------------------

    def make_root(self, particles):
        """Root node over a particle list; the next plan call certifies its actions."""
        if not particles:
            raise EmptyBelief("root needs at least one particle")
        particles = list(particles)
        self._node_count = 1
        return SearchNode(0, frozenset(particles), self._all_actions, particles)

    def _make_child(self, parent, action, observation, shield):
        depth = parent.depth + 1
        self._node_count += 1
        if shield is None or parent.support is None or depth >= shield.horizon:
            return SearchNode(depth, None, self._all_actions)
        support = shield.successor(parent.support, parent.depth, action, observation)
        return SearchNode(depth, support, shield.allowed(support, depth))

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
        sims = 0
        while sims < cfg.num_simulations and root.allowed:
            self.simulate(root, states[int(draw() * n_states)], 0, shield)
            sims += 1
        chosen = None
        best = -math.inf
        if root.edges is not None:
            for a in root.allowed:
                v = root.edges[a].value
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
        """One search pass from ``node`` at ``state``; returns the sampled return."""
        cfg = self.config
        model = self.model
        if depth >= cfg.max_depth or state in model.absorbing_zero:
            return 0.0
        if node.edges is None:
            node.edges = [ActionEdge() for _ in range(model.n_actions)]
            node.visits += 1
            return self.rollout(state, depth, node.support, shield)

        action = self._select_ucb(node)
        s2, obs, reward = model.generative_step(state, action, self.rng)
        edge = node.edges[action]
        children = edge.children
        child = children.get(obs)
        if child is None:
            child = children[obs] = self._make_child(node, action, obs, shield)
        total = reward + self.discount * self.simulate(child, s2, depth + 1, shield)
        edge.visits += 1
        edge.value += (total - edge.value) / edge.visits
        node.visits += 1
        return total

    def _select_ucb(self, node):
        """Lowest-index unvisited allowed action, else the highest UCB score."""
        edges = node.edges
        allowed = node.allowed
        log_n = math.log(node.visits) if node.visits > 0 else 0.0
        c = self.config.ucb_constant
        sqrt = math.sqrt
        best_a = allowed[0]
        best = -math.inf
        for a in allowed:
            edge = edges[a]
            visits = edge.visits
            if visits <= 0:
                return a
            score = edge.value + c * sqrt(log_n / visits)
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
        rollout. Past the horizon the rollout is unconstrained.
        """
        max_depth = self.config.max_depth
        absorbing = self.model.absorbing_zero
        step = self.model.generative_step
        rng = self.rng
        draw = rng.random
        table = self.rollout_actions
        discount = self.discount
        ret = 0.0
        disc = 1.0
        d = depth
        if shield is not None and support is not None:
            horizon = shield.horizon
            allowed, successor = shield.allowed, shield.successor
            while d < max_depth and d < horizon and support is not None:
                if state in absorbing:
                    return ret
                acts = allowed(support, d)
                if not acts:
                    return ret            # dead end: truncate the rollout
                if table is None or table[state] not in acts:
                    action = acts[int(draw() * len(acts))]
                else:
                    action = table[state]
                state, obs, reward = step(state, action, rng)
                ret += disc * reward
                disc *= discount
                support = successor(support, d, action, obs) if d + 1 < horizon else None
                d += 1
        n_actions = self.model.n_actions
        for _ in range(d, max_depth):
            if state in absorbing:
                break
            action = table[state] if table is not None else int(draw() * n_actions)
            state, _, reward = step(state, action, rng)
            ret += disc * reward
            disc *= discount
        return ret

    # -- root advancement ------------------------------------------------------

    def advance_root(self, root, action, observation):
        """Fresh root for the executed (action, observation).

        Its particles are drawn from the exact posterior of the old root's
        (:func:`.pomdp.resample_particles`). The subtree is
        discarded because the next step's shield invalidates every stored
        pruning decision. Raises ParticleDeprivation when no successor of
        the old particles is consistent with the observation.
        """
        return self.make_root(resample_particles(
            self.model, root.particles, action, observation,
            self.config.particle_count, self.rng))
