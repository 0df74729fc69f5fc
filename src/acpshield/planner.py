"""Shielded Monte Carlo tree search over histories (POMCP-style).

The planner runs simulations through the generative model: UCB action
selection at visited nodes, expansion plus a rollout at the frontier, and
incremental-mean backpropagation of discounted returns. The shield from
:mod:`.shield` restricts both selection and rollouts for the first H tree
levels: an action is searchable only when every observation outcome keeps
the belief support winning. Because each tree node's belief support is
resolved exactly from the BSTS (the root support is the particle support),
the per-node check subsumes the particle-set test and can prune whole
action branches at expansion time.

A planning step owns the tree exclusively. Trees are rebuilt from a fresh
root each environment step: the shield changes with every new prediction,
so retained grandchildren would carry stale pruning decisions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import (
    AllActionsShielded,
    EmptyBelief,
    InvalidSpec,
    UnknownSupport,
)
from .pomdp import ParticleBelief, resample_particles


class ActionEdge:
    """Statistics of one action at one history node."""

    __slots__ = ("visits", "value", "children")

    def __init__(self, n_init, v_init):
        self.visits = n_init
        self.value = v_init
        self.children = {}        # observation -> SearchNode


class SearchNode:
    """One history node: visit statistics, particles, shield bookkeeping.

    ``support`` is the node's exact belief support resolved by following
    the (action, observation) path through the BSTS; it is None once the
    node sits at or beyond the shield horizon (or when unshielded).
    ``allowed`` lists the currently searchable actions; ``pruned`` the
    actions removed by the shield or by dead-end propagation. ``edges`` is
    None until the node is expanded.
    """

    __slots__ = ("visits", "value", "particles", "support", "depth",
                 "edges", "allowed", "pruned", "dead")

    def __init__(self, particles, depth, support, allowed, pruned):
        self.visits = 0
        self.value = 0.0
        self.particles = particles
        self.depth = depth
        self.support = support
        self.edges = None
        self.allowed = list(allowed)
        self.pruned = set(pruned)
        self.dead = not self.allowed

    def prune(self, action):
        if action in self.allowed:
            self.allowed.remove(action)
            self.pruned.add(action)
        if not self.allowed:
            self.dead = True


@dataclass
class PlannerConfig:
    """Search budget and constants; defaults follow the benchmark setup."""

    num_simulations: int = 4096
    max_depth: int = 200
    ucb_constant: float = 500.0
    particle_count: int = 10000
    rollout_policy: str = "random"
    discount: float = None       # None: use the model's
    n_init: int = 0
    v_init: float = 0.0
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
        if self.n_init < 0:
            raise InvalidSpec(f"n_init must be >= 0, got {self.n_init}")
        if self.discount is not None and not (0.0 < self.discount <= 1.0):
            raise InvalidSpec(f"discount {self.discount} outside (0, 1]")


@dataclass
class PlanStats:
    """Diagnostics of the last planning call."""

    simulations: int
    nodes: int
    chosen: int
    root_value: float
    root_action_values: tuple
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
    ranking is a best effort.
    """
    margins = unsafe.margins.get(1)
    threshold = unsafe.thresholds.get(1)
    if margins is None or threshold is None:
        raise InvalidSpec("unsafe sets carry no lookahead-1 margins")
    best_action, best = 0, -math.inf
    for a in range(model.n_actions):
        worst = math.inf
        for s in support:
            for s2 in model.successors(s, a):
                m = safe_margin(margins[s2], threshold)
                if m < worst:
                    worst = m
        if worst > best:
            best, best_action = worst, a
    return best_action


class Planner:
    """Per-episode planner: owns the rng, the config, and the rollout policy.

    ``rollout_policy_fn`` optionally maps (state, rng) to a preferred
    action; the shield still filters it. None means uniform random.
    """

    def __init__(self, model, config=None, rollout_policy_fn=None):
        self.model = model
        self.config = config or PlannerConfig()
        self.rng = random.Random(self.config.seed)
        self.discount = (self.config.discount if self.config.discount is not None
                         else model.discount)
        self.rollout_policy_fn = rollout_policy_fn
        self.last_stats = None
        self._node_count = 0

    # -- tree construction ---------------------------------------------------

    def make_root(self, particles):
        """Bare root node from a particle list; armed by the next plan call."""
        if not particles:
            raise EmptyBelief("root needs at least one particle")
        belief = ParticleBelief(list(particles), capacity=self.config.particle_count)
        node = SearchNode(belief, depth=0, support=None,
                          allowed=range(self.model.n_actions), pruned=())
        self._node_count = 1
        return node

    def _certified(self, shield, support, depth):
        """(allowed, pruned) actions of a shielded node; a support outside
        the BSTS allows nothing, the conservative answer."""
        try:
            acts = shield.allowed(support, depth)
        except UnknownSupport:
            acts = ()
        return acts, set(range(self.model.n_actions)) - set(acts)

    def _arm_root(self, root, shield):
        root.support = frozenset(root.particles.particles)
        if shield is None:
            acts, root.pruned = range(self.model.n_actions), set()
        else:
            acts, root.pruned = self._certified(shield, root.support, 0)
        root.allowed = list(acts)
        root.dead = not root.allowed

    def _make_child(self, parent, action, observation, shield):
        depth = parent.depth + 1
        support = None               # stays None beyond the shielded levels
        allowed, pruned = range(self.model.n_actions), ()
        if shield is not None and parent.support is not None and depth < shield.horizon:
            support = shield.successor(parent.support, parent.depth, action, observation)
            allowed, pruned = self._certified(shield, support, depth)
        self._node_count += 1
        belief = ParticleBelief([], capacity=self.config.particle_count)
        return SearchNode(belief, depth, support, allowed, pruned)

    # -- search ---------------------------------------------------------------

    def plan(self, root, shield=None):
        """Run the simulation budget and return the best certified action."""
        cfg = self.config
        if shield is not None and cfg.max_depth < shield.horizon:
            raise InvalidSpec(
                f"max_depth {cfg.max_depth} below shield horizon {shield.horizon}")
        if len(root.particles) == 0:
            raise EmptyBelief("cannot plan from an empty particle set")
        self._arm_root(root, shield)
        sims = 0
        if not root.dead:
            states = root.particles.particles
            n = len(states)
            for _ in range(cfg.num_simulations):
                if root.dead:
                    break
                state = states[int(self.rng.random() * n)]
                self.simulate(root, state, 0, shield)
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
            best = 0.0
        values = tuple(root.edges[a].value if root.edges is not None else 0.0
                       for a in range(self.model.n_actions))
        self.last_stats = PlanStats(
            simulations=sims, nodes=self._node_count, chosen=chosen,
            root_value=root.value, root_action_values=values,
            root_allowed=tuple(root.allowed), root_pruned=tuple(sorted(root.pruned)))
        if chosen is None:
            raise AllActionsShielded(
                f"no action is certified from support {sorted(root.support or ())}")
        return chosen

    def simulate(self, node, state, depth, shield):
        """One search pass from ``node`` at ``state``; returns the sampled return."""
        cfg = self.config
        if depth >= cfg.max_depth or state in self.model.absorbing_zero:
            return 0.0
        if node.dead:
            return 0.0
        if node.edges is None:
            node.edges = [ActionEdge(cfg.n_init, cfg.v_init)
                          for _ in range(self.model.n_actions)]
            ret = self.rollout(state, depth, node.support, shield)
            node.visits += 1
            node.value += (ret - node.value) / node.visits
            return ret

        action = self._select_ucb(node)
        s2, obs, reward = self.model.generative_step(state, action, self.rng)
        edge = node.edges[action]
        child = edge.children.get(obs)
        if child is None:
            child = self._make_child(node, action, obs, shield)
            edge.children[obs] = child
        if child.dead:
            # dead end below: truncate this branch and stop selecting it
            node.prune(action)
            total = reward
        else:
            child.particles.add(s2)
            total = reward + self.discount * self.simulate(child, s2, depth + 1, shield)
            if child.dead:
                node.prune(action)
        edge.visits += 1
        edge.value += (total - edge.value) / edge.visits
        node.visits += 1
        node.value += (total - node.value) / node.visits
        return total

    def _select_ucb(self, node):
        for a in node.allowed:            # unvisited first, lowest index
            if node.edges[a].visits <= 0:
                return a
        log_n = math.log(node.visits) if node.visits > 0 else 0.0
        c = self.config.ucb_constant
        best_a = node.allowed[0]
        best = -math.inf
        for a in node.allowed:
            edge = node.edges[a]
            score = edge.value + c * math.sqrt(log_n / edge.visits)
            if score > best:
                best, best_a = score, a
        return best_a

    def rollout(self, state, depth, support, shield):
        """Play out with the rollout policy; shield-restricted while in horizon."""
        cfg = self.config
        model = self.model
        rng = self.rng
        policy = self.rollout_policy_fn
        ret = 0.0
        disc = 1.0
        for d in range(depth, cfg.max_depth):
            if state in model.absorbing_zero:
                break
            acts = None
            if shield is not None and support is not None and d < shield.horizon:
                acts = shield.allowed(support, d)
                if not acts:
                    break                 # dead end: truncate the rollout
            if policy is not None:
                action = policy(state, rng)
                if acts is not None and action not in acts:
                    action = acts[int(rng.random() * len(acts))]
            elif acts is not None:
                action = acts[int(rng.random() * len(acts))]
            else:
                action = int(rng.random() * model.n_actions)
            s2, obs, reward = model.generative_step(state, action, rng)
            ret += disc * reward
            disc *= self.discount
            if shield is not None and support is not None:
                support = (shield.successor(support, d, action, obs)
                           if d + 1 < shield.horizon else None)
            state = s2
        return ret

    # -- root advancement ------------------------------------------------------

    def advance_root(self, root, action, observation):
        """Refresh the root for the executed (action, observation).

        Particles are rejection-filtered through the simulator from the old
        root's particles; when acceptance is too low the remainder is drawn
        uniformly from the observation-consistent successor states. Returns
        a fresh root: the subtree is discarded because the next step's
        shield invalidates all stored pruning decisions.
        """
        old = root.particles.particles
        if not old:
            raise EmptyBelief("cannot advance an empty particle set")
        model = self.model
        pool = sorted({s2 for s in set(old) for s2 in model.successors(s, action)
                       if model.observation_prob(s2, action, observation) > 0.0})
        particles = resample_particles(
            model, old, action, observation, self.config.particle_count,
            self.rng, fallback_states=pool)
        return self.make_root(particles)
