"""Independent reference implementations used to pin expected test values.

Everything here is deliberately brute-force: dense matrix filtering,
explicit policy enumeration, small expectimax. These are the oracles the
package code is checked against, so they must stay straightforward enough
to audit by eye and must not import the package's own algorithms beyond
plain model table access; ``resample_choices_oracle`` takes its posterior
from the exact belief update, whose own oracle is ``exact_filter``.
``episode_digest`` is the one non-oracle here:
the canonical form that pins whole episodes, shield internals included.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, replace

import numpy as np

from acpshield.errors import ImpossibleObservation, InvalidModel, ParticleDeprivation
from acpshield.pomdp import BeliefState, PomdpModel, belief_update
from acpshield.trajectory import JointAgentState, PredictionSet, TrajectorySource


def model_from_tables(transition, reward, observation_fn, discount=0.95):
    """A PomdpModel from dense arrays T (n_s, n_a, n_s), R (n_s, n_a) and
    Z (n_s, n_a, n_o), its zero entries left out of the sparse rows."""
    t, r, z = (np.asarray(table, dtype=float) for table in (transition, reward, observation_fn))
    n_s, n_a, n_o = z.shape
    pairs = [(s, a) for s in range(n_s) for a in range(n_a)]
    t_rows = {(s, a): [(s2, float(p)) for s2, p in enumerate(t[s, a]) if p != 0.0]
              for s, a in pairs}
    z_rows = {(s, a): [(o, float(p)) for o, p in enumerate(z[s, a]) if p != 0.0]
              for s, a in pairs}
    rewards = {(s, a): float(r[s, a]) for s, a in pairs if r[s, a] != 0.0}
    return PomdpModel([f"s{i}" for i in range(n_s)], [f"a{i}" for i in range(n_a)],
                      [f"o{i}" for i in range(n_o)], t_rows, z_rows, rewards,
                      discount=discount)


def n_observations(model):
    return len(model.obs_names)


def transition_row(model, s, a):
    """Successors of (s, a) as (indices, probs) arrays, from ``model.rows``."""
    idxs, cum, _, _ = model.rows[s][a]
    return np.asarray(idxs), np.diff(np.asarray(cum), prepend=0.0)


def observation_row(model, s2, a):
    """Observations of landed state s2 under a as (indices, probs) arrays."""
    idxs = model.observation_support(s2, a)
    return np.asarray(idxs), np.array([model.observation_prob(s2, a, o) for o in idxs])


def cell_and_block(spec, s):
    """Grid state ``s`` as its (x, y) cell and that cell's 2x2 block (x // 2, y // 2)."""
    return (s % spec.width, s // spec.width), (s % spec.width // 2, s // spec.width // 2)


def dense_tables(model, max_states=512):
    """Dense (T, Z, R) arrays of a model, filled from its sparse rows.

    T: (n_s, n_a, n_s), Z: (n_s, n_a, n_o), R: (n_s, n_a). Refuses models
    above ``max_states`` states, whose dense T grows with the square of
    the state count.
    """
    n_s, n_a, n_o = model.n_states, model.n_actions, n_observations(model)
    if n_s > max_states:
        raise ValueError(
            f"dense tables disabled for {n_s} states (limit {max_states})")
    T = np.zeros((n_s, n_a, n_s))
    Z = np.zeros((n_s, n_a, n_o))
    R = np.zeros((n_s, n_a))
    for s in range(n_s):
        for a in range(n_a):
            idxs, probs = transition_row(model, s, a)
            T[s, a, idxs] = probs
            idxs, probs = observation_row(model, s, a)
            Z[s, a, idxs] = probs
            R[s, a] = model.reward(s, a)
    return T, Z, R


def _reference_cumulative(pairs, table, s, a):
    """One validated row of ``reference_model_tables``: (indices, cumulative
    probabilities), with the model's checks and error messages."""
    total = 0.0
    for idx, p in pairs:
        if not p >= 0.0:
            raise InvalidModel(f"{table}({s},{a},.): probability {p} at index {idx} is not >= 0")
        total += p
    if not abs(total - 1.0) <= 1e-9:
        raise InvalidModel(f"{table}({s},{a},.): row sums to {total!r}, expected 1.0")
    idxs, cum, acc = [], [], 0.0
    for idx, p in pairs:
        if p > 0.0:
            idxs.append(idx)
            acc += p / total
            cum.append(acc)
    if not cum:
        raise InvalidModel(f"{table}({s},{a},.): row has no positive mass")
    cum[-1] = 1.0
    return tuple(idxs), tuple(cum)


def reference_model_tables(n_s, n_a, t_rows, z_rows, rewards):
    """(rows, Z rows, obs_support, absorbing_zero) of a ``PomdpModel`` with
    these sizes and sparse rows, built one (s, a) row at a time: every T row
    through its own ``_reference_cumulative`` call, each distinct Z-row
    content once. Raises InvalidModel, with the model's message, at the
    first bad row in state-major order, then at the first bad reward. It
    assumes every index lies inside the model."""
    t = [[None] * n_a for _ in range(n_s)]
    z = [[None] * n_a for _ in range(n_s)]
    r = [[0.0] * n_a for _ in range(n_s)]
    z_seen = {}
    for s in range(n_s):
        for a in range(n_a):
            row = t_rows.get((s, a))
            if row is None:
                raise InvalidModel(f"missing transition row for (s={s}, a={a})")
            t[s][a] = _reference_cumulative(row, "T", s, a)
            zrow = z_rows.get((s, a))
            if zrow is None:
                raise InvalidModel(f"missing observation row for (s'={s}, a={a})")
            key = tuple(map(tuple, zrow))
            if key not in z_seen:
                z_seen[key] = _reference_cumulative(zrow, "Z", s, a)
            z[s][a] = z_seen[key]
    for (s, a), reward in rewards.items():
        r[s][a] = float(reward)
        if not math.isfinite(r[s][a]):
            raise InvalidModel(f"R({s},{a}) = {reward} is not finite")
    rows = tuple(
        tuple((*t[s][a], r[s][a], tuple(z[s2][a] for s2 in t[s][a][0])) for a in range(n_a))
        for s in range(n_s))
    obs_support = tuple(frozenset(o for a in range(n_a) for o in z[s][a][0])
                        for s in range(n_s))
    absorbing_zero = frozenset(
        s for s, per_a in enumerate(rows)
        if all(succ == (s,) and reward == 0.0 for succ, _, reward, _ in per_a))
    return rows, tuple(map(tuple, z)), obs_support, absorbing_zero


def reference_gridworld_rows(spec):
    """(t_rows, z_rows, rewards) of the grid model, built one cell and one
    move at a time with clamped coordinates, as ``build_gridworld`` documents:
    a move reaches one cell with near_prob and two with far_prob, truncated
    at the walls; the goal moves to the terminal, paying goal_reward; cell
    (x, y) observes its 2x2 block, and with obs_noise each existing east,
    west, north and south neighbour block, in that order, shares it."""
    width, height = spec.width, spec.height
    bw, bh = (width + 1) // 2, (height + 1) // 2
    terminal = spec.n_cells
    goal = spec.goal_cell[1] * width + spec.goal_cell[0]
    deltas = ((1, 0), (0, -1), (-1, 0), (0, 1))
    t_rows, z_rows, rewards = {}, {}, {}
    for s in range(spec.n_cells):
        x, y = s % width, s // width
        b = (y // 2) * bw + x // 2
        bx, by = b % bw, b // bw
        adjacent = [n for n, inside in ((b + 1, bx + 1 < bw), (b - 1, bx > 0),
                                        (b + bw, by + 1 < bh), (b - bw, by > 0)) if inside]
        if spec.obs_noise == 0.0 or not adjacent:
            obs_row = [(b, 1.0)]
        else:
            share = spec.obs_noise / len(adjacent)
            obs_row = [(b, 1.0 - spec.obs_noise)] + [(n, share) for n in adjacent]
        for a, (dx, dy) in enumerate(deltas):
            z_rows[(s, a)] = obs_row
            if s == goal:
                t_rows[(s, a)] = [(terminal, 1.0)]
                rewards[(s, a)] = spec.goal_reward
                continue
            nx, fx = min(max(x + dx, 0), width - 1), min(max(x + 2 * dx, 0), width - 1)
            ny, fy = min(max(y + dy, 0), height - 1), min(max(y + 2 * dy, 0), height - 1)
            s_near, s_far = ny * width + nx, fy * width + fx
            if s_near == s_far:
                t_rows[(s, a)] = [(s_near, 1.0)]
            else:
                t_rows[(s, a)] = [(s_near, spec.near_prob), (s_far, spec.far_prob)]
            rewards[(s, a)] = spec.step_reward
    for a in range(len(deltas)):
        t_rows[(terminal, a)] = [(terminal, 1.0)]
        z_rows[(terminal, a)] = [(bw * bh, 1.0)]
    return t_rows, z_rows, rewards


def belief_prob(belief, s):
    """Probability of state ``s`` under a ``BeliefState``, 0 off its support."""
    return belief.probs.get(s, 0.0)


def belief_support(belief):
    """The states a ``BeliefState`` gives mass, as a frozenset."""
    return frozenset(belief.probs)


def exact_filter(T, Z, belief_vec, action, observation):
    """Dense-matrix Bayes filter step. Returns (posterior vector, eta).

    T: (n_s, n_a, n_s), Z: (n_s, n_a, n_o), belief_vec: (n_s,).
    """
    pred = belief_vec @ T[:, action, :]
    weighted = pred * Z[:, action, observation]
    eta = weighted.sum()
    if eta <= 0.0:
        return None, 0.0
    return weighted / eta, eta


def reachable_supports(model, support, action):
    """Observation-grouped successor supports, straight from the tables.

    Returns dict observation -> frozenset of successor states, computed by
    enumerating T successors of the support and grouping each successor
    under every observation it can emit after ``action``.
    """
    union = set()
    for s in support:
        union.update(model.successors(s, action))
    grouped = {}
    for s2 in union:
        idxs, probs = observation_row(model, s2, action)
        for o, p in zip(idxs, probs):
            if p > 0.0:
                grouped.setdefault(int(o), set()).add(s2)
    return {o: frozenset(ss) for o, ss in grouped.items()}


def full_bsts(model, root, horizon):
    """The BSTS with every node below the horizon expanded, unsafe or not:
    (levels, groups), ``levels[q]`` the supports reachable from ``root`` in
    exactly q steps and ``groups[support]`` one {observation: support} dict
    per action, from :func:`reachable_supports`. The reference the build
    through safe supports is checked against."""
    levels = {0: {frozenset(root)}}
    groups = {}
    for q in range(horizon):
        nxt = set()
        for sup in levels[q]:
            if sup not in groups:
                groups[sup] = tuple(reachable_supports(model, sup, a)
                                    for a in range(model.n_actions))
            for by_obs in groups[sup]:
                nxt.update(by_obs.values())
        levels[q + 1] = nxt
    return levels, groups


def full_winning_regions(levels, groups, f_sets):
    """One backward sweep over a :func:`full_bsts`: (regions, table).

    Every node below the horizon gets the actions whose every observation
    outcome wins one level down, unsafe nodes included; a support wins at
    tau when it avoids ``f_sets[tau]`` and, below the horizon, has such an
    action.
    """
    h = max(levels)
    regions = {h: frozenset(sup for sup in levels[h] if f_sets[h].isdisjoint(sup))}
    table = {}
    for q in range(h - 1, -1, -1):
        row = table[q] = {sup: tuple(a for a, by_obs in enumerate(groups[sup])
                                     if regions[q + 1].issuperset(by_obs.values()))
                          for sup in levels[q]}
        if q >= 1:
            regions[q] = frozenset(sup for sup, acts in row.items()
                                   if acts and f_sets[q].isdisjoint(sup))
    return regions, table


def enumerate_winning_supports(model, support, horizon, unsafe_by_level, level=0):
    """Decide by explicit policy search whether ``support`` wins from ``level``.

    A support at level tau is winning when it avoids unsafe_by_level[tau]
    and some action keeps every observation-grouped successor winning at
    later levels; the search explores all action choices recursively, which
    is exponential and only usable for tiny models and horizons (the point:
    it shares no code with the package's backward induction).
    """

    def is_winning(sup, tau):
        if sup & unsafe_by_level.get(tau, frozenset()):
            return False
        if tau >= horizon:
            return True
        for a in range(model.n_actions):
            children = reachable_supports(model, sup, a)
            if all(is_winning(child, tau + 1) for child in children.values()):
                return True
        return False

    return is_winning(frozenset(support), level)


def shielded_actions_oracle(model, support, tau, horizon, unsafe_by_level):
    """Actions from a level-(tau) support whose every successor is winning."""
    allowed = []

    def is_winning(sup, level):
        if sup & unsafe_by_level.get(level, frozenset()):
            return False
        if level >= horizon:
            return True
        for a in range(model.n_actions):
            children = reachable_supports(model, sup, a)
            if all(is_winning(child, level + 1) for child in children.values()):
                return True
        return False

    for a in range(model.n_actions):
        children = reachable_supports(model, frozenset(support), a)
        if all(is_winning(child, tau + 1) for child in children.values()):
            allowed.append(a)
    return allowed


def belief_expectimax(model, belief_vec, depth, allowed=None):
    """Exact finite-horizon belief-MDP value by expectimax over dense tables.

    Returns (value, best_action). ``allowed`` optionally maps nothing; when
    given it restricts the root action set only. Small models only.
    """
    T, Z, R = dense_tables(model)

    def value(b, d, restrict):
        if d == 0:
            return 0.0, None
        best, best_a = -math.inf, None
        acts = restrict if restrict is not None else range(model.n_actions)
        for a in acts:
            q = float(b @ R[:, a])
            pred = b @ T[:, a, :]
            for o in range(n_observations(model)):
                w = pred * Z[:, a, o]
                eta = w.sum()
                if eta <= 0.0:
                    continue
                v, _ = value(w / eta, d - 1, None)
                q += model.discount * eta * v
            if q > best:
                best, best_a = q, a
        return best, best_a

    return value(np.asarray(belief_vec, dtype=float), depth, allowed)


def acp_replay(scores, predictions, actuals, alpha, delta, window_size, lam0):
    """Scalar replay of the one-step-lookahead adaptive conformal update.

    Models the stream for lookahead 1: the radius issued at step t-1 targets
    step t, so each step realizes its score, tests it against the radius
    issued last step, updates lambda with that error, slides the window, and
    issues the next radius. Before any score arrives the issued region is
    infinite (empty window), hence ``pending`` starts at +inf. Returns the
    list of issued radii and the final lambda. Kept as a plain loop with an
    explicit sort so the package deque/quantile machinery has an independent
    mirror.
    """
    lam = lam0
    radii = []
    window = []
    pending = math.inf
    for t in range(len(actuals)):
        beta = math.dist(actuals[t], predictions[t])
        err = 1.0 if pending < beta else 0.0
        lam = lam + alpha * (delta - err)
        window.append(beta)
        if len(window) > window_size:
            window.pop(0)
        k = len(window)
        r = math.ceil((k + 1) * (1.0 - lam))
        if r < 1:
            r = 1
        c = math.inf if r > k else sorted(window)[r - 1]
        radii.append(c)
        pending = c
        scores.append(beta)
    return radii, lam


def constraint_values_oracle(positions, agent_positions, epsilon):
    """Margins of ``shield.constraint_values`` by the broadcast formula.

    Builds the full (states, agents, 2) gap array and takes the per-agent
    distances before the min, so the package's in-place form has a direct
    mirror to be compared with bit for bit.
    """
    pos = np.asarray(positions, dtype=float)
    agents = np.asarray(agent_positions, dtype=float).reshape(-1, 2)
    out = np.full(pos.shape[0], math.inf)
    if agents.shape[0] == 0:
        return out
    gap = pos[:, None, :] - agents[None, :, :]
    dists = np.sqrt((gap * gap).sum(axis=2)).min(axis=1)
    finite = np.isfinite(dists)
    out[finite] = dists[finite] - epsilon
    return out


def fallback_oracle(model, support, margins, threshold):
    """``planner.fallback_action`` from a full-grid margin array.

    Scores each action by its worst successor margin minus ``threshold``
    (unlocated states, margin +inf, always safe; an infinite threshold
    makes every located state maximally unsafe) and returns the best,
    ties to the lowest action.
    """
    def margin(c):
        if math.isinf(c):
            return math.inf
        if math.isinf(threshold):
            return -math.inf
        return c - threshold

    worst = [min(margin(margins[s2]) for s in support for s2 in model.successors(s, a))
             for a in range(model.n_actions)]
    return max(range(model.n_actions), key=lambda a: (worst[a], -a))


def nonconformity_oracle(actual, predicted):
    """Stacked-norm score of ``acp.nonconformity``, one id lookup at a time.

    Walks the actual ids in order, finds each one on both sides with a
    linear id search and concatenates the per-agent differences. Returns
    None when the two states share no agent.
    """
    def position_of(state, aid):
        try:
            return state.positions[state.ids.index(aid)]
        except ValueError:
            return None

    common = [aid for aid in actual.ids if position_of(predicted, aid) is not None]
    if not common:
        return None
    diffs = np.concatenate([
        position_of(actual, aid) - position_of(predicted, aid) for aid in common])
    return float(np.linalg.norm(diffs))


def shared_rows_oracle(actual, other):
    """``JointAgentState.shared_rows`` as one dict of the other's rows and
    a list comprehension over this state's ids: two index lists."""
    theirs = dict(zip(other.ids, range(len(other.ids))))
    mine = [i for i, aid in enumerate(actual.ids) if aid in theirs]
    return mine, [theirs[actual.ids[i]] for i in mine]


def keys_oracle(ids):
    """``JointAgentState.keys`` as a list of ints: the ids when each is an
    int (numpy ints included, bools not) inside int64 and they strictly
    ascend, else None."""
    if not all(isinstance(aid, (int, np.integer)) and not isinstance(aid, bool)
               for aid in ids):
        return None
    values = [int(aid) for aid in ids]
    if not all(-2 ** 63 <= v < 2 ** 63 for v in values):
        return None
    return values if all(a < b for a, b in zip(values, values[1:])) else None


def generative_step_oracle(model, s, a, rng):
    """``PomdpModel.generative_step`` by a linear scan of the cumulative rows.

    Reads the model's row for (s, a) and the observation row of the drawn
    successor, and takes the first outcome whose cumulative value is at
    least the draw, one ``rng.random()`` draw for the successor and one for
    the observation.
    """
    idxs, cum, _, obs_rows = model.rows[s][a]
    u = rng.random()
    k = len(idxs) - 1
    for i, c in enumerate(cum):
        if u <= c:
            k = i
            break
    s2 = idxs[k]
    oidxs, ocum = obs_rows[k]
    assert oidxs == model.observation_support(s2, a)      # the row of Z(s2, a, .)
    u = rng.random()
    o = oidxs[-1]
    for i, c in zip(oidxs, ocum):
        if u <= c:
            o = i
            break
    return s2, o, model.reward(s, a)


def resample_rejection_oracle(model, particles, action, observation, count, rng,
                              oversample=10):
    """The particle refresh by rejection through the simulator.

    Draws a particle uniformly, steps it with :func:`generative_step_oracle`
    and keeps the successor when the simulated observation matches, for at
    most ``oversample * count`` attempts. Slots still empty are filled
    uniformly from the observation-consistent successors of the particles,
    in ascending order; when there are none, ``ParticleDeprivation`` is
    raised, as it is for an empty particle set.
    """
    if not particles:
        raise ParticleDeprivation("source particle set is empty")
    accepted = []
    for _ in range(oversample * count):
        if len(accepted) == count:
            break
        s = particles[int(rng.random() * len(particles))]
        s2, o, _ = generative_step_oracle(model, s, action, rng)
        if o == observation:
            accepted.append(s2)
    missing = count - len(accepted)
    if missing:
        pool = sorted({s2 for s in set(particles) for s2 in model.successors(s, action)
                       if model.observation_prob(s2, action, observation) > 0.0})
        if not pool:
            raise ParticleDeprivation(
                f"no particles consistent with observation {observation}")
        accepted.extend(pool[int(rng.random() * len(pool))] for _ in range(missing))
    return accepted


def resample_choices_oracle(model, particles, action, observation, count, rng):
    """The particle refresh as ``rng.choices`` over the exact posterior.

    The posterior of the particles' empirical belief is ``belief_update``'s
    (checked against ``exact_filter`` on its own), so this oracle pins the
    draw alone: ``count`` calls of ``rng.random()``, each bisected into the
    cumulative weights of the posterior's states in ascending order.
    """
    if not particles:
        raise ParticleDeprivation("source particle set is empty")
    n = len(particles)
    belief = BeliefState({s: particles.count(s) / n for s in dict.fromkeys(particles)})
    try:
        post = belief_update(model, belief, action, observation).probs
    except ImpossibleObservation:
        raise ParticleDeprivation(
            f"no particles consistent with observation {observation}") from None
    states = sorted(post)
    return rng.choices(states, [post[s] for s in states], k=count)


def rollout_oracle(model, state, depth, support, shield, rng, max_depth, discount,
                   policy=None):
    """``Planner.rollout`` as one loop with a callable rollout policy.

    ``policy(state, rng)`` names a preferred action, or None for uniform
    random. While ``support`` is set and below the shield's horizon, an
    action outside the shield's certified set is replaced by a uniform
    draw among them, and an empty set ends the rollout. Draws go through
    ``model.generative_step``, which ``generative_step_oracle`` pins.
    """
    ret = 0.0
    disc = 1.0
    for d in range(depth, max_depth):
        if state in model.absorbing_zero:
            break
        acts = None
        if shield is not None and support is not None and d < shield.horizon:
            acts = shield.allowed(support, d)
            if not acts:
                break
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
        disc *= discount
        if shield is not None and support is not None:
            support = (shield.bsts.post_by_obs(support, d, action).get(obs)
                       if d + 1 < shield.horizon else None)
        state = s2
    return ret


class OracleEdge:
    """One action's statistics at one node of :class:`PlannerOracle`."""

    def __init__(self):
        self.visits = 0
        self.value = 0.0
        self.children = {}        # observation -> OracleNode


class OracleNode:
    """One history node of :class:`PlannerOracle`; ``edges`` is None until expanded."""

    def __init__(self, depth, support, allowed):
        self.visits = 0
        self.depth = depth
        self.support = support
        self.allowed = allowed
        self.edges = None


class PlannerOracle:
    """``Planner.plan`` as a recursive search, one frame per tree level.

    Expanding a node gives every action an edge at once; selection takes
    the lowest-index unvisited allowed action, else the highest UCB score;
    each tree step draws through ``model.generative_step``, children read
    the BSTS through ``post_by_obs`` and the shield through ``allowed``, and
    rollouts are :func:`rollout_oracle` with the table as its policy.
    ``plan`` returns (root, chosen action or None, simulations run) and
    leaves the node count in ``nodes``.
    """

    def __init__(self, model, rng, num_simulations, max_depth, ucb_constant,
                 rollout_actions=None):
        self.model = model
        self.rng = rng
        self.num_simulations = num_simulations
        self.max_depth = max_depth
        self.c = ucb_constant
        self.policy = (None if rollout_actions is None
                       else (lambda state, _rng: rollout_actions[state]))
        self.every = tuple(range(model.n_actions))
        self.nodes = 0

    def plan(self, particles, shield=None):
        support = frozenset(particles)
        root = OracleNode(0, support, self.every if shield is None
                          else shield.allowed(support, 0))
        self.nodes = 1
        sims = 0
        while sims < self.num_simulations and root.allowed:
            state = particles[int(self.rng.random() * len(particles))]
            self.simulate(root, state, 0, shield)
            sims += 1
        chosen, best = None, -math.inf
        if root.edges is not None:
            for a in root.allowed:
                if root.edges[a].value > best:
                    best, chosen = root.edges[a].value, a
        elif root.allowed:
            chosen = root.allowed[0]
        return root, chosen, sims

    def child(self, parent, action, observation, shield):
        depth = parent.depth + 1
        self.nodes += 1
        if shield is None or parent.support is None or depth >= shield.horizon:
            return OracleNode(depth, None, self.every)
        support = shield.bsts.post_by_obs(parent.support, parent.depth, action).get(observation)
        return OracleNode(depth, support, shield.allowed(support, depth))

    def simulate(self, node, state, depth, shield):
        if depth >= self.max_depth or state in self.model.absorbing_zero:
            return 0.0
        if node.edges is None:
            node.edges = [OracleEdge() for _ in self.every]
            node.visits += 1
            return rollout_oracle(self.model, state, depth, node.support, shield,
                                  self.rng, self.max_depth, self.model.discount,
                                  self.policy)
        action = self.select(node)
        s2, obs, reward = self.model.generative_step(state, action, self.rng)
        edge = node.edges[action]
        if obs not in edge.children:
            edge.children[obs] = self.child(node, action, obs, shield)
        total = reward + self.model.discount * self.simulate(
            edge.children[obs], s2, depth + 1, shield)
        edge.visits += 1
        edge.value += (total - edge.value) / edge.visits
        node.visits += 1
        return total

    def select(self, node):
        log_n = math.log(node.visits) if node.visits > 0 else 0.0
        best_a, best = node.allowed[0], -math.inf
        for a in node.allowed:
            edge = node.edges[a]
            if edge.visits <= 0:
                return a
            score = edge.value + self.c * math.sqrt(log_n / edge.visits)
            if score > best:
                best, best_a = score, a
        return best_a


def agents_at_oracle(tracks, t):
    """Ids and positions of the agents present at ``t``, by scanning every track.

    ``tracks`` maps agent id -> list of (timestep, (x, y)). Ids come in
    ascending order, ints before strings. Returns (ids tuple, (N, 2) array).
    """
    ids = sorted((aid for aid, seq in tracks.items() if any(ts == t for ts, _ in seq)),
                 key=lambda aid: (isinstance(aid, str), aid))
    pos = [next(p for ts, p in tracks[aid] if ts == t) for aid in ids]
    return tuple(ids), np.asarray(pos, dtype=float).reshape(-1, 2)


def source_from_tracks(tracks):
    """A ``TrajectorySource`` from per-agent tracks.

    ``tracks`` maps agent id -> list of (timestep, (x, y)), one entry per
    timestep. Each timestep becomes a frame of the agents present, ints
    before strings, each ascending.
    """
    present = {}
    for aid in sorted(tracks, key=lambda aid: (isinstance(aid, str), aid)):
        for t, p in tracks[aid]:
            ids, points = present.setdefault(t, ([], []))
            ids.append(aid)
            points.append(p)
    return TrajectorySource({t: (tuple(ids), np.array(points, dtype=float).reshape(-1, 2), None)
                             for t, (ids, points) in sorted(present.items())})


def agent_ids(source):
    """Every agent id of a ``TrajectorySource``, ints before strings, each
    ascending, collected by scanning ``agents_at`` over its span."""
    span = source.span()
    if span is None:
        return []
    ids = set()
    for t in range(span[0], span[1] + 1):
        ids.update(source.agents_at(t).ids)
    return sorted(ids, key=lambda aid: (isinstance(aid, str), aid))


def track_of(source, agent_id):
    """Time-sorted (timestep, position) pairs of one agent of a
    ``TrajectorySource``, rebuilt by scanning ``agents_at`` over its span."""
    span = source.span()
    if span is None:
        return []
    track = []
    for t in range(span[0], span[1] + 1):
        state = source.agents_at(t)
        if agent_id in state.ids:
            track.append((t, state.positions[state.ids.index(agent_id)]))
    return track


def _frozen(positions):
    positions.flags.writeable = False
    return positions


def predict_constant_oracle(history, horizon):
    """``predict_constant`` as each lookahead's joint state built by hand:
    one read-only copy of the last positions, shared by every lookahead."""
    last = history[-1]
    positions = _frozen(last.positions.copy())
    preds = tuple(JointAgentState(last.ids, positions, last.timestep + tau)
                  for tau in range(1, horizon + 1))
    return PredictionSet(last.timestep, horizon, preds)


def predict_constant_velocity_oracle(history, horizon):
    """``predict_constant_velocity`` with the id-matched velocity of
    ``shared_rows_oracle``; an agent new in the last state stands still."""
    last, prev = history[-1], history[-2]
    mine, theirs = shared_rows_oracle(last, prev)
    vel = np.zeros_like(last.positions)
    vel[mine] = last.positions[mine] - prev.positions[theirs]
    preds = tuple(
        JointAgentState(last.ids, _frozen(last.positions + tau * vel), last.timestep + tau)
        for tau in range(1, horizon + 1))
    return PredictionSet(last.timestep, horizon, preds)


def predict_linear_fit_oracle(history, horizon):
    """``predict_linear_fit`` agent by agent and lookahead by lookahead:
    a least-squares line through each agent's timesteps in the window, the
    current position for an agent seen once."""
    last = history[-1]
    preds_pos = [np.zeros((last.n_agents, 2)) for _ in range(horizon)]
    seen = [([], []) for _ in last.ids]       # per agent: timesteps, positions
    for js in history:
        for i, j in zip(*shared_rows_oracle(last, js)):
            seen[i][0].append(js.timestep)
            seen[i][1].append(js.positions[j])
    for i, (ts, pts) in enumerate(seen):
        if len(ts) < 2:
            for tau in range(1, horizon + 1):
                preds_pos[tau - 1][i] = last.positions[i]
            continue
        t_arr = np.asarray(ts, dtype=float)
        design = np.stack([np.ones_like(t_arr), t_arr], axis=1)
        coef, *_ = np.linalg.lstsq(design, np.stack(pts), rcond=None)
        for tau in range(1, horizon + 1):
            preds_pos[tau - 1][i] = coef[0] + coef[1] * (last.timestep + tau)
    preds = tuple(JointAgentState(last.ids, _frozen(preds_pos[tau - 1]), last.timestep + tau)
                  for tau in range(1, horizon + 1))
    return PredictionSet(last.timestep, horizon, preds)


def synth_oracle(kind, n_agents, length, rng, bounds=(0.0, 20.0, 0.0, 20.0),
                 speed=0.8, noise=0.3):
    """(length, n_agents, 2) positions ``synth_trajectories`` gives, stepping
    every agent one timestep at a time with one rng draw per step."""
    xmin, xmax, ymin, ymax = bounds
    lo = np.array([xmin, ymin])
    hi = np.array([xmax, ymax])

    def reflect(p, v):
        for d in range(2):
            if p[d] < lo[d]:
                p[d] = 2 * lo[d] - p[d]
                v[d] = -v[d]
            elif p[d] > hi[d]:
                p[d] = 2 * hi[d] - p[d]
                v[d] = -v[d]
        return p, v

    points = np.empty((length, n_agents, 2))
    for aid in range(n_agents):
        pos = rng.uniform(lo, hi)
        if kind == "random-walk":
            vel = np.zeros(2)
        else:
            heading = rng.uniform(0.0, 2.0 * math.pi)
            vel = speed * np.array([math.cos(heading), math.sin(heading)])
        waypoint = rng.uniform(lo, hi) if kind == "waypoint" else None
        for t in range(length):
            points[t, aid] = pos
            if kind == "random-walk":
                step = rng.normal(0.0, speed, size=2)
            elif kind == "constant-velocity-with-noise":
                step = vel + (rng.normal(0.0, noise, size=2) if noise > 0 else 0.0)
            else:                             # waypoint
                gap = waypoint - pos
                dist = float(np.linalg.norm(gap))
                if dist < speed:
                    waypoint = rng.uniform(lo, hi)
                    gap = waypoint - pos
                    dist = float(np.linalg.norm(gap))
                step = speed * gap / dist if dist > 0 else np.zeros(2)
                step = step + (rng.normal(0.0, noise, size=2) if noise > 0 else 0.0)
            pos = pos + step
            if kind == "constant-velocity-with-noise" and noise == 0.0:
                pos, vel = reflect(pos, vel)      # keep exact lines exact inside
            else:
                pos = np.clip(pos, lo, hi)
    return points


class RepeatedRow(Exception):
    """An agent appears twice in one kept frame; args are (agent id, frame)."""


def trajectories_oracle(path, scale=1.0, frame_stride=1):
    """What ``load_trajectories`` serves for a plain ``frame_id,agent_id,x,y``
    file (commas, no header, no comments), one row at a time.

    Keeps every ``frame_stride``-th distinct frame, in ascending order, as
    timesteps 0, 1, ...; raises RepeatedRow for the first row, in file
    order, whose (frame, agent) was seen before in a kept frame, after
    raising BadLine for the first row whose frame is not integral ("1.0"
    is) or whose position is not finite. Returns
    (agent ids, {timestep: (ids, (n, 2) positions)}), ids ints before
    strings, each ascending.
    """
    with open(path, encoding="utf-8") as fh:
        rows = [(lineno, line.strip().split(","))
                for lineno, line in enumerate(fh, start=1) if line.strip()]
    for lineno, row in rows:
        if not float(row[0]).is_integer():
            raise BadLine(lineno, f"non-integral frame field in {row!r}")
        if not all(math.isfinite(float(v)) for v in row[2:]):
            raise BadLine(lineno, f"non-finite position in {row!r}")
    frames = sorted({int(float(row[0])) for _, row in rows})[::frame_stride]
    timestep = {f: i for i, f in enumerate(frames)}
    table, seen = {}, set()
    for _, (frame, aid, x, y) in rows:
        frame = int(float(frame))
        try:
            aid = int(aid)
        except ValueError:
            pass
        if frame not in timestep:
            continue
        if (frame, aid) in seen:
            raise RepeatedRow(aid, frame)
        seen.add((frame, aid))
        table.setdefault(timestep[frame], {})[aid] = (float(x) * scale, float(y) * scale)

    def key(aid):
        return isinstance(aid, str), aid

    ids = sorted({aid for entry in table.values() for aid in entry}, key=key)
    served = {}
    for t, entry in table.items():
        present = tuple(sorted(entry, key=key))
        served[t] = present, np.asarray([entry[aid] for aid in present], dtype=float)
    return ids, served


class BadLine(Exception):
    """A row ``replay_oracle`` cannot read; args are (1-based line, message)."""


def replay_oracle(path, scale=1.0):
    """What a replay predictor serves for every (t, tau) of a predictions file.

    Reads (t, tau, agent_id, x, y) rows one at a time into a dict of dicts:
    comma-separated when the line holds a comma, else whitespace; blank and
    '#' lines skipped; line 1 skipped when its numbers do not parse; the
    last row of a repeated (t, tau, id) wins. Each entry is then served as
    (ids, (n, 2) positions), ints before strings, each in ascending order.
    Raises BadLine for a row with the wrong column count, a bad number, a
    t or tau that is not integral ("1.0" is) or a position that is not
    finite.
    """
    table = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            toks = [tok.strip() for tok in line.split(",")] if "," in line else line.split()
            if len(toks) != 5:
                raise BadLine(lineno, f"expected 5 columns, got {len(toks)}")
            try:
                t, tau = int(float(toks[0])), int(float(toks[1]))
                x, y = float(toks[3]), float(toks[4])
            except (ValueError, OverflowError):                 # OverflowError: inf frames
                if lineno == 1:
                    continue                                    # header row
                raise BadLine(lineno, f"bad numeric field in {toks!r}") from None
            if not (float(toks[0]).is_integer() and float(toks[1]).is_integer()):
                raise BadLine(lineno, f"non-integral frame field in {toks!r}")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise BadLine(lineno, f"non-finite position in {toks!r}")
            try:
                aid = int(toks[2])
            except ValueError:
                aid = toks[2]
            table.setdefault((t, tau), {})[aid] = (x * scale, y * scale)
    served = {}
    for key, entry in table.items():
        ids = tuple(sorted(entry, key=lambda aid: (isinstance(aid, str), aid)))
        served[key] = ids, np.asarray([entry[aid] for aid in ids], dtype=float)
    return served


def episode_digest(episodes):
    """SHA-256 of episodes in canonical form.

    ``episodes`` holds (EpisodeResult, step-hook dicts) pairs. Each result
    counts with ``mean_plan_seconds`` zeroed, the one wall-clock field, and
    each step dict with its support, radii, predictions and unsafe cells,
    which the raw CSV leaves out. The predictions, read-only arrays, count
    as the nested lists they hold, and the unsafe cells, a lazy mapping, as
    the plain dict they read as. The pairs are serialised as sorted-key
    JSON, whose floats are their shortest round-trip repr.
    """
    payload = [(asdict(replace(result, mean_plan_seconds=0.0)),
                [{**step, "predicted": [p.tolist() for p in step["predicted"]],
                  "unsafe": dict(step["unsafe"])} if "unsafe" in step else step
                 for step in steps])
               for result, steps in episodes]
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
