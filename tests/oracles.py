"""Independent reference implementations used to pin expected test values.

Everything here is deliberately brute-force: dense matrix filtering,
explicit policy enumeration, small expectimax. These are the oracles the
package code is checked against, so they must stay straightforward enough
to audit by eye and must not import the package's own algorithms beyond
plain model table access.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from acpshield.errors import ParticleDeprivation


def dense_tables(model, max_states=512):
    """Dense (T, Z, R) arrays of a model, filled from its sparse rows.

    T: (n_s, n_a, n_s), Z: (n_s, n_a, n_o), R: (n_s, n_a). Refuses models
    above ``max_states`` states, whose dense T grows with the square of
    the state count.
    """
    n_s, n_a, n_o = model.n_states, model.n_actions, model.n_observations
    if n_s > max_states:
        raise ValueError(
            f"dense tables disabled for {n_s} states (limit {max_states})")
    T = np.zeros((n_s, n_a, n_s))
    Z = np.zeros((n_s, n_a, n_o))
    R = np.zeros((n_s, n_a))
    for s in range(n_s):
        for a in range(n_a):
            idxs, probs = model.transition_row(s, a)
            T[s, a, idxs] = probs
            idxs, probs = model.observation_row(s, a)
            Z[s, a, idxs] = probs
            R[s, a] = model.reward(s, a)
    return T, Z, R


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
        idxs, probs = model.observation_row(s2, action)
        for o, p in zip(idxs, probs):
            if p > 0.0:
                grouped.setdefault(int(o), set()).add(s2)
    return {o: frozenset(ss) for o, ss in grouped.items()}


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
            for o in range(model.n_observations):
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


def generative_step_oracle(model, s, a, rng):
    """``PomdpModel.generative_step`` by a linear scan of the cumulative rows.

    Reads the model's stored (indices, cumulative) rows and takes the first
    outcome whose cumulative value is at least the draw, one
    ``rng.random()`` draw for the successor and one for the observation.
    """
    idxs, cum = model._t[s][a]
    u = rng.random()
    s2 = idxs[-1]
    for i, c in zip(idxs, cum):
        if u <= c:
            s2 = i
            break
    oidxs, ocum = model._z[s2][a]
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


class RepeatedRow(Exception):
    """An agent appears twice in one kept frame; args are (agent id, frame)."""


def trajectories_oracle(path, scale=1.0, frame_stride=1):
    """What ``load_trajectories`` serves for a plain ``frame_id,agent_id,x,y``
    file (commas, no header, no comments), one row at a time.

    Keeps every ``frame_stride``-th distinct frame, in ascending order, as
    timesteps 0, 1, ...; raises RepeatedRow for the first row, in file
    order, whose (frame, agent) was seen before in a kept frame. Returns
    (agent ids, {timestep: (ids, (n, 2) positions)}), ids ints before
    strings, each ascending.
    """
    with open(path, encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh if line.strip()]
    frames = sorted({int(row[0]) for row in rows})[::frame_stride]
    timestep = {f: i for i, f in enumerate(frames)}
    table, seen = {}, set()
    for frame, aid, x, y in rows:
        frame = int(frame)
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
    Raises BadLine for a row with the wrong column count or a bad number.
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
