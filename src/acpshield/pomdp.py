"""Discrete POMDP model, exact belief update, particle refresh, and the simulator.

The particle refresh draws from the exact posterior of the particles'
empirical belief, so it never calls the simulator. It makes the draws of
``rng.choices`` over that posterior in one ``getrandbits`` call: each pair
of 32-bit words becomes one uniform exactly as CPython's ``random()``
builds it, and numpy bisects the cumulative weights as ``choices`` does.
The particles and the stream's end state are those of ``choices``; a
differential test against it pins this on every supported interpreter.

The model stores transition and observation tables as per-(state, action)
sparse rows (successor indices plus cumulative probabilities), which keeps
sampling fast and memory flat for gridworlds with hundreds of cells where
each row has at most a couple of successors.
"""

from __future__ import annotations

import itertools
import math
import numbers
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import (
    EmptyBelief,
    ImpossibleObservation,
    InvalidModel,
    ParticleDeprivation,
    is_int,
)

PROB_TOL = 1e-9


def _cumulative(idxs, probs, table, s, a):
    """One validated probability row as (positions kept, cumulative probabilities).

    ``idxs`` and ``probs`` are the indices and probabilities of the row
    ``table``(s, a, .). Rejects negative or NaN entries and row sums off by
    more than PROB_TOL (each check is written so that NaN fails it);
    renormalizes the tiny float drift away, drops zero entries and pins the
    last cumulative value to 1.0. The kept positions are None when no entry
    is dropped. Only ``probs`` decides the result; the indices and the row's
    name are read on error only, so one call serves every row with these
    probabilities.
    """
    total = 0.0
    for idx, p in zip(idxs, probs):
        if not p >= 0.0:
            raise InvalidModel(f"{table}({s},{a},.): probability {p} at index {idx} is not >= 0")
        total += p
    if not abs(total - 1.0) <= PROB_TOL:
        raise InvalidModel(f"{table}({s},{a},.): row sums to {total!r}, expected 1.0")
    kept, cum, acc = [], [], 0.0
    for i, p in enumerate(probs):
        if p > 0.0:
            kept.append(i)
            acc += p / total
            cum.append(acc)
    if not cum:
        raise InvalidModel(f"{table}({s},{a},.): row has no positive mass")
    cum[-1] = 1.0
    return (None if len(kept) == len(probs) else tuple(kept)), tuple(cum)


def _validated(row, table, s, a, valid, seen):
    """Row ``table``(s, a, .) as (indices, cumulative probabilities): its
    probabilities checked by ``_cumulative`` once per distinct vector,
    through the cache ``seen``, and every index checked to lie in the
    frozenset ``valid``, 0..n-1."""
    idxs, probs = zip(*row) if row else ((), ())
    hit = seen.get(probs)
    if hit is None:
        hit = seen[probs] = _cumulative(idxs, probs, table, s, a)
    if not valid.issuperset(idxs):
        bad = next(i for i in idxs if i not in valid)
        raise InvalidModel(f"{table}({s},{a},.): index {bad!r} outside 0..{len(valid) - 1}")
    kept, cum = hit
    return (idxs if kept is None else tuple([idxs[i] for i in kept])), cum


def _all_ints(values):
    """True when every value passes ``is_int``, checked once per distinct
    type: one pass gathers the types."""
    return all(issubclass(t, numbers.Integral) and not issubclass(t, bool)
               for t in set(map(type, values)))


def _non_int_index(table, keys, rows):
    """InvalidModel naming the first row ``table``(s, a, .), in ``keys``
    order, with an index that fails ``is_int``."""
    for (s, a), row in zip(keys, rows):
        bad = [idx for idx, _ in row if not is_int(idx)]
        if bad:
            return InvalidModel(f"{table}({s},{a},.): index {bad[0]!r} is not an int")


class PomdpModel:
    """Immutable discrete POMDP (states, actions, observations, T, R, Z, discount).

    Construct from sparse rows. Validation is eager: every T(s,a,.) and
    Z(s',a,.) row must sum to 1 within 1e-9 and is then renormalized
    exactly, and its indices, like each reward key's, must be ints inside
    the model. The sums are checked once per distinct probability vector,
    the index range of each row, and the index types in one pass over all
    rows. Z rows with equal content are validated once and share one
    stored row.

    ``rows[s][a]`` is the one store of T and R that every sampler and the
    belief update read: (successors, cumulative, reward, observation rows),
    where the i-th observation row is the (observations, cumulative) of
    Z(successors[i], a, .). A sampler that reads it inline makes the same
    draws as :meth:`generative_step` without the call.
    """

    def __init__(self, state_names, action_names, obs_names, t_rows, z_rows,
                 rewards, discount=0.95):
        """Build from sparse rows.

        t_rows: dict (s, a) -> list of (s', prob)
        z_rows: dict (s', a) -> list of (o, prob)
        rewards: dict (s, a) -> float (missing entries are 0)
        """
        self.state_names = tuple(state_names)
        self.action_names = tuple(action_names)
        self.obs_names = tuple(obs_names)
        self.discount = float(discount)
        if not (0.0 <= self.discount <= 1.0):
            raise InvalidModel(f"discount {discount} outside [0, 1]")
        n_s, n_a, n_o = len(self.state_names), len(self.action_names), len(self.obs_names)
        if n_s == 0 or n_a == 0 or n_o == 0:
            raise InvalidModel("states, actions, and observations must be nonempty")

        keys = list(itertools.product(range(n_s), range(n_a)))       # state-major
        states, observations = frozenset(range(n_s)), frozenset(range(n_o))
        seen = {}                 # probability vector -> its _cumulative result
        z_by_id, z_by_content = {}, {}      # Z-row object, then content -> stored row
        z_objs = []               # each distinct Z-row object once
        trans, z_flat = [], []    # per (s, a), state-major
        t_list = list(map(t_rows.get, keys))
        for (s, a), row, zrow in zip(keys, t_list, map(z_rows.get, keys)):
            if row is None:
                raise InvalidModel(f"missing transition row for (s={s}, a={a})")
            trans.append(_validated(row, "T", s, a, states, seen))
            stored = z_by_id.get(id(zrow))        # z_rows keeps every row object alive
            if stored is None:
                if zrow is None:
                    raise InvalidModel(f"missing observation row for (s'={s}, a={a})")
                z_objs.append(zrow)
                content = tuple(map(tuple, zrow))
                stored = z_by_content.get(content)
                if stored is None:
                    stored = z_by_content[content] = _validated(
                        content, "Z", s, a, observations, seen)
                z_by_id[id(zrow)] = stored
            z_flat.append(stored)
        # Indices equal by value to valid ones (1.0, True) passed the range
        # checks, and a Z row equal by value to a stored one reuses it; every
        # index and reward key must also be an int.
        if not _all_ints(map(itemgetter(0), itertools.chain.from_iterable(t_list))):
            raise _non_int_index("T", keys, t_list)
        if not _all_ints(map(itemgetter(0), itertools.chain.from_iterable(z_objs))):
            raise _non_int_index("Z", keys, map(z_rows.get, keys))
        r = dict.fromkeys(keys, 0.0)
        r.update(rewards)                     # a key outside the model adds an entry
        if len(r) != len(keys) or not _all_ints(itertools.chain.from_iterable(rewards)):
            inside = frozenset(keys)
            bad = next(key for key in rewards if key not in inside or not all(map(is_int, key)))
            raise InvalidModel(f"reward key {bad!r} is not a (state, action) of the model")
        r_flat = list(map(float, r.values()))             # state-major
        if not all(map(math.isfinite, r_flat)):
            key, reward = next((key, reward) for key, reward in rewards.items()
                               if not math.isfinite(float(reward)))
            raise InvalidModel(f"R({key[0]},{key[1]}) = {reward} is not finite")

        # One pass over the states. rows[s][a] holds the stored Z rows of its
        # successors, and obs_support(s) = {o | exists a with Z(s, a, o) > 0}.
        # A state that self-loops with zero reward under every action
        # contributes exactly 0 to any return; simulations may stop there early.
        self._z = tuple(zip(*[iter(z_flat)] * n_a))
        z_cols = [z_flat[a::n_a] for a in range(n_a)]
        rows, support, absorbing = [], [], []
        for s, t_s, r_s, z_s in zip(range(n_s), zip(*[iter(trans)] * n_a),
                                    zip(*[iter(r_flat)] * n_a), self._z):
            rows.append(tuple([(succ, cum, reward, tuple(map(z_col.__getitem__, succ)))
                               for (succ, cum), reward, z_col in zip(t_s, r_s, z_cols)]))
            support.append(frozenset(o for oidxs, _ in z_s for o in oidxs))
            if not any(r_s) and all(succ == (s,) for succ, _ in t_s):
                absorbing.append(s)
        self.rows, self.obs_support = tuple(rows), tuple(support)
        self.absorbing_zero = frozenset(absorbing)

    # -- sizes ------------------------------------------------------------
    @property
    def n_states(self):
        return len(self.state_names)

    @property
    def n_actions(self):
        return len(self.action_names)

    # -- table access ------------------------------------------------------
    def observation_prob(self, s2, a, o):
        idxs, cum = self._z[s2][a]
        prev = 0.0
        for i, c in zip(idxs, cum):
            if i == o:
                return c - prev
            prev = c
        return 0.0

    def reward(self, s, a):
        return self.rows[s][a][2]

    def successors(self, s, a):
        """Tuple of states with T(s, a, s') > 0."""
        return self.rows[s][a][0]

    def observation_support(self, s2, a):
        """Tuple of observations with Z(s2, a, o) > 0."""
        return self._z[s2][a][0]

    # -- generative simulator ----------------------------------------------
    def generative_step(self, s, a, rng):
        """Black-box simulator draw: sample s' ~ T(s,a,.), o ~ Z(s',a,.), r = R(s,a).

        ``rng`` is a seeded ``random.Random``; the draw is deterministic
        given the stream state. Each sample is the first outcome whose
        cumulative probability reaches one ``rng.random()`` draw; the last
        cumulative value is pinned to 1.0, so one always does.
        """
        succ, cum, reward, obs_rows = self.rows[s][a]
        i = bisect_left(cum, rng.random())
        oidxs, ocum = obs_rows[i]
        return succ[i], oidxs[bisect_left(ocum, rng.random())], reward


@dataclass
class BeliefState:
    """Exact belief: sparse map state -> probability, normalized to 1."""

    probs: dict

    def __post_init__(self):
        for s in self.probs:
            if not is_int(s):
                raise InvalidModel(f"belief state {s!r} is not an int")
        clean = {int(s): float(p) for s, p in self.probs.items() if p != 0.0}
        if not clean:
            raise EmptyBelief("belief has no mass")
        if not all(p >= 0.0 for p in clean.values()):
            raise InvalidModel("belief has a negative or NaN probability")
        total = sum(clean.values())
        if not abs(total - 1.0) <= PROB_TOL:
            raise InvalidModel(f"belief sums to {total!r}, expected 1.0")
        self.probs = {s: p / total for s, p in clean.items()}


def belief_update(model, belief, action, observation):
    """Exact Bayes update: b'(s') ∝ Z(s',a,o) Σ_s T(s,a,s') b(s).

    Raises ImpossibleObservation when the observation has zero prior
    probability under (belief, action).
    """
    pred = {}
    for s, p in belief.probs.items():
        idxs, cum, _, _ = model.rows[s][action]
        prev = 0.0
        for s2, c in zip(idxs, cum):
            pred[s2] = pred.get(s2, 0.0) + p * (c - prev)
            prev = c
    post = {}
    eta = 0.0
    for s2, mass in pred.items():
        zp = model.observation_prob(s2, action, observation)
        if zp > 0.0:
            w = zp * mass
            post[s2] = w
            eta += w
    if eta <= 0.0:
        raise ImpossibleObservation(
            f"observation {observation} has zero probability under the belief and action {action}")
    return BeliefState({s2: w / eta for s2, w in post.items()})


def _uniforms(rng, count):
    """``count`` draws of ``rng.random()``, bit for bit, as one float array.

    ``rng.getrandbits(64 * count)`` consumes the 2 * count 32-bit words that
    ``count`` ``random()`` calls would, least significant first; each pair
    (w0, w1) becomes ((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53, CPython's
    ``random()``, which is exact in float64.
    """
    words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"), "<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0


def resample_particles(model, particles, action, observation, count, rng):
    """Refresh a particle set after executing (action, observation).

    Draws ``count`` states from the exact posterior of the particles'
    empirical belief {s: n_s / n}, P(s') ∝ Σ_s n_s T(s,a,s') Z(s',a,o): the
    law that rejection through the simulator samples from. The draw is
    that of ``rng.choices`` over the posterior's states in ascending order,
    made at once: ``_uniforms`` takes the ``count`` ``rng.random()`` values
    from one ``getrandbits`` call, and ``searchsorted(side="right")`` on the
    cumulative weights, clipped to the last state, bisects each as
    ``choices`` does. Particles and the stream's end state both equal those
    of ``choices``; ``test_resample_particles_equals_choices`` pins it.
    Raises ParticleDeprivation when the particle set is empty or no
    successor of it can emit the observation.
    """
    if not particles:
        raise ParticleDeprivation("source particle set is empty")
    n = len(particles)
    belief = BeliefState({s: k / n for s, k in Counter(particles).items()})
    try:
        post = belief_update(model, belief, action, observation).probs
    except ImpossibleObservation:
        raise ParticleDeprivation(
            f"no particles consistent with observation {observation}") from None
    states = sorted(post)
    cum = np.cumsum([post[s] for s in states])      # sequential, as accumulate()
    picks = np.searchsorted(cum, _uniforms(rng, count) * cum[-1], side="right")
    return np.take(states, np.minimum(picks, len(states) - 1)).tolist()
