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

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyBelief,
    ImpossibleObservation,
    InvalidModel,
    ParticleDeprivation,
)

PROB_TOL = 1e-9


def _cumulative(pairs, table, s, a):
    """One validated probability row as (indices, cumulative probabilities).

    ``pairs`` is a list of (index, prob), the row ``table``(s, a, .). Rejects
    negative entries and row sums off by more than PROB_TOL; renormalizes
    the tiny float drift away, drops zero entries and pins the last
    cumulative value to 1.0. The row's name is formatted only on error: the
    model checks thousands of rows.
    """
    total = 0.0
    for idx, p in pairs:
        if p < 0.0:
            raise InvalidModel(f"{table}({s},{a},.): negative probability {p} at index {idx}")
        total += p
    if abs(total - 1.0) > PROB_TOL:
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


class PomdpModel:
    """Immutable discrete POMDP (states, actions, observations, T, R, Z, discount).

    Construct from sparse rows. Validation is eager: every T(s,a,.) and
    Z(s',a,.) row must sum to 1 within 1e-9 and is then renormalized exactly.
    Z rows with equal content are validated once and share one stored row.

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

        t = [[None] * n_a for _ in range(n_s)]
        self._z = [[None] * n_a for _ in range(n_s)]
        r = [[0.0] * n_a for _ in range(n_s)]
        z_seen = {}               # Z-row content -> its validated row, shared
        for s in range(n_s):
            for a in range(n_a):
                row = t_rows.get((s, a))
                if row is None:
                    raise InvalidModel(f"missing transition row for (s={s}, a={a})")
                t[s][a] = _cumulative(row, "T", s, a)
                zrow = z_rows.get((s, a))
                if zrow is None:
                    raise InvalidModel(f"missing observation row for (s'={s}, a={a})")
                key = tuple(map(tuple, zrow))
                if key not in z_seen:
                    z_seen[key] = _cumulative(zrow, "Z", s, a)
                self._z[s][a] = z_seen[key]
        for (s, a), reward in rewards.items():
            r[s][a] = float(reward)
        # the observation rows are the per-(s', a) store _z's own tuples
        self.rows = tuple(
            tuple([(*t[s][a], r[s][a], tuple([self._z[s2][a] for s2 in t[s][a][0]]))
                   for a in range(n_a)])
            for s in range(n_s))

        # obs_support(s) = { o | exists a with Z(s, a, o) > 0 }
        self.obs_support = tuple(
            frozenset(o for a in range(n_a) for o in self._z[s][a][0])
            for s in range(n_s)
        )
        # States that self-loop with zero reward under every action contribute
        # exactly 0 to any return; simulations may stop there early.
        self.absorbing_zero = frozenset(
            s for s, per_a in enumerate(self.rows)
            if all(succ == (s,) and reward == 0.0 for succ, _, reward, _ in per_a)
        )

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
        clean = {int(s): float(p) for s, p in self.probs.items() if p != 0.0}
        if not clean:
            raise EmptyBelief("belief has no mass")
        if any(p < 0.0 for p in clean.values()):
            raise InvalidModel("belief has negative probability")
        total = sum(clean.values())
        if abs(total - 1.0) > PROB_TOL:
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
