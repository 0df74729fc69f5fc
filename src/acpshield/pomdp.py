"""Discrete POMDP model, exact belief update, particle refresh, and the simulator.

The particle refresh draws from the exact posterior of the particles'
empirical belief, so it never calls the simulator.

The model stores transition and observation tables as per-(state, action)
sparse rows (successor indices plus cumulative probabilities), which keeps
sampling fast and memory flat for gridworlds with hundreds of cells where
each row has at most a couple of successors.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EmptyBelief,
    ImpossibleObservation,
    InvalidModel,
    ParticleDeprivation,
)

PROB_TOL = 1e-9


def _normalize_row(pairs, what):
    """Validate and exactly renormalize one probability row.

    ``pairs`` is a list of (index, prob). Rejects negative entries and row
    sums off by more than PROB_TOL; renormalizes the tiny float drift away.
    """
    total = 0.0
    for idx, p in pairs:
        if p < 0.0:
            raise InvalidModel(f"{what}: negative probability {p} at index {idx}")
        total += p
    if abs(total - 1.0) > PROB_TOL:
        raise InvalidModel(f"{what}: row sums to {total!r}, expected 1.0")
    out = [(idx, p / total) for idx, p in pairs if p > 0.0]
    if not out:
        raise InvalidModel(f"{what}: row has no positive mass")
    return out


def _cumulative(pairs):
    idxs = tuple(i for i, _ in pairs)
    cum = []
    acc = 0.0
    for _, p in pairs:
        acc += p
        cum.append(acc)
    cum[-1] = 1.0
    return idxs, tuple(cum)


class PomdpModel:
    """Immutable discrete POMDP (states, actions, observations, T, R, Z, discount).

    Construct either from dense numpy tables (:meth:`from_tables`) or from
    sparse rows (:meth:`from_rows`). Validation is eager: every T(s,a,.) and
    Z(s',a,.) row must sum to 1 within 1e-9 and is then renormalized exactly.
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

        self._t = [[None] * n_a for _ in range(n_s)]
        self._z = [[None] * n_a for _ in range(n_s)]
        self._r = [[0.0] * n_a for _ in range(n_s)]
        for s in range(n_s):
            for a in range(n_a):
                row = t_rows.get((s, a))
                if row is None:
                    raise InvalidModel(f"missing transition row for (s={s}, a={a})")
                self._t[s][a] = _cumulative(_normalize_row(row, f"T({s},{a},.)"))
                zrow = z_rows.get((s, a))
                if zrow is None:
                    raise InvalidModel(f"missing observation row for (s'={s}, a={a})")
                self._z[s][a] = _cumulative(_normalize_row(zrow, f"Z({s},{a},.)"))
        for (s, a), r in rewards.items():
            self._r[s][a] = float(r)

        # obs_support(s) = { o | exists a with Z(s, a, o) > 0 }
        self.obs_support = tuple(
            frozenset(o for a in range(n_a) for o in self._z[s][a][0])
            for s in range(n_s)
        )
        # States that self-loop with zero reward under every action contribute
        # exactly 0 to any return; simulations may stop there early.
        self.absorbing_zero = frozenset(
            s for s in range(n_s)
            if all(self._t[s][a][0] == (s,) and self._r[s][a] == 0.0
                   for a in range(n_a))
        )

    @classmethod
    def from_tables(cls, transition, reward, observation_fn, state_names=None,
                    action_names=None, obs_names=None, discount=0.95):
        """Build from dense arrays T (n_s, n_a, n_s), R (n_s, n_a), Z (n_s, n_a, n_o)."""
        t = np.asarray(transition, dtype=float)
        r = np.asarray(reward, dtype=float)
        z = np.asarray(observation_fn, dtype=float)
        if t.ndim != 3 or t.shape[0] != t.shape[2]:
            raise InvalidModel(f"transition table has shape {t.shape}, expected (n_s, n_a, n_s)")
        n_s, n_a = t.shape[0], t.shape[1]
        if r.shape != (n_s, n_a):
            raise InvalidModel(f"reward table has shape {r.shape}, expected {(n_s, n_a)}")
        if z.ndim != 3 or z.shape[:2] != (n_s, n_a):
            raise InvalidModel(f"observation table has shape {z.shape}, expected (n_s, n_a, n_o)")
        n_o = z.shape[2]
        state_names = state_names or [f"s{i}" for i in range(n_s)]
        action_names = action_names or [f"a{i}" for i in range(n_a)]
        obs_names = obs_names or [f"o{i}" for i in range(n_o)]
        t_rows = {}
        z_rows = {}
        rewards = {}
        for s in range(n_s):
            for a in range(n_a):
                t_rows[(s, a)] = [(int(s2), float(p)) for s2, p in enumerate(t[s, a]) if p != 0.0]
                z_rows[(s, a)] = [(int(o), float(p)) for o, p in enumerate(z[s, a]) if p != 0.0]
                if r[s, a] != 0.0:
                    rewards[(s, a)] = float(r[s, a])
        return cls(state_names, action_names, obs_names, t_rows, z_rows, rewards,
                   discount=discount)

    # -- sizes ------------------------------------------------------------
    @property
    def n_states(self):
        return len(self.state_names)

    @property
    def n_actions(self):
        return len(self.action_names)

    @property
    def n_observations(self):
        return len(self.obs_names)

    # -- table access ------------------------------------------------------
    def transition_row(self, s, a):
        """Successors of (s, a) as (indices, probs) arrays."""
        idxs, cum = self._t[s][a]
        probs = np.diff(np.asarray(cum), prepend=0.0)
        return np.asarray(idxs), probs

    def observation_row(self, s2, a):
        """Observations of landed state s2 under a as (indices, probs)."""
        idxs, cum = self._z[s2][a]
        probs = np.diff(np.asarray(cum), prepend=0.0)
        return np.asarray(idxs), probs

    def observation_prob(self, s2, a, o):
        idxs, cum = self._z[s2][a]
        prev = 0.0
        for i, c in zip(idxs, cum):
            if i == o:
                return c - prev
            prev = c
        return 0.0

    def reward(self, s, a):
        return self._r[s][a]

    def successors(self, s, a):
        """Tuple of states with T(s, a, s') > 0."""
        return self._t[s][a][0]

    def observation_support(self, s2, a):
        """Tuple of observations with Z(s2, a, o) > 0."""
        return self._z[s2][a][0]

    @cached_property
    def draw_rows(self):
        """The rows :meth:`generative_step` draws from, one per (s, a).

        ``draw_rows[s][a]`` is (successors, cumulative, reward, observation
        rows), where the i-th observation row is the (observations,
        cumulative) of Z(successors[i], a, .). A sampler that reads them
        inline makes the same draws as :meth:`generative_step` without the
        call. Built on first use and kept with the model.
        """
        return tuple(
            tuple((*self._t[s][a], self._r[s][a],
                   tuple(self._z[s2][a] for s2 in self._t[s][a][0]))
                  for a in range(self.n_actions))
            for s in range(self.n_states))

    # -- generative simulator ----------------------------------------------
    def generative_step(self, s, a, rng):
        """Black-box simulator draw: sample s' ~ T(s,a,.), o ~ Z(s',a,.), r = R(s,a).

        ``rng`` is a seeded ``random.Random``; the draw is deterministic
        given the stream state. Each sample is the first outcome whose
        cumulative probability reaches one ``rng.random()`` draw; the last
        cumulative value is pinned to 1.0, so one always does.
        """
        idxs, cum = self._t[s][a]
        s2 = idxs[bisect_left(cum, rng.random())]
        oidxs, ocum = self._z[s2][a]
        return s2, oidxs[bisect_left(ocum, rng.random())], self._r[s][a]


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

    def prob(self, s):
        return self.probs.get(s, 0.0)

    def support(self):
        return frozenset(self.probs)


def belief_update(model, belief, action, observation):
    """Exact Bayes update: b'(s') ∝ Z(s',a,o) Σ_s T(s,a,s') b(s).

    Raises ImpossibleObservation when the observation has zero prior
    probability under (belief, action).
    """
    pred = {}
    for s, p in belief.probs.items():
        idxs, cum = model._t[s][action]
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


def resample_particles(model, particles, action, observation, count, rng):
    """Refresh a particle set after executing (action, observation).

    Draws ``count`` states from the exact posterior of the particles'
    empirical belief {s: n_s / n}, P(s') ∝ Σ_s n_s T(s,a,s') Z(s',a,o): the
    law that rejection through the simulator samples from. The draw is
    ``rng.choices`` over the posterior's states in ascending order, one
    ``rng.random()`` per particle. Raises ParticleDeprivation when the
    particle set is empty or no successor of it can emit the observation.
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
    return rng.choices(states, [post[s] for s in states], k=count)
