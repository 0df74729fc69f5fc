"""Discrete POMDP model, belief representations, and the generative simulator.

The model stores transition and observation tables as per-(state, action)
sparse rows (successor indices plus cumulative probabilities), which keeps
sampling fast and memory flat for gridworlds with hundreds of cells where
each row has at most a couple of successors.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def transition_prob(self, s, a, s2):
        idxs, cum = self._t[s][a]
        prev = 0.0
        for i, c in zip(idxs, cum):
            if i == s2:
                return c - prev
            prev = c
        return 0.0

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

    # -- generative simulator ----------------------------------------------
    def generative_step(self, s, a, rng):
        """Black-box simulator draw: sample s' ~ T(s,a,.), o ~ Z(s',a,.), r = R(s,a).

        ``rng`` is a seeded ``random.Random``; the draw is deterministic
        given the stream state.
        """
        idxs, cum = self._t[s][a]
        u = rng.random()
        s2 = idxs[-1]
        for i, c in zip(idxs, cum):
            if u <= c:
                s2 = i
                break
        oidxs, ocum = self._z[s2][a]
        u = rng.random()
        o = oidxs[-1]
        for i, c in zip(oidxs, ocum):
            if u <= c:
                o = i
                break
        return s2, o, self._r[s][a]


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


@dataclass
class ParticleBelief:
    """Sampled belief: a multiset of states with a capacity bound."""

    particles: list
    capacity: int

    def __post_init__(self):
        if self.capacity <= 0:
            raise InvalidModel(f"particle capacity must be positive, got {self.capacity}")

    def add(self, s):
        if len(self.particles) < self.capacity:
            self.particles.append(s)

    def support(self):
        if not self.particles:
            raise EmptyBelief("particle set is empty")
        return frozenset(self.particles)

    def __len__(self):
        return len(self.particles)


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


def resample_particles(model, particles, action, observation, count, rng,
                       oversample=10, fallback_states=None):
    """Rejection-refresh a particle set after executing (action, observation).

    Samples states from ``particles``, steps them through the simulator, and
    keeps successors whose simulated observation matches. After
    ``oversample * count`` attempts, remaining slots are filled uniformly
    from ``fallback_states`` (the observation-consistent successor set) when
    given. Raises ParticleDeprivation if nothing is consistent.
    """
    if not particles:
        raise ParticleDeprivation("source particle set is empty")
    src = list(particles)
    n_src = len(src)
    accepted = []
    attempts = 0
    max_attempts = oversample * count
    while len(accepted) < count and attempts < max_attempts:
        attempts += 1
        s = src[int(rng.random() * n_src)]
        s2, o, _ = model.generative_step(s, action, rng)
        if o == observation:
            accepted.append(s2)
    if len(accepted) < count:
        pool = list(fallback_states) if fallback_states else []
        if not pool and not accepted:
            raise ParticleDeprivation(
                f"no particles consistent with observation {observation}")
        if pool:
            missing = count - len(accepted)
            accepted.extend(pool[int(rng.random() * len(pool))] for _ in range(missing))
        else:
            # stretch the accepted set to capacity by resampling it
            missing = count - len(accepted)
            accepted.extend(accepted[int(rng.random() * len(accepted))] for _ in range(missing))
    return accepted

