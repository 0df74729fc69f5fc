"""Model construction, exact filtering, simulator statistics, particle refresh."""

import math
import random
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from acpshield.errors import (
    EmptyBelief,
    ImpossibleObservation,
    InvalidModel,
    ParticleDeprivation,
)
from acpshield.pomdp import (
    BeliefState,
    PomdpModel,
    _uniforms,
    belief_update,
    resample_particles,
)

from conftest import make_random_pomdp
import oracles
from oracles import dense_tables, exact_filter, n_observations, transition_row


#Upfront hand computation for the two_state_model fixture, action 0, obs 0,
# from the uniform belief:
#   pred = (0.5*0.7 + 0.5*0.4, 0.5*0.3 + 0.5*0.6) = (0.55, 0.45)
#   weighted = (0.9*0.55, 0.2*0.45) = (0.495, 0.09), eta = 0.585
#   posterior = (0.495/0.585, 0.09/0.585)
HAND_POSTERIOR_S0 = 0.495 / 0.585
HAND_POSTERIOR_S1 = 0.09 / 0.585


def test_belief_update_matches_hand_computation(two_state_model):
    b = BeliefState({0: 0.5, 1: 0.5})
    b2 = belief_update(two_state_model, b, 0, 0)
    assert oracles.belief_prob(b2, 0) == pytest.approx(HAND_POSTERIOR_S0, abs=1e-12)
    assert oracles.belief_prob(b2, 1) == pytest.approx(HAND_POSTERIOR_S1, abs=1e-12)


def test_belief_update_matches_dense_filter_on_random_models(rng):
    for trial in range(40):
        model = make_random_pomdp(rng, n_states=6, n_actions=3, n_obs=4)
        T, Z, _ = dense_tables(model)
        probs = rng.dirichlet(np.ones(model.n_states))
        b = BeliefState({s: float(p) for s, p in enumerate(probs)})
        a = int(rng.integers(model.n_actions))
        for o in range(n_observations(model)):
            prior = np.array([oracles.belief_prob(b, s) for s in range(model.n_states)])
            expected, eta = exact_filter(T, Z, prior, a, o)
            if expected is None:
                with pytest.raises(ImpossibleObservation):
                    belief_update(model, b, a, o)
            else:
                post = belief_update(model, b, a, o)
                got = [oracles.belief_prob(post, s) for s in range(model.n_states)]
                np.testing.assert_allclose(got, expected, atol=1e-12)


def test_impossible_observation_raises(two_state_model):
    # From a point belief on s0 with action 0, successor observations are
    # possible for both o0 and o1 here, so build a model where o1 cannot occur.
    t = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    z = np.array([[[1.0, 0.0]], [[1.0, 0.0]]])
    model = oracles.model_from_tables(t, np.zeros((2, 1)), z)
    with pytest.raises(ImpossibleObservation):
        belief_update(model, BeliefState({0: 1.0}), 0, 1)


def test_row_validation_tolerance():
    base_t = np.array([[[0.5, 0.5]], [[0.0, 1.0]]])
    z = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    ok = base_t.copy()
    ok[0, 0, 0] += 5e-10            # inside tolerance, renormalized away
    model = oracles.model_from_tables(ok, np.zeros((2, 1)), z)
    idxs, probs = transition_row(model, 0, 0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-15)

    bad = base_t.copy()
    bad[0, 0, 0] += 1e-7            # outside tolerance
    with pytest.raises(InvalidModel):
        oracles.model_from_tables(bad, np.zeros((2, 1)), z)

    neg = base_t.copy()
    neg[0, 0, 0] = -0.1
    neg[0, 0, 1] = 1.1
    with pytest.raises(InvalidModel):
        oracles.model_from_tables(neg, np.zeros((2, 1)), z)


@pytest.mark.parametrize("t_row, z_row, reward", [
    ([(0, math.nan), (1, 1.0)], [(0, 1.0)], 0.0),     # not read as a zero entry
    ([(0, 1.0)], [(0, math.nan), (0, 1.0)], 0.0),
    ([(0, 1.0)], [(0, 1.0)], math.inf),
    ([(0, 1.0)], [(0, 1.0)], -math.inf),
    ([(0, 1.0)], [(0, 1.0)], math.nan),
])
def test_nan_and_infinite_entries_rejected(t_row, z_row, reward):
    with pytest.raises(InvalidModel):
        PomdpModel(["s0", "s1"], ["a0"], ["o0"], {(0, 0): t_row, (1, 0): [(1, 1.0)]},
                   {(0, 0): z_row, (1, 0): [(0, 1.0)]}, {(0, 0): reward})


def test_missing_rows_rejected():
    with pytest.raises(InvalidModel):
        PomdpModel(["s0"], ["a0"], ["o0"], {}, {(0, 0): [(0, 1.0)]}, {})
    with pytest.raises(InvalidModel):
        PomdpModel(["s0"], ["a0"], ["o0"], {(0, 0): [(0, 1.0)]}, {}, {})


def test_equal_observation_rows_validated_once_and_shared():
    names = ["s0", "s1", "s2"], ["a0", "a1"], ["o0", "o1"]
    t_rows = {(s, a): [(s, 1.0)] for s in range(3) for a in range(2)}
    z_rows = {(s, a): [(0, 0.25), (1, 0.75)] for s in range(3) for a in range(2)}
    z_rows[(0, 0)] = [(0, 1.0)]
    model = PomdpModel(*names, t_rows, z_rows, {})
    assert model._z[0][1] is model._z[2][1] is not model._z[0][0]
    assert model._z[1][0] == ((0, 1), (0.25, 1.0))
    # a bad row is named by its first (s', a), in state-major order
    z_rows[(2, 0)] = [(0, 0.7)]
    z_rows[(1, 1)] = [(0, 0.7)]
    with pytest.raises(InvalidModel, match=r"Z\(1,1,\.\)"):
        PomdpModel(*names, t_rows, z_rows, {})


@pytest.mark.parametrize("table, key, row, match", [
    ("T", (0, 0), [(-1, 1.0)], r"T\(0,0,\.\): index -1 outside 0\.\.2"),
    ("T", (1, 0), [(99, 0.5), (1, 0.5)], r"T\(1,0,\.\): index 99 outside 0\.\.2"),
    # the probabilities of T(2, 0) equal those of the valid T(1, 0)
    ("T", (2, 0), [(3, 0.5), (1, 0.5)], r"T\(2,0,\.\): index 3 outside 0\.\.2"),
    ("Z", (1, 0), [(0, 0.5), (7, 0.5)], r"Z\(1,0,\.\): index 7 outside 0\.\.1"),
    ("Z", (2, 0), [(-1, 1.0)], r"Z\(2,0,\.\): index -1 outside 0\.\.1"),
], ids=["T-negative", "T-past-the-end", "T-cached-probabilities", "Z-past-the-end",
        "Z-negative"])
def test_row_indices_outside_the_model_rejected(table, key, row, match):
    t_rows = {(0, 0): [(0, 1.0)], (1, 0): [(0, 0.5), (1, 0.5)], (2, 0): [(2, 1.0)]}
    z_rows = {(s, 0): [(s % 2, 1.0)] for s in range(3)}
    (t_rows if table == "T" else z_rows)[key] = row
    with pytest.raises(InvalidModel, match=match):
        PomdpModel(["s0", "s1", "s2"], ["a0"], ["o0", "o1"], t_rows, z_rows, {})


@pytest.mark.parametrize("table, key, row, match", [
    ("Z", (1, 0), [(1.0, 1.0)], r"Z\(1,0,\.\): index 1\.0 is not an int"),
    ("T", (0, 0), [(True, 1.0)], r"T\(0,0,\.\): index True is not an int"),
    ("T", (0, 0), [(1.0, 1.0)], r"T\(0,0,\.\): index 1\.0 is not an int"),
    ("T", (1, 0), [(1, 1.0), (0.0, 0.0)], r"T\(1,0,\.\): index 0\.0 is not an int"),
], ids=["Z-float", "T-bool", "T-float", "T-float-zero-entry"])
def test_row_indices_that_are_not_ints_rejected(table, key, row, match):
    # each index equals a valid one by value, so only its type is wrong
    t_rows = {(0, 0): [(0, 1.0)], (1, 0): [(1, 1.0)]}
    z_rows = {(0, 0): [(0, 1.0)], (1, 0): [(1, 1.0)]}
    (t_rows if table == "T" else z_rows)[key] = row
    with pytest.raises(InvalidModel, match=match):
        PomdpModel(["s0", "s1"], ["a0"], ["o0", "o1"], t_rows, z_rows, {})


def test_float_z_index_rejected_behind_an_equal_int_row():
    # the float row equals the int row by value, so its content is cached already
    t_rows = {(0, 0): [(0, 1.0)], (1, 0): [(1, 1.0)]}
    z_rows = {(0, 0): [(1, 1.0)], (1, 0): [(1.0, 1.0)]}
    with pytest.raises(InvalidModel, match=r"Z\(1,0,\.\): index 1\.0 is not an int"):
        PomdpModel(["s0", "s1"], ["a0"], ["o0", "o1"], t_rows, z_rows, {})


def test_numpy_int_indices_accepted():
    t_rows = {(0, 0): [(np.int64(1), 1.0)], (1, 0): [(1, 1.0)]}
    z_rows = {(0, 0): [(0, 1.0)], (1, 0): [(np.int8(1), 1.0)]}
    model = PomdpModel(["s0", "s1"], ["a0"], ["o0", "o1"], t_rows, z_rows,
                       {(np.int64(1), np.int32(0)): 5.0})
    assert model.rows[0][0][0] == (1,) and model.obs_support == (frozenset({0}), frozenset({1}))
    assert model.reward(1, 0) == 5.0


@pytest.mark.parametrize("key", [(-1, 0), (99, 0), (0, -1), (0, 1), (3, 0), "s0",
                                 (True, 0), (1, 0.0)])
def test_reward_keys_outside_the_model_rejected(key):
    t_rows = {(s, 0): [(s, 1.0)] for s in range(3)}
    z_rows = {(s, 0): [(0, 1.0)] for s in range(3)}
    with pytest.raises(InvalidModel, match="reward key"):
        PomdpModel(["s0", "s1", "s2"], ["a0"], ["o0"], t_rows, z_rows,
                   {(0, 0): 1.0, key: 5.0})


def test_obs_support_and_absorbing_detection():
    # s0 emits o0 under a0 and o1 under a1; s1 is a zero-reward self-loop.
    t_rows = {(0, 0): [(1, 1.0)], (0, 1): [(0, 1.0)],
              (1, 0): [(1, 1.0)], (1, 1): [(1, 1.0)]}
    z_rows = {(0, 0): [(0, 1.0)], (0, 1): [(1, 1.0)],
              (1, 0): [(0, 0.5), (1, 0.5)], (1, 1): [(0, 0.5), (1, 0.5)]}
    model = PomdpModel(["s0", "s1"], ["a0", "a1"], ["o0", "o1"],
                       t_rows, z_rows, {(0, 0): 5.0})
    assert model.obs_support[0] == frozenset({0, 1})
    assert model.obs_support[1] == frozenset({0, 1})
    assert model.absorbing_zero == frozenset({1})
    # nonzero reward on the self-loop removes absorbing-zero status
    model2 = PomdpModel(["s0", "s1"], ["a0", "a1"], ["o0", "o1"],
                        t_rows, z_rows, {(0, 0): 5.0, (1, 1): -1.0})
    assert model2.absorbing_zero == frozenset()


def test_generative_step_frequencies(two_state_model):
    # Joint (s', o) distribution from s0 under a0:
    #   s'=0 w.p. 0.7 then o ~ (0.9, 0.1); s'=1 w.p. 0.3 then o ~ (0.2, 0.8)
    expected = np.array([0.7 * 0.9, 0.7 * 0.1, 0.3 * 0.2, 0.3 * 0.8])
    rng = random.Random(7)
    n = 40000
    counts = np.zeros(4)
    for _ in range(n):
        s2, o, r = two_state_model.generative_step(0, 0, rng)
        assert r == 1.0
        counts[2 * s2 + o] += 1
    _, p = stats.chisquare(counts, expected * n)
    assert p > 1e-3


def test_generative_step_deterministic_given_seed(two_state_model):
    draws1 = [two_state_model.generative_step(0, 0, random.Random(123)) for _ in range(5)]
    draws2 = [two_state_model.generative_step(0, 0, random.Random(123)) for _ in range(5)]
    assert draws1 == draws2


def test_belief_state_validation():
    with pytest.raises(EmptyBelief):
        BeliefState({})
    with pytest.raises(InvalidModel):
        BeliefState({0: 0.5, 1: 0.6})
    with pytest.raises(InvalidModel):
        BeliefState({0: -0.5, 1: 1.5})
    b = BeliefState({0: 0.25, 1: 0.75, 2: 0.0})
    assert oracles.belief_support(b) == frozenset({0, 1})


@pytest.mark.parametrize("probs", [{1.5: 1.0}, {True: 1.0}, {1.5: 0.5, 1: 0.5},
                                   {"1": 1.0}, {0: 1.0, 2.0: 0.0}])
def test_belief_state_rejects_non_int_states(probs):
    # none is truncated into state 1, nor merged with it into a misleading sum
    with pytest.raises(InvalidModel, match="is not an int"):
        BeliefState(probs)


def test_belief_state_takes_numpy_int_states():
    b = BeliefState({np.int64(0): 0.25, np.intp(1): 0.75})
    assert b.probs == {0: 0.25, 1: 0.75} and all(type(s) is int for s in b.probs)


@pytest.mark.parametrize("probs", [{0: math.nan}, {0: math.nan, 1: 1.0},
                                   {0: 1.0, 1: math.nan}])
def test_belief_state_rejects_nan(probs):
    with pytest.raises(InvalidModel):
        BeliefState(probs)


def test_resample_particles_converges_to_posterior(rng, two_state_model):
    # Prior particles drawn from the uniform belief; after (a0, o0) the
    # surviving successors are distributed as the exact Bayes posterior.
    prng = random.Random(99)
    particles = [0] * 5000 + [1] * 5000
    out, _ = resample_particles(two_state_model, Counter(particles), 0, 0, 20000, prng)
    freq0 = out.count(0) / len(out)
    assert freq0 == pytest.approx(HAND_POSTERIOR_S0, abs=0.02)


def test_resample_particles_rare_observation_and_deprivation():
    # from state 0: successors 1 and 2 emit o1 once in a thousand, 3 never;
    # 4 always emits o1 but is no successor. The posterior is 1/2 on each of
    # 1 and 2, however rare the observation.
    t = np.zeros((5, 1, 5))
    t[0, 0, [1, 2, 3]] = 1.0 / 3.0
    t[1:, 0, 0] = 1.0
    z = np.zeros((5, 1, 2))
    z[[0, 3], 0, 0] = 1.0
    z[[1, 2], 0] = [0.999, 0.001]
    z[4, 0, 1] = 1.0
    model = oracles.model_from_tables(t, np.zeros((5, 1)), z)
    out, _ = resample_particles(model, {0: 5}, 0, 1, 4000, random.Random(1))
    assert len(out) == 4000 and set(out) == {1, 2}
    assert out.count(1) / len(out) == pytest.approx(0.5, abs=0.03)
    # no successor of the particles can emit the observation
    t = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    z = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    model = oracles.model_from_tables(t, np.zeros((2, 1)), z)
    prng = random.Random(1)
    with pytest.raises(ParticleDeprivation):
        resample_particles(model, {0: 3}, 0, 1, 100, prng)
    with pytest.raises(ParticleDeprivation):
        resample_particles(model, {}, 0, 0, 100, prng)


@pytest.mark.parametrize("count", [0, 1, 2, 7, 800, 3000])
def test_uniforms_are_the_random_draws(count):
    # the refresh's one getrandbits call yields random()'s values bit for
    # bit and leaves the stream where count random() calls leave it
    for seed in range(5):
        rng, expected = random.Random(seed), random.Random(seed)
        rng.random()
        expected.random()
        assert _uniforms(rng, count).tolist() == [expected.random() for _ in range(count)]
        assert rng.getstate() == expected.getstate()


class ScriptedRandom(random.Random):
    """Serves the given ``random()`` values, also through ``getrandbits``:
    each value, a multiple of 2**-53, as the two 32-bit words CPython's
    ``random()`` reads it from."""

    def __init__(self, values):
        super().__init__(0)
        self.values = list(values)

    def random(self):
        return self.values.pop(0)

    def getrandbits(self, k):
        bits = 0
        for i in range(k // 64):
            m = int(self.random() * 2 ** 53)
            w0, w1 = (m >> 26) << 5, (m % 2 ** 26) << 6
            bits |= (w0 | w1 << 32) << 64 * i
        return bits


def test_resample_particles_bisects_as_choices_at_the_boundaries():
    # posterior {1: 0.5, 2: 0.5}: a draw of exactly 0.5 picks state 2, as
    # bisect_right does; 0 and the largest draw pick the first and last
    t = np.zeros((3, 1, 3))
    t[0, 0, 1:] = 0.5
    t[1:, 0, 0] = 1.0
    model = oracles.model_from_tables(t, np.zeros((3, 1)), np.ones((3, 1, 1)))
    draws = [0.5, 0.0, 1.0 - 2.0 ** -53, 0.25, 0.5 - 2.0 ** -53]
    out, _ = resample_particles(model, {0: 1}, 0, 0, len(draws), ScriptedRandom(draws))
    assert out == ScriptedRandom(draws).choices([1, 2], [0.5, 0.5], k=len(draws))
    assert out == [2, 1, 2, 1, 1]


def test_resample_particles_chi_square_against_posterior_and_rejection():
    # five states, one action; the observation o1 is likely enough that the
    # rejection oracle fills every slot by acceptance, never by its fill
    t = np.zeros((5, 1, 5))
    t[0, 0, [1, 2, 3]] = [0.5, 0.3, 0.2]
    t[1, 0, [2, 3, 4]] = [0.6, 0.3, 0.1]
    t[2, 0, [0, 4]] = [0.5, 0.5]
    t[3, 0, 3] = t[4, 0, 4] = 1.0
    z = np.zeros((5, 1, 2))
    z[:, 0, 1] = [0.9, 0.4, 0.7, 0.25, 0.55]
    z[:, 0, 0] = 1.0 - z[:, 0, 1]
    model = oracles.model_from_tables(t, np.zeros((5, 1)), z)
    particles = [0] * 500 + [1] * 300 + [2] * 200
    n = 20_000
    T, Z, _ = dense_tables(model)
    prior = np.bincount(particles, minlength=5) / len(particles)
    post, _ = exact_filter(T, Z, prior, 0, 1)
    states = np.flatnonzero(post)

    out, _ = resample_particles(model, Counter(particles), 0, 1, n, random.Random(7))
    counts = np.bincount(out, minlength=5)
    assert counts[post == 0.0].sum() == 0
    assert stats.chisquare(counts[states], n * post[states]).pvalue > 1e-3

    ref = oracles.resample_rejection_oracle(model, particles, 0, 1, n, random.Random(8))
    ref_counts = np.bincount(ref, minlength=5)
    table = np.stack([counts[states], ref_counts[states]])
    assert stats.chi2_contingency(table).pvalue > 1e-3


def test_dense_matrices_gated_by_threshold(rng):
    model = make_random_pomdp(rng, n_states=4, n_actions=2, n_obs=3)
    with pytest.raises(ValueError):
        dense_tables(model, max_states=3)
