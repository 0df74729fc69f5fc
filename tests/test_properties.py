"""Property tests on random inputs: BSTS edges, the shield table, ACP radii,
constraint margins, nonconformity scores and the particle refresh."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acpshield.acp import nonconformity, region_radius
from acpshield.errors import AgentMismatch, ImpossibleObservation, ParticleDeprivation
from acpshield.planner import Planner, PlannerConfig
from acpshield.pomdp import BeliefState, belief_update
from acpshield.shield import Bsts, compute_winning_regions, constraint_values
from acpshield.trajectory import JointAgentState

import oracles
from conftest import make_random_pomdp
from test_acp import run_estimator_stream
from test_shield import manual_unsafe, random_support

PROPERTY = settings(max_examples=100, deadline=None)
seeds = st.integers(0, 2 ** 32 - 1)


@PROPERTY
@given(seed=seeds, deterministic=st.booleans())
def test_bsts_children_are_posterior_supports(seed, deterministic):
    rng = np.random.default_rng(seed)
    model = make_random_pomdp(rng, n_states=int(rng.integers(3, 8)),
                              n_actions=int(rng.integers(1, 4)), n_obs=3,
                              deterministic_obs=deterministic)
    bsts = Bsts(model, random_support(model, rng), 2)
    for q in (0, 1):
        for sup in bsts.levels[q]:
            weights = rng.dirichlet(np.ones(len(sup)))
            belief = BeliefState(dict(zip(sorted(sup), weights)))
            for a in range(model.n_actions):
                posteriors = {}
                for o in range(model.n_observations):
                    try:
                        posteriors[o] = belief_update(model, belief, a, o).support()
                    except ImpossibleObservation:
                        pass
                assert bsts.post_by_obs(sup, q, a) == posteriors


@PROPERTY
@given(seed=seeds, horizon=st.integers(1, 3), deterministic=st.booleans())
def test_shield_table_is_sound_and_matches_oracle(seed, horizon, deterministic):
    rng = np.random.default_rng(seed)
    model = make_random_pomdp(rng, n_states=int(rng.integers(4, 9)),
                              n_actions=int(rng.integers(2, 4)), n_obs=3,
                              deterministic_obs=deterministic)
    by_level = {tau: frozenset(rng.choice(model.n_states,
                                          size=int(rng.integers(0, 4)),
                                          replace=False).tolist())
                for tau in range(1, horizon + 1)}
    bsts = Bsts(model, random_support(model, rng), horizon)
    winning = compute_winning_regions(bsts, manual_unsafe(horizon, by_level))
    for q in range(horizon):
        for sup in bsts.levels[q]:
            acts = winning.allowed[(sup, q)]
            for a in acts:
                children = oracles.reachable_supports(model, sup, a).values()
                assert all(child in winning.regions[q + 1] for child in children)
            assert list(acts) == oracles.shielded_actions_oracle(
                model, sup, q, horizon, by_level)


@PROPERTY
@given(window=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30),
       lams=st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)))
def test_acp_radius_monotone_in_lambda(window, lams):
    low, high = sorted(lams)
    assert region_radius(window, low, 30) >= region_radius(window, high, 30)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, length=st.integers(2, 150), step=st.floats(0.01, 2.0),
       alpha=st.floats(0.0001, 0.2), delta=st.floats(0.01, 0.5),
       window=st.integers(1, 40))
def test_acp_estimator_matches_scalar_replay(seed, length, step, alpha, delta, window):
    walk = np.cumsum(np.random.default_rng(seed).normal(0.0, step, size=(length, 2)), axis=0)
    points = [tuple(p) for p in walk]
    est, regions = run_estimator_stream(points, alpha=alpha, delta=delta,
                                        window_size=window)
    radii, lam = oracles.acp_replay([], points[:-1], points[1:], alpha=alpha,
                                    delta=delta, window_size=window, lam0=delta)
    # math.dist against numpy's norm: last-ulp drift; infinities match exactly
    assert [r.radius(1) for r in regions[1:]] == pytest.approx(radii, rel=1e-12)
    assert est.trackers[1].lam == pytest.approx(lam, abs=1e-12)


@PROPERTY
@given(seed=seeds, n_states=st.integers(0, 120), n_agents=st.integers(0, 300),
       n_nan=st.integers(0, 5), n_dup=st.integers(0, 5),
       epsilon=st.floats(0.0, 3.0), scale=st.sampled_from([1.0, 40.0, 1e6]))
def test_constraint_values_equal_broadcast_oracle(seed, n_states, n_agents, n_nan,
                                                  n_dup, epsilon, scale):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-scale, scale, size=(n_states, 2))
    agents = rng.uniform(-scale, scale, size=(n_agents, 2))
    if n_agents:
        agents = np.concatenate([agents, agents[rng.integers(0, n_agents, size=n_dup)]])
        if n_states:                                  # an agent exactly on a state
            agents[0] = positions[rng.integers(0, n_states)]
    if n_states:
        positions[rng.integers(0, n_states, size=n_nan)] = np.nan
        positions[rng.integers(0, n_states), rng.integers(0, 2)] = np.nan
    got = constraint_values(positions, agents, epsilon)
    assert np.array_equal(got, oracles.constraint_values_oracle(positions, agents, epsilon))


def random_joint(rng, ids, timestep=0):
    ids = list(ids)
    rng.shuffle(ids)
    return JointAgentState(tuple(ids), rng.normal(0.0, 5.0, size=(len(ids), 2)), timestep)


@PROPERTY
@given(seed=seeds, pool=st.integers(1, 60), mixed=st.booleans(),
       overlap=st.floats(0.0, 1.0))
def test_nonconformity_equals_position_of_oracle(seed, pool, mixed, overlap):
    rng = np.random.default_rng(seed)
    ids = list(range(pool)) + ([str(i) for i in range(pool)] if mixed else [])
    actual_ids = [aid for aid in ids if rng.random() < 0.7]
    shared = [aid for aid in actual_ids if rng.random() < overlap]
    only_pred = [aid for aid in ids if aid not in actual_ids and rng.random() < 0.5]
    actual = random_joint(rng, actual_ids, 3)
    predicted = random_joint(rng, shared + only_pred, 3)
    expected = oracles.nonconformity_oracle(actual, predicted)
    if expected is None:
        with pytest.raises(AgentMismatch):
            nonconformity(actual, predicted)
    else:
        assert nonconformity(actual, predicted) == expected


@PROPERTY
@given(seed=seeds, count=st.integers(1, 40))
def test_advance_root_keeps_count_of_consistent_successors(seed, count):
    rng = np.random.default_rng(seed)
    model = make_random_pomdp(rng, n_states=int(rng.integers(3, 7)),
                              n_actions=int(rng.integers(1, 3)), n_obs=3)
    particles = rng.integers(0, model.n_states, size=int(rng.integers(1, 12))).tolist()
    action, obs = int(rng.integers(model.n_actions)), int(rng.integers(3))
    T, Z, _ = oracles.dense_tables(model)
    consistent = {s2 for s in particles for s2 in range(model.n_states)
                  if T[s, action, s2] > 0.0 and Z[s2, action, obs] > 0.0}
    planner = Planner(model, PlannerConfig(particle_count=count, seed=seed))
    root = planner.make_root(particles)
    if not consistent:
        with pytest.raises(ParticleDeprivation):
            planner.advance_root(root, action, obs)
        return
    new = planner.advance_root(root, action, obs).particles
    assert len(new) == count
    assert set(new) <= consistent
