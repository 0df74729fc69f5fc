"""Property tests on random inputs: BSTS edges, the shield table, ACP radii,
constraint margins, unsafe sets on a subset of the states, nonconformity
scores, the particle refresh, simulator draws, rollouts, the planner's
search, the per-timestep agent index, trajectory synthesis and the CSV
readers."""

import math
import random
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acpshield import trajectory
from acpshield.acp import AcpEstimator, nonconformity, region_radius
from acpshield.errors import (
    AgentMismatch,
    AllActionsShielded,
    ImpossibleObservation,
    InvalidModel,
    NonMonotoneFrames,
    ParseError,
    ParticleDeprivation,
)
from acpshield.gridworld import GridSpec, build_gridworld, cell_positions
from acpshield.planner import Planner, PlannerConfig, PlanStats, fallback_action
from acpshield.pomdp import BeliefState, PomdpModel, belief_update, resample_particles
from acpshield.shield import (
    MARGIN_BLOCK,
    Bsts,
    Shield,
    compute_winning_regions,
    constraint_values,
    unsafe_sets,
    verify_winning_regions,
)
from acpshield.trajectory import (
    JointAgentState,
    PredictionSet,
    predict_constant,
)

import oracles
from conftest import make_random_pomdp
from test_acp import run_estimator_stream
from test_shield import decide, make_shield, manual_unsafe, random_support

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
                for o in range(oracles.n_observations(model)):
                    try:
                        posteriors[o] = oracles.belief_support(belief_update(model, belief, a, o))
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
    shield = make_shield(model, random_support(model, rng), horizon,
                         manual_unsafe(horizon, by_level))
    for q in range(horizon):
        for sup in shield.bsts.levels[q]:
            acts = shield.table[q][sup]
            for a in acts:
                children = oracles.reachable_supports(model, sup, a).values()
                assert all(child in shield.regions[q + 1] for child in children)
            # an unexpanded leaf holds an unsafe state and certifies nothing
            assert list(acts) == (oracles.shielded_actions_oracle(
                model, sup, q, horizon, by_level) if shield.bsts.expanded(sup, q) else [])


@PROPERTY
@given(seed=seeds, horizon=st.integers(1, 4), deterministic=st.booleans())
def test_bsts_through_safe_supports_equals_the_full_build(seed, horizon, deterministic):
    # the build that leaves unsafe supports unexpanded certifies what the
    # full build's sweep certifies, and prunes nothing more than it must
    rng = np.random.default_rng(seed)
    model = make_random_pomdp(rng, n_states=int(rng.integers(3, 9)),
                              n_actions=int(rng.integers(1, 4)), n_obs=3,
                              deterministic_obs=deterministic)
    root = random_support(model, rng)
    f_sets = manual_unsafe(horizon, {
        tau: rng.choice(model.n_states, size=int(rng.integers(0, model.n_states // 2 + 1)),
                        replace=False).tolist() for tau in range(1, horizon + 1)})
    calls = []
    bsts = Bsts(model, root, horizon, unsafe=lambda q, states: calls.append(
        (q, states.tolist())) or decide(f_sets)(q, states))
    regions, table = compute_winning_regions(bsts)
    levels, groups = oracles.full_bsts(model, root, horizon)
    want_regions, want_table = oracles.full_winning_regions(levels, groups, f_sets)

    # the nodes are the supports reachable through supports safe at their
    # level; each nonempty level's states are decided once, in level order
    kept = {0: {root}}
    for q in range(1, horizon + 1):
        kept[q] = {child for sup in kept[q - 1]
                   if q == 1 or f_sets[q - 1].isdisjoint(sup)
                   for by_obs in groups[sup] for child in by_obs.values()}
    assert bsts.levels == kept
    assert calls == [(q, sorted(set().union(*kept[q]))) for q in range(1, horizon + 1)
                     if kept[q]]
    for q in range(1, horizon + 1):
        assert bsts.safe[q] == {sup for sup in kept[q] if f_sets[q].isdisjoint(sup)}
    assert table[0][bsts.root] == want_table[0][bsts.root]
    for q in range(horizon):
        for sup in kept[q]:
            expanded = q == 0 or f_sets[q].isdisjoint(sup)
            assert bsts.expanded(sup, q) == expanded
            assert table[q][sup] == (want_table[q][sup] if expanded else ())
    for tau in range(1, horizon + 1):
        assert regions[tau] == want_regions[tau] & kept[tau]
    assert verify_winning_regions(Shield(bsts, regions, table), f_sets) == []
    assert verify_winning_regions(Shield(bsts, regions, table), bsts.f_sets) == []


@PROPERTY
@given(window=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30),
       lams=st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)))
def test_acp_radius_monotone_in_lambda(window, lams):
    low, high = sorted(lams)
    assert region_radius(window, low) >= region_radius(window, high)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, length=st.integers(2, 150), step=st.floats(0.01, 2.0),
       alpha=st.floats(0.0001, 0.2), delta=st.floats(0.01, 0.5),
       window=st.integers(1, 40))
def test_acp_estimator_matches_scalar_replay(seed, length, step, alpha, delta, window):
    walk = np.cumsum(np.random.default_rng(seed).normal(0.0, step, size=(length, 2)), axis=0)
    points = [tuple(p) for p in walk]
    est, radii_seen, _ = run_estimator_stream(points, alpha=alpha, delta=delta,
                                           window_size=window)
    radii, lam = oracles.acp_replay([], points[:-1], points[1:], alpha=alpha,
                                    delta=delta, window_size=window, lam0=delta)
    # math.dist against numpy's norm: last-ulp drift; infinities match exactly
    assert [r[0] for r in radii_seen[1:]] == pytest.approx(radii, rel=1e-12)
    assert est.lam[1] == pytest.approx(lam, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, horizon=st.integers(1, 3), length=st.integers(1, 80),
       p_empty=st.floats(0.0, 0.5), window=st.integers(1, 10),
       alpha=st.floats(0.001, 0.2))
def test_acp_counts_equal_the_reported_flags(seed, horizon, length, p_empty, window,
                                             alpha):
    # agent 0 is in every nonempty frame, so two nonempty states share an
    # agent; agents 1-5 enter and leave at random
    rng = np.random.default_rng(seed)
    est = AcpEstimator(horizon, alpha=alpha, window_size=window)
    flags = {tau: [] for tau in range(1, horizon + 1)}
    for t in range(length):
        if rng.random() < p_empty:
            actual = JointAgentState.empty(t)
        else:
            others = rng.choice(np.arange(1, 6), size=int(rng.integers(0, 6)), replace=False)
            ids = (0, *sorted(others.tolist()))
            actual = JointAgentState(ids, rng.normal(0.0, 1.0, size=(len(ids), 2)), t)
        est.step(actual, predict_constant([actual], horizon))
        for tau, (beta, _, violated) in enumerate(est.last, start=1):
            assert math.isnan(beta) == (violated is None)
            if violated is not None:
                flags[tau].append(violated)
    for tau, outcomes in flags.items():
        assert est.tested_count(tau) == len(outcomes)
        assert est.coverage(tau) == (1.0 - sum(outcomes) / len(outcomes) if outcomes else None)
    pooled = [v for outcomes in flags.values() for v in outcomes]
    assert est.tested_count() == len(pooled)
    assert est.coverage() == (1.0 - sum(pooled) / len(pooled) if pooled else None)


@PROPERTY
@given(seed=seeds, n_states=st.integers(0, 120), n_agents=st.integers(0, 300),
       n_nan=st.integers(0, 5), n_dup=st.integers(0, 5),
       epsilon=st.floats(0.0, 3.0), scale=st.sampled_from([1.0, 40.0, 1e6]))
# more agents than one block holds: one state per block
@example(seed=1, n_states=7, n_agents=MARGIN_BLOCK + 5, n_nan=1, n_dup=3, epsilon=0.5,
         scale=40.0)
# 1,000 states in blocks of MARGIN_BLOCK // 200 rows, the last one short
@example(seed=2, n_states=1000, n_agents=200, n_nan=5, n_dup=0, epsilon=1.0, scale=1.0)
@example(seed=3, n_states=0, n_agents=50, n_nan=0, n_dup=0, epsilon=0.5, scale=1.0)
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


def agents_with_edge_cases(rng, n_agents, n_dup, scale):
    """Integer agent positions up to ``scale``, ``n_dup`` of them repeated."""
    agents = np.round(rng.uniform(-scale, scale, size=(n_agents, 2)))
    if n_agents:
        agents = np.concatenate([agents, agents[rng.integers(0, n_agents, size=n_dup)]])
    return agents


@PROPERTY
@given(seed=seeds, n_states=st.integers(0, 80), counts=st.lists(st.integers(0, 40),
       min_size=1, max_size=3), n_nan=st.integers(0, 5), n_dup=st.integers(0, 5),
       epsilon=st.sampled_from([0.0, 2.0, 0.3]),
       radius_pool=st.lists(st.sampled_from([0.0, 3.0, 5.0, 6.0, 8.0, 0.7, math.inf]),
                            min_size=3, max_size=3),
       scale=st.sampled_from([1.0, 40.0, 1e6]),
       block=st.sampled_from([1, 7, 64, MARGIN_BLOCK]))
# 400 states take 40 agents a block, and 203 and 303 agents end on a short one
@example(seed=4, n_states=400, counts=[200, 300], n_nan=2, n_dup=3, epsilon=0.3,
         radius_pool=[3.0, 0.7, 8.0], scale=40.0, block=MARGIN_BLOCK)
def test_unsafe_sets_equal_margin_oracle(seed, n_states, counts, n_nan, n_dup, epsilon,
                                         radius_pool, scale, block):
    # a state is unsafe at tau exactly when its broadcast margin to the
    # lookahead-tau agents is below radius(tau); a small block size makes
    # the blocks ragged
    rng = np.random.default_rng(seed)
    horizon = len(counts)
    positions = rng.uniform(-scale, scale, size=(n_states, 2))
    preds = []
    for tau, n_agents in enumerate(counts, 1):
        agents = agents_with_edge_cases(rng, n_agents, n_dup, scale)
        if n_agents and n_states:
            # states at 3-4-5 offsets: distance 5k, on the boundary when
            # epsilon + radius equals it
            rows = rng.integers(0, n_states, size=min(n_states, 6))
            picks = agents[rng.integers(0, len(agents), size=len(rows))]
            positions[rows] = picks + np.array([3.0, 4.0]) * rng.integers(1, 3, size=(len(rows), 1))
        preds.append(JointAgentState(tuple(range(len(agents))), agents, tau))
    if n_states:
        positions[rng.integers(0, n_states, size=n_nan)] = np.nan
    radii = tuple(radius_pool[:horizon])
    with mock.patch("acpshield.shield.MARGIN_BLOCK", block):
        f_sets = unsafe_sets(positions, PredictionSet(0, horizon, tuple(preds)), radii,
                             epsilon)
    assert list(f_sets) == list(range(1, horizon + 1))
    for tau in range(1, horizon + 1):
        margins = oracles.constraint_values_oracle(positions, preds[tau - 1].positions,
                                                   epsilon)
        assert f_sets[tau] == frozenset(np.flatnonzero(margins < radii[tau - 1]).tolist())


@PROPERTY
@given(seed=seeds, horizon=st.integers(1, 3), deterministic=st.booleans(),
       n_nan=st.integers(0, 2), epsilon=st.sampled_from([0.0, 0.5, 1.0]),
       radius_pool=st.lists(st.sampled_from([0.0, 0.5, 1.5, math.inf]),
                            min_size=3, max_size=3))
def test_unsafe_sets_within_bsts_states_give_the_full_grid_shield(
        seed, horizon, deterministic, n_nan, epsilon, radius_pool):
    # F_tau decided on a subset U equals the full-grid F_tau within U; on
    # the BSTS's states of levels 1..H, the winning regions, the table and
    # the verifier cannot tell the restricted map from the full one
    rng = np.random.default_rng(seed)
    model = make_random_pomdp(rng, n_states=int(rng.integers(4, 9)),
                              n_actions=int(rng.integers(1, 4)), n_obs=3,
                              deterministic_obs=deterministic)
    positions = rng.uniform(0.0, 4.0, size=(model.n_states, 2))
    positions[rng.integers(0, model.n_states, size=n_nan)] = np.nan
    preds = tuple(JointAgentState(tuple(range(k)), rng.uniform(0.0, 4.0, size=(k, 2)), tau)
                  for tau, k in enumerate(rng.integers(0, 5, size=horizon), 1))
    args = (positions, PredictionSet(0, horizon, preds), tuple(radius_pool[:horizon]),
            epsilon)
    full = unsafe_sets(*args)
    subset = np.flatnonzero(rng.random(model.n_states) < 0.5)
    taus = [tau for tau in range(1, horizon + 1) if rng.random() < 0.7]
    assert unsafe_sets(*args, within=dict.fromkeys(taus, subset)) == {
        tau: full[tau] & frozenset(subset.tolist()) for tau in taus}

    # each level decided on its own states gives the BSTS, regions and table
    # of the full-grid sets, and the verifier tells neither apart
    root = random_support(model, rng)
    bsts = Bsts(model, root, horizon,
                unsafe=lambda q, states: unsafe_sets(*args, within={q: states})[q])
    on_grid = Bsts(model, root, horizon, unsafe=lambda q, states: full[q])
    assert (bsts.levels, bsts.safe) == (on_grid.levels, on_grid.safe)
    expected = compute_winning_regions(on_grid)
    assert compute_winning_regions(bsts) == expected
    # an overclaiming certificate: every node wins with every action
    claim = Shield(bsts,
                   {tau: frozenset(bsts.levels[tau]) for tau in range(1, horizon + 1)},
                   {q: dict.fromkeys(bsts.levels[q], tuple(range(model.n_actions)))
                    for q in range(horizon)})
    for certificate in (Shield(bsts, *expected), claim):
        assert (verify_winning_regions(certificate, bsts.f_sets)
                == verify_winning_regions(certificate, full))


GRIDS = [GridSpec(width=w, height=h, start_cells={(0, 0): 1.0}, goal_cell=(w - 1, h - 1))
         for w, h in ((4, 3), (6, 6))]


@PROPERTY
@given(seed=seeds, grid=st.sampled_from(GRIDS), n_agents=st.integers(0, 6),
       n_support=st.integers(1, 4), radius=st.sampled_from([0.0, 0.5, 1.5, 3.0, math.inf]),
       epsilon=st.sampled_from([0.0, 0.5, 1.0]))
def test_fallback_action_equals_full_grid_oracle(seed, grid, n_agents, n_support, radius,
                                                 epsilon):
    rng = np.random.default_rng(seed)
    model = build_gridworld(grid)
    positions = cell_positions(grid)
    bounds = np.array([grid.width, grid.height], dtype=float)
    preds = tuple(JointAgentState(tuple(range(n_agents)),
                                  rng.uniform(0.0, bounds, size=(n_agents, 2)), tau)
                  for tau in (1, 2))
    prediction = PredictionSet(0, 2, preds)
    support = frozenset(rng.choice(model.n_states, size=n_support, replace=False).tolist())
    margins = oracles.constraint_values_oracle(positions, preds[0].positions, epsilon)
    want = oracles.fallback_oracle(model, support, margins, radius)
    args = (positions, prediction, (radius, radius), epsilon)
    assert fallback_action(model, support, unsafe_sets(*args)[1]) == want
    # F_1 decided on the support's successors alone, as the BSTS's level 1
    successors = sorted({s2 for s in support for a in range(model.n_actions)
                         for s2 in model.successors(s, a)})
    within = {1: np.array(successors)}
    assert fallback_action(model, support, unsafe_sets(*args, within=within)[1]) == want


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
@given(seed=seeds, pool=st.integers(1, 60), mixed=st.booleans(),
       overlap=st.floats(0.0, 1.0), same=st.booleans())
@example(seed=0, pool=1, mixed=False, overlap=0.0, same=False)     # disjoint
def test_shared_rows_equals_dict_oracle(seed, pool, mixed, overlap, same):
    rng = np.random.default_rng(seed)
    ids = list(range(pool)) + ([str(i) for i in range(pool)] if mixed else [])
    mine_ids = [aid for aid in ids if rng.random() < 0.7]
    shared = [aid for aid in mine_ids if rng.random() < overlap]
    only_theirs = [aid for aid in ids if aid not in mine_ids and rng.random() < 0.5]
    mine = random_joint(rng, mine_ids)
    theirs = (JointAgentState(mine.ids, mine.positions + 1.0, 1) if same
              else random_joint(rng, shared + only_theirs))
    rows = mine.shared_rows(theirs)
    expected = oracles.shared_rows_oracle(mine, theirs)
    assert [r.tolist() for r in rows] == list(expected)
    assert all(r.dtype == np.intp for r in rows)
    if expected[0]:
        diffs = mine.positions[expected[0]] - theirs.positions[expected[1]]
        assert nonconformity(mine, theirs) == float(np.linalg.norm(diffs.ravel()))


@PROPERTY
@given(seed=seeds, n_post=st.integers(1, 60), count=st.integers(1, 3000),
       spread=st.floats(0.0, 6.0), others=st.booleans())
@example(seed=1, n_post=60, count=3000, spread=6.0, others=True)
@example(seed=2, n_post=1, count=1, spread=0.0, others=False)
def test_resample_particles_equals_choices(seed, n_post, count, spread, others):
    # state 0 moves to 1..n_post with lognormal weights, the rest back to 0;
    # each state emits o0 with its own probability, which skews the posterior
    rng = np.random.default_rng(seed)
    n = n_post + 1
    t = np.zeros((n, 1, n))
    weights = rng.lognormal(0.0, spread, size=n_post)
    t[0, 0, 1:] = weights / weights.sum()
    t[1:, 0, 0] = 1.0
    z = np.zeros((n, 1, 2))
    z[:, 0, 0] = rng.uniform(0.05, 1.0, size=n)
    z[:, 0, 1] = 1.0 - z[:, 0, 0]
    model = oracles.model_from_tables(t, np.zeros((n, 1)), z)
    particles = [0] * int(rng.integers(1, 50))
    if others:
        particles += rng.integers(1, n, size=int(rng.integers(1, 50))).tolist()
    rng.shuffle(particles)
    prng, expected_rng = random.Random(seed), random.Random(seed)
    out = resample_particles(model, particles, 0, 0, count, prng)
    assert out == oracles.resample_choices_oracle(model, particles, 0, 0, count, expected_rng)
    assert prng.getstate() == expected_rng.getstate()


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


@PROPERTY
@given(seed=seeds, count=st.integers(1, 40), deterministic=st.booleans())
def test_resample_particles_posterior_support_and_draw_count(seed, count, deterministic):
    rng = np.random.default_rng(seed)
    model = make_random_pomdp(rng, n_states=int(rng.integers(3, 7)),
                              n_actions=int(rng.integers(1, 3)), n_obs=3,
                              deterministic_obs=deterministic)
    particles = rng.integers(0, model.n_states, size=int(rng.integers(0, 12))).tolist()
    action, obs = int(rng.integers(model.n_actions)), int(rng.integers(3))
    try:
        oracles.resample_rejection_oracle(model, particles, action, obs, count,
                                          random.Random(seed))
        deprived = False
    except ParticleDeprivation:
        deprived = True
    prng = random.Random(seed)
    if deprived:
        with pytest.raises(ParticleDeprivation):
            resample_particles(model, particles, action, obs, count, prng)
        return
    out = resample_particles(model, particles, action, obs, count, prng)
    belief = BeliefState({s: particles.count(s) / len(particles) for s in set(particles)})
    assert len(out) == count
    assert set(out) <= oracles.belief_support(belief_update(model, belief, action, obs))
    expected = random.Random(seed)
    for _ in range(count):
        expected.random()
    assert prng.getstate() == expected.getstate()


@PROPERTY
@given(seed=seeds, deterministic=st.booleans(), horizon=st.integers(1, 3))
def test_bsts_with_shared_expansions_equals_fresh(seed, deterministic, horizon):
    rng = np.random.default_rng(seed)
    model = make_random_pomdp(rng, n_states=int(rng.integers(3, 8)),
                              n_actions=int(rng.integers(1, 4)), n_obs=3,
                              deterministic_obs=deterministic)
    expansions = {}
    roots = [random_support(model, rng)]
    for _ in range(5):
        # as in an episode: the next root is often a child of an earlier one
        if rng.random() < 0.3:
            roots.append(random_support(model, rng))
        else:
            children = sorted(Bsts(model, roots[int(rng.integers(len(roots)))], 1).levels[1],
                              key=sorted)
            roots.append(children[int(rng.integers(len(children)))])
    for root in roots:
        unsafe = manual_unsafe(horizon, {
            tau: rng.choice(model.n_states, size=int(rng.integers(0, 3)),
                            replace=False).tolist() for tau in range(1, horizon + 1)})
        shared = Bsts(model, root, horizon, expansions, decide(unsafe))
        fresh = Bsts(model, root, horizon, unsafe=decide(unsafe))
        assert (shared.levels, shared.safe) == (fresh.levels, fresh.safe)
        assert shared.node_count() == fresh.node_count()
        for q in range(horizon):
            for sup in fresh.levels[q]:
                if fresh.expanded(sup, q):
                    for a in range(model.n_actions):
                        assert shared.post_by_obs(sup, q, a) == fresh.post_by_obs(sup, q, a)
        # the shield built on the shared map equals the fresh one's, and the
        # verifier, reading the shared map through post_by_obs, accepts it
        winning = compute_winning_regions(shared)
        assert winning == compute_winning_regions(fresh)
        assert verify_winning_regions(Shield(shared, *winning), unsafe) == []


@PROPERTY
@given(seed=seeds, deterministic=st.booleans(), horizon=st.integers(1, 3),
       grid=st.sampled_from([None, *GRIDS]))
def test_bsts_states_are_the_sorted_states_of_levels_1_to_h(seed, deterministic, horizon,
                                                            grid):
    # states[q] is what the decision of level q sees: the sorted states its
    # supports hold. On a grid the root is the goal cell, whose every
    # successor is the unlocated terminal state: it is held like any other
    rng = np.random.default_rng(seed)
    if grid is None:
        model = make_random_pomdp(rng, n_states=int(rng.integers(3, 8)),
                                  n_actions=int(rng.integers(1, 4)), n_obs=3,
                                  deterministic_obs=deterministic)
        root = random_support(model, rng)
    else:
        model = build_gridworld(grid)
        root = {grid.state_index(*grid.goal_cell)}
    f_sets = manual_unsafe(horizon, {tau: rng.choice(model.n_states, size=2).tolist()
                                     for tau in range(1, horizon + 1)})
    seen = {}

    def unsafe(q, states):
        seen[q] = states
        return f_sets[q]

    bsts = Bsts(model, root, horizon, {}, unsafe)
    for q in range(1, horizon + 1):
        union = set().union(*bsts.levels[q])
        assert bsts.states[q].dtype == np.intp
        assert bsts.states[q].tolist() == sorted(union)
        if union:
            assert seen[q] is bsts.states[q]
        else:
            assert q not in seen
    if grid is not None:
        assert grid.terminal_state in bsts.states[1]


TINY = (5e-324, 1e-300, 1e-17, 1e-16)


def tiny_row(rng, n_targets):
    """Random probability row where some entries are small enough that the
    cumulative sum repeats a value (or stays at 0.0)."""
    k = int(rng.integers(1, min(n_targets, 5) + 1))
    targets = rng.choice(n_targets, size=k, replace=False)
    p = rng.dirichlet(np.ones(k))
    tiny = rng.random(k) < 0.5
    tiny[int(rng.integers(k))] = False
    p[~tiny] /= p[~tiny].sum()
    p[tiny] = rng.choice(TINY, size=int(tiny.sum()))
    return [(int(i), float(q)) for i, q in zip(targets, p)]


def tiny_model(rng):
    n_s, n_a, n_o = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
    t_rows = {(s, a): tiny_row(rng, n_s) for s in range(n_s) for a in range(n_a)}
    z_rows = {(s, a): tiny_row(rng, n_o) for s in range(n_s) for a in range(n_a)}
    rewards = {(s, a): float(rng.normal()) for s in range(n_s) for a in range(n_a)}
    return PomdpModel(range(n_s), range(n_a), range(n_o), t_rows, z_rows, rewards)


class ScriptedDraws:
    """Stands in for ``random.Random``: ``random()`` returns scripted values."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def boundary_draws(rows, rng, n):
    """Draws on, just below and just above cumulative values, 0.0, and random."""
    cums = sorted({c for _, cum in rows for c in cum})
    pool = [0.0] + [x for c in cums for x in (c, math.nextafter(c, 0.0),
                                             math.nextafter(c, 1.0)) if x < 1.0]
    return [pool[int(rng.integers(len(pool)))] if rng.random() < 0.7 else float(rng.random())
            for _ in range(n)]


@PROPERTY
@given(seed=seeds)
def test_generative_step_matches_linear_scan_oracle(seed):
    rng = np.random.default_rng(seed)
    model = tiny_model(rng)
    pairs = [(int(rng.integers(model.n_states)), int(rng.integers(model.n_actions)))
             for _ in range(40)]
    ours, theirs = random.Random(seed), random.Random(seed)
    for s, a in pairs:
        assert model.generative_step(s, a, ours) == oracles.generative_step_oracle(
            model, s, a, theirs)
    assert ours.getstate() == theirs.getstate()
    # draws placed exactly on repeated cumulative values and their neighbours
    rows = [row for per_s in model.rows for succ, cum, _, obs_rows in per_s
            for row in ((succ, cum), *obs_rows)]
    draws = boundary_draws(rows, rng, 2 * len(pairs))
    ours, theirs = ScriptedDraws(draws), ScriptedDraws(draws)
    for s, a in pairs:
        assert model.generative_step(s, a, ours) == oracles.generative_step_oracle(
            model, s, a, theirs)
    assert ours.draws == theirs.draws == []


@PROPERTY
@given(seed=seeds, horizon=st.integers(1, 3), shielded=st.booleans(),
       table=st.booleans(), depth=st.integers(0, 3))
def test_rollout_matches_oracle_on_random_models(seed, horizon, shielded, table, depth):
    rng = np.random.default_rng(seed)
    model = make_random_pomdp(rng, n_states=int(rng.integers(3, 8)),
                              n_actions=int(rng.integers(1, 4)), n_obs=3,
                              deterministic_obs=bool(rng.integers(2)))
    support = random_support(model, rng)
    shield = None
    if shielded:
        by_level = {tau: frozenset(rng.choice(model.n_states, size=int(rng.integers(0, 3)),
                                              replace=False).tolist())
                    for tau in range(1, horizon + 1)}
        shield = make_shield(model, support, horizon, manual_unsafe(horizon, by_level))
        depth = min(depth, horizon)
        if depth < horizon:                  # start from a BSTS node of that level
            level = sorted(shield.bsts.levels[depth], key=sorted)
            support = level[int(rng.integers(len(level)))]
    actions = (tuple(rng.integers(model.n_actions, size=model.n_states).tolist())
               if table else None)
    policy = None if actions is None else (lambda state, _rng: actions[state])
    cfg = PlannerConfig(max_depth=int(rng.integers(1, 9)), seed=seed)
    planner = Planner(model, cfg, actions)
    theirs = random.Random(seed + 1)
    planner.rng.setstate(theirs.getstate())
    for _ in range(20):
        # the start state may lie outside the support, so a successor can be None
        state = int(rng.integers(model.n_states))
        got = planner.rollout(state, depth, support if shielded else None, shield)
        want = oracles.rollout_oracle(model, state, depth, support if shielded else None,
                                      shield, theirs, cfg.max_depth, planner.discount,
                                      policy)
        assert got == want
    assert planner.rng.getstate() == theirs.getstate()


@PROPERTY
@given(seed=seeds, horizon=st.integers(1, 3), deterministic=st.booleans(),
       extra_depth=st.integers(0, 3))
def test_planner_tree_reads_shield_table_without_dead_ends(seed, horizon, deterministic,
                                                           extra_depth):
    # every node plan creates below the horizon keeps the table's entry for
    # its support, and that entry is nonempty: the planner needs no
    # dead-end handling
    rng = np.random.default_rng(seed)
    model = make_random_pomdp(rng, n_states=int(rng.integers(3, 8)),
                              n_actions=int(rng.integers(1, 4)), n_obs=3,
                              deterministic_obs=deterministic)
    support = random_support(model, rng)
    by_level = {tau: frozenset(rng.choice(model.n_states, size=int(rng.integers(0, 3)),
                                          replace=False).tolist())
                for tau in range(1, horizon + 1)}
    shield = make_shield(model, support, horizon, manual_unsafe(horizon, by_level))
    planner = Planner(model, PlannerConfig(
        num_simulations=100, max_depth=horizon + extra_depth, ucb_constant=2.0, seed=seed))
    root = planner.make_root(sorted(support) * 4)
    try:
        planner.plan(root, shield)
    except AllActionsShielded:
        assert shield.allowed(support, 0) == () and root.edges is None
        return
    every_action = tuple(range(model.n_actions))

    def walk(node):
        if node.depth < horizon:
            assert node.support is not None
            assert node.allowed == shield.allowed(node.support, node.depth) != ()
        else:
            assert node.support is None and node.allowed == every_action
        for edge in node.edges or ():
            if edge is not None:
                for child in edge.children.values():
                    walk(child)

    walk(root)


def same_tree(node, theirs, n_actions):
    """Equal visits, supports and actions everywhere; our missing edges are
    the oracle's unvisited ones."""
    assert (node.depth, node.visits, node.support, node.allowed) == (
        theirs.depth, theirs.visits, theirs.support, theirs.allowed)
    assert (node.edges is None) == (theirs.edges is None)
    for a in range(n_actions) if node.edges is not None else ():
        edge, want = node.edges[a], theirs.edges[a]
        if edge is None:
            assert want.visits == 0 and not want.children
            continue
        assert (edge.visits, edge.value) == (want.visits, want.value)
        assert edge.children.keys() == want.children.keys()
        for obs, child in edge.children.items():
            same_tree(child, want.children[obs], n_actions)


@PROPERTY
@given(seed=seeds, horizon=st.integers(1, 3), extra_depth=st.integers(0, 3),
       deterministic=st.booleans(), absorbing=st.integers(0, 2), shielded=st.booleans(),
       table=st.booleans(), ucb=st.sampled_from((0.0, 2.0, 500.0)))
def test_planner_matches_recursive_oracle(seed, horizon, extra_depth, deterministic,
                                          absorbing, shielded, table, ucb):
    # the flat search loop with lazy edges plans exactly like the recursive
    # search: same action, stats, tree and random-number stream
    rng = np.random.default_rng(seed)
    n_states = int(rng.integers(3, 8))
    model = make_random_pomdp(rng, n_states=n_states, n_actions=int(rng.integers(1, 4)),
                              n_obs=3, deterministic_obs=deterministic,
                              absorbing=min(absorbing, n_states - 1))
    support = random_support(model, rng)
    particles = [s for s in sorted(support) for _ in range(int(rng.integers(1, 4)))]
    shield = None
    if shielded:
        by_level = {tau: frozenset(rng.choice(model.n_states, size=int(rng.integers(0, 3)),
                                              replace=False).tolist())
                    for tau in range(1, horizon + 1)}
        shield = make_shield(model, support, horizon, manual_unsafe(horizon, by_level))
    actions = (tuple(rng.integers(model.n_actions, size=model.n_states).tolist())
               if table else None)
    cfg = PlannerConfig(num_simulations=int(rng.integers(1, 80)),
                        max_depth=horizon + extra_depth, ucb_constant=ucb, seed=seed)
    planner = Planner(model, cfg, actions)
    root = planner.make_root(particles)
    try:
        chosen = planner.plan(root, shield)
    except AllActionsShielded:
        chosen = None
    oracle = oracles.PlannerOracle(model, random.Random(seed), cfg.num_simulations,
                                   cfg.max_depth, ucb, actions)
    want_root, want, sims = oracle.plan(particles, shield)
    assert chosen == want
    assert planner.last_stats == PlanStats(
        simulations=sims, nodes=oracle.nodes, chosen=want, root_allowed=want_root.allowed,
        root_pruned=tuple(a for a in range(model.n_actions) if a not in want_root.allowed))
    same_tree(root, want_root, model.n_actions)
    assert planner.rng.getstate() == oracle.rng.getstate()


@PROPERTY
@given(kind=st.sampled_from(trajectory.SYNTH_KINDS), seed=seeds, n_agents=st.integers(0, 12),
       length=st.integers(1, 300), noise=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
       speed=st.floats(0.0, 30.0),              # up to the box size: a wall on the first move
       corner=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
       size=st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 30.0)))
@example(kind="constant-velocity-with-noise", seed=0, n_agents=1, length=2, noise=1.0,
         speed=0.0, corner=(0.0, -0.0), size=(0.0, 0.0))      # a -0.0 to 0.0 box
@example(kind="random-walk", seed=0, n_agents=1, length=3, noise=0.0, speed=0.0,
         corner=(-0.0, -0.0), size=(-0.0, -0.0))   # the free path's 0.0 ties a -0.0 wall
def test_synth_trajectories_equal_per_step_oracle(kind, seed, n_agents, length, noise, speed,
                                                  corner, size):
    bounds = (corner[0], corner[0] + size[0], corner[1], corner[1] + size[1])
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    source = trajectory.synth_trajectories(kind, n_agents, length, rng, bounds, speed, noise)
    want = oracles.synth_oracle(kind, n_agents, length, oracle_rng, bounds, speed, noise)
    got = np.stack([source.agents_at(t).positions for t in range(length)]) if n_agents \
        else np.empty((length, 0, 2))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()            # bit for bit, signed zeros too
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@st.composite
def agent_history(draw):
    """1-8 consecutive joint states of 0-5 agents each, drawn from 8 int and
    2 string ids, so agents enter and leave between states."""
    start = draw(st.integers(0, 1000))
    coord = st.floats(-50.0, 50.0)
    history = []
    for t in range(start, start + draw(st.integers(1, 8))):
        ids = draw(st.lists(st.sampled_from([*range(8), "a", "b"]), max_size=5, unique=True))
        ids.sort(key=lambda aid: (isinstance(aid, str), aid))
        points = draw(st.lists(st.tuples(coord, coord), min_size=len(ids), max_size=len(ids)))
        positions = np.array(points, dtype=float).reshape(-1, 2)
        history.append(JointAgentState(tuple(ids), positions, t))
    return history


@PROPERTY
@given(history=agent_history(), horizon=st.integers(1, 5))
def test_model_predictors_equal_reference_oracles(history, horizon):
    pairs = [(trajectory.predict_constant, oracles.predict_constant_oracle)]
    if len(history) >= 2:
        pairs += [(trajectory.predict_constant_velocity, oracles.predict_constant_velocity_oracle),
                  (trajectory.predict_linear_fit, oracles.predict_linear_fit_oracle)]
    for predict, oracle in pairs:
        got, want = predict(history, horizon), oracle(history, horizon)
        assert (got.made_at, got.horizon) == (want.made_at, want.horizon)
        assert len(got.predicted) == len(want.predicted) == horizon
        for g, w in zip(got.predicted, want.predicted):
            assert g.ids == w.ids and list(map(type, g.ids)) == list(map(type, w.ids))
            assert g.timestep == w.timestep
            assert g.positions.shape == w.positions.shape
            assert g.positions.tobytes() == w.positions.tobytes()     # signed zeros too
            for positions in (g.positions, w.positions):
                with pytest.raises(ValueError):            # read-only, and stays so
                    positions.flags.writeable = True


@PROPERTY
@given(seed=seeds, n_agents=st.integers(0, 25), mixed=st.booleans())
def test_agents_at_matches_full_scan_oracle(seed, n_agents, mixed):
    rng = np.random.default_rng(seed)
    tracks = {}
    for k in range(n_agents):
        aid = f"p{k}" if mixed and k % 2 else int(rng.integers(0, 1000)) * 1000 + k
        first = int(rng.integers(0, 30))                 # late entry
        last = first + int(rng.integers(0, 15))          # early exit
        times = [t for t in range(first, last + 1) if rng.random() < 0.8]   # gaps
        tracks[aid] = [(t, tuple(rng.uniform(-5.0, 5.0, size=2))) for t in times]
    tracks = {aid: seq for aid, seq in tracks.items() if seq}
    source = oracles.source_from_tracks(tracks)
    if source.span() is None:
        assert not tracks
        return
    lo, hi = source.span()
    for t in range(lo, hi + 1):
        ids, pos = oracles.agents_at_oracle(tracks, t)
        state = source.agents_at(t)
        assert state.ids == ids and state.timestep == t
        assert np.array_equal(state.positions, pos)
    for aid, seq in tracks.items():
        got = oracles.track_of(source, aid)
        assert [t for t, _ in got] == [t for t, _ in seq]
        assert all(np.array_equal(p, want) for (_, p), (_, want) in zip(got, seq))


# mostly finite: a non-finite position makes the whole file a ParseError
position = st.one_of(*[st.floats(-1e6, 1e6)] * 40,
                     st.sampled_from([math.nan, math.inf, -math.inf]))


@PROPERTY
@given(rows=st.lists(st.tuples(st.integers(0, 12), st.one_of(st.integers(0, 9),
                                                              st.sampled_from(["a", "b"])),
                               position, position), max_size=60),
       stride=st.integers(1, 3), scale=st.sampled_from([1.0, 0.5, 3.0]))
def test_load_trajectories_equals_row_oracle(rows, stride, scale):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        path.write_text("".join(f"{f},{aid},{x!r},{y!r}\n" for f, aid, x, y in rows))
        try:
            ids, served = oracles.trajectories_oracle(path, scale, stride)
        except oracles.BadLine as bad:
            line, message = bad.args
            with pytest.raises(ParseError) as exc:
                trajectory.load_trajectories(path, scale=scale, frame_stride=stride)
            assert exc.value.line == line and str(exc.value) == f"line {line}: {message}"
            return
        except oracles.RepeatedRow as repeat:
            aid, frame = repeat.args
            with pytest.raises(NonMonotoneFrames) as exc:
                trajectory.load_trajectories(path, scale=scale, frame_stride=stride)
            assert str(exc.value) == f"agent {aid!r} appears twice in frame {frame}"
            return
        source = trajectory.load_trajectories(path, scale=scale, frame_stride=stride)
    assert oracles.agent_ids(source) == ids
    assert source.span() == ((min(served), max(served)) if served else None)
    for t, (present, positions) in served.items():
        state = source.agents_at(t)
        assert state.ids == present
        assert np.array_equal(state.positions, positions)


frame_tok = st.one_of(st.integers(0, 3).map(str), st.sampled_from(["1.0", "2.9", "-0.4"]))
id_tok = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(["a", "b", "07", " 3", "1.0"]))
xy_tok = st.one_of(st.floats(-1e6, 1e6).map(repr), st.sampled_from(["nan", "-inf", "1_0"]))
bad_tok = st.sampled_from(["x", "", "nan", "t", "1e", "2.5.1"])
data_row = st.tuples(frame_tok, frame_tok, id_tok, xy_tok, xy_tok).map(list)
bad_row = st.one_of(
    st.tuples(st.integers(0, 4), bad_tok, data_row).map(lambda b: b[2][:b[0]] + [b[1]]
                                                         + b[2][b[0] + 1:]),
    st.lists(xy_tok, max_size=7))                           # any column count
separator = st.sampled_from([",", ", ", " ,", " ", "\t"])
row_line = st.tuples(st.one_of(*[data_row] * 14, bad_row), separator).map(
    lambda r: r[1].join(r[0]))
other_line = st.sampled_from(["", "   ", "# a comment, with, four, commas, here",
                              "t,tau,agent_id,x,y"])
file_lines = st.lists(st.one_of(*[row_line] * 6, other_line), max_size=30)


@PROPERTY
@given(lines=file_lines, scale=st.sampled_from([1.0, 0.5, 3.0]))
def test_load_predictions_equals_dict_oracle(lines, scale):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "preds.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            want = oracles.replay_oracle(path, scale)
        except oracles.BadLine as bad:
            line, message = bad.args
            with pytest.raises(ParseError) as exc:
                trajectory.load_predictions(path, scale)
            assert exc.value.line == line and str(exc.value) == f"line {line}: {message}"
            return
        got = trajectory.load_predictions(path, scale)
    assert got.keys() == want.keys()
    for key, (ids, positions) in want.items():
        assert got[key][0] == ids
        assert np.array_equal(got[key][1], positions.reshape(-1, 2), equal_nan=True)


def load_outcome(load, path):
    """What a loader gives for ``path``: ("ok", value) or the error it raised."""
    try:
        return "ok", load(path)
    except (ParseError, NonMonotoneFrames) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def same_frames(got, want):
    """Whether two {key: (ids, (n, 2) positions)} maps are equal, key order,
    id types and position bits included."""
    return (list(got) == list(want) and all(
        got[k][0] == want[k][0] and list(map(type, got[k][0])) == list(map(type, want[k][0]))
        and got[k][1].shape == want[k][1].shape
        and got[k][1].tobytes() == want[k][1].tobytes() for k in want))


# Tokens on which numpy's C pass and the Python row reader may disagree: each
# must either give the same value in both or make the C pass reject the file.
odd_tok = st.sampled_from([
    "1.0", "1e3", " 3", "+5", "07", "-0", "0x10", "12345678901234567890", "1_0", "nan",
    "-inf", "Infinity", "nan(1)", "1e400", "٣", "١٠", "9223372036854775807",
    "-9223372036854775809", "", " ", "a", "1 0", "2.9", "-0.4", "1e19"])
usual_tok = {"frame": st.integers(0, 3).map(str), "id": st.integers(-2, 9).map(str),
             "xy": st.floats(-1e6, 1e6).map(repr)}


@st.composite
def numeric_file(draw, n_frames):
    """Text of a frame/id/x/y file with an optional header: comma-separated
    numeric rows and blank lines; in some files odd tokens, and in some
    whitespace-separated rows and whitespace-only lines."""
    odd, messy = draw(st.booleans()), draw(st.booleans())
    tok = {kind: st.one_of(*[usual] * 6, odd_tok) if odd else usual
           for kind, usual in usual_tok.items()}
    fields = st.tuples(*[tok["frame"]] * n_frames, tok["id"], tok["xy"], tok["xy"])
    separator = st.sampled_from([",", ", ", " "] if messy else [",", " , "])
    row = st.tuples(separator, fields).map(lambda r: r[0].join(r[1]))
    other = st.sampled_from(["", "   ", "\t"] if messy else [""])
    lines = draw(st.lists(st.one_of(*[row] * 8, other), max_size=12))
    if draw(st.booleans()):
        lines.insert(0, ",".join(["t"] * n_frames + ["agent_id", "x", "y"]))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@PROPERTY
@given(trajectories=numeric_file(1), predictions=numeric_file(2),
       stride=st.integers(1, 2), scale=st.sampled_from([1.0, 0.5]))
@example(trajectories="", predictions="", stride=1, scale=1.0)
@example(trajectories="frame_id,agent_id,x,y\n", predictions="t,tau,agent_id,x,y",
         stride=1, scale=1.0)
@example(trajectories="0,1,2.0,4.0\n   \n1,1,2.5,4.5\n", predictions="0,1,1.0,4,2.0\n\n",
         stride=1, scale=1.0)
@example(trajectories="0,1,2.0,4.0\n1e19,1,2.5,4.5\n", predictions="0,-inf,1,1.0,2.0\n",
         stride=1, scale=1.0)                        # frames outside int64
def test_c_pass_equals_row_reader(trajectories, predictions, stride, scale):
    def load_trajectories(path):
        return trajectory.load_trajectories(path, scale, stride)._frames

    def load_predictions(path):
        return trajectory.load_predictions(path, scale)

    with tempfile.TemporaryDirectory() as tmp:
        for text, load in ((trajectories, load_trajectories), (predictions, load_predictions)):
            path = Path(tmp) / "table.csv"
            path.write_text(text, encoding="utf-8")
            got = load_outcome(load, path)
            with mock.patch.object(trajectory, "_read_numeric", lambda path, n_frames: None):
                want = load_outcome(load, path)
            if want[0] == "ok":
                assert got[0] == "ok" and same_frames(got[1], want[1])
            else:
                assert got == want


@PROPERTY
@given(width=st.integers(1, 9), height=st.integers(1, 9),
       near=st.sampled_from([0.0, 0.1, 0.5, 1.0]), noise=st.sampled_from([0.0, 0.1, 0.999]),
       goal=st.tuples(st.integers(0, 8), st.integers(0, 8)))
@example(width=1, height=1, near=0.1, noise=0.1, goal=(0, 0))
def test_grid_model_equals_reference(width, height, near, noise, goal):
    spec = GridSpec(width=width, height=height, start_cells={(0, 0): 1.0},
                    goal_cell=(goal[0] % width, goal[1] % height),
                    near_prob=near, far_prob=1.0 - near, obs_noise=noise)
    rows = oracles.reference_gridworld_rows(spec)
    want = oracles.reference_model_tables(spec.n_cells + 1, 4, *rows)
    n_obs = ((width + 1) // 2) * ((height + 1) // 2) + 1
    for model in (build_gridworld(spec),
                  PomdpModel(range(spec.n_cells + 1), range(4), range(n_obs), *rows)):
        assert (model.rows, model._z, model.obs_support, model.absorbing_zero) == want
        stored = [row for per_state in model._z for row in per_state]
        assert len({id(row) for row in stored}) == len(set(stored))     # equal rows shared


corruption = st.sampled_from(["missing", "empty", "scaled", "negative", "nan", "zero"])


@PROPERTY
@given(seed=seeds, shared=st.booleans(),
       bad=st.lists(st.tuples(st.sampled_from("TZR"), st.integers(0, 10 ** 6), corruption),
                    max_size=3))
def test_model_rows_equal_reference_on_random_models(seed, shared, bad):
    rng = np.random.default_rng(seed)
    n_s, n_a = int(rng.integers(1, 8)), int(rng.integers(1, 4))
    T, Z, R = oracles.dense_tables(make_random_pomdp(
        rng, n_states=n_s, n_actions=n_a, n_obs=int(rng.integers(1, 5)), branch=min(3, n_s),
        absorbing=int(rng.integers(0, n_s + 1))))
    keys = [(s, a) for s in range(n_s) for a in range(n_a)]
    t_rows = {key: [(s2, float(T[key][s2])) for s2 in np.flatnonzero(T[key]).tolist()]
              for key in keys}
    z_objects = {}            # with ``shared``, one list object per distinct Z row
    z_rows = {key: [(o, float(Z[key][o])) for o in np.flatnonzero(Z[key]).tolist()]
              for key in keys}
    if shared:                # equal T probability vectors, and shared Z-row objects
        t_rows = {key: [(s2, 1.0 / len(row)) for s2, _ in row] for key, row in t_rows.items()}
        z_rows = {key: z_objects.setdefault(tuple(row), row) for key, row in z_rows.items()}
    rewards = {key: float(R[key]) for key in keys if R[key] != 0.0}
    for table, pick, how in bad:
        key = keys[pick % len(keys)]
        if table == "R":
            rewards[key] = math.nan if how == "nan" else math.inf
            continue
        rows = t_rows if table == "T" else z_rows
        if how == "missing" or key not in rows:
            rows.pop(key, None)
            continue
        row = list(rows[key])
        if how == "empty":
            row = []
        elif how == "scaled":
            row = [(i, 1.5 * p) for i, p in row]
        elif how == "zero":
            row = [(i, 0.0) for i, _ in row]
        else:                 # an earlier corruption may have left the row empty
            row[:1] = [(row[0][0] if row else 0, -0.1 if how == "negative" else math.nan)]
        rows[key] = row
    names = range(n_s), range(n_a), range(Z.shape[2])
    try:
        want = oracles.reference_model_tables(n_s, n_a, t_rows, z_rows, rewards)
    except InvalidModel as err:
        with pytest.raises(InvalidModel) as exc:
            PomdpModel(*names, t_rows, z_rows, rewards)
        assert str(exc.value) == str(err)
        return
    model = PomdpModel(*names, t_rows, z_rows, rewards)
    assert (model.rows, model._z, model.obs_support, model.absorbing_zero) == want


frame_value = st.sampled_from([0, 1, 2, 3, 2 ** 53 + 1])
agent_id = st.one_of(st.integers(0, 5), st.sampled_from(["a", "b"]))
coordinate = st.floats(-100.0, 100.0)


def id_order(aid):
    return isinstance(aid, str), aid


@PROPERTY
@given(predictions=st.dictionaries(st.tuples(frame_value, frame_value, agent_id),
                                   st.tuples(coordinate, coordinate), max_size=20),
       log=st.dictionaries(st.tuples(frame_value, agent_id),
                           st.tuples(coordinate, coordinate), max_size=20),
       float_frames=st.booleans(), stride=st.integers(1, 3), data=st.data())
@example(predictions={(0, 1, 0): (1.0, 2.0), (2 ** 53 + 1, 1, 0): (3.0, 4.0)},
         log={(0, 0): (1.0, 2.0), (2 ** 53 + 1, 1): (3.0, 4.0)}, float_frames=True,
         stride=2, data=None)
def test_ordered_shuffled_and_repeated_rows_load_alike(predictions, log, float_frames,
                                                       stride, data):
    """Each version of one table loads as the sorting path and the oracle
    load it: the rows in (frames, id) order, shuffled, and in order with
    repeated rows."""
    def render(rows, n_frames):
        return "".join(",".join([f"{f}.0" if float_frames else str(f) for f in key[:n_frames]]
                                + [str(key[n_frames]), repr(x), repr(y)]) + "\n"
                       for key, (x, y) in rows)

    def versions(table, n_frames):
        ordered = sorted(table.items(), key=lambda kv: (*kv[0][:n_frames], id_order(kv[0][-1])))
        yield ordered
        if data is not None and ordered:
            yield data.draw(st.permutations(ordered))
            # still in order, but not strictly: a repeat right after its row
            again = data.draw(st.sets(st.integers(0, len(ordered) - 1), min_size=1, max_size=3))
            yield [row for i, (key, (x, y)) in enumerate(ordered)
                   for row in [(key, (x, y))] + [(key, (x + 1.0, y))] * (i in again)]

    def loaded(load, path):
        """What ``load`` gives for ``path``, checked equal to what it gives
        when every file takes the sorting path."""
        got = load_outcome(load, path)
        with mock.patch.object(trajectory, "_strictly_ascending", lambda *columns: False):
            sorting = load_outcome(load, path)
        if got[0] == "ok":
            assert sorting[0] == "ok" and same_frames(got[1], sorting[1])
        else:
            assert got == sorting
        return got

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        for rows in versions(predictions, 2):
            path.write_text(render(rows, 2), encoding="utf-8")
            got = loaded(trajectory.load_predictions, path)
            want = oracles.replay_oracle(path)
            assert got[0] == "ok" and list(got[1]) == sorted(want)
            for key, (ids, positions) in want.items():
                assert got[1][key][0] == ids
                assert np.array_equal(got[1][key][1], positions.reshape(-1, 2))
        for rows in versions(log, 1):
            path.write_text(render(rows, 1), encoding="utf-8")
            got = loaded(lambda p: trajectory.load_trajectories(p, frame_stride=stride)._frames,
                         path)
            try:
                _, want = oracles.trajectories_oracle(path, frame_stride=stride)
            except oracles.RepeatedRow as repeat:
                aid, frame = repeat.args
                assert got == ("NonMonotoneFrames",
                               f"agent {aid!r} appears twice in frame {frame}", None)
                continue
            assert got[0] == "ok" and list(got[1]) == sorted(want)
            for t, (ids, positions) in want.items():
                assert got[1][t][0] == ids
                assert np.array_equal(got[1][t][1], positions.reshape(-1, 2))
