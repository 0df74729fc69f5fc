"""Belief-support enumeration, unsafe sets, winning regions, shield map."""

import math
import tracemalloc

import numpy as np
import pytest

from acpshield.errors import InvalidSpec, OutOfRange, UnknownSupport
from acpshield.gridworld import GridSpec, build_gridworld, cell_positions
from acpshield.shield import (
    Bsts,
    Shield,
    compute_winning_regions,
    constraint_values,
    unsafe_sets,
    validate_support,
    verify_winning_regions,
)
from acpshield.trajectory import JointAgentState, PredictionSet

import oracles
from conftest import make_random_pomdp


def fs(*states):
    return frozenset(states)


def manual_unsafe(horizon, by_level):
    """The {tau: F_tau} map straight from state sets, skipping the geometric
    builder."""
    return {tau: frozenset(by_level.get(tau, ())) for tau in range(1, horizon + 1)}


def decide(f_sets):
    """A ``Bsts`` unsafe decision from a {tau: F_tau} map: F_q on the
    states of level q, as the episode runner's decision gives it."""
    return lambda q, states: f_sets[q] & frozenset(states.tolist())


def make_shield(model, root, horizon, f_sets):
    """BSTS, built through the supports safe under ``f_sets``, and its shield."""
    bsts = Bsts(model, root, horizon, unsafe=decide(f_sets))
    return Shield(bsts, *compute_winning_regions(bsts))


def post(bsts, support, q, a):
    """Set of successor supports of (support, q) under action a."""
    return frozenset(bsts.post_by_obs(support, q, a).values())


def corridor(n=5, n_obs_blocks=None):
    """Deterministic 1-D corridor, fully observable, actions left/right."""
    t = np.zeros((n, 2, n))
    z = np.zeros((n, 2, n))
    for s in range(n):
        t[s, 0, max(s - 1, 0)] = 1.0
        t[s, 1, min(s + 1, n - 1)] = 1.0
        z[s, :, s] = 1.0
    return oracles.model_from_tables(t, np.zeros((n, 2)), z)


def random_support(model, rng):
    """Valid support: a nonempty state set sharing one observation."""
    while True:
        o = int(rng.integers(oracles.n_observations(model)))
        eligible = [s for s in range(model.n_states) if o in model.obs_support[s]]
        if eligible:
            k = int(rng.integers(1, min(len(eligible), 4) + 1))
            return frozenset(rng.choice(eligible, size=k, replace=False).tolist())


# -- support validation and BSTS ---------------------------------------------

def test_validate_support(two_state_model):
    assert validate_support(two_state_model, [1, 0]) == fs(0, 1)
    assert validate_support(two_state_model, np.array([1, 0])) == fs(0, 1)
    with pytest.raises(InvalidSpec):
        validate_support(two_state_model, [])
    with pytest.raises(InvalidSpec):
        validate_support(two_state_model, [0, 5])


@pytest.mark.parametrize("states", [[1.7], [1.5, 0], [True], ["1"], [1, 1.0], [np.float64(1.0)]])
def test_validate_support_rejects_non_int_states(two_state_model, states):
    # none of these is truncated or deduplicated into a valid state
    with pytest.raises(InvalidSpec, match="is not an int state"):
        validate_support(two_state_model, states)
    with pytest.raises(InvalidSpec, match="is not an int state"):
        Bsts(two_state_model, states, 1)


def test_validate_support_requires_common_observation():
    t = np.zeros((2, 1, 2))
    t[:, 0, 0] = 1.0
    z = np.zeros((2, 1, 2))
    z[0, 0, 0] = 1.0
    z[1, 0, 1] = 1.0
    model = oracles.model_from_tables(t, np.zeros((2, 1)), z)
    with pytest.raises(InvalidSpec):
        validate_support(model, [0, 1])


def test_bsts_deterministic_chain():
    model = corridor(4)
    bsts = Bsts(model, fs(0), 2)
    # moving right from s0: levels are singleton supports marching along
    assert bsts.levels[0] == {fs(0)}
    assert post(bsts, fs(0), 0, 1) == frozenset({fs(1)})
    assert post(bsts, fs(1), 1, 1) == frozenset({fs(2)})
    assert fs(2) in bsts.levels[2]
    # left from s0 clamps in place
    assert post(bsts, fs(0), 0, 0) == frozenset({fs(0)})


def test_bsts_gridworld_one_step_hand_enumeration():
    spec = GridSpec(width=8, height=8, start_cells={(0, 0): 1.0}, goal_cell=(7, 7))
    model = build_gridworld(spec)
    idx = spec.state_index
    root = fs(idx(0, 0), idx(1, 0), idx(0, 1), idx(1, 1))
    bsts = Bsts(model, root, 1)
    east = frozenset({
        fs(idx(1, 0), idx(1, 1)),
        fs(idx(2, 0), idx(3, 0), idx(2, 1), idx(3, 1)),
    })
    assert post(bsts, root, 0, 0) == east
    north = frozenset({
        fs(idx(0, 1), idx(1, 1)),
        fs(idx(0, 2), idx(0, 3), idx(1, 2), idx(1, 3)),
    })
    assert post(bsts, root, 0, 3) == north
    for sup in bsts.levels[1]:
        assert len(sup) <= 4
        assert len({oracles.cell_and_block(spec, s)[1] for s in sup}) == 1


def test_bsts_groups_match_set_algebra_oracle(rng):
    for deterministic in (True, False):
        for _ in range(25):
            model = make_random_pomdp(rng, n_states=7, n_actions=3, n_obs=3,
                                      deterministic_obs=deterministic)
            root = random_support(model, rng)
            bsts = Bsts(model, root, 2)
            for q in (0, 1):
                for sup in bsts.levels[q]:
                    for a in range(model.n_actions):
                        expected = oracles.reachable_supports(model, sup, a)
                        got = bsts.post_by_obs(sup, q, a)
                        assert got == expected
                        union = set().union(*got.values()) if got else set()
                        full = {s2 for s in sup for s2 in model.successors(s, a)}
                        assert union == full
                        if deterministic:
                            members = sorted(x for g in got.values() for x in g)
                            assert members == sorted(full)   # partition, no overlap


def test_bsts_node_count_bound(rng):
    for _ in range(10):
        model = make_random_pomdp(rng, n_states=6, n_actions=2, n_obs=3)
        root = random_support(model, rng)
        h = 3
        bsts = Bsts(model, root, h)
        bound = sum(min((model.n_actions * oracles.n_observations(model)) ** q,
                        2 ** model.n_states) for q in range(h + 1))
        assert bsts.node_count() <= bound
        assert set(bsts.levels) == {0, 1, 2, 3}


def test_bsts_rejects_bad_horizon(two_state_model):
    for horizon in (0, 1.0, True):
        with pytest.raises(InvalidSpec):
            Bsts(two_state_model, fs(0), horizon)
    bsts = Bsts(two_state_model, fs(0), 1)
    with pytest.raises(UnknownSupport):
        bsts.post_by_obs(fs(1), 0, 0)


# -- unsafe sets --------------------------------------------------------------

def grid_inputs(width=30, height=30):
    spec = GridSpec(width=width, height=height, start_cells={(0, 0): 1.0},
                    goal_cell=(width - 1, height - 1))
    return spec, cell_positions(spec)


def agents_pred(made_at, points_by_tau):
    """PredictionSet from {tau: [(x, y), ...]} with integer agent ids."""
    horizon = max(points_by_tau)
    preds = []
    for tau in range(1, horizon + 1):
        pts = points_by_tau[tau]
        preds.append(JointAgentState(tuple(range(len(pts))),
                                     np.asarray(pts, dtype=float).reshape(-1, 2),
                                     made_at + tau))
    return PredictionSet(made_at, horizon, tuple(preds))


def test_unsafe_sets_paper_worked_example():
    spec, pos = grid_inputs()
    pred = agents_pred(0, {1: [(17.334, 9.711)], 2: [(17.947, 9.743)]})
    f_sets = unsafe_sets(pos, pred, (0.736, 1.329), epsilon=2.0)
    assert set(f_sets) == {1, 2}
    s_18_4 = spec.state_index(18, 4)
    margin = constraint_values(pos[[s_18_4]], pred.at(1).positions, 2.0)[0]
    assert margin == pytest.approx(3.7497, abs=1e-3)
    assert s_18_4 not in f_sets[1]
    # a cell well inside the inflated region is excluded
    s_17_9 = spec.state_index(17, 9)
    assert s_17_9 in f_sets[1]
    # two-step lookahead: (18,7) sits 2.7435 from the prediction, margin
    # 0.7435 below the 1.329 radius, hence unsafe
    s_18_7 = spec.state_index(18, 7)
    margin = constraint_values(pos[[s_18_7]], pred.at(2).positions, 2.0)[0]
    assert margin == pytest.approx(0.7435, abs=1e-3)
    assert s_18_7 in f_sets[2]


def test_unsafe_sets_no_agents_vacuous():
    _, pos = grid_inputs(6, 6)
    pred = PredictionSet(0, 2, (JointAgentState.empty(1), JointAgentState.empty(2)))
    assert unsafe_sets(pos, pred, (0.5, 0.5), epsilon=0.5) == {1: frozenset(), 2: frozenset()}
    assert np.all(np.isinf(constraint_values(pos, pred.at(1).positions, 0.5)))


def test_unsafe_sets_infinite_radius_marks_all_located_states():
    spec, pos = grid_inputs(6, 6)
    pred = agents_pred(0, {1: [(3.0, 3.0)]})
    f_sets = unsafe_sets(pos, pred, (math.inf,), epsilon=0.5)
    assert f_sets[1] == frozenset(range(spec.n_cells))
    assert spec.terminal_state not in f_sets[1]


def test_unsafe_sets_input_validation():
    _, pos = grid_inputs(4, 4)
    pred = agents_pred(0, {1: [(1.0, 1.0)]})
    with pytest.raises(InvalidSpec):
        unsafe_sets(pos, pred, (0.5, 0.5), epsilon=0.5)
    for epsilon in (-1.0, math.nan):      # a NaN epsilon would leave F_1 empty too
        with pytest.raises(InvalidSpec):
            unsafe_sets(pos, pred, (0.5,), epsilon=epsilon)
    # a NaN radius would compare false against every margin and leave F_1
    # empty, failing open
    for radius in (math.nan, -0.5):
        with pytest.raises(InvalidSpec):
            unsafe_sets(pos, pred, (radius,), epsilon=0.5)


def test_constraint_values_allocates_only_block_temporaries():
    # numpy reports its buffers to tracemalloc; a (states, agents, 2) gap
    # array and its square would peak near 5 * states * agents * 8 bytes,
    # and two whole (states, agents) buffers near 2 * states * agents * 8
    rng = np.random.default_rng(0)
    n_states, n_agents = 2001, 300
    positions = rng.uniform(0.0, 30.0, size=(n_states, 2))
    agents = rng.uniform(0.0, 30.0, size=(n_agents, 2))
    tracemalloc.start()
    try:
        constraint_values(positions, agents, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n_states * n_agents * 8


# -- winning regions -----------------------------------------------------------

def test_corridor_winning_regions_hand_checked():
    model = corridor(5)
    f_sets = manual_unsafe(2, {1: {3}, 2: {3}})
    shield = make_shield(model, fs(2), 2, f_sets)
    # {3} is unsafe at level 1, so it is a leaf: its successor {4} is no node
    assert shield.bsts.levels[1] == {fs(1), fs(3)}
    assert shield.bsts.safe[1] == frozenset({fs(1)})
    assert shield.bsts.levels[2] == {fs(0), fs(2)}
    assert shield.regions[2] == frozenset({fs(0), fs(2)})
    assert shield.regions[1] == frozenset({fs(1)})
    assert shield.table[0][fs(2)] == (0,)
    assert shield.table[1][fs(1)] == (0, 1)
    # the leaf certifies nothing, though both of its moves would land safe
    assert shield.table[1][fs(3)] == ()
    assert verify_winning_regions(shield, f_sets) == []


def test_empty_unsafe_means_everything_wins(rng):
    model = make_random_pomdp(rng, n_states=6, n_actions=2, n_obs=3)
    root = random_support(model, rng)
    shield = make_shield(model, root, 3, manual_unsafe(3, {}))
    for tau in (1, 2, 3):
        assert shield.regions[tau] == frozenset(shield.bsts.levels[tau])
    assert shield.table[0][root] == tuple(range(model.n_actions))


def test_fully_unsafe_first_level_blocks_everything(rng):
    model = make_random_pomdp(rng, n_states=5, n_actions=2, n_obs=2)
    root = random_support(model, rng)
    shield = make_shield(model, root, 2, manual_unsafe(2, {1: set(range(model.n_states))}))
    assert shield.regions[1] == frozenset()
    assert shield.table[0][root] == ()


def test_winning_regions_match_policy_search_oracle(rng):
    for trial in range(100):
        model = make_random_pomdp(
            rng,
            n_states=int(rng.integers(4, 13)),
            n_actions=int(rng.integers(2, 4)),
            n_obs=int(rng.integers(2, 4)),
            deterministic_obs=bool(rng.integers(2)))
        h = int(rng.integers(1, 4))
        root = random_support(model, rng)
        by_level = {}
        for tau in range(1, h + 1):
            k = int(rng.integers(0, model.n_states // 2 + 1))
            by_level[tau] = set(rng.choice(model.n_states, size=k, replace=False).tolist())
        f_sets = manual_unsafe(h, by_level)
        shield = make_shield(model, root, h, f_sets)
        oracle_levels = {tau: frozenset(by_level.get(tau, ())) for tau in range(1, h + 1)}
        for tau in range(1, h + 1):
            for sup in shield.bsts.levels[tau]:
                expected = oracles.enumerate_winning_supports(
                    model, sup, h, oracle_levels, level=tau)
                assert (sup in shield.regions[tau]) == expected, (trial, tau, sorted(sup))
        assert list(shield.table[0][root]) == oracles.shielded_actions_oracle(
            model, root, 0, h, oracle_levels)
        assert verify_winning_regions(shield, f_sets) == []


def test_monotone_conservatism(rng):
    for _ in range(20):
        model = make_random_pomdp(rng, n_states=7, n_actions=2, n_obs=3)
        root = random_support(model, rng)
        h = 3
        base = {tau: set(rng.choice(model.n_states, size=2, replace=False).tolist())
                for tau in range(1, h + 1)}
        bigger = {tau: base[tau] | {int(rng.integers(model.n_states))}
                  for tau in range(1, h + 1)}
        w_base = make_shield(model, root, h, manual_unsafe(h, base)).regions
        w_big = make_shield(model, root, h, manual_unsafe(h, bigger)).regions
        for tau in range(1, h + 1):
            assert w_big[tau] <= w_base[tau]


def test_certificate_verifier_catches_corruption():
    model = corridor(5)
    f_sets = manual_unsafe(2, {1: {3}, 2: {3}})
    shield = make_shield(model, fs(2), 2, f_sets)
    # claim the unsafe support {3} wins at level 1
    shield.regions[1] = shield.regions[1] | {fs(3)}
    problems = verify_winning_regions(shield, f_sets)
    assert any("unsafe states [3]" in p for p in problems)
    # a node absent from the level is flagged too
    shield.regions[1] = frozenset({fs(4)})
    assert any("not a level node" in p for p in verify_winning_regions(shield, f_sets))


def test_certificate_verifier_catches_table_corruption():
    model = corridor(5)
    f_sets = manual_unsafe(2, {1: {3}, 2: {3}})
    shield = make_shield(model, fs(2), 2, f_sets)
    # right from {2} lands on the unsafe {3}; listing it must be flagged
    shield.table[0][fs(2)] = (0, 1)
    problems = verify_winning_regions(shield, f_sets)
    assert any("allows action 1" in p for p in problems)
    # a winning support without an entry, and one with an empty entry
    shield = make_shield(model, fs(2), 2, f_sets)
    del shield.table[0][fs(2)]
    shield.table[1][fs(1)] = ()
    problems = verify_winning_regions(shield, f_sets)
    assert any("no table entry" in p for p in problems)
    assert any("[1] has no all-winning action" in p for p in problems)
    # the unsafe leaf {3} claiming an action
    shield = make_shield(model, fs(2), 2, f_sets)
    shield.table[1][fs(3)] = (0,)
    assert verify_winning_regions(shield, f_sets) == [
        "q=1: [3] is unexpanded but allows actions [0]"]


def test_certificate_verifier_catches_a_safe_support_left_unexpanded():
    model = corridor(5)
    f_sets = manual_unsafe(2, {1: {3}, 2: {3}})
    bsts = make_shield(model, fs(2), 2, f_sets).bsts
    # a build that wrongly takes the safe {1} for a leaf: the sweep then
    # certifies nothing at the root, which only the verifier can tell apart
    # from a true deadlock
    bsts.safe[1] = frozenset()
    shield = Shield(bsts, *compute_winning_regions(bsts))
    assert shield.table[0][fs(2)] == ()
    assert verify_winning_regions(shield, f_sets) == [
        "q=1: [1] is left unexpanded but holds no unsafe state"]


def test_certificate_verifier_catches_an_unsafe_support_claimed_winning():
    model = corridor(5)
    f_sets = manual_unsafe(2, {1: {3}, 2: {3}})
    # a decision that misses state 3 at level 1 expands {3} and lets it win
    bsts = Bsts(model, fs(2), 2, unsafe=decide(manual_unsafe(2, {2: {3}})))
    shield = Shield(bsts, *compute_winning_regions(bsts))
    assert fs(3) in shield.regions[1] and shield.table[0][fs(2)] == (0, 1)
    assert verify_winning_regions(shield, f_sets) == [
        "tau=1: [3] contains unsafe states [3]"]


def test_unsafe_sets_and_decisions_must_be_sets_keyed_1_to_h():
    model = corridor(5)
    f_sets = manual_unsafe(2, {1: {3}})
    shield = make_shield(model, fs(2), 2, f_sets)
    empty = frozenset()
    for bad in ({0: empty, 1: empty}, {1: empty}, {1: empty, 2: empty, 3: empty},
                {1: [3], 2: empty}, {1: empty, 2: None}, [empty, empty], None):
        with pytest.raises(InvalidSpec, match="lookahead 1..2"):
            verify_winning_regions(shield, bad)
    for bad in ([3], (3,), {3: True}, None, 3):
        with pytest.raises(InvalidSpec, match="decision for lookahead 1"):
            Bsts(model, fs(2), 2, unsafe=lambda q, states, bad=bad: bad)
    assert verify_winning_regions(shield, {1: {3}, 2: set()}) == []


def test_shield_actions_unknown_support():
    model = corridor(5)
    shield = make_shield(model, fs(2), 2, manual_unsafe(2, {}))
    with pytest.raises(UnknownSupport):
        shield.allowed(fs(0), 0)
    with pytest.raises(UnknownSupport):
        shield.allowed(fs(2), 1)        # level 1 holds {1} and {3} only
    for depth in (-1, -3):
        with pytest.raises(OutOfRange):
            shield.allowed(fs(2), depth)


def test_shared_map_support_off_this_level_is_unknown():
    # the shared edge map holds supports of other BSTSs and of other depths
    # of this one; only level-q nodes below the horizon are nodes at q
    model = corridor(6)
    expansions = {}
    Bsts(model, fs(0), 2, expansions)           # expands {0} and {1}
    bsts = Bsts(model, fs(4), 2, expansions)    # levels {4}; {3}, {5}; {2}, {4}, {5}
    shield = Shield(bsts, *compute_winning_regions(bsts))
    for sup, q in ((fs(0), 0), (fs(1), 1), (fs(3), 0), (fs(4), 1), (fs(5), 0)):
        assert sup in expansions
        with pytest.raises(UnknownSupport):
            bsts.post_by_obs(sup, q, 0)
        with pytest.raises(UnknownSupport):
            shield.allowed(sup, q)
    with pytest.raises(UnknownSupport):
        bsts.post_by_obs(fs(4), 2, 0)           # a depth-H node is not expanded
    assert bsts.post_by_obs(fs(4), 0, 1) == {5: fs(5)}


# -- shield wrapper -------------------------------------------------------------

def test_shield_wrapper_matches_shield_actions(rng):
    for _ in range(15):
        model = make_random_pomdp(rng, n_states=7, n_actions=3, n_obs=3)
        root = random_support(model, rng)
        h = 3
        by_level = {tau: set(rng.choice(model.n_states, size=2, replace=False).tolist())
                    for tau in range(1, h + 1)}
        shield = make_shield(model, root, h, manual_unsafe(h, by_level))
        oracle_levels = {tau: frozenset(by_level[tau]) for tau in range(1, h + 1)}
        for q in range(h):
            for sup in shield.bsts.levels[q]:
                # an unexpanded leaf holds an unsafe state and certifies nothing
                expected = (oracles.shielded_actions_oracle(model, sup, q, h, oracle_levels)
                            if shield.bsts.expanded(sup, q) else [])
                assert list(shield.allowed(sup, q)) == expected
        assert shield.allowed(root, h) == tuple(range(model.n_actions))
        assert shield.allowed(root, h + 5) == tuple(range(model.n_actions))
        with pytest.raises(UnknownSupport):
            shield.allowed(frozenset({0, 1, 2, 3, 4, 5, 6}), 0)


def test_shield_successor_resolution():
    model = corridor(5)
    shield = make_shield(model, fs(2), 2, manual_unsafe(2, {}))
    assert shield.groups[fs(2)][1].get(3) == fs(3)   # obs 3 after moving right
    assert shield.groups[fs(2)][1].get(0) is None    # obs 0 impossible there
    assert shield.table[0][fs(2)] == shield.allowed(fs(2), 0)
