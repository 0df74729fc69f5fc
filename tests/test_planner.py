"""Planner tests: search mechanics, shield integration, sampling accuracy."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from acpshield.errors import (
    AllActionsShielded,
    EmptyBelief,
    InvalidSpec,
    ParticleDeprivation,
    UnknownSupport,
)
from acpshield.gridworld import GridSpec, build_gridworld, cell_positions
from acpshield.planner import (
    ActionEdge,
    Planner,
    PlannerConfig,
    fallback_action,
)
from acpshield.shield import constraint_values, unsafe_sets
from acpshield.trajectory import JointAgentState, PredictionSet

import oracles
from conftest import make_random_pomdp
from test_shield import make_shield, manual_unsafe


def fs(*states):
    return frozenset(states)


def margin_f1(horizon, margins, threshold):
    """The full-grid F_1 ``fallback_action`` ranks by, under which state s
    has lookahead-1 margin margins[s]: it sits margins[s] from one predicted
    agent at the origin, with a zero buffer."""
    positions = np.stack([margins, np.zeros_like(margins)], axis=1)
    pred = PredictionSet(0, horizon, tuple(JointAgentState((0,), np.zeros((1, 2)), tau)
                                           for tau in range(1, horizon + 1)))
    assert np.array_equal(constraint_values(positions, pred.at(1).positions, 0.0), margins)
    return unsafe_sets(positions, pred, (threshold,) * horizon, 0.0)[1]


def corridor(n=5, rewards=None, discount=0.9):
    """Deterministic 1-D corridor, fully observable, actions left/right."""
    t = np.zeros((n, 2, n))
    z = np.zeros((n, 2, n))
    for s in range(n):
        t[s, 0, max(s - 1, 0)] = 1.0
        t[s, 1, min(s + 1, n - 1)] = 1.0
        z[s, :, s] = 1.0
    r = np.zeros((n, 2)) if rewards is None else np.asarray(rewards, dtype=float)
    return oracles.model_from_tables(t, r, z, discount=discount)


def chain(length, step_reward=1.0, discount=0.9):
    """States 0..length-1 march right into an absorbing zero-reward sink."""
    n = length + 1
    t = np.zeros((n, 1, n))
    z = np.zeros((n, 1, n))
    r = np.zeros((n, 1))
    for s in range(length):
        t[s, 0, s + 1] = 1.0
        r[s, 0] = step_reward
    t[length, 0, length] = 1.0
    for s in range(n):
        z[s, 0, s] = 1.0
    return oracles.model_from_tables(t, r, z, discount=discount)


def bandit(r_left=0.0, r_right=1.0, discount=0.9):
    """One decision, two arms, then an absorbing sink."""
    t = np.zeros((2, 2, 2))
    z = np.zeros((2, 2, 2))
    t[:, :, 1] = 1.0
    for s in range(2):
        z[s, :, s] = 1.0
    r = np.array([[r_left, r_right], [0.0, 0.0]])
    return oracles.model_from_tables(t, r, z, discount=discount)


def shielded_corridor(horizon=2):
    """Corridor whose cell 3 is unsafe at every lookahead; start support {2}."""
    rewards = np.full((5, 2), -1.0)
    rewards[3, :] = -1000.0
    model = corridor(5, rewards)
    unsafe = manual_unsafe(horizon, {tau: {3} for tau in range(1, horizon + 1)})
    shield = make_shield(model, fs(2), horizon, unsafe)
    return model, shield


# -- scoring and config --------------------------------------------------------

def test_ucb_score_arithmetic():
    # selection maximizes value + c * sqrt(ln(node visits) / edge visits)
    # over the allowed actions; actions without an edge (never selected)
    # go first, the lowest index first
    planner = Planner(bandit(), PlannerConfig(ucb_constant=2.0))
    node = planner.make_root([0])
    node.edges = [None, None]
    assert planner._select_ucb(node) == 0
    node.edges[0] = ActionEdge()
    node.edges[0].visits, node.edges[0].value = 4, 1.0
    assert planner._select_ucb(node) == 1
    node.edges[1] = ActionEdge()
    node.edges[1].visits = 1
    node.visits = math.e ** 4          # scores: 1 + 2 * 1 = 3 and 0 + 2 * 2 = 4
    assert planner._select_ucb(node) == 1
    node.edges[1].value = -1.5         # 2.5 < 3
    assert planner._select_ucb(node) == 0
    node.visits = 1                    # ln 1 = 0: values alone decide
    node.edges[1].value = 0.5
    assert planner._select_ucb(node) == 0
    node.allowed = (1,)
    assert planner._select_ucb(node) == 1


def test_config_validation():
    with pytest.raises(InvalidSpec):
        PlannerConfig(num_simulations=0)
    with pytest.raises(InvalidSpec):
        PlannerConfig(max_depth=0)
    with pytest.raises(InvalidSpec):
        PlannerConfig(particle_count=0)
    for ucb in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidSpec):
            PlannerConfig(ucb_constant=ucb)
    with pytest.raises(InvalidSpec):
        PlannerConfig(rollout_policy="goal_greedy")
    # integer fields take ints only: 10.5 simulations would run 11
    for field, value in [("num_simulations", 10.5), ("max_depth", 24.5),
                         ("particle_count", 100.0), ("seed", 1.5), ("num_simulations", True)]:
        with pytest.raises(InvalidSpec, match=field):
            PlannerConfig(**{field: value})


def test_plan_requires_depth_covering_horizon():
    model = corridor()
    unsafe = manual_unsafe(2, {})
    shield = make_shield(model, fs(2), 2, unsafe)
    planner = Planner(model, PlannerConfig(num_simulations=4, max_depth=1, seed=1))
    root = planner.make_root([2, 2])
    with pytest.raises(InvalidSpec):
        planner.plan(root, shield)


# -- basic search behaviour ------------------------------------------------------

def test_single_action_plan():
    model = chain(3)
    planner = Planner(model, PlannerConfig(num_simulations=16, max_depth=8, seed=0))
    root = planner.make_root([0] * 8)
    assert planner.plan(root) == 0


def test_bandit_prefers_better_arm():
    model = bandit(0.0, 1.0)
    planner = Planner(model, PlannerConfig(
        num_simulations=128, max_depth=2, ucb_constant=2.0, seed=3))
    root = planner.make_root([0] * 16)
    assert planner.plan(root) == 1


def test_bandit_tie_breaks_lowest_index():
    model = bandit(1.0, 1.0)
    planner = Planner(model, PlannerConfig(
        num_simulations=128, max_depth=2, ucb_constant=2.0, seed=3))
    root = planner.make_root([0] * 16)
    assert planner.plan(root) == 0


def test_deterministic_chain_value_is_exact():
    gamma = 0.9
    length = 4
    model = chain(length, 1.0, gamma)
    planner = Planner(model, PlannerConfig(num_simulations=64, max_depth=16, seed=5))
    root = planner.make_root([0] * 4)
    planner.plan(root)
    exact = sum(gamma ** k for k in range(length))
    assert root.edges[0].value == pytest.approx(exact, abs=1e-6)


def test_depth_cap_truncates():
    model = chain(3)
    cfg = PlannerConfig(num_simulations=4, max_depth=3, seed=1)
    planner = Planner(model, cfg)
    root = planner.make_root([0])
    assert planner.simulate(root, 0, cfg.max_depth, None) == 0.0
    assert root.visits == 0 and root.edges is None


def test_absorbing_state_truncates():
    model = chain(2)
    planner = Planner(model, PlannerConfig(num_simulations=4, max_depth=6, seed=1))
    root = planner.make_root([2])
    assert planner.simulate(root, 2, 0, None) == 0.0


def test_visit_count_invariant():
    rng = np.random.default_rng(11)
    model = make_random_pomdp(rng, n_states=6, n_actions=3, n_obs=3, branch=2)

    planner = Planner(model, PlannerConfig(
        num_simulations=500, max_depth=6, ucb_constant=2.0, seed=9))
    root = planner.make_root([0] * 32)
    planner.plan(root)
    assert root.visits == 500

    def walk(node):
        # one visit expands the node, every later one goes down an edge; an
        # edge exists only once its action was selected, so it has visits
        if node.edges is None:
            return
        edges = [e for e in node.edges if e is not None]
        assert all(e.visits >= 1 for e in edges)
        assert node.visits == sum(e.visits for e in edges) + 1
        for e in edges:
            for child in e.children.values():
                walk(child)

    walk(root)


def test_empty_root_raises():
    model = chain(2)
    planner = Planner(model, PlannerConfig(num_simulations=4, max_depth=4, seed=1))
    with pytest.raises(EmptyBelief):
        planner.make_root([])


# -- rollouts ---------------------------------------------------------------------

def test_rollout_zero_reward_model_returns_zero():
    model = corridor()
    planner = Planner(model, PlannerConfig(num_simulations=1, max_depth=12, seed=2))
    for _ in range(50):
        assert planner.rollout(2, 0, None, None) == 0.0


def test_rollout_mean_matches_hit_probability():
    # arm 0 reaches a one-shot prize state, arm 1 goes straight to the sink;
    # a uniform rollout should earn prize * gamma half the time
    gamma = 0.9
    prize = 4.0
    t = np.zeros((3, 2, 3))
    z = np.zeros((3, 2, 3))
    r = np.zeros((3, 2))
    t[0, 0, 1] = 1.0
    t[0, 1, 2] = 1.0
    t[1, :, 2] = 1.0
    t[2, :, 2] = 1.0
    r[1, :] = prize
    for s in range(3):
        z[s, :, s] = 1.0
    model = oracles.model_from_tables(t, r, z, discount=gamma)
    planner = Planner(model, PlannerConfig(num_simulations=1, max_depth=8, seed=13))
    n = 100_000
    mean = sum(planner.rollout(0, 0, None, None) for _ in range(n)) / n
    assert mean == pytest.approx(0.5 * gamma * prize, abs=0.02)


def test_shielded_rollout_avoids_unsafe_states():
    model, shield = shielded_corridor()
    planner = Planner(model, PlannerConfig(num_simulations=1, max_depth=2, seed=21))
    returns = [planner.rollout(2, 0, shield.bsts.root, shield) for _ in range(400)]
    assert min(returns) > -10.0


def test_unshielded_rollout_reaches_unsafe_states():
    model, _ = shielded_corridor()
    planner = Planner(model, PlannerConfig(num_simulations=1, max_depth=2, seed=21))
    returns = [planner.rollout(2, 0, None, None) for _ in range(400)]
    assert min(returns) < -100.0


def test_rollout_policy_preference_is_shield_filtered():
    model, shield = shielded_corridor()
    planner = Planner(model, PlannerConfig(num_simulations=1, max_depth=2, seed=5),
                      (1,) * model.n_states)
    # unshielded, the preference walks straight into the penalty cell
    assert planner.rollout(2, 0, None, None) == pytest.approx(-901.0)
    # shielded, right is not certified from {2} and the pick is overridden
    returns = [planner.rollout(2, 0, shield.bsts.root, shield) for _ in range(50)]
    assert min(returns) > -10.0


@pytest.mark.parametrize("table", [None, (1,) * 5, (0, 1, 1, 0, 1)])
@pytest.mark.parametrize("shielded", [False, True])
def test_rollout_matches_callable_policy_oracle(table, shielded):
    model, shield = shielded_corridor()
    cfg = PlannerConfig(num_simulations=1, max_depth=6, seed=13)
    planner = Planner(model, cfg, table)
    rng = random.Random(13)
    policy = None if table is None else (lambda state, _rng: table[state])
    if not shielded:
        shield = None
    support = shield.bsts.root if shield is not None else None
    for state in (2, 2, 1, 0, 4, 2) * 5:
        got = planner.rollout(state, 0, support, shield)
        want = oracles.rollout_oracle(model, state, 0, support, shield, rng,
                                      cfg.max_depth, planner.discount, policy)
        assert got == want
    assert planner.rng.getstate() == rng.getstate()


def test_rollout_table_must_cover_every_state():
    model = corridor()
    with pytest.raises(InvalidSpec):
        Planner(model, PlannerConfig(), (0,) * (model.n_states - 1))


# -- shield integration ------------------------------------------------------------

def test_all_actions_shielded_raises():
    model = corridor()
    unsafe = manual_unsafe(2, {1: {1, 3}})
    shield = make_shield(model, fs(2), 2, unsafe)
    planner = Planner(model, PlannerConfig(num_simulations=8, max_depth=4, seed=0))
    root = planner.make_root([2] * 4)
    with pytest.raises(AllActionsShielded):
        planner.plan(root, shield)
    assert planner.last_stats.root_allowed == ()


def test_unknown_root_support_raises():
    # the shield certifies only the supports of its own BSTS; a root
    # support outside it is a caller error, not a deadlock
    model = corridor()
    shield = make_shield(model, fs(2), 2, manual_unsafe(2, {}))
    planner = Planner(model, PlannerConfig(num_simulations=8, max_depth=4, seed=0))
    root = planner.make_root([0])
    with pytest.raises(UnknownSupport):
        planner.plan(root, shield)


def test_tree_pruning_matches_certified_sets(rng):
    # consistent shields: every tree node searches exactly the certified
    # actions (the independent oracle agrees), and no dead ends appear
    checked = 0
    for trial in range(40):
        model = make_random_pomdp(rng, n_states=6, n_actions=3, n_obs=3, branch=2)
        root_state = int(rng.integers(model.n_states))
        horizon = 2
        by_level = {tau: set(rng.choice(model.n_states, size=int(rng.integers(0, 3)),
                                        replace=False).tolist())
                    for tau in (1, 2)}
        shield = make_shield(model, fs(root_state), horizon, manual_unsafe(horizon, by_level))
        bsts = shield.bsts
        oracle_levels = {tau: frozenset(by_level.get(tau, ())) for tau in (1, 2)}
        for q in range(horizon):
            for sup in bsts.levels[q]:
                # an unexpanded leaf holds an unsafe state and certifies nothing
                expected = (oracles.shielded_actions_oracle(model, sup, q, horizon, oracle_levels)
                            if bsts.expanded(sup, q) else [])
                assert set(shield.allowed(sup, q)) == set(expected)
        planner = Planner(model, PlannerConfig(
            num_simulations=200, max_depth=4, ucb_constant=2.0, seed=trial))
        root = planner.make_root([root_state] * 16)
        try:
            planner.plan(root, shield)
        except AllActionsShielded:
            continue
        checked += 1
        certified = set(shield.allowed(fs(root_state), 0))
        assert planner.last_stats.root_pruned == tuple(
            a for a in range(model.n_actions) if a not in certified)

        def walk(node):
            if node.support is not None and node.depth < horizon:
                expected = set(shield.allowed(node.support, node.depth))
                assert set(node.allowed) == expected
            if node.edges is None:
                return
            for a in range(model.n_actions):
                edge = node.edges[a]
                if edge is None:
                    continue
                assert a in node.allowed        # a pruned action has no edge
                for child in edge.children.values():
                    walk(child)

        walk(root)
    assert checked >= 10


def test_grid_two_speed_scenario_prunes_toward_agent():
    # 22x12 grid with one dynamic agent north of the robot and lookahead-2
    # prediction regions: stepping east stays certified, but from there the
    # northward branch crosses into the lookahead-2 region and is pruned
    spec = GridSpec(width=22, height=12, start_cells={(17, 5): 1.0}, goal_cell=(0, 0))
    model = build_gridworld(spec)
    positions = cell_positions(spec)
    pred = PredictionSet(made_at=0, horizon=2, predicted=(
        JointAgentState(("a1",), np.array([[17.334, 9.711]]), 1),
        JointAgentState(("a1",), np.array([[17.947, 9.743]]), 2),
    ))
    unsafe = unsafe_sets(positions, pred, (0.736, 1.329), epsilon=2.0)
    here = spec.state_index(17, 5)
    shield = make_shield(model, fs(here), 2, unsafe)

    east, south, west, north = 0, 1, 2, 3
    assert spec.state_index(18, 5) not in unsafe[1]
    assert spec.state_index(17, 7) in unsafe[1]
    assert spec.state_index(18, 7) in unsafe[2]

    root_allowed = shield.allowed(fs(here), 0)
    assert east in root_allowed
    assert north not in root_allowed
    step_east = fs(spec.state_index(18, 5), spec.state_index(19, 5))
    assert step_east in shield.bsts.levels[1]
    allowed_after_east = shield.allowed(step_east, 1)
    assert east in allowed_after_east
    assert north not in allowed_after_east

    planner = Planner(model, PlannerConfig(
        num_simulations=400, max_depth=6, ucb_constant=50.0, particle_count=64, seed=17))
    root = planner.make_root([here] * 64)
    action = planner.plan(root, shield)
    assert action in root_allowed
    child = root.edges[east].children[model.obs_names.index("b9_2")]
    assert child.support == step_east
    assert north not in child.allowed


# -- value consistency ---------------------------------------------------------------

def test_root_action_matches_depth2_expectimax():
    rng = np.random.default_rng(2024)
    tested = 0
    attempts = 0
    while tested < 20 and attempts < 200:
        attempts += 1
        model = make_random_pomdp(rng, n_states=4, n_actions=3, n_obs=3,
                                  branch=2, discount=0.9)
        s0 = int(rng.integers(model.n_states))
        belief = np.zeros(model.n_states)
        belief[s0] = 1.0
        qs = [oracles.belief_expectimax(model, belief, 2, allowed=[a])[0]
              for a in range(model.n_actions)]
        order = sorted(range(model.n_actions), key=lambda a: -qs[a])
        if qs[order[0]] - qs[order[1]] < 0.25:
            continue           # near-ties are not decidable by sampling
        planner = Planner(model, PlannerConfig(
            num_simulations=10_000, max_depth=2, ucb_constant=2.0, seed=attempts))
        root = planner.make_root([s0])
        assert planner.plan(root) == order[0], f"attempt {attempts}"
        tested += 1
    assert tested == 20


def test_plan_is_deterministic_given_seed():
    spec = GridSpec(width=8, height=8, start_cells={(1, 1): 1.0}, goal_cell=(6, 6))
    model = build_gridworld(spec)

    def run():
        planner = Planner(model, PlannerConfig(
            num_simulations=300, max_depth=8, ucb_constant=50.0, seed=99))
        root = planner.make_root([spec.state_index(1, 1)] * 64)
        action = planner.plan(root)
        return action, planner.last_stats

    first = run()
    second = run()
    assert first == second


# -- root advancement -----------------------------------------------------------------

def test_advance_root_deterministic_chain():
    model = chain(3)
    planner = Planner(model, PlannerConfig(
        num_simulations=4, max_depth=6, particle_count=32, seed=8))
    root = planner.make_root([0] * 32)
    new_root = planner.advance_root(root, 0, 1)
    assert set(new_root.particles) == {1}
    assert new_root.support == frozenset({1})
    assert len(new_root.particles) == 32
    assert new_root.edges is None and new_root.visits == 0 and new_root.depth == 0


def test_advance_root_matches_exact_filter():
    t = np.zeros((3, 1, 3))
    t[0, 0] = [0.5, 0.3, 0.2]
    t[1, 0] = [0.1, 0.6, 0.3]
    t[2, 0] = [0.3, 0.3, 0.4]
    z = np.zeros((3, 1, 2))
    z[0, 0] = [0.8, 0.2]
    z[1, 0] = [0.4, 0.6]
    z[2, 0] = [0.1, 0.9]
    model = oracles.model_from_tables(t, np.zeros((3, 1)), z, discount=0.95)
    prior = np.array([0.5, 0.25, 0.25])
    particles = [0] * 5000 + [1] * 2500 + [2] * 2500
    planner = Planner(model, PlannerConfig(
        num_simulations=1, max_depth=2, particle_count=10_000, seed=31))
    root = planner.make_root(particles)
    new_root = planner.advance_root(root, 0, 1)
    T, Z, _ = oracles.dense_tables(model)
    post, eta = oracles.exact_filter(T, Z, prior, 0, 1)
    assert eta > 0
    counts = np.bincount(new_root.particles, minlength=3)
    freq = counts / len(new_root.particles)
    assert 0.5 * np.abs(freq - post).sum() <= 0.02


def test_advance_root_impossible_observation():
    model = chain(3)
    planner = Planner(model, PlannerConfig(
        num_simulations=4, max_depth=6, particle_count=16, seed=2))
    root = planner.make_root([0] * 16)
    with pytest.raises(ParticleDeprivation):
        planner.advance_root(root, 0, 3)


# -- deadlock fallback ------------------------------------------------------------------

def test_fallback_action_maximizes_worst_margin():
    model = corridor()
    margins = np.array([0.2, 3.0, 0.5, 0.1, 4.0])
    f1 = margin_f1(2, margins, 1.0)
    assert fallback_action(model, fs(2), f1) == 0
    assert fallback_action(model, fs(1, 3), f1) == 1
    for support in (fs(2), fs(1, 3), fs(0, 4), fs(0, 2, 4)):
        def worst(a):
            return min(margins[s2] - 1.0 for s in support
                       for s2 in model.successors(s, a))
        best = max(range(model.n_actions), key=lambda a: (worst(a), -a))
        assert fallback_action(model, support, f1) == best


def test_fallback_tie_breaks_lowest_and_handles_infinities():
    model = corridor(3)
    margins = np.array([1.0, 1.0, 1.0])
    assert fallback_action(model, fs(1), margin_f1(1, margins, math.inf)) == 0


# -- diagnostics --------------------------------------------------------------------------

def test_plan_stats_populated():
    model = bandit()
    planner = Planner(model, PlannerConfig(num_simulations=64, max_depth=2, seed=2))
    root = planner.make_root([0] * 8)
    action = planner.plan(root)
    st = planner.last_stats
    assert st.simulations == 64
    assert st.chosen == action == 1
    assert st.nodes >= 3
    assert st.root_allowed == (0, 1)
    assert st.root_pruned == ()
    assert root.edges[1].value == pytest.approx(1.0)
