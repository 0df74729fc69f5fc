"""Grid geometry, motion model, block sensing, and reward placement."""

import math
import random

import numpy as np
import pytest

from acpshield.errors import InvalidSpec
from acpshield.gridworld import (
    ACTION_NAMES,
    Cell,
    GridSpec,
    block_observation,
    build_gridworld,
    cell_positions,
    goal_greedy_actions,
    initial_belief,
)
from acpshield.pomdp import BeliefState, belief_update
from acpshield.shield import constraint_values

from oracles import belief_prob, belief_support, observation_row, transition_row


def t_prob(model, s, a, s2):
    """T(s, a, s2), read from the model's sparse transition row."""
    idxs, probs = transition_row(model, s, a)
    return dict(zip(idxs.tolist(), probs.tolist())).get(s2, 0.0)


def spec30(**kw):
    args = dict(width=30, height=30, start_cells={(0, 0): 1.0}, goal_cell=(29, 29))
    args.update(kw)
    return GridSpec(**args)


def test_two_speed_motion_probabilities():
    model = build_gridworld(spec30())
    spec = spec30()
    s = spec.state_index(17, 5)
    east = ACTION_NAMES.index("east")
    assert t_prob(model, s, east, spec.state_index(18, 5)) == pytest.approx(0.1)
    assert t_prob(model, s, east, spec.state_index(19, 5)) == pytest.approx(0.9)


def test_action_directions():
    spec = spec30()
    model = build_gridworld(spec)
    s = spec.state_index(10, 10)
    for name, (dx, dy) in [("east", (1, 0)), ("south", (0, -1)),
                           ("west", (-1, 0)), ("north", (0, 1))]:
        a = ACTION_NAMES.index(name)
        assert t_prob(model, s, a, spec.state_index(10 + dx, 10 + dy)) == pytest.approx(0.1)
        assert t_prob(model, s, a, spec.state_index(10 + 2 * dx, 10 + 2 * dy)) == pytest.approx(0.9)


def test_wall_clamp_merges_outcomes():
    spec = spec30()
    model = build_gridworld(spec)
    east = ACTION_NAMES.index("east")
    s = spec.state_index(spec.width - 2, 3)
    # both the 1-cell and 2-cell displacement truncate to the wall column
    assert t_prob(model, s, east, spec.state_index(spec.width - 1, 3)) == pytest.approx(1.0)
    s_edge = spec.state_index(spec.width - 1, 3)
    assert t_prob(model, s_edge, east, s_edge) == pytest.approx(1.0)


def test_all_rows_stochastic():
    model = build_gridworld(GridSpec(width=7, height=5, start_cells={(0, 0): 1.0},
                                     goal_cell=(6, 4)))
    for s in range(model.n_states):
        for a in range(model.n_actions):
            _, probs = transition_row(model, s, a)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            _, zprobs = observation_row(model, s, a)
            assert zprobs.sum() == pytest.approx(1.0, abs=1e-12)


def test_short_corridor_two_speed():
    spec = GridSpec(width=3, height=1, start_cells={(0, 0): 1.0}, goal_cell=(2, 0))
    model = build_gridworld(spec)
    east = ACTION_NAMES.index("east")
    assert t_prob(model, 0, east, 1) == pytest.approx(0.1)
    assert t_prob(model, 0, east, 2) == pytest.approx(0.9)
    # from the middle cell both outcomes land on the goal column
    assert t_prob(model, 1, east, 2) == pytest.approx(1.0)


def test_goal_absorption_and_rewards():
    spec = spec30()
    model = build_gridworld(spec)
    goal = spec.state_index(*spec.goal_cell)
    term = spec.terminal_state
    for a in range(model.n_actions):
        assert t_prob(model, goal, a, term) == pytest.approx(1.0)
        assert model.reward(goal, a) == 1000.0
        assert t_prob(model, term, a, term) == pytest.approx(1.0)
        assert model.reward(term, a) == 0.0
        assert model.reward(spec.state_index(4, 4), a) == -1.0
    assert term in model.absorbing_zero


def test_terminal_observation_is_distinct():
    spec = GridSpec(width=4, height=4, start_cells={(0, 0): 1.0}, goal_cell=(3, 3))
    model = build_gridworld(spec)
    term = spec.terminal_state
    done = model.obs_names.index("done")
    assert model.obs_support[term] == frozenset({done})
    for s in range(spec.n_cells):
        assert done not in model.obs_support[s]


def test_block_membership():
    assert len({block_observation(Cell(x, y)) for x, y in
                [(0, 0), (1, 0), (0, 1), (1, 1)]}) == 1
    assert block_observation(Cell(2, 0)) != block_observation(Cell(1, 0))


def test_block_partition_covers_grid_once():
    spec = GridSpec(width=9, height=6, start_cells={(0, 0): 1.0}, goal_cell=(8, 5))
    seen = {}
    for s in range(spec.n_cells):
        b = block_observation(spec.state_cell(s))
        seen.setdefault(b, []).append(s)
    assert sum(len(v) for v in seen.values()) == spec.n_cells
    for (bx, by), cells in seen.items():
        for s in cells:
            c = spec.state_cell(s)
            assert c.x // 2 == bx and c.y // 2 == by


def test_cell_distance_values():
    # cell-center distances as the shield measures them: zero-buffer margins
    positions = cell_positions(spec30())

    def dist(cell, point):
        state = spec30().state_index(cell.x, cell.y)
        return constraint_values(positions[[state]], [point], epsilon=0.0)[0]

    assert dist(Cell(0, 0), (3.0, 4.0)) == pytest.approx(5.0)
    assert dist(Cell(18, 4), (17.334, 9.711)) == pytest.approx(5.7497, abs=1e-3)
    assert dist(Cell(7, 2), (7.0, 2.0)) == 0.0
    p = (1.25, -0.5)
    assert dist(Cell(0, 0), p) == pytest.approx(math.dist(p, (0.0, 0.0)), abs=1e-12)


def test_cell_positions_terminal_is_nan():
    spec = GridSpec(width=4, height=3, start_cells={(0, 0): 1.0}, goal_cell=(3, 2))
    pos = cell_positions(spec)
    assert pos.shape == (13, 2)
    assert np.isnan(pos[spec.terminal_state]).all()
    assert tuple(pos[spec.state_index(2, 1)]) == (2.0, 1.0)


@pytest.mark.parametrize("width, height", [(1, 1), (1, 6), (6, 1), (37, 5)])
def test_cell_positions_equal_the_cell_centers(width, height):
    spec = GridSpec(width=width, height=height, start_cells={(0, 0): 1.0},
                    goal_cell=(width - 1, height - 1))
    expected = [spec.state_cell(s).center for s in range(spec.n_cells)]
    pos = cell_positions(spec)
    assert pos.dtype == np.float64 and pos.shape == (spec.n_cells + 1, 2)
    assert list(map(tuple, pos[:-1].tolist())) == expected
    assert np.isnan(pos[-1]).all()


def test_belief_supports_stay_inside_one_block():
    spec = GridSpec(width=8, height=8, start_cells={(0, 0): 1.0}, goal_cell=(7, 7))
    model = build_gridworld(spec)
    rng = random.Random(5)
    for _ in range(30):
        b = BeliefState({spec.state_index(rng.randrange(8), rng.randrange(8)): 1.0})
        s = next(iter(belief_support(b)))
        for _ in range(12):
            a = rng.randrange(model.n_actions)
            s, o, _ = model.generative_step(s, a, rng)
            b = belief_update(model, b, a, o)
            support = belief_support(b)
            assert len(support) <= 4
            cells = [spec.state_cell(x) for x in support if x < spec.n_cells]
            assert len({block_observation(c) for c in cells}) <= 1
            if s == spec.terminal_state:
                break


def test_obs_noise_rows():
    spec = GridSpec(width=8, height=8, start_cells={(0, 0): 1.0}, goal_cell=(7, 7),
                    obs_noise=0.2)
    model = build_gridworld(spec)
    s = spec.state_index(4, 4)       # interior block with 4 neighbors
    idxs, probs = observation_row(model, s, 0)
    assert probs.sum() == pytest.approx(1.0)
    assert probs.max() == pytest.approx(0.8)
    assert len(idxs) == 5
    assert len(model.obs_support[s]) == 5


def test_equal_observation_rows_are_stored_once():
    # 16 x 16 blocks and the terminal's "done" row; Z ignores the action
    model = build_gridworld(GridSpec(width=32, height=32))
    rows = [row for per_state in model._z for row in per_state]
    assert len(rows) == 1025 * 4
    assert len({id(row) for row in rows}) == 257


def test_initial_belief_weights():
    spec = GridSpec(width=4, height=4, start_cells={(0, 0): 3.0, (1, 0): 1.0},
                    goal_cell=(3, 3))
    b = initial_belief(spec)
    assert belief_prob(b, spec.state_index(0, 0)) == pytest.approx(0.75)
    assert belief_prob(b, spec.state_index(1, 0)) == pytest.approx(0.25)


def test_goal_greedy_policy_heads_toward_goal():
    spec = GridSpec(width=10, height=10, start_cells={(0, 0): 1.0}, goal_cell=(7, 2))
    table = goal_greedy_actions(spec)
    assert len(table) == build_gridworld(spec).n_states == spec.n_cells + 1
    assert ACTION_NAMES[table[spec.state_index(0, 2)]] == "east"
    assert ACTION_NAMES[table[spec.state_index(9, 2)]] == "west"
    assert ACTION_NAMES[table[spec.state_index(7, 9)]] == "south"
    assert ACTION_NAMES[table[spec.state_index(7, 0)]] == "north"
    assert ACTION_NAMES[table[spec.state_index(4, 5)]] == "east"     # tie: x axis
    assert ACTION_NAMES[table[spec.state_index(6, 9)]] == "south"    # larger y offset
    assert table[spec.state_index(7, 2)] == 0                        # the goal cell
    assert table[spec.terminal_state] == 0


@pytest.mark.parametrize("kw", [
    dict(goal_cell=(30, 0)),
    dict(near_prob=0.2),                       # 0.2 + 0.9 != 1
    dict(start_cells={(-1, 0): 1.0}),
    dict(start_cells={}),
    dict(start_cells={(0, 0): 0.0}),
    dict(width=0),
    dict(obs_noise=1.5),
])
def test_invalid_specs_rejected(kw):
    with pytest.raises(InvalidSpec):
        spec30(**kw)
