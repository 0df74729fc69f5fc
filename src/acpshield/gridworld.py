"""Gridworld benchmark environment built as a discrete POMDP.

A robot on a width x height grid moves east, south, west, or north; each
move covers one cell with ``near_prob`` and two cells with ``far_prob``,
truncated at walls. State s is the cell (s % width, s // width). The
robot senses only the 2x2 block containing its cell, so belief supports
stay inside a single block (at most four cells); the model is built by
integer arithmetic on these indices, one observation row per block.
Reaching the goal cell pays ``goal_reward`` and absorbs into a terminal
state with its own observation. Collision penalties are not part of the
model: they depend on the moving agents, so the experiment harness applies
them to realized returns instead (the model itself must stay stationary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec, is_int, require_int
from .pomdp import BeliefState, PomdpModel

# action order: east (+x), south (-y), west (-x), north (+y)
ACTION_NAMES = ("east", "south", "west", "north")
ACTION_DELTAS = ((1, 0), (0, -1), (-1, 0), (0, 1))


@dataclass
class GridSpec:
    """Geometry, motion probabilities, and rewards of the benchmark grid."""

    width: int = 20
    height: int = 20
    start_cells: dict = field(default_factory=lambda: {(1, 1): 1.0})  # (x, y) -> weight
    goal_cell: tuple = None      # (x, y); None is (width - 2, height - 2)
    step_reward: float = -1.0
    goal_reward: float = 1000.0
    collision_reward: float = -10.0
    near_prob: float = 0.1
    far_prob: float = 0.9
    obs_noise: float = 0.0       # probability of reporting an adjacent block

    def __post_init__(self):
        require_int("width", self.width, 1)
        require_int("height", self.height, 1)
        # every check below is written so that NaN fails it
        if not abs(self.near_prob + self.far_prob - 1.0) <= 1e-9:
            raise InvalidSpec(
                f"near_prob + far_prob = {self.near_prob + self.far_prob}, expected 1")
        if not (self.near_prob >= 0.0 and self.far_prob >= 0.0):
            raise InvalidSpec("motion probabilities must be nonnegative")
        for name in ("step_reward", "goal_reward", "collision_reward"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSpec(f"{name} {getattr(self, name)} is not finite")
        if not (0.0 <= self.obs_noise < 1.0):
            raise InvalidSpec(f"obs_noise {self.obs_noise} outside [0, 1)")
        if not self.start_cells:
            raise InvalidSpec("start_cells must be nonempty")
        if self.goal_cell is None:
            self.goal_cell = (self.width - 2, self.height - 2)
        self.goal_cell = self._cell("goal cell", self.goal_cell)
        clean = {}
        for xy, w in self.start_cells.items():
            cell = self._cell("start cell", xy)
            if not 0 < w < math.inf:
                raise InvalidSpec(f"start cell {xy} has weight {w}, not in (0, inf)")
            clean[cell] = float(w)
        self.start_cells = clean

    def _cell(self, name, xy):
        """``xy`` as an (x, y) pair of ints inside the grid, else InvalidSpec."""
        if not (isinstance(xy, (tuple, list)) and len(xy) == 2 and all(map(is_int, xy))):
            raise InvalidSpec(f"{name} {xy!r} is not an (x, y) pair of ints")
        if not self.contains(*xy):
            raise InvalidSpec(f"{name} {tuple(xy)} outside the grid")
        return (int(xy[0]), int(xy[1]))

    def contains(self, x, y):
        return 0 <= x < self.width and 0 <= y < self.height

    @property
    def n_cells(self):
        return self.width * self.height

    @property
    def terminal_state(self):
        """Index of the absorbing post-goal state."""
        return self.n_cells

    def state_index(self, x, y):
        if not self.contains(x, y):
            raise InvalidSpec(f"cell ({x},{y}) outside the grid")
        return y * self.width + x


def cell_positions(spec):
    """(n_states, 2) array of cell centers; the terminal row is NaN.

    NaN marks states without a spatial embedding: their distance to any
    agent is treated as +inf downstream, so they are never unsafe.
    """
    pos = np.full((spec.n_cells + 1, 2), np.nan)
    s = np.arange(spec.n_cells)
    pos[:-1, 0] = s % spec.width
    pos[:-1, 1] = s // spec.width
    return pos


def build_gridworld(spec):
    """Construct the benchmark PomdpModel from a GridSpec.

    States are the grid cells (index y*width + x) plus one absorbing
    terminal. Each move reaches one cell away with near_prob and two with
    far_prob; displacements truncate at walls and merged outcomes keep rows
    stochastic. The goal cell pays goal_reward and moves to the terminal
    under every action; every other cell pays step_reward.

    Cell (x, y) observes block (y // 2) * ceil(width / 2) + x // 2, named
    ``b{x // 2}_{y // 2}``. With obs_noise the block reports itself with
    1 - obs_noise and each existing east, west, north and south neighbour
    block, in that order, with an equal share of obs_noise.
    """
    width, height = spec.width, spec.height
    bw, bh = (width + 1) // 2, (height + 1) // 2
    terminal = spec.terminal_state
    goal = spec.state_index(*spec.goal_cell)
    obs_names = [f"b{b % bw}_{b // bw}" for b in range(bw * bh)] + ["done"]
    state_names = [f"c{s % width}_{s // width}" for s in range(spec.n_cells)]
    state_names.append("terminal")

    obs_rows = []                 # per block; every cell and action shares it
    for b in range(bw * bh):
        bx, by = b % bw, b // bw
        adjacent = [n for n, inside in ((b + 1, bx + 1 < bw), (b - 1, bx > 0),
                                        (b + bw, by + 1 < bh), (b - bw, by > 0))
                    if inside]
        if spec.obs_noise == 0.0 or not adjacent:
            obs_rows.append([(b, 1.0)])
        else:
            share = spec.obs_noise / len(adjacent)
            obs_rows.append([(b, 1.0 - spec.obs_noise)] + [(n, share) for n in adjacent])

    # each move's near and far target, clamped, for every cell at once
    cells = np.arange(spec.n_cells)
    x, y = cells % width, cells // width
    cell_obs = [obs_rows[b] for b in ((y // 2) * bw + x // 2).tolist()]
    near_prob, far_prob = spec.near_prob, spec.far_prob
    t_rows, z_rows = {}, {}
    for a, (dx, dy) in enumerate(ACTION_DELTAS):
        near, far = ((np.clip(y + k * dy, 0, height - 1) * width
                      + np.clip(x + k * dx, 0, width - 1)).tolist() for k in (1, 2))
        keys = [(s, a) for s in range(spec.n_cells)]
        t_rows.update(zip(keys, [[(n, 1.0)] if n == f else [(n, near_prob), (f, far_prob)]
                                 for n, f in zip(near, far)]))
        z_rows.update(zip(keys, cell_obs))
    rewards = dict.fromkeys(t_rows, spec.step_reward)
    for a in range(len(ACTION_DELTAS)):
        t_rows[(goal, a)] = [(terminal, 1.0)]
        rewards[(goal, a)] = spec.goal_reward
        t_rows[(terminal, a)] = [(terminal, 1.0)]
        z_rows[(terminal, a)] = [(len(obs_names) - 1, 1.0)]

    return PomdpModel(state_names, ACTION_NAMES, obs_names, t_rows, z_rows,
                      rewards, discount=0.95)


def initial_belief(spec):
    """Normalized belief over the weighted start cells."""
    total = sum(spec.start_cells.values())
    return BeliefState({spec.state_index(x, y): w / total
                        for (x, y), w in spec.start_cells.items()})


def goal_greedy_actions(spec):
    """Rollout action table steering toward the goal cell, one entry per state.

    A cell takes the action along the axis with the larger remaining offset
    to the goal, the x axis on ties; the goal cell and the terminal state
    take action 0. The planner's rollouts read it as a cheap domain
    heuristic.
    """
    gx, gy = spec.goal_cell
    table = []
    for s in range(spec.n_cells):
        dx, dy = gx - s % spec.width, gy - s // spec.width
        if dx != 0 and abs(dx) >= abs(dy):
            table.append(0 if dx > 0 else 2)      # east / west
        elif dy != 0:
            table.append(3 if dy > 0 else 1)      # north / south
        else:
            table.append(0)                       # the goal cell
    table.append(0)                               # the terminal state
    return tuple(table)
