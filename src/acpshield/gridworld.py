"""Gridworld benchmark environment built as a discrete POMDP.

A robot on a width x height grid moves east, south, west, or north; each
move covers one cell with ``near_prob`` and two cells with ``far_prob``,
truncated at walls. The robot senses only the 2x2 block containing its
cell, so belief supports stay inside a single block (at most four cells).
Reaching the goal cell pays ``goal_reward`` and absorbs into a terminal
state with its own observation. Collision penalties are not part of the
model: they depend on the moving agents, so the experiment harness applies
them to realized returns instead (the model itself must stay stationary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec
from .pomdp import BeliefState, PomdpModel

# action order: east (+x), south (-y), west (-x), north (+y)
ACTION_NAMES = ("east", "south", "west", "north")
ACTION_DELTAS = ((1, 0), (0, -1), (-1, 0), (0, 1))


@dataclass(frozen=True)
class Cell:
    """Grid cell with integer coordinates; its spatial center is (x, y)."""

    x: int
    y: int

    @property
    def center(self):
        return (float(self.x), float(self.y))


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
        if self.width <= 0 or self.height <= 0:
            raise InvalidSpec(f"grid {self.width}x{self.height} must be positive")
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
        self.goal_cell = tuple(self.goal_cell)
        if not self.contains(*self.goal_cell):
            raise InvalidSpec(f"goal cell {self.goal_cell} outside the grid")
        clean = {}
        for xy, w in self.start_cells.items():
            x, y = xy
            if not self.contains(x, y):
                raise InvalidSpec(f"start cell {xy} outside the grid")
            if not 0 < w < math.inf:
                raise InvalidSpec(f"start cell {xy} has weight {w}, not in (0, inf)")
            clean[(int(x), int(y))] = float(w)
        self.start_cells = clean

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

    def state_cell(self, s):
        """Cell of a grid state; the terminal state has no cell."""
        if not (0 <= s < self.n_cells):
            raise InvalidSpec(f"state {s} is not a grid cell")
        return Cell(s % self.width, s // self.width)


def block_observation(cell):
    """2x2 block containing the cell; block origins sit at even coordinates."""
    return (cell.x // 2, cell.y // 2)


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


def _blocks(spec):
    """All block ids of the grid, in observation-index order."""
    bw = (spec.width + 1) // 2
    bh = (spec.height + 1) // 2
    return [(bx, by) for by in range(bh) for bx in range(bw)]


def _block_index(spec, block):
    bw = (spec.width + 1) // 2
    return block[1] * bw + block[0]


def _observation_row(spec, block, block_ids):
    """Observation distribution for a cell in ``block`` with optional noise."""
    if spec.obs_noise == 0.0:
        return [(_block_index(spec, block), 1.0)]
    bx, by = block
    adjacent = [b for b in ((bx + 1, by), (bx - 1, by), (bx, by + 1), (bx, by - 1))
                if b in block_ids]
    if not adjacent:
        return [(_block_index(spec, block), 1.0)]
    row = [(_block_index(spec, block), 1.0 - spec.obs_noise)]
    share = spec.obs_noise / len(adjacent)
    row.extend((_block_index(spec, b), share) for b in adjacent)
    return row


def build_gridworld(spec):
    """Construct the benchmark PomdpModel from a GridSpec.

    States are the grid cells (index y*width + x) plus one absorbing
    terminal. Each move reaches one cell away with near_prob and two with
    far_prob; displacements truncate at walls and merged outcomes keep rows
    stochastic. The goal cell pays goal_reward and moves to the terminal
    under every action; every other cell pays step_reward.
    """
    n_cells = spec.n_cells
    terminal = spec.terminal_state
    blocks = _blocks(spec)
    block_ids = set(blocks)
    obs_names = [f"b{bx}_{by}" for bx, by in blocks] + ["done"]
    done_obs = len(obs_names) - 1
    state_names = [f"c{s % spec.width}_{s // spec.width}" for s in range(n_cells)]
    state_names.append("terminal")
    goal = spec.state_index(*spec.goal_cell)

    t_rows = {}
    z_rows = {}
    rewards = {}
    for s in range(n_cells):
        cell = spec.state_cell(s)
        obs_row = _observation_row(spec, block_observation(cell), block_ids)
        for a, (dx, dy) in enumerate(ACTION_DELTAS):
            if s == goal:
                t_rows[(s, a)] = [(terminal, 1.0)]
                rewards[(s, a)] = spec.goal_reward
            else:
                near = (min(max(cell.x + dx, 0), spec.width - 1),
                        min(max(cell.y + dy, 0), spec.height - 1))
                far = (min(max(cell.x + 2 * dx, 0), spec.width - 1),
                       min(max(cell.y + 2 * dy, 0), spec.height - 1))
                s_near = spec.state_index(*near)
                s_far = spec.state_index(*far)
                if s_near == s_far:
                    t_rows[(s, a)] = [(s_near, 1.0)]
                else:
                    t_rows[(s, a)] = [(s_near, spec.near_prob), (s_far, spec.far_prob)]
                rewards[(s, a)] = spec.step_reward
            z_rows[(s, a)] = obs_row
    for a in range(len(ACTION_DELTAS)):
        t_rows[(terminal, a)] = [(terminal, 1.0)]
        z_rows[(terminal, a)] = [(done_obs, 1.0)]

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
