"""Safe POMDP online planning among dynamic agents.

Adaptive conformal prediction regions around agent-trajectory predictors,
belief-support safety shields computed by backward induction, and a shielded
particle-based online planner, plus a gridworld testbed and an experiment
harness with a CLI. The names exported here are the ones the harness and the
CLI are built from.
"""

from .acp import AcpEstimator
from .errors import (
    AllActionsShielded,
    HistoryTooShort,
    InvalidSpec,
    ParticleDeprivation,
)
from .gridworld import (
    GridSpec,
    build_gridworld,
    cell_positions,
    goal_greedy_actions,
    initial_belief,
)
from .harness import (
    METHODS,
    acp_coverage_run,
    format_table,
    load_config,
    load_grid,
    run_benchmark,
    run_episode,
    write_aggregate_csv,
    write_raw_csv,
)
from .planner import Planner, PlannerConfig, fallback_action
from .shield import (
    Bsts,
    Shield,
    compute_winning_regions,
    keeps_winning,
    unsafe_sets,
    verify_winning_regions,
)
from .trajectory import (
    load_trajectories,
    make_predictor,
    synth_trajectories,
)

__version__ = "0.1.0"

__all__ = [
    "METHODS",
    "AcpEstimator",
    "AllActionsShielded",
    "Bsts",
    "GridSpec",
    "HistoryTooShort",
    "InvalidSpec",
    "ParticleDeprivation",
    "Planner",
    "PlannerConfig",
    "Shield",
    "acp_coverage_run",
    "build_gridworld",
    "cell_positions",
    "compute_winning_regions",
    "fallback_action",
    "format_table",
    "goal_greedy_actions",
    "initial_belief",
    "keeps_winning",
    "load_config",
    "load_grid",
    "load_trajectories",
    "make_predictor",
    "run_benchmark",
    "run_episode",
    "synth_trajectories",
    "unsafe_sets",
    "verify_winning_regions",
    "write_aggregate_csv",
    "write_raw_csv",
]
