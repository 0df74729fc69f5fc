"""Episode runner, metrics, and benchmark grids.

Every step of an episode runs the same stages, in order:

1. observe: the agents' joint state, and the step's ``StepRecord``;
2. ACP: append the state, predict, then one estimator call that tests the
   radii issued for this step, adapts and issues the new radii with the
   prediction (``_acp_step``, also run by the warm-up and by
   ``acp_coverage_run``);
3. shield: the BSTS of the particle support (built every step on the
   episode's one map of support edges) through its safe supports: once a
   level is collected, one ``unsafe_sets`` call decides that level's
   lookahead q on the states it holds (F_q, the states whose
   ``constraint_values`` margin to the lookahead-q prediction is below
   the radius), and only the supports clear of F_q are expanded; then the
   step's one ``Shield``, built from the winning regions and the
   depth-indexed action table of one backward sweep, and the independent
   certificate check of that shield;
4. plan a certified action, or, when all are shielded, take the fallback,
   ranked by the level-1 margins of the F_1 decision;
5. soundness: the executed action must keep every successor winning;
6. execute the action in the simulator;
7. advance the particle root by the action and its observation.

Three methods share that loop: ``no-shield`` skips stages 2, 3 and 5 and
plans bare, ``shield-no-acp`` shields with zero radii (only the predicted
points themselves are avoided), and ``shield-acp`` shields with the
adaptive radii. An episode's safety, collision, deadlock and soundness
counts are summarised from its step records.

Episodes are deterministic functions of (config, run index): the agent
trajectories, the environment draws, and the planner each consume an
independent seed stream derived from them. Raw per-step rows carry no
timing, so identical configs reproduce identical CSV bytes; wall-clock
lives only in the aggregate table.
"""

from __future__ import annotations

import csv
import math
import random
import time
from collections import deque
from collections.abc import Mapping
from dataclasses import astuple, dataclass, field, fields, replace
from functools import cached_property

import numpy as np
import yaml

from .acp import (
    DEFAULT_ALPHA,
    DEFAULT_DELTA,
    DEFAULT_WINDOW,
    AcpEstimator,
)
from .errors import (
    AllActionsShielded,
    HistoryTooShort,
    InvalidSpec,
    ParticleDeprivation,
    require_int,
)
from .gridworld import (
    GridSpec,
    build_gridworld,
    cell_positions,
    goal_greedy_actions,
    initial_belief,
)
from .planner import Planner, PlannerConfig, fallback_action
from .shield import (
    Bsts,
    Shield,
    compute_winning_regions,
    constraint_values,
    keeps_winning,
    unsafe_sets,
    verify_winning_regions,
)
from .trajectory import (
    PREDICTORS,
    SYNTH_KINDS,
    load_trajectories,
    make_predictor,
    synth_trajectories,
)

METHODS = ("no-shield", "shield-no-acp", "shield-acp")
HISTORY_WINDOW = 8                # past joint agent states the predictors see


# -- configuration -----------------------------------------------------------


@dataclass
class AgentSetup:
    """Where the dynamic agents come from: synthesis or a trajectory CSV."""

    kind: str = "constant-velocity-with-noise"
    count: int = 5
    speed: float = 0.8
    noise: float = 0.3
    csv_path: str = None          # replaces synthesis when given
    scale: float = 1.0
    stride: int = 1

    def __post_init__(self):
        if self.kind not in SYNTH_KINDS:
            raise InvalidSpec(f"agent kind {self.kind!r} not one of {SYNTH_KINDS}")
        require_int("agents.count", self.count, 0)
        if not 0 <= self.speed < math.inf:
            raise InvalidSpec(f"agents.speed must be finite and >= 0, got {self.speed}")
        if not 0 <= self.noise < math.inf:
            raise InvalidSpec(f"agents.noise must be finite and >= 0, got {self.noise}")
        if not 0 < self.scale < math.inf:
            raise InvalidSpec(f"agents.scale must be finite and > 0, got {self.scale}")
        require_int("agents.stride", self.stride, 1)


@dataclass
class ExperimentConfig:
    """Everything one benchmark cell needs; defaults follow the benchmark."""

    grid: GridSpec
    agents: AgentSetup = field(default_factory=AgentSetup)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    label: str = "desk"
    method: str = "shield-acp"
    predictor: str = "constant-velocity"
    predictions_path: str = None
    horizon: int = 3
    delta: float = DEFAULT_DELTA
    epsilon: float = 0.5
    alpha: float = DEFAULT_ALPHA
    window: int = DEFAULT_WINDOW
    runs: int = 1
    max_steps: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidSpec(f"method {self.method!r} not one of {METHODS}")
        if self.predictor not in (*PREDICTORS, "replay"):
            raise InvalidSpec(f"predictor {self.predictor!r} not one of {(*PREDICTORS, 'replay')}")
        require_int("horizon", self.horizon, 1)
        if not (0.0 < self.delta < 1.0):
            raise InvalidSpec(f"delta {self.delta} outside (0, 1)")
        if not (0.0 < self.alpha < 1.0):
            raise InvalidSpec(f"alpha {self.alpha} outside (0, 1)")
        if not 0.0 < self.epsilon < math.inf:
            raise InvalidSpec(f"epsilon must be finite and > 0, got {self.epsilon}")
        require_int("window", self.window, 1)
        require_int("runs", self.runs, 1)
        require_int("max_steps", self.max_steps, 1)
        require_int("seed", self.seed, 0)
        if self.planner.max_depth < self.horizon:
            raise InvalidSpec(
                f"planner depth {self.planner.max_depth} below horizon {self.horizon}")


# -- per-step and per-episode records ------------------------------------------


@dataclass
class StepRecord:
    """One raw benchmark row; per-lookahead fields are tuples or None."""

    t: int
    state: int
    x: float
    y: float
    action: int                  # -1 on the terminal row
    c_value: float
    min_distance: float
    safe: bool
    deadlock: bool
    sound: bool                  # None when not checked
    done: str                    # "", "goal", "cap", "deprived"
    beta: tuple = None
    lam: tuple = None
    radius: tuple = None
    violated: tuple = None


@dataclass
class EpisodeResult:
    label: str
    method: str
    n_agents: int                 # most agents present at one timestep of the source
    run: int
    steps: int
    success: bool
    deprived: bool
    safety_rate: float
    min_distance: float
    collisions: int
    realized_return: float
    deadlocks: int
    soundness_checked: int
    soundness_violations: int
    certificate_failures: int
    coverage: dict
    coverage_tested: int
    mean_plan_seconds: float
    records: list


# -- seed streams and sources -----------------------------------------------------


def _stream_seed(cfg, run, stream):
    # streams: 0 agents, 1 environment, 2 planner; method never enters, so
    # paired runs see identical agent trajectories
    return int(np.random.SeedSequence([cfg.seed, run, stream]).generate_state(1)[0])


def episode_horizon(cfg):
    """Trajectory timesteps one episode consumes, warm-up included."""
    return cfg.window + cfg.horizon + cfg.max_steps + 2


def build_source(cfg, run):
    """The run's agent trajectories: synthesized, or loaded from CSV."""
    if cfg.agents.csv_path is not None:
        return load_trajectories(cfg.agents.csv_path, scale=cfg.agents.scale,
                                 frame_stride=cfg.agents.stride)
    bounds = (0.0, float(cfg.grid.width), 0.0, float(cfg.grid.height))
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, run, 0]))
    return synth_trajectories(cfg.agents.kind, cfg.agents.count, episode_horizon(cfg),
                              rng, bounds=bounds, speed=cfg.agents.speed,
                              noise=cfg.agents.noise)


# -- episode loop ------------------------------------------------------------------


def _acp_step(estimator, predictor, history, actual, horizon):
    """The ACP stage: append the state, predict, update the radii.

    Without an estimator (``shield-no-acp``) the radii are zero. Returns
    (radii, prediction): a tuple of floats, one per lookahead, and the
    PredictionSet, None while the history is too short for the predictor.
    """
    history.append(actual)
    try:
        prediction = predictor(list(history), horizon)
    except HistoryTooShort:
        prediction = None
    radii = (0.0,) * horizon if estimator is None else estimator.step(actual, prediction)
    return radii, prediction


def _make_predictor(cfg):
    """The config's predictor; None without a shield, which predicts nothing."""
    if cfg.method == "no-shield":
        return None
    return make_predictor(cfg.predictor, cfg.predictions_path, cfg.agents.scale)


class _UnsafeOverlay(Mapping):
    """The full-grid unsafe cells of one step, {tau: sorted states}, in tau
    order: ``unsafe_sets`` of the step's inputs, computed on the first read.

    The shield decides F_tau only on its BSTS's states; plots, dumps and
    checks that want every cell read them here, and a step hook that never
    reads them pays nothing. Holds the step's immutable inputs only.
    """

    def __init__(self, positions, prediction, radii, epsilon):
        self._inputs = (positions, prediction, radii, epsilon)

    @cached_property
    def _cells(self):
        return {tau: sorted(f) for tau, f in unsafe_sets(*self._inputs).items()}

    def __getitem__(self, tau):
        return self._cells[tau]

    def __iter__(self):
        return iter(self._cells)

    def __len__(self):
        return len(self._cells)


def _read_only(array):
    view = array.view()
    view.flags.writeable = False
    return view


def run_episode(cfg, run=0, model=None, source=None, step_hook=None, predictor=None):
    """Execute one episode, stage by stage; deterministic given (cfg, run).

    ``model``, ``source`` and ``predictor`` are built from the config when
    not given. ``step_hook(info)``, when given, receives a
    per-planning-step dict with the belief support, predictions, radii,
    and unsafe cells (the overlay data for plots); it must not mutate its
    argument. The predictions are read-only views of the prediction's
    (n, 2) position arrays, one per lookahead, which the estimator keeps
    to score later; ``run --dump`` writes them as lists. The unsafe cells,
    a read-only mapping, cover the full grid and are computed when first
    read, so a hook that ignores them adds no work to the step.
    """
    if run < 0:
        raise InvalidSpec(f"run index must be >= 0, got {run}")
    if model is None:
        model = build_gridworld(cfg.grid)
    if source is None:
        source = build_source(cfg, run)
    if predictor is None:
        predictor = _make_predictor(cfg)
    positions = cell_positions(cfg.grid)
    positions.flags.writeable = False
    goal_state = cfg.grid.state_index(*cfg.grid.goal_cell)
    shielded = cfg.method != "no-shield"

    env_rng = random.Random(_stream_seed(cfg, run, 1))
    planner_cfg = replace(cfg.planner, seed=_stream_seed(cfg, run, 2))
    rollout_actions = (goal_greedy_actions(cfg.grid)
                       if planner_cfg.rollout_policy == "goal-greedy" else None)
    planner = Planner(model, planner_cfg, rollout_actions)

    belief = initial_belief(cfg.grid)
    start_states = sorted(belief.probs)
    weights = [belief.probs[s] for s in start_states]
    state = env_rng.choices(start_states, weights)[0]
    particles = planner.rng.choices(start_states, weights, k=planner_cfg.particle_count)
    root = planner.make_root(particles)

    estimator = AcpEstimator(cfg.horizon, cfg.alpha, cfg.delta, cfg.window) \
        if cfg.method == "shield-acp" else None
    history = deque(maxlen=HISTORY_WINDOW)

    # grace period: agents move alone while the conformal windows fill, so
    # the robot starts with finite radii on every lookahead
    t0 = cfg.window + cfg.horizon
    if shielded:
        for t in range(t0):
            _acp_step(estimator, predictor, history, source.agents_at(t), cfg.horizon)

    records = []
    expansions = {}               # support -> successor groups, shared by every BSTS
    plan_secs = []
    realized = 0.0
    cert_failures = 0
    deprived = False

    t = t0
    while True:
        # observe
        actual = source.agents_at(t)
        pos = positions[state]
        min_d = float(constraint_values(pos[None], actual.positions, 0.0)[0])
        c_val = min_d - cfg.epsilon
        rec = StepRecord(t=t, state=state, x=float(pos[0]), y=float(pos[1]),
                         action=-1, c_value=c_val, min_distance=min_d,
                         safe=c_val >= 0.0, deadlock=False, sound=None, done="")
        records.append(rec)
        if c_val < 0.0:
            realized += cfg.grid.collision_reward
        if state == goal_state or deprived or t - t0 >= cfg.max_steps:
            rec.done = ("deprived" if deprived else
                        "goal" if state == goal_state else "cap")
            if rec.done == "goal":
                realized += cfg.grid.goal_reward
            break

        started = time.perf_counter()
        support = root.support
        if shielded:
            # ACP
            rec.radius, prediction = _acp_step(estimator, predictor, history, actual,
                                               cfg.horizon)
            if estimator is not None:
                rec.beta, rec.lam, rec.violated = zip(*estimator.last)
            # shield: F_q is decided level by level, inside the BSTS build
            bsts = Bsts(model, support, cfg.horizon, expansions,
                        lambda q, states: unsafe_sets(positions, prediction, rec.radius,
                                                      cfg.epsilon, within={q: states})[q])
            shield = Shield(bsts, *compute_winning_regions(bsts))
            cert_failures += len(verify_winning_regions(shield, bsts.f_sets))
            # plan, or fall back
            try:
                rec.action = planner.plan(root, shield)
            except AllActionsShielded:
                rec.action = fallback_action(model, support, bsts.f_sets[1])
                rec.deadlock = True
            # soundness
            if not rec.deadlock and all(math.isfinite(r) for r in rec.radius):
                rec.sound = keeps_winning(shield, support, 0, rec.action)
        else:
            rec.action = planner.plan(root)
        if step_hook is not None:
            info = {"t": t, "state": state, "action": rec.action,
                    "deadlock": rec.deadlock, "support": sorted(support)}
            if shielded:
                info["radii"] = list(rec.radius)
                info["predicted"] = [_read_only(p.positions) for p in prediction.predicted]
                info["unsafe"] = _UnsafeOverlay(positions, prediction, rec.radius,
                                                cfg.epsilon)
            step_hook(info)

        # execute
        realized += model.reward(state, rec.action)
        state, obs, _ = model.generative_step(state, rec.action, env_rng)
        # advance; the particle advance is part of every step's planning cost
        try:
            root = planner.advance_root(root, rec.action, obs)
        except ParticleDeprivation:
            deprived = True
        plan_secs.append(time.perf_counter() - started)
        t += 1

    safe = sum(rec.safe for rec in records)
    coverage = ({tau: (estimator.coverage(tau), estimator.tested_count(tau))
                 for tau in range(1, cfg.horizon + 1)}
                if estimator is not None else {})
    return EpisodeResult(
        label=cfg.label, method=cfg.method, n_agents=source.max_agents(), run=run,
        steps=len(records) - 1, success=records[-1].done == "goal", deprived=deprived,
        safety_rate=safe / len(records),
        min_distance=min(rec.min_distance for rec in records),
        collisions=len(records) - safe, realized_return=realized,
        deadlocks=sum(rec.deadlock for rec in records),
        soundness_checked=sum(rec.sound is not None for rec in records),
        soundness_violations=sum(rec.sound is False for rec in records),
        certificate_failures=cert_failures, coverage=coverage,
        coverage_tested=estimator.tested_count() if estimator is not None else 0,
        mean_plan_seconds=sum(plan_secs) / len(plan_secs) if plan_secs else 0.0,
        records=records)


# -- benchmark grids ------------------------------------------------------------------


@dataclass
class AggregateRow:
    """One benchmark table row: per (label, method, agent count) statistics."""

    label: str
    method: str
    n_agents: int
    runs: int
    success_rate: float
    mean_steps: float
    mean_safety_rate: float
    std_safety_rate: float
    mean_min_distance: float
    std_min_distance: float
    mean_collisions: float
    deadlock_episodes: int
    soundness_checked: int
    soundness_violations: int
    certificate_failures: int
    coverage: float              # pooled over lookaheads; nan if untested
    mean_plan_seconds: float


def aggregate(results):
    """Collapse one homogeneous result list into its table row."""
    if not results:
        raise InvalidSpec("cannot aggregate zero episodes")
    head = results[0]
    safety = np.array([r.safety_rate for r in results])
    dists = np.array([min(r.min_distance, math.inf) for r in results])
    finite = dists[np.isfinite(dists)]
    tested = sum(n for r in results for _, n in r.coverage.values())
    if tested:
        violations = sum(round((1.0 - c) * n)
                         for r in results for c, n in r.coverage.values() if n)
        pooled = 1.0 - violations / tested
    else:
        pooled = math.nan
    return AggregateRow(
        label=head.label, method=head.method, n_agents=head.n_agents,
        runs=len(results),
        success_rate=float(np.mean([r.success for r in results])),
        mean_steps=float(np.mean([r.steps for r in results])),
        mean_safety_rate=float(safety.mean()),
        std_safety_rate=float(safety.std(ddof=1)) if len(results) > 1 else 0.0,
        mean_min_distance=float(finite.mean()) if len(finite) else math.inf,
        std_min_distance=(float(finite.std(ddof=1)) if len(finite) > 1 else 0.0),
        mean_collisions=float(np.mean([r.collisions for r in results])),
        deadlock_episodes=sum(1 for r in results if r.deadlocks),
        soundness_checked=sum(r.soundness_checked for r in results),
        soundness_violations=sum(r.soundness_violations for r in results),
        certificate_failures=sum(r.certificate_failures for r in results),
        coverage=pooled,
        mean_plan_seconds=float(np.mean([r.mean_plan_seconds for r in results])))


def run_many(cfg, model=None, source=None):
    """All runs of one config. CSV sources and the predictor are built once
    and shared."""
    if model is None:
        model = build_gridworld(cfg.grid)
    if source is None and cfg.agents.csv_path is not None:
        source = build_source(cfg, 0)
    predictor = _make_predictor(cfg)
    return [run_episode(cfg, run, model, source, predictor=predictor)
            for run in range(cfg.runs)]


def run_benchmark(configs):
    """Run a config grid; returns (all episode results, aggregate rows)."""
    if not configs:
        raise InvalidSpec("benchmark needs at least one configuration")
    all_results = []
    rows = []
    for cfg in configs:
        results = run_many(cfg)
        all_results.extend(results)
        rows.append(aggregate(results))
    return all_results, rows


def expand_grid(base, methods=None, agent_counts=None):
    """Benchmark cells: one config per (method, agent count) combination.

    A CSV log sets its own agents, so an agent-count list needs synthesis.
    """
    if agent_counts and base.agents.csv_path is not None:
        raise InvalidSpec(f"bench.agent_counts {list(agent_counts)} cannot resize the "
                          f"agents of the log {base.agents.csv_path}")
    methods = list(methods) if methods else [base.method]
    agent_counts = list(agent_counts) if agent_counts else [base.agents.count]
    grid = []
    for count in agent_counts:
        for method in methods:
            grid.append(replace(base, method=method,
                                agents=replace(base.agents, count=count)))
    return grid


# -- CSV and table output ----------------------------------------------------------------


RAW_COLUMNS = ("label", "method", "n_agents", "run", *(f.name for f in fields(StepRecord)))


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ";".join(_fmt(v) for v in value)
    return str(value)


def write_raw_csv(results, path):
    """Per-step rows for every episode; no timing, so reruns are identical."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RAW_COLUMNS)
        for r in results:
            writer.writerows([_fmt(v) for v in (r.label, r.method, r.n_agents, r.run,
                                                *astuple(rec))] for rec in r.records)


AGGREGATE_COLUMNS = tuple(f.name for f in fields(AggregateRow))


def write_aggregate_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(AGGREGATE_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(getattr(row, col)) for col in AGGREGATE_COLUMNS])


def format_table(rows):
    """Fixed-width text rendering of the aggregate rows."""
    headers = ("label", "method", "N", "runs", "success", "steps", "safety",
               "min dist", "deadlocks", "coverage", "s/step")
    lines = []
    body = [(row.label, row.method, str(row.n_agents), str(row.runs),
             f"{row.success_rate:.2f}", f"{row.mean_steps:.1f}",
             f"{row.mean_safety_rate:.4f}",
             f"{row.mean_min_distance:.2f}" if math.isfinite(row.mean_min_distance) else "inf",
             str(row.deadlock_episodes),
             f"{row.coverage:.3f}" if not math.isnan(row.coverage) else "-",
             f"{row.mean_plan_seconds:.4f}") for row in rows]
    widths = [max(len(h), *(len(b[i]) for b in body)) if body else len(h)
              for i, h in enumerate(headers)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for b in body:
        lines.append("  ".join(b[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


# -- ACP-only simulation --------------------------------------------------------------


def acp_coverage_run(steps=10_000, horizon=3, n_agents=3, kind="random-walk",
                     speed=0.1, noise=0.0, predictor="constant-velocity",
                     delta=DEFAULT_DELTA, alpha=DEFAULT_ALPHA,
                     window=DEFAULT_WINDOW, seed=0,
                     bounds=(0.0, 200.0, 0.0, 200.0)):
    """Run the conformal estimator alone over a synthetic agent stream.

    Returns {tau: (empirical coverage, tested count)}. The planner plays no
    part: this isolates the coverage property of the radii themselves.
    """
    if seed < 0:
        raise InvalidSpec(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0, 0]))
    source = synth_trajectories(kind, n_agents, steps, rng, bounds=bounds,
                                speed=speed, noise=noise)
    predict = make_predictor(predictor)
    estimator = AcpEstimator(horizon, alpha, delta, window)
    history = deque(maxlen=HISTORY_WINDOW)
    for t in range(steps):
        _acp_step(estimator, predict, history, source.agents_at(t), horizon)
    return {tau: (estimator.coverage(tau), estimator.tested_count(tau))
            for tau in range(1, horizon + 1)}


# -- config files ------------------------------------------------------------------------


def _optional(kind):
    """``kind``, where YAML null leaves the key unset."""
    return lambda value, key: None if value is None else _typed(value, kind, key)


def _start_cells(value, key):
    """grid.start: one [x, y] cell, or a list of weighted [x, y, w] cells."""
    if isinstance(value, (list, tuple)) and value and isinstance(value[0], (list, tuple)):
        return {(x, y): w for x, y, w in _typed(value, [(int, int, float)], key)}
    return {_typed(value, (int, int), key): 1.0}


# the YAML schema: section (None for the top level) -> key -> (field, kind).
# The fields are GridSpec's, AgentSetup's, PlannerConfig's, ExperimentConfig's
# (top level, acp, run) and expand_grid's (bench); a key left out keeps the
# field's default.
_SCHEMA = {
    None: {"label": ("label", str), "seed": ("seed", int), "runs": ("runs", int),
           "method": ("method", str)},
    "grid": {"width": ("width", int), "height": ("height", int),
             "start": ("start_cells", _start_cells), "goal": ("goal_cell", (int, int)),
             "step_reward": ("step_reward", float), "goal_reward": ("goal_reward", float),
             "collision_reward": ("collision_reward", float),
             "near_prob": ("near_prob", float), "far_prob": ("far_prob", float),
             "obs_noise": ("obs_noise", float)},
    "agents": {"kind": ("kind", str), "count": ("count", int), "speed": ("speed", float),
               "noise": ("noise", float), "csv": ("csv_path", _optional(str)),
               "scale": ("scale", float), "stride": ("stride", int)},
    "acp": {"predictor": ("predictor", str), "predictions": ("predictions_path", _optional(str)),
            "horizon": ("horizon", int), "delta": ("delta", float),
            "epsilon": ("epsilon", float), "alpha": ("alpha", float),
            "window": ("window", int)},
    "planner": {"simulations": ("num_simulations", int), "depth": ("max_depth", int),
                "ucb": ("ucb_constant", float), "particles": ("particle_count", int),
                "rollout": ("rollout_policy", str)},
    "run": {"max_steps": ("max_steps", int)},
    "bench": {"methods": ("methods", _optional([str])),
              "agent_counts": ("agent_counts", _optional([int]))},
}


def _unknown_keys(mapping, known, where):
    unknown = sorted(str(k) for k in mapping if k not in known)
    if unknown:
        raise InvalidSpec(f"unknown config key(s) in {where}: {', '.join(unknown)}")


def _typed(value, kind, key):
    """``value`` as ``kind``, or InvalidSpec naming ``key``.

    A kind is a type; a tuple of kinds, read from a list of that length; a
    one-kind list, read from a list of any length; or a function of (value,
    key). Strings must be strings. Numbers reject booleans; ints reject the
    non-integral floats that ``int()`` would truncate; floats reject NaN and
    the infinities.
    """
    if isinstance(kind, (tuple, list)):
        if isinstance(value, (list, tuple)):
            kinds = kind * len(value) if isinstance(kind, list) else kind
            if len(value) == len(kinds):
                return tuple(_typed(v, k, key) for v, k in zip(value, kinds))
        wanted = "a list" if isinstance(kind, list) else f"a list of {len(kind)} numbers"
    elif not isinstance(kind, type):
        return kind(value, key)
    else:
        if kind is str:
            if isinstance(value, str):
                return value
        elif not (isinstance(value, bool) or kind is int and isinstance(value, float)
                  and not value.is_integer()):
            try:
                number = kind(value)
            except (TypeError, ValueError, OverflowError):
                pass
            else:
                if kind is int or math.isfinite(number):
                    return number
        wanted = f"a finite {kind.__name__}" if kind is float else f"of type {kind.__name__}"
    raise InvalidSpec(f"config key {key} must be {wanted}, got {value!r}")


def _parse(data, overrides=None):
    """(ExperimentConfig, expand_grid's keyword arguments) of a YAML-schema
    dict, with ``overrides`` as in ``load_config``."""
    if not isinstance(data, dict):
        raise InvalidSpec(f"config must be a mapping, got {type(data).__name__}")
    overrides = overrides or {}
    _unknown_keys(overrides, {f"{name}.{key}" if name else key
                              for name, keys in _SCHEMA.items() for key in keys},
                  "the overrides")
    overrides = {key: value for key, value in overrides.items() if value is not None}
    typed = {}
    for name, keys in _SCHEMA.items():
        section = data if name is None else data.get(name, {})
        if not isinstance(section, dict):
            raise InvalidSpec(f"config section {name!r} must be a mapping")
        known = keys if name else (*keys, *filter(None, _SCHEMA))
        _unknown_keys(section, known, f"section {name!r}" if name else "the top level")
        typed[name] = {}
        for key, (field_name, kind) in keys.items():
            where = f"{name}.{key}" if name else key
            if where in overrides or key in section:
                typed[name][field_name] = _typed(overrides.get(where, section.get(key)),
                                                 kind, where)
    cfg = ExperimentConfig(grid=GridSpec(**typed["grid"]), agents=AgentSetup(**typed["agents"]),
                           planner=PlannerConfig(**typed["planner"]),
                           **typed[None], **typed["acp"], **typed["run"])
    return cfg, typed["bench"]


def parse_config(data):
    """ExperimentConfig from a YAML-schema dict; unknown keys and bad values,
    the bench lists' included, raise InvalidSpec."""
    return _parse(data)[0]


def _read_yaml(path):
    with open(path) as fh:
        return yaml.safe_load(fh) or {}


def load_config(path, overrides=None):
    """Parse a YAML experiment file. ``overrides`` maps keys, qualified as in
    ``bench.methods``, to values that replace the file's; None leaves it. A
    key outside the schema raises InvalidSpec, whatever its value."""
    return _parse(_read_yaml(path), overrides)[0]


def load_grid(path, overrides=None):
    """A YAML experiment file's benchmark cells: its config expanded over the
    bench lists, which the ``bench.methods`` and ``bench.agent_counts``
    overrides replace."""
    cfg, bench = _parse(_read_yaml(path), overrides)
    return expand_grid(cfg, **bench)
