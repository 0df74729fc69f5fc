"""Episode runner, metrics, and benchmark grids.

Every step of an episode runs the same stages, in order:

1. observe: the agents' joint state, and the step's ``StepRecord``;
2. ACP: append the state, update the conformal radii, predict and buffer
   the prediction (``_acp_step``, also run by the warm-up and by
   ``acp_coverage_run``);
3. shield: unsafe sets, the BSTS of the particle support (kept per
   episode), the winning regions with their action table, and the
   certificate check when ``verify_certificates`` is set;
4. plan a certified action, or take the fallback when all are shielded;
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
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .acp import (
    DEFAULT_ALPHA,
    DEFAULT_DELTA,
    DEFAULT_WINDOW,
    AcpEstimator,
    PredictionRegions,
)
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
    JointAgentState,
    load_trajectories,
    make_predictor,
    synth_trajectories,
)

METHODS = ("no-shield", "shield-no-acp", "shield-acp")


# -- configuration -----------------------------------------------------------


@dataclass
class AgentSetup:
    """Where the dynamic agents come from: synthesis or a trajectory CSV."""

    kind: str = "constant-velocity-with-noise"
    count: int = 5
    speed: float = 0.8
    noise: float = 0.3
    bounds: tuple = None          # None: the grid's extent
    csv_path: str = None          # replaces synthesis when given
    scale: float = 1.0
    stride: int = 1


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
    lipschitz: float = 1.0
    runs: int = 1
    max_steps: int = 300
    seed: int = 0
    verify_certificates: bool = False
    history_window: int = 8

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidSpec(f"method {self.method!r} not one of {METHODS}")
        if self.horizon < 1:
            raise InvalidSpec(f"horizon must be >= 1, got {self.horizon}")
        if not (0.0 < self.delta < 1.0):
            raise InvalidSpec(f"delta {self.delta} outside (0, 1)")
        if not (0.0 < self.alpha < 1.0):
            raise InvalidSpec(f"alpha {self.alpha} outside (0, 1)")
        if self.epsilon <= 0.0:
            raise InvalidSpec(f"epsilon must be > 0, got {self.epsilon}")
        if self.lipschitz <= 0.0:
            raise InvalidSpec(f"lipschitz must be > 0, got {self.lipschitz}")
        if self.window < 1:
            raise InvalidSpec(f"window must be >= 1, got {self.window}")
        if self.runs < 1:
            raise InvalidSpec(f"runs must be >= 1, got {self.runs}")
        if self.max_steps < 1:
            raise InvalidSpec(f"max_steps must be >= 1, got {self.max_steps}")
        if self.planner.max_depth < self.horizon:
            raise InvalidSpec(
                f"planner depth {self.planner.max_depth} below horizon {self.horizon}")
        if self.history_window < 2:
            raise InvalidSpec(f"history_window must be >= 2, got {self.history_window}")


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
    n_agents: int
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
    bounds = cfg.agents.bounds or (0.0, float(cfg.grid.width), 0.0, float(cfg.grid.height))
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, run, 0]))
    return synth_trajectories(cfg.agents.kind, cfg.agents.count, episode_horizon(cfg),
                              rng, bounds=bounds, speed=cfg.agents.speed,
                              noise=cfg.agents.noise)


def _source_step(source, t):
    # outside the recorded span means no agents in the scene, not an error
    span = source.span()
    if span is None or not (span[0] <= t <= span[1]):
        return JointAgentState.empty(t)
    return source.agents_at(t)


# -- episode loop ------------------------------------------------------------------


def _acp_step(estimator, predictor, history, actual, horizon):
    """The ACP stage: append the state, update the radii, predict, buffer.

    Without an estimator (``shield-no-acp``) the radii are zero. Returns
    (regions, prediction); the prediction is None while the history is too
    short for the predictor.
    """
    history.append(actual)
    if estimator is None:
        regions = PredictionRegions(made_at=actual.timestep, radii=(0.0,) * horizon)
    else:
        regions = estimator.step(actual)
    try:
        prediction = predictor(list(history), horizon)
    except HistoryTooShort:
        return regions, None
    if estimator is not None:
        estimator.record_prediction(prediction)
    return regions, prediction


def _make_predictor(cfg):
    """The config's predictor; None without a shield, which predicts nothing."""
    if cfg.method == "no-shield":
        return None
    return make_predictor(cfg.predictor, cfg.predictions_path, cfg.agents.scale)


def run_episode(cfg, run=0, model=None, source=None, step_hook=None, predictor=None):
    """Execute one episode, stage by stage; deterministic given (cfg, run).

    ``model``, ``source`` and ``predictor`` are built from the config when
    not given. ``step_hook(info)``, when given, receives a
    per-planning-step dict with the belief support, predictions, radii,
    and unsafe cells (the overlay data for plots); it must not mutate its
    argument.
    """
    if model is None:
        model = build_gridworld(cfg.grid)
    if source is None:
        source = build_source(cfg, run)
    if predictor is None:
        predictor = _make_predictor(cfg)
    positions = cell_positions(cfg.grid)
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
    history = deque(maxlen=cfg.history_window)

    # grace period: agents move alone while the conformal windows fill, so
    # the robot starts with finite radii on every lookahead
    t0 = cfg.window + cfg.horizon
    if shielded:
        for t in range(t0):
            _acp_step(estimator, predictor, history, _source_step(source, t), cfg.horizon)

    records = []
    bsts_cache = {}
    expansions = {}               # support -> successor groups, shared by every BSTS
    plan_secs = []
    realized = 0.0
    cert_failures = 0
    deprived = False

    t = t0
    while True:
        # observe
        actual = _source_step(source, t)
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
            regions, prediction = _acp_step(estimator, predictor, history, actual,
                                            cfg.horizon)
            if estimator is not None:
                last = estimator.records[-cfg.horizon:]
                rec.beta = tuple(r.beta for r in last)
                rec.lam = tuple(r.lam for r in last)
                rec.violated = tuple(r.violated for r in last)
            rec.radius = regions.radii
            # shield
            unsafe = unsafe_sets(positions, prediction, regions, cfg.epsilon,
                                 cfg.lipschitz)
            bsts = bsts_cache.get(support)
            if bsts is None:
                bsts = bsts_cache[support] = Bsts(model, support, cfg.horizon, expansions)
            winning = compute_winning_regions(bsts, unsafe)
            shield = Shield(bsts, winning)
            if cfg.verify_certificates:
                cert_failures += len(verify_winning_regions(bsts, unsafe, winning))
            # plan, or fall back
            try:
                rec.action = planner.plan(root, shield)
            except AllActionsShielded:
                rec.action = fallback_action(model, support, unsafe)
                rec.deadlock = True
            # soundness
            if not rec.deadlock and all(math.isfinite(r) for r in regions.radii):
                rec.sound = keeps_winning(bsts, winning, support, 0, rec.action)
        else:
            rec.action = planner.plan(root)
        if step_hook is not None:
            info = {"t": t, "state": state, "action": rec.action,
                    "deadlock": rec.deadlock, "support": sorted(support)}
            if shielded:
                info["radii"] = list(regions.radii)
                info["predicted"] = [p.positions.tolist() for p in prediction.predicted]
                info["unsafe"] = {tau: sorted(unsafe.f_sets[tau])
                                  for tau in range(1, cfg.horizon + 1)}
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
        label=cfg.label, method=cfg.method, n_agents=cfg.agents.count, run=run,
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
    """Benchmark cells: one config per (method, agent count) combination."""
    methods = list(methods) if methods else [base.method]
    agent_counts = list(agent_counts) if agent_counts else [base.agents.count]
    grid = []
    for count in agent_counts:
        for method in methods:
            grid.append(replace(base, method=method,
                                agents=replace(base.agents, count=count)))
    return grid


# -- CSV and table output ----------------------------------------------------------------


RAW_COLUMNS = ("label", "method", "n_agents", "run", "t", "state", "x", "y",
               "action", "c_value", "min_distance", "safe", "deadlock", "sound",
               "done", "beta", "lam", "radius", "violated")


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
            for rec in r.records:
                writer.writerow((
                    r.label, r.method, r.n_agents, r.run, rec.t, rec.state,
                    _fmt(rec.x), _fmt(rec.y), rec.action, _fmt(rec.c_value),
                    _fmt(rec.min_distance), rec.safe, rec.deadlock,
                    _fmt(rec.sound), rec.done, _fmt(rec.beta), _fmt(rec.lam),
                    _fmt(rec.radius), _fmt(rec.violated)))


AGGREGATE_COLUMNS = ("label", "method", "n_agents", "runs", "success_rate",
                     "mean_steps", "mean_safety_rate", "std_safety_rate",
                     "mean_min_distance", "std_min_distance", "mean_collisions",
                     "deadlock_episodes", "soundness_checked",
                     "soundness_violations", "certificate_failures", "coverage",
                     "mean_plan_seconds")


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
                     bounds=(0.0, 200.0, 0.0, 200.0), history_window=8):
    """Run the conformal estimator alone over a synthetic agent stream.

    Returns {tau: (empirical coverage, tested count)}. The planner plays no
    part: this isolates the coverage property of the radii themselves.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0, 0]))
    source = synth_trajectories(kind, n_agents, steps, rng, bounds=bounds,
                                speed=speed, noise=noise)
    predict = make_predictor(predictor)
    estimator = AcpEstimator(horizon, alpha, delta, window)
    history = deque(maxlen=history_window)
    for t in range(steps):
        _acp_step(estimator, predict, history, source.agents_at(t), horizon)
    return {tau: (estimator.coverage(tau), estimator.tested_count(tau))
            for tau in range(1, horizon + 1)}


# -- config files ------------------------------------------------------------------------

# the YAML schema: section -> the keys it may hold
_CONFIG_SECTIONS = {
    "grid": ("width", "height", "start", "goal", "step_reward", "goal_reward",
             "collision_reward", "near_prob", "far_prob", "obs_noise"),
    "agents": ("kind", "count", "speed", "noise", "bounds", "csv", "scale", "stride"),
    "acp": ("predictor", "predictions", "horizon", "delta", "epsilon", "alpha",
            "window", "lipschitz"),
    "planner": ("simulations", "depth", "ucb", "particles", "rollout"),
    "run": ("max_steps", "verify_certificates", "history_window"),
    "bench": ("methods", "agent_counts"),
}
_CONFIG_TOP_LEVEL = ("label", "seed", "runs", "method", *_CONFIG_SECTIONS)


def _unknown_keys(mapping, known, where):
    unknown = sorted(str(k) for k in mapping if k not in known)
    if unknown:
        raise InvalidSpec(f"unknown config key(s) in {where}: {', '.join(unknown)}")


def _section(data, name):
    """``data[name]`` ({} when absent), checked against the schema."""
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise InvalidSpec(f"config section {name!r} must be a mapping")
    _unknown_keys(section, _CONFIG_SECTIONS[name], f"section {name!r}")
    return section


def _grid_from_dict(data):
    start = data.get("start", [1, 1])
    if start and isinstance(start[0], (list, tuple)):
        start_cells = {(int(x), int(y)): float(w) for x, y, w in start}
    else:
        start_cells = {(int(start[0]), int(start[1])): 1.0}
    goal = data.get("goal", [data.get("width", 20) - 2, data.get("height", 20) - 2])
    return GridSpec(
        width=int(data.get("width", 20)), height=int(data.get("height", 20)),
        start_cells=start_cells, goal_cell=(int(goal[0]), int(goal[1])),
        step_reward=float(data.get("step_reward", -1.0)),
        goal_reward=float(data.get("goal_reward", 1000.0)),
        collision_reward=float(data.get("collision_reward", -10.0)),
        near_prob=float(data.get("near_prob", 0.1)),
        far_prob=float(data.get("far_prob", 0.9)),
        obs_noise=float(data.get("obs_noise", 0.0)))


def parse_config(data):
    """ExperimentConfig from a plain dict (the YAML schema); unknown keys raise."""
    _unknown_keys(data, _CONFIG_TOP_LEVEL, "the top level")
    _section(data, "bench")
    grid = _grid_from_dict(_section(data, "grid"))
    a = _section(data, "agents")
    agents = AgentSetup(
        kind=a.get("kind", "constant-velocity-with-noise"),
        count=int(a.get("count", 5)), speed=float(a.get("speed", 0.8)),
        noise=float(a.get("noise", 0.3)),
        bounds=tuple(a["bounds"]) if "bounds" in a else None,
        csv_path=a.get("csv"), scale=float(a.get("scale", 1.0)),
        stride=int(a.get("stride", 1)))
    p = _section(data, "planner")
    planner = PlannerConfig(
        num_simulations=int(p.get("simulations", 4096)),
        max_depth=int(p.get("depth", 200)),
        ucb_constant=float(p.get("ucb", 500.0)),
        particle_count=int(p.get("particles", 10_000)),
        rollout_policy=p.get("rollout", "random"))
    acp = _section(data, "acp")
    run = _section(data, "run")
    return ExperimentConfig(
        grid=grid, agents=agents, planner=planner,
        label=str(data.get("label", "desk")),
        method=data.get("method", "shield-acp"),
        predictor=acp.get("predictor", "constant-velocity"),
        predictions_path=acp.get("predictions"),
        horizon=int(acp.get("horizon", 3)), delta=float(acp.get("delta", DEFAULT_DELTA)),
        epsilon=float(acp.get("epsilon", 0.5)), alpha=float(acp.get("alpha", DEFAULT_ALPHA)),
        window=int(acp.get("window", DEFAULT_WINDOW)),
        lipschitz=float(acp.get("lipschitz", 1.0)),
        runs=int(data.get("runs", 1)),
        max_steps=int(run.get("max_steps", 300)),
        seed=int(data.get("seed", 0)),
        verify_certificates=bool(run.get("verify_certificates", False)),
        history_window=int(run.get("history_window", 8)))


def load_config(path, overrides=None):
    """Parse a YAML experiment file; ``overrides`` patch top-level keys."""
    with open(path) as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise InvalidSpec(f"{path}: config must be a mapping")
    if overrides:
        for key, value in overrides.items():
            if value is not None:
                data[key] = value
    return parse_config(data)


def bench_lists(data):
    """The optional bench section of a config dict: (methods, agent counts)."""
    bench = data.get("bench", {}) if isinstance(data, dict) else {}
    return bench.get("methods"), bench.get("agent_counts")
