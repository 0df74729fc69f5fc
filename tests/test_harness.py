"""Episode loop, metrics, seed streams, CSV output, config parsing."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from acpshield import trajectory
from acpshield.errors import InvalidSpec
from acpshield.gridworld import GridSpec, build_gridworld, cell_positions
from acpshield.harness import (
    AgentSetup,
    ExperimentConfig,
    acp_coverage_run,
    aggregate,
    bench_lists,
    build_source,
    episode_horizon,
    expand_grid,
    format_table,
    load_config,
    parse_config,
    run_benchmark,
    run_episode,
    run_many,
    write_aggregate_csv,
    write_raw_csv,
)
from acpshield.planner import PlannerConfig
from acpshield.shield import constraint_values
from acpshield.trajectory import TrajectorySource, save_trajectories

import oracles


def small_grid(width=6, height=6, start=(1, 1), goal=(4, 4)):
    return GridSpec(width=width, height=height, start_cells={start: 1.0},
                    goal_cell=goal)


def small_config(**kw):
    defaults = dict(
        grid=small_grid(),
        agents=AgentSetup(kind="waypoint", count=2, speed=0.8, noise=0.3),
        planner=PlannerConfig(num_simulations=48, max_depth=10,
                              particle_count=200, rollout_policy="goal-greedy"),
        label="t", method="shield-acp", horizon=2, epsilon=0.5,
        runs=1, max_steps=25, seed=11)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# -- config validation --------------------------------------------------------

def test_config_rejects_unknown_method():
    with pytest.raises(InvalidSpec):
        small_config(method="bare")


@pytest.mark.parametrize("field,value", [
    ("horizon", 0), ("delta", 0.0), ("delta", 1.0), ("alpha", 0.0),
    ("epsilon", 0.0), ("epsilon", -1.0), ("lipschitz", 0.0), ("window", 0),
    ("runs", 0), ("max_steps", 0), ("history_window", 1),
])
def test_config_rejects_bad_scalars(field, value):
    with pytest.raises(InvalidSpec):
        small_config(**{field: value})


def test_config_rejects_planner_shallower_than_horizon():
    with pytest.raises(InvalidSpec):
        small_config(planner=PlannerConfig(max_depth=2), horizon=3)


# -- metrics ------------------------------------------------------------------
# The observe stage measures the robot with the shield's margin rule: the
# distance to the nearest agent is the margin at epsilon 0, and c is that
# distance minus epsilon.

def margin(position, agents, epsilon):
    return float(constraint_values(np.asarray([position], dtype=float), agents, epsilon)[0])


def test_constraint_value_basics():
    assert margin((0.0, 0.0), np.array([[3.0, 4.0]]), 0.0) == pytest.approx(5.0)
    assert margin((0.0, 0.0), np.array([[3.0, 4.0]]), 2.0) == pytest.approx(3.0)
    assert margin((0.0, 0.0), np.array([[0.0, 2.0]]), 2.0) == pytest.approx(0.0)


def test_constraint_value_no_agents_is_safe():
    assert margin((1.0, 1.0), np.zeros((0, 2)), 5.0) == math.inf


def test_constraint_value_nan_position_is_safe():
    assert margin((math.nan, math.nan), np.array([[0.0, 0.0]]), 5.0) == math.inf


def test_constraint_value_takes_nearest_agent():
    agents = np.array([[10.0, 0.0], [1.0, 0.0]])
    assert margin((0.0, 0.0), agents, 0.0) == pytest.approx(1.0)
    assert margin((0.0, 0.0), agents, 0.5) == pytest.approx(0.5)


def test_episode_safety_summary_matches_records_and_positions():
    # a wide buffer among four agents makes some occupied steps collisions;
    # across these episodes the terminal row is sometimes safe, sometimes
    # not, and sometimes the closest approach
    base = small_config(epsilon=2.0,
                        agents=AgentSetup(kind="waypoint", count=4, speed=0.8, noise=0.3))
    cells = cell_positions(base.grid)
    for method in ("no-shield", "shield-acp"):
        cfg = replace(base, method=method)
        for run in range(3):
            r = run_episode(cfg, run)
            n = len(r.records)
            assert r.collisions == sum(not rec.safe for rec in r.records)
            assert r.safety_rate == (n - r.collisions) / n
            assert r.min_distance == min(rec.min_distance for rec in r.records)
            # the same summary, recounted from the source's positions
            source = build_source(cfg, run)
            dists = [oracles.constraint_values_oracle(
                cells[[rec.state]], source.agents_at(rec.t).positions, 0.0)[0]
                for rec in r.records]
            assert [rec.min_distance for rec in r.records] == dists
            assert [rec.c_value for rec in r.records] == [d - cfg.epsilon for d in dists]
            assert 0 < r.collisions == sum(d - cfg.epsilon < 0.0 for d in dists) < n
            assert r.min_distance == min(dists)


# -- seed streams and sources -------------------------------------------------

def test_sources_identical_across_methods():
    base = small_config()
    a = build_source(base, run=0)
    b = build_source(replace(base, method="no-shield"), run=0)
    for t in (0, 3, 9):
        np.testing.assert_array_equal(a.agents_at(t).positions,
                                      b.agents_at(t).positions)


def test_sources_differ_across_runs():
    base = small_config()
    a = build_source(base, run=0)
    b = build_source(base, run=1)
    assert not np.array_equal(a.agents_at(5).positions, b.agents_at(5).positions)


def test_source_covers_episode_horizon():
    cfg = small_config()
    source = build_source(cfg, run=0)
    first, last = source.span()
    assert first == 0
    assert last >= cfg.window + cfg.horizon + cfg.max_steps
    assert episode_horizon(cfg) > last >= episode_horizon(cfg) - 2


# -- episodes -----------------------------------------------------------------

def test_episode_deterministic_given_config_and_run():
    cfg = small_config()
    a = run_episode(cfg)
    b = run_episode(cfg)
    assert a.records == b.records
    assert (a.safety_rate, a.min_distance, a.realized_return) == \
           (b.safety_rate, b.min_distance, b.realized_return)
    c = run_episode(cfg, run=1)
    assert c.records != a.records


def test_episode_zero_agents_all_methods_agree():
    base = small_config(agents=AgentSetup(kind="random-walk", count=0))
    results = [run_episode(replace(base, method=m))
               for m in ("no-shield", "shield-no-acp", "shield-acp")]
    for r in results:
        assert r.success and r.safety_rate == 1.0
        assert r.min_distance == math.inf and r.collisions == 0
        assert r.deadlocks == 0
    # vacuous shields leave the planner stream untouched
    assert results[0].steps == results[1].steps == results[2].steps


def test_episode_reaches_adjacent_goal_quickly():
    # east from (2,1) lands on (3,1) or (4,1); (4,1) is the goal
    cfg = small_config(grid=small_grid(width=6, height=3, start=(2, 1), goal=(4, 1)),
                       agents=AgentSetup(count=0), method="no-shield",
                       max_steps=6)
    r = run_episode(cfg)
    assert r.success and r.steps in (1, 2)
    assert r.records[-1].done == "goal"
    assert r.records[-1].action == -1


def test_episode_cap_marks_failure():
    # goal unreachable in one step from far corner with a tiny cap
    cfg = small_config(grid=small_grid(width=8, height=8, start=(0, 0), goal=(7, 7)),
                       agents=AgentSetup(count=0), method="no-shield", max_steps=2)
    r = run_episode(cfg)
    assert not r.success and r.steps == 2
    assert r.records[-1].done == "cap"


def test_episode_realized_return_recomputable():
    cfg = small_config(method="no-shield",
                       agents=AgentSetup(kind="waypoint", count=2, noise=0.2))
    r = run_episode(cfg)
    total = sum(cfg.grid.step_reward for rec in r.records if rec.action >= 0)
    total += sum(cfg.grid.collision_reward for rec in r.records if rec.c_value < 0)
    if r.success:
        total += cfg.grid.goal_reward
    assert r.realized_return == pytest.approx(total)


def test_episode_forced_deadlock_uses_fallback():
    # one parked agent and a huge margin make every reachable cell unsafe
    grid = small_grid()
    track = {0: [(t, (1.0, 1.0)) for t in range(200)]}
    source = TrajectorySource(track)
    cfg = small_config(grid=grid, epsilon=8.0, max_steps=6,
                       agents=AgentSetup(count=1))
    r = run_episode(cfg, source=source)
    assert r.deadlocks == r.steps > 0
    assert all(rec.deadlock for rec in r.records[:-1])
    assert all(0 <= rec.action < 4 for rec in r.records[:-1])
    assert r.soundness_checked == 0


def test_episode_shielded_steps_record_radii():
    cfg = small_config()
    r = run_episode(cfg)
    planned = [rec for rec in r.records if rec.action >= 0 and not rec.deadlock]
    assert planned
    for rec in planned:
        assert len(rec.radius) == cfg.horizon
        assert len(rec.beta) == cfg.horizon
        assert all(v >= 0.0 for v in rec.radius)
    bare = run_episode(replace(cfg, method="no-shield"))
    assert all(rec.radius is None for rec in bare.records)


def test_episode_soundness_checked_when_radii_finite():
    cfg = small_config(method="shield-no-acp")
    r = run_episode(cfg)
    assert r.soundness_checked == sum(
        1 for rec in r.records if rec.action >= 0 and not rec.deadlock)
    assert r.soundness_violations == 0
    assert all(rec.sound for rec in r.records if rec.sound is not None)


def test_episode_certificates_verified_when_asked():
    cfg = small_config(verify_certificates=True)
    r = run_episode(cfg)
    assert r.certificate_failures == 0


def test_episode_coverage_populated_only_with_adaptation():
    acp = run_episode(small_config())
    assert set(acp.coverage) == {1, 2}
    assert acp.coverage_tested > 0
    fixed = run_episode(small_config(method="shield-no-acp"))
    assert fixed.coverage == {} and fixed.coverage_tested == 0


def test_step_hook_sees_overlay_data():
    seen = []
    cfg = small_config(max_steps=4)
    run_episode(cfg, step_hook=seen.append)
    assert seen
    keys = {"t", "state", "action", "deadlock", "support", "radii",
            "predicted", "unsafe"}
    assert keys <= set(seen[0])
    assert set(seen[0]["unsafe"]) == {1, 2}
    bare_seen = []
    run_episode(replace(cfg, method="no-shield"), step_hook=bare_seen.append)
    assert bare_seen and "radii" not in bare_seen[0]
    assert bare_seen[0]["support"]


# -- aggregation and benchmark grids ------------------------------------------

def test_aggregate_requires_results():
    with pytest.raises(InvalidSpec):
        aggregate([])


def test_aggregate_matches_manual_stats():
    cfg = small_config(runs=3, method="shield-no-acp")
    results = run_many(cfg)
    row = aggregate(results)
    assert row.runs == 3
    assert row.mean_safety_rate == pytest.approx(
        np.mean([r.safety_rate for r in results]))
    assert row.std_safety_rate == pytest.approx(
        np.std([r.safety_rate for r in results], ddof=1))
    assert row.success_rate == pytest.approx(
        np.mean([r.success for r in results]))
    assert row.soundness_checked == sum(r.soundness_checked for r in results)
    assert math.isnan(row.coverage)


def test_aggregate_pools_coverage_exactly():
    cfg = small_config(runs=2)
    results = run_many(cfg)
    row = aggregate(results)
    tested = sum(n for r in results for _, n in r.coverage.values())
    violations = sum(round((1 - c) * n)
                     for r in results for c, n in r.coverage.values() if n)
    assert row.coverage == pytest.approx(1 - violations / tested)


def test_expand_grid_crosses_methods_and_counts():
    base = small_config()
    grid = expand_grid(base, methods=("no-shield", "shield-acp"),
                       agent_counts=(2, 5))
    assert len(grid) == 4
    assert {(c.method, c.agents.count) for c in grid} == {
        ("no-shield", 2), ("shield-acp", 2), ("no-shield", 5), ("shield-acp", 5)}
    assert base.method == "shield-acp" and base.agents.count == 2


def test_run_many_loads_replay_predictions_once(tmp_path, monkeypatch):
    # run_many builds the replay predictor once per config and shares it;
    # the episodes equal those that each load their own
    cfg = small_config(runs=3, max_steps=6)
    source = build_source(cfg, 0)
    lines = ["t,tau,agent_id,x,y"]
    for t in range(episode_horizon(cfg)):
        now = source.agents_at(t)
        for tau in range(1, cfg.horizon + 1):
            for aid, (x, y) in zip(now.ids, now.positions.tolist()):
                lines.append(f"{t},{tau},{aid},{x + 0.1 * tau!r},{y!r}")
    preds, log = tmp_path / "preds.csv", tmp_path / "agents.csv"
    preds.write_text("\n".join(lines) + "\n")
    save_trajectories(source, log)
    cfg = replace(cfg, predictor="replay", predictions_path=str(preds),
                  agents=replace(cfg.agents, csv_path=str(log)))
    loads = []
    load = trajectory.load_predictions
    monkeypatch.setattr(trajectory, "load_predictions",
                        lambda *args, **kw: loads.append(args) or load(*args, **kw))

    shared = run_many(cfg)
    assert len(loads) == 1
    model, source = build_gridworld(cfg.grid), build_source(cfg, 0)
    own = [run_episode(cfg, run, model, source) for run in range(cfg.runs)]
    assert len(loads) == 1 + cfg.runs
    assert ([replace(r, mean_plan_seconds=0.0) for r in shared]
            == [replace(r, mean_plan_seconds=0.0) for r in own])
    assert any(r.soundness_checked for r in shared)
    run_many(replace(cfg, method="no-shield"))
    assert len(loads) == 1 + cfg.runs


def test_run_benchmark_rows_align_with_configs():
    base = small_config(runs=2, max_steps=10)
    configs = expand_grid(base, methods=("no-shield", "shield-no-acp"))
    results, rows = run_benchmark(configs)
    assert len(results) == 4 and len(rows) == 2
    assert [r.method for r in rows] == ["no-shield", "shield-no-acp"]
    assert all(r.runs == 2 for r in rows)


# -- CSV output ---------------------------------------------------------------

def test_raw_csv_round_trip(tmp_path):
    cfg = small_config(max_steps=8)
    results = run_many(cfg)
    path = tmp_path / "raw.csv"
    write_raw_csv(results, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == sum(len(r.records) for r in results)
    safety = np.mean([float(row["c_value"]) >= 0 for row in rows])
    assert safety == pytest.approx(results[0].safety_rate)
    radii = [row["radius"] for row in rows if row["radius"]]
    assert radii and all(len(v.split(";")) == cfg.horizon for v in radii)
    terminal = [row for row in rows if row["action"] == "-1"]
    assert len(terminal) == 1 and terminal[0]["done"] in ("goal", "cap", "deprived")


def test_raw_csv_byte_identical_across_reruns(tmp_path):
    cfg = small_config(max_steps=8, runs=2)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_raw_csv(run_many(cfg), a)
    write_raw_csv(run_many(cfg), b)
    assert a.read_bytes() == b.read_bytes()


def test_aggregate_csv_and_table_render(tmp_path):
    cfg = small_config(max_steps=6, runs=1)
    _, rows = run_benchmark(expand_grid(cfg, methods=("no-shield", "shield-acp")))
    path = tmp_path / "agg.csv"
    write_aggregate_csv(rows, path)
    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert [p["method"] for p in parsed] == ["no-shield", "shield-acp"]
    assert float(parsed[0]["mean_safety_rate"]) == pytest.approx(
        rows[0].mean_safety_rate)
    text = format_table(rows)
    assert "no-shield" in text and "shield-acp" in text
    assert len(set(len(line) for line in text.splitlines())) == 1


# -- ACP-only coverage simulation ---------------------------------------------

def test_acp_coverage_run_shape_and_determinism():
    a = acp_coverage_run(steps=400, horizon=2, n_agents=2, seed=9)
    b = acp_coverage_run(steps=400, horizon=2, n_agents=2, seed=9)
    assert a == b
    assert set(a) == {1, 2}
    for cov, tested in a.values():
        assert tested > 300
        assert 0.8 <= cov <= 1.0


# -- config files ---------------------------------------------------------------

def test_parse_config_defaults():
    cfg = parse_config({})
    assert cfg.grid.width == 20 and cfg.grid.goal_cell == (18, 18)
    assert cfg.method == "shield-acp" and cfg.horizon == 3


def test_load_config_round_trip(tmp_path):
    text = """
label: corridor
seed: 42
runs: 3
method: shield-no-acp
grid:
  width: 10
  height: 6
  start: [[1, 1, 2.0], [1, 2, 1.0]]
  goal: [8, 3]
agents:
  kind: waypoint
  count: 4
  speed: 0.7
  noise: 0.2
acp:
  horizon: 2
  delta: 0.1
  epsilon: 1.5
planner:
  simulations: 128
  depth: 16
  particles: 500
  rollout: goal-greedy
run:
  max_steps: 50
bench:
  methods: [no-shield, shield-acp]
  agent_counts: [4, 8]
"""
    path = tmp_path / "exp.yaml"
    path.write_text(text)
    cfg = load_config(path)
    assert cfg.label == "corridor" and cfg.seed == 42 and cfg.runs == 3
    assert cfg.grid.width == 10 and cfg.grid.start_cells == {
        (1, 1): 2.0, (1, 2): 1.0}
    assert cfg.agents.kind == "waypoint" and cfg.agents.count == 4
    assert cfg.horizon == 2 and cfg.delta == 0.1 and cfg.epsilon == 1.5
    assert cfg.planner.num_simulations == 128
    assert cfg.max_steps == 50

    override = load_config(path, overrides={"seed": 7, "method": None})
    assert override.seed == 7 and override.method == "shield-no-acp"

    import yaml as yaml_mod
    methods, counts = bench_lists(yaml_mod.safe_load(text))
    assert methods == ["no-shield", "shield-acp"] and counts == [4, 8]


def test_load_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a list\n")
    with pytest.raises(InvalidSpec):
        load_config(path)


def test_parse_config_validates_through_dataclass():
    with pytest.raises(InvalidSpec):
        parse_config({"acp": {"delta": 2.0}})


@pytest.mark.parametrize("section, key", [
    ("grid", "widht"), ("agents", "cnt"), ("acp", "predicter"),
    ("planner", "simulation"), ("planner", "n_init"), ("planner", "v_init"),
    ("planner", "discount"), ("run", "max_step"), ("bench", "method"), (None, "seeds"),
])
def test_parse_config_rejects_unknown_keys(section, key):
    data = {key: 1} if section is None else {section: {key: 1}}
    with pytest.raises(InvalidSpec, match=key):
        parse_config(data)


@pytest.mark.parametrize("section", ["grid", "agents", "acp", "planner", "run", "bench"])
def test_parse_config_rejects_non_mapping_section(section):
    with pytest.raises(InvalidSpec, match=section):
        parse_config({section: [1, 2]})
