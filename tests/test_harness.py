"""Episode loop, metrics, seed streams, CSV output, config parsing."""

import csv
import math
import types
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from acpshield import harness, shield, trajectory
from acpshield.errors import InvalidSpec
from acpshield.gridworld import GridSpec, build_gridworld, cell_positions
from acpshield.harness import (
    METHODS,
    AgentSetup,
    ExperimentConfig,
    acp_coverage_run,
    aggregate,
    build_source,
    episode_horizon,
    expand_grid,
    format_table,
    load_config,
    load_grid,
    parse_config,
    run_benchmark,
    run_episode,
    run_many,
    write_aggregate_csv,
    write_raw_csv,
)
from acpshield.planner import PlannerConfig
from acpshield.shield import constraint_values
from acpshield.trajectory import save_trajectories

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
    ("epsilon", 0.0), ("epsilon", -1.0), ("epsilon", math.nan), ("window", 0), ("runs", 0),
    ("max_steps", 0), ("seed", -5), ("agents.scale", 0.0), ("agents.scale", -2.0),
    ("agents.scale", math.nan), ("agents.stride", 0), ("agents.stride", -1),
    ("agents.count", -1), ("agents.speed", -0.5), ("agents.speed", math.nan),
    ("agents.noise", -0.1), ("agents.noise", math.nan),
    # each float field must be finite: epsilon inf makes every step unsafe
    ("epsilon", math.inf), ("agents.speed", math.inf), ("agents.noise", math.inf),
    ("agents.scale", math.inf),
    # integer fields take ints only: max_steps 10.5 would play 11 steps
    ("horizon", 2.5), ("window", 4.5), ("runs", 1.5), ("max_steps", 10.5), ("max_steps", True),
    ("seed", 1.0), ("agents.count", 2.5), ("agents.stride", 1.5),
])
def test_config_rejects_bad_scalars(field, value):
    section, _, key = field.rpartition(".")
    with pytest.raises(InvalidSpec, match=field if section else None):
        if section:
            small_config(agents=AgentSetup(**{key: value}))
        else:
            small_config(**{field: value})


def test_run_episode_rejects_negative_run():
    with pytest.raises(InvalidSpec, match="run"):
        run_episode(small_config(), run=-1)


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
    source = oracles.source_from_tracks(track)
    cfg = small_config(grid=grid, epsilon=8.0, max_steps=6,
                       agents=AgentSetup(count=1))
    r = run_episode(cfg, source=source)
    assert r.deadlocks == r.steps > 0
    assert all(rec.deadlock for rec in r.records[:-1])
    assert all(0 <= rec.action < 4 for rec in r.records[:-1])
    assert r.soundness_checked == 0


def write_log(path, rows):
    path.write_text("frame_id,agent_id,x,y\n"
                    + "".join(f"{t},{aid},{x},{y}\n" for t, aid, x, y in rows))
    return str(path)


def test_episode_survives_a_full_agent_turnover(tmp_path):
    # agent 0 leaves as agent 1 enters: the predictions made before t = 40
    # share no id with the agents after it, which ACP scores as nothing
    log = write_log(tmp_path / "handover.csv",
                    [(t, 0 if t < 40 else 1, 0.5 + 0.05 * t, 4.0) for t in range(120)])
    cfg = small_config(grid=small_grid(12, 12, goal=(10, 10)),
                       agents=AgentSetup(csv_path=log), max_steps=12)
    r = run_episode(cfg)
    assert r.records[-1].t == 44
    handover = r.records[40 - r.records[0].t]
    assert all(math.isnan(beta) for beta in handover.beta)
    assert handover.violated == (None, None)
    assert r.coverage_tested > 0


def test_episode_runs_past_the_end_of_a_csv_log(tmp_path):
    # the log stops at t = 12, mid-episode: from t = 13 on the scene is
    # empty, so every step is safe and no lookahead has an agent to check
    log = write_log(tmp_path / "short.csv", [(t, 0, 0.5, 0.5 + 0.2 * t) for t in range(13)])
    cfg = small_config(agents=AgentSetup(csv_path=log), window=4, max_steps=30)
    r = run_episode(cfg)
    assert r.records[0].t < 12 < r.records[-1].t
    after = [rec for rec in r.records if rec.t > 12]
    assert all(rec.safe and rec.min_distance == math.inf for rec in after)
    # the last row plays no action, so it has no lookaheads to check
    assert all(rec.violated == (None,) * cfg.horizon for rec in after[:-1])


def test_episode_counts_the_agents_of_a_csv_log(tmp_path):
    # n_agents is the most agents present at once, whatever agents.count says
    log = write_log(tmp_path / "three.csv",
                    [(t, aid, 1.0 + aid, 0.5 + 0.1 * t) for t in range(60) for aid in range(3)
                     if aid < 2 or t >= 30])
    cfg = small_config(agents=AgentSetup(csv_path=log))
    assert cfg.agents.count == 5
    assert run_episode(cfg).n_agents == 3
    assert run_episode(cfg, source=oracles.source_from_tracks({})).n_agents == 0


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


@pytest.mark.parametrize("method", METHODS)
def test_episode_certificates_verified_every_shielded_step(method, monkeypatch):
    calls = []
    verify = harness.verify_winning_regions
    monkeypatch.setattr(harness, "verify_winning_regions",
                        lambda *args: calls.append(args) or verify(*args))
    r = run_episode(small_config(method=method))
    assert len(calls) == (0 if method == "no-shield" else r.steps)
    assert r.certificate_failures == 0


# SHA-256 of whole episodes (oracles.episode_digest): results, supports,
# radii, predictions and unsafe cells. Like the raw-CSV pin in test_cli, a
# change that alters random-number use on purpose updates these and says so
# in CHANGES.md; a refactor or speed-up must leave them alone.
ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
EPISODE_DIGESTS = [
    ("desk20.yaml", (0, 1), "bc42be07474af2d4aa6af4a78bd7f86b6889bb5031a694e22a165220dbb1a1b5", {}),
    ("corridor.yaml", (0,), "c6fcc0c1afa2d43fbca5cc2065dc1234719d9ed3e5941ab3df3a8ab6b14ce941", {}),
    # noisy observations: the BSTS successor groups form covers, and run 1
    # deadlocks once, so the fallback is pinned too
    ("desk20.yaml", (0, 1), "4df95c9ca5f70bbd2d1b49aec5de071e39e55763e779b11cd11b83776963d064",
     {"grid.obs_noise": 0.1}),
]
# the step benchmark's crowd-replay inputs for seed 0: a CSV log whose agents
# enter and leave, read with the replay predictor and scored by ACP
CROWD_REPLAY_DIGEST = "a982cd74b4169ccc4db89fbf67a9b9d5718d1b171cff67e46efdbcfc43a93152"


def load_stepbench(name):
    """Execute stepbench/<name>.py from its source, writing no bytecode cache
    beside it."""
    path = ROOT / "stepbench" / f"{name}.py"
    module = types.ModuleType(f"stepbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def runs_digest(cfg, runs):
    episodes = []
    for run in runs:
        steps = []
        episodes.append((run_episode(cfg, run, step_hook=steps.append), steps))
    return oracles.episode_digest(episodes)


@pytest.mark.parametrize("name, runs, digest, overrides", EPISODE_DIGESTS)
def test_episode_digest_is_pinned(name, runs, digest, overrides):
    assert runs_digest(load_config(CONFIGS / name, overrides), runs) == digest


def test_crowd_replay_digest_is_pinned(tmp_path):
    path = load_stepbench("inputs").generate("crowd-replay", 0, tmp_path)
    assert runs_digest(load_config(path), (0, 1)) == CROWD_REPLAY_DIGEST


def test_episode_coverage_populated_only_with_adaptation():
    acp = run_episode(small_config())
    assert set(acp.coverage) == {1, 2}
    assert acp.coverage_tested > 0
    fixed = run_episode(small_config(method="shield-no-acp"))
    assert fixed.coverage == {} and fixed.coverage_tested == 0


def record_unsafe_calls(monkeypatch):
    """Patch ``harness.unsafe_sets`` to record each call's (args, kwargs)."""
    calls = []
    unsafe = harness.unsafe_sets
    monkeypatch.setattr(harness, "unsafe_sets", lambda *args, **kwargs: calls.append(
        (args, kwargs)) or unsafe(*args, **kwargs))
    return calls


def test_step_hook_sees_overlay_data(monkeypatch):
    calls = record_unsafe_calls(monkeypatch)
    seen = []
    cfg = small_config(max_steps=4)
    run_episode(cfg, step_hook=lambda info: seen.append((info, len(calls))))
    assert seen
    keys = {"t", "state", "action", "deadlock", "support", "radii",
            "predicted", "unsafe"}
    assert keys <= set(seen[0][0])
    # read after the episode: the overlay is the full-grid unsafe_sets of
    # its step's inputs, in tau order. Each step's BSTS build decides its
    # levels through unsafe_sets with those inputs, before the hook runs
    made = 0
    for info, count in seen:
        args, _ = calls[count - 1]
        assert count > made and all(call[0] == args for call in calls[made:count])
        made = count
        assert list(info["unsafe"]) == [1, 2]
        assert dict(info["unsafe"]) == {tau: sorted(f) for tau, f in
                                        shield.unsafe_sets(*args).items()}
    bare_seen = []
    run_episode(replace(cfg, method="no-shield"), step_hook=bare_seen.append)
    assert bare_seen and "radii" not in bare_seen[0]
    assert bare_seen[0]["support"]


def test_shield_decides_unsafe_sets_on_bsts_states_only(monkeypatch):
    # a hook that ignores the overlay: each shielded step makes one
    # unsafe_sets call per nonempty BSTS level, in level order, deciding
    # lookahead q on exactly the states of level q, and only the supports
    # clear of F_q are expanded. Starting next to the goal, with zero radii
    # so that the goal cell is often safe, brings the unlocated terminal
    # state into the BSTS, and it is passed like any other state
    calls = record_unsafe_calls(monkeypatch)
    built = []
    bsts = harness.Bsts
    monkeypatch.setattr(harness, "Bsts", lambda *args: built.append(bsts(*args)) or built[-1])
    steps = []
    cfg = small_config(grid=small_grid(start=(3, 4)), max_steps=8, method="shield-no-acp")
    run_episode(cfg, step_hook=lambda info: steps.append(info["t"]))
    assert len(built) == len(steps) > 0
    expected = []
    terminal_seen = pruned = False
    for tree in built:
        for q in range(1, tree.horizon + 1):
            states = set().union(*tree.levels[q])
            if states:
                expected.append(({q}, sorted(states)))
            terminal_seen |= cfg.grid.terminal_state in states
            assert tree.safe[q] == {sup for sup in tree.levels[q]
                                    if tree.f_sets[q].isdisjoint(sup)}
            pruned |= tree.safe[q] != tree.levels[q]
            if q < tree.horizon:
                assert tree.levels[q + 1] == {child for sup in tree.safe[q]
                                              for by_obs in tree.expansions[sup]
                                              for child in by_obs.values()}
    assert [(kwargs["within"].keys(), *(v.tolist() for v in kwargs["within"].values()))
            for _, kwargs in calls] == expected
    assert terminal_seen and pruned


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


def write_replay_predictions(cfg, path):
    """A predictions file for run 0 of ``cfg``: each agent's position, 0.1 *
    tau to the east, for every (t, tau) the episode reads."""
    source = build_source(cfg, 0)
    lines = ["t,tau,agent_id,x,y"]
    for t in range(episode_horizon(cfg)):
        now = source.agents_at(t)
        for tau in range(1, cfg.horizon + 1):
            for aid, (x, y) in zip(now.ids, now.positions.tolist()):
                lines.append(f"{t},{tau},{aid},{x + 0.1 * tau!r},{y!r}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("predictor", ["constant", "constant-velocity", "linear-fit", "replay"])
def test_step_hook_predictions_are_read_only(tmp_path, predictor):
    # the hook sees the arrays the estimator keeps to score later: views it
    # can neither write through nor make writable
    cfg = small_config(predictor=predictor, max_steps=4)
    if predictor == "replay":
        cfg = replace(cfg, predictions_path=write_replay_predictions(cfg, tmp_path / "p.csv"))
    seen = []
    run_episode(cfg, step_hook=seen.append)
    assert seen
    for info in seen:
        assert len(info["predicted"]) == cfg.horizon
        for positions in info["predicted"]:
            assert positions.shape == (cfg.agents.count, 2)
            with pytest.raises(ValueError):
                positions[0] = 0.0
            with pytest.raises(ValueError):
                positions.flags.writeable = True


def test_run_many_loads_replay_predictions_once(tmp_path, monkeypatch):
    # run_many builds the replay predictor once per config and shares it;
    # the episodes equal those that each load their own
    cfg = small_config(runs=3, max_steps=6)
    preds = write_replay_predictions(cfg, tmp_path / "preds.csv")
    log = tmp_path / "agents.csv"
    save_trajectories(build_source(cfg, 0), log)
    cfg = replace(cfg, predictor="replay", predictions_path=preds,
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


def test_acp_coverage_run_rejects_negative_seed():
    with pytest.raises(InvalidSpec, match="seed"):
        acp_coverage_run(steps=10, seed=-1)


# -- config files ---------------------------------------------------------------

def test_parse_config_defaults():
    cfg = parse_config({})
    assert cfg.grid.width == 20 and cfg.grid.goal_cell == (18, 18)
    assert cfg.method == "shield-acp" and cfg.horizon == 3
    # null leaves a path or a bench list unset, not the path "None"
    assert parse_config({"agents": {"csv": None}, "acp": {"predictions": None},
                         "bench": {"methods": None, "agent_counts": None}}) == cfg


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

    assert [(c.method, c.agents.count) for c in load_grid(path)] == [
        ("no-shield", 4), ("shield-acp", 4), ("no-shield", 8), ("shield-acp", 8)]
    lists = {"bench.methods": ["shield-acp"], "bench.agent_counts": ["6"]}
    assert [(c.method, c.agents.count) for c in load_grid(path, lists)] == [("shield-acp", 6)]


def test_overrides_reject_unknown_keys():
    # every misspelt key is named, a None value included; a section name or
    # an unqualified section key is not an override key either
    with pytest.raises(InvalidSpec, match="grid.widht, planer.depth"):
        load_config(CONFIGS / "corridor.yaml", {"grid.widht": 5, "planer.depth": 3})
    for key in ("grid.widht", "width", "grid", "acp.seed"):
        with pytest.raises(InvalidSpec, match=key):
            load_config(CONFIGS / "corridor.yaml", {key: None})
    with pytest.raises(InvalidSpec, match="bench.method"):
        load_grid(CONFIGS / "corridor.yaml", {"bench.method": ["shield-acp"]})


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


@pytest.mark.parametrize("data, key", [
    ({"agents": {"count": "five"}}, "agents.count"),
    ({"runs": "x"}, "runs"),
    ({"grid": {"start": 5}}, "grid.start"),
    ({"planner": {"simulations": None}}, "planner.simulations"),
    ({"grid": {"goal": [1]}}, "grid.goal"),
    ({"acp": {"horizon": 2.7}}, "acp.horizon"),
    ({"agents": {"csv": 12345}}, "agents.csv"),
    ({"acp": {"predictions": 0}}, "acp.predictions"),
    ({"label": None}, "label"),
    ({"bench": {"methods": "shield-acp"}}, "bench.methods"),
    ({"bench": {"methods": [1]}}, "bench.methods"),
    ({"bench": {"agent_counts": ["five"]}}, "bench.agent_counts"),
    ({"bench": {"agent_counts": 5}}, "bench.agent_counts"),
    ({"bench": {"agent_counts": [2.5]}}, "bench.agent_counts"),
])
def test_parse_config_rejects_malformed_values(data, key):
    with pytest.raises(InvalidSpec, match=key):
        parse_config(data)


@pytest.mark.parametrize("value", [math.nan, math.inf, "nan"], ids=["nan", "inf", "nan-str"])
@pytest.mark.parametrize("section, key", [
    ("acp", "epsilon"), ("planner", "ucb"), ("grid", "goal_reward"),
    ("agents", "speed"), ("agents", "scale"),
])
def test_parse_config_rejects_non_finite_floats(section, key, value):
    with pytest.raises(InvalidSpec, match=f"{section}.{key}"):
        parse_config({section: {key: value}})


def test_expand_grid_refuses_agent_counts_for_a_csv_log():
    # build_source replays the log whatever agents.count says, so each count
    # would label the same episodes with a different N
    base = small_config(agents=AgentSetup(csv_path="crowd.csv"))
    with pytest.raises(InvalidSpec, match="bench.agent_counts"):
        expand_grid(base, agent_counts=(2, 5))
    assert len(expand_grid(base, methods=("no-shield", "shield-acp"))) == 2


def _flat_fields(cfg):
    flat = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            flat.update({f"{f.name}.{g.name}": getattr(value, g.name) for g in fields(value)})
        else:
            flat[f.name] = value
    return flat


# YAML keys set to valid non-default values -> the fields they must change, and
# to what (a width or height moves the default goal with it)
SCHEMA_CASES = [
    ({"label": "other"}, {"label": "other"}),
    ({"seed": 3}, {"seed": 3}),
    ({"runs": 2}, {"runs": 2}),
    ({"method": "no-shield"}, {"method": "no-shield"}),
    ({"grid.width": 25}, {"grid.width": 25, "grid.goal_cell": (23, 18)}),
    ({"grid.height": 24}, {"grid.height": 24, "grid.goal_cell": (18, 22)}),
    ({"grid.start": [[2, 3, 2.0]]}, {"grid.start_cells": {(2, 3): 2.0}}),
    ({"grid.goal": [5, 6]}, {"grid.goal_cell": (5, 6)}),
    ({"grid.step_reward": -2}, {"grid.step_reward": -2.0}),
    ({"grid.goal_reward": 50}, {"grid.goal_reward": 50.0}),
    ({"grid.collision_reward": -3}, {"grid.collision_reward": -3.0}),
    ({"grid.near_prob": 0.25, "grid.far_prob": 0.75},
     {"grid.near_prob": 0.25, "grid.far_prob": 0.75}),
    ({"grid.obs_noise": 0.1}, {"grid.obs_noise": 0.1}),
    ({"agents.kind": "waypoint"}, {"agents.kind": "waypoint"}),
    ({"agents.count": 7}, {"agents.count": 7}),
    ({"agents.speed": 0.5}, {"agents.speed": 0.5}),
    ({"agents.noise": 0.1}, {"agents.noise": 0.1}),
    ({"agents.csv": "crowd.csv"}, {"agents.csv_path": "crowd.csv"}),
    ({"agents.scale": 2.0}, {"agents.scale": 2.0}),
    ({"agents.stride": 3}, {"agents.stride": 3}),
    ({"acp.predictor": "linear-fit"}, {"predictor": "linear-fit"}),
    ({"acp.predictions": "p.csv"}, {"predictions_path": "p.csv"}),
    ({"acp.horizon": 5}, {"horizon": 5}),
    ({"acp.delta": 0.2}, {"delta": 0.2}),
    ({"acp.epsilon": 1.5}, {"epsilon": 1.5}),
    ({"acp.alpha": 0.01}, {"alpha": 0.01}),
    ({"acp.window": 12}, {"window": 12}),
    ({"planner.simulations": 64}, {"planner.num_simulations": 64}),
    ({"planner.depth": 30}, {"planner.max_depth": 30}),
    ({"planner.ucb": 10.0}, {"planner.ucb_constant": 10.0}),
    ({"planner.particles": 300}, {"planner.particle_count": 300}),
    ({"planner.rollout": "goal-greedy"}, {"planner.rollout_policy": "goal-greedy"}),
    ({"run.max_steps": 40}, {"max_steps": 40}),
]


def test_config_schema_round_trip():
    # every key of the schema is set once, and changes exactly its own field
    schema_keys = {f"{name}.{key}" if name else key
                   for name, keys in harness._SCHEMA.items() for key in keys}
    case_keys = {key for keys, _ in SCHEMA_CASES for key in keys}
    assert schema_keys - case_keys == {"bench.methods", "bench.agent_counts"}
    assert case_keys <= schema_keys and len(schema_keys) == 36
    default = _flat_fields(parse_config({}))
    for keys, expected in SCHEMA_CASES:
        data = {}
        for key, value in keys.items():
            section, _, leaf = key.rpartition(".")
            (data.setdefault(section, {}) if section else data)[leaf] = value
        changed = {k: v for k, v in _flat_fields(parse_config(data)).items()
                   if v != default[k]}
        assert changed == expected, keys


def test_parse_config_rejects_unknown_names_up_front():
    # an unshielded run never builds a predictor and a run without agents
    # synthesizes no steps, so only the config check catches these names
    with pytest.raises(InvalidSpec, match="nonsense"):
        parse_config({"method": "no-shield", "acp": {"predictor": "nonsense"}})
    with pytest.raises(InvalidSpec, match="nope"):
        parse_config({"method": "no-shield", "agents": {"kind": "nope", "count": 0}})
