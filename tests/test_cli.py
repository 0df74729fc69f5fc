"""CLI subcommands: run, bench, validate, coverage."""

import hashlib
import json
from pathlib import Path

import pytest

from acpshield import harness
from acpshield.cli import build_parser, main


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text("""
label: tiny
seed: 5
runs: 2
method: shield-acp
grid: {width: 6, height: 6, start: [1, 1], goal: [4, 4]}
agents: {kind: random-walk, count: 2, speed: 0.25}
acp: {horizon: 2, epsilon: 0.5, predictor: constant}
planner: {simulations: 32, depth: 8, particles: 150, rollout: goal-greedy}
run: {max_steps: 15, verify_certificates: true}
bench:
  methods: [no-shield, shield-acp]
  agent_counts: [2]
""")
    return path


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_quiet_prints_summary(tiny_config, capsys):
    code = main(["run", "--config", str(tiny_config), "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "steps=" in out and "safety=" in out and "coverage:" in out
    assert not any(line.startswith("t=") for line in out.splitlines())


def test_run_verbose_prints_trace(tiny_config, capsys):
    code = main(["run", "--config", str(tiny_config)])
    out = capsys.readouterr().out
    assert code == 0
    assert "t=" in out and "cell=(" in out
    assert out.count("r=") >= 1


def test_run_dump_writes_step_json(tiny_config, tmp_path, capsys):
    dump = tmp_path / "steps.json"
    code = main(["run", "--config", str(tiny_config), "--quiet",
                 "--dump", str(dump)])
    assert code == 0
    payload = json.loads(dump.read_text())
    assert payload["label"] == "tiny" and payload["method"] == "shield-acp"
    assert payload["result"]["steps"] >= 1
    assert payload["steps"]
    step = payload["steps"][0]
    assert {"t", "support", "radii", "predicted", "unsafe"} <= set(step)
    assert set(step["unsafe"]) == {"1", "2"}


def test_validate_loads_a_csv_log_once(tiny_config, tmp_path, capsys, monkeypatch):
    log = tmp_path / "agents.csv"
    log.write_text("frame_id,agent_id,x,y\n" + "".join(
        f"{t},{a},{1.0 + 0.05 * t},{1.0 + 3 * a}\n" for t in range(80) for a in range(2)))
    config = tmp_path / "csv.yaml"
    config.write_text(tiny_config.read_text().replace(
        "{kind: random-walk, count: 2, speed: 0.25}", f"{{csv: {log}}}"))
    loads = []
    load = harness.load_trajectories
    monkeypatch.setattr(harness, "load_trajectories",
                        lambda *args, **kwargs: loads.append(args) or load(*args, **kwargs))
    assert main(["validate", "--config", str(config), "--runs", "3"]) == 0
    assert capsys.readouterr().out.count("run=") == 3
    assert len(loads) == 1


def test_run_method_override(tiny_config, capsys):
    code = main(["run", "--config", str(tiny_config), "--quiet",
                 "--method", "no-shield"])
    out = capsys.readouterr().out
    assert code == 0
    assert "coverage:" not in out


def test_bench_writes_both_csvs(tiny_config, tmp_path, capsys):
    out_dir = tmp_path / "results"
    code = main(["bench", "--config", str(tiny_config),
                 "--out-dir", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    raw = out_dir / "tiny_raw.csv"
    agg = out_dir / "tiny_aggregate.csv"
    assert raw.exists() and agg.exists()
    assert "no-shield" in out and "shield-acp" in out
    first = raw.read_bytes()
    assert main(["bench", "--config", str(tiny_config),
                 "--out-dir", str(out_dir)]) == 0
    assert raw.read_bytes() == first


def test_bench_cli_overrides_grid_lists(tiny_config, tmp_path, capsys):
    out_dir = tmp_path / "results"
    code = main(["bench", "--config", str(tiny_config), "--out-dir", str(out_dir),
                 "--methods", "shield-no-acp", "--agent-counts", "1,2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = (out_dir / "tiny_aggregate.csv").read_text().splitlines()
    assert len(lines) == 3                     # header + one row per count
    assert all("shield-no-acp" in line for line in lines[1:])


def test_validate_passes_on_clean_config(tiny_config, capsys):
    code = main(["validate", "--config", str(tiny_config)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "0 certificate failures" in out


def test_validate_rejects_unshielded_method(tiny_config, capsys):
    code = main(["validate", "--config", str(tiny_config),
                 "--method", "no-shield"])
    assert code == 2


def test_coverage_reports_each_lookahead(capsys):
    code = main(["coverage", "--steps", "300", "--horizon", "2",
                 "--agents", "2", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "tau=1" in out and "tau=2" in out and "target=0.9500" in out


# SHA-256 of the raw CSV of `bench --config configs/desk20.yaml --runs 2`.
# A change that alters random-number use on purpose updates this pin and
# says so in CHANGES.md; a speed-up must leave it alone.
DESK20_RAW_SHA256 = "220479110a806fd324b92d9cdd16b2c57a35bfb74a3473ccf666ea64aebaac53"


def test_bench_desk20_raw_csv_is_pinned(tmp_path, capsys):
    config = Path(__file__).resolve().parent.parent / "configs" / "desk20.yaml"
    code = main(["bench", "--config", str(config), "--runs", "2", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    raw = (tmp_path / "desk20_raw.csv").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == DESK20_RAW_SHA256
