"""Acceptance gate: ten pinned end-to-end criteria, one printed verdict each.

Criteria 5, 6 and 7 share one full benchmark run (the desk20 preset:
100 paired seeds, three methods, two crowd sizes), so the module takes a
few minutes. Criterion 9 times its own 20 interleaved pairs of episodes.
Verdict lines are echoed after the pytest summary.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from acpshield.acp import AcpEstimator
from acpshield.cli import main as cli_main
from acpshield.gridworld import GridSpec, build_gridworld, cell_positions
from acpshield.harness import (
    acp_coverage_run,
    expand_grid,
    load_config,
    run_benchmark,
    run_episode,
)
from acpshield.planner import Planner, PlannerConfig
from acpshield.shield import (
    Bsts,
    Shield,
    compute_winning_regions,
    constraint_values,
    unsafe_sets,
)
from acpshield.trajectory import JointAgentState, PredictionSet

import oracles
from conftest import acceptance_lines, make_random_pomdp
from test_shield import manual_unsafe, random_support

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(num, ok, detail):
    acceptance_lines.append(
        f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def desk_bench():
    """The full desk20 benchmark: 100 seeds x 3 methods x N in {5, 10}."""
    base = load_config(CONFIG_DIR / "desk20.yaml")
    configs = expand_grid(base, ("no-shield", "shield-no-acp", "shield-acp"),
                          (5, 10))
    started = time.perf_counter()
    results, rows = run_benchmark(configs)
    return results, rows, time.perf_counter() - started


def test_criterion_1_adaptive_region_golden_numbers():
    # windows preloaded consistent with the worked scenario: both
    # previously issued radii cover, so the level update is upward
    est = AcpEstimator(2, alpha=0.0008, delta=0.05, window_size=30)
    est.lam[1] = 0.0495
    est.windows[1].extend([0.005 * i for i in range(1, 30)] + [0.736])
    est.lam[2] = 0.05
    est.windows[2].extend([0.01 * i for i in range(1, 30)] + [1.329])
    est.issued[(5, 1)] = (0.736, JointAgentState((0,), [[16.650, 9.682]], 5))
    est.issued[(5, 2)] = (1.329, JointAgentState((0,), [[16.700, 9.730]], 5))

    started = time.perf_counter()
    radii = est.step(JointAgentState((0,), [[16.702, 9.726]], 5), None)
    elapsed = time.perf_counter() - started

    beta, lam, _ = est.last[0]
    quantile_index = math.ceil((len(est.windows[1]) + 1) * (1.0 - lam))
    ok = (abs(beta - 0.068) <= 5e-4
          and abs(lam - 0.04954) <= 1e-9
          and quantile_index == 30
          and radii[0] == pytest.approx(0.736, abs=1e-9)
          and radii[1] == pytest.approx(1.329, abs=1e-9)
          and elapsed < 1e-3)
    report(1, ok, f"beta={beta:.4f} lam={lam:.6f} index={quantile_index} "
                  f"radii=({radii[0]:.3f}, {radii[1]:.3f}) "
                  f"step={elapsed * 1e6:.0f}us")


def test_criterion_2_constraint_golden_value():
    # classification goes through the production unsafe-set builder
    spec = GridSpec(width=22, height=12, start_cells={(17, 5): 1.0},
                    goal_cell=(0, 0))
    positions = cell_positions(spec)
    state = spec.state_index(18, 4)
    prediction = PredictionSet(0, 1, (JointAgentState((0,), [[17.334, 9.711]], 1),))
    f_sets = unsafe_sets(positions, prediction, (0.736,), epsilon=2.0)
    margin = constraint_values(positions[[state]], prediction.at(1).positions, 2.0)[0]
    ok = abs(margin - 3.7497) <= 1e-3 and state not in f_sets[1]
    report(2, ok, f"c((18,4), agent)={margin:.4f} vs radius 0.736 -> "
                  f"{'safe' if state not in f_sets[1] else 'unsafe'}")


def test_criterion_3_conformal_coverage_rates():
    started = time.perf_counter()
    stats = acp_coverage_run(steps=10_000, horizon=3, n_agents=3,
                             kind="random-walk", speed=0.1,
                             predictor="constant-velocity", delta=0.05,
                             alpha=0.0008, window=30, seed=0)
    elapsed = time.perf_counter() - started
    rates = {tau: 1.0 - cov for tau, (cov, _) in stats.items()}
    ok = (all(0.03 <= rates[tau] <= 0.07 for tau in (1, 2, 3))
          and all(n > 9000 for _, n in stats.values())
          and elapsed < 10.0)
    shown = ", ".join(f"tau{tau}={rates[tau]:.4f}" for tau in (1, 2, 3))
    report(3, ok, f"violation rates {shown} target 0.05, T=10^4, "
                  f"{elapsed:.1f}s")


def test_criterion_4_winning_regions_match_enumeration():
    rng = np.random.default_rng(4)
    started = time.perf_counter()
    supports_checked = 0
    mismatches = 0
    for _ in range(100):
        model = make_random_pomdp(
            rng,
            n_states=int(rng.integers(4, 13)),
            n_actions=int(rng.integers(2, 4)),
            n_obs=int(rng.integers(2, 4)),
            deterministic_obs=bool(rng.integers(2)))
        horizon = int(rng.integers(1, 4))
        root = random_support(model, rng)
        by_level = {}
        for tau in range(1, horizon + 1):
            k = int(rng.integers(0, model.n_states // 2 + 1))
            by_level[tau] = set(rng.choice(model.n_states, size=k,
                                           replace=False).tolist())
        bsts = Bsts(model, root, horizon)
        shield = Shield(bsts, *compute_winning_regions(bsts, manual_unsafe(horizon, by_level)))
        levels = {tau: frozenset(by_level[tau]) for tau in range(1, horizon + 1)}
        for tau in range(1, horizon + 1):
            for sup in bsts.levels[tau]:
                expected = oracles.enumerate_winning_supports(
                    model, sup, horizon, levels, level=tau)
                supports_checked += 1
                mismatches += (sup in shield.regions[tau]) != expected
        oracle_allowed = oracles.shielded_actions_oracle(
            model, root, 0, horizon, levels)
        mismatches += list(shield.table[0][root]) != oracle_allowed
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 60.0
    report(4, ok, f"100 models, {supports_checked} supports vs policy "
                  f"enumeration, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_5_certificates_hold_on_benchmark(desk_bench):
    results, _, _ = desk_bench
    shielded = [r for r in results if r.method != "no-shield"]
    steps = sum(r.steps for r in shielded)
    failures = sum(r.certificate_failures for r in shielded)
    ok = failures == 0 and steps > 0
    report(5, ok, f"{steps} shielded planning steps re-verified, "
                  f"{failures} certificate failures")


def test_criterion_6_executed_actions_stay_in_winning_region(desk_bench):
    results, _, _ = desk_bench
    acp = [r for r in results if r.method == "shield-acp"]
    checked = sum(r.soundness_checked for r in acp)
    violations = sum(r.soundness_violations for r in acp)
    ok = violations == 0 and checked > 0
    report(6, ok, f"{checked} executed actions replayed against the winning "
                  f"region, {violations} violations")


def test_criterion_7_safety_ordering_with_significance(desk_bench):
    results, _, elapsed = desk_bench
    by_method = {}
    for r in results:
        by_method.setdefault(r.method, {})[(r.n_agents, r.run)] = r.safety_rate
    keys = sorted(by_method["shield-acp"])
    acp = np.array([by_method["shield-acp"][k] for k in keys])
    fixed = np.array([by_method["shield-no-acp"][k] for k in keys])
    bare = np.array([by_method["no-shield"][k] for k in keys])
    p_acp = scipy_stats.ttest_rel(acp, fixed, alternative="greater").pvalue
    p_fixed = scipy_stats.ttest_rel(fixed, bare, alternative="greater").pvalue
    ok = (acp.mean() >= fixed.mean() >= bare.mean()
          and p_acp < 0.05 and p_fixed < 0.05
          and acp.mean() >= 0.93
          and elapsed < 1800.0)
    report(7, ok, f"safety {acp.mean():.4f} >= {fixed.mean():.4f} >= "
                  f"{bare.mean():.4f} (p={p_acp:.2g}, {p_fixed:.2g}), "
                  f"{len(keys)} paired episodes/method, {elapsed / 60:.1f} min")


def identity_obs_pomdp(rng, n_states, n_actions):
    """Random sparse model whose observation reveals the successor state."""
    t = np.zeros((n_states, n_actions, n_states))
    z = np.zeros((n_states, n_actions, n_states))
    r = rng.uniform(-2.0, 2.0, size=(n_states, n_actions))
    for s in range(n_states):
        for a in range(n_actions):
            k = int(rng.integers(1, 4))
            succ = rng.choice(n_states, size=k, replace=False)
            t[s, a, succ] = rng.dirichlet(np.ones(k))
            z[s, a, s] = 1.0
    return oracles.model_from_tables(t, r, z, discount=0.95)


def test_criterion_8_search_matches_exhaustive_expectimax():
    matches = 0
    for trial in range(20):
        rng = np.random.default_rng(800 + trial)
        model = identity_obs_pomdp(rng, n_states=int(rng.integers(3, 7)),
                                   n_actions=int(rng.integers(2, 4)))
        s0 = int(rng.integers(model.n_states))
        planner = Planner(model, PlannerConfig(
            num_simulations=10_000, max_depth=2, ucb_constant=2.0,
            particle_count=1000, seed=trial))
        chosen = planner.plan(planner.make_root([s0] * 1000))
        belief = np.zeros(model.n_states)
        belief[s0] = 1.0
        values = [oracles.belief_expectimax(model, belief, 2, allowed=[a])[0]
                  for a in range(model.n_actions)]
        matches += values[chosen] >= max(values) - 1e-9
    ok = matches >= 18
    report(8, ok, f"root action optimal under depth-2 expectimax in "
                  f"{matches}/20 instances (10^4 simulations each)")


def test_criterion_9_shielding_overhead_bounded():
    # the two sides' episodes interleaved, so that host load drifting over
    # the module's minutes reaches both alike: run by run, back to back,
    # the side that goes first alternating
    base = load_config(CONFIG_DIR / "desk20.yaml")
    model = build_gridworld(base.grid)
    sides = {method: replace(base, method=method, agents=replace(base.agents, count=5))
             for method in ("shield-acp", "no-shield")}
    per_step = {method: [] for method in sides}
    for run in range(20):
        for method in list(sides)[::1 if run % 2 == 0 else -1]:
            per_step[method].append(run_episode(sides[method], run, model).mean_plan_seconds)
    acp, bare = np.mean(per_step["shield-acp"]), np.mean(per_step["no-shield"])
    ratio = acp / bare
    ok = ratio <= 2.0
    report(9, ok, f"per-step wall clock {acp * 1e3:.2f}ms shielded vs "
                  f"{bare * 1e3:.2f}ms bare, ratio {ratio:.2f} <= 2.0")


def test_criterion_10_bench_output_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    config = str(CONFIG_DIR / "desk20.yaml")
    for out in (out_a, out_b):
        code = cli_main(["bench", "--config", config, "--runs", "2",
                         "--out-dir", str(out)])
        assert code == 0
    raw_a = (out_a / "desk20_raw.csv").read_bytes()
    raw_b = (out_b / "desk20_raw.csv").read_bytes()
    ok = raw_a == raw_b and len(raw_a) > 0
    report(10, ok, f"two bench runs, raw CSV {len(raw_a)} bytes, "
                   f"{'identical' if raw_a == raw_b else 'DIFFER'}")
