"""Command-line entry points: run, bench, validate, coverage."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import yaml

from .gridworld import build_gridworld
from .harness import (
    METHODS,
    acp_coverage_run,
    bench_lists,
    expand_grid,
    format_table,
    load_config,
    run_benchmark,
    run_episode,
    run_many,
    write_aggregate_csv,
    write_raw_csv,
)


def _add_config_arguments(parser):
    parser.add_argument("--config", required=True, help="experiment YAML file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--method", choices=METHODS, help="override the method")
    parser.add_argument("--runs", type=int, help="override the run count")
    parser.add_argument("--label", help="override the experiment label")


def _load(args):
    overrides = {"seed": args.seed, "method": args.method,
                 "runs": args.runs, "label": args.label}
    return load_config(args.config, overrides)


def _json_ready(value):
    if isinstance(value, dict):
        return {str(k): _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def cmd_run(args):
    cfg = _load(args)
    model = build_gridworld(cfg.grid)
    hooks = []
    result = run_episode(cfg, run=args.run, model=model, step_hook=hooks.append)

    if not args.quiet:
        for rec in result.records:
            act = model.action_names[rec.action] if rec.action >= 0 else "-"
            flags = ("D" if rec.deadlock else "") + ("!" if not rec.safe else "")
            if rec.done:
                flags += f" [{rec.done}]"
            radii = ("  r=" + ",".join(f"{r:.3g}" for r in rec.radius)
                     if rec.radius is not None else "")
            print(f"t={rec.t:<4d} cell=({rec.x:g},{rec.y:g}) a={act:<5s} "
                  f"c={rec.c_value: .3f}{radii} {flags}")
    print(f"steps={result.steps} success={result.success} "
          f"safety={result.safety_rate:.4f} min_dist={result.min_distance:.3f} "
          f"collisions={result.collisions} deadlocks={result.deadlocks} "
          f"return={result.realized_return:g}")
    if result.coverage:
        parts = ", ".join(
            f"tau={tau}: {cov:.3f} ({n})" if cov is not None else f"tau={tau}: - (0)"
            for tau, (cov, n) in sorted(result.coverage.items()))
        print(f"coverage: {parts}")

    if args.dump:
        payload = {
            "label": cfg.label, "method": cfg.method, "seed": cfg.seed,
            "run": args.run,
            "result": {
                "steps": result.steps, "success": result.success,
                "safety_rate": result.safety_rate,
                "min_distance": result.min_distance,
                "collisions": result.collisions,
                "deadlocks": result.deadlocks,
                "soundness_checked": result.soundness_checked,
                "soundness_violations": result.soundness_violations,
                "certificate_failures": result.certificate_failures,
            },
            "steps": hooks,
        }
        Path(args.dump).write_text(json.dumps(_json_ready(payload), indent=2))
        print(f"wrote {args.dump}")
    return 0


def cmd_bench(args):
    cfg = _load(args)
    with open(args.config) as fh:
        raw = yaml.safe_load(fh) or {}
    methods, counts = bench_lists(raw)
    if args.methods:
        methods = args.methods.split(",")
    if args.agent_counts:
        counts = [int(c) for c in args.agent_counts.split(",")]
    configs = expand_grid(cfg, methods, counts)

    results, rows = run_benchmark(configs)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    raw_path = out / f"{cfg.label}_raw.csv"
    agg_path = out / f"{cfg.label}_aggregate.csv"
    write_raw_csv(results, raw_path)
    write_aggregate_csv(rows, agg_path)
    print(format_table(rows))
    print(f"\nwrote {raw_path} and {agg_path}")
    return 0


def cmd_validate(args):
    cfg = _load(args)
    if cfg.method == "no-shield":
        print("validate needs a shielded method; use --method to pick one",
              file=sys.stderr)
        return 2
    cfg = replace(cfg, verify_certificates=True)
    model = build_gridworld(cfg.grid)
    cert_failures = violations = checked = deadlocks = 0
    for run, r in enumerate(run_many(cfg, model)):
        cert_failures += r.certificate_failures
        violations += r.soundness_violations
        checked += r.soundness_checked
        deadlocks += r.deadlocks
        print(f"run={run} steps={r.steps} certificate_failures="
              f"{r.certificate_failures} soundness={r.soundness_checked - r.soundness_violations}"
              f"/{r.soundness_checked} deadlocks={r.deadlocks}")
    ok = cert_failures == 0 and violations == 0
    print(f"{'PASS' if ok else 'FAIL'}: {cfg.runs} episodes, "
          f"{cert_failures} certificate failures, "
          f"{violations}/{checked} soundness violations, {deadlocks} deadlocks")
    return 0 if ok else 1


def cmd_coverage(args):
    stats = acp_coverage_run(
        steps=args.steps, horizon=args.horizon, n_agents=args.agents,
        kind=args.kind, speed=args.speed, noise=args.noise,
        predictor=args.predictor, delta=args.delta, alpha=args.alpha,
        window=args.window, seed=args.seed)
    target = 1.0 - args.delta
    for tau, (cov, tested) in sorted(stats.items()):
        shown = f"{cov:.4f}" if cov is not None else "-"
        print(f"tau={tau} coverage={shown} tested={tested} target={target:.4f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="acpshield",
        description="Shielded POMDP planning among dynamic agents")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one episode and print its trace")
    _add_config_arguments(run)
    run.add_argument("--run", type=int, default=0, help="run index (seed stream)")
    run.add_argument("--dump", help="write per-step diagnostics to a JSON file")
    run.add_argument("--quiet", action="store_true", help="summary only")
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench", help="run a benchmark grid, write CSVs")
    _add_config_arguments(bench)
    bench.add_argument("--out-dir", default="results", help="output directory")
    bench.add_argument("--methods", help="comma-separated method list")
    bench.add_argument("--agent-counts", help="comma-separated agent counts")
    bench.set_defaults(func=cmd_bench)

    validate = sub.add_parser(
        "validate", help="re-verify shield certificates over whole episodes")
    _add_config_arguments(validate)
    validate.set_defaults(func=cmd_validate)

    coverage = sub.add_parser(
        "coverage", help="conformal coverage of the radii, planner excluded")
    coverage.add_argument("--steps", type=int, default=10_000)
    coverage.add_argument("--horizon", type=int, default=3)
    coverage.add_argument("--agents", type=int, default=3)
    coverage.add_argument("--kind", default="random-walk")
    coverage.add_argument("--speed", type=float, default=0.1)
    coverage.add_argument("--noise", type=float, default=0.0)
    coverage.add_argument("--predictor", default="constant-velocity")
    coverage.add_argument("--delta", type=float, default=0.05)
    coverage.add_argument("--alpha", type=float, default=0.0008)
    coverage.add_argument("--window", type=int, default=30)
    coverage.add_argument("--seed", type=int, default=0)
    coverage.set_defaults(func=cmd_coverage)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
