"""Closed-loop step-latency benchmark of the shielded planner.

    python3 stepbench/run.py --workload desk20 --seed 0 --seconds 45 --trace 0

Run from the root of a checkout. One single-threaded process plays episodes
of one workload back to back through the public API (``parse_config``,
``build_gridworld``, ``build_source``, ``run_episode`` and its
``step_hook``), checks the outputs, and prints one JSON object as its last
line: ``correct``, ``attempted`` and ``failed`` planning steps, and the
metrics. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` plays
every episode twice in a row, untraced and then with spans around every
layer call, and reports the per-layer metrics. See README.md.

A run plays whole rounds: the same episodes (run indices 0..K-1 of the
seeded config) in the same order. Episodes are deterministic, so every
round repeats the first one's outputs exactly. The checks run on the first
round; later rounds, the traced replays and one replay of the first
episode after measuring are compared against it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 21


@dataclass
class Episode:
    run: int
    wall: float            # s inside run_episode
    stamps: list           # perf_counter at each step hook
    steps: list            # (t, state, action, deadlock[, support, unsafe]) per step
    result: object         # EpisodeResult, or None when the episode raised
    error: str = ""

    def signature(self, full=False):
        """What must repeat exactly between plays; ``full`` adds the kept step data."""
        r = self.result
        summary = None if r is None else (r.steps, r.success, r.safety_rate,
                                          r.realized_return, r.deadlocks)
        return [s if full else s[:4] for s in self.steps], summary

    def intervals_ms(self):
        return [1000.0 * (b - a) for a, b in zip(self.stamps, self.stamps[1:])]

    @property
    def attempted(self):
        """Planning steps attempted; in an episode that raised, the raising step counts."""
        return self.result.steps if self.result is not None else len(self.steps) + 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup(config_path, n_runs):
    """Parse the config, build the model, load or synthesize agents and predictions."""
    from acpshield import harness, trajectory

    start = perf_counter()
    with open(config_path, encoding="utf-8") as fh:
        cfg = harness.parse_config(yaml.safe_load(fh))
    built = perf_counter()
    model = harness.build_gridworld(cfg.grid)
    loading = perf_counter()
    if cfg.agents.csv_path is not None:
        sources = [harness.build_source(cfg, 0)] * n_runs    # a log does not depend on run
    else:
        sources = [harness.build_source(cfg, run) for run in range(n_runs)]
    if cfg.predictor == "replay":
        trajectory.make_predictor(cfg.predictor, cfg.predictions_path, cfg.agents.scale)
    end = perf_counter()
    times = {"setup": end - start, "build": loading - built, "load": end - loading}
    return cfg, model, sources, times


def pack_cells(cells, n_states):
    """A set of states as a bitmap over the model's states, in bytes."""
    mask = np.zeros(n_states, dtype=bool)
    mask[cells] = True
    return np.packbits(mask).tobytes()


def unpack_cells(bits, n_states):
    return np.flatnonzero(np.unpackbits(np.frombuffer(bits, np.uint8), count=n_states)).tolist()


def play_episode(cfg, model, run, source, keep_steps, tracer=None, episode=""):
    """One ``run_episode`` call, timed at every step hook."""
    from acpshield import harness

    stamps, steps = [], []

    def hook(info):
        stamps.append(perf_counter())
        step = (info["t"], info["state"], info["action"], info["deadlock"])
        if keep_steps:
            # packed, so that what the checks need adds little to the peak
            # memory measured and nothing to the collector's work
            step += (np.array(info["support"], dtype=np.int32).tobytes(),
                     tuple(pack_cells(cells, model.n_states)
                           for cells in info["unsafe"].values()))
        steps.append(step)
        if tracer is not None:
            tracer.on_step(episode, len(stamps))

    play = harness.run_episode
    if tracer is not None:
        tracer.on_step(episode, 0)
        play = tracer.timed("episode", play)
    start = perf_counter()
    error = ""
    try:
        result = play(cfg, run, model, source, step_hook=hook)
    except Exception:   # an episode that raises is failed, not fatal
        result, error = None, traceback.format_exc()
    return Episode(run, perf_counter() - start, stamps, steps, result, error)


def play_round(cfg, model, sources, keep_steps, tracer=None, label="", after_episode=None):
    """One episode per source, back to back: ([Episode], [traced Episode]).

    With a tracer, each episode is played twice in a row, untraced and then
    traced, so that both sides of the tracing overhead see the same machine.
    ``after_episode(n)`` runs, untimed by the episodes, after the n-th.
    """
    episodes, traced = [], []
    for run, source in enumerate(sources):
        episodes.append(play_episode(cfg, model, run, source, keep_steps))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(play_episode(cfg, model, run, source, False, tracer,
                                           f"{label}{run}"))
            finally:
                tracer.remove()
        if after_episode is not None:
            after_episode(run + 1)
    return episodes, traced


def play_for(seconds, play):
    """Whole rounds until the next one would end past ``seconds``; at least one."""
    rounds = []
    start = perf_counter()
    while True:
        rounds.append(play(len(rounds)))
        elapsed = perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def check_round(episodes, cfg, model, sources):
    """Failed planning steps of one round, and what failed, by the checks."""
    import checks

    reach_avoid = checks.ReachAvoid(model, cfg.horizon)

    def step_ok(t, state, action, deadlock, support, unsafe):
        return reach_avoid.step_ok(t, state, action, deadlock,
                                   np.frombuffer(support, np.int32).tolist(),
                                   [unpack_cells(bits, model.n_states) for bits in unsafe])

    tests = {}
    failed = 0
    problems = []
    safety = []
    for ep, source in zip(episodes, sources):
        if ep.result is None:
            failed += ep.attempted
            problems.append(f"episode {ep.run} raised:\n{ep.error}")
            continue
        r = ep.result
        bad = {s[0] for s in ep.steps if not step_ok(*s)}
        if bad:
            problems.append(f"episode {ep.run}: reach-avoid check failed at t={sorted(bad)}")
        flags = checks.safety_flags(r.records, source, cfg.epsilon)
        bad |= {rec.t for rec, flag in zip(r.records, flags) if rec.safe != flag}
        rate = sum(flags) / len(flags)
        safety.append(rate)
        whole = []
        if r.deprived:
            whole.append("ended deprived")
        if r.certificate_failures or r.soundness_violations:
            whole.append(f"{r.certificate_failures} certificate failures, "
                         f"{r.soundness_violations} soundness violations")
        if abs(rate - r.safety_rate) > 1e-12 or flags.count(False) != r.collisions:
            whole.append(f"safety {r.safety_rate} / {r.collisions} collisions reported, "
                         f"{rate} / {flags.count(False)} recomputed")
        if whole:
            problems.append(f"episode {ep.run}: " + "; ".join(whole))
            failed += r.steps
        else:
            failed += len(bad)
        for rec in r.records:
            for tau, violated in enumerate(rec.violated or (), start=1):
                if violated is not None:
                    tests[(id(source), rec.t, tau)] = violated
    ok, coverage, n = checks.coverage_ok(tests, cfg.delta)
    if not ok:
        problems.append(f"pooled ACP coverage {coverage:.4f} over {n} tests")
        failed = sum(ep.attempted for ep in episodes)
    return failed, problems, safety, (coverage, n)


def end_to_end(rounds, setups, safety, rss_kb):
    episodes = [ep for rnd in rounds for ep in rnd]
    steps = sum(ep.attempted for ep in episodes)
    intervals = [d for ep in episodes for d in ep.intervals_ms()]
    return {
        "steps_per_s": (steps / sum(ep.wall for ep in episodes), "1/s"),
        "step_ms_p50": (float(np.percentile(intervals, 50)), "ms"),
        "setup_s": (statistics.median(s["setup"] for s in setups), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "safety_rate": (statistics.fmean(safety) if safety else 0.0, "ratio"),
    }, intervals


def per_layer(workload, rounds, traced_rounds, setups, tracer):
    from spans import TARGETS

    untraced = [ep for rnd in rounds for ep in rnd]
    traced = [ep for rnd in traced_rounds for ep in rnd]
    steps = sum(ep.attempted for ep in traced)
    wall = sum(ep.wall for ep in traced)
    self_s = tracer.self_times()
    c = tracer.counts
    plan_s = sum(end - start for name, start, end, _, _ in tracer.spans
                 if name == "planner.plan")

    def ms(name):
        return 1000.0 * self_s.get(name, 0.0) / steps

    def ratio(num, den):
        return num / den if den else 0.0

    untraced_rate = sum(ep.attempted for ep in untraced) / sum(ep.wall for ep in untraced)
    metrics = {
        "harness.self_ms_per_step": (ms("episode"), "ms"),
        "gridworld.build_ms": (1000.0 * statistics.median(s["build"] for s in setups), "ms"),
        "trajectory.load_ms": (1000.0 * statistics.median(s["load"] for s in setups), "ms"),
        "trajectory.agents_at_ms_per_step": (ms("trajectory.agents_at"), "ms"),
        "trajectory.predict_ms_per_step": (ms("trajectory.predict"), "ms"),
        "trajectory.load_predictor_ms_per_step": (ms("trajectory.load_predictor"), "ms"),
        "acp.step_ms_per_step": (ms("acp.step"), "ms"),
        "acp.agents_scored_per_step": (c["agents_scored"] / steps, "count"),
        "shield.unsafe_ms_per_step": (ms("shield.unsafe"), "ms"),
        "shield.margins_per_step": (c["margins"] / steps, "count"),
        "shield.bsts_ms_per_step": (ms("shield.bsts"), "ms"),
        "shield.bsts_builds_per_step": (c["bsts_builds"] / steps, "count"),
        "shield.bsts_nodes_per_build": (ratio(c["bsts_nodes"], c["bsts_builds"]), "count"),
        "shield.winning_ms_per_step": (ms("shield.winning"), "ms"),
        "shield.table_ms_per_step": (ms("shield.table"), "ms"),
        "shield.verify_ms_per_step": (ms("shield.verify"), "ms"),
        "planner.plan_ms_per_step": (ms("planner.plan"), "ms"),
        "planner.simulations_per_s": (ratio(c["simulations"], plan_s), "1/s"),
        "planner.nodes_per_step": (ratio(c["nodes"], c["plans"]), "count"),
        "planner.root_pruned_per_step": (ratio(c["root_pruned"], c["plans"]), "count"),
        "planner.advance_ms_per_step": (ms("planner.advance"), "ms"),
        "planner.fallback_ms_per_step": (ms("planner.fallback"), "ms"),
        "planner.deadlock_steps": (c["deadlocks"] / len(traced_rounds), "count"),
        "pomdp.generative_steps_per_step": (c["generative_steps"] / steps, "count"),
        "pomdp.resample_ms_per_step": (ms("pomdp.resample"), "ms"),
        "pomdp.resample_accept_ratio": (ratio(c["resample_accepted"],
                                              c["resample_attempts"]), "ratio"),
        "trace.step_ms": (1000.0 * wall / steps, "ms"),
        "trace.overhead_pct": (100.0 * (untraced_rate / (steps / wall) - 1.0), "%"),
    }
    accounted = sum(self_s.values()) / wall
    target = sum(self_s.get(name, 0.0) for name in TARGETS[workload]) / wall
    notes = [f"spans account for {accounted:.4f} of the traced step wall time",
             f"target layers {'+'.join(TARGETS[workload])} take {target:.3f} of it"]
    return metrics, notes


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "acpshield" / "__init__.py").is_file():
        print(f"stepbench: {ROOT / 'src' / 'acpshield'} not found; run the benchmark "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import inputs

    if args.workload not in inputs.WORKLOADS:
        print(f"stepbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(inputs.WORKLOADS)}", file=sys.stderr)
        return 2
    _, n_runs = inputs.WORKLOADS[args.workload]
    config_path = inputs.generate(args.workload, args.seed, HERE / "generated" / args.workload)
    gc.collect()
    cfg, model, sources, times = setup(config_path, n_runs)
    setups = [times]

    def more_setups(done):
        # The other repeats are spread over the first round, between its
        # episodes, so that they meet the same phases of a shared host's speed
        # as the episodes do. In one burst they would meet a single phase: on
        # a shared 2-vCPU virtual machine, set-up time swung 1.7x within seconds.
        while len(setups) < 1 + done * (SETUP_REPEATS - 1) // n_runs:
            gc.collect()
            setups.append(setup(config_path, n_runs)[3])

    gc.collect()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    played = play_for(args.seconds, lambda i: play_round(
        cfg, model, sources, keep_steps=i == 0, tracer=tracer, label=f"{i}.",
        after_episode=more_setups if i == 0 else None))
    rounds = [plain for plain, _ in played]
    traced = [spanned for _, spanned in played]
    all_rounds = rounds + traced if args.trace else rounds
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss   # before the checks

    checking = perf_counter()
    failed, problems, safety, (coverage, n_tests) = check_round(rounds[0], cfg, model, sources)
    steps_per_round = sum(ep.attempted for ep in rounds[0])
    first = [ep.signature() for ep in rounds[0]]
    repeats = all([ep.signature() for ep in rnd] == first for rnd in all_rounds[1:])
    if not repeats:
        problems.append("a later round did not repeat the first round's outputs")
    replay = play_episode(cfg, model, 0, sources[0], keep_steps=True)
    if replay.signature(full=True) != rounds[0][0].signature(full=True):
        repeats = False
        problems.append("a replay of episode 0 did not repeat its first play")
        failed = min(failed + rounds[0][0].attempted, steps_per_round)
    notes = [f"ACP coverage {coverage:.4f} over {n_tests} tests",
             f"checks took {perf_counter() - checking:.1f} s"]

    if args.trace:
        metrics, layer_notes = per_layer(args.workload, rounds, traced, setups, tracer)
        notes += layer_notes
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics, intervals = end_to_end(rounds, setups, safety, rss_kb)
        # printed, not reported: its spread over seeds is wider than a bound may be
        notes.append(f"step p95 {np.percentile(intervals, 95):.2f} ms over "
                     f"{len(intervals)} step intervals")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(all_rounds)} rounds of {len(sources)} "
          f"episodes, {steps_per_round} planning steps each; " + "; ".join(notes))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": repeats and failed == 0,
        "attempted": steps_per_round * len(all_rounds),
        "failed": failed * len(all_rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
