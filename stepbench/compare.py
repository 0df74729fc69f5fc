"""Compare two checkouts on one workload with alternating paired runs.

    python3 stepbench/compare.py PARENT_DIR CHANGE_DIR --workload desk20 \
        --seeds 0-9 --seconds 45

Each directory is a full checkout (``git archive <commit> | tar -x -C DIR``)
and runs its own ``stepbench/run.py``, so keep the benchmark identical on
both sides. Pair i runs seed i on both sides, the parent first on even
pairs and the change first on odd ones. For every end-to-end metric it
prints each side's median and quartiles, the pairs the change won, and a
verdict: "gain" when the change won at least 9 in 10 pairs and the medians
differ by more than the parent's own quartile spread, "regression" when the
change's median is worse than the parent's by more than the bound in
BENCHMARK.json, "unresolved" when that spread is wider than the bound, and
"same" otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(checkout, workload, seed, seconds):
    cmd = [sys.executable, "stepbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description="paired runs of two checkouts")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--seconds", type=int, default=45)
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())

    results = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            out = run(getattr(args, side), args.workload, seed, args.seconds)
            results[side].append(out)
            print(f"pair {i} seed {seed} {side}: failed {out['failed']}/{out['attempted']}"
                  f" correct {out['correct']}", file=sys.stderr)

    print(f"{'metric':14s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s}"
          f" {'wins':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], (1 if metric["better"] == "higher" else -1)
        values = {side: [r["metrics"][name]["value"] for r in rows]
                  for side, rows in results.items()}
        quart = {side: statistics.quantiles(v, n=4) for side, v in values.items()}
        med = {side: q[1] for side, q in quart.items()}
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        spread = quart["parent"][2] - quart["parent"][0]
        worse = -sign * (med["change"] - med["parent"]) / med["parent"]
        if wins >= 0.9 * len(args.seeds) and sign * (med["change"] - med["parent"]) > spread:
            verdict = "gain"
        elif worse > metric["bound"]:
            verdict = "regression"
        elif spread / med["parent"] > metric["bound"]:
            verdict = "unresolved"
        else:
            verdict = "same"
        cells = [f"{med[s]:.5g} [{quart[s][0]:.5g}, {quart[s][2]:.5g}]" for s in ("parent", "change")]
        print(f"{name:14s} {cells[0]:34s} {cells[1]:34s} {wins:>3d}/{len(args.seeds):<2d}  {verdict}")


if __name__ == "__main__":
    main()
