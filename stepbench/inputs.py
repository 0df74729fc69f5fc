"""Workload definitions and seeded input generation for the step benchmark.

Every input the program sees is written here from the benchmark seed: one
YAML config per workload and, for ``crowd-replay``, a pedestrian-style
trajectory log and a replay prediction file. The generator is the
benchmark's own numpy code, so a change to the program's synthesis cannot
change the crowd it is measured on.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import yaml

from acpshield import harness

ROOT = Path(__file__).resolve().parent.parent


def desk20_config():
    """configs/desk20.yaml as committed, minus its run count and bench grid."""
    with open(ROOT / "configs" / "desk20.yaml", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    del data["runs"], data["bench"]
    return data


CROWD_SIZE = 32           # grid cells per side
CROWD_PRESENT = 200       # agents in the scene at every timestep
CROWD_LIFE = (20, 80)     # visible lifetime range, timesteps
CROWD_SPEED = (0.2, 0.6)  # cells per timestep
CROWD_JITTER = 0.05       # per-step Gaussian position jitter, cells
PRED_SIGMA = 0.1          # replay prediction error per coordinate, times tau


def crowd_config():
    data = desk20_config()
    data["label"] = "crowd-replay"
    last = CROWD_SIZE - 2
    data["grid"] = {"width": CROWD_SIZE, "height": CROWD_SIZE,
                    "start": [1, 1], "goal": [last, last]}
    data["agents"] = {"count": CROWD_PRESENT}
    data["acp"]["predictor"] = "replay"
    return data


# name -> (base config maker, episodes K per round). A round is the unit a run
# repeats. K makes one round take about 40 s on a 2-core x86 machine, so a
# run measures many distinct episodes, and gives a round at least 200 step
# intervals, so at least 10 lie beyond the 95th percentile.
WORKLOADS = {
    "desk20": (desk20_config, 48),
    "crowd-replay": (crowd_config, 10),
}


def crowd_agents(rng, length, horizon):
    """Ground-truth crowd: (birth (n,), life (n,), paths (n, longest life + horizon, 2)).

    CROWD_PRESENT slots each hold one agent at a time: when an agent's
    lifetime ends it leaves and a new agent, with a new id, appears at a
    uniform point in the same timestep, so the scene always holds exactly
    CROWD_PRESENT agents while its members turn over. Agents walk at a fixed
    heading with jitter and reflect off the walls. ``paths[i, k]`` is agent
    i's position k steps after its birth; each path runs ``horizon`` steps
    past the agent's exit so the replayed predictions can refer to its true
    future.
    """
    lo_life, hi_life = CROWD_LIFE
    births, lives = [], []
    for start in rng.integers(-hi_life, 1, size=CROWD_PRESENT):
        t = int(start)
        while t < length:
            life = int(rng.integers(lo_life, hi_life + 1))
            if t + life > 0:
                births.append(t)
                lives.append(life)
            t += life
    birth, life = np.array(births), np.array(lives)
    n, span = len(birth), hi_life + horizon
    heading = rng.uniform(0.0, 2.0 * np.pi, size=n)
    speed = rng.uniform(*CROWD_SPEED, size=n)
    vel = np.stack([np.cos(heading), np.sin(heading)], axis=1) * speed[:, None]
    pos = rng.uniform(0.0, CROWD_SIZE, size=(n, 2))
    jitter = rng.normal(0.0, CROWD_JITTER, size=(span, n, 2))
    paths = np.empty((n, span, 2))
    for k in range(span):
        paths[:, k] = pos
        pos = pos + vel + jitter[k]
        low, high = pos < 0.0, pos > CROWD_SIZE
        pos = np.where(low, -pos, np.where(high, 2.0 * CROWD_SIZE - pos, pos))
        vel = np.where(low | high, -vel, vel)
    return birth, life, paths


def write_crowd(out_dir, seed, length, horizon):
    """Write crowd.csv (frame_id,agent_id,x,y) and predictions.csv (t,tau,agent_id,x,y).

    Predictions exist for every agent visible at t, for every t < length:
    its true position at t + tau plus Gaussian error of sd PRED_SIGMA * tau.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    birth, life, paths = crowd_agents(rng, length, horizon)
    log_rows = ["frame_id,agent_id,x,y"]
    pred_rows = ["t,tau,agent_id,x,y"]
    for t in range(length):
        ids = np.flatnonzero((birth <= t) & (t < birth + life))
        age = t - birth[ids]
        now = paths[ids, age]
        log_rows.extend(f"{t},{aid},{x:.6f},{y:.6f}" for aid, (x, y) in zip(ids, now))
        for tau in range(1, horizon + 1):
            noisy = paths[ids, age + tau] + rng.normal(0.0, PRED_SIGMA * tau,
                                                       size=(len(ids), 2))
            pred_rows.extend(f"{t},{tau},{aid},{x:.6f},{y:.6f}"
                             for aid, (x, y) in zip(ids, noisy))
    (out_dir / "crowd.csv").write_text("\n".join(log_rows) + "\n")
    (out_dir / "predictions.csv").write_text("\n".join(pred_rows) + "\n")


def generate(workload, seed, out_dir):
    """Write the workload's inputs for ``seed`` to ``out_dir``; returns the config path.

    The logs cover every timestep an episode reads, warm-up included.
    """
    make_config, _ = WORKLOADS[workload]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = make_config()
    data["seed"] = seed
    if data["acp"]["predictor"] == "replay":
        length = harness.episode_horizon(harness.parse_config(data))
        write_crowd(out_dir, seed, length, data["acp"]["horizon"])
        data["agents"]["csv"] = str(out_dir / "crowd.csv")
        data["acp"]["predictions"] = str(out_dir / "predictions.csv")
    path = out_dir / "config.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    return path


if __name__ == "__main__":
    # PYTHONPATH=src python3 stepbench/inputs.py WORKLOAD SEED
    import sys
    name, seed = sys.argv[1], int(sys.argv[2])
    print(generate(name, seed, Path(__file__).resolve().parent / "generated" / name))
