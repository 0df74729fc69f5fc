"""Dynamic-agent states, trajectory predictors, synthesis, and CSV ingestion.

Agents are exogenous: the robot observes their joint positions each step
and predicts their next ``horizon`` positions with a pluggable predictor.
Real recordings arrive as (frame_id, agent_id, x, y) rows; agents may enter
and leave, so joint states carry agent ids and downstream consumers match
agents by id rather than by index.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    HistoryTooShort,
    InvalidSpec,
    MissingExternalPrediction,
    NonMonotoneFrames,
    OutOfRange,
    ParseError,
)


def _id_key(agent_id):
    # stable ordering for mixed int/str ids
    return (isinstance(agent_id, str), agent_id)


@dataclass(frozen=True)
class JointAgentState:
    """Positions of all agents present at one timestep, ordered by id."""

    ids: tuple
    positions: np.ndarray        # shape (N, 2), grid units
    timestep: int

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 2)
        if len(self.ids) != pos.shape[0]:
            raise InvalidSpec(f"{len(self.ids)} ids for {pos.shape[0]} positions")
        if pos.size and not np.isfinite(pos).all():
            raise InvalidSpec("agent positions must be finite")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "ids", tuple(self.ids))

    @property
    def n_agents(self):
        return len(self.ids)

    def position_of(self, agent_id):
        """Position of one agent, or None when absent."""
        try:
            return self.positions[self.ids.index(agent_id)]
        except ValueError:
            return None

    @classmethod
    def empty(cls, timestep):
        return cls((), np.zeros((0, 2)), timestep)


@dataclass(frozen=True)
class PredictionSet:
    """Joint predictions for timesteps made_at+1 .. made_at+horizon."""

    made_at: int
    horizon: int
    predicted: tuple             # horizon JointAgentState values

    def __post_init__(self):
        if len(self.predicted) != self.horizon:
            raise InvalidSpec(
                f"{len(self.predicted)} predictions for horizon {self.horizon}")
        object.__setattr__(self, "predicted", tuple(self.predicted))

    def at(self, tau):
        """Prediction for timestep made_at + tau, tau in 1..horizon."""
        if not (1 <= tau <= self.horizon):
            raise OutOfRange(f"tau {tau} outside 1..{self.horizon}")
        return self.predicted[tau - 1]


class TrajectorySource:
    """Immutable per-agent position sequences over integer timesteps."""

    def __init__(self, tracks):
        """tracks: dict agent_id -> list of (timestep, (x, y)), increasing t."""
        self._tracks = {}
        for aid, seq in tracks.items():
            seq = sorted(seq, key=lambda p: p[0])
            for (t0, _), (t1, _) in zip(seq, seq[1:]):
                if t1 <= t0:
                    raise NonMonotoneFrames(
                        f"agent {aid!r} has repeated timestep {t1}")
            self._tracks[aid] = {t: np.asarray(p, dtype=float) for t, p in seq}
        times = [t for track in self._tracks.values() for t in track]
        self._span = (min(times), max(times)) if times else None

    @property
    def agent_ids(self):
        return sorted(self._tracks, key=_id_key)

    def span(self):
        """(first, last) timestep with any agent present; None when empty."""
        return self._span

    def agents_at(self, t):
        """Joint state of the agents present at timestep t."""
        if self._span is not None and not (self._span[0] <= t <= self._span[1]):
            raise OutOfRange(f"timestep {t} outside span {self._span}")
        ids = [aid for aid in self.agent_ids if t in self._tracks[aid]]
        if not ids:
            return JointAgentState.empty(t)
        pos = np.stack([self._tracks[aid][t] for aid in ids])
        return JointAgentState(tuple(ids), pos, t)

    def track(self, agent_id):
        """Time-sorted (timestep, position) pairs for one agent."""
        tr = self._tracks[agent_id]
        return [(t, tr[t]) for t in sorted(tr)]


# ---------------------------------------------------------------------------
# predictors


def _velocities(history):
    """Per-agent velocity from the last two joint states, id-matched.

    Agents present only in the final state get zero velocity (they just
    entered; there is nothing to extrapolate from).
    """
    last, prev = history[-1], history[-2]
    vel = {}
    for i, aid in enumerate(last.ids):
        p_prev = prev.position_of(aid)
        vel[aid] = (last.positions[i] - p_prev) if p_prev is not None else np.zeros(2)
    return vel


def predict_constant(history, horizon):
    """Repeat the current joint state for every future step."""
    if not history:
        raise HistoryTooShort("constant predictor needs at least one state")
    last = history[-1]
    preds = tuple(
        JointAgentState(last.ids, last.positions.copy(), last.timestep + tau)
        for tau in range(1, horizon + 1))
    return PredictionSet(last.timestep, horizon, preds)


def predict_constant_velocity(history, horizon):
    """Linear extrapolation from the last two joint states."""
    if len(history) < 2:
        raise HistoryTooShort("constant-velocity predictor needs two states")
    last = history[-1]
    vel = _velocities(history)
    preds = []
    for tau in range(1, horizon + 1):
        pos = np.stack([last.positions[i] + tau * vel[aid]
                        for i, aid in enumerate(last.ids)]) \
            if last.ids else np.zeros((0, 2))
        preds.append(JointAgentState(last.ids, pos, last.timestep + tau))
    return PredictionSet(last.timestep, horizon, preds)


def predict_linear_fit(history, horizon):
    """Per-agent least-squares line through the provided window.

    Each coordinate is regressed on the timestep over the frames where the
    agent appears; agents seen once fall back to their current position.
    """
    if len(history) < 2:
        raise HistoryTooShort("linear-fit predictor needs two states")
    last = history[-1]
    preds_pos = []
    for tau in range(1, horizon + 1):
        preds_pos.append(np.zeros((last.n_agents, 2)))
    for i, aid in enumerate(last.ids):
        ts, pts = [], []
        for js in history:
            p = js.position_of(aid)
            if p is not None:
                ts.append(js.timestep)
                pts.append(p)
        if len(ts) < 2:
            for tau in range(1, horizon + 1):
                preds_pos[tau - 1][i] = last.positions[i]
            continue
        t_arr = np.asarray(ts, dtype=float)
        design = np.stack([np.ones_like(t_arr), t_arr], axis=1)
        coef, *_ = np.linalg.lstsq(design, np.stack(pts), rcond=None)
        for tau in range(1, horizon + 1):
            t_future = last.timestep + tau
            preds_pos[tau - 1][i] = coef[0] + coef[1] * t_future
    preds = tuple(JointAgentState(last.ids, preds_pos[tau - 1], last.timestep + tau)
                  for tau in range(1, horizon + 1))
    return PredictionSet(last.timestep, horizon, preds)


class ReplayPredictor:
    """Serves precomputed predictions loaded from file.

    Lets externally trained models (an LSTM, say) drive the pipeline
    without any in-repo training: predictions are keyed by (made_at, tau).
    """

    def __init__(self, table):
        """table: dict (made_at, tau) -> dict agent_id -> (x, y)."""
        self.table = table

    def __call__(self, history, horizon):
        if not history:
            raise HistoryTooShort("replay predictor needs the current state")
        t = history[-1].timestep
        preds = []
        for tau in range(1, horizon + 1):
            entry = self.table.get((t, tau))
            if entry is None:
                raise MissingExternalPrediction(
                    f"no stored prediction for time {t}, lookahead {tau}")
            ids = tuple(sorted(entry, key=_id_key))
            pos = np.stack([np.asarray(entry[a], dtype=float) for a in ids]) \
                if ids else np.zeros((0, 2))
            preds.append(JointAgentState(ids, pos, t + tau))
        return PredictionSet(t, horizon, preds)


PREDICTORS = {
    "constant": predict_constant,
    "constant-velocity": predict_constant_velocity,
    "linear-fit": predict_linear_fit,
}


def make_predictor(name, predictions_path=None, scale=1.0):
    """Resolve a predictor by name; 'replay' loads predictions_path."""
    if name == "replay":
        if predictions_path is None:
            raise InvalidSpec("replay predictor needs a predictions file")
        return ReplayPredictor(load_predictions(predictions_path, scale=scale))
    try:
        return PREDICTORS[name]
    except KeyError:
        raise InvalidSpec(
            f"unknown predictor {name!r}; choices: "
            f"{sorted(PREDICTORS) + ['replay']}") from None


# ---------------------------------------------------------------------------
# synthesis


def synth_trajectories(kind, n_agents, length, rng, bounds=(0.0, 20.0, 0.0, 20.0),
                       speed=0.8, noise=0.3):
    """Generate n_agents synthetic trajectories of the given length.

    kinds: 'random-walk' (Gaussian steps), 'constant-velocity-with-noise'
    (fixed heading plus Gaussian jitter; noise=0 gives exact lines), and
    'waypoint' (piecewise-constant heading through random waypoints). All
    kinds reflect at the bounds box and are deterministic given the rng.
    """
    if n_agents < 0 or length <= 0:
        raise InvalidSpec(f"need n_agents >= 0 and length > 0, got {n_agents}, {length}")
    xmin, xmax, ymin, ymax = bounds
    lo = np.array([xmin, ymin])
    hi = np.array([xmax, ymax])

    def reflect(p, v):
        for d in range(2):
            if p[d] < lo[d]:
                p[d] = 2 * lo[d] - p[d]
                v[d] = -v[d]
            elif p[d] > hi[d]:
                p[d] = 2 * hi[d] - p[d]
                v[d] = -v[d]
        return p, v

    tracks = {}
    for aid in range(n_agents):
        pos = rng.uniform(lo, hi)
        if kind == "random-walk":
            vel = np.zeros(2)
        else:
            heading = rng.uniform(0.0, 2.0 * math.pi)
            vel = speed * np.array([math.cos(heading), math.sin(heading)])
        waypoint = rng.uniform(lo, hi) if kind == "waypoint" else None
        seq = []
        for t in range(length):
            seq.append((t, pos.copy()))
            if kind == "random-walk":
                step = rng.normal(0.0, speed, size=2)
            elif kind == "constant-velocity-with-noise":
                step = vel + (rng.normal(0.0, noise, size=2) if noise > 0 else 0.0)
            elif kind == "waypoint":
                gap = waypoint - pos
                dist = float(np.linalg.norm(gap))
                if dist < speed:
                    waypoint = rng.uniform(lo, hi)
                    gap = waypoint - pos
                    dist = float(np.linalg.norm(gap))
                step = speed * gap / dist if dist > 0 else np.zeros(2)
                step = step + (rng.normal(0.0, noise, size=2) if noise > 0 else 0.0)
            else:
                raise InvalidSpec(f"unknown synthesis kind {kind!r}")
            pos = pos + step
            if kind == "constant-velocity-with-noise" and noise == 0.0:
                pos, vel = reflect(pos, vel)      # keep exact lines exact inside
            else:
                pos = np.clip(pos, lo, hi)
        tracks[aid] = seq
    return TrajectorySource(tracks)


# ---------------------------------------------------------------------------
# file io


def _parse_id(token):
    try:
        return int(token)
    except ValueError:
        return token


def _split_row(line):
    if "," in line:
        return [tok.strip() for tok in line.split(",")]
    return line.split()


def load_trajectories(path, scale=1.0, frame_stride=1):
    """Read (frame_id, agent_id, x, y) rows into a TrajectorySource.

    Comma- or whitespace-separated, optional header row. Frames are the
    global sorted distinct frame ids subsampled by ``frame_stride``; the
    retained frames become timesteps 0, 1, 2, ... Positions are multiplied
    by ``scale``.
    """
    if frame_stride < 1:
        raise InvalidSpec(f"frame_stride must be >= 1, got {frame_stride}")
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            toks = _split_row(line)
            if len(toks) != 4:
                raise ParseError(f"expected 4 columns, got {len(toks)}", line=lineno)
            try:
                frame = int(float(toks[0]))
                x, y = float(toks[2]), float(toks[3])
            except ValueError:
                if lineno == 1:
                    continue                      # header row
                raise ParseError(f"bad numeric field in {toks!r}", line=lineno) from None
            rows.append((frame, _parse_id(toks[1]), x, y))
    frames = sorted({r[0] for r in rows})
    kept = {f: i for i, f in enumerate(frames[::frame_stride])}
    tracks = {}
    seen = set()
    for frame, aid, x, y in rows:
        if frame not in kept:
            continue
        if (frame, aid) in seen:
            raise NonMonotoneFrames(f"agent {aid!r} appears twice in frame {frame}")
        seen.add((frame, aid))
        tracks.setdefault(aid, []).append((kept[frame], (x * scale, y * scale)))
    return TrajectorySource(tracks)


def save_trajectories(source, path):
    """Write a TrajectorySource back out as frame_id,agent_id,x,y rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame_id", "agent_id", "x", "y"])
        for aid in source.agent_ids:
            for t, pos in source.track(aid):
                writer.writerow([t, aid, repr(float(pos[0])), repr(float(pos[1]))])


def load_predictions(path, scale=1.0):
    """Read (t, tau, agent_id, x, y) rows into a replay-predictor table."""
    table = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            toks = _split_row(line)
            if len(toks) != 5:
                raise ParseError(f"expected 5 columns, got {len(toks)}", line=lineno)
            try:
                t, tau = int(float(toks[0])), int(float(toks[1]))
                x, y = float(toks[3]), float(toks[4])
            except ValueError:
                if lineno == 1:
                    continue
                raise ParseError(f"bad numeric field in {toks!r}", line=lineno) from None
            table.setdefault((t, tau), {})[_parse_id(toks[2])] = (x * scale, y * scale)
    return table
