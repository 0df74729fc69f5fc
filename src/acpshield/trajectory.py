"""Dynamic-agent states, trajectory predictors, synthesis, and CSV ingestion.

Agents are exogenous: the robot observes their joint positions each step
and predicts their next ``horizon`` positions with a pluggable predictor.
Real recordings arrive as (frame_id, agent_id, x, y) rows; agents may enter
and leave, so joint states carry agent ids and downstream consumers match
agents by id rather than by index.
"""

from __future__ import annotations

import csv
import itertools
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
    """Positions of all agents present at one timestep, ordered by distinct id."""

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

    def shared_rows(self, other):
        """Rows, here and in ``other``, of the agents present in both states,
        as two index lists in this state's id order."""
        theirs = dict(zip(other.ids, range(len(other.ids))))
        mine = [i for i, aid in enumerate(self.ids) if aid in theirs]
        return mine, [theirs[self.ids[i]] for i in mine]

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
    """Immutable agent positions over integer timesteps.

    Kept as one frame per timestep: the ids present, in id order (timesteps
    with equal id sets share one tuple), and a read-only (n, 2) array of
    their positions.
    """

    def __init__(self, tracks):
        """tracks: dict agent_id -> list of (timestep, (x, y)), increasing t."""
        seqs = {}
        for aid, seq in tracks.items():
            seq = sorted(seq, key=lambda p: p[0])
            for (t0, _), (t1, _) in zip(seq, seq[1:]):
                if t1 <= t0:
                    raise NonMonotoneFrames(
                        f"agent {aid!r} has repeated timestep {t1}")
            seqs[aid] = seq
        ids = sorted(seqs, key=_id_key)
        present = {}                  # timestep -> (ids, points) present, in id order
        for aid in ids:
            for t, p in seqs[aid]:
                at_ids, at_points = present.setdefault(t, ([], []))
                at_ids.append(aid)
                at_points.append(p)
        self._set_frames(ids, {
            t: (tuple(at_ids), np.array(at_points, dtype=float).reshape(-1, 2))
            for t, (at_ids, at_points) in sorted(present.items())})

    @classmethod
    def _from_frames(cls, ids, frames):
        """A source from all agent ids in id order and time-sorted frames
        {t: (ids present, (n, 2) positions)}."""
        source = cls.__new__(cls)
        source._set_frames(ids, frames)
        return source

    def _set_frames(self, ids, frames):
        self._ids = tuple(ids)
        shared = {}
        self._frames = {}
        for t, (present, positions) in frames.items():
            positions.flags.writeable = False
            self._frames[t] = (shared.setdefault(present, present), positions)
        self._span = (min(frames), max(frames)) if frames else None

    @property
    def agent_ids(self):
        return list(self._ids)

    def span(self):
        """(first, last) timestep with any agent present; None when empty."""
        return self._span

    def agents_at(self, t):
        """Joint state of the agents present at timestep t."""
        if self._span is not None and not (self._span[0] <= t <= self._span[1]):
            raise OutOfRange(f"timestep {t} outside span {self._span}")
        frame = self._frames.get(t)
        if frame is None:
            return JointAgentState.empty(t)
        return JointAgentState(*frame, t)


# ---------------------------------------------------------------------------
# predictors


def _velocities(history):
    """Per-agent velocity from the last two joint states, id-matched.

    Rows follow the last state. Agents present only in the final state get
    zero velocity (they just entered; there is nothing to extrapolate from).
    """
    last, prev = history[-1], history[-2]
    mine, theirs = last.shared_rows(prev)
    vel = np.zeros_like(last.positions)
    vel[mine] = last.positions[mine] - prev.positions[theirs]
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
    preds = tuple(
        JointAgentState(last.ids, last.positions + tau * vel, last.timestep + tau)
        for tau in range(1, horizon + 1))
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
    seen = [([], []) for _ in last.ids]       # per agent: timesteps, positions
    for js in history:
        for i, j in zip(*last.shared_rows(js)):
            seen[i][0].append(js.timestep)
            seen[i][1].append(js.positions[j])
    for i, (ts, pts) in enumerate(seen):
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
        """table: dict (made_at, tau) -> (ids, (n, 2) positions), as
        ``load_predictions`` returns it."""
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
            preds.append(JointAgentState(*entry, t + tau))
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

    points = np.empty((length, n_agents, 2))
    for aid in range(n_agents):
        pos = rng.uniform(lo, hi)
        if kind == "random-walk":
            vel = np.zeros(2)
        else:
            heading = rng.uniform(0.0, 2.0 * math.pi)
            vel = speed * np.array([math.cos(heading), math.sin(heading)])
        waypoint = rng.uniform(lo, hi) if kind == "waypoint" else None
        for t in range(length):
            points[t, aid] = pos
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
    ids = tuple(range(n_agents))
    frames = {t: (ids, points[t]) for t in range(length)} if n_agents else {}
    return TrajectorySource._from_frames(ids, frames)


# ---------------------------------------------------------------------------
# file io


_CHUNK_LINES = 4096       # lines per chunk of _read_table


def _parse_id(token):
    try:
        return int(token)
    except ValueError:
        return token


def _split_row(line):
    if "," in line:
        return [tok.strip() for tok in line.split(",")]
    return line.split()


def _numbers_parse(toks, n_frames):
    """Whether a row's frame fields read as int(float(.)) within int64 and
    its x and y as floats."""
    try:
        float(toks[-2]), float(toks[-1])
        return all(abs(float(tok)) < 2.0 ** 63 for tok in toks[:n_frames])
    except ValueError:
        return False


def _to_columns(cols, n_frames):
    """Frame columns (int64, truncated like int(float(.))), ids, x and y of
    token columns; raises ValueError when a numeric field does not parse."""
    n = len(cols[0])
    frames = [np.fromiter(map(float, col), float, n) for col in cols[:n_frames]]
    if not all((np.abs(f) < 2.0 ** 63).all() for f in frames):   # NaN, inf, past int64
        raise ValueError("frame outside int64")
    x = np.fromiter(map(float, cols[-2]), float, n)
    y = np.fromiter(map(float, cols[-1]), float, n)
    try:
        ids = list(map(int, cols[n_frames]))
    except ValueError:
        ids = list(map(_parse_id, map(str.strip, cols[n_frames])))
    return [f.astype(np.int64) for f in frames], ids, x, y


def _parse_chunk(lines, start, n_frames):
    """Columns of the stripped ``lines``, the first of which is line ``start``."""
    n_cols = n_frames + 3
    if start == 1 and lines and lines[0] and not lines[0].startswith("#"):
        toks = _split_row(lines[0])
        if len(toks) == n_cols and not _numbers_parse(toks, n_frames):
            lines, start = lines[1:], 2                 # header row
    # Fast path: every line is a data row with n_cols comma-separated fields.
    commas = list(map(str.count, lines, itertools.repeat(",", len(lines))))
    text = ",".join(lines)
    if commas.count(n_cols - 1) == len(lines) and "#" not in text:
        toks = text.split(",")
        try:
            return _to_columns([toks[k::n_cols] for k in range(n_cols)], n_frames)
        except ValueError:
            pass                                # the row pass below names the line
    rows = []
    for lineno, line in enumerate(lines, start):
        if not line or line.startswith("#"):
            continue
        toks = _split_row(line)
        if len(toks) != n_cols:
            raise ParseError(f"expected {n_cols} columns, got {len(toks)}", line=lineno)
        if not _numbers_parse(toks, n_frames):
            raise ParseError(f"bad numeric field in {toks!r}", line=lineno)
        rows.append(toks)
    return _to_columns(list(zip(*rows)) or [()] * n_cols, n_frames)


def _read_table(path, n_frames):
    """Read rows of ``n_frames`` frame columns, an agent id, x and y.

    Comma- or whitespace-separated (chosen per line); blank lines and lines
    starting with '#' are skipped, and line 1 is skipped as a header when
    its numeric fields do not parse. The file is read ``_CHUNK_LINES`` lines
    at a time and each chunk converted column by column. Returns (frames,
    ids, x, y): one int64 array per frame column, a list of ids, and two
    float arrays, in file order.
    """
    parts = [_to_columns([()] * (n_frames + 3), n_frames)]
    with open(path, encoding="utf-8") as fh:
        start = 1
        while lines := list(itertools.islice(fh, _CHUNK_LINES)):
            parts.append(_parse_chunk(list(map(str.strip, lines)), start, n_frames))
            start += len(lines)
    frames = [np.concatenate(col) for col in zip(*(p[0] for p in parts))]
    ids = list(itertools.chain.from_iterable(p[1] for p in parts))
    x = np.concatenate([p[2] for p in parts])
    y = np.concatenate([p[3] for p in parts])
    return frames, ids, x, y


def load_trajectories(path, scale=1.0, frame_stride=1):
    """Read (frame_id, agent_id, x, y) rows into a TrajectorySource.

    Comma- or whitespace-separated, optional header row. Frames are the
    global sorted distinct frame ids subsampled by ``frame_stride``; the
    retained frames become timesteps 0, 1, 2, ... Positions are multiplied
    by ``scale``.
    """
    if frame_stride < 1:
        raise InvalidSpec(f"frame_stride must be >= 1, got {frame_stride}")
    (frames,), ids, x, y = _read_table(path, 1)
    kept = np.unique(frames)[::frame_stride]
    rows = np.flatnonzero(np.isin(frames, kept))
    ids = list(map(ids.__getitem__, rows.tolist()))
    if not ids:
        return TrajectorySource({})
    ordered = sorted(set(ids), key=_id_key)
    rank = dict(zip(ordered, range(len(ordered))))
    ranks = np.fromiter(map(rank.__getitem__, ids), np.int64, len(ids))
    steps = np.searchsorted(kept, frames[rows])
    order = np.lexsort((ranks, steps))      # stable: repeats stay in file order
    steps, ranks = steps[order], ranks[order]
    repeat = (steps[1:] == steps[:-1]) & (ranks[1:] == ranks[:-1])
    if repeat.any():
        first = int(order[1:][repeat].min())       # the first repeated row in the file
        raise NonMonotoneFrames(
            f"agent {ids[first]!r} appears twice in frame {int(frames[rows[first]])}")
    positions = np.stack((x, y), axis=1)[rows[order]]
    positions *= scale
    starts = [0] + (np.flatnonzero(steps[1:] != steps[:-1]) + 1).tolist()
    ids = list(map(ordered.__getitem__, ranks.tolist()))
    return TrajectorySource._from_frames(ordered, {
        t: (tuple(ids[lo:hi]), positions[lo:hi])
        for t, lo, hi in zip(steps[starts].tolist(), starts, starts[1:] + [len(ids)])})


def save_trajectories(source, path):
    """Write a TrajectorySource back out as frame_id,agent_id,x,y rows,
    frame by frame in time order, each frame's agents in id order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame_id", "agent_id", "x", "y"])
        for t, (present, positions) in source._frames.items():
            writer.writerows([t, aid, repr(x), repr(y)]
                             for aid, (x, y) in zip(present, positions.tolist()))


def load_predictions(path, scale=1.0):
    """Read (t, tau, agent_id, x, y) rows into a replay-predictor table.

    Returns {(t, tau): (ids, positions)}: the ids in ``_id_key`` order and
    one read-only (n, 2) array of their positions, times ``scale``. When a
    (t, tau, agent_id) repeats, its last row wins.
    """
    (t, tau), ids, x, y = _read_table(path, 2)
    ordered = sorted(set(ids), key=_id_key)
    rank = dict(zip(ordered, range(len(ordered))))
    ranks = np.fromiter(map(rank.__getitem__, ids), np.int64, len(ids))
    # row number as the last key makes the sort total: repeats stay in file order
    order = np.lexsort((np.arange(len(ranks)), ranks, tau, t))
    t, tau, ranks = t[order], tau[order], ranks[order]
    last = np.ones(len(order), dtype=bool)          # the last row of its (t, tau, id)
    last[:-1] = (t[1:] != t[:-1]) | (tau[1:] != tau[:-1]) | (ranks[1:] != ranks[:-1])
    order, t, tau, ranks = order[last], t[last], tau[last], ranks[last]
    first = np.ones(len(order), dtype=bool)         # the first row of its (t, tau)
    first[1:] = (t[1:] != t[:-1]) | (tau[1:] != tau[:-1])
    starts = np.flatnonzero(first).tolist()
    positions = np.stack((x[order], y[order]), axis=1)
    positions *= scale
    positions.flags.writeable = False
    keys = zip(t[starts].tolist(), tau[starts].tolist())
    ids = list(map(ordered.__getitem__, ranks.tolist()))
    return {key: (tuple(ids[lo:hi]), positions[lo:hi])
            for key, lo, hi in zip(keys, starts, starts[1:] + [len(ids)])}
