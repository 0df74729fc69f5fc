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
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    HistoryTooShort,
    InvalidSpec,
    MissingExternalPrediction,
    NonMonotoneFrames,
    OutOfRange,
    ParseError,
    require_int,
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
        as two intp arrays in this state's id order."""
        theirs = dict(zip(other.ids, range(len(other.ids))))
        rows = np.fromiter(map(theirs.get, self.ids, itertools.repeat(-1)), np.intp,
                           len(self.ids))
        mine = np.flatnonzero(rows >= 0)
        return mine, rows[mine]

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

    def __init__(self, frames):
        """frames: time-sorted {t: (ids present, (n, 2) positions)}, the
        ids distinct and in id order; the arrays are made read-only."""
        shared = {}
        self._frames = {}
        for t, (present, positions) in frames.items():
            positions.flags.writeable = False
            self._frames[t] = (shared.setdefault(present, present), positions)
        self._span = (min(frames), max(frames)) if frames else None

    def span(self):
        """(first, last) timestep with any agent present; None when empty."""
        return self._span

    def max_agents(self):
        """The most agents present at one timestep; 0 when empty."""
        return max((len(present) for present, _ in self._frames.values()), default=0)

    def agents_at(self, t):
        """Joint state of the agents present at timestep t: the empty state
        at a timestep with no frame, before, inside or after the span."""
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


def _prediction_set(last, horizon, positions):
    """The PredictionSet made at ``last``'s timestep: lookahead tau holds
    ``last``'s agents at ``positions[tau - 1]``, made read-only."""
    preds = []
    for tau, pos in enumerate(positions, 1):
        pos.flags.writeable = False
        preds.append(JointAgentState(last.ids, pos, last.timestep + tau))
    return PredictionSet(last.timestep, horizon, preds)


def predict_constant(history, horizon):
    """Repeat the current joint state for every future step: one read-only
    copy of its positions, shared by every lookahead."""
    if not history:
        raise HistoryTooShort("constant predictor needs at least one state")
    last = history[-1]
    return _prediction_set(last, horizon, [last.positions.copy()] * horizon)


def predict_constant_velocity(history, horizon):
    """Linear extrapolation from the last two joint states."""
    if len(history) < 2:
        raise HistoryTooShort("constant-velocity predictor needs two states")
    last = history[-1]
    vel = _velocities(history)
    return _prediction_set(last, horizon,
                           (last.positions + tau * vel for tau in range(1, horizon + 1)))


def predict_linear_fit(history, horizon):
    """Per-agent least-squares line through the provided window.

    Each coordinate is regressed on the timestep over the frames where the
    agent appears, and that one line gives all the agent's lookaheads;
    agents seen once fall back to their current position.
    """
    if len(history) < 2:
        raise HistoryTooShort("linear-fit predictor needs two states")
    last = history[-1]
    future = np.arange(last.timestep + 1, last.timestep + horizon + 1, dtype=float)
    preds = np.repeat(last.positions[None], len(future), axis=0)      # (horizon, n, 2)
    seen = [([], []) for _ in last.ids]       # per agent: timesteps, positions
    for js in history:
        for i, j in zip(*last.shared_rows(js)):
            seen[i][0].append(js.timestep)
            seen[i][1].append(js.positions[j])
    for i, (ts, pts) in enumerate(seen):
        if len(ts) < 2:
            continue
        t_arr = np.asarray(ts, dtype=float)
        design = np.stack([np.ones_like(t_arr), t_arr], axis=1)
        coef, *_ = np.linalg.lstsq(design, np.stack(pts), rcond=None)
        preds[:, i] = coef[0] + np.multiply.outer(future, coef[1])
    preds.flags.writeable = False           # so no lookahead's view can be made writable
    return _prediction_set(last, horizon, preds)


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


SYNTH_KINDS = ("random-walk", "constant-velocity-with-noise", "waypoint")


def synth_trajectories(kind, n_agents, length, rng, bounds=(0.0, 20.0, 0.0, 20.0),
                       speed=0.8, noise=0.3):
    """Generate n_agents synthetic trajectories of the given length.

    kinds: 'random-walk' (Gaussian steps), 'constant-velocity-with-noise'
    (fixed heading plus Gaussian jitter; noise=0 gives exact lines), and
    'waypoint' (piecewise-constant heading through random waypoints).
    Constant-velocity agents with noise=0 reflect at the bounds box; every
    other agent is clipped to it. All kinds are deterministic given the rng.
    """
    if kind not in SYNTH_KINDS:
        raise InvalidSpec(f"unknown synthesis kind {kind!r}; choices: {SYNTH_KINDS}")
    if n_agents < 0 or length <= 0:
        raise InvalidSpec(f"need n_agents >= 0 and length > 0, got {n_agents}, {length}")
    if not (0.0 <= speed < math.inf and 0.0 <= noise < math.inf):
        raise InvalidSpec(f"speed and noise must be finite and >= 0, got {speed}, {noise}")
    xmin, xmax, ymin, ymax = bounds
    lo = np.array([xmin, ymin])
    hi = np.array([xmax, ymax])
    xmin, ymin = lo.tolist()
    xmax, ymax = hi.tolist()

    points = np.empty((length, n_agents, 2))
    for aid in range(n_agents):
        pos = rng.uniform(lo, hi)
        if kind == "random-walk":
            vel = np.zeros(2)
        else:
            heading = rng.uniform(0.0, 2.0 * math.pi)
            vel = speed * np.array([math.cos(heading), math.sin(heading)])
        if kind == "waypoint":            # draws one step at a time: they depend on pos
            waypoint = rng.uniform(lo, hi)
            for t in range(length):
                points[t, aid] = pos
                gap = waypoint - pos
                dist = float(np.linalg.norm(gap))
                if dist < speed:
                    waypoint = rng.uniform(lo, hi)
                    gap = waypoint - pos
                    dist = float(np.linalg.norm(gap))
                step = speed * gap / dist if dist > 0 else np.zeros(2)
                step = step + (rng.normal(0.0, noise, size=2) if noise > 0 else 0.0)
                pos = np.clip(pos + step, lo, hi)
            continue
        # Every step's draw at once: the rng fills them in the order per-step
        # draws would take, so the path is bit-identical to stepping one by one.
        if kind == "random-walk":
            moves = rng.normal(0.0, speed, size=(length, 2)).tolist()
        elif noise > 0:
            moves = (vel + rng.normal(0.0, noise, size=(length, 2))).tolist()
        else:
            moves = None                              # exact lines, reflected at the box
        (x, y), (vx, vy) = pos.tolist(), vel.tolist()
        path = []
        for t in range(length):
            path.append((x, y))
            if moves is None:             # the step is vel + 0.0: a -0.0 turns into 0.0
                x, y = x + (vx + 0.0), y + (vy + 0.0)
                if x < xmin:
                    x, vx = 2 * xmin - x, -vx
                elif x > xmax:
                    x, vx = 2 * xmax - x, -vx
                if y < ymin:
                    y, vy = 2 * ymin - y, -vy
                elif y > ymax:
                    y, vy = 2 * ymax - y, -vy
            else:
                dx, dy = moves[t]
                x, y = min(max(x + dx, xmin), xmax), min(max(y + dy, ymin), ymax)
        points[:, aid] = path
    ids = tuple(range(n_agents))
    frames = {t: (ids, points[t]) for t in range(length)} if n_agents else {}
    return TrajectorySource(frames)


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


def _numbers_parse(toks, n_frames):
    """Whether a row's frame fields read as int(float(.)) within int64 and
    its x and y as floats."""
    try:
        float(toks[-2]), float(toks[-1])
        return all(abs(float(tok)) < 2.0 ** 63 for tok in toks[:n_frames])
    except ValueError:
        return False


def _is_header(line, n_frames):
    """Whether stripped line 1 is a header: not a comment, ``n_frames + 3``
    fields, and numeric fields that do not parse."""
    if not line or line.startswith("#"):
        return False
    toks = _split_row(line)
    return len(toks) == n_frames + 3 and not _numbers_parse(toks, n_frames)


def _read_rows(path, n_frames):
    """The table of a file read line by line; its ids are a list of ints and
    strings. Raises ParseError at the first row with the wrong column count,
    a bad number or a position that is not finite."""
    n_cols = n_frames + 3
    fields = []                             # every row's tokens, one flat list
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(map(str.strip, fh), 1):
            if not line or line.startswith("#") or lineno == 1 and _is_header(line, n_frames):
                continue
            toks = _split_row(line)
            if len(toks) != n_cols:
                raise ParseError(f"expected {n_cols} columns, got {len(toks)}", line=lineno)
            if not _numbers_parse(toks, n_frames):
                raise ParseError(f"bad numeric field in {toks!r}", line=lineno)
            if not (math.isfinite(float(toks[-2])) and math.isfinite(float(toks[-1]))):
                raise ParseError(f"non-finite position in {toks!r}", line=lineno)
            fields += toks
    cols = [fields[k::n_cols] for k in range(n_cols)]
    n = len(cols[0])
    frames = [np.fromiter(map(float, col), float, n).astype(np.int64) for col in cols[:n_frames]]
    try:
        ids = list(map(int, cols[n_frames]))
    except ValueError:
        ids = list(map(_parse_id, cols[n_frames]))
    x = np.fromiter(map(float, cols[-2]), float, n)
    y = np.fromiter(map(float, cols[-1]), float, n)
    return frames, ids, x, y


def _read_numeric(path, n_frames):
    """The table of a comma-separated file of numeric rows with integer ids,
    read in one ``np.loadtxt`` pass by numpy's C tokenizer; None when that
    pass rejects the file.

    Line 1 is skipped when ``_is_header`` says so. Blank lines are skipped;
    any other line must hold ``n_frames + 3`` comma-separated fields, the
    id an int64 and the rest floats. A '#' parses as no number, so a file
    with comments is rejected too, as is a frame outside int64, an empty
    file, and any call that warns (numpy 1.23-1.26 read "1.0" as an int
    with a DeprecationWarning, where ``int()`` does not), and a file with
    a position that is not finite, so that ``_read_rows`` names its line.
    Float fields go through the same string-to-double conversion as
    ``float()``.
    """
    dtype = [(f"f{k}", "f8") for k in range(n_frames)] + [("id", "i8"), ("x", "f8"), ("y", "f8")]
    with open(path, encoding="utf-8-sig") as fh:
        skip = int(_is_header(fh.readline().strip(), n_frames))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None,
                               skiprows=skip, encoding="utf-8-sig", ndmin=1)
    except (ValueError, Warning):
        return None
    frames = [table[f"f{k}"] for k in range(n_frames)]
    if not all((np.abs(f) < 2.0 ** 63).all() for f in frames):   # NaN, inf, past int64
        return None
    if not (np.isfinite(table["x"]).all() and np.isfinite(table["y"]).all()):
        return None
    return [f.astype(np.int64) for f in frames], table["id"], table["x"], table["y"]


def _read_table(path, n_frames):
    """Read rows of ``n_frames`` frame columns, an agent id, x and y.

    Comma- or whitespace-separated (chosen per line); a leading byte-order
    mark is dropped, blank lines and lines starting with '#' are skipped,
    and line 1 is skipped as a header when its numeric fields do not parse;
    a row with a position that is not finite raises ParseError. Returns
    (frames, ids, x, y): one int64 array per frame column, the ids, and two
    float arrays, in file order.

    A file that ``_read_numeric`` accepts is read in that one C pass, and
    its ids are an int64 array; any other file is read by ``_read_rows``,
    and its ids are a list of ints and strings. Both give equal tables.
    """
    table = _read_numeric(path, n_frames)
    return table if table is not None else _read_rows(path, n_frames)


def _id_keys(ids):
    """(int64 key of each row's id, in ``_id_key`` order, and the function
    from an array of keys to the list of their ids). int64 ids are their
    own keys: they sort as ``_id_key`` sorts ints."""
    if isinstance(ids, np.ndarray):
        return ids, np.ndarray.tolist
    ordered = sorted(set(ids), key=_id_key)
    rank = dict(zip(ordered, range(len(ordered))))
    keys = np.fromiter(map(rank.__getitem__, ids), np.int64, len(ids))
    return keys, lambda k: list(map(ordered.__getitem__, k.tolist()))


def _require_scale(scale):
    if not 0 < scale < math.inf:
        raise InvalidSpec(f"scale must be finite and > 0, got {scale}")


def load_trajectories(path, scale=1.0, frame_stride=1):
    """Read (frame_id, agent_id, x, y) rows into a TrajectorySource.

    Comma- or whitespace-separated, optional header row, read by
    ``_read_table`` (one C pass for a comma-separated file with integer
    ids). Frames are the global sorted distinct frame ids subsampled by
    ``frame_stride``; the retained frames become timesteps 0, 1, 2, ...
    Positions are multiplied by ``scale``, which must be finite and > 0.
    """
    _require_scale(scale)
    require_int("frame_stride", frame_stride, 1)
    (frames,), ids, x, y = _read_table(path, 1)
    kept = np.unique(frames)[::frame_stride]
    rows = np.flatnonzero(np.isin(frames, kept))
    if not len(rows):
        return TrajectorySource({})
    keys, to_ids = _id_keys(ids)
    keys = keys[rows]
    steps = np.searchsorted(kept, frames[rows])
    order = np.lexsort((keys, steps))       # stable: repeats stay in file order
    steps, ranked = steps[order], keys[order]
    repeat = (steps[1:] == steps[:-1]) & (ranked[1:] == ranked[:-1])
    if repeat.any():
        first = int(order[1:][repeat].min())       # the first repeated row in the file
        raise NonMonotoneFrames(f"agent {to_ids(keys[first:first + 1])[0]!r} appears twice"
                                f" in frame {int(frames[rows[first]])}")
    positions = np.stack((x, y), axis=1)[rows[order]]
    positions *= scale
    starts = [0] + (np.flatnonzero(steps[1:] != steps[:-1]) + 1).tolist()
    ids = to_ids(ranked)
    return TrajectorySource({
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

    The file is read by ``_read_table``: one C pass for a comma-separated
    file with integer ids, line by line otherwise, with equal results.
    Returns {(t, tau): (ids, positions)}: the ids in ``_id_key`` order and
    one read-only (n, 2) array of their positions, times ``scale``, which
    must be finite and > 0. When a (t, tau, agent_id) repeats, its last row
    wins.
    """
    _require_scale(scale)
    (t, tau), ids, x, y = _read_table(path, 2)
    keys, to_ids = _id_keys(ids)
    order = np.lexsort((keys, tau, t))      # stable: repeats stay in file order
    t, tau, keys = t[order], tau[order], keys[order]
    last = np.ones(len(order), dtype=bool)          # the last row of its (t, tau, id)
    last[:-1] = (t[1:] != t[:-1]) | (tau[1:] != tau[:-1]) | (keys[1:] != keys[:-1])
    order, t, tau, keys = order[last], t[last], tau[last], keys[last]
    first = np.ones(len(order), dtype=bool)         # the first row of its (t, tau)
    first[1:] = (t[1:] != t[:-1]) | (tau[1:] != tau[:-1])
    starts = np.flatnonzero(first).tolist()
    positions = np.stack((x[order], y[order]), axis=1)
    positions *= scale
    positions.flags.writeable = False
    made = zip(t[starts].tolist(), tau[starts].tolist())
    ids = to_ids(keys)
    return {key: (tuple(ids[lo:hi]), positions[lo:hi])
            for key, lo, hi in zip(made, starts, starts[1:] + [len(ids)])}
