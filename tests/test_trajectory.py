"""Agent ingestion, predictors, and synthetic trajectory generation."""

import math
import warnings

import numpy as np
import pytest

from acpshield import trajectory
from acpshield.errors import (
    HistoryTooShort,
    InvalidSpec,
    MissingExternalPrediction,
    NonMonotoneFrames,
    OutOfRange,
    ParseError,
)
from acpshield.trajectory import (
    SYNTH_KINDS,
    JointAgentState,
    PredictionSet,
    ReplayPredictor,
    load_predictions,
    load_trajectories,
    make_predictor,
    predict_constant,
    predict_constant_velocity,
    predict_linear_fit,
    save_trajectories,
    synth_trajectories,
)

from oracles import agent_ids, keys_oracle, source_from_tracks, synth_oracle, track_of


def joint(ids, coords, t):
    return JointAgentState(tuple(ids), np.asarray(coords, dtype=float), t)


def rows(state):
    """{agent id: position} of one joint state."""
    return dict(zip(state.ids, state.positions))


def test_joint_state_validation():
    with pytest.raises(InvalidSpec):
        joint([1], [[0, 0], [1, 1]], 0)
    with pytest.raises(InvalidSpec):
        joint([1], [[np.nan, 0]], 0)
    js = joint([3, 1], [[0, 0], [5, 5]], 2)
    assert js.n_agents == 2
    assert tuple(rows(js)[1]) == (5.0, 5.0)
    assert 99 not in rows(js)


def test_prediction_set_shape():
    with pytest.raises(InvalidSpec):
        PredictionSet(0, 2, (joint([1], [[0, 0]], 1),))
    ps = PredictionSet(0, 2, (joint([1], [[0, 0]], 1), joint([1], [[1, 0]], 2)))
    assert tuple(ps.at(2).positions[0]) == (1.0, 0.0)
    with pytest.raises(OutOfRange):
        ps.at(3)


def test_constant_velocity_extrapolation():
    hist = [joint([7], [[0, 0]], 0), joint([7], [[1, 0]], 1)]
    ps = predict_constant_velocity(hist, 2)
    assert tuple(ps.at(1).positions[0]) == (2.0, 0.0)
    assert tuple(ps.at(2).positions[0]) == (3.0, 0.0)
    assert ps.at(1).timestep == 2 and ps.at(2).timestep == 3
    with pytest.raises(HistoryTooShort):
        predict_constant_velocity(hist[:1], 2)


def test_constant_position_predictor():
    hist = [joint([1], [[5, 5]], 4)]
    ps = predict_constant(hist, 3)
    for tau in (1, 2, 3):
        assert tuple(ps.at(tau).positions[0]) == (5.0, 5.0)
    with pytest.raises(HistoryTooShort):
        predict_constant([], 3)


def test_newly_entered_agent_gets_zero_velocity():
    hist = [joint([1], [[0, 0]], 0), joint([1, 2], [[1, 0], [9, 9]], 1)]
    ps = predict_constant_velocity(hist, 1)
    assert tuple(rows(ps.at(1))[1]) == (2.0, 0.0)
    assert tuple(rows(ps.at(1))[2]) == (9.0, 9.0)


def test_linear_fit_matches_constant_velocity_on_lines():
    hist = [joint([1, 2], [[t * 0.5, 1 - t], [t, t]], t) for t in range(5)]
    lf = predict_linear_fit(hist, 3)
    cv = predict_constant_velocity(hist, 3)
    for tau in (1, 2, 3):
        np.testing.assert_allclose(lf.at(tau).positions, cv.at(tau).positions,
                                   atol=1e-9)


def test_predictor_ids_stable_across_lookahead():
    hist = [joint([4, 2], [[0, 0], [1, 1]], 0), joint([4, 2], [[0, 1], [1, 2]], 1)]
    ps = predict_constant_velocity(hist, 3)
    assert all(ps.at(tau).ids == ps.at(1).ids for tau in (2, 3))


def test_empty_agent_set_predictions():
    hist = [JointAgentState.empty(0), JointAgentState.empty(1)]
    ps = predict_constant_velocity(hist, 2)
    assert ps.at(1).n_agents == 0


def test_replay_predictor(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("t,tau,agent_id,x,y\n3,1,9,1.5,2.5\n3,2,9,2.5,3.5\n")
    pred = ReplayPredictor(load_predictions(path))
    hist = [joint([9], [[1, 2]], 3)]
    ps = pred(hist, 2)
    assert tuple(rows(ps.at(1))[9]) == (1.5, 2.5)
    assert tuple(rows(ps.at(2))[9]) == (2.5, 3.5)
    with pytest.raises(MissingExternalPrediction):
        pred([joint([9], [[0, 0]], 4)], 2)


def test_replay_positions_are_read_only(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("3,1,9,1.5,2.5\n3,1,4,0.5,0.5\n3,2,9,2.5,3.5\n")
    pred = ReplayPredictor(load_predictions(path))
    hist = [joint([9], [[1, 2]], 3)]
    with pytest.raises(ValueError):
        pred(hist, 2).at(1).positions[0, 0] = 99.0
    np.testing.assert_array_equal(pred(hist, 2).at(1).positions, [[0.5, 0.5], [1.5, 2.5]])


def served(path, t, horizon, scale=1.0):
    """(ids, {id: (x, y)}) per lookahead that a replay predictor serves at t."""
    pred = ReplayPredictor(load_predictions(path, scale=scale))
    ps = pred([joint([], [], t)], horizon)
    return [(ps.at(tau).ids, {a: tuple(p) for a, p in rows(ps.at(tau)).items()})
            for tau in range(1, horizon + 1)]


def test_load_predictions_header_comments_and_whitespace(tmp_path):
    path = tmp_path / "preds.txt"
    path.write_text("t,tau,agent_id,x,y\n"
                    "# written by a tracker\n"
                    "\n"
                    "0 1 4 1.0 2.0\n"
                    "   \n"
                    "0,\t1 , 2,3.0 , 4.0\n"
                    "  # indented comment\n"
                    "0\t2\t4\t5.0\t6.0\n")
    assert served(path, 0, 2) == [((2, 4), {2: (3.0, 4.0), 4: (1.0, 2.0)}),
                                  ((4,), {4: (5.0, 6.0)})]


@pytest.mark.parametrize("bad, line", [
    ("0,1,4,1.0\n", 3),                        # 4 columns
    ("0,1,4,1.0,2.0,3.0\n", 3),                # 6 columns
    ("0,1,4,x,2.0\n", 3),                      # non-numeric position
    ("0,one,4,1.0,2.0\n", 3),                  # non-numeric lookahead
    ("t,tau,agent_id,x,y\n", 3),               # a header is only read on line 1
])
def test_load_predictions_errors_name_their_line(tmp_path, bad, line):
    path = tmp_path / "preds.csv"
    path.write_text("t,tau,agent_id,x,y\n0,1,1,0.0,0.0\n" + bad + "0,1,2,0.0,0.0\n")
    with pytest.raises(ParseError) as exc:
        load_predictions(path)
    assert exc.value.line == line
    assert f"line {line}" in str(exc.value)


def test_load_predictions_first_bad_line_wins(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("0,1,1,0.0,0.0\n0,1,2,x,0.0\n0,1,3,0.0\n")
    with pytest.raises(ParseError) as exc:
        load_predictions(path)
    assert exc.value.line == 2


def test_load_predictions_last_row_wins_and_id_order(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("5,1,b,1.0,1.0\n"
                    "5,1,10,2.0,2.0\n"
                    "5,1,a,3.0,3.0\n"
                    "5,1,9,4.0,4.0\n"
                    "5,1,b,5.0,5.0\n"          # repeats (5, 1, 'b'): this row wins
                    "5.0,1,10,6.0,6.0\n"       # frames read as int(float(.))
                    "5,1,9,7.0,7.0\n")         # the first id served repeats too
    [(ids, pos)] = served(path, 5, 1)
    assert ids == (9, 10, "a", "b")
    assert pos == {9: (7.0, 7.0), 10: (6.0, 6.0), "a": (3.0, 3.0), "b": (5.0, 5.0)}


def test_load_predictions_scale_and_empty_file(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("2,1,7,1.5,-3.0\n")
    assert served(path, 2, 1, scale=0.5) == [((7,), {7: (0.75, -1.5)})]
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert len(load_predictions(empty)) == 0
    with pytest.raises(MissingExternalPrediction):
        ReplayPredictor(load_predictions(empty))([joint([], [], 0)], 1)


def test_load_predictions_past_the_first_chunk(tmp_path):
    # a long file: every case below sits thousands of lines in
    lines = ["t,tau,agent_id,x,y"]
    lines += [f"{i // 100},1,{i % 100},{i}.0,{-i}.0" for i in range(12_000)]
    path = tmp_path / "preds.csv"
    path.write_text("\n".join(lines) + "\n")
    [(ids, pos)] = served(path, 119, 1)
    assert ids == tuple(range(100))
    assert pos[42] == (11_942.0, -11_942.0)

    dup = lines + ["119,1,42,1.0,2.0"]
    path.write_text("\n".join(dup) + "\n")
    [(_, pos)] = served(path, 119, 1)
    assert pos[42] == (1.0, 2.0)

    for bad, line in (("119,1,42,nan-ish,2.0", 9_001), ("119,1,42", 9_001)):
        path.write_text("\n".join(lines[:9_000] + [bad] + lines[9_000:]) + "\n")
        with pytest.raises(ParseError) as exc:
            load_predictions(path)
        assert exc.value.line == line


def test_make_predictor_registry(tmp_path):
    assert make_predictor("constant") is predict_constant
    assert make_predictor("constant-velocity") is predict_constant_velocity
    with pytest.raises(InvalidSpec):
        make_predictor("oracle")
    with pytest.raises(InvalidSpec):
        make_predictor("replay")
    path = tmp_path / "p.csv"
    path.write_text("0,1,1,0.0,0.0\n")
    assert isinstance(make_predictor("replay", predictions_path=path), ReplayPredictor)


def test_synth_determinism_and_kinds():
    for kind in ("random-walk", "constant-velocity-with-noise", "waypoint"):
        a = synth_trajectories(kind, 3, 20, np.random.default_rng(11))
        b = synth_trajectories(kind, 3, 20, np.random.default_rng(11))
        for aid in agent_ids(a):
            for (ta, pa), (tb, pb) in zip(track_of(a, aid), track_of(b, aid)):
                assert ta == tb
                np.testing.assert_array_equal(pa, pb)
    for count in (1, 0):           # the kind is checked even with no agents
        with pytest.raises(InvalidSpec):
            synth_trajectories("brownian-bridge", count, 5, np.random.default_rng(0))


def test_synth_zero_noise_is_linear():
    src = synth_trajectories("constant-velocity-with-noise", 2, 10,
                             np.random.default_rng(3), bounds=(0, 1000, 0, 1000),
                             speed=0.5, noise=0.0)
    for aid in agent_ids(src):
        pts = np.stack([p for _, p in track_of(src, aid)])
        steps = np.diff(pts, axis=0)
        assert np.allclose(steps, steps[0], atol=1e-12)


@pytest.mark.parametrize("kind", SYNTH_KINDS)
def test_synth_rejects_negative_or_non_finite_settings(kind):
    for setting in ({"speed": -0.5}, {"noise": -0.1}, {"speed": math.nan},
                    {"noise": math.inf}, {"n_agents": 2.5}, {"n_agents": True},
                    {"length": 5.5}, {"length": 2.0}, {"bounds": (5.0, 0.0, 0.0, 5.0)},
                    {"bounds": (0.0, 5.0, 0.0, math.nan)},
                    {"bounds": (-math.inf, 5.0, 0.0, 5.0)}):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidSpec):
            synth_trajectories(kind, rng=rng, **{"n_agents": 2, "length": 5, **setting})
        assert rng.bit_generator.state == state             # checked before any draw


class ScriptedRng:
    """Serves given uniform and standard-normal values in order, in any shape,
    so a batched draw and per-step draws read the same numbers."""

    def __init__(self, uniforms, normals):
        self.uniforms, self.normals = iter(uniforms), iter(normals)

    def uniform(self, low, high, size=None):
        return np.asarray(next(self.uniforms), dtype=float)

    def normal(self, loc, scale, size):
        values = [loc + scale * next(self.normals) for _ in range(int(np.prod(size)))]
        return np.array(values).reshape(size)


def test_synth_clamps_a_free_path_tie_to_a_signed_zero_wall():
    # x: 1.0 - 1.0 reaches 0.0 on the low wall -0.0; y: -1.0 + 1.0 on the high
    # wall -0.0. Each tie clamps to the wall's -0.0, on one side of the box only.
    bounds = (-0.0, 5.0, -5.0, -0.0)
    moves = [-1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    source = synth_trajectories("random-walk", 1, 3, ScriptedRng([(1.0, -1.0)], moves),
                                bounds, speed=1.0)
    want = synth_oracle("random-walk", 1, 3, ScriptedRng([(1.0, -1.0)], moves),
                                bounds, speed=1.0)
    got = np.stack([source.agents_at(t).positions for t in range(3)])
    assert np.signbit(got[1:, 0]).all()
    assert got.tobytes() == want.tobytes()


def test_synth_zero_agents():
    src = synth_trajectories("random-walk", 0, 5, np.random.default_rng(0))
    assert agent_ids(src) == []
    assert src.span() is None


def test_agents_at_presence_and_span():
    src = source_from_tracks({
        "a": [(0, (0, 0)), (1, (1, 0))],
        "b": [(5, (9, 9)), (6, (9, 8))],
    })
    assert src.span() == (0, 6)
    js = src.agents_at(1)
    assert js.ids == ("a",)
    assert src.agents_at(4).n_agents == 0       # inside span, nobody present
    js5 = src.agents_at(5)
    assert js5.ids == ("b",)
    for t in (7, -1):                           # outside the span, nobody present
        outside = src.agents_at(t)
        assert outside.ids == () and outside.positions.shape == (0, 2)
        assert outside.timestep == t


def test_agents_at_positions_are_read_only():
    src = source_from_tracks({"a": [(0, (1.0, 2.0))], "b": [(0, (3.0, 4.0))]})
    with pytest.raises(ValueError):
        src.agents_at(0).positions[0, 0] = 9.0
    np.testing.assert_array_equal(src.agents_at(0).positions, [[1.0, 2.0], [3.0, 4.0]])


def test_load_trajectories_scale_and_stride(tmp_path):
    path = tmp_path / "walk.csv"
    path.write_text(
        "frame_id,agent_id,x,y\n"
        "0,1,2.0,4.0\n"
        "1,1,2.5,4.0\n"
        "2,1,3.0,4.0\n"
        "2,2,0.0,1.0\n"
        "4,2,0.0,3.0\n")
    src = load_trajectories(path, scale=0.5, frame_stride=2)
    # stride subsamples the distinct observed frames [0, 1, 2, 4] down to
    # [0, 2], which become timesteps 0 and 1
    assert src.span() == (0, 1)
    js = src.agents_at(1)
    assert js.ids == (1, 2)
    np.testing.assert_allclose(rows(js)[1], (1.5, 2.0))
    np.testing.assert_allclose(rows(js)[2], (0.0, 0.5))
    assert src.agents_at(0).ids == (1,)


def test_load_trajectories_whitespace_and_errors(tmp_path):
    ws = tmp_path / "ws.txt"
    ws.write_text("0 1 2.0 4.0\n1 1 2.5 4.5\n")
    src = load_trajectories(ws)
    np.testing.assert_allclose(rows(src.agents_at(1))[1], (2.5, 4.5))

    bad = tmp_path / "bad.csv"
    bad.write_text("0,1,2.0\n")
    with pytest.raises(ParseError) as exc:
        load_trajectories(bad)
    assert exc.value.line == 1

    nonnum = tmp_path / "nonnum.csv"
    nonnum.write_text("0,1,2.0,4.0\n1,1,x,4.0\n")
    with pytest.raises(ParseError) as exc:
        load_trajectories(nonnum)
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)

    dup = tmp_path / "dup.csv"
    dup.write_text("0,1,2.0,4.0\n0,1,2.5,4.0\n")
    with pytest.raises(NonMonotoneFrames):
        load_trajectories(dup)

    with pytest.raises(InvalidSpec):
        load_trajectories(ws, frame_stride=0)


@pytest.mark.parametrize("load", [load_trajectories, load_predictions])
@pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_loaders_reject_a_bad_scale(tmp_path, load, scale):
    path = tmp_path / "rows.csv"
    path.write_text("0,1,1,2.0,4.0\n" if load is load_predictions else "0,1,2.0,4.0\n")
    with pytest.raises(InvalidSpec, match="scale"):
        load(path, scale=scale)


@pytest.mark.parametrize("stride", [0, -1, True, 1.5, 2.0])
def test_load_trajectories_rejects_a_bad_frame_stride(tmp_path, stride):
    path = tmp_path / "walk.csv"
    path.write_text("0,1,2.0,4.0\n1,1,2.5,4.0\n")
    with pytest.raises(InvalidSpec, match="frame_stride"):
        load_trajectories(path, frame_stride=stride)


@pytest.mark.parametrize("load", [load_trajectories, load_predictions])
@pytest.mark.parametrize("separator", [",", " "])
@pytest.mark.parametrize("token", ["nan", "-inf", "Infinity", "1e400"])
@pytest.mark.parametrize("line", [1, 3])
def test_loaders_reject_a_non_finite_position(tmp_path, load, separator, token, line):
    # line 1 holding a NaN position is a bad row, not a header
    frames = ["0", "1"] if load is load_predictions else ["0"]
    rows = [separator.join(frames + [str(aid), "1.0", "2.0"]) for aid in range(4)]
    rows[line - 1] = separator.join(frames + ["7", "1.0", token])
    path = tmp_path / "rows.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ParseError, match="non-finite position") as exc:
        load(path)
    assert exc.value.line == line


@pytest.mark.parametrize("separator", [",", " "])
def test_load_predictions_rejects_a_non_integral_frame(tmp_path, separator):
    # read as tau 1, this row would overwrite agent 0's prediction at (0, 1)
    path = tmp_path / "preds.csv"
    path.write_text("\n".join(separator.join(row) for row in (
        ("0", "1", "0", "1.0", "2.0"), ("0", "1.5", "0", "9.0", "9.0"))) + "\n")
    with pytest.raises(ParseError, match="non-integral frame field") as exc:
        load_predictions(path)
    assert exc.value.line == 2
    path.write_text(f"0{separator}1e0{separator}0{separator}9.0{separator}9.0\n"
                    f"1.0{separator}1{separator}0{separator}1.0{separator}2.0\n")
    assert sorted(load_predictions(path)) == [(0, 1), (1, 1)]


@pytest.mark.parametrize("separator", [",", " "])
def test_load_trajectories_rejects_a_non_integral_frame(tmp_path, separator):
    path = tmp_path / "walk.csv"
    path.write_text("\n".join(separator.join(row) for row in (
        ("0", "1", "2.0", "4.0"), ("1.5", "1", "2.5", "4.0"), ("2", "1", "3.0", "4.0"))) + "\n")
    with pytest.raises(ParseError, match="non-integral frame field") as exc:
        load_trajectories(path)
    assert exc.value.line == 2
    path.write_text(f"0{separator}1{separator}2.0{separator}4.0\n"
                    f"1e0{separator}1{separator}2.5{separator}4.0\n")
    assert load_trajectories(path).span() == (0, 1)


def test_round_trip(tmp_path):
    synth = synth_trajectories("waypoint", 4, 25, np.random.default_rng(8))
    # agents that enter late, leave early and leave gaps, with int and str
    # ids; every timestep keeps an agent, since the loader numbers frames
    ragged = source_from_tracks({
        3: [(0, (1.5, 2.0)), (1, (1.75, 2.0)), (2, (2.0, 2.125))],
        "b": [(2, (0.1, 0.2)), (5, (0.3, 0.4)), (6, (1e-17, 7.0))],
        1: [(3, (9.0, 8.5)), (4, (9.0, 9.0))],
        "a": [(0, (5.0, 5.0)), (1, (5.5, 5.0)), (4, (6.0, 5.0)), (6, (6.5, 5.0))],
    })
    for i, src in enumerate((synth, ragged)):
        path = tmp_path / f"rt{i}.csv"
        save_trajectories(src, path)
        back = load_trajectories(path)
        assert agent_ids(back) == agent_ids(src)
        assert back.span() == src.span()
        for aid in agent_ids(src):
            orig, rt = track_of(src, aid), track_of(back, aid)
            assert [t for t, _ in orig] == [t for t, _ in rt]
            np.testing.assert_array_equal(np.stack([p for _, p in orig]),
                                          np.stack([p for _, p in rt]))

def refuse_row_reader(monkeypatch):
    """Make the line-by-line reader raise, so a load can only take the C pass."""
    def refuse(*args):
        raise AssertionError("the row reader ran")
    monkeypatch.setattr(trajectory, "_read_rows", refuse)


def test_stepbench_format_takes_the_c_pass(tmp_path, monkeypatch):
    # the layout of stepbench/inputs.py: a header, then rows with six decimals
    rng = np.random.default_rng(5)
    log, preds = ["frame_id,agent_id,x,y"], ["t,tau,agent_id,x,y"]
    for t in range(6):
        for aid in rng.choice(40, size=5, replace=False).tolist():
            x, y = rng.uniform(0.0, 32.0, size=2)
            log.append(f"{t},{aid},{x:.6f},{y:.6f}")
            preds.extend(f"{t},{tau},{aid},{x + tau:.6f},{y - tau:.6f}" for tau in (1, 2, 3))
    (tmp_path / "crowd.csv").write_text("\n".join(log) + "\n")
    (tmp_path / "predictions.csv").write_text("\n".join(preds) + "\n")
    with monkeypatch.context() as patch:
        patch.setattr(trajectory, "_read_numeric", lambda path, n_frames: None)
        want_log = load_trajectories(tmp_path / "crowd.csv", scale=0.5)._frames
        want_preds = load_predictions(tmp_path / "predictions.csv")
    refuse_row_reader(monkeypatch)
    got_log = load_trajectories(tmp_path / "crowd.csv", scale=0.5)._frames
    got_preds = load_predictions(tmp_path / "predictions.csv")
    for got, want in ((got_log, want_log), (got_preds, want_preds)):
        assert list(got) == list(want)
        for key, (ids, positions, _) in want.items():
            assert got[key][0] == ids and all(type(aid) is int for aid in got[key][0])
            assert got[key][1].tobytes() == positions.tobytes()


def test_round_trip_takes_the_c_pass(tmp_path, monkeypatch):
    src = synth_trajectories("random-walk", 6, 30, np.random.default_rng(2))
    save_trajectories(src, tmp_path / "rt.csv")
    refuse_row_reader(monkeypatch)
    back = load_trajectories(tmp_path / "rt.csv")
    assert list(back._frames) == list(src._frames)
    for t, (ids, positions, _) in src._frames.items():
        assert back._frames[t][0] == ids
        np.testing.assert_array_equal(back._frames[t][1], positions)


def test_c_pass_emits_no_warning(tmp_path):
    good = tmp_path / "good.csv"
    good.write_text("t,tau,agent_id,x,y\n0,1,3,1.5,2.5\n0,1,-4,1e3,-2.5e-3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert trajectory._read_numeric(good, 2) is not None
    empty = tmp_path / "empty.csv"                 # numpy warns on input with no data
    empty.write_text("frame_id,agent_id,x,y\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert trajectory._read_numeric(empty, 1) is None
        assert load_trajectories(empty).span() is None
    assert caught == []


@pytest.mark.parametrize("header", [False, True], ids=["no-header", "header"])
@pytest.mark.parametrize("reader", ["c-pass", "rows"])
def test_byte_order_mark_is_dropped(tmp_path, monkeypatch, header, reader):
    # with the mark, line 1 of a header-less file must still read as a row
    if reader == "c-pass":
        refuse_row_reader(monkeypatch)
    else:
        monkeypatch.setattr(trajectory, "_read_numeric", lambda path, n_frames: None)
    log = ["frame_id,agent_id,x,y"] * header + ["0,1,2.0,3.0", "1,1,2.5,3.5"]
    preds = ["t,tau,agent_id,x,y"] * header + ["0,1,1,2.0,3.0", "0,2,1,2.5,3.5"]
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    for lines, load in ((log, lambda path: load_trajectories(path)._frames),
                        (preds, load_predictions)):
        plain.write_text("\n".join(lines) + "\n", encoding="utf-8")
        marked.write_text("\n".join(lines) + "\n", encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        want, got = load(plain), load(marked)
        assert len(want) == 2 and list(got) == list(want)
        for key, (ids, positions, _) in want.items():
            assert got[key][0] == ids and got[key][1].tobytes() == positions.tobytes()


# -- int64 id keys -------------------------------------------------------------

def check_keys(state):
    """A state came with its keys, not computed on first read: its ids as a
    read-only int64 array, or None when its ids are not all ints inside
    int64 in ascending order."""
    assert "keys" in vars(state)
    want = keys_oracle(state.ids)
    if want is None:
        assert state.keys is None
    else:
        assert state.keys.dtype == np.int64 and state.keys.tolist() == want
        assert not state.keys.flags.writeable


def served_states(source):
    span = source.span() or (0, 0)
    return [source.agents_at(t) for t in range(span[0] - 1, span[1] + 2)]


@pytest.mark.parametrize("kind", SYNTH_KINDS)
@pytest.mark.parametrize("n_agents", [0, 5])
def test_synthesized_states_carry_keys(kind, n_agents):
    source = synth_trajectories(kind, n_agents, 6, np.random.default_rng(0))
    states = served_states(source)
    for state in states:
        check_keys(state)
    if n_agents:           # one np.arange shared by every frame
        assert len({id(state.keys) for state in states if state.n_agents}) == 1


ID_FILES = {
    # comma-separated ints: the C pass, in file order and shuffled
    "c-pass": (",", [-2 ** 63, -5, 0, 7, 2 ** 63 - 1], True),
    # whitespace, or ids the C pass rejects: the row reader
    "rows": (" ", [-5, 0, 7], False),
    "beyond-int64": (",", [-5, 0, 2 ** 63], False),
    "str-ids": (",", [3, "a", "b"], False),
}


@pytest.mark.parametrize("shuffled", [False, True], ids=["ordered", "shuffled"])
@pytest.mark.parametrize("case", sorted(ID_FILES))
def test_loaded_states_carry_keys(tmp_path, monkeypatch, case, shuffled):
    sep, ids, c_pass = ID_FILES[case]
    log = [sep.join(map(str, (t, aid, t + k, k))) for t in range(4)
           for k, aid in enumerate(ids) if (t + k) % 4]
    preds = [sep.join(map(str, (t, tau, aid, t + k, tau))) for t in range(4)
             for tau in (1, 2) for k, aid in enumerate(ids) if (t + k + tau) % 4]
    if shuffled:
        log, preds = log[::-1], preds[::-1]
    (tmp_path / "log.csv").write_text("\n".join(log) + "\n")
    (tmp_path / "preds.csv").write_text("\n".join(preds) + "\n")
    if c_pass:
        refuse_row_reader(monkeypatch)
    for state in served_states(load_trajectories(tmp_path / "log.csv")):
        check_keys(state)
    predictor = make_predictor("replay", tmp_path / "preds.csv")
    for t in range(4):
        for state in predictor([joint([], [], t)], 2).predicted:
            check_keys(state)


@pytest.mark.parametrize("predict", [predict_constant, predict_constant_velocity,
                                     predict_linear_fit])
@pytest.mark.parametrize("ids", [(1, 4, 9), (4, 1, 9), (1, "a", "b"), ()])
def test_model_predictions_pass_the_last_keys_on(predict, ids):
    history = [joint(ids, np.full((len(ids), 2), float(t)), t) for t in range(3)]
    for state in predict(history, 3).predicted:
        check_keys(state)
        assert state.keys is history[-1].keys
