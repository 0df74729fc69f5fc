"""Agent ingestion, predictors, and synthetic trajectory generation."""

import numpy as np
import pytest

from acpshield.errors import (
    HistoryTooShort,
    InvalidSpec,
    MissingExternalPrediction,
    NonMonotoneFrames,
    OutOfRange,
    ParseError,
)
from acpshield.trajectory import (
    JointAgentState,
    PredictionSet,
    ReplayPredictor,
    TrajectorySource,
    load_predictions,
    load_trajectories,
    make_predictor,
    predict_constant,
    predict_constant_velocity,
    predict_linear_fit,
    save_trajectories,
    synth_trajectories,
)


def joint(ids, coords, t):
    return JointAgentState(tuple(ids), np.asarray(coords, dtype=float), t)


def test_joint_state_validation():
    with pytest.raises(InvalidSpec):
        joint([1], [[0, 0], [1, 1]], 0)
    with pytest.raises(InvalidSpec):
        joint([1], [[np.nan, 0]], 0)
    js = joint([3, 1], [[0, 0], [5, 5]], 2)
    assert js.n_agents == 2
    assert tuple(js.position_of(1)) == (5.0, 5.0)
    assert js.position_of(99) is None


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
    assert tuple(ps.at(1).position_of(1)) == (2.0, 0.0)
    assert tuple(ps.at(1).position_of(2)) == (9.0, 9.0)


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
    assert tuple(ps.at(1).position_of(9)) == (1.5, 2.5)
    assert tuple(ps.at(2).position_of(9)) == (2.5, 3.5)
    with pytest.raises(MissingExternalPrediction):
        pred([joint([9], [[0, 0]], 4)], 2)


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
        for aid in a.agent_ids:
            for (ta, pa), (tb, pb) in zip(a.track(aid), b.track(aid)):
                assert ta == tb
                np.testing.assert_array_equal(pa, pb)
    with pytest.raises(InvalidSpec):
        synth_trajectories("brownian-bridge", 1, 5, np.random.default_rng(0))


def test_synth_zero_noise_is_linear():
    src = synth_trajectories("constant-velocity-with-noise", 2, 10,
                             np.random.default_rng(3), bounds=(0, 1000, 0, 1000),
                             speed=0.5, noise=0.0)
    for aid in src.agent_ids:
        pts = np.stack([p for _, p in src.track(aid)])
        steps = np.diff(pts, axis=0)
        assert np.allclose(steps, steps[0], atol=1e-12)


def test_synth_zero_agents():
    src = synth_trajectories("random-walk", 0, 5, np.random.default_rng(0))
    assert src.agent_ids == []
    assert src.span() is None


def test_agents_at_presence_and_span():
    src = TrajectorySource({
        "a": [(0, (0, 0)), (1, (1, 0))],
        "b": [(5, (9, 9)), (6, (9, 8))],
    })
    assert src.span() == (0, 6)
    js = src.agents_at(1)
    assert js.ids == ("a",)
    assert src.agents_at(4).n_agents == 0       # inside span, nobody present
    js5 = src.agents_at(5)
    assert js5.ids == ("b",)
    with pytest.raises(OutOfRange):
        src.agents_at(7)
    with pytest.raises(NonMonotoneFrames):
        TrajectorySource({"a": [(0, (0, 0)), (0, (1, 1))]})


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
    np.testing.assert_allclose(js.position_of(1), (1.5, 2.0))
    np.testing.assert_allclose(js.position_of(2), (0.0, 0.5))
    assert src.agents_at(0).ids == (1,)


def test_load_trajectories_whitespace_and_errors(tmp_path):
    ws = tmp_path / "ws.txt"
    ws.write_text("0 1 2.0 4.0\n1 1 2.5 4.5\n")
    src = load_trajectories(ws)
    np.testing.assert_allclose(src.agents_at(1).position_of(1), (2.5, 4.5))

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


def test_round_trip(tmp_path):
    src = synth_trajectories("waypoint", 4, 25, np.random.default_rng(8))
    path = tmp_path / "rt.csv"
    save_trajectories(src, path)
    back = load_trajectories(path)
    assert back.agent_ids == src.agent_ids
    for aid in src.agent_ids:
        orig, rt = src.track(aid), back.track(aid)
        assert [t for t, _ in orig] == [t for t, _ in rt]
        np.testing.assert_array_equal(np.stack([p for _, p in orig]),
                                      np.stack([p for _, p in rt]))
