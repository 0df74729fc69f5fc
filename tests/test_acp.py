"""Nonconformity scores, adaptive lambda, quantile radii, estimator stream."""

import math

import numpy as np
import pytest

from acpshield import acp
from acpshield.acp import AcpEstimator, nonconformity, region_radius
from acpshield.errors import AgentMismatch, EmptyWindow, InvalidSpec, OutOfRange
from acpshield.trajectory import JointAgentState, PredictionSet

from oracles import acp_replay


def joint(ids, coords, t=0):
    return JointAgentState(tuple(ids), np.asarray(coords, dtype=float), t)


# -- nonconformity ----------------------------------------------------------

def test_nonconformity_single_agent_value():
    got = nonconformity(joint([1], [[16.702, 9.726]]), joint([1], [[16.650, 9.682]]))
    assert got == pytest.approx(0.068, abs=5e-4)
    assert got == pytest.approx(math.hypot(0.052, 0.044), abs=1e-12)


def test_nonconformity_identical_is_zero():
    js = joint([1, 2], [[3, 4], [5, 6]])
    assert nonconformity(js, js) == 0.0


def test_nonconformity_stacked_norm():
    actual = joint([1, 2], [[3, 4], [13, 14]])
    pred = joint([1, 2], [[0, 0], [10, 10]])
    assert nonconformity(actual, pred) == pytest.approx(math.sqrt(50), abs=1e-12)


def test_nonconformity_id_alignment_and_mismatch():
    actual = joint([2, 1], [[10, 10], [0, 0]])
    pred = joint([1, 2], [[0, 0], [10, 10]])
    assert nonconformity(actual, pred) == 0.0
    with pytest.raises(AgentMismatch):
        nonconformity(joint([1], [[0, 0]]), joint([2], [[0, 0]]))
    # partial overlap scores the common agent only
    actual2 = joint([1, 3], [[1, 0], [99, 99]])
    pred2 = joint([1, 2], [[0, 0], [50, 50]])
    assert nonconformity(actual2, pred2) == pytest.approx(1.0)


# -- lambda update -----------------------------------------------------------

def one_tested_step(est, t, violated):
    """One step whose tau=1 radius, issued with a prediction at distance 1
    from the actual state, misses when ``violated``."""
    est.issued[(t, 1)] = (0.0 if violated else 2.0, joint([0], [[0.0, 0.0]], t))
    est.step(joint([0], [[1.0, 0.0]], t), None)


def test_update_lambda_covered_step():
    est = AcpEstimator(1, alpha=0.0008, delta=0.05)
    est.lam[1] = 0.0495
    one_tested_step(est, 0, violated=False)
    assert est.lam[1] == pytest.approx(0.04954, abs=1e-15)
    assert est.last == ((1.0, est.lam[1], False),)


def test_update_lambda_violated_step():
    est = AcpEstimator(1, alpha=0.0008, delta=0.05)
    est.lam[1] = 0.0495
    one_tested_step(est, 0, violated=True)
    assert est.lam[1] == pytest.approx(0.0495 - 0.00076, abs=1e-15)
    assert est.last == ((1.0, est.lam[1], True),)


def test_update_lambda_alternating_drift():
    est = AcpEstimator(1, alpha=0.0008, delta=0.05)
    lam_oracle = 0.05
    for i in range(100):
        violated = i % 2 == 0
        one_tested_step(est, i, violated)
        lam_oracle += 0.0008 * (0.05 - (1.0 if violated else 0.0))
    assert est.lam[1] == pytest.approx(lam_oracle, abs=1e-15)
    assert est.lam[1] == pytest.approx(0.05 + 0.0008 * (100 * 0.05 - 50), abs=1e-12)
    assert (est.tested_count(1), est.coverage(1)) == (100, 0.5)


def test_lambda_is_never_clamped():
    est = AcpEstimator(1, alpha=0.1, delta=0.05)
    for t in range(20):
        one_tested_step(est, t, violated=True)
    assert est.lam[1] < 0.0
    for t in range(20, 820):
        one_tested_step(est, t, violated=False)
    assert est.lam[1] > 1.0


# -- quantile radius ---------------------------------------------------------

def test_region_radius_full_window_index():
    # 30 scores whose largest is 0.736; lam = 0.04954 selects the 30th smallest
    window = [0.01 * i for i in range(1, 30)] + [0.736]
    assert region_radius(window, 0.04954) == pytest.approx(0.736)
    # bumping lam across the next index boundary drops to the 29th smallest
    assert region_radius(window, 0.07) == pytest.approx(0.29)


def test_region_radius_clamps_and_overflow():
    window = [3.0, 1.0, 2.0]
    assert region_radius(window, 1.2) == 1.0          # index below 1 -> smallest
    assert region_radius(window, 0.0) == math.inf     # index 4 > 3 -> +inf
    assert region_radius(window, -0.5) == math.inf
    with pytest.raises(EmptyWindow):
        region_radius([], 0.05)


def test_region_radius_warmup_uses_effective_length():
    lam = 0.05
    # k = 10: ceil(11 * 0.95) = 11 > 10 -> +inf
    assert region_radius([float(i) for i in range(10)], lam) == math.inf
    # k = 19: ceil(20 * 0.95) = 19 -> largest of the 19
    window = [float(i) for i in range(19)]
    assert region_radius(window, lam) == 18.0


def test_region_radius_monotone_in_lambda(rng):
    for _ in range(20):
        window = list(rng.uniform(0.0, 5.0, size=int(rng.integers(1, 31))))
        radii = [region_radius(window, lam)
                 for lam in np.linspace(-0.2, 1.2, 29)]
        assert all(a >= b for a, b in zip(radii, radii[1:]))


def test_region_radius_duplicate_scores_count_separately():
    window = [0.5] * 29 + [9.9]
    assert region_radius(window, 0.05) == 9.9      # index 30
    assert region_radius(window, 0.07) == 0.5      # index 29


# -- estimator stream --------------------------------------------------------

def run_estimator_stream(points, horizon=1, **kw):
    """Feed a single-agent position stream with a constant predictor.

    Returns the estimator, each step's radii and each step's ``last``.
    """
    est = AcpEstimator(horizon, **kw)
    radii, lasts = [], []
    for t, p in enumerate(points):
        preds = tuple(joint([0], [p], t + tau) for tau in range(1, horizon + 1))
        radii.append(est.step(joint([0], [p], t), PredictionSet(t, horizon, preds)))
        lasts.append(est.last)
    return est, radii, lasts


def test_estimator_matches_scalar_replay_oracle(rng):
    points = np.cumsum(rng.normal(0.0, 0.4, size=(200, 2)), axis=0)
    est, radii, _ = run_estimator_stream([tuple(p) for p in points])
    # oracle sees the same stream: actual at t vs position at t-1
    scores = []
    oracle_radii, oracle_lam = acp_replay(
        scores, [tuple(p) for p in points[:-1]], [tuple(p) for p in points[1:]],
        alpha=0.0008, delta=0.05, window_size=30, lam0=0.05)
    got = [r[0] for r in radii[1:]]
    # the oracle computes distances with math.dist, the package with
    # numpy, so allow last-ulp drift; infinities must match exactly
    assert got == pytest.approx(oracle_radii, rel=1e-12)
    assert est.lam[1] == pytest.approx(oracle_lam, abs=1e-15)
    # window holds exactly the most recent 30 scores
    betas = [math.dist(points[t], points[t - 1]) for t in range(1, len(points))]
    assert list(est.windows[1]) == pytest.approx(betas[-30:])


def test_estimator_perfect_predictor_dynamics():
    n = 300
    est, radii, _ = run_estimator_stream([(2.0, 2.0)] * n)
    # every tested step is covered, so lam climbs by alpha*delta per test
    assert est.lam[1] == pytest.approx(0.05 + (n - 1) * 0.0008 * 0.05, abs=1e-12)
    assert est.coverage(1) == 1.0
    # once 19 zero scores accumulate the radius is exactly 0
    for r in radii[40:]:
        assert r == (0.0,)
    for r in radii[:10]:
        assert r == (math.inf,)


def test_estimator_determinism(rng):
    pts = [tuple(p) for p in rng.uniform(0, 5, size=(80, 2))]
    _, a, _ = run_estimator_stream(pts)
    _, b, _ = run_estimator_stream(pts)
    assert a == b


def test_estimator_multi_tau_bookkeeping(rng):
    pts = [(0.1 * t, 0.0) for t in range(50)]
    est, radii, lasts = run_estimator_stream(pts, horizon=3)
    for t, last in enumerate(lasts):
        for tau, (beta, lam, violated) in enumerate(last, start=1):
            # lag tau scores first arrive at t = tau; each is tested
            assert math.isnan(beta) == (t < tau) == (violated is None)
            # constant predictor on a constant-velocity walk: beta for lag tau is 0.1*tau
            if t >= tau:
                assert beta == pytest.approx(0.1 * tau, abs=1e-9)
    assert [est.tested_count(tau) for tau in (1, 2, 3)] == [49, 48, 47]
    # after warm-up the radius equals the constant score for that lag
    assert radii[-1][1] == pytest.approx(0.2, abs=1e-9)
    assert radii[-1] == tuple(sorted(radii[-1]))


def test_estimator_reproduces_worked_radii():
    # windows preloaded so the next emission selects the known maxima
    est = AcpEstimator(2, alpha=0.0008, delta=0.05, window_size=30)
    est.lam[1] = 0.0495
    est.windows[1].extend([0.005 * i for i in range(1, 30)] + [0.736])
    est.lam[2] = 0.05
    est.windows[2].extend([0.01 * i for i in range(1, 30)] + [1.329])
    # both previously issued radii cover
    est.issued[(5, 1)] = (0.736, joint([0], [[16.650, 9.682]], 5))
    est.issued[(5, 2)] = (1.329, joint([0], [[16.7, 9.73]], 5))
    radii = est.step(joint([0], [[16.702, 9.726]], 5), None)
    assert est.lam[1] == pytest.approx(0.04954, abs=1e-15)
    # beta = 0.068 joins the window, displacing the oldest score; the
    # 30th-smallest is still the stored maximum for both lags
    assert radii == pytest.approx((0.736, 1.329))
    # nothing predicted at t = 5, so nothing is issued for later steps
    assert est.issued == {}


def test_estimator_gaussian_coverage(rng):
    # i.i.d. errors: coverage should settle near 1 - delta = 0.95
    n = 10000
    est = AcpEstimator(1, alpha=0.0008, delta=0.05, window_size=30)
    for t in range(n):
        p = rng.normal(0.0, 1.0, size=2)
        est.step(joint([0], [p], t),
                 PredictionSet(t, 1, (joint([0], [[0.0, 0.0]], t + 1),)))
    assert est.tested_count(1) == n - 1
    assert 0.93 <= est.coverage(1) <= 0.97


def test_estimator_empty_agents_are_vacuous():
    est = AcpEstimator(2)
    for t in range(40):
        radii = est.step(JointAgentState.empty(t), PredictionSet(
            t, 2, (JointAgentState.empty(t + 1), JointAgentState.empty(t + 2))))
    assert radii == (math.inf, math.inf)
    assert est.coverage() is None


def test_estimator_mismatch_policy():
    # a full turnover of ids scores nothing, like an empty side: beta stays
    # NaN, nothing is tested, and lambda, the window and the counts hold
    est = AcpEstimator(1)
    for t in range(3):
        here = joint([1], [[0.5 * t, 0]], t)
        est.step(here, PredictionSet(t, 1, (joint([1], [[0.5 * t, 0]], t + 1),)))
    lam, window, tested = est.lam[1], list(est.windows[1]), est.tested_count()
    radii = est.step(joint([2], [[5, 5]], 3), None)
    (beta, lam_now, violated), = est.last
    assert math.isnan(beta) and violated is None and lam_now == lam
    assert list(est.windows[1]) == window and est.tested_count() == tested == 2
    assert radii == (region_radius(window, lam),) and est.issued == {}
    # the score itself still refuses disjoint ids
    with pytest.raises(AgentMismatch):
        nonconformity(joint([2], [[5, 5]], 3), joint([1], [[1.5, 0]], 3))


def test_estimator_rejects_a_short_prediction():
    est = AcpEstimator(2)
    with pytest.raises(InvalidSpec):
        est.step(joint([0], [[0, 0]], 0), PredictionSet(0, 1, (joint([0], [[0, 0]], 1),)))


@pytest.mark.parametrize("kw", [{"horizon": True}, {"horizon": 2.5}, {"horizon": 2.0},
                                {"window_size": True}, {"window_size": 2.5},
                                {"window_size": 30.0}, {"horizon": "2"}])
def test_counts_must_be_ints(kw):
    # a bool ran as horizon True or a window of 1; a float raised a bare TypeError
    with pytest.raises(InvalidSpec, match="must be an int"):
        AcpEstimator(**{"horizon": 1, **kw})


def test_counts_accept_numpy_ints():
    est = AcpEstimator(np.int64(2), window_size=np.int32(3))
    assert list(est.lam) == [1, 2] and est.windows[1].maxlen == 3


def test_type_validation(monkeypatch):
    for kw in ({"alpha": 0.0}, {"alpha": 1.0}, {"delta": 0.0}, {"delta": 1.0},
               {"window_size": 0}, {"horizon": 0}):
        with pytest.raises(InvalidSpec):
            AcpEstimator(**{"horizon": 1, **kw})
    for tau in (0, 2):
        with pytest.raises(OutOfRange):
            AcpEstimator(1).coverage(tau)
        with pytest.raises(OutOfRange):
            AcpEstimator(1).tested_count(tau)
    # finite positions whose difference overflows score +inf
    est = AcpEstimator(1)
    est.issued[(0, 1)] = (1.0, joint([0], [[-1e308, 0.0]], 0))
    with np.errstate(over="ignore"), pytest.raises(InvalidSpec):
        est.step(joint([0], [[1e308, 0.0]], 0), None)
    # step scores through the module's nonconformity
    monkeypatch.setattr(acp, "nonconformity", lambda actual, predicted: -1.0)
    est.issued[(1, 1)] = (1.0, joint([0], [[0.0, 0.0]], 1))
    with pytest.raises(InvalidSpec):
        est.step(joint([0], [[1.0, 0.0]], 1), None)
