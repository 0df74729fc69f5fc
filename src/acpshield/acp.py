"""Adaptive conformal prediction regions around trajectory predictions.

Per lookahead depth tau the estimator keeps a sliding window of the K
most recent time-lagged nonconformity scores (the joint distance between
the agents' actual positions and the prediction issued tau steps earlier)
and an adaptive failure level lambda. Each step emits a radius: the
empirical quantile of the window at level 1 - lambda. When a previously
issued radius fails to cover the realized score, lambda shrinks and the
next radius grows, and vice versa, so the long-run miss frequency tracks
the target delta regardless of how bad the underlying predictor is.
"""

from __future__ import annotations

import math
from collections import deque

from .errors import AgentMismatch, EmptyWindow, InvalidSpec, OutOfRange, require_int

DEFAULT_ALPHA = 0.0008
DEFAULT_DELTA = 0.05
DEFAULT_WINDOW = 30


def nonconformity(actual, predicted):
    """Joint prediction error: Euclidean norm of the stacked difference.

    Agents are matched by id (``JointAgentState.shared_rows``); only agents
    present on both sides enter the norm (agents enter and leave real
    recordings). Raises AgentMismatch when the two states share no agents
    at all.
    """
    mine, theirs = actual.shared_rows(predicted)
    if not len(mine):
        raise AgentMismatch(
            f"no common agents between actual {actual.ids} and predicted {predicted.ids}")
    # take: the same rows as fancy indexing, gathered without its overhead
    d = (actual.positions.take(mine, axis=0) - predicted.positions.take(theirs, axis=0)).ravel()
    return math.sqrt(d.dot(d))                  # np.linalg.norm's 1-D formula


def region_radius(window, lam):
    """Empirical quantile radius: the r-th smallest score in the window.

    r = ceil((k + 1) * (1 - lam)) with k the current window length. r below
    1 clamps to the smallest score; r above k means no stored score
    certifies the requested coverage, so the radius is +inf, the
    conservative answer during warm-up or after a run of violations pushed
    lam negative.
    """
    k = len(window)
    if k == 0:
        raise EmptyWindow("cannot take a quantile of an empty score window")
    r = math.ceil((k + 1) * (1.0 - lam))
    if r > k:
        return math.inf
    if r < 1:
        r = 1
    return sorted(window)[r - 1]


class AcpEstimator:
    """Per-episode ACP state, advanced by one ``step`` call per timestep.

    Per lookahead tau: the adaptive level ``lam[tau]``, the window
    ``windows[tau]`` of the most recent scores, and the ``tested`` and
    ``missed`` counts of issued radii. ``issued`` maps (target timestep,
    tau) to the (radius, prediction) issued for it, so each radius is tested
    exactly once, when its target arrives. ``last`` holds the latest step's
    (beta, lam, violated) per tau: beta is NaN when no score was taken,
    violated None when no radius was tested. ``horizon`` and
    ``window_size`` are ints >= 1, numpy ints included; a bool or a float
    raises InvalidSpec.
    """

    def __init__(self, horizon, alpha=DEFAULT_ALPHA, delta=DEFAULT_DELTA,
                 window_size=DEFAULT_WINDOW):
        require_int("horizon", horizon, 1)
        if not (0.0 < alpha < 1.0):
            raise InvalidSpec(f"alpha {alpha} outside (0, 1)")
        if not (0.0 < delta < 1.0):
            raise InvalidSpec(f"delta {delta} outside (0, 1)")
        require_int("window_size", window_size, 1)
        self.horizon, self.alpha, self.delta = int(horizon), alpha, delta
        taus = range(1, self.horizon + 1)
        self.lam = dict.fromkeys(taus, delta)
        self.windows = {tau: deque(maxlen=int(window_size)) for tau in taus}
        self.issued = {}
        self.tested = dict.fromkeys(taus, 0)
        self.missed = dict.fromkeys(taus, 0)
        self.last = ()

    def step(self, actual, prediction):
        """Advance every lookahead with the joint state at t; return the
        new radii, a tuple of floats for lookaheads 1..horizon.

        ``prediction`` is the PredictionSet made at t, None while the
        predictor has too little history. Per tau: score the prediction
        made tau steps ago, test the radius issued with it, update lambda
        with the outcome, slide the window, and issue the radius targeting
        t + tau with this step's prediction. With no agent on both sides (an
        empty side, or a full turnover of ids) there is nothing to score,
        and that lookahead's lambda, window and counts stay as they are.
        Lambda moves by alpha * (delta - miss), unclamped; only the quantile
        index derived from it is clamped, which keeps the averaged recursion
        that the long-run coverage argument relies on intact.
        """
        if prediction is not None and prediction.horizon < self.horizon:
            raise InvalidSpec(
                f"prediction horizon {prediction.horizon} below estimator "
                f"horizon {self.horizon}")
        t = actual.timestep
        radii, last = [], []
        for tau in range(1, self.horizon + 1):
            beta, violated = math.nan, None
            issued, predicted = self.issued.pop((t, tau), (math.inf, None))
            if predicted is not None:
                try:
                    beta = nonconformity(actual, predicted)
                except AgentMismatch:
                    pass
                else:
                    if beta < 0.0 or not math.isfinite(beta):
                        raise InvalidSpec(
                            f"nonconformity score must be finite and >= 0, got {beta}")
                    violated = issued < beta
                    self.tested[tau] += 1
                    self.missed[tau] += violated
                    self.lam[tau] = self.lam[tau] + self.alpha * (
                        self.delta - (1.0 if violated else 0.0))
                    self.windows[tau].append(beta)
            window = self.windows[tau]
            radius = region_radius(window, self.lam[tau]) if window else math.inf
            radii.append(radius)
            last.append((beta, self.lam[tau], violated))
            if prediction is not None:
                self.issued[(t + tau, tau)] = (radius, prediction.at(tau))
        self.last = tuple(last)
        return tuple(radii)

    def coverage(self, tau=None):
        """Fraction of tested radii that covered their realized score.

        None when nothing has been tested yet. ``tau=None`` pools all
        lookaheads.
        """
        tested = self.tested_count(tau)
        return 1.0 - self._count(self.missed, tau) / tested if tested else None

    def tested_count(self, tau=None):
        return self._count(self.tested, tau)

    def _count(self, counts, tau):
        """A per-tau count, summed over all lookaheads when ``tau`` is None."""
        if tau is None:
            return sum(counts.values())
        if tau not in counts:
            raise OutOfRange(f"tau {tau} outside 1..{self.horizon}")
        return counts[tau]
