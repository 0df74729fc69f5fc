"""Adaptive conformal prediction regions around trajectory predictions.

One tracker per lookahead depth tau maintains a sliding window of the K
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
from dataclasses import dataclass

import numpy as np

from .errors import AgentMismatch, EmptyWindow, InvalidSpec, OutOfRange

DEFAULT_ALPHA = 0.0008
DEFAULT_DELTA = 0.05
DEFAULT_WINDOW = 30


@dataclass
class AcpTracker:
    """Sliding score window and adaptive failure level for one lookahead."""

    horizon: int
    alpha: float = DEFAULT_ALPHA
    delta: float = DEFAULT_DELTA
    window_size: int = DEFAULT_WINDOW
    lam: float = None
    window: deque = None

    def __post_init__(self):
        if self.horizon < 1:
            raise InvalidSpec(f"tracker horizon must be >= 1, got {self.horizon}")
        if not (0.0 < self.alpha < 1.0):
            raise InvalidSpec(f"alpha {self.alpha} outside (0, 1)")
        if not (0.0 < self.delta < 1.0):
            raise InvalidSpec(f"delta {self.delta} outside (0, 1)")
        if self.window_size < 1:
            raise InvalidSpec(f"window_size must be >= 1, got {self.window_size}")
        if self.lam is None:
            self.lam = self.delta
        if self.window is None:
            self.window = deque(maxlen=self.window_size)

    def append_score(self, beta):
        if beta < 0.0 or not math.isfinite(beta):
            raise InvalidSpec(f"nonconformity score must be finite and >= 0, got {beta}")
        self.window.append(beta)


@dataclass(frozen=True)
class PredictionRegions:
    """Radii emitted at one timestep, one per lookahead 1..horizon."""

    made_at: int
    radii: tuple

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if any(r < 0.0 for r in self.radii):
            raise InvalidSpec("region radii must be nonnegative")

    @property
    def horizon(self):
        return len(self.radii)

    def radius(self, tau):
        """Radius around the lookahead-tau prediction (targets made_at+tau)."""
        if not (1 <= tau <= len(self.radii)):
            raise OutOfRange(f"tau {tau} outside 1..{len(self.radii)}")
        return self.radii[tau - 1]


def nonconformity(actual, predicted):
    """Joint prediction error: Euclidean norm of the stacked difference.

    Agents are matched by id; only agents present on both sides enter the
    norm (agents enter and leave real recordings). Raises AgentMismatch
    when the two states share no agents at all.
    """
    mine, theirs = actual.shared_rows(predicted)
    if not mine:
        raise AgentMismatch(
            f"no common agents between actual {actual.ids} and predicted {predicted.ids}")
    diffs = actual.positions[mine] - predicted.positions[theirs]
    return float(np.linalg.norm(diffs.ravel()))


def update_lambda(tracker, violated):
    """Adaptive level update: lam += alpha * (delta - violated), unclamped.

    lam may leave (0, 1); only the quantile index derived from it is
    clamped, which keeps the averaged recursion that the long-run coverage
    argument relies on intact.
    """
    tracker.lam = tracker.lam + tracker.alpha * (tracker.delta - (1.0 if violated else 0.0))
    return tracker


def region_radius(window, lam, window_size):
    """Empirical quantile radius: the r-th smallest score in the window.

    r = ceil((k + 1) * (1 - lam)) with k the current window length (the
    nominal window_size only bounds k). r below 1 clamps to the smallest
    score; r above k means no stored score certifies the requested coverage,
    so the radius is +inf, the conservative answer during warm-up or after
    a run of violations pushed lam negative.
    """
    k = len(window)
    if k == 0:
        raise EmptyWindow("cannot take a quantile of an empty score window")
    if k > window_size:
        raise InvalidSpec(f"window holds {k} scores, nominal size {window_size}")
    r = math.ceil((k + 1) * (1.0 - lam))
    if r > k:
        return math.inf
    if r < 1:
        r = 1
    return sorted(window)[r - 1]


@dataclass(frozen=True)
class AcpRecord:
    """One per-(step, tau) diagnostic row for coverage plots."""

    timestep: int
    tau: int
    beta: float          # NaN when no tau-old prediction existed
    lam: float
    radius: float        # radius issued this step, targeting timestep + tau
    violated: bool       # None when no previously issued radius was testable


class AcpEstimator:
    """Per-episode ACP state: trackers, prediction buffer, issued radii.

    Call order per timestep t: ``step(actual)`` first (it consumes the
    predictions recorded tau steps earlier and emits the new radii), then
    ``record_prediction`` with the prediction set the robot just computed
    at t. Radii are buffered by their target timestep so each one is tested
    exactly once, when its target arrives.
    """

    def __init__(self, horizon, alpha=DEFAULT_ALPHA, delta=DEFAULT_DELTA,
                 window_size=DEFAULT_WINDOW):
        if horizon < 1:
            raise InvalidSpec(f"horizon must be >= 1, got {horizon}")
        self.horizon = horizon
        self.trackers = {
            tau: AcpTracker(tau, alpha=alpha, delta=delta, window_size=window_size)
            for tau in range(1, horizon + 1)}
        self._predictions = {}        # (target_t, tau) -> JointAgentState
        self._pending = {}            # (target_t, tau) -> issued radius
        self.records = []

    def record_prediction(self, prediction_set):
        """Buffer a PredictionSet so each lookahead can be scored later."""
        if prediction_set.horizon < self.horizon:
            raise InvalidSpec(
                f"prediction horizon {prediction_set.horizon} below estimator "
                f"horizon {self.horizon}")
        for tau in range(1, self.horizon + 1):
            target = prediction_set.made_at + tau
            self._predictions[(target, tau)] = prediction_set.at(tau)

    def _score(self, actual, predicted):
        """Nonconformity, None when either side has no agents.

        Two nonempty states that share no agent raise AgentMismatch.
        """
        if actual.n_agents == 0 or predicted.n_agents == 0:
            return None
        return nonconformity(actual, predicted)

    def step(self, actual):
        """Advance every tracker with the joint state at time t; emit radii.

        Per tau: score the tau-step-old prediction, test the radius that was
        issued for this very timestep, update lambda with the outcome, slide
        the window, and emit the radius targeting t + tau.
        """
        t = actual.timestep
        radii = []
        for tau in range(1, self.horizon + 1):
            tracker = self.trackers[tau]
            predicted = self._predictions.pop((t, tau), None)
            issued = self._pending.pop((t, tau), None)
            beta = self._score(actual, predicted) if predicted is not None else None
            violated = None
            if beta is not None:
                if issued is not None:
                    violated = issued < beta
                    update_lambda(tracker, violated)
                tracker.append_score(beta)
            if tracker.window:
                radius = region_radius(tracker.window, tracker.lam, tracker.window_size)
            else:
                radius = math.inf
            radii.append(radius)
            self._pending[(t + tau, tau)] = radius
            self.records.append(AcpRecord(
                timestep=t, tau=tau,
                beta=beta if beta is not None else math.nan,
                lam=tracker.lam, radius=radius, violated=violated))
        return PredictionRegions(made_at=t, radii=tuple(radii))

    def coverage(self, tau=None):
        """Fraction of tested radii that covered their realized score.

        None when nothing has been tested yet. ``tau=None`` pools all
        lookaheads.
        """
        outcomes = self._outcomes(tau)
        return 1.0 - sum(outcomes) / len(outcomes) if outcomes else None

    def tested_count(self, tau=None):
        return len(self._outcomes(tau))

    def _outcomes(self, tau):
        """The records' tested outcomes (True for a miss), for one tau or all."""
        return [rec.violated for rec in self.records
                if rec.violated is not None and (tau is None or rec.tau == tau)]
