"""Spans and counters around the program's public calls, for the traced run.

``Tracer.install`` swaps each public call the episode runner makes into a
layer for a wrapper that records a span (name, start, end, parent, step)
or bumps a counter, and ``Tracer.remove`` puts the originals back. Nothing
in the program changes: the wrappers sit on the module and class attributes
the runner looks up at call time. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

from acpshield import acp, harness, planner, pomdp, trajectory

# span name -> (owner, attribute) of the call it wraps
SPANS = {
    "trajectory.agents_at": (trajectory.TrajectorySource, "agents_at"),
    "acp.step": (acp.AcpEstimator, "step"),
    "shield.unsafe": (harness, "unsafe_sets"),
    "shield.bsts": (harness, "Bsts"),
    "shield.winning": (harness, "compute_winning_regions"),
    "shield.table": (harness, "Shield"),
    "shield.verify": (harness, "verify_winning_regions"),
    "planner.plan": (planner.Planner, "plan"),
    "planner.advance": (planner.Planner, "advance_root"),
    "planner.fallback": (harness, "fallback_action"),
    "pomdp.resample": (planner, "resample_particles"),
}

# per workload, the spans of the layers that should take most of its step
TARGETS = {
    "desk20": ("planner.plan", "planner.advance", "pomdp.resample"),
    "crowd-replay": ("shield.unsafe", "acp.step"),
}


class Tracer:
    def __init__(self):
        self.spans = []           # (name, start, end, parent index, step id)
        self.counts = defaultdict(float)
        self.step = "0:0"
        self._stack = []
        self._saved = []
        self._resample_obs = None

    # -- spans -----------------------------------------------------------------

    def timed(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` counts work done."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            step = self.step
            stack.append(index)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, step)
                if after is not None:
                    after(args, result)
        return wrapper

    def on_step(self, episode, step):
        """Spans that start after this call belong to ``step`` of ``episode``.

        Step 0 of an episode runs from its start to the first step hook; step
        k > 0 from the k-th hook to the next, one full environment step.
        """
        self.step = f"{episode}:{step}"

    # -- counters --------------------------------------------------------------

    def _after_plan(self, args, result):
        stats = args[0].last_stats
        self.counts["simulations"] += stats.simulations
        self.counts["nodes"] += stats.nodes
        self.counts["root_pruned"] += len(stats.root_pruned)
        self.counts["plans"] += 1
        if result is None:           # plan raised AllActionsShielded
            self.counts["deadlocks"] += 1

    def _after_bsts(self, args, bsts):
        self.counts["bsts_builds"] += 1
        self.counts["bsts_nodes"] += bsts.node_count()

    def _after_unsafe(self, args, _):
        positions, predictions = args[0], args[1]
        self.counts["margins"] += len(positions) * sum(
            p.n_agents for p in predictions.predicted)

    # -- install / remove ----------------------------------------------------------

    def _swap(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        after = {
            "planner.plan": self._after_plan,
            "shield.bsts": self._after_bsts,
            "shield.unsafe": self._after_unsafe,
        }
        for name, (owner, attr) in SPANS.items():
            self._swap(owner, attr, self.timed(name, getattr(owner, attr), after.get(name)))
        self._swap(harness, "make_predictor", self._make_predictor(harness.make_predictor))
        self._swap(planner, "resample_particles",
                   self._resample(planner.resample_particles))
        self._swap(acp, "nonconformity", self._nonconformity(acp.nonconformity))
        self._swap(pomdp.PomdpModel, "generative_step",
                   self._generative_step(pomdp.PomdpModel.generative_step))

    def remove(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def _make_predictor(self, make):
        # the replay predictor reads its file here, once per episode
        load = self.timed("trajectory.load_predictor", make)

        def wrapper(*args, **kwargs):
            return self.timed("trajectory.predict", load(*args, **kwargs))
        return wrapper

    def _resample(self, resample):
        def wrapper(model, particles, action, observation, *args, **kwargs):
            self._resample_obs = observation
            try:
                return resample(model, particles, action, observation, *args, **kwargs)
            finally:
                self._resample_obs = None
        return wrapper

    def _nonconformity(self, score):
        def wrapper(actual, predicted):
            self.counts["agents_scored"] += len(set(actual.ids) & set(predicted.ids))
            return score(actual, predicted)
        return wrapper

    def _generative_step(self, step):
        counts = self.counts

        def wrapper(model, s, a, rng):
            out = step(model, s, a, rng)
            counts["generative_steps"] += 1
            if self._resample_obs is not None:
                counts["resample_attempts"] += 1
                counts["resample_accepted"] += out[1] == self._resample_obs
            return out
        return wrapper

    # -- results -------------------------------------------------------------------

    def self_times(self):
        """name -> summed self time (duration minus direct children's), s."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, step in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "step": step}) + "\n")
