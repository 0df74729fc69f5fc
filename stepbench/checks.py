"""Output checks that re-derive the program's claims without its shield code.

Each check reads what the episode runner hands out (the per-step hook data
and the episode records) and the model's public ``successors`` and
``observation_support``, and answers pass or fail on its own arithmetic.
None of them compares against a saved copy of an earlier run's output.
"""

from __future__ import annotations

import math

import numpy as np


class ReachAvoid:
    """Independent reach-avoid recursion over belief supports.

    A support at lookahead q (1..H) wins when it holds no state of F_q and,
    below H, some action sends every observation-grouped successor support
    to a winning support at q+1. A root action is certified when all its
    successor supports win at lookahead 1.
    """

    def __init__(self, model, horizon):
        self.model = model
        self.horizon = horizon
        self._children = {}

    def children(self, support, action):
        key = (support, action)
        kids = self._children.get(key)
        if kids is None:
            grouped = {}
            for s in support:
                for s2 in self.model.successors(s, action):
                    for o in self.model.observation_support(s2, action):
                        grouped.setdefault(o, set()).add(s2)
            kids = self._children[key] = tuple(frozenset(g) for g in grouped.values())
        return kids

    def certified(self, root, unsafe):
        """Root actions certified against ``unsafe`` (F_1..F_H, sets of states)."""
        memo = {}
        actions = range(self.model.n_actions)

        def wins(support, q):
            key = (support, q)
            if key not in memo:
                memo[key] = not (support & unsafe[q - 1]) and (
                    q == self.horizon or any(
                        all(wins(c, q + 1) for c in self.children(support, a))
                        for a in actions))
            return memo[key]

        return [a for a in actions if all(wins(c, 1) for c in self.children(root, a))]

    def step_ok(self, t, state, action, deadlock, support, unsafe):
        """The hooked step's action is certified, or it deadlocked with none."""
        certified = self.certified(frozenset(support), [frozenset(f) for f in unsafe])
        return not certified if deadlock else action in certified


def safety_flags(records, source, epsilon):
    """Per-record "keeps the epsilon buffer", from positions alone.

    Outside the source's span no agent is present; a record without a
    position (the terminal state) is safe.
    """
    span = source.span()
    flags = []
    for rec in records:
        agents = (source.agents_at(rec.t).positions if span and span[0] <= rec.t <= span[1]
                  else np.zeros((0, 2)))
        pos = np.array([rec.x, rec.y])
        if len(agents) == 0 or not np.isfinite(pos).all():
            flags.append(True)
            continue
        gap = float(np.sqrt(((agents - pos) ** 2).sum(axis=1)).min())
        flags.append(gap >= epsilon)
    return flags


def coverage_ok(tests, delta, z=3.09):
    """Pooled ACP coverage is not below 1 - delta by more than z binomial sd.

    ``tests`` maps a distinct test key to its violated flag. z = 3.09 is
    the one-sided 0.001 normal quantile. Returns (ok, coverage, n).
    """
    n = len(tests)
    if n == 0:
        return False, math.nan, 0
    coverage = 1.0 - sum(tests.values()) / n
    floor = (1.0 - delta) - z * math.sqrt(delta * (1.0 - delta) / n)
    return coverage >= floor, coverage, n
