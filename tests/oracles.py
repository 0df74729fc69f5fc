"""Independent reference implementations used to pin expected test values.

Everything here is deliberately brute-force: dense matrix filtering,
explicit policy enumeration, small expectimax. These are the oracles the
package code is checked against, so they must stay straightforward enough
to audit by eye and must not import the package's own algorithms beyond
plain model table access.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def dense_tables(model, max_states=512):
    """Dense (T, Z, R) arrays of a model, filled from its sparse rows.

    T: (n_s, n_a, n_s), Z: (n_s, n_a, n_o), R: (n_s, n_a). Refuses models
    above ``max_states`` states, whose dense T grows with the square of
    the state count.
    """
    n_s, n_a, n_o = model.n_states, model.n_actions, model.n_observations
    if n_s > max_states:
        raise ValueError(
            f"dense tables disabled for {n_s} states (limit {max_states})")
    T = np.zeros((n_s, n_a, n_s))
    Z = np.zeros((n_s, n_a, n_o))
    R = np.zeros((n_s, n_a))
    for s in range(n_s):
        for a in range(n_a):
            idxs, probs = model.transition_row(s, a)
            T[s, a, idxs] = probs
            idxs, probs = model.observation_row(s, a)
            Z[s, a, idxs] = probs
            R[s, a] = model.reward(s, a)
    return T, Z, R


def exact_filter(T, Z, belief_vec, action, observation):
    """Dense-matrix Bayes filter step. Returns (posterior vector, eta).

    T: (n_s, n_a, n_s), Z: (n_s, n_a, n_o), belief_vec: (n_s,).
    """
    pred = belief_vec @ T[:, action, :]
    weighted = pred * Z[:, action, observation]
    eta = weighted.sum()
    if eta <= 0.0:
        return None, 0.0
    return weighted / eta, eta


def reachable_supports(model, support, action):
    """Observation-grouped successor supports, straight from the tables.

    Returns dict observation -> frozenset of successor states, computed by
    enumerating T successors of the support and grouping each successor
    under every observation it can emit after ``action``.
    """
    union = set()
    for s in support:
        union.update(model.successors(s, action))
    grouped = {}
    for s2 in union:
        idxs, probs = model.observation_row(s2, action)
        for o, p in zip(idxs, probs):
            if p > 0.0:
                grouped.setdefault(int(o), set()).add(s2)
    return {o: frozenset(ss) for o, ss in grouped.items()}


def enumerate_winning_supports(model, support, horizon, unsafe_by_level, level=0):
    """Decide by explicit policy search whether ``support`` wins from ``level``.

    A support at level tau is winning when it avoids unsafe_by_level[tau]
    and some action keeps every observation-grouped successor winning at
    later levels; the search explores all action choices recursively, which
    is exponential and only usable for tiny models and horizons (the point:
    it shares no code with the package's backward induction).
    """

    def is_winning(sup, tau):
        if sup & unsafe_by_level.get(tau, frozenset()):
            return False
        if tau >= horizon:
            return True
        for a in range(model.n_actions):
            children = reachable_supports(model, sup, a)
            if all(is_winning(child, tau + 1) for child in children.values()):
                return True
        return False

    return is_winning(frozenset(support), level)


def shielded_actions_oracle(model, support, tau, horizon, unsafe_by_level):
    """Actions from a level-(tau) support whose every successor is winning."""
    allowed = []

    def is_winning(sup, level):
        if sup & unsafe_by_level.get(level, frozenset()):
            return False
        if level >= horizon:
            return True
        for a in range(model.n_actions):
            children = reachable_supports(model, sup, a)
            if all(is_winning(child, level + 1) for child in children.values()):
                return True
        return False

    for a in range(model.n_actions):
        children = reachable_supports(model, frozenset(support), a)
        if all(is_winning(child, tau + 1) for child in children.values()):
            allowed.append(a)
    return allowed


def belief_expectimax(model, belief_vec, depth, allowed=None):
    """Exact finite-horizon belief-MDP value by expectimax over dense tables.

    Returns (value, best_action). ``allowed`` optionally maps nothing; when
    given it restricts the root action set only. Small models only.
    """
    T, Z, R = dense_tables(model)

    def value(b, d, restrict):
        if d == 0:
            return 0.0, None
        best, best_a = -math.inf, None
        acts = restrict if restrict is not None else range(model.n_actions)
        for a in acts:
            q = float(b @ R[:, a])
            pred = b @ T[:, a, :]
            for o in range(model.n_observations):
                w = pred * Z[:, a, o]
                eta = w.sum()
                if eta <= 0.0:
                    continue
                v, _ = value(w / eta, d - 1, None)
                q += model.discount * eta * v
            if q > best:
                best, best_a = q, a
        return best, best_a

    return value(np.asarray(belief_vec, dtype=float), depth, allowed)


def acp_replay(scores, predictions, actuals, alpha, delta, window_size, lam0):
    """Scalar replay of the one-step-lookahead adaptive conformal update.

    Models the stream for lookahead 1: the radius issued at step t-1 targets
    step t, so each step realizes its score, tests it against the radius
    issued last step, updates lambda with that error, slides the window, and
    issues the next radius. Before any score arrives the issued region is
    infinite (empty window), hence ``pending`` starts at +inf. Returns the
    list of issued radii and the final lambda. Kept as a plain loop with an
    explicit sort so the package deque/quantile machinery has an independent
    mirror.
    """
    lam = lam0
    radii = []
    window = []
    pending = math.inf
    for t in range(len(actuals)):
        beta = math.dist(actuals[t], predictions[t])
        err = 1.0 if pending < beta else 0.0
        lam = lam + alpha * (delta - err)
        window.append(beta)
        if len(window) > window_size:
            window.pop(0)
        k = len(window)
        r = math.ceil((k + 1) * (1.0 - lam))
        if r < 1:
            r = 1
        c = math.inf if r > k else sorted(window)[r - 1]
        radii.append(c)
        pending = c
        scores.append(beta)
    return radii, lam
