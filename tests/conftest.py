"""Shared fixtures: small deterministic models and random model builders."""

from __future__ import annotations

import numpy as np
import pytest

from acpshield.pomdp import PomdpModel

# one line per acceptance criterion, echoed after the test summary so the
# verdicts survive output capture
acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def make_random_pomdp(rng, n_states=5, n_actions=3, n_obs=4, branch=3,
                      deterministic_obs=False, discount=0.95, absorbing=0):
    """Random sparse POMDP with at most ``branch`` successors per (s, a).

    Observation rows are either random over a small support or deterministic
    (one observation per state, shared across actions). The first
    ``absorbing`` states self-loop with zero reward under every action.
    """
    t = np.zeros((n_states, n_actions, n_states))
    z = np.zeros((n_states, n_actions, n_obs))
    r = rng.uniform(-2.0, 2.0, size=(n_states, n_actions))
    obs_of = rng.integers(0, n_obs, size=n_states)
    for s in range(n_states):
        for a in range(n_actions):
            k = int(rng.integers(1, branch + 1))
            succ = rng.choice(n_states, size=k, replace=False)
            w = rng.dirichlet(np.ones(k))
            t[s, a, succ] = w
            if deterministic_obs:
                z[s, a, obs_of[s]] = 1.0
            else:
                m = int(rng.integers(1, min(3, n_obs) + 1))
                oo = rng.choice(n_obs, size=m, replace=False)
                z[s, a, oo] = rng.dirichlet(np.ones(m))
    t[:absorbing] = 0.0
    r[:absorbing] = 0.0
    for s in range(absorbing):
        t[s, :, s] = 1.0
    return PomdpModel.from_tables(t, r, z, discount=discount)


@pytest.fixture
def two_state_model():
    """Tiny hand-checkable model used for pinned belief-update values."""
    t = np.array([[[0.7, 0.3]], [[0.4, 0.6]]])          # (s, a, s')
    z = np.array([[[0.9, 0.1]], [[0.2, 0.8]]])          # (s', a, o)
    r = np.array([[1.0], [-1.0]])
    return PomdpModel.from_tables(t, r, z, discount=0.9)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
