"""Shared fixtures: the desk-scale logistic instance, its high-accuracy
reference optimum, and one fully-observed 500-iteration solver run that the
acceptance criteria share.  Hypothesis draws the same examples on every run:
each property test's examples follow from its own source, not from a random
seed or a saved example database, so two runs of the suite test the same
inputs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from qnprox import SolverConfig, solve
from qnprox.selftest import (make_logistic, random_psd,  # noqa: F401
                             reference_minimizer)

settings.register_profile("derandomized", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("derandomized")


def random_unit_opnorm(rng, d):
    """Random symmetric matrix with operator norm exactly 1."""
    M = rng.standard_normal((d, d))
    M = (M + M.T) / 2.0
    return M / np.abs(np.linalg.eigvalsh(M)).max()


@pytest.fixture(scope="session")
def logistic_instance():
    """The acceptance-scale instance: n=500, d=50, sigma=0.8, seed 0."""
    return make_logistic(500, 50, seed=0)


@pytest.fixture(scope="session")
def reference_optimum(logistic_instance):
    x_star = reference_minimizer(logistic_instance,
                                 np.zeros(logistic_instance.dimension))
    return x_star, float(logistic_instance.value(x_star))


@pytest.fixture(scope="session")
def criterion_run(logistic_instance):
    """500 observed iterations on the acceptance instance (seed 0)."""
    reports = []
    config = SolverConfig(max_iters=500, seed=0)
    record = solve(logistic_instance, np.zeros(logistic_instance.dimension),
                   np.zeros(logistic_instance.dimension), config,
                   observer=reports.append)
    return record, reports, config


@pytest.fixture(scope="session")
def small_logistic():
    """A quick instance for module-level solver tests."""
    return make_logistic(120, 12, seed=7)
