"""Shared fixtures: expensive solves cached once per session.

The four semilinear reference cases (eigen-dominated, scaling-dominated,
critical, and gamma = s) at n = 4000 on the default graded mesh are used
by several test modules and by most acceptance criteria; each is solved
exactly once.
"""

import numpy as np
import pytest

from nonlocal_sharp import (
    ProblemParams,
    SolverConfig,
    assemble,
    graded_mesh,
    leading_eigenpairs,
    picard_solve,
    predict_mu,
    spectral_mt_operator,
    synthetic_k5,
)


def solve_semilinear(s, gamma, p, n, beta=3.0, tol=1e-10, force_critical=False):
    grid = graded_mesh(n, beta)
    op = assemble(synthetic_k5(ProblemParams(s=s, gamma=gamma)), grid)
    sol = picard_solve(op, SolverConfig(p=p, tol=tol))
    pred = predict_mu(s, gamma, p, force_critical=force_critical)
    return op, sol, pred


@pytest.fixture(scope="session")
def case_eigen_dominated():
    """s=0.4, gamma=1, p=0.5, n=4000: predicted exponent 1."""
    return solve_semilinear(0.4, 1.0, 0.5, 4000)


@pytest.fixture(scope="session")
def case_scaling_dominated():
    """s=0.2, gamma=1, p=0.5, n=4000: predicted exponent 0.8."""
    return solve_semilinear(0.2, 1.0, 0.5, 4000)


@pytest.fixture(scope="session")
def case_scaling_coarse():
    """Same parameters as case_scaling_dominated at n=2000."""
    return solve_semilinear(0.2, 1.0, 0.5, 2000)


@pytest.fixture(scope="session")
def case_critical():
    """s=0.25, gamma=1, p=0.5, n=4000: the logarithmic threshold."""
    return solve_semilinear(0.25, 1.0, 0.5, 4000, force_critical=True)


@pytest.fixture(scope="session")
def case_gamma_equals_s():
    """s=gamma=0.3, p=0.5, n=4000: predicted exponent s."""
    return solve_semilinear(0.3, 0.3, 0.5, 4000)


@pytest.fixture(scope="session")
def spectral_pairs():
    """Matrix-transfer operator at s=0.3, n=2000, with two eigenpairs."""
    grid = graded_mesh(2000, 1.0)
    op = spectral_mt_operator(0.3, grid)
    pairs = leading_eigenpairs(op, n_eigs=2, tol=1e-10)
    return op, pairs


@pytest.fixture(scope="session")
def all_semilinear_cases(case_eigen_dominated, case_scaling_dominated,
                         case_critical, case_gamma_equals_s):
    return {
        "eigen-dominated s=0.4": case_eigen_dominated,
        "scaling-dominated s=0.2": case_scaling_dominated,
        "critical s=0.25": case_critical,
        "gamma=s=0.3": case_gamma_equals_s,
    }


def rng(seed=0):
    return np.random.default_rng(seed)
