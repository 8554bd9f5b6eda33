import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_sharp import (
    DiagonalSingularityError,
    ProblemParams,
    check_kernel_bounds,
    graded_mesh,
    spectral_mt_operator,
    synthetic_k5,
)


class TestProblemParams:
    @pytest.mark.parametrize("kwargs", [
        {"s": 0.0, "gamma": 0.5},
        {"s": 1.5, "gamma": 0.5},
        {"s": 0.3, "gamma": 0.0},
        {"s": 0.3, "gamma": 1.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ProblemParams(**kwargs)


class TestSyntheticKernel:
    def test_hand_evaluated_value(self):
        # |x-y| = 1/2, both deltas = 1/4 < 1/2, so both min-factors engage:
        # 0.5^{-0.4} * (0.25^0.3 / 0.5^0.3)^2 = 2^{0.4} * 2^{-0.6} = 2^{-0.2}
        val = synthetic_k5(ProblemParams(s=0.3, gamma=0.3))(0.25, 0.75)
        assert val == pytest.approx(2.0 ** -0.2, rel=1e-14)
        assert val == pytest.approx(0.8705505632961241, rel=1e-12)

    def test_diagonal_raises(self):
        with pytest.raises(DiagonalSingularityError):
            synthetic_k5(ProblemParams(s=0.3, gamma=0.3))(0.5, 0.5)

    def test_backend_validation(self):
        with pytest.raises(ValueError):
            synthetic_k5(ProblemParams(s=0.5, gamma=0.5))  # needs s < 1/2

    @settings(max_examples=200, deadline=None)
    @given(s=st.floats(0.05, 0.45), g=st.floats(0.05, 1.0),
           x=st.floats(0.001, 0.999), y=st.floats(0.001, 0.999))
    def test_symmetry_and_envelopes(self, s, g, x, y):
        if x == y:
            return
        kernel = synthetic_k5(ProblemParams(s=s, gamma=g))
        v = kernel(x, y)
        assert v == pytest.approx(kernel(y, x), rel=1e-14)
        r = abs(x - y)
        assert v <= r ** (2 * s - 1) * (1 + 1e-12)        # upper envelope
        dx, dy = min(x, 1 - x), min(y, 1 - y)
        assert v >= dx ** g * dy ** g * (1 - 1e-12)       # lower envelope


class TestBoundChecks:
    def test_synthetic_report(self):
        rep = check_kernel_bounds(synthetic_k5(ProblemParams(s=0.2, gamma=1.0)))
        assert rep.violations == 0
        assert rep.c0_hat >= 1.0 - 1e-12
        assert rep.c1_hat == pytest.approx(1.0, abs=1e-12)
        assert rep.n_samples == 10_000

    def test_spectral_operator_report(self):
        op = spectral_mt_operator(0.3, graded_mesh(1000, 1.0))
        rep = check_kernel_bounds(op, n_samples=5000)
        assert rep.violations == 0
        assert np.isfinite(rep.c1_hat)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            check_kernel_bounds(synthetic_k5(ProblemParams(s=0.2, gamma=1.0)),
                                n_samples=50)

    def test_deterministic(self):
        k = synthetic_k5(ProblemParams(s=0.2, gamma=0.7))
        a = check_kernel_bounds(k, n_samples=1000, seed=7)
        b = check_kernel_bounds(k, n_samples=1000, seed=7)
        assert a == b
