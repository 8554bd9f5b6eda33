import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import dense_matrix_transfer, quotient_envelope

from nonlocal_sharp import operators
from nonlocal_sharp import (
    DiagonalSingularityError,
    ProblemParams,
    assemble,
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
        {"s": float("nan"), "gamma": 0.5},
        {"s": 0.3, "gamma": float("nan")},
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

    def test_overflowing_product_form_raises(self):
        # r^{2s-1-2gamma} overflows at r = 1e-104, though the value is about 8.3e101
        kernel = synthetic_k5(ProblemParams(0.01, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not a finite float"):
                kernel(1e-104, 2e-104)
            with pytest.raises(ValueError, match="not a finite float"):
                kernel(np.array([0.25, 1e-104]), np.array([0.75, 2e-104]))

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


class TestEnvelope:
    # the smallest node distance on graded_mesh(4000, 3), the finest mesh a study ships
    R_MIN = 2.5e-10

    @settings(max_examples=300, deadline=None)
    @given(s=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
           g=st.floats(0.0, 1.0, exclude_min=True),
           log_r=st.floats(np.log(R_MIN), 0.0),
           log_dx=st.floats(np.log(3e-11), np.log(0.5)),
           log_dy=st.floats(np.log(3e-11), np.log(0.5)))
    def test_product_form_matches_the_definition(self, s, g, log_r, log_dx, log_dy):
        params = ProblemParams(s=s, gamma=g)
        r, dx, dy = np.exp([log_r, log_dx, log_dy])
        ref = quotient_envelope(r, dx, dy, params)
        val = operators._envelope(r, dx, dy, params)
        assert abs(val - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("g", [1.0, 0.5, 0.3])  # r itself, the sqrt fast path, np.power
    def test_buffers_give_the_bits_of_the_allocating_call(self, g):
        params = ProblemParams(s=0.2, gamma=g)
        grid = graded_mesh(600, 3.0)
        x, d = grid.nodes, grid.delta
        r = np.abs(x[:40, None] - x[None, 100:])
        kept = r.copy()
        ref = operators._envelope(r, d[:40, None], d[None, 100:], params)
        assert np.array_equal(r, kept)  # the allocating call leaves r as it was
        out, scratch = np.empty_like(r), np.empty_like(r)
        val = operators._envelope(r, d[:40, None], d[None, 100:], params, out=out,
                                  scratch=scratch)
        assert val is out and np.array_equal(val, ref)

    def test_most_negative_exponent_stays_finite_at_the_smallest_distance(self):
        # r^{2s-1-2gamma} = r^{-2.98} here: an overflow would raise under error::RuntimeWarning
        grid = graded_mesh(4000, 3.0)
        r = np.diff(grid.nodes)
        i = int(np.argmin(r))
        assert r[i] == pytest.approx(self.R_MIN, rel=1e-6)
        val = operators._envelope(r[i:i + 1], grid.delta[i], grid.delta[i + 1],
                                  ProblemParams(s=0.01, gamma=1.0))
        assert np.all(np.isfinite(val)) and np.all(val > 0.0)


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

    def test_spectral_report_matches_the_dense_matrix(self):
        op = spectral_mt_operator(0.3, graded_mesh(1000, 1.0))
        dense = dense_matrix_transfer(0.3, op.grid)
        rep = check_kernel_bounds(op)
        with mock.patch.object(operators, "entries", lambda op, i, j: dense[i, j]):
            ref = check_kernel_bounds(op)
        assert (rep.violations, rep.n_samples) == (ref.violations, ref.n_samples)
        # the float64 reference rounds at about 1e-16 of its largest entry, which
        # is about 1e-9 of the smallest sampled ones, where c0_hat and c1_hat sit
        assert rep.c0_hat == pytest.approx(ref.c0_hat, rel=1e-8)
        assert rep.c1_hat == pytest.approx(ref.c1_hat, rel=1e-8)

    def test_assembled_operator_report(self):
        # the diagonal cells and the Gauss band are sampled too, and a cross-half entry
        # far below its mirror partner is read to its own precision: no false violation
        op = assemble(synthetic_k5(ProblemParams(0.2, 1.0)), graded_mesh(1000, 3.0))
        rep = check_kernel_bounds(op)
        assert "odd" not in vars(op)  # sampling never built the odd block
        assert rep.violations == 0
        assert rep.c0_hat >= 1.0 - 1e-12
        assert rep.c1_hat > 1.0

    @pytest.mark.parametrize("build", [
        lambda: spectral_mt_operator(0.3, graded_mesh(1000, 1.0)),
        lambda: assemble(synthetic_k5(ProblemParams(0.2, 0.7)), graded_mesh(200, 3.0)),
    ], ids=["spectral", "folded"])
    def test_operator_entries_are_read_without_applies(self, build):
        op = build()
        with (mock.patch.object(operators, "apply", wraps=operators.apply) as spy,
              mock.patch.object(operators, "apply_sector", wraps=operators.apply_sector) as sector):
            check_kernel_bounds(op)
        assert spy.call_count == 0 and sector.call_count == 0

    def test_operator_entries_take_no_n_squared_memory(self):
        # sampling through unit-column applies held about n^2 doubles and their
        # long-double transforms: about 77 MB at n = 1000
        op = spectral_mt_operator(0.3, graded_mesh(1000, 1.0))
        tracemalloc.start()
        try:
            check_kernel_bounds(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, peak / 1e6

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            check_kernel_bounds(synthetic_k5(ProblemParams(s=0.2, gamma=1.0)),
                                n_samples=50)

    @pytest.mark.parametrize("n_samples", [np.nan, np.inf, 150.5, 200.0, 99])
    def test_sample_count_is_an_integer_of_at_least_100(self, n_samples):
        with pytest.raises(ValueError, match="integer of at least 100 sample pairs"):
            check_kernel_bounds(synthetic_k5(ProblemParams(s=0.2, gamma=1.0)),
                                n_samples=n_samples)

    def test_numpy_integer_sample_count_accepted(self):
        k = synthetic_k5(ProblemParams(s=0.2, gamma=1.0))
        assert check_kernel_bounds(k, n_samples=np.int64(200)).n_samples == 200

    def test_deterministic(self):
        k = synthetic_k5(ProblemParams(s=0.2, gamma=0.7))
        a = check_kernel_bounds(k, n_samples=1000, seed=7)
        b = check_kernel_bounds(k, n_samples=1000, seed=7)
        assert a == b
