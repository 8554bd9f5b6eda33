import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import given_blocks, pack_block

from nonlocal_sharp import (
    BracketError,
    ConvergenceError,
    Grid,
    InsufficientWindowError,
    ProblemParams,
    SolverConfig,
    apply,
    apply_sector,
    assemble,
    classify_bq,
    cli,
    enclosure,
    fit_power,
    graded_mesh,
    harnack_report,
    operators,
    picard_map,
    picard_solve,
    predict_mu,
    solver,
    spectral_mt_operator,
    synthetic_k5,
)


def scalar_op(value=2.0):
    # two uncoupled cells: the scalar map u -> value * u^p on each node
    grid = Grid([0.0, 0.5])
    return given_blocks(grid, ProblemParams(s=0.25, gamma=1.0), pack_block([[value]], grid))


@pytest.fixture(scope="module")
def small_op():
    return assemble(synthetic_k5(ProblemParams(s=0.2, gamma=1.0)),
                    graded_mesh(500, 3.0))


class TestSolveLinear:
    """The linear problem u = G[f], solved by one `apply`."""

    def test_zero_data(self, small_op):
        np.testing.assert_array_equal(apply(small_op, np.zeros(500)), 0.0)

    def test_torsion_slope_power_regime(self, case_scaling_dominated):
        # s=0.2, gamma=1: B_1 power regime, slope min(gamma, 2s) = 0.4
        op, _, _ = case_scaling_dominated
        u = operators._mirror(apply_sector(op, np.ones(op.grid.n // 2)))  # G[1] is mirror-even
        res = fit_power(u, op.grid)
        assert res.mu_hat == pytest.approx(0.4, abs=0.03)

    def test_torsion_slope_linear_regime(self, case_gamma_equals_s):
        # s=0.3, gamma=0.3 < 2s: B_1 linear regime, slope gamma = 0.3
        op, _, _ = case_gamma_equals_s
        u = operators._mirror(apply_sector(op, np.ones(op.grid.n // 2)))  # G[1] is mirror-even
        res = fit_power(u, op.grid)
        assert res.mu_hat == pytest.approx(0.3, abs=0.03)


class TestPicardMap:
    """The map on left halves of mirror-even vectors: small_op's 500 nodes have 250."""

    def test_scalar_toy(self):
        out = picard_map(scalar_op(), 0.5, np.ones(1))
        np.testing.assert_array_equal(out, [2.0])

    def test_homogeneity(self, small_op):
        u = np.abs(np.random.default_rng(6).normal(size=250)) + 0.1
        tu = picard_map(small_op, 0.5, u)
        for lam in (0.5, 2.0, 10.0):
            lhs = picard_map(small_op, 0.5, lam * u)
            rhs = lam ** 0.5 * tu
            assert np.max(np.abs(lhs - rhs)) / np.max(lhs) <= 1e-12

    def test_monotone(self, small_op):
        gen = np.random.default_rng(7)
        u = gen.uniform(0, 1, 250)
        v = u + gen.uniform(0, 1, 250)
        assert np.all(picard_map(small_op, 0.5, u) <= picard_map(small_op, 0.5, v))

    def test_negative_input_rejected(self, small_op):
        with pytest.raises(ValueError):
            picard_map(small_op, 0.5, np.full(250, -1.0))


def torsion_pair(op, p):
    """The enclosure [a u, b u] at the left half u of the torsion function G[1]."""
    u = apply_sector(op, np.ones(op.grid.n // 2))
    a, b = enclosure(u, picard_map(op, p, u), p)
    return a * u, b * u


class TestEnclosure:
    def test_scalar_fixed_point_enclosure(self):
        # T(u) = 2 sqrt(u) has the fixed point 4; u = 1 gives r = 2, a = b = 4
        a, b = enclosure(np.ones(1), picard_map(scalar_op(), 0.5, np.ones(1)), 0.5)
        assert a == b == pytest.approx(4.0, rel=1e-15)

    def test_enclosure_is_sub_and_supersolution(self, small_op):
        lo, hi = torsion_pair(small_op, 0.5)
        assert np.all(lo <= hi)
        assert np.all(lo > 0)
        slack = 1e-12 * hi.max()
        assert np.all(picard_map(small_op, 0.5, lo) >= lo - slack)
        assert np.all(picard_map(small_op, 0.5, hi) <= hi + slack)


class TestPicardSolve:
    def test_scalar_fixed_point(self):
        sol = picard_solve(scalar_op(), SolverConfig(p=0.5, tol=1e-12))
        np.testing.assert_allclose(sol.u, 4.0, rtol=1e-10)
        assert sol.residual <= 1e-12

    @pytest.mark.parametrize("backend", ["synthetic", "spectral"])
    def test_solution_is_exactly_mirror_symmetric(self, backend):
        if backend == "spectral":
            op = spectral_mt_operator(0.2, graded_mesh(4000, 1.0))
        else:
            op = assemble(synthetic_k5(ProblemParams(s=0.2, gamma=1.0)),
                          graded_mesh(4000, 3.0))
        sol = picard_solve(op, SolverConfig(p=0.5))
        assert np.array_equal(sol.u, sol.u[::-1])

    def test_config_validation(self):
        for p in (0.0, 1.0, 1.5, float("nan")):
            with pytest.raises(ValueError, match="0 < p < 1"):
                SolverConfig(p=p)
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                SolverConfig(p=0.5, tol=tol)

    def test_solution_positive_interior(self, small_op):
        sol = picard_solve(small_op, SolverConfig(p=0.5, tol=1e-10))
        assert np.all(sol.u > 0)
        assert sol.residual <= 1e-10
        assert sol.bracket_gap <= 1e-9

    def test_monotone_iterates(self, small_op):
        lo, hi = torsion_pair(small_op, 0.5)
        for _ in range(30):
            new_lo = picard_map(small_op, 0.5, lo)
            new_hi = picard_map(small_op, 0.5, hi)
            slack = 1e-12 * hi.max()
            assert np.all(new_lo >= lo - slack)
            assert np.all(new_hi <= hi + slack)
            lo, hi = new_lo, new_hi

    def test_inconsistent_operator_raises_bracket_error(self):
        # four mirrored cells: on mirror-even vectors T acts by the even block
        # alone, so u -> even @ u^p is the map on the left two nodes; two
        # mirrored cells would leave T(u)/u constant
        grid = Grid([0.0, 0.25, 0.5])
        params = ProblemParams(s=0.25, gamma=1.0)

        def signed_op(even):
            # a negative entry breaks monotonicity, which the certificate catches
            return given_blocks(grid, params, pack_block(even, grid))

        with pytest.raises(BracketError, match="min T"):
            picard_solve(signed_op([[1.0, -0.5], [0.0, 1.0]]), SolverConfig(p=0.5))
        with pytest.raises(BracketError, match="not nested"):
            picard_solve(signed_op([[2.0, -1.0], [0.5, 1.0]]), SolverConfig(p=0.5))
        # non-monotone only where u ~ 1e-6 max u: the second step misses
        # a' >= a^p by 1.8e-5 relative, which is 1.8e-13 of max u
        with pytest.raises(BracketError, match="not nested"):
            picard_solve(signed_op([[1.0, 0.0], [-1e-12, 1e-4]]), SolverConfig(p=0.5))

    def test_spectral_certificate_holds_at_long_double_precision(self):
        # With float64 sine transforms, rounding noise in T(u)/u at the two
        # boundary nodes breaks the nesting of successive enclosures here.
        op = spectral_mt_operator(0.825, graded_mesh(3072, 1.0))
        sol = picard_solve(op, SolverConfig(p=0.5))
        assert sol.bracket_gap <= 1e-10 and sol.residual <= 1e-10

    def test_spectral_solve_beyond_dense_storage(self, tmp_path):
        # a dense operator at n = 65536 would need 32 GiB
        args = ["solve", "--backend", "spectral", "--s", "0.3", "--gamma", "1",
                "--p", "0.5", "--n", "65536", "--out-dir", str(tmp_path)]
        assert cli.main(args) == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["n"] == 65536 and fit["residual"] <= 1e-10

    def test_non_convergence(self, small_op, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match="in 2 iterations"):
            picard_solve(small_op, SolverConfig(p=0.5, tol=1e-14))


class TestCertificateProperty:
    @settings(max_examples=30, deadline=None)
    @given(spectral=st.booleans(), n_half=st.integers(32, 128),
           s=st.floats(0.05, 0.45), gamma=st.floats(0.05, 1.0), p=st.floats(0.05, 0.95),
           k=st.integers(0, 3), tol=st.sampled_from([1e-6, 1e-8, 1e-10]))
    def test_early_enclosure_contains_fixed_point(self, spectral, n_half, s, gamma, p, k, tol):
        if spectral:  # the matrix transfer runs n = 4q and is gamma = 1 for any 0 < s <= 1
            n_half += n_half % 2
            op = spectral_mt_operator(2.0 * s, graded_mesh(2 * n_half, 1.0))
        else:
            op = assemble(synthetic_k5(ProblemParams(s=s, gamma=gamma)),
                          graded_mesh(2 * n_half, 3.0))
        ref = picard_solve(op, SolverConfig(p=p, tol=1e-13))
        sol = picard_solve(op, SolverConfig(p=p, tol=tol))
        for out, t in ((ref, 1e-13), (sol, tol)):
            assert out.bracket_gap <= t and out.residual <= t
        u = apply_sector(op, np.ones(n_half))  # left halves of the mirror-even iterates
        for _ in range(k):
            u = picard_map(op, p, u)
        a, b = enclosure(u, picard_map(op, p, u), p)
        assert np.all(a * u <= ref.u[:n_half] * (1 + 1e-11))
        assert np.all(ref.u[:n_half] <= b * u * (1 + 1e-11))


class TestCentredIterates:
    @settings(max_examples=30, deadline=None)
    @given(spectral=st.booleans(), n_half=st.integers(32, 128),
           s=st.floats(0.05, 0.45), gamma=st.floats(0.05, 1.0), p=st.floats(0.05, 0.95),
           tol=st.sampled_from([1e-6, 1e-8, 1e-10]))
    def test_every_enclosure_the_solver_forms_contains_the_fixed_point(
            self, spectral, n_half, s, gamma, p, tol):
        if spectral:  # the matrix transfer runs n = 4q
            n_half += n_half % 2
            op = spectral_mt_operator(2.0 * s, graded_mesh(2 * n_half, 1.0))
        else:
            op = assemble(synthetic_k5(ProblemParams(s=s, gamma=gamma)),
                          graded_mesh(2 * n_half, 3.0))
        ref = picard_solve(op, SolverConfig(p=p, tol=1e-13))
        formed = []

        def spy(u, tu, p):
            a, b = enclosure(u, tu, p)
            formed.append((u.copy(), a, b))
            return a, b

        with mock.patch.object(solver, "enclosure", spy):
            sol = picard_solve(op, SolverConfig(p=p, tol=tol))
        assert len(formed) == sol.iterations
        for u, a, b in formed:  # the solver iterates on left halves
            assert np.all(a * u <= ref.u[:n_half] * (1 + 1e-11))
            assert np.all(ref.u[:n_half] <= b * u * (1 + 1e-11))

    def test_spectral_iteration_count(self):
        # an uncentred Picard sequence takes 33 iterations here
        op = spectral_mt_operator(0.3, graded_mesh(4096, 1.0))
        assert picard_solve(op, SolverConfig(p=0.5)).iterations <= 24

    def test_synthetic_iteration_count(self):
        # an uncentred Picard sequence takes 30 iterations here
        op = assemble(synthetic_k5(ProblemParams(s=0.4, gamma=1.0)), graded_mesh(1000, 3.0))
        assert picard_solve(op, SolverConfig(p=0.5)).iterations <= 20


@pytest.fixture(scope="module")
def meshes():
    out = {}
    for n in (1000, 2000):
        op = assemble(synthetic_k5(ProblemParams(s=0.2, gamma=1.0)),
                      graded_mesh(n, 3.0))
        out[n] = (op, picard_solve(op, SolverConfig(p=0.5, tol=1e-10)))
    return out


class TestSandwichBounds:
    @staticmethod
    def b1(phi, s, gamma):
        cls = classify_bq(1, s, gamma, 1.0)
        if cls.regime == "linear":
            return phi
        if cls.regime == "log":
            return phi * (1.0 + np.abs(np.log(phi)))
        return phi ** cls.phi_exponent

    def test_upper_envelope_mesh_stable(self, meshes):
        kappas = []
        for n, (op, sol) in meshes.items():
            phi = op.grid.delta ** 1.0
            kappas.append(np.max(sol.u / self.b1(phi, 0.2, 1.0)))
        assert all(np.isfinite(k) for k in kappas)
        assert max(kappas) / min(kappas) <= 2.0

    def test_lower_bound_mesh_stable(self, meshes):
        kprimes = []
        for n, (op, sol) in meshes.items():
            phi = op.grid.delta ** 1.0
            kprimes.append(np.min(sol.u / phi))
        assert all(k > 0 for k in kprimes)
        assert max(kprimes) / min(kprimes) <= 2.0


class TestHarnackReport:
    def test_exact_profile_gives_unit_ratio(self):
        grid = graded_mesh(500, 3.0)
        pred = predict_mu(0.2, 1.0, 0.5)
        u = grid.delta ** pred.mu
        rep = harnack_report(u, grid, pred)
        assert rep.global_ratio == pytest.approx(1.0, rel=1e-12)

    def test_local_bounded_by_global(self, case_scaling_dominated):
        op, sol, pred = case_scaling_dominated
        rep = harnack_report(sol.u, op.grid, pred)
        assert rep.local_ratio <= rep.global_ratio
        assert rep.global_ratio <= 10.0

    def test_empty_interior_ball_raises(self):
        # the central nodes sit at 0.397 and 0.603; the boundary window is not empty
        grid = graded_mesh(16, 4.0)
        with pytest.raises(InsufficientWindowError, match="interior ball"):
            harnack_report(grid.delta ** 0.8, grid, predict_mu(0.2, 1.0, 0.5))
