import numpy as np
import pytest
from reference import given_blocks, pack_block

from nonlocal_sharp import (
    ConvergenceError,
    ProblemParams,
    apply,
    assemble,
    eigen,
    eigenfunction_boundary_report,
    fit_power,
    graded_mesh,
    leading_eigenpairs,
    spectral_mt_operator,
    synthetic_k5,
)


class TestSpectralEigenpairs:
    def test_ground_pair_matches_analytic(self, spectral_pairs):
        op, pairs = spectral_pairs
        mu1 = pairs[0].mu
        assert mu1 == pytest.approx(np.pi ** -0.6, abs=1e-3)
        phi1 = pairs[0].phi
        target = np.sqrt(2.0) * np.sin(np.pi * op.grid.nodes)
        err = np.sqrt(np.sum(op.grid.weights * (phi1 - target) ** 2))
        assert err <= 1e-3

    def test_second_mode(self, spectral_pairs):
        op, pairs = spectral_pairs
        lam2_h = (4.0 * 2000 ** 2) * np.sin(2 * np.pi / (2 * 2000)) ** 2
        assert pairs[1].mu == pytest.approx(lam2_h ** -0.3, rel=1e-6)

    def test_eigenvalues_match_symbol(self, spectral_pairs):
        op, pairs = spectral_pairs
        n = op.grid.n
        lam = (4.0 * n ** 2) * np.sin(np.arange(1, 3) * np.pi / (2 * n)) ** 2
        mus = np.array([pair.mu for pair in pairs])
        np.testing.assert_allclose(mus, lam ** -0.3, rtol=1e-12, atol=0)

    def test_orthonormality(self, spectral_pairs):
        op, pairs = spectral_pairs
        w = op.grid.weights
        for a in pairs:
            for b in pairs:
                ip = float(np.sum(w * a.phi * b.phi))
                assert ip == pytest.approx(1.0 if a.index == b.index else 0.0, abs=1e-8)

    def test_residuals_below_tolerance(self, spectral_pairs):
        _, pairs = spectral_pairs
        for pair in pairs:
            assert pair.residual <= 1e-10 * pairs[0].mu * 10

    def test_perron_nonnegative(self, spectral_pairs):
        _, pairs = spectral_pairs
        assert np.all(pairs[0].phi >= -1e-10)

    def test_boundary_slope_is_gamma(self, spectral_pairs):
        op, pairs = spectral_pairs
        res = fit_power(np.abs(pairs[0].phi), op.grid)
        assert res.mu_hat == pytest.approx(1.0, abs=0.05)

    def test_laplacian_ground_state(self):
        op = spectral_mt_operator(1.0, graded_mesh(1000, 1.0))
        pairs = leading_eigenpairs(op, n_eigs=1, tol=1e-10)
        assert pairs[0].mu == pytest.approx(np.pi ** -2, abs=1e-3)

    def test_poincare_inequality(self, spectral_pairs):
        op, pairs = spectral_pairs
        w = op.grid.weights
        mu1 = pairs[0].mu
        gen = np.random.default_rng(5)
        for _ in range(50):
            u = gen.normal(size=op.grid.n)
            u /= np.sqrt(np.sum(w * u * u))
            quad_form = float(np.sum(w * u * apply(op, u)))
            assert quad_form <= mu1 + 1e-8


class TestSyntheticEigenpairs:
    def test_perron_pair_on_graded_mesh(self):
        op = assemble(synthetic_k5(ProblemParams(s=0.2, gamma=1.0)), graded_mesh(500, 3.0))
        pairs = leading_eigenpairs(op, n_eigs=3, tol=1e-9)
        assert pairs[0].mu > 0
        assert np.all(pairs[0].phi >= -1e-10)
        mus = [p.mu for p in pairs]
        assert abs(mus[0]) >= abs(mus[1]) >= abs(mus[2])

    def test_validation(self, spectral_pairs):
        op, _ = spectral_pairs
        with pytest.raises(ValueError):
            leading_eigenpairs(op, n_eigs=0)
        with pytest.raises(ValueError):
            leading_eigenpairs(op, n_eigs=21)
        with pytest.raises(ValueError):
            leading_eigenpairs(op, tol=0.0)
        with pytest.raises(ValueError):
            leading_eigenpairs(spectral_mt_operator(0.3, graded_mesh(8, 1.0)), n_eigs=8)

    def test_n_eigs_is_capped_by_the_two_mirror_sectors(self):
        # ARPACK finds at most n/2 - 1 pairs of each sector
        op = spectral_mt_operator(0.3, graded_mesh(20, 1.0))
        with pytest.raises(ValueError, match="n - 2"):
            leading_eigenpairs(op, n_eigs=19)
        pairs = leading_eigenpairs(op, n_eigs=18)
        # the sectors merge by mu: sine mode k, even about x = 1/2 for odd k
        np.testing.assert_allclose([pair.mu for pair in pairs], op.symbol[:18], rtol=1e-12)
        for pair in pairs:
            sign = 1.0 if pair.index % 2 else -1.0
            np.testing.assert_array_equal(pair.phi[::-1], sign * pair.phi)

    def test_non_convergence_raises(self, monkeypatch):
        # 200 evenly spaced eigenvalues: one restart cannot isolate the top one
        grid = graded_mesh(200, 1.0)
        mus = np.linspace(1.0, 2.0, grid.n)  # every other one to each block
        op = given_blocks(grid, ProblemParams(s=0.3, gamma=1.0),
                          pack_block(np.diag(mus[1::2]), grid), pack_block(np.diag(mus[::2]), grid))
        monkeypatch.setattr(eigen, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="ARPACK did not converge") as exc:
            leading_eigenpairs(op, n_eigs=1)
        assert exc.value.residual == np.inf

    def test_residual_check_raises(self):
        # not self-adjoint in <u, v>_w: ARPACK stops, the honest residual fails
        grid = graded_mesh(16, 1.0)
        upper = pack_block(np.triu(np.ones((grid.n // 2, grid.n // 2))), grid)
        op = given_blocks(grid, ProblemParams(s=0.3, gamma=1.0), upper)
        with pytest.raises(ConvergenceError, match="eigenpair 1 residual") as exc:
            leading_eigenpairs(op, n_eigs=1)
        assert exc.value.residual > 1.0


class TestBoundaryReport:
    def test_two_sided_comparability(self, spectral_pairs):
        op, pairs = spectral_pairs
        reports = eigenfunction_boundary_report(pairs, op.grid, gamma=1.0)
        first = reports[0]
        # phi_1 ~ sqrt(2) sin(pi x): ratio to delta tends to sqrt(2) pi
        assert first.inf_ratio is not None
        assert first.sup_ratio / first.inf_ratio <= 2.0
        second = reports[1]
        assert second.inf_ratio is None
        assert second.sup_ratio <= 10.0

    def test_rescaling_homogeneity(self, spectral_pairs):
        op, pairs = spectral_pairs
        scaled = [type(p)(index=p.index, mu=p.mu, phi=3.0 * p.phi, residual=p.residual)
                  for p in pairs]
        base = eigenfunction_boundary_report(pairs, op.grid, gamma=1.0)
        big = eigenfunction_boundary_report(scaled, op.grid, gamma=1.0)
        for a, b in zip(base, big):
            assert b.sup_ratio == pytest.approx(3.0 * a.sup_ratio, rel=1e-12)

    @pytest.mark.parametrize("backend", ["synthetic", "spectral"])
    def test_ratios_do_not_depend_on_the_tolerance(self, backend):
        # read from ARPACK's own vectors, the synthetic inf_ratio moved 2.9e-10 between these tols
        if backend == "synthetic":
            op = assemble(synthetic_k5(ProblemParams(s=0.2, gamma=1.0)), graded_mesh(2000, 3.0))
        else:
            op = spectral_mt_operator(0.3, graded_mesh(2048, 1.0))
        loose, tight = (eigenfunction_boundary_report(leading_eigenpairs(op, n_eigs=3, tol=tol),
                                                      op.grid, gamma=1.0) for tol in (1e-8, 1e-12))
        assert loose[0].inf_ratio == pytest.approx(tight[0].inf_ratio, rel=1e-11, abs=0)
        for a, b in zip(loose, tight):
            assert a.sup_ratio == pytest.approx(b.sup_ratio, rel=1e-11, abs=0)
