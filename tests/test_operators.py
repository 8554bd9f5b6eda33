import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import (
    apply_columns,
    dense_matrix_transfer,
    dense_synthetic_assembly,
    dst_matrix_transfer,
    given_blocks,
    pack_block,
    whole_square,
)

import nonlocal_sharp
from nonlocal_sharp import operators
from nonlocal_sharp import (
    GreenKernel,
    Grid,
    ProblemParams,
    SolverConfig,
    apply,
    apply_sector,
    assemble,
    check_kernel_bounds,
    graded_mesh,
    green_q_norm,
    green_q_norm_profile,
    leading_eigenpairs,
    picard_solve,
    spectral_mt_operator,
    synthetic_k5,
)


def two_cell_grid():
    return Grid([0.0, 0.5])


def traced_assembly(n):
    """(stored bytes, tracemalloc peak) of a fresh synthetic assembly on n nodes.

    The stored bytes, `nbytes`, are read before anything touches the odd
    block, which reading would build.
    """
    kernel = synthetic_k5(ProblemParams(s=0.2, gamma=1.0))
    grid = graded_mesh(n, 3.0)
    tracemalloc.start()
    try:
        op = assemble(kernel, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return op.nbytes, peak


class TestAssemble:
    def test_two_cell_diagonal_closed_form(self):
        # half-width 1/4 on each side: [(1/4)^{2s} + (1/4)^{2s}] / (2s) = 2 at s = 1/4
        op = assemble(synthetic_k5(ProblemParams(s=0.25, gamma=0.7)), two_cell_grid())
        A = apply_columns(op, np.eye(2))
        assert A[0, 0] == pytest.approx(2.0, rel=1e-14)
        assert A[1, 1] == pytest.approx(2.0, rel=1e-14)

    def test_entries_nonnegative(self):
        op = assemble(synthetic_k5(ProblemParams(s=0.2, gamma=1.0)), graded_mesh(64, 3.0))
        assert np.all(apply_columns(op, np.eye(64)) >= 0.0)

    def test_self_adjoint_in_quadrature_inner_product(self):
        op = assemble(synthetic_k5(ProblemParams(s=0.2, gamma=0.6)), graded_mesh(128, 3.0))
        WA = op.grid.weights[:, None] * apply_columns(op, np.eye(128))
        asym = np.max(np.abs(WA - WA.T)) / np.max(np.abs(WA))
        assert asym < 1e-14

    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(0.01, 0.49), gamma=st.floats(0.05, 1.0), beta=st.floats(1.0, 4.0),
           n_half=st.integers(8, 150), block_rows=st.integers(1, 9))
    # near x = 1/2 the stored-node kernel is asymmetric in its last bits: this case
    # fails if the centre rows copy their lower triangle instead of evaluating it
    @example(s=0.484375, gamma=1.0, beta=1.0, n_half=104, block_rows=1)
    # grids narrower than the 17-wide band: its positions outside the grid are skipped
    @example(s=0.3, gamma=0.7, beta=2.0, n_half=4, block_rows=2)
    @example(s=0.1, gamma=1.0, beta=3.0, n_half=7, block_rows=3)
    def test_folded_equals_unfolded(self, s, gamma, beta, n_half, block_rows):
        # row blocks of 1-9 rows put block seams inside the 8-wide Gauss band
        kernel = synthetic_k5(ProblemParams(s=s, gamma=gamma))
        grid = graded_mesh(2 * n_half, beta)
        with mock.patch.object(operators, "_BLOCK_ENTRIES", block_rows * grid.n):
            op = assemble(kernel, grid)
            M = apply_columns(op, np.eye(grid.n))  # not mirror-even: builds the odd block here
        ref = dense_synthetic_assembly(kernel, grid)
        top, bottom = M[:n_half], M[n_half:]
        assert np.max(np.abs(top - ref[:n_half])) <= 1e-14 * np.max(np.abs(ref))
        np.testing.assert_array_equal(bottom, top[::-1, ::-1])

    # the strided-pow case; mirrored band columns in the last slab; a small grid, small gamma
    @pytest.mark.parametrize("n, s, gamma, beta", [(2400, 0.3, 0.3, 3.0), (1198, 0.2, 0.7, 3.0),
                                                   (64, 0.45, 0.05, 4.0)])
    def test_row_block_budget_never_changes_a_bit(self, n, s, gamma, beta):
        kernel, grid = synthetic_k5(ProblemParams(s=s, gamma=gamma)), graded_mesh(n, beta)
        built = []
        for budget in (n, 3 * n, 2 ** 13, 2 ** 15):  # from one row per block up
            with mock.patch.object(operators, "_BLOCK_ENTRIES", budget):
                op = assemble(kernel, grid)
                built.append((op.even, op.odd, op.band))
        for blocks in built[1:]:
            for a, b in zip(blocks, built[0]):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n_half", [131, 134])
    def test_last_slab_holds_the_rows_nearest_the_centre(self, n_half):
        # with slabs of 128 rows and no more, the last one would hold 3 or 6 rows, and
        # pairs of the centre rows would be read across a slab from the other triangle
        kernel = synthetic_k5(ProblemParams(s=0.484375, gamma=1.0))
        grid = graded_mesh(2 * n_half, 1.0)
        with mock.patch.object(operators, "_SLAB_ROWS", 128):
            op = assemble(kernel, grid)
        assert [slab.r0 for slab in op.tiles] == [0]
        top = apply_columns(op, np.eye(grid.n))[:n_half]  # not mirror-even: builds the odd block
        ref = dense_synthetic_assembly(kernel, grid)
        assert np.max(np.abs(top - ref[:n_half])) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [8, 10, 14])
    def test_grid_narrower_than_the_gauss_band(self, n):
        # the 8-wide Gauss band is wider than n/2: an offset past n/2 pairs only some left rows
        kernel = synthetic_k5(ProblemParams(s=0.3, gamma=1.0))
        grid = graded_mesh(n, 2.0)
        with mock.patch.object(operators, "_BLOCK_ENTRIES", 3 * n):
            op = assemble(kernel, grid)
            top = apply_columns(op, np.eye(n))[:n // 2]  # not mirror-even: builds the odd block
        ref = dense_synthetic_assembly(kernel, grid)[:n // 2]
        assert np.max(np.abs(top - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_block_shapes_must_match_the_grid(self):
        # the whole square lays out (n/2, n/2) floats; a tiled block, with far fields, fewer
        assert_laid_out_end_to_end(whole_square(graded_mesh(8, 1.0)), 4)
        with mock.patch.object(operators, "_SLAB_ROWS", 32):
            tiled = assemble(synthetic_k5(ProblemParams(s=0.2, gamma=1.0)), graded_mesh(400, 3.0))
        assert any(part.low for slab in tiled.tiles for part in slab.parts)
        assert tiled.even.size < 200 * 200

    def test_stores_only_its_halves(self):
        op = assemble(synthetic_k5(ProblemParams(s=0.2, gamma=1.0)), graded_mesh(1200, 3.0))

        def stored_shapes():
            return [a.shape for a in vars(op).values() if isinstance(a, np.ndarray)]
        # each (600, 600) block: slab 0-191 stores U, its 192 x 18 Chebyshev basis, its
        # dense columns 0-276 as three bands of 64 rows, each from its own first row's column,
        # 18 Chebyshev rows of its far columns 277-596, and its dense columns 597-599;
        # slab 192-383 the same, with far columns 538-572 and 597-599 around dense 573-596;
        # slabs 384-575 and 576-599 store their upper staircase dense, as bands of 64 and 8 rows
        parts = [[(p.a0, p.a1, p.c0, p.c1, p.low) for p in slab.parts] for slab in op.tiles]
        assert [slab.r0 for slab in op.tiles] == [0, 192, 384, 576]
        assert parts == [[(0, 64, 0, 277, False), (64, 128, 64, 277, False),
                          (128, 192, 128, 277, False), (0, 192, 277, 597, True),
                          (0, 192, 597, 600, False)],
                         [(192, 256, 192, 538, False), (256, 320, 256, 538, False),
                          (320, 384, 320, 538, False), (192, 384, 538, 573, True),
                          (192, 384, 573, 597, False), (192, 384, 597, 600, True)],
                         [(384, 448, 384, 600, False), (448, 512, 448, 600, False),
                          (512, 576, 512, 600, False)],
                         [(576, 584, 576, 600, False), (584, 592, 584, 600, False),
                          (592, 600, 592, 600, False)]]
        block = (192 * 18 + 64 * 277 + 64 * 213 + 64 * 149 + 18 * 320 + 192 * 3
                 + 192 * 18 + 64 * 346 + 64 * 282 + 64 * 218 + 18 * 35 + 192 * 24 + 18 * 3
                 + 64 * 216 + 64 * 152 + 64 * 88 + 8 * 24 + 8 * 16 + 8 * 8,)
        assert block == (143_148,)
        band = (600, 17)  # the correction band, kept for `entries`
        apply_sector(op, np.ones(600))  # the mirror-even sector: the even block alone
        assert stored_shapes() == [band, block]
        assert op.nbytes == 8 * (block[0] + 600 * 17)
        apply(op, np.arange(1200.0))  # mirror-odd part: builds and keeps the odd block
        assert stored_shapes() == [band, block, block]

    def test_odd_block_is_built_once_on_first_mirror_odd_apply(self, monkeypatch):
        folds, fold = [], operators._fold

        def spy(op, combine):
            folds.append(combine)
            return fold(op, combine)
        monkeypatch.setattr(operators, "_fold", spy)
        kernel = synthetic_k5(ProblemParams(s=0.3, gamma=0.7))
        grid = graded_mesh(128, 3.0)
        op = assemble(kernel, grid)
        assert folds == [np.add]
        leading_eigenpairs(op, n_eigs=3)  # many applies to mirror-odd vectors
        assert folds == [np.add, np.subtract]
        ref = dense_synthetic_assembly(kernel, grid)
        top_left, top_right = ref[:64, :64], ref[:64, 64:]
        # one slab of 64 rows, in bands of 21, 21 and 22: rows 0-20 from column 0, rows 21-41
        # from 21, rows 42-63 from 42
        ref_odd = pack_block(top_left - top_right[:, ::-1], grid, op.tiles)
        ref_even = pack_block(top_left + top_right[:, ::-1], grid, op.tiles)
        assert op.odd.size == ref_odd.size == 21 * 64 + 21 * 43 + 22 * 22
        assert np.max(np.abs(op.odd - ref_odd)) <= 1e-14 * np.max(ref_even)

    def test_correction_band_is_evaluated_once_per_operator(self, monkeypatch):
        calls, band = [], operators._corrected_band

        def spy(params, grid):
            calls.append(grid.n)
            return band(params, grid)
        monkeypatch.setattr(operators, "_corrected_band", spy)
        op = assemble(synthetic_k5(ProblemParams(s=0.3, gamma=0.7)), graded_mesh(128, 3.0))
        op.odd  # the second fold
        for seed in range(2):  # each sample reads entries
            check_kernel_bounds(op, n_samples=200, seed=seed)
        assert calls == [128]

    def test_stored_gauss_rule_is_numpys_bit_for_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(operators._GAUSS_NODES)
        assert np.array_equal(operators._GAUSS_X, nodes)
        assert np.array_equal(operators._GAUSS_W, weights)

    def test_assemble_raises_the_even_fold_s_error(self, monkeypatch):
        # the build owns the even block's cost and errors: none waits for the first matvec
        fold = operators._fold

        def failing(op, combine):
            if combine is np.add:
                raise MemoryError("the even block")
            return fold(op, combine)
        monkeypatch.setattr(operators, "_fold", failing)
        with pytest.raises(MemoryError, match="the even block"):
            assemble(synthetic_k5(ProblemParams(s=0.3, gamma=0.7)), graded_mesh(128, 3.0))

    def test_each_block_evaluates_the_envelope_on_its_upper_trapezoid(self, monkeypatch):
        # the full left rows are n^2 / 2 entries; a block evaluates its dense parts and
        # their mirror columns, its far fields at the Chebyshev points, and the even
        # build the Gauss band too: 0.242 and 0.210 of them at n = 4000
        sizes, envelope = [], operators._envelope

        def spy(r, *args, **kwargs):
            sizes.append(np.size(r))
            return envelope(r, *args, **kwargs)
        monkeypatch.setattr(operators, "_envelope", spy)
        n = 4000
        op = assemble(synthetic_k5(ProblemParams(s=0.2, gamma=1.0)), graded_mesh(n, 3.0))
        assert sum(sizes) <= 0.32 * n ** 2 / 2
        sizes.clear()
        apply(op, np.arange(n, dtype=float))  # mirror-odd part: builds the odd block
        assert sum(sizes) <= 0.32 * n ** 2 / 2

    def test_fold_powers_contiguous_mirror_columns(self, monkeypatch):
        # numpy's strided loop rounds ** differently on a reversed view: graded_mesh(4000, 3)
        # .delta[::-1] ** 0.3 differs from its contiguous copy's in 196 of 4000 entries
        strides, envelope = [], operators._envelope

        def spy(r, dx, dy, *args, **kwargs):
            strides.append(dy.strides[-1])
            return envelope(r, dx, dy, *args, **kwargs)
        monkeypatch.setattr(operators, "_envelope", spy)
        assemble(synthetic_k5(ProblemParams(s=0.2, gamma=0.3)), graded_mesh(2400, 3.0))
        assert strides and set(strides) == {8}

    def test_assembly_peak_memory_within_twice_stored_bytes(self):
        # at n = 1000 the row-block buffers, about 1.5 MB for any n, outweigh the 1.4 MB
        # block; at n = 4000 the block dominates, as in every acceptance case
        n = 4000
        stored, peak = traced_assembly(n)
        # the tiled (2000, 2000) block and the band: 7.19 MB, where the block stored
        # dense as its upper slabs took 17.0 MB, with each slab's whole square 9.12 MB,
        # and in 256-row slabs split once at their midpoints 8.12 MB
        assert stored <= 7.2e6
        assert peak <= 2 * stored, peak / stored
        assert peak < (n // 2) ** 2 * 8  # never the square block, not even for a moment
        # the fold's three row-block buffers and little else: 0.38 MB above the stored bytes
        assert peak - stored <= 3 * operators._BLOCK_ENTRIES * 8 + 0.25e6, peak - stored

    def test_band_scratch_is_bounded_by_its_blocks(self):
        n = 4000
        params, grid = ProblemParams(s=0.2, gamma=1.0), graded_mesh(n, 3.0)
        tracemalloc.start()
        try:
            band = operators._corrected_band(params, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the envelope's three buffers of _BLOCK_ENTRIES floats, and the (n/2 + 8, 16) cell
        # averages three times over while they are scaled: 0.84 MB above the band, where the
        # Gauss points formed for every cell at once, before the blocks, took 2.19 MB
        averages = (n // 2 + operators._NEAR_BAND) * 2 * operators._NEAR_BAND * 8
        bound = 3 * operators._BLOCK_ENTRIES * 8 + 3 * averages
        assert peak - band.nbytes <= bound, peak - band.nbytes

    def test_picard_solve_allocates_no_square_block(self):
        n = 4000
        op = assemble(synthetic_k5(ProblemParams(s=0.2, gamma=1.0)), graded_mesh(n, 3.0))
        tracemalloc.start()
        try:
            picard_solve(op, SolverConfig(p=0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (n // 2) ** 2 * 8 / 16, peak  # a few vectors and slab products

    @pytest.mark.parametrize("n", [1000, 4000])
    def test_assembly_reuses_its_row_block_buffers(self, n):
        # the fold alone, on an operator whose band and layout are built: its scratch is one
        # set of three row-block buffers, one part's columns and band positions and a little
        # more (0.34 and 0.37 MB), not a fresh set of buffers for every row block
        params, grid = ProblemParams(s=0.2, gamma=0.3), graded_mesh(n, 3.0)
        op = operators.GreenOperator(grid, params, operators._corrected_band(params, grid),
                                     operators._tiles(grid))
        tracemalloc.start()
        try:
            block = operators._fold(op, np.add)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffers = 3 * max(1, operators._BLOCK_ENTRIES // n) * n * 8
        mirrored = 2 * 2 * (n // 2) * 8  # a part's columns and their delta, with their mirrors
        positions = 3 * operators._SLAB_ROWS * (2 * operators._NEAR_BAND + 1) * 8
        bound = buffers + mirrored + positions + 0.1e6
        assert peak - block.nbytes <= bound, (peak - block.nbytes, bound)

    def test_refinement_convergence_first_order(self):
        # apply to the constant 1 and compare against the finest level
        kernel = synthetic_k5(ProblemParams(s=0.3, gamma=0.5))
        results = {}
        for n in (500, 1000, 2000, 4000):
            grid = graded_mesh(n, 3.0)
            op = assemble(kernel, grid)
            results[n] = (grid, apply(op, np.ones(n)))
        g_ref, u_ref = results[4000]
        errs = []
        for n in (500, 1000, 2000):
            g, u = results[n]
            ui = np.interp(g_ref.nodes, g.nodes, u)
            interior = (g_ref.delta > g.delta.min() * 4)
            errs.append(np.max(np.abs(ui - u_ref)[interior]) / np.max(u_ref))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.0, (errs, order)


@pytest.fixture(scope="module")
def op():
    return assemble(synthetic_k5(ProblemParams(s=0.25, gamma=0.5)), graded_mesh(128, 2.0))


class TestApply:
    def test_zero_maps_to_zero(self, op):
        np.testing.assert_array_equal(apply(op, np.zeros(op.grid.n)), 0.0)

    def test_nonnegativity_preserved(self, op):
        r = np.random.default_rng(1).uniform(0, 1, op.grid.n)
        assert np.all(apply(op, r) >= 0.0)

    def test_linearity(self, op):
        gen = np.random.default_rng(2)
        u, v = gen.normal(size=op.grid.n), gen.normal(size=op.grid.n)
        lhs = apply(op, 2.0 * u + 3.0 * v)
        rhs = 2.0 * apply(op, u) + 3.0 * apply(op, v)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))

    def test_even_sector_solves_never_read_the_odd_block(self, op):
        # an odd block of NaN would poison any result that read it
        blind = given_blocks(op.grid, op.params, op.even, np.full(op.even.shape, np.nan),
                             op.tiles)
        sol = picard_solve(blind, SolverConfig(p=0.5))
        assert np.all(np.isfinite(sol.u)) and sol.residual <= 1e-10
        [pair] = leading_eigenpairs(blind, n_eigs=1)
        assert np.all(np.isfinite(pair.phi)) and np.isfinite(pair.mu)
        # `apply` reads both blocks, whatever the input's symmetry
        assert np.all(np.isnan(apply(blind, np.ones(op.grid.n))))

    @settings(max_examples=40, deadline=None)
    @given(spectral=st.booleans(), odd=st.booleans(), n_half=st.integers(4, 256),
           seed=st.integers(0, 2 ** 16))
    def test_sector_is_the_left_half_of_the_mirrored_apply(self, spectral, odd, n_half, seed):
        if spectral:  # the matrix transfer runs n = 4q
            n_half += n_half % 2
            target = spectral_mt_operator(0.3, graded_mesh(2 * n_half, 1.0))
        else:
            target = assemble(synthetic_k5(ProblemParams(s=0.25, gamma=0.5)),
                              graded_mesh(2 * n_half, 2.0))
        v = np.random.default_rng(seed).standard_normal(n_half)
        full = np.concatenate([v, -v[::-1] if odd else v[::-1]])
        np.testing.assert_array_equal(apply_sector(target, v, odd),
                                      apply(target, full)[:n_half])

    def test_shape_mismatch(self, op):
        n = op.grid.n
        for target in (op, spectral_mt_operator(0.3, graded_mesh(n, 1.0))):
            for bad in (np.ones(n + 1), np.ones((n, 1)), np.ones((n, 2)), np.ones((n + 1, 2)),
                        np.ones((n, 2, 2))):
                with pytest.raises(ValueError):
                    apply(target, bad)
            for bad in (np.ones(n), np.ones(n // 2 + 1), np.ones((n // 2, 1))):
                with pytest.raises(ValueError):
                    apply_sector(target, bad)

    def test_lower_sandwich(self, op):
        # apply(op, f)(x) >= c0 * phi(x) * sum_j w_j f_j phi(x_j) for f >= 0
        gamma = op.params.gamma
        rep = check_kernel_bounds(op, n_samples=2000)
        phi = op.grid.delta ** gamma
        f = np.random.default_rng(3).uniform(0, 1, op.grid.n)
        lhs = apply(op, f)
        rhs = rep.c0_hat * phi * np.sum(op.grid.weights * f * phi)
        assert np.all(lhs >= rhs * (1 - 1e-10))


class TestSpectralMT:
    def test_ground_eigenvalue_matches_continuum(self):
        op = spectral_mt_operator(0.3, graded_mesh(2000, 1.0))
        M = apply_columns(op, np.eye(op.grid.n))
        mu = np.sort(np.linalg.eigvalsh(0.5 * (M + M.T)))[-1]
        assert mu == pytest.approx(np.pi ** -0.6, abs=1e-3)

    def test_s_equal_one_inverts_discrete_laplacian(self):
        n = 200
        grid = graded_mesh(n, 1.0)
        op = spectral_mt_operator(1.0, grid)
        h = 1.0 / n
        main = np.full(n, 2.0)
        main[0] = main[-1] = 3.0  # antisymmetric ghost reflection at midpoints
        L = (np.diag(main) - np.diag(np.ones(n - 1), 1)
             - np.diag(np.ones(n - 1), -1)) / h ** 2
        np.testing.assert_allclose(apply_columns(op, L), np.eye(n), atol=1e-8)

    def test_requires_uniform_grid(self):
        with pytest.raises(ValueError):
            spectral_mt_operator(0.3, graded_mesh(64, 2.0))

    def test_requires_s_in_unit_interval(self):
        with pytest.raises(ValueError):
            spectral_mt_operator(1.5, graded_mesh(64, 1.0))

    def test_positive_semidefinite(self):
        op = spectral_mt_operator(0.4, graded_mesh(256, 1.0))
        gen = np.random.default_rng(4)
        for _ in range(20):
            v = gen.normal(size=op.grid.n)
            assert v @ apply(op, v) >= -1e-12 * (v @ v)

    def test_stores_its_symbol_and_twiddles(self):
        for n in (8, 64, 4096):
            op = spectral_mt_operator(0.3, graded_mesh(n, 1.0))
            stored = op.symbol.nbytes + op.pre.nbytes + op.post.nbytes + op.even_symbol.nbytes
            assert op.nbytes == stored <= 64 * n
            assert op.symbol.shape == (n,) and op.pre.shape == op.post.shape == (n // 4,)
            assert op.even_symbol.shape == (n // 2,)

    @pytest.mark.parametrize("n", [10, 1026])
    def test_requires_n_a_multiple_of_4(self, n):
        with pytest.raises(ValueError, match="multiple of 4"):
            spectral_mt_operator(0.3, graded_mesh(n, 1.0))

    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(0.0, 1.0, exclude_min=True), q=st.integers(16, 128),
           seed=st.integers(0, 2 ** 16))
    def test_transform_matches_dense_reference(self, s, q, seed):
        grid = graded_mesh(4 * q, 1.0)
        v = np.random.default_rng(seed).standard_normal(grid.n)
        ref = dense_matrix_transfer(s, grid) @ v
        got = apply(spectral_mt_operator(s, grid), v)
        assert got.shape == ref.shape and got.dtype == np.float64
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("s", [0.25, 0.7])
    @pytest.mark.parametrize("n", [1024, 4096])
    def test_transform_matches_sine_transform_on_picard_iterates(self, n, s):
        # positive mirror-even inputs, the shape of a Picard iterate: the torsion and
        # its p-th power
        op = spectral_mt_operator(s, graded_mesh(n, 1.0))
        torsion = apply(op, np.ones(n))
        for v in (torsion, torsion ** 0.5):
            ref = dst_matrix_transfer(op.symbol, v)
            got = apply(op, v)
            assert got.shape == ref.shape
            ulps = np.max(np.abs(got - ref) / np.spacing(np.abs(ref)))
            assert ulps <= 4, ulps

    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(0.01, 0.5), q=st.integers(2, 1024), odd=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_sectors_match_sine_transform_on_positive_inputs(self, s, q, odd, seed):
        # the left half of the reference on the whole mirrored vector.  On positive
        # inputs both sectors' results are positive, and for s <= 1/2 the smallest is
        # about h^(2s) of the largest or more; as s nears 1 it falls toward h, where
        # both long-double transforms round to a few float64 ulps of it
        op = spectral_mt_operator(s, graded_mesh(4 * q, 1.0))
        v = np.random.default_rng(seed).uniform(1e-3, 1.0, 2 * q)
        ref = dst_matrix_transfer(op.symbol, operators._mirror(v, odd))[:2 * q]
        got = apply_sector(op, v, odd)
        ulps = np.max(np.abs(got - ref) / np.spacing(np.abs(ref)))
        assert ulps <= 4, ulps


def reference_entries(kernel, grid):
    """The dense synthetic matrix with its right-half rows mirrored from the left ones.

    The reference's own right-half rows are inexact near x = 1, where the
    stored nodes are fl(1 - x); the operator commutes with the flip.
    """
    ref = dense_synthetic_assembly(kernel, grid)[:grid.n // 2]
    return np.concatenate([ref, ref[::-1, ::-1]])


def assert_far_fields_fit(tiles):
    """Some slab has a far field; each such slab is _SLAB_ROWS high with 1 <= k <= 18, not the last."""
    far = [slab for slab in tiles if any(part.low for part in slab.parts)]
    assert far and all(slab.r1 - slab.r0 == operators._SLAB_ROWS and 1 <= slab.k <= 18
                       for slab in far)
    assert not any(part.low for part in tiles[-1].parts)


def assert_laid_out_end_to_end(tiles, half):
    """No float of the block is skipped or shared, and each slab's parts hold S[r0:r1, r0:half].

    Each slab's U starts at the last stop, each part where the one before it stops, and a part
    holds (k if low else a1 - a0) rows of c1 - c0 floats; the last stop is the block's length.
    A far part spans its slab's rows, a dense one some of them, never left of its first row.
    Every entry of S[r0:r1, r0:half] is held once: stored, or as the transpose of an entry a
    dense part of the slab stores right of its rows.  The rows next to x = 1/2, whose own
    square is never read as a transpose, keep _NEAR_BAND rows together, or all the rows there are.
    """
    end = 0
    for slab in tiles:
        assert slab.at == end
        end = slab.at + (slab.r1 - slab.r0) * slab.k
        held = np.zeros((slab.r1 - slab.r0, half - slab.r0), dtype=np.int8)
        for part in slab.parts:
            assert part.start == end and part.c1 > part.c0
            if part.low:
                assert (part.a0, part.a1) == (slab.r0, slab.r1)
            assert slab.r0 <= part.a0 < part.a1 <= slab.r1 and part.a0 <= part.c0
            rows = slab.k if part.low else part.a1 - part.a0
            assert part.stop - part.start == rows * (part.c1 - part.c0)
            end = part.stop
            held[part.a0 - slab.r0:part.a1 - slab.r0, part.c0 - slab.r0:part.c1 - slab.r0] += 1
            if not part.low:  # its transpose, in the slab's rows
                lo, hi = max(part.c0, part.a1), min(part.c1, slab.r1)
                held[lo - slab.r0:hi - slab.r0, part.a0 - slab.r0:part.a1 - slab.r0] += 1
        assert np.all(held == 1)
    centre = [part for part in tiles[-1].parts if part.a1 == half]
    assert centre and all(part.a1 - part.a0 >= min(operators._NEAR_BAND, half)
                          for part in centre)
    assert end == operators._block_length(tiles)


def assert_sectors_match_entries(op):
    """Each unit-column apply of both sectors is within 1e-14 of the rule, `entries`.

    Sector column j combines the entries (i, j) and (i, n-1-j), so it is
    measured relative to their sum; the entries are nonnegative.
    """
    n = op.grid.n
    i, j = np.indices((n // 2, n // 2))
    left, right = operators.entries(op, i, j), operators.entries(op, i, n - 1 - j)
    for odd, rule in ((False, left + right), (True, left - right)):
        got = np.stack([apply_sector(op, e, odd) for e in np.eye(n // 2)], axis=1)
        assert np.all(np.abs(got - rule) <= 1e-14 * (left + right))


class TestEntries:
    @pytest.mark.parametrize("n", [16, 200, 600])  # one slab, one slab, two slabs
    def test_folded_entries_are_the_unit_column_applies(self, n):
        # every (i, j) covers the four mirror quadrants of the n x n matrix; the stored
        # blocks hold A_LL +- A_LR J, so an apply rounds an entry absolutely, at the
        # larger of A[i, j] and its mirror-column partner A[i, n-1-j]
        op = assemble(synthetic_k5(ProblemParams(0.2, 0.7)), graded_mesh(n, 3.0))
        i, j = np.indices((n, n))
        rule = operators.entries(op, i, j)
        err = np.abs(apply_columns(op, np.eye(n)) - rule)
        assert np.all(err <= 2e-15 * (np.abs(rule) + np.abs(rule[:, ::-1])))

    @pytest.mark.parametrize("n", [200, 1000])
    def test_folded_entries_are_relatively_precise(self, n):
        # at n = 1000, reading the stored blocks as (even - odd) / 2 gives 0.0 for 35 tiny
        # cross-half entries; the rule gives each to its own precision
        kernel = synthetic_k5(ProblemParams(s=0.2, gamma=1.0))
        grid = graded_mesh(n, 3.0)
        i, j = np.indices((n, n))
        ref = reference_entries(kernel, grid)
        got = operators.entries(assemble(kernel, grid), i, j)
        assert np.all(np.abs(got - ref) <= 1e-14 * ref)

    @settings(max_examples=30, deadline=None)
    @given(s=st.floats(0.01, 0.49), gamma=st.floats(0.05, 1.0), beta=st.floats(1.0, 3.0),
           n_half=st.integers(4, 300))
    # the band is wider than these grids' rows: an in-grid offset is read, no other
    @example(s=0.3, gamma=0.7, beta=2.0, n_half=4)
    @example(s=0.1, gamma=1.0, beta=3.0, n_half=7)
    def test_folded_entries_match_the_dense_reference(self, s, gamma, beta, n_half):
        kernel = synthetic_k5(ProblemParams(s, gamma))
        grid = graded_mesh(2 * n_half, beta)
        i, j = np.indices((grid.n, grid.n))
        ref = reference_entries(kernel, grid)
        got = operators.entries(assemble(kernel, grid), i, j)
        assert np.all(np.abs(got - ref) <= 1e-14 * ref)

    def test_folded_blocks_fill_every_slab(self):
        # slabs of 32 rows at n = 600: each slab's parts run over its columns r0 .. 299,
        # dense or far field, and each holds its rows of the reference block
        kernel = synthetic_k5(ProblemParams(s=0.2, gamma=1.0))
        grid = graded_mesh(600, 3.0)
        half = grid.n // 2
        with mock.patch.object(operators, "_SLAB_ROWS", 32):
            op = assemble(kernel, grid)
        ref = dense_synthetic_assembly(kernel, grid)[:half] / grid.weights
        left, right = ref[:, :half], ref[:, half:][:, ::-1]
        assert_laid_out_end_to_end(op.tiles, half)
        # the odd block cancels, so it is as precise as the even one, absolutely
        for block, S in ((op.even, left + right), (op.odd, left - right)):
            assert block.size == operators._block_length(op.tiles)
            for slab in op.tiles:
                h = slab.r1 - slab.r0
                U = block[slab.at:slab.at + h * slab.k].reshape(h, slab.k)
                for part in slab.parts:
                    P = block[part.start:part.stop].reshape(-1, part.c1 - part.c0)
                    got = U @ P if part.low else P
                    want, scale = (m[part.a0:part.a1, part.c0:part.c1] for m in (S, left + right))
                    assert np.all(np.abs(got - want) <= 1e-14 * scale)
        assert sum(part.low for slab in op.tiles for part in slab.parts) == 10

    @settings(max_examples=25, deadline=None)
    @given(s=st.floats(0.01, 0.49), gamma=st.floats(0.05, 1.0), beta=st.floats(1.0, 4.0),
           n_half=st.integers(150, 300))
    def test_tiled_sectors_match_the_rule(self, s, gamma, beta, n_half):
        # slabs of 32 rows: far fields of at most 18 Chebyshev points pay at these n
        with mock.patch.object(operators, "_SLAB_ROWS", 32):
            op = assemble(synthetic_k5(ProblemParams(s, gamma)), graded_mesh(2 * n_half, beta))
            assert_far_fields_fit(op.tiles)
        assert_sectors_match_entries(op)

    @pytest.mark.parametrize("n", [2400, 4000, 16000])
    def test_far_fields_lie_in_full_slabs_at_the_shipped_slab_height(self, n):
        # the bound that lets `_tiles` store every far field it finds
        tiles = operators._tiles(graded_mesh(n, 3.0))
        assert_far_fields_fit(tiles)
        assert_laid_out_end_to_end(tiles, n // 2)

    # the last slab holds 1, 8, 9, 15, 16, 23, 24, 191 and 192 rows: one band below 16 rows,
    # a band of 8 and the rest below 24, and from 24 on thirds, the rest in the last
    @pytest.mark.parametrize("n, widest", [(2, 1), (1168, 8), (1170, 9), (1182, 15), (1184, 8),
                                           (1198, 15), (1200, 8), (1534, 65), (1536, 64)])
    def test_short_last_slabs_keep_their_bands(self, n, widest):
        grid = two_cell_grid() if n == 2 else graded_mesh(n, 3.0)
        tiles = operators._tiles(grid)
        assert_laid_out_end_to_end(tiles, n // 2)
        if n > 2:  # two cells hold no far column
            assert_far_fields_fit(tiles)
        for slab in tiles:
            rows = slab.r1 - slab.r0
            bands = [part.a1 - part.a0 for part in slab.parts if part.c0 == part.a0]
            assert sum(bands) == rows and min(bands) >= min(operators._NEAR_BAND, rows)
            # a full slab's bands hold 64 rows; 191 rows hold 63, 63 and 65
            assert max(bands) == (widest if slab is tiles[-1] else 64)
        if n in (1198, 1534):
            assert_sectors_match_entries(assemble(synthetic_k5(ProblemParams(0.2, 0.7)), grid))

    def test_tiled_sectors_match_the_rule_at_the_shipped_slab_height(self):
        op = assemble(synthetic_k5(ProblemParams(s=0.2, gamma=1.0)), graded_mesh(2400, 3.0))
        assert [slab.k for slab in op.tiles] == [18, 18, 18, 18, 0, 0, 0]
        assert_sectors_match_entries(op)

    @pytest.mark.parametrize("n", [200, 1000])
    def test_spectral_entries_match_the_unit_column_applies(self, n):
        op = spectral_mt_operator(0.3, graded_mesh(n, 1.0))
        i, j = np.indices((n, n))
        dense = apply_columns(op, np.eye(n))
        # both round the long-double transform absolutely, at about 1e-19 of the
        # largest entry; the corner entries are 2e-8 of it at n = 1000
        np.testing.assert_allclose(operators.entries(op, i, j), dense, rtol=1e-14,
                                   atol=1e-18 * dense.max())


@pytest.fixture(scope="module")
def setup():
    kernel = synthetic_k5(ProblemParams(s=0.2, gamma=1.0))
    return kernel, graded_mesh(500, 3.0)


class TestGreenQNorm:
    def test_q_range_validation(self, setup):
        kernel, grid = setup
        q_high = 1.0 / (1.0 - 2 * 0.2)  # = 5/3
        with pytest.raises(ValueError):
            green_q_norm(kernel, grid, 250, q_high + 0.01)
        with pytest.raises(ValueError):
            green_q_norm(kernel, grid, 250, 0.0)
        assert np.isfinite(green_q_norm(kernel, grid, 250, q_high - 0.05))

    @pytest.mark.parametrize("s", [0.5, 0.7])
    def test_q_range_is_unbounded_for_a_bounded_kernel(self, s):
        # at 2s >= N = 1 the kernel has no pole, so every q > 0 is admissible, as in classify_bq
        kernel, grid = GreenKernel(ProblemParams(s=s, gamma=1.0)), graded_mesh(64, 2.0)
        norm = green_q_norm(kernel, grid, 10, 1.5)
        assert np.isfinite(norm) and norm > 0.0
        for q in (0.0, -1.0):
            with pytest.raises(ValueError):
                green_q_norm(kernel, grid, 10, q)

    def test_uniform_upper_bound(self, setup):
        # norm^q <= N omega_N diam^{N-q(N-2s)} / (N - q(N-2s)) with constant 1
        kernel, grid = setup
        q = 1.0
        a = 1.0 - q * (1.0 - 2 * kernel.params.s)
        bound = 2.0 / a
        for idx in range(3, grid.n, 29):
            assert green_q_norm(kernel, grid, idx, q) ** q <= bound * (1 + 1e-12)

    @pytest.mark.parametrize("beta", [3.0, 5.0])
    def test_mirrored_centres_agree_exactly(self, beta):
        # 1 - x_left rounds by about 1e-16, which near x = 1 is large relative to delta
        kernel = synthetic_k5(ProblemParams(s=0.2, gamma=1.0))
        grid = graded_mesh(2000, beta)
        for i in (0, 1, 7, 500, 999):
            norm = green_q_norm(kernel, grid, i, 1.0)
            assert green_q_norm(kernel, grid, grid.n - 1 - i, 1.0) == norm
            assert green_q_norm(kernel, grid, -1 - i, 1.0) == norm  # the same mirror node

    def test_profile_monotone_window(self, setup):
        kernel, grid = setup
        deltas, norms = green_q_norm_profile(kernel, grid, 1.0)
        assert deltas.size >= 10
        assert np.all(np.isfinite(norms)) and np.all(norms > 0)
        assert deltas.max() <= 0.05


def test_import_leaves_out_scipy_integrate():
    # the diagonal is closed-form on every cell; no quadrature fallback
    code = "import sys, nonlocal_sharp; print('scipy.integrate' in sys.modules)"
    src = Path(nonlocal_sharp.__file__).parents[1]  # the package under test, not an install
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src)
    assert out.stdout.strip() == "False"


CRITICAL_CASE = {"backend": "synthetic", "s": 0.25, "gamma": 1.0, "p": 0.5, "n": 1000,
                 "beta_g": 3.0, "force_critical": True}
SPECTRAL_CASE = {"backend": "spectral", "s": 0.3, "gamma": 1.0, "p": 0.5, "n": 256}
SPECTRAL_STUDY = [SPECTRAL_CASE, {**SPECTRAL_CASE, "s": 0.6, "p": 0.4}]
SYNTHETIC_CASE = {"backend": "synthetic", "s": 0.2, "gamma": 1.0, "p": 0.5, "n": 400}


def modules_loaded(step, tmp_path, package="scipy", cases=SPECTRAL_STUDY):
    """The modules of a package a fresh process running `step` holds, and those any process logs.

    With PYTHONPROFILEIMPORTTIME every process, study workers included, logs its
    imports to stderr, so an import in a worker shows there although it leaves the
    step's own sys.modules alone.  argv[1] is tmp_path, which holds the study
    config of `cases`, by default two spectral cases.
    """
    (tmp_path / "study.json").write_text(json.dumps({"cases": cases}))
    code = step + f"\nimport sys; print([m for m in sys.modules if m.startswith({package!r})])"
    src = Path(nonlocal_sharp.__file__).parents[1]  # the package under test, not an install
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, check=True, cwd=src,
                         env={**os.environ, "PYTHONPROFILEIMPORTTIME": "1"})
    logged = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
              if line.startswith("import time:")]
    assert logged, "no import log"
    return out.stdout.splitlines()[-1], [m for m in logged if m.startswith(package)]


IMPORT_STEPS = {
    "import": "import nonlocal_sharp",
    "predict": "from nonlocal_sharp import cli; "
               "cli.main(['predict', '--s', '0.25', '--gamma', '1', '--p', '0.5', "
               "'--force-critical'])",
}


# scipy is imported only by leading_eigenpairs, which no study case calls

@pytest.mark.parametrize("step", [
    *IMPORT_STEPS.values(),
    # the log-correction fit needs delta <= 1e-3, which n = 1000 at beta = 3 reaches
    f"from nonlocal_sharp import cli; assert cli.run_case({CRITICAL_CASE!r})['log_exp_hat'] > 0",
], ids=[*IMPORT_STEPS, "critical-case"])
def test_synthetic_path_loads_no_scipy(step, tmp_path):
    assert modules_loaded(step, tmp_path) == ("[]", [])


# the records are named tuples and plain classes: no import execs generated method source
@pytest.mark.parametrize("step", IMPORT_STEPS.values(), ids=IMPORT_STEPS)
def test_package_generates_no_dataclass_code(step, tmp_path):
    assert modules_loaded(step, tmp_path, "dataclasses") == ("[]", [])


# two cases and two jobs: the cases run in forked workers
STUDY_STEP = ("import sys; from nonlocal_sharp import cli; "
              "assert cli.main(['study', '--config', sys.argv[1] + '/study.json', "
              "'--out-dir', sys.argv[1], '--jobs', '2']) == 0")


@pytest.mark.parametrize("step", [
    f"from nonlocal_sharp import cli; assert cli.run_case({SPECTRAL_CASE!r})['iterations'] > 0",
    STUDY_STEP,
], ids=["case", "study"])
def test_spectral_path_loads_no_scipy(step, tmp_path):
    assert modules_loaded(step, tmp_path) == ("[]", [])


@pytest.mark.parametrize("package", ["concurrent", "multiprocessing"])
def test_study_workers_load_no_pool_module(package, tmp_path):
    assert modules_loaded(STUDY_STEP, tmp_path, package) == ("[]", [])


def test_synthetic_study_workers_load_no_numpy_polynomial(tmp_path):
    # the corrected band's Gauss rule is stored, so no worker's first build imports it
    cases = [SYNTHETIC_CASE, {**SYNTHETIC_CASE, "s": 0.3}]
    assert modules_loaded(STUDY_STEP, tmp_path, "numpy.polynomial", cases) == ("[]", [])
