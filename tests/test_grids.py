from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import (
    eigen_window_mask,
    fit_window_mask,
    harnack_window_mask,
    q_norm_profile_indices,
)

from nonlocal_sharp import (
    EigenPair,
    Grid,
    InsufficientWindowError,
    boundary_distance,
    eigenfunction_boundary_report,
    fit_power,
    fit_report,
    graded_mesh,
    green_q_norm_profile,
    harnack_report,
    operators,
    predict_mu,
)


class TestBoundaryDistance:
    def test_center(self):
        assert boundary_distance(0.5) == 0.5

    def test_boundary_point(self):
        assert boundary_distance(0.0) == 0.0
        assert boundary_distance(1.0) == 0.0

    def test_min_of_two_sides(self):
        assert boundary_distance(0.7) == pytest.approx(0.3, abs=1e-15)

    def test_outside_raises(self):
        with pytest.raises(ValueError):
            boundary_distance(-0.1)
        with pytest.raises(ValueError):
            boundary_distance(1.1)

    def test_vectorized(self):
        x = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(boundary_distance(x), [0.1, 0.5, 0.1])


class TestGradedMesh:
    def test_uniform_cells(self):
        g = graded_mesh(8, 1.0)
        np.testing.assert_allclose(g.weights, 1.0 / 8, rtol=1e-15)
        expected_nodes = (2 * np.arange(1, 9) - 1) / 16.0
        np.testing.assert_allclose(g.nodes, expected_nodes, rtol=1e-15)
        assert g.is_uniform

    def test_first_boundary_quadratic_grading(self):
        # t_1 = (1/2) (2/8)^2 = 1/32
        g = graded_mesh(8, 2.0)
        assert g.boundaries[1] == pytest.approx(1.0 / 32.0, rel=1e-15)

    def test_partition_of_unity_and_symmetry(self):
        for n, beta in ((8, 1.0), (64, 2.0), (200, 3.0)):
            g = graded_mesh(n, beta)
            assert abs(g.weights.sum() - 1.0) < 1e-14
            np.testing.assert_allclose(g.nodes, 1.0 - g.nodes[::-1], rtol=0, atol=1e-15)
            np.testing.assert_allclose(g.weights, g.weights[::-1], rtol=0, atol=1e-15)

    def test_beta_one_is_arithmetic_uniform(self):
        g = graded_mesh(64, 1.0)
        np.testing.assert_array_equal(g.boundaries, np.arange(65) / 64.0)

    def test_smallest_cell_scaling(self):
        # smallest width ~ n^-beta up to a factor 4
        for n in (64, 256, 1024, 4096):
            for beta in (1.0, 2.0, 3.0):
                w_min = graded_mesh(n, beta).weights.min()
                ratio = w_min * n ** beta
                assert 0.25 <= ratio <= 4.0, (n, beta, ratio)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            graded_mesh(7, 1.0)
        with pytest.raises(ValueError):
            graded_mesh(4, 1.0)
        with pytest.raises(ValueError):
            graded_mesh(16, 0.5)

    def test_half_boundaries_validated(self):
        for bad in ([0.0, 0.4], [0.1, 0.5], [0.0, 0.3, 0.2, 0.5], [0.0, 0.2, 0.2, 0.5]):
            with pytest.raises(ValueError):
                Grid(bad)

    @pytest.mark.parametrize("n, beta", [(16000, 4.0), (2000, 5.0)])
    def test_strong_grading_mirrors_exactly(self, n, beta):
        g = graded_mesh(n, beta)
        np.testing.assert_array_equal(g.delta, g.delta[::-1])
        np.testing.assert_array_equal(g.weights, g.weights[::-1])
        assert np.all(0.5 * g.weights <= g.delta)
        assert np.all(np.diff(g.nodes) > 0)
        assert 0.0 < g.nodes[0] and g.nodes[-1] < 1.0

    @pytest.mark.parametrize("beta", [np.nan, np.inf, 0.5])
    def test_grading_exponent_outside_one_to_infinity_rejected(self, beta):
        with pytest.raises(ValueError, match="grading exponent"):
            graded_mesh(64, beta)

    def test_too_strong_grading_rejected(self):
        # the first midpoint, 8e-18, is below the rounding of 1 - x
        with pytest.raises(ValueError, match="grading too strong for n"):
            graded_mesh(4000, 5.0)

    @settings(max_examples=40, deadline=None)
    @given(n_half=st.integers(min_value=4, max_value=400),
           beta=st.floats(min_value=1.0, max_value=5.0))
    def test_mesh_invariants_property(self, n_half, beta):
        g = graded_mesh(2 * n_half, beta)
        assert abs(g.weights.sum() - 1.0) < 1e-12
        assert np.all(g.weights > 0)
        assert np.all(np.diff(g.nodes) > 0)
        assert 0.0 < g.nodes[0] and g.nodes[-1] < 1.0
        # nodes are cell midpoints
        np.testing.assert_allclose(
            g.nodes, 0.5 * (g.boundaries[:-1] + g.boundaries[1:]), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(g.delta, g.delta[::-1])
        np.testing.assert_array_equal(g.weights, g.weights[::-1])
        assert np.all(0.5 * g.weights <= g.delta)


def windows_of(call):
    """The masks `call` takes from Grid.boundary_window, None for one that raised.

    A ValueError raised after the windows are chosen (a coarse log fit, an
    empty interior ball) ends the call but keeps the masks it recorded.
    """
    seen = []
    original = Grid.boundary_window

    def spy(self, *args, **kwargs):
        try:
            mask = original(self, *args, **kwargs)
        except InsufficientWindowError:
            seen.append(None)
            raise
        seen.append(mask)
        return mask

    with patch.object(Grid, "boundary_window", spy):
        try:
            call()
        except ValueError:
            pass
    return seen


def assert_same_windows(seen, expected):
    assert len(seen) == len(expected)
    for got, want in zip(seen, expected):
        if want is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got, want)


class TestBoundaryWindow:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=4, max_value=2048).map(lambda h: 2 * h),
           beta=st.one_of(st.sampled_from(np.arange(1.0, 4.25, 0.5).tolist()),
                          st.floats(min_value=1.0, max_value=4.0)))
    @example(n=8, beta=1.0)    # empty Harnack and eigen windows
    @example(n=70, beta=1.0)   # one left-half q-norm node
    @example(n=190, beta=1.0)  # ten fit nodes, the fewest accepted
    def test_callers_select_the_previous_nodes(self, n, beta):
        try:
            grid = graded_mesh(n, beta)
        except ValueError:
            assume(False)
        d = grid.delta

        adaptive = fit_window_mask(grid, None)
        expected = [adaptive if adaptive.sum() >= 10 else None]
        assert_same_windows(windows_of(lambda: fit_power(d ** 0.7, grid)), expected)

        # the critical fit_report: the log fit and the power fit share one window at 0.05
        capped = fit_window_mask(grid, 0.05)
        expected = [capped if capped.sum() >= 10 else None]
        u = d * (1.0 + np.abs(np.log(d))) ** 2
        critical = predict_mu(0.25, 1.0, 0.5)
        assert_same_windows(windows_of(lambda: fit_report(u, grid, critical)), expected)

        harnack = harnack_window_mask(grid)
        pred = predict_mu(0.2, 1.0, 0.5)
        assert_same_windows(windows_of(lambda: harnack_report(d ** 0.8, grid, pred)),
                            [harnack if harnack.any() else None])

        eigen = eigen_window_mask(grid)
        pair = EigenPair(index=1, mu=1.0, phi=d.copy(), residual=0.0)
        assert_same_windows(
            windows_of(lambda: eigenfunction_boundary_report([pair], grid, 1.0)),
            [eigen if eigen.any() else None])

        idx = q_norm_profile_indices(grid)
        with patch.object(operators, "green_q_norm", lambda kernel, grid, i, q: float(i)):
            if len(idx) < 2:
                with pytest.raises(InsufficientWindowError):
                    green_q_norm_profile(None, grid, 1.0)
            else:
                deltas, norms = green_q_norm_profile(None, grid, 1.0)
                assert norms.tolist() == idx
                np.testing.assert_array_equal(deltas, d[idx])
