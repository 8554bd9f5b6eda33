import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import curve_fit_offset

from nonlocal_sharp import (
    InsufficientWindowError,
    fit_power,
    fit_report,
    graded_mesh,
    predict_mu,
)
from nonlocal_sharp.fitting import (
    _EXCLUDE,
    _LOG_FIT_CAP,
    _least_squares,
    _offset_aware_fit,
    fit_window,
)


class TestLeastSquares:
    def test_constant_data_fits_exactly(self):
        slope, r2 = _least_squares(np.linspace(-5.0, -1.0, 9), np.full(9, 2.5))
        assert r2 == 1.0
        assert slope == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("x0", [-3.0, -2.1], ids=["mean-exact", "mean-rounded"])
    def test_single_distinct_x_is_refused(self, x0):
        # no line through one abscissa has a least-squares slope; at the second x0 the mean
        # of 12 copies rounds off x0, so centring alone would leave x - mean(x) nonzero
        with pytest.raises(ValueError, match="two distinct x values"):
            _least_squares(np.full(12, x0), np.linspace(0.0, 1.0, 12))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(32, 2000), beta=st.floats(1.0, 4.0), mu=st.floats(0.05, 2.0),
           c=st.floats(-5.0, 5.0), eps=st.floats(-0.5, 0.5))
    def test_slope_within_ulps_of_a_long_double_fit(self, n, beta, mu, c, eps):
        grid = graded_mesh(2 * n, beta)
        d = grid.delta[grid.boundary_window(_EXCLUDE, 0.25, 10)]
        x, y = np.log(d), mu * np.log(d) + c + eps * d  # a power law, smoothly perturbed
        xl, yl = x.astype(np.longdouble), y.astype(np.longdouble)
        xc = xl - xl.mean()
        ref = float(np.sum(xc * (yl - yl.mean())) / np.sum(xc * xc))
        # measured: at most 7 ulps over 4,000 such draws; np.polyfit up to 128 over 1,500
        assert abs(_least_squares(x, y)[0] - ref) <= 16 * np.spacing(abs(ref)), ref


class TestFitPower:
    def test_exact_power_recovered(self):
        grid = graded_mesh(1000, 3.0)
        res = fit_power(grid.delta ** 0.7, grid)
        assert res.mu_hat == pytest.approx(0.7, abs=1e-10)
        assert res.r2 >= 1.0 - 1e-12

    def test_perturbed_power(self):
        grid = graded_mesh(2000, 3.0)
        u = 3.0 * grid.delta ** 0.4 * (1.0 + 0.1 * grid.delta)
        res = fit_power(u, grid)
        assert res.mu_hat == pytest.approx(0.4, abs=5e-3)

    def test_amplitude_invariance(self):
        grid = graded_mesh(500, 2.0)
        u = grid.delta ** 0.5
        a = fit_power(u, grid).mu_hat
        b = fit_power(1e6 * u, grid).mu_hat
        assert a == pytest.approx(b, abs=1e-12)

    def test_window_robustness_for_pure_power(self):
        grid = graded_mesh(2000, 3.0)
        u = grid.delta ** 0.6
        assert fit_power(u, grid).mu_hat == pytest.approx(0.6, abs=1e-10)

    def test_nonpositive_values_rejected(self):
        grid = graded_mesh(500, 2.0)
        with pytest.raises(ValueError):
            fit_power(np.zeros(500), grid)

    def test_insufficient_window(self):
        grid = graded_mesh(8, 1.0)  # every node is among the 5 nearest an endpoint
        with pytest.raises(InsufficientWindowError):
            fit_power(grid.delta, grid)


def log_fit(u, grid, gamma):
    """fit_report of a critical prediction with mu = gamma: the log-factor fit."""
    return fit_report(u, grid, predict_mu(0.25, gamma, 0.5, force_critical=True))


class TestFitLogCorrection:
    def test_constructed_quadratic_log(self):
        grid = graded_mesh(4000, 3.0)
        t = np.abs(np.log(grid.delta))
        u = grid.delta * (1.0 + t ** 2)
        res = log_fit(u, grid, 1.0)
        assert res.log_exp_hat == pytest.approx(2.0, abs=0.1)
        # R^2 of the log fit itself, on the window fit_report measures on
        mask = fit_window(grid, critical=True)
        t, y = t[mask], np.log(u[mask] / grid.delta[mask])
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        assert 1.0 - sum_of_squares(t, y, _offset_aware_fit(t, y)) / ss_tot >= 0.999

    def test_pure_power_gives_zero_exponent(self):
        grid = graded_mesh(4000, 3.0)
        res = log_fit(grid.delta ** 0.5, grid, 0.5)
        assert abs(res.log_exp_hat) <= 0.05

    def test_coarse_mesh_rejected(self):
        grid = graded_mesh(64, 1.0)  # uniform: delta_min ~ 1/128 > 1e-3
        with pytest.raises(InsufficientWindowError):
            log_fit(grid.delta, grid, 1.0)

    def test_offset_params_recovered(self):
        grid = graded_mesh(4000, 3.0)
        t = np.abs(np.log(grid.delta))
        u = grid.delta ** 0.7 * (2.0 + 3.0 * t) ** 1.5
        res = log_fit(u, grid, 0.7)
        assert res.log_exp_hat == pytest.approx(1.5, abs=0.02)
        # the offsets of the factor fit_report divides out, on its window
        mask = fit_window(grid, critical=True)
        _, a, b = _offset_aware_fit(t[mask], np.log(u[mask] / grid.delta[mask] ** 0.7))
        assert a == pytest.approx(2.0, rel=0.1)
        assert b == pytest.approx(3.0, rel=0.1)


def window_log_distances(n=1000, beta=3.0):
    """|log delta| over the default log-correction window of a graded mesh."""
    grid = graded_mesh(n, beta)
    return np.abs(np.log(grid.delta[grid.boundary_window(_EXCLUDE, _LOG_FIT_CAP)]))


def sum_of_squares(t, y, fit):
    k, a, b = fit[:3]  # curve_fit_offset also returns its R^2
    return float(np.sum((y - k * np.log(a + b * t)) ** 2))


class TestOffsetAwareFit:
    @settings(max_examples=20, deadline=None)
    @given(la=st.floats(-3.0, 3.0), lb=st.floats(-3.0, 3.0), k=st.floats(0.05, 10.0))
    def test_no_worse_than_curve_fit_on_exact_profiles(self, la, lb, k):
        t = window_log_distances()
        y = k * np.log(np.exp(la) + np.exp(lb) * t)
        ours = sum_of_squares(t, y, _offset_aware_fit(t, y))
        ref = sum_of_squares(t, y, curve_fit_offset(t, y, 1.0))
        # exact profiles put both sums at rounding level; allow residuals of 4 ulps of y
        rounding = t.size * (4.0 * np.finfo(float).eps * np.max(np.abs(y))) ** 2
        assert ours <= ref * (1.0 + 1e-9) + rounding

    @pytest.mark.parametrize("profile", [
        lambda t: -np.log(2.0 + 3.0 * t),           # decreasing: k = 0, log a undefined
        lambda t: 5.0 + 1e-6 * np.log(1.0 + t),     # k = 1e-6 needs log a = 5e6
    ], ids=["decreasing", "tiny-slope"])
    def test_offsets_outside_double_range_fall_back(self, profile):
        t = window_log_distances()
        y = profile(t)
        assert _offset_aware_fit(t, y) == (0.0, float(np.exp(np.mean(y))), 0.0)

    def test_constant_t_falls_back(self):
        # every z_c is constant, so no c lets k grow from 0
        y = np.random.default_rng(3).normal(size=12)
        assert _offset_aware_fit(np.full(12, 3.0), y) == (0.0, float(np.exp(np.mean(y))), 0.0)

    def test_steep_profile_fits_on_the_box_edge(self):
        t = window_log_distances()
        y = 20.0 * np.log(2.0 + 3.0 * t)
        fit = _offset_aware_fit(t, y)
        assert fit[0] == 10.0
        ref = curve_fit_offset(t, y, 0.7)
        assert sum_of_squares(t, y, fit) <= sum_of_squares(t, y, ref) * (1.0 + 1e-9)

    @pytest.mark.parametrize("la, lb, k", [
        (np.log(2.0), np.log(3.0), 1.5),  # log(a/b) = -0.4
        (15.0, -15.0, 2.0),               # log(a/b) = 30
        (-14.0, 15.0, 1.5),               # log(a/b) = -29
    ], ids=["interior", "widen-up", "widen-down"])
    def test_scan_gives_the_full_box_result(self, la, lb, k):
        t = window_log_distances()
        y = k * np.log(np.exp(la) + np.exp(lb) * t)
        fit = _offset_aware_fit(t, y)
        rounding = t.size * (4.0 * np.finfo(float).eps * np.max(np.abs(y))) ** 2
        assert sum_of_squares(t, y, fit) <= rounding


class TestFitReport:
    def test_noncritical_exact(self):
        grid = graded_mesh(1000, 3.0)
        pred = predict_mu(0.2, 1.0, 0.5)  # mu = 0.8
        rep = fit_report(grid.delta ** 0.8, grid, pred)
        assert rep.mu_hat == pytest.approx(0.8, abs=1e-10)
        assert rep.log_exp_hat is None

    def test_critical_constructed_profile(self):
        grid = graded_mesh(4000, 3.0)
        pred = predict_mu(0.25, 1.0, 0.5)  # critical, log exponent 2
        t = np.abs(np.log(grid.delta))
        u = grid.delta * (1.0 + t) ** 2
        rep = fit_report(u, grid, pred)
        assert rep.log_exp_hat == pytest.approx(2.0, abs=0.1)
        assert rep.mu_hat == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("profile, mu_tol", [
        (lambda d, t: d * np.exp(5.0) * (1.0 + t) ** 1e-6, 1e-3),  # no real log factor
        (lambda d, t: d / (2.0 + 3.0 * t), None),                  # a decaying factor
    ], ids=["flat", "decaying"])
    def test_degenerate_log_factor_reports_none(self, profile, mu_tol):
        grid = graded_mesh(4000, 3.0)
        u = profile(grid.delta, np.abs(np.log(grid.delta)))
        rep = fit_report(u, grid, predict_mu(0.25, 1.0, 0.5, force_critical=True))
        assert rep.log_exp_hat == 0.0
        # nothing is divided out: mu_hat is the plain power fit on the critical window
        mask = fit_window(grid, critical=True)
        assert rep.mu_hat == _least_squares(np.log(grid.delta[mask]), np.log(u[mask]))[0]
        if mu_tol is not None:
            assert abs(rep.mu_hat - 1.0) < mu_tol
