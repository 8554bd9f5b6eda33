"""Windowed log-log regression of boundary decay exponents.

Grid functions that behave like delta^mu (possibly times a power of
|log delta|) near the boundary are measured by plain least squares on
log-transformed node values.  Inputs are smooth deterministic grid
functions, so no robust loss is needed; the window excludes the
quadrature-polluted nodes nearest each endpoint and caps delta to stay in
the asymptotic regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid
from .exponents import ExponentPrediction


class InsufficientWindowError(ValueError):
    """Fewer usable nodes than the window requires."""


@dataclass(frozen=True)
class FitWindow:
    """Node selection for boundary regressions.

    With delta_max = None the cap adapts to the mesh: at most span_decades
    decades above the smallest eligible distance, never beyond 0.05.  On
    strongly graded meshes this keeps the fit in the deep asymptotic range
    where subleading corrections have died out; on uniform meshes it
    reduces to the plain 0.05 cap.
    """

    delta_min: float | None = None   # None: no cut beyond the node exclusion
    delta_max: float | None = None   # None: adaptive cap
    min_points: int = 10
    exclude_nearest: int = 5
    side: str = "both"               # "both" | "left" | "right"
    span_decades: float = 4.0


@dataclass(frozen=True)
class FitResult:
    exponent_hat: float
    intercept: float
    r2: float
    n_points: int
    window: FitWindow
    log_exponent_hat: float | None = None
    # diagnostics of the two log-correction fit forms (see fit_log_correction)
    plain_log_slope: float | None = None
    plain_log_r2: float | None = None
    offset_params: tuple[float, float] | None = None  # (a, b) of (a + b|log d|)^k


def _window_mask(grid: Grid, window: FitWindow) -> np.ndarray:
    d = grid.delta
    mask = np.ones(grid.n, dtype=bool)
    if window.delta_min is not None:
        mask &= d > window.delta_min
    k = window.exclude_nearest
    if k > 0:
        mask[:k] = False
        mask[grid.n - k:] = False
    if window.delta_max is not None:
        mask &= d <= window.delta_max
    else:
        if not np.any(mask):
            return mask
        floor = float(np.min(d[mask]))
        mask &= d <= min(0.05, floor * 10.0 ** window.span_decades)
    if window.side == "left":
        mask[grid.n // 2:] = False
    elif window.side == "right":
        mask[: grid.n // 2] = False
    elif window.side != "both":
        raise ValueError("side must be 'both', 'left' or 'right'")
    return mask


def _least_squares(x: np.ndarray, y: np.ndarray):
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot <= 1e-300:
        # constant data: the fit is exact by definition
        return float(slope), float(intercept), 1.0
    return float(slope), float(intercept), max(0.0, 1.0 - ss_res / ss_tot)


def fit_power(u: np.ndarray, grid: Grid, window: FitWindow | None = None) -> FitResult:
    """Least-squares slope of log u against log delta over the window."""
    window = window or FitWindow()
    mask = _window_mask(grid, window)
    n_points = int(np.count_nonzero(mask))
    if n_points < window.min_points:
        raise InsufficientWindowError(
            f"only {n_points} nodes in window, need {window.min_points}")
    uw = np.asarray(u, dtype=float)[mask]
    if np.any(uw <= 0.0):
        raise ValueError("nonpositive values in fit window")
    slope, intercept, r2 = _least_squares(np.log(grid.delta[mask]), np.log(uw))
    return FitResult(exponent_hat=slope, intercept=intercept, r2=r2,
                     n_points=n_points, window=window)


def fit_log_correction(u: np.ndarray, grid: Grid, gamma: float,
                       window: FitWindow | None = None) -> FitResult:
    """Exponent k of a profile delta^gamma (1 + |log delta|^k).

    Two forms are fitted and both reported.  The plain form regresses
    log(u / delta^gamma) against log |log delta|; its slope only reaches
    the true exponent when |log delta| dominates the crossover scale, which
    converged solutions do not attain at feasible resolutions.  The
    offset-aware form fits log(u / delta^gamma) = k log(a + b |log delta|),
    which resolves the exponent through the crossover; it is returned as
    log_exponent_hat, with the plain slope kept as a diagnostic.

    Requires the window to reach delta <= 1e-3, otherwise the log factor is
    not resolved at all.
    """
    window = window or FitWindow(delta_max=0.05)  # full range: the offset fit uses the crossover
    mask = _window_mask(grid, window)
    n_points = int(np.count_nonzero(mask))
    if n_points < window.min_points:
        raise InsufficientWindowError(
            f"only {n_points} nodes in window, need {window.min_points}")
    d = grid.delta[mask]
    if d.min() > 1e-3:
        raise InsufficientWindowError(
            "log-correction fit needs nodes with delta <= 1e-3; refine the mesh")
    uw = np.asarray(u, dtype=float)[mask]
    if np.any(uw <= 0.0):
        raise ValueError("nonpositive values in fit window")
    t = np.abs(np.log(d))
    y = np.log(uw / d ** gamma)
    plain_slope, intercept, plain_r2 = _least_squares(np.log(t), y)
    if float(np.var(y)) < 1e-20:
        # no detectable correction
        return FitResult(exponent_hat=gamma, intercept=intercept, r2=plain_r2,
                         n_points=n_points, window=window, log_exponent_hat=0.0,
                         plain_log_slope=plain_slope, plain_log_r2=plain_r2,
                         offset_params=(float(np.exp(np.mean(y))), 0.0))
    k, a, b, r2 = _offset_aware_fit(t, y, k0=max(plain_slope, 0.5))
    return FitResult(exponent_hat=gamma, intercept=intercept, r2=r2,
                     n_points=n_points, window=window, log_exponent_hat=k,
                     plain_log_slope=plain_slope, plain_log_r2=plain_r2,
                     offset_params=(a, b))


def _offset_aware_fit(t: np.ndarray, y: np.ndarray, k0: float):
    """Least-squares fit of y = k log(a + b t) with a, b > 0."""
    from scipy.optimize import curve_fit

    def model(t, la, lb, k):
        return k * np.log(np.exp(la) + np.exp(lb) * t)

    try:
        popt, _ = curve_fit(model, t, y, p0=[0.0, 0.0, k0],
                            bounds=([-30.0, -30.0, 0.0], [30.0, 30.0, 10.0]),
                            maxfev=20000)
    except RuntimeError:
        return k0, 1.0, 1.0, 0.0
    fitted = model(t, *popt)
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot <= 1e-300 else max(0.0, 1.0 - ss_res / ss_tot)
    la, lb, k = popt
    return float(k), float(np.exp(la)), float(np.exp(lb)), r2


@dataclass(frozen=True)
class FitReport:
    mu_hat: float
    mu_pred: float
    abs_err: float
    r2: float
    critical: bool
    log_exp_hat: float | None = None
    log_exp_pred: float | None = None


def fit_report(u: np.ndarray, grid: Grid, prediction: ExponentPrediction,
               window: FitWindow | None = None) -> FitReport:
    """Compare a grid function against a closed-form exponent prediction.

    In the critical regime the predicted logarithmic factor is divided out
    before measuring the leading power, and the log exponent is fitted
    separately.
    """
    if prediction.regime != "critical":
        res = fit_power(u, grid, window)
        return FitReport(mu_hat=res.exponent_hat, mu_pred=prediction.mu,
                         abs_err=abs(res.exponent_hat - prediction.mu),
                         r2=res.r2, critical=False)
    log_res = fit_log_correction(u, grid, prediction.mu, window)
    # divide out the calibrated slowly-varying factor, then measure the power
    a, b = log_res.offset_params
    k = log_res.log_exponent_hat
    t = np.abs(np.log(grid.delta))
    correction = (a + b * t) ** k
    power_window = window or FitWindow(delta_max=0.05)
    res = fit_power(np.asarray(u, dtype=float) / correction, grid, power_window)
    return FitReport(mu_hat=res.exponent_hat, mu_pred=prediction.mu,
                     abs_err=abs(res.exponent_hat - prediction.mu),
                     r2=res.r2, critical=True,
                     log_exp_hat=k, log_exp_pred=prediction.log_exponent)
