"""Windowed log-log regression of boundary decay exponents.

Grid functions that behave like delta^mu (possibly times a power of
|log delta|) near the boundary are measured by plain least squares on
log-transformed node values: a closed-form centred regression, numpy
only, no LAPACK.  Inputs are smooth deterministic grid functions, so no
robust loss is needed.  The nodes come from `fit_window`, the one rule
every fit and the CLI's pre-check use: `Grid.boundary_window`
excludes the quadrature-polluted nodes nearest each endpoint and caps delta
to stay in the asymptotic regime; both halves of the grid are pooled.
Every fit returns one type, `FitReport`: `fit_power` fills mu_hat and r2,
and `fit_report` of a critical prediction also the exponent k of the log
factor (a + b |log delta|)^k, or k = 0 with nothing divided out when it
detects no correction.  `_offset_aware_fit` finds (k, a, b) by one scan
of the log(a/b) box, then golden section around the best scan point.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .grids import Grid, InsufficientWindowError
from .exponents import ExponentPrediction

_EXCLUDE = 5        # nodes left out next to each endpoint
_MIN_POINTS = 10    # fewest window nodes a fit accepts
_LOG_FIT_CAP = 0.05  # the critical fits use the full range: the offset fit needs the crossover


class FitReport(NamedTuple):
    """Measured exponents; compare them with an `ExponentPrediction`.

    mu_hat, r2 -- slope and R^2 of the log-log power fit
    log_exp_hat -- critical fits only: the exponent k of the factor
        (a + b |log delta|)^k divided out first
    """

    mu_hat: float
    r2: float
    log_exp_hat: float | None = None


def _least_squares(x: np.ndarray, y: np.ndarray):
    """(slope, R^2) of the least-squares line y ~ x: every reported slope comes from here.

    slope = sum (x - x_mean)(y - y_mean) / sum (x - x_mean)^2; ValueError when every x is equal.
    """
    if x.min() == x.max():  # np.mean of equal values need not equal them: test x itself
        raise ValueError("line fit needs two distinct x values; every x is the same")
    xc, y_mean = x - np.mean(x), np.mean(y)
    yc = y - y_mean
    slope = float(xc @ yc) / float(xc @ xc)
    fitted = y_mean + slope * xc
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum(yc ** 2))
    if ss_tot <= 1e-300:
        # constant data: the fit is exact by definition
        return slope, 1.0
    return slope, max(0.0, 1.0 - ss_res / ss_tot)


def _positive_values(u: np.ndarray, mask: np.ndarray) -> np.ndarray:
    uw = np.asarray(u, dtype=float)[mask]
    if np.any(uw <= 0.0):
        raise ValueError("nonpositive values in fit window")
    return uw


def fit_window(grid: Grid, critical: bool) -> np.ndarray:
    """Boolean mask of the nodes a fit of this regime measures on.

    Non-critical fits take the adaptive cap.  The critical fits take delta
    <= 0.05, since the offset fit needs the crossover, and the window must
    reach delta <= 1e-3, otherwise the log factor is not resolved at all.
    Raises InsufficientWindowError when the grid cannot fill the window,
    so a caller can reject a mesh before it solves on it.
    """
    if not critical:
        return grid.boundary_window(_EXCLUDE, None, _MIN_POINTS)
    mask = grid.boundary_window(_EXCLUDE, _LOG_FIT_CAP, _MIN_POINTS)
    if grid.delta[mask].min() > 1e-3:
        raise InsufficientWindowError(
            "log-correction fit needs nodes with delta <= 1e-3; refine the mesh")
    return mask


def fit_power(u: np.ndarray, grid: Grid) -> FitReport:
    """Least-squares slope of log u against log delta over the adaptive window."""
    mask = fit_window(grid, critical=False)
    slope, r2 = _least_squares(np.log(grid.delta[mask]), np.log(_positive_values(u, mask)))
    return FitReport(mu_hat=slope, r2=r2)


_LOG_C_BOX = (-60.0, 60.0)  # log(a/b) for log a, log b in [-30, 30]
_LOG_C_STEP = 0.5           # spacing of the scan over log c
_GOLDEN_STEPS = 70          # shrink the scan bracket by 0.618^70 ~ 2e-15
_K_MAX = 10.0               # the slope box is [0, _K_MAX]
_LOG_AB_MAX = 700.0         # |log a|, |log b| whose exp is a finite positive double
_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _offset_aware_fit(t: np.ndarray, y: np.ndarray):
    """Least-squares fit of y = k log(a + b t) with a, b > 0: (k, a, b).

    A variable projection (Golub & Pereyra 1973): with c = a/b,
    y = k z_c + k log a for z_c = log(1 + t/c), a 1-D linear regression for
    each fixed c, whose slope is clipped to [0, _K_MAX]: the sum of squares
    is convex in k, so that is the bounded optimum.  The profiled sum of
    squares is scanned once over all of _LOG_C_BOX, then refined by golden
    section around the best scan point.  When a or b is no finite positive
    double, (0, exp(mean y), 0) is returned, no detectable correction: at
    k = 0 (y does not grow with t, constant y included) log a is undefined,
    and a tiny k needs a huge a to carry the level of y.
    """
    y_mean = float(np.mean(y))
    yc = y - y_mean
    ss_tot = float(yc @ yc)

    def profile(log_c):
        # (sum of squares, k, mean z_c) of the regression for this c
        z = np.log1p(t * np.exp(-log_c))
        z_mean = float(np.mean(z))
        zc = z - z_mean
        zz = float(zc @ zc)
        if not zz > 0.0:  # constant z_c: only the mean fits
            return ss_tot, 0.0, z_mean
        k = min(max(float(zc @ yc) / zz, 0.0), _K_MAX)
        r = yc - k * zc  # residuals directly: ss_tot - k (zc . yc) cancels
        return float(r @ r), k, z_mean

    scan = np.arange(_LOG_C_BOX[0], _LOG_C_BOX[1] + 0.5 * _LOG_C_STEP, _LOG_C_STEP)
    ss = [profile(x)[0] for x in scan]
    best = int(np.argmin(ss))
    lo, hi = scan[max(best - 1, 0)], scan[min(best + 1, scan.size - 1)]
    x1, x2 = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    f1, f2 = profile(x1)[0], profile(x2)[0]
    for _ in range(_GOLDEN_STEPS):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = profile(x1)[0]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = profile(x2)[0]
    log_c = min((ss[best], scan[best]), (f1, x1), (f2, x2))[1]
    _, k, z_mean = profile(log_c)
    log_a = (y_mean - k * z_mean) / k if k > 0.0 else np.inf
    log_b = log_a - log_c
    if not max(abs(log_a), abs(log_b)) <= _LOG_AB_MAX:
        return 0.0, float(np.exp(y_mean)), 0.0
    return k, float(np.exp(log_a)), float(np.exp(log_b))


def fit_report(u: np.ndarray, grid: Grid, prediction: ExponentPrediction) -> FitReport:
    """Measure the exponents of a grid function in the prediction's regime.

    In the critical regime, u ~ delta^mu (a + b |log delta|)^k: the
    logarithmic factor is fitted first, as log(u / delta^mu) = k log(a + b t)
    with t = |log delta| (`_offset_aware_fit`), and divided out before the
    leading power is measured; both critical fits measure on one window.
    The offsets resolve k through the crossover from the constant to the
    |log delta|^k regime, which converged solutions do not get past at
    feasible resolutions, so a plain regression against log |log delta|
    would not reach k.  A fit with no detectable correction reports k = 0
    and divides out nothing.
    """
    if prediction.regime != "critical":
        return fit_power(u, grid)
    mask = fit_window(grid, critical=True)
    d, uw = grid.delta[mask], _positive_values(u, mask)
    t = np.abs(np.log(d))
    k, a, b = _offset_aware_fit(t, np.log(uw / d ** prediction.mu))
    slope, r2 = _least_squares(np.log(d), np.log(uw / (a + b * t) ** k))
    return FitReport(mu_hat=slope, r2=r2, log_exp_hat=k)
