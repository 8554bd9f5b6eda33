"""Green-kernel backends and empirical two-sided bound checks.

The synthetic backend takes the matching two-sided envelope

    G(x, y) = |x-y|^{2s-N} (delta(x)^gamma / |x-y|^gamma ^ 1)
                            (delta(y)^gamma / |x-y|^gamma ^ 1)

as the kernel itself, with constants 1 and the eigenfunction profile
replaced by delta^gamma.  All boundary-behaviour theory consumes only the
envelope bounds, so this one backend probes every (s, gamma) regime:
gamma = s (restricted), gamma = s - 1/2 (censored-like), gamma = 1
(spectral).  The spectral backend never evaluates a pointwise kernel; it is
realized as a matrix power in the operators module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import boundary_distance


@dataclass(frozen=True)
class ProblemParams:
    """The operator's parameters (s, gamma), validated once for every caller.

    The nonlinearity power p is no operator parameter: `predict_mu` and
    `SolverConfig`, which read it, check it themselves.
    """

    s: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.s <= 1.0:
            raise ValueError("fractional order s must lie in (0, 1]")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("boundary exponent gamma must lie in (0, 1]")


class DiagonalSingularityError(ValueError):
    """Pointwise evaluation requested on the diagonal x = y."""


@dataclass(frozen=True)
class GreenKernel:
    """Evaluatable symmetric synthetic kernel."""

    params: ProblemParams

    def __call__(self, x, y):
        """|x-y|^{2s-1} min(delta(x)^g/|x-y|^g, 1) min(delta(y)^g/|x-y|^g, 1).

        Vectorized over x, y; the diagonal x = y is singular and must be
        handled by cell-integrated quadrature instead.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.abs(x - y)
        if np.any(r == 0.0):
            raise DiagonalSingularityError("kernel is singular on the diagonal x = y")
        val = _envelope(r, boundary_distance(x), boundary_distance(y), self.params)
        return float(val) if val.ndim == 0 else val


def synthetic_k5(params: ProblemParams) -> GreenKernel:
    """Envelope-exact kernel backend on the unit interval; requires s < 1/2."""
    if not params.s < 0.5:
        raise ValueError("synthetic backend requires s < 1/2 (integrable 1-D singularity)")
    return GreenKernel(params)


def _envelope(r, dx, dy, params: ProblemParams, out=None, scratch=None):
    """r^{2s-1} min(dx^gamma/r^gamma, 1) min(dy^gamma/r^gamma, 1).

    The one place the two-sided envelope is written out: the synthetic
    kernel, the folded assembly and the bound checks all evaluate it here.
    r has the shape of the result.  Called with r alone, it returns a new
    array and leaves r as it was.  The assembly also passes `out` and
    `scratch`, float arrays of r's shape, and a float r that may be
    overwritten (it ends up holding r^{2s-1}), so no array of that shape
    is allocated.  Both ways run the same operations in the same order and
    give the same bits.
    """
    if out is None:
        r = np.array(r, dtype=float)
        out, scratch = np.empty_like(r), np.empty_like(r)
    g = params.gamma
    rg = scratch
    np.copyto(rg, r)
    rg **= g  # the in-place operator keeps numpy's fast paths of `**` (sqrt for 1/2)
    r **= 2.0 * params.s - 1.0
    np.divide(dx ** g, rg, out=out)
    np.minimum(out, 1.0, out=out)
    np.multiply(r, out, out=out)
    np.divide(dy ** g, rg, out=rg)
    np.minimum(rg, 1.0, out=rg)
    return np.multiply(out, rg, out=out)


@dataclass(frozen=True)
class BoundReport:
    """Empirical envelope constants from sampled kernel values.

    c1_hat -- max of G |x-y|^{N-2s} / (min-factor product), the upper form
    c0_hat -- min of G / (phi(x) phi(y)), the lower form
    violations -- samples where the lower bound with constant 1 fails
    n_samples -- number of (x, y) pairs inspected
    """

    c0_hat: float
    c1_hat: float
    violations: int
    n_samples: int


def check_kernel_bounds(kernel_or_op, n_samples: int = 10_000, seed: int = 0) -> BoundReport:
    """Sample kernel values and report envelope constants.

    Accepts either a pointwise GreenKernel (pairs drawn uniformly in the
    square) or an assembled operator, whose entries divided by the
    quadrature weights estimate kernel values at node pairs.  Operator
    entries come from batched applies on the sampled unit columns, about
    as many entries per batch as a row block of the assembly, so no
    backend needs to store its matrix and no batch grows with n squared.
    """
    if n_samples < 100:
        raise ValueError("need at least 100 sample pairs")
    rng = np.random.default_rng(seed)

    if not isinstance(kernel_or_op, GreenKernel):  # assembled operator
        from .operators import _BLOCK_ENTRIES, apply

        op = kernel_or_op
        params = op.params
        n = op.grid.n
        i = rng.integers(0, n, size=2 * n_samples)
        j = rng.integers(0, n, size=2 * n_samples)
        keep = i != j
        i, j = i[keep][:n_samples], j[keep][:n_samples]
        x, y = op.grid.nodes[i], op.grid.nodes[j]
        dx, dy = op.grid.delta[i], op.grid.delta[j]
        cols, col_of = np.unique(j, return_inverse=True)
        g = np.empty(i.size)
        batch = max(1, _BLOCK_ENTRIES // n)
        for c0 in range(0, cols.size, batch):
            c = cols[c0:c0 + batch]
            unit = np.zeros((n, c.size))
            unit[c, np.arange(c.size)] = 1.0
            hit = np.flatnonzero((col_of >= c0) & (col_of < c0 + batch))
            g[hit] = apply(op, unit)[i[hit], col_of[hit] - c0]
        # entries are w_j times a symmetric kernel-value matrix
        g /= op.grid.weights[j]
    else:
        kernel = kernel_or_op
        params = kernel.params
        x = rng.uniform(0.0, 1.0, size=n_samples)
        y = rng.uniform(0.0, 1.0, size=n_samples)
        coincide = x == y
        y[coincide] = np.nextafter(y[coincide], 1.0)
        dx, dy = boundary_distance(x), boundary_distance(y)
        g = np.asarray(kernel(x, y))

    envelope = _envelope(np.abs(x - y), dx, dy, params)
    phi_prod = dx ** params.gamma * dy ** params.gamma

    c1_hat = float(np.max(g / envelope))
    ratios_lower = g / phi_prod
    c0_hat = float(np.min(ratios_lower))
    violations = int(np.count_nonzero(g < phi_prod * (1.0 - 1e-12)))
    return BoundReport(c0_hat=c0_hat, c1_hat=c1_hat,
                       violations=violations, n_samples=int(x.size))
