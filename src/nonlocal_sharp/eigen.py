"""Leading eigenpairs of the discretized compact inverse operator.

The operator A is self-adjoint in the quadrature-weighted inner product
<u, v>_w = sum_i w_i u_i v_i, the discrete L^2 pairing on the grid, so
S = W^{1/2} A W^{-1/2} is symmetric.  Its largest eigenpairs come from
ARPACK (scipy.sparse.linalg.eigsh) run on S as a matrix-free linear
operator built on `apply`, the same for both backends, and map back to A
by W^{-1/2}; each pair keeps the honest residual ||A phi - mu phi||_w of
A itself.  `leading_eigenpairs` imports scipy.sparse.linalg when called,
so importing this module loads no scipy module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid
from .operators import Operator, apply
from .solver import ConvergenceError, _check_tol

_MAX_ITER = 10_000  # ARPACK restarts before ConvergenceError


@dataclass(frozen=True)
class EigenPair:
    index: int          # 1-based
    mu: float           # eigenvalue of the inverse operator; lambda = 1/mu
    phi: np.ndarray     # node values, unit norm in the quadrature L^2
    residual: float     # ||A phi - mu phi||_w


def check_eigen_request(n: int, n_eigs: int, tol: float) -> None:
    """Raise ValueError unless `leading_eigenpairs` accepts n_eigs and tol on n nodes.

    Cheap, so a caller can check a request before it builds the operator.
    """
    if not 1 <= n_eigs <= 20:
        raise ValueError("n_eigs must lie in 1..20")
    _check_tol(tol)
    if n_eigs >= n:
        raise ValueError("n_eigs must be smaller than the number of nodes")


def leading_eigenpairs(op: Operator, n_eigs: int = 1,
                       tol: float = 1e-10) -> list[EigenPair]:
    """Largest n_eigs eigenpairs, ordered by decreasing eigenvalue.

    Every pair must reach ||A phi - mu phi||_w <= tol * mu_1, whatever
    ARPACK's own stopping test reported.  The start vector is a seeded
    random vector: a symmetric start is orthogonal to the odd modes.
    """
    n = op.grid.n
    check_eigen_request(n, n_eigs, tol)
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    w = op.grid.weights
    sw = np.sqrt(w)
    S = LinearOperator((n, n), matvec=lambda y: sw * apply(op, np.ravel(y) / sw),
                       dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        mus, Y = eigsh(S, k=n_eigs, which="LA", v0=v0, tol=tol, maxiter=_MAX_ITER)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(f"ARPACK did not converge: {exc}", np.inf) from exc
    order = np.argsort(mus)[::-1]
    mu_1 = float(mus[order[0]])
    pairs = []
    for k, j in enumerate(order):
        mu = float(mus[j])
        phi = _fix_sign(Y[:, j] / sw, w)
        r = apply(op, phi) - mu * phi
        resid = float(np.sqrt(np.sum(w * r * r)))
        if resid > tol * mu_1:
            raise ConvergenceError(
                f"eigenpair {k + 1} residual {resid:.3e} exceeds tol * mu_1", resid)
        pairs.append(EigenPair(index=k + 1, mu=mu, phi=phi, residual=resid))
    return pairs


def _fix_sign(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    mean = float(np.sum(w * v))
    if abs(mean) > 1e-8:
        return v if mean >= 0 else -v
    return v if v[np.argmax(np.abs(v))] >= 0 else -v


_EXCLUDE = 3      # nodes left out next to each endpoint
_DELTA_MAX = 0.2  # boundary layer of the ratios


@dataclass(frozen=True)
class BoundaryRatio:
    index: int
    sup_ratio: float            # sup |phi| / delta^gamma over the window
    inf_ratio: float | None     # inf phi / delta^gamma, first pair only


def ratio_window(grid: Grid) -> np.ndarray:
    """Boolean mask of the nodes the boundary ratios are measured on.

    The window is delta in (0, 0.2], excluding the nodes closest to each
    endpoint where the diagonal quadrature pollutes node values.  Raises
    InsufficientWindowError when it holds no node, so a caller can reject
    a mesh before it builds the operator.
    """
    return grid.boundary_window(_EXCLUDE, _DELTA_MAX)


def eigenfunction_boundary_report(pairs: list[EigenPair], grid: Grid,
                                  gamma: float) -> list[BoundaryRatio]:
    """sup |phi_n|/delta^gamma (and inf phi_1/delta^gamma) over `ratio_window`."""
    mask = ratio_window(grid)
    prof = grid.delta[mask] ** gamma
    out = []
    for pair in pairs:
        vals = pair.phi[mask]
        sup_ratio = float(np.max(np.abs(vals) / prof))
        inf_ratio = float(np.min(vals / prof)) if pair.index == 1 else None
        out.append(BoundaryRatio(index=pair.index, sup_ratio=sup_ratio, inf_ratio=inf_ratio))
    return out
