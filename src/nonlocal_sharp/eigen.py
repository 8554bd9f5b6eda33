"""Leading eigenpairs of the discretized compact inverse operator.

The operator A is self-adjoint in the quadrature-weighted inner product
<u, v>_w = sum_i w_i u_i v_i, the discrete L^2 pairing on the grid, and
commutes with the flip x -> 1 - x.  On each of its mirror sectors
(`apply_sector`, n/2 unknowns), ARPACK (scipy.sparse.linalg.eigsh) runs on
S = W^{1/2} A W^{-1/2}, symmetric for W = 2 diag(w_L), the pairing of the
mirrored vectors, matrix-free and the same for both backends; the sectors'
pairs are merged by eigenvalue, each with the honest residual
||A phi - mu phi||_w.  `leading_eigenpairs` imports scipy.sparse.linalg
when called, so importing this module loads no scipy module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid
from .operators import Operator, _mirror, apply_sector
from .solver import ConvergenceError, SolverConfig, _check_tol

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
    if n_eigs > n - 2:
        raise ValueError("n_eigs must be at most n - 2, the pairs two mirror sectors hold")


def leading_eigenpairs(op: Operator, n_eigs: int = 1,
                       tol: float = SolverConfig.tol) -> list[EigenPair]:
    """Largest n_eigs eigenpairs, ordered by decreasing eigenvalue.

    Every pair must reach ||A phi - mu phi||_w <= tol * mu_1, whatever
    ARPACK's own stopping test reported.  A is positivity improving, so its
    ground pair is simple and mirror-even (Krein-Rutman): the odd sector, and
    a folded operator's odd block, run only for n_eigs >= 2, for at most
    n_eigs - 1 pairs.  ARPACK finds at most n/2 - 1 pairs of a sector, so
    n_eigs <= n - 2.  Each sector starts from a seeded random vector; each
    phi's left half has a nonnegative sum.
    """
    n = op.grid.n
    check_eigen_request(n, n_eigs, tol)
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    half = n // 2
    w = op.grid.weights[:half]
    sw = np.sqrt(2.0 * w)  # ||[v, +-v reversed]||_w = ||sw v||, sqrt(2) times the half's norm
    v0 = np.random.default_rng(0).standard_normal(half)
    found = []
    for odd in (False, True)[:min(n_eigs, 2)]:
        S = LinearOperator((half, half), dtype=float,
                           matvec=lambda y, odd=odd: sw * apply_sector(op, np.ravel(y) / sw, odd))
        try:
            mus, Y = eigsh(S, min(n_eigs - odd, half - 1), which="LA", v0=v0, tol=tol,
                           maxiter=_MAX_ITER)
        except ArpackNoConvergence as exc:
            raise ConvergenceError(f"ARPACK did not converge: {exc}", np.inf) from exc
        found += [(float(mu), odd, Y[:, j] / sw) for j, mu in enumerate(mus)]
    found = sorted(found, key=lambda pair: -pair[0])[:n_eigs]
    pairs = []
    for k, (mu, odd, phi) in enumerate(found):
        phi = phi if np.sum(w * phi) >= 0.0 else -phi
        resid = float(np.linalg.norm(sw * (apply_sector(op, phi, odd) - mu * phi)))
        if resid > tol * found[0][0]:
            raise ConvergenceError(f"eigenpair {k + 1} residual {resid:.3e} > tol * mu_1", resid)
        pairs.append(EigenPair(index=k + 1, mu=mu, phi=_mirror(phi, odd), residual=resid))
    return pairs


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
