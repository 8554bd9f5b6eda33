"""Semilinear fixed-point solver u = G[u^p] by certified Picard iteration.

The map T(u) = G[u^p] is monotone and p-homogeneous, so any positive u
certifies itself: with r = T(u)/u entrywise, a u is a subsolution and b u
a supersolution for a = (min r)^{1/(1-p)} and b = (max r)^{1/(1-p)}, and
the unique positive fixed point lies in [a u, b u].  One Picard sequence
from the torsion function G[1] contracts in Hilbert's projective metric
(Birkhoff-Bushell), so b/a - 1 shrinks geometrically; it is the reported
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import ExponentPrediction
from .grids import Grid, InsufficientWindowError
from .operators import Operator, apply


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class BracketError(RuntimeError):
    """The sub/supersolution certificate is inconsistent with a monotone map."""


_MAX_ITER = 1000  # Picard iterations before ConvergenceError


@dataclass(frozen=True)
class SolverConfig:
    p: float
    tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("solver handles 0 < p < 1; p = 1 is the eigenvalue problem")
        if not 0.0 < self.tol < np.inf:  # NaN fails both comparisons
            raise ValueError("tolerance must be positive and finite")


@dataclass(frozen=True)
class SemilinearSolution:
    u: np.ndarray
    residual: float       # sup |u - T(u)| / sup u
    iterations: int
    bracket_gap: float    # b/a - 1 for the enclosure [a u, b u] of the fixed point


def picard_map(op: Operator, p: float, u: np.ndarray) -> np.ndarray:
    """T(u) = G[u^p]; monotone and p-homogeneous on nonnegative inputs."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0):
        raise ValueError("fixed-point map defined for nonnegative inputs")
    return apply(op, u ** p)


def enclosure(u: np.ndarray, tu: np.ndarray, p: float) -> tuple[float, float]:
    """Scalars (a, b) with a u <= u* <= b u for the fixed point u* of T.

    tu = T(u).  With r = tu / u, T(c u) = c^p r u, so c u is a subsolution
    for c^{1-p} <= min r and a supersolution for c^{1-p} >= max r.
    """
    r = tu / u
    r_min = float(np.min(r))
    if not r_min > 0.0:
        raise BracketError("min T(u)/u <= 0: no positive multiple of u is a subsolution")
    e = 1.0 / (1.0 - p)
    return r_min ** e, float(np.max(r)) ** e


def picard_solve(op: Operator, config: SolverConfig) -> SemilinearSolution:
    """Picard iteration u_{k+1} = T(u_k) from the torsion u_0 = G[1].

    Stops at the first u_k with b/a - 1 <= tol and
    sup |T(u_k) - u_k| / sup u_k <= tol, and returns that u_k.  Successive
    enclosures [a_k u_k, b_k u_k] are nested in exact arithmetic; a step
    that widens one by more than roundoff raises BracketError.
    """
    p, tol = config.p, config.tol
    u = apply(op, np.ones(op.grid.n))
    lo = hi = None
    residual = np.inf
    for iterations in range(1, _MAX_ITER + 1):
        tu = picard_map(op, p, u)
        a, b = enclosure(u, tu, p)
        new_lo, new_hi = a * u, b * u
        if hi is not None:
            slack = 1e-12 * float(np.max(hi))
            if np.any(new_lo < lo - slack) or np.any(new_hi > hi + slack):
                raise BracketError("enclosures not nested: operator assembly is inconsistent")
        lo, hi = new_lo, new_hi
        gap = b / a - 1.0
        residual = float(np.max(np.abs(tu - u))) / float(np.max(u))
        if gap <= tol and residual <= tol:
            return SemilinearSolution(u=u, residual=residual,
                                      iterations=iterations, bracket_gap=gap)
        u = tu
    raise ConvergenceError(
        f"Picard iteration did not reach tol={tol} in {_MAX_ITER} iterations",
        residual)


_HARNACK_EXCLUDE = 3      # nodes left out next to each endpoint
_HARNACK_DELTA_MAX = 0.1  # boundary layer of the global ratio
_BALL_CENTRE = 0.5        # interior ball of the local ratio
_BALL_RADIUS = 0.1


@dataclass(frozen=True)
class HarnackReport:
    global_ratio: float     # (sup u/w) / (inf u/w) over the boundary window
    local_ratio: float      # sup u / inf u over the interior ball


def harnack_report(u: np.ndarray, grid: Grid, prediction: ExponentPrediction) -> HarnackReport:
    """Two-sided comparability of u with the predicted boundary profile.

    global: sup and inf of u / w over the boundary window delta <= 0.1, with
    w the profile delta^mu (or its logarithmic refinement in the critical
    regime); local: sup/inf of u over the interior ball B_0.1(1/2).
    Raises InsufficientWindowError when the window or the ball holds no node.
    """
    u = np.asarray(u, dtype=float)
    mask = grid.boundary_window(_HARNACK_EXCLUDE, _HARNACK_DELTA_MAX)
    profile = prediction.profile(grid.delta[mask])
    ratios = u[mask] / profile

    ball = np.abs(grid.nodes - _BALL_CENTRE) <= _BALL_RADIUS
    if not ball.any():
        raise InsufficientWindowError(
            f"no node in the interior ball |x - {_BALL_CENTRE}| <= {_BALL_RADIUS}")
    local = float(np.max(u[ball]) / np.min(u[ball]))
    return HarnackReport(global_ratio=float(np.max(ratios)) / float(np.min(ratios)),
                         local_ratio=local)
