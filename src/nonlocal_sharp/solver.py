"""Semilinear fixed-point solver u = G[u^p] by certified Picard iteration.

The map T(u) = G[u^p] is monotone and p-homogeneous, so any positive u
certifies itself: with r = T(u)/u entrywise, a u is a subsolution and b u
a supersolution for a = (min r)^{1/(1-p)} and b = (max r)^{1/(1-p)}, and
the unique positive fixed point lies in [a u, b u].  One Picard sequence
from the torsion function G[1] contracts in Hilbert's projective metric
(Birkhoff-Bushell), so b/a - 1 shrinks geometrically; it is the reported
certificate.  Each iterate is centred in its own enclosure: with
m = sqrt(a b), the sequence carries m u, enclosed by (a/m, b/m), and
steps to T(m u) = m^p T(u).  Scaling leaves the gap b/a as it is, but an
uncentred sequence corrects the log of its scale only by the factor p per
step, and the residual sees that error; a centred m u lies within
sqrt(b/a) of the fixed point in every entry.  Since min r = a^{1-p} and
max r = b^{1-p}, the next enclosure [a' T(u), b' T(u)] lies inside
[a u, b u] exactly when a' >= a^p and b' <= b^p, so the two numbers
(a, b) carry the whole certificate; a step may miss either bound by the
relative roundoff _NEST_RTOL.  The torsion and every iterate are mirror-even,
so the iteration runs on left halves, by `apply_sector`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import ExponentPrediction, _check_p
from .grids import Grid, InsufficientWindowError
from .operators import Operator, _mirror, apply_sector


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class BracketError(RuntimeError):
    """The sub/supersolution certificate is inconsistent with a monotone map."""


_MAX_ITER = 1000  # Picard iterations before ConvergenceError
_NEST_RTOL = 1e-12  # relative roundoff a nested enclosure step may show


def _check_tol(tol: float) -> None:
    """The one range of a tolerance, 0 < tol < inf; NaN fails both comparisons."""
    if not 0.0 < tol < np.inf:
        raise ValueError("tolerance must be positive and finite")


@dataclass(frozen=True)
class SolverConfig:
    p: float
    tol: float = 1e-10

    def __post_init__(self):
        _check_p(self.p)
        _check_tol(self.tol)


@dataclass(frozen=True)
class SemilinearSolution:
    u: np.ndarray
    residual: float       # sup |u - T(u)| / sup u
    iterations: int
    bracket_gap: float    # b/a - 1 for the enclosure [a u, b u] of the fixed point


def picard_map(op: Operator, p: float, u: np.ndarray) -> np.ndarray:
    """T(u) = G[u^p] on left halves of mirror-even vectors; monotone, p-homogeneous."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0):
        raise ValueError("fixed-point map defined for nonnegative inputs")
    return apply_sector(op, u ** p)


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
    """Picard iteration from the torsion u_0 = G[1], each iterate centred.

    At u_k it forms the enclosure (a_k', b_k') of `enclosure`, sets
    m = sqrt(a_k' b_k') and carries (a_k, b_k) = (a_k'/m, b_k'/m), the
    enclosure of m u_k; the next iterate is u_{k+1} = m^p T(u_k), which is
    T(m u_k) by p-homogeneity.  Stops at the first u_k with
    b_k'/a_k' - 1 <= tol and sup |T(u_k) - u_k| / sup u_k <= tol, and
    returns that u_k.  Successive enclosures are nested in exact
    arithmetic, that is a_{k+1}' >= a_k^p and b_{k+1}' <= b_k^p; a step
    that misses either by more than the relative roundoff _NEST_RTOL raises
    BracketError.  The iterates are left halves, and the u returned is whole.
    """
    p, tol = config.p, config.tol
    u = apply_sector(op, np.ones(op.grid.n // 2))
    a, b = 0.0, np.inf  # no enclosure yet: the first step is nested in anything
    residual = np.inf
    for iterations in range(1, _MAX_ITER + 1):
        tu = picard_map(op, p, u)
        a_next, b_next = enclosure(u, tu, p)
        if a_next < a ** p * (1.0 - _NEST_RTOL) or b_next > b ** p * (1.0 + _NEST_RTOL):
            raise BracketError("enclosures not nested: operator assembly is inconsistent")
        gap = b_next / a_next - 1.0
        residual = float(np.max(np.abs(tu - u))) / float(np.max(u))
        if gap <= tol and residual <= tol:
            return SemilinearSolution(u=_mirror(u), residual=residual,
                                      iterations=iterations, bracket_gap=gap)
        m = np.sqrt(a_next * b_next)
        a, b = a_next / m, b_next / m
        tu *= m ** p  # in place: T(u) is a new array, and m^p T(u) = T(m u)
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


def harnack_window(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks (boundary window, interior ball) the Harnack report reads.

    The window is delta <= 0.1 without the nodes nearest each endpoint; the
    ball is B_0.1(1/2).  Raises InsufficientWindowError when either holds
    no node, so a caller can reject a mesh before it solves on it.
    """
    mask = grid.boundary_window(_HARNACK_EXCLUDE, _HARNACK_DELTA_MAX)
    ball = np.abs(grid.nodes - _BALL_CENTRE) <= _BALL_RADIUS
    if not ball.any():
        raise InsufficientWindowError(
            f"no node in the interior ball |x - {_BALL_CENTRE}| <= {_BALL_RADIUS}")
    return mask, ball


def harnack_report(u: np.ndarray, grid: Grid, prediction: ExponentPrediction) -> HarnackReport:
    """Two-sided comparability of u with the predicted boundary profile.

    global: sup and inf of u / w over the boundary window of
    `harnack_window`, with w the profile delta^mu (or its logarithmic
    refinement in the critical regime); local: sup/inf of u over its
    interior ball.  Raises InsufficientWindowError as `harnack_window` does.
    """
    u = np.asarray(u, dtype=float)
    mask, ball = harnack_window(grid)
    ratios = u[mask] / prediction.profile(grid.delta[mask])
    local = float(np.max(u[ball]) / np.min(u[ball]))
    return HarnackReport(global_ratio=float(np.max(ratios)) / float(np.min(ratios)),
                         local_ratio=local)
