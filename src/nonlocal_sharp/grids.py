"""Unit-interval geometry and graded meshes.

The computational domain is the unit interval (0, 1).  Meshes are
cell-midpoint collocation grids: nodes sit at cell midpoints, quadrature
weights are the cell widths.  A grading exponent clusters cells towards the
two endpoints so that boundary layers of the form delta^gamma are resolved.
Every grid is built from its left half and mirrored exactly, so the
boundary distance and the cell widths of the two halves are identical.
`Grid.boundary_window` is the one rule that selects the boundary-layer
nodes every boundary estimate is measured on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class InsufficientWindowError(ValueError):
    """Fewer nodes in a boundary window than its estimate requires."""


_SPAN_DECADES = 4.0  # decades the adaptive cap spans above the smallest distance
_CAP_CEILING = 0.05  # the adaptive cap never reaches beyond this distance


def boundary_distance(x):
    """Distance to the boundary of (0, 1): min(x, 1 - x).

    Accepts scalars or arrays; raises ValueError for points outside [0, 1].
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("coordinate outside [0, 1]")
    d = np.minimum(x, 1.0 - x)
    return float(d) if d.ndim == 0 else d


@dataclass(frozen=True)
class Grid:
    """Cell-midpoint grid on (0, 1), the exact mirror image of its left half.

    half_boundaries -- left-half cell boundaries 0 = t_0 < ... < t_{n/2} = 1/2

    Derived once from them:
    boundaries  -- all n + 1 cell boundaries, 1 - t_j on the right half
    nodes       -- strictly increasing cell midpoints, x = 1 - x_left on the
                   right half
    weights     -- cell widths (sum to 1)
    delta       -- boundary distance at each node

    On the right half delta and weights are exact copies of the left half,
    never recomputed from 1 - x, whose rounding near x = 1 is large relative
    to delta; hence weights / 2 <= delta holds exactly for every cell.
    """

    half_boundaries: np.ndarray
    boundaries: np.ndarray = field(init=False)
    nodes: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)
    delta: np.ndarray = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.half_boundaries, dtype=float)
        if t.ndim != 1 or t.size < 2 or t[0] != 0.0 or t[-1] != 0.5:
            raise ValueError("half-mesh boundaries must run from 0 to 1/2")
        left_w = np.diff(t)
        if np.any(left_w <= 0):
            raise ValueError("all cell widths must be positive")
        left_x = 0.5 * (t[:-1] + t[1:])
        nodes = np.concatenate([left_x, 1.0 - left_x[::-1]])
        if not (nodes[0] > 0.0 and nodes[-1] < 1.0 and np.all(np.diff(nodes) > 0)):
            raise ValueError("grading too strong for n: nodes are not strictly "
                             "increasing inside (0, 1) in double precision")
        derived = {
            "half_boundaries": t,
            "boundaries": np.concatenate([t, 1.0 - t[-2::-1]]),
            "nodes": nodes,
            "weights": np.concatenate([left_w, left_w[::-1]]),
            "delta": np.concatenate([left_x, left_x[::-1]]),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def is_uniform(self) -> bool:
        return bool(np.allclose(self.weights, 1.0 / self.n, rtol=1e-12, atol=0))

    def boundary_window(self, exclude: int, delta_max: float | None = None,
                        min_points: int = 1) -> np.ndarray:
        """Boolean mask of the boundary-layer nodes {delta <= delta_max}.

        The exclude nodes nearest each endpoint, whose values the diagonal
        quadrature pollutes, are dropped.  With delta_max = None the cap
        adapts to the mesh: at most _SPAN_DECADES decades above the smallest
        remaining distance, never beyond 0.05.  On strongly graded meshes
        this keeps the window in the deep asymptotic range where subleading
        corrections have died out; on uniform meshes it reduces to the
        plain 0.05 cap.  The mask is mirror-symmetric, as the grid is.
        Raises InsufficientWindowError when fewer than min_points nodes
        remain.
        """
        mask = np.zeros(self.n, dtype=bool)
        mask[exclude:self.n - exclude] = True
        if delta_max is None:
            floor = float(np.min(self.delta[mask], initial=np.inf))
            delta_max = min(_CAP_CEILING, floor * 10.0 ** _SPAN_DECADES)
        mask &= self.delta <= delta_max
        count = int(np.count_nonzero(mask))
        if count < min_points:
            raise InsufficientWindowError(
                f"only {count} nodes in window, need {min_points}")
        return mask


def graded_mesh(n: int, beta: float) -> Grid:
    """Symmetric graded partition of (0, 1) with n cells.

    Cell boundaries on the left half are t_j = (1/2) (2j/n)^beta for
    j = 0..n/2, mirrored onto the right half.  beta = 1 gives the uniform
    mesh; larger beta clusters cells at both endpoints.  A grading so
    strong that the mirrored nodes near x = 1 round together (or onto 1)
    is rejected, and so is a beta outside [1, inf).
    """
    if n < 8 or n % 2 != 0:
        raise ValueError("node count must be even and at least 8")
    if not 1.0 <= beta < np.inf:
        raise ValueError("grading exponent must lie in [1, inf)")
    j = np.arange(n // 2 + 1, dtype=float)
    return Grid(0.5 * (2.0 * j / n) ** beta)
