"""Unit-interval geometry and graded meshes.

The computational domain is the unit interval (0, 1).  Meshes are
cell-midpoint collocation grids: nodes sit at cell midpoints, quadrature
weights are the cell widths.  A grading exponent clusters cells towards the
two endpoints so that boundary layers of the form delta^gamma are resolved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    """Cell-midpoint grid on (0, 1).

    nodes       -- strictly increasing cell midpoints
    boundaries  -- cell boundaries, boundaries[0] = 0, boundaries[-1] = 1
    weights     -- cell widths (sum to 1)
    beta        -- grading exponent used to build the partition
    """

    nodes: np.ndarray
    boundaries: np.ndarray
    weights: np.ndarray
    beta: float = 1.0

    def __post_init__(self):
        for name in ("nodes", "boundaries", "weights"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not abs(self.weights.sum() - 1.0) < 1e-12:
            raise ValueError("cell widths must partition the unit interval")
        if np.any(self.weights <= 0):
            raise ValueError("all cell widths must be positive")

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def delta(self) -> np.ndarray:
        """Boundary distance at each node."""
        return np.minimum(self.nodes, 1.0 - self.nodes)

    @property
    def is_uniform(self) -> bool:
        return bool(np.allclose(self.weights, 1.0 / self.n, rtol=1e-12, atol=0))


def graded_mesh(n: int, beta: float = 3.0) -> Grid:
    """Symmetric graded partition of (0, 1) with n cells.

    Cell boundaries on the left half are t_j = (1/2) (2j/n)^beta for
    j = 0..n/2, mirrored onto the right half.  beta = 1 gives the uniform
    mesh; larger beta clusters cells at both endpoints.
    """
    if n < 8 or n % 2 != 0:
        raise ValueError("node count must be even and at least 8")
    if beta < 1.0:
        raise ValueError("grading exponent must be >= 1")
    j = np.arange(n // 2 + 1, dtype=float)
    left = 0.5 * (2.0 * j / n) ** beta
    boundaries = np.concatenate([left, 1.0 - left[-2::-1]])
    nodes = 0.5 * (boundaries[:-1] + boundaries[1:])
    weights = np.diff(boundaries)
    return Grid(nodes=nodes, boundaries=boundaries, weights=weights, beta=float(beta))
