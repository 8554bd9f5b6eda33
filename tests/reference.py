"""Dense reference formulas that the library computes matrix-free.

The matrix transfer's sine-mode build is O(n^3) time and O(n^2) memory,
which is why the spectral backend applies it by a sine transform; it is
kept here only as the independent reference the transform is tested
against.
"""

import numpy as np


def dense_matrix_transfer(s, grid):
    """h V^T diag(lambda_k(h)^{-s}) V with normalized sine modes in rows of V."""
    n = grid.n
    h = 1.0 / n
    k = np.arange(1, n + 1, dtype=float)
    lam = (4.0 / h ** 2) * np.sin(k * np.pi * h / 2.0) ** 2
    V = np.sin(np.outer(k * np.pi, grid.nodes))
    V /= np.sqrt(h * np.sum(V ** 2, axis=1))[:, None]
    A = h * (V.T * lam ** (-s)) @ V
    return 0.5 * (A + A.T)
