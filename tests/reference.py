"""Reference formulas that the library computes matrix-free, folded or without scipy,
and the node selections that the boundary window replaced.

The matrix transfer's sine-mode build is O(n^3) time and O(n^2) memory,
which is why the spectral backend applies it by a transform; its
orthonormal DST-II pair from scipy.fft costs a scipy.fft import in every
process that applies it, which is why the library applies the same
S^T diag(symbol) S one mirror sector at a time, by numpy's long-double FFT
(a DST-IV on the even sector, the odd extension on the odd); the unfolded synthetic assembly builds all n x n
entries through several n x n temporaries, which is why the library
computes only the left rows in row blocks and folds them; the envelope
as defined, a quotient, costs two divides per entry, which is why the
library evaluates it as the equal product; the critical log fit by
scipy's bounded curve_fit imports scipy.optimize, which is why the
library fits it by variable projection with numpy alone.  The fits, the Harnack report, the
eigenfunction ratios and the q-norm profile each used to select their
boundary nodes with their own rule; the rules are kept as they were
written, for the values in use, so that the one `Grid.boundary_window`
can be shown to select the same nodes.  All are kept here only as the
independent references the library is tested against.  Tests build
operators by hand from a plain (n/2, n/2) block: `pack_block` stores it
whole, row by row, and `whole_square` is the layout that stores it so, one
`Slab` of one dense `Part`: the records that `_tiles` builds, whose
docstrings give the storage format.  `apply_columns` applies an operator,
which takes one vector at a time, to the columns of a matrix.
"""

import numpy as np

from nonlocal_sharp.grids import boundary_distance
from nonlocal_sharp.operators import Part, Slab, _own_cell_integral, apply


def quotient_envelope(r, dx, dy, params):
    """r^{2s-1} min(dx^gamma/r^gamma, 1) min(dy^gamma/r^gamma, 1), as defined."""
    r = np.asarray(r, dtype=float)
    g = params.gamma
    rg = r ** g
    return (r ** (2.0 * params.s - 1.0) * np.minimum(dx ** g / rg, 1.0)
            * np.minimum(dy ** g / rg, 1.0))


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


def dst_matrix_transfer(symbol, v):
    """idst(symbol * dst(v)) of one vector, with the orthonormal DST-II pair, in long double."""
    from scipy.fft import dst, idst

    coef = dst(np.asarray(v, dtype=np.longdouble), type=2, norm="ortho")
    return idst(symbol * coef, type=2, norm="ortho").astype(float)


def apply_columns(op, V):
    """The matrix whose column k is apply(op, V[:, k]): one single-vector apply per column.

    On the columns of the identity this is the operator's dense matrix.
    """
    return np.stack([apply(op, v) for v in np.asarray(V, dtype=float).T], axis=1)


def dense_synthetic_assembly(kernel, grid, near_band=8, gauss_nodes=8):
    """The full n x n collocation matrix of the synthetic kernel.

    Quotient-form envelope values times the weights w_j, symmetric Gauss
    cell averages on the near_band off-diagonals, the closed-form diagonal.
    """
    x, w, d, n = grid.nodes, grid.weights, grid.delta, grid.n
    r = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(r, 1.0)  # placeholder, overwritten below
    G = quotient_envelope(r, d[:, None], d[None, :], kernel.params)
    gx, gw = np.polynomial.legendre.leggauss(gauss_nodes)
    lo_all, hi_all = grid.boundaries[:-1], grid.boundaries[1:]

    def cell_average(i0, j0):
        lo, hi = lo_all[j0], hi_all[j0]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        y = mid[:, None] + half[:, None] * gx[None, :]
        xs = x[i0][:, None]
        vals = quotient_envelope(np.abs(xs - y), boundary_distance(xs),
                                 boundary_distance(y), kernel.params)
        return half * (vals @ gw) / w[j0]

    for off in range(1, min(near_band, n - 1) + 1):
        i0, j0 = np.arange(0, n - off), np.arange(off, n)
        avg = 0.5 * (cell_average(i0, j0) + cell_average(j0, i0))
        G[i0, j0] = avg
        G[j0, i0] = avg
    A = G * w[None, :]
    np.fill_diagonal(A, _own_cell_integral(0.5 * w, 2.0 * kernel.params.s))
    return A


def pack_block(block, grid):
    """The storage of a folded (n/2, n/2) block given by hand: its kernel values block / w_L.

    Stored whole, row by row, as `whole_square(grid)` lays it out.
    """
    return (np.asarray(block, dtype=float) / grid.weights[:grid.n // 2]).ravel()


def whole_square(grid):
    """The layout of a block stored whole: one slab of every row, one dense part of every column.

    A slab's square acts as stored, never mirrored, so a non-symmetric
    block keeps its lower triangle.
    """
    half = grid.n // 2
    return (Slab(0, half, 0, 0, (Part(0, half, 0, half * half, False),)),)


def curve_fit_offset(t, y, k0):
    """Bounded curve_fit of y = k log(a + b t): (k, a, b, r2), (k0, 1, 1, 0) on failure."""
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


def fit_window_mask(grid, delta_max, exclude_nearest=5):
    """The fits' window with side = "both"; delta_max = None is the adaptive cap."""
    d = grid.delta
    mask = np.ones(grid.n, dtype=bool)
    k = exclude_nearest
    if k > 0:
        mask[:k] = False
        mask[grid.n - k:] = False
    if delta_max is not None:
        mask &= d <= delta_max
    else:
        if not np.any(mask):
            return mask
        floor = float(np.min(d[mask]))
        mask &= d <= min(0.05, floor * 10.0 ** 4.0)
    return mask


def harnack_window_mask(grid, delta_max=0.1, exclude_nearest=3):
    """The Harnack report's global window, strict in delta."""
    d = grid.delta
    mask = d < delta_max
    if exclude_nearest > 0:
        mask[:exclude_nearest] = False
        mask[grid.n - exclude_nearest:] = False
    return mask


def eigen_window_mask(grid, delta_max=0.2, exclude_nearest=3):
    """The eigenfunction ratios' window; an empty one raised ValueError."""
    d = grid.delta
    mask = d <= delta_max
    mask[:exclude_nearest] = False
    mask[grid.n - exclude_nearest:] = False
    return mask


def q_norm_profile_indices(grid, delta_max=None, exclude_nearest=3):
    """The left-half node indices of the q-norm profile."""
    d = grid.delta
    if delta_max is None:
        floor = float(np.min(d[exclude_nearest:grid.n // 2]))
        delta_max = min(0.05, floor * 1e4)
    return [i for i in range(exclude_nearest, grid.n // 2) if d[i] <= delta_max]
