"""Discretized Green operators: folded assembly, matrix-free transfer, q-norms.

The integral operator u -> int G(., y) u(y) dy is collocated at grid nodes
with cell quadrature: A_ij ~ int_{cell_j} G(x_i, y) dy.  Off-diagonal cells
use the midpoint rule; the singular diagonal cell is integrated in closed
form through the |x - y|^{2s-1} envelope, whose min-factors are 1 on every
cell because the exactly mirrored grid has half-width <= delta.  The grid
and the synthetic kernel are symmetric under x -> 1 - x, so the synthetic
operator is stored folded, as two (n/2, n/2) blocks acting on the
mirror-even and mirror-odd parts of a vector: half the bytes and half the
matvec work of the n x n matrix, and exactly mirror-symmetric.  A
mirror-even input, such as every Picard iterate, has an odd part of exact
zeros, so its apply reads the even block alone.  The spectral backend is
the matrix transfer of the second-difference Dirichlet Laplacian: its
eigenvectors on the uniform midpoint grid are the DST-II sine modes, so
the operator stores only its n eigenvalues (the symbol).  Extended oddly
to 2n points, a grid function sees the midpoint Dirichlet Laplacian as
the 2n-point periodic one, a circulant whose Fourier modes are those sine
modes; `apply` is that circulant, numpy's real FFT of the odd extension
times the symbol, in O(n log n), spectrally exact on its grid.  The FFTs
run in long double (80-bit extended on x86-64 Linux): FFT rounding is
absolute, and in float64 it is large enough relative to the small
boundary values of u to break the solver's nesting certificate.  `apply`
is the one entry point for both backends, and both run on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid
from .kernels import GreenKernel, ProblemParams, _envelope


@dataclass(frozen=True)
class GreenOperator:
    """Mirror-symmetric operator stored as its even and odd halves.

    The collocation matrix A has A_ij ~ int_{cell_j} G(x_i, y) dy, i.e. it
    includes the quadrature weights; the underlying kernel values A_ij / w_j
    form a symmetric matrix, so A is self-adjoint in the quadrature inner
    product <u, v>_w = sum_i w_i u_i v_i (the discrete L^2 pairing).  The
    grid and the kernel are symmetric under x -> 1 - x, so A commutes with
    the flip and is fixed by its left rows [A_LL, A_LR].  With J the flip of
    n/2 entries it is stored as two (n/2, n/2) blocks,

        even = A_LL + A_LR J,    odd = A_LL - A_LR J,

    which act on the mirror-even and mirror-odd parts of a vector.  `apply`
    recombines them, so a mirror-symmetric input gives an exactly
    mirror-symmetric result.
    """

    grid: Grid
    even: np.ndarray
    odd: np.ndarray
    params: ProblemParams

    def __post_init__(self):
        half = (self.grid.n // 2,) * 2
        if self.even.shape != half or self.odd.shape != half:
            raise ValueError("block shapes do not match grid")


_BLOCK_ENTRIES = 2 ** 16  # matrix entries per row block of the assembly


def assemble(kernel: GreenKernel, grid: Grid) -> GreenOperator:
    """Assemble the folded operator of the synthetic kernel.

    Off-diagonal entries are w_j G(x_i, x_j), upgraded to Gauss-Legendre
    cell integrals near the diagonal where the integrable singularity makes
    the midpoint rule first-order; in-band values are symmetrized at the
    kernel level, Ghat_ij = (I_ij/w_j + I_ji/w_i)/2, which keeps every row
    a consistent quadrature (entrywise averaging (A+A^T)/2 would inject an
    O(h) bulk bias on graded meshes where w_i != w_j).  The diagonal cell
    integral is the closed form int |x_i - y|^{2s-1} dy over the cell with
    min-factors 1, exact because every cell's half-width is at most
    delta(x_i).  Only the left n/2 rows are computed, in row blocks of
    about _BLOCK_ENTRIES entries, each folded into `even` and `odd` at
    once, so no n x n temporary exists.  The row-block buffers are
    allocated once per call and reused by every block, with every step
    written in place.
    """
    x = grid.nodes
    w = grid.weights
    d = grid.delta
    n = grid.n
    half = n // 2
    band = _near_diagonal_averages(kernel, grid)
    diag = _own_cell_integral(0.5 * w, 2.0 * kernel.params.s)
    even = np.empty((half, half))
    odd = np.empty((half, half))
    rows = max(1, _BLOCK_ENTRIES // n)
    buffers = np.empty((3, rows, n))
    for r0 in range(0, half, rows):
        r1 = min(r0 + rows, half)
        r, G, scratch = buffers[:, :r1 - r0]
        np.subtract(x[r0:r1, None], x[None, :], out=r)
        np.abs(r, out=r)
        _diagonal(r, r0, 0, r0, r1)[:] = 1.0  # placeholder, overwritten below
        _envelope(r, d[r0:r1, None], d[None, :], kernel.params, out=G, scratch=scratch)
        for off, avg in band:
            up = min(r1, avg.size)  # rows whose pair (i, i + off) lies in the grid
            _diagonal(G, r0, off, r0, up)[:] = avg[r0:up]
            down = max(r0, off)     # rows whose pair (i, i - off) lies in the grid
            if down < r1:
                _diagonal(G, r0, -off, down, r1)[:] = avg[down - off:r1 - off]
        G *= w
        _diagonal(G, r0, 0, r0, r1)[:] = diag[r0:r1]
        left, right = G[:, :half], G[:, half:][:, ::-1]
        np.add(left, right, out=even[r0:r1])
        np.subtract(left, right, out=odd[r0:r1])
    return GreenOperator(grid=grid, even=even, odd=odd, params=kernel.params)


def _diagonal(block: np.ndarray, r0: int, off: int, i0: int, i1: int) -> np.ndarray:
    """Writable view of the entries (i, i + off), i0 <= i < i1, of a row block.

    The block is C-contiguous and holds the rows r0, r0 + 1, ... of an
    n-column matrix, so entry (i, j) sits at (i - r0) n + j of its flat
    view and the wanted entries are one slice of stride n + 1.
    """
    n = block.shape[1]
    start = (i0 - r0) * n + i0 + off
    return block.reshape(-1)[start:start + max(0, i1 - i0) * (n + 1):n + 1]


def _own_cell_integral(half_width, a: float):
    """int |x_c - y|^{a-1} dy over a cell of the given half-width about x_c."""
    return 2.0 * half_width ** a / a


_NEAR_BAND = 8        # off-diagonal band refined by Gauss quadrature
_GAUSS_NODES = 8

def _near_diagonal_averages(kernel: GreenKernel, grid: Grid) -> list[tuple[int, np.ndarray]]:
    """Symmetric Gauss cell averages on the band the left rows touch.

    Within a few cells of the singularity the kernel's curvature makes the
    midpoint rule only first-order accurate, which dominates the global
    assembly error; an 8-point Gauss rule on those cells removes it.  The
    two one-sided cell averages are combined symmetrically so the kernel
    values stay exactly symmetric.  Returns (off, avg) pairs with avg[a]
    the value at the node pair (a, a + off), for every a < n/2.
    """
    gx, gw = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    x = grid.nodes
    w = grid.weights
    lo_all = grid.boundaries[:-1]
    hi_all = grid.boundaries[1:]
    n = grid.n

    def cell_average(i0, j0):
        # (1/w_j) int_{cell_j} G(x_i, y) dy
        lo, hi = lo_all[j0], hi_all[j0]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        y = mid[:, None] + half[:, None] * gx[None, :]
        vals = kernel(np.broadcast_to(x[i0][:, None], y.shape), y)
        return half * (vals @ gw) / w[j0]

    band = []
    for off in range(1, min(_NEAR_BAND, n - 1) + 1):
        i0 = np.arange(min(n // 2, n - off))
        j0 = i0 + off
        band.append((off, 0.5 * (cell_average(i0, j0) + cell_average(j0, i0))))
    return band


@dataclass(frozen=True)
class SpectralOperator:
    """Matrix transfer stored as its symbol: eigenvalues in sine mode order.

    symbol[k - 1] = lambda_k(h)^{-s}, the eigenvalue of the sine mode
    sin(k pi x) restricted to the uniform midpoint grid.  The operator is
    symmetric, so it is self-adjoint in <u, v>_w like GreenOperator.
    """

    grid: Grid
    symbol: np.ndarray
    params: ProblemParams

    def __post_init__(self):
        if self.symbol.shape != (self.grid.n,):
            raise ValueError("symbol length does not match grid")


Operator = GreenOperator | SpectralOperator


def apply(op: Operator, v: np.ndarray) -> np.ndarray:
    """Apply the discretized integral operator to node values.

    v holds one vector of node values, shape (n,), or m of them as the
    columns of an (n, m) array.  For the folded operator, an input whose
    mirror-odd part is exactly zero skips the odd block: the result is
    [E e ; J E e], the value the two-block formula gives, for half the
    bytes read.  For the spectral operator, each column is extended oddly
    to [v, -v reversed] and transformed by a long-double rfft of length
    2n; Fourier mode k (k = 1..n) is sine mode k and is scaled by
    symbol[k - 1], the mean by 0, and the first n values of the irfft are
    returned in float64.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != op.grid.n:
        raise ValueError("vector length does not match grid")
    if isinstance(op, SpectralOperator):
        n = op.grid.n
        coef = np.fft.rfft(np.concatenate([v, -v[::-1]], dtype=np.longdouble), axis=0)
        coef[0] = 0.0  # the mean, which no sine mode has
        coef[1:] *= op.symbol if v.ndim == 1 else op.symbol[:, None]
        return np.fft.irfft(coef, 2 * n, axis=0)[:n].astype(float)
    half = op.grid.n // 2
    left, right = v[:half], v[half:][::-1]
    ee = op.even @ (0.5 * (left + right))
    odd_part = 0.5 * (left - right)
    if not np.any(odd_part):  # mirror-even input: odd @ 0 would add exact zeros
        return np.concatenate([ee, ee[::-1]])
    oo = op.odd @ odd_part
    return np.concatenate([ee + oo, (ee - oo)[::-1]])


def spectral_mt_operator(s: float, grid: Grid) -> SpectralOperator:
    """Matrix-transfer realization of the inverse spectral fractional operator.

    The -s power of the second-difference Dirichlet Laplacian on a uniform
    midpoint grid: eigenvalues lambda_k(h)^{-s} with
    lambda_k(h) = (4/h^2) sin^2(k pi h / 2) and discrete sine eigenvectors,
    which are exact for this stencil under antisymmetric ghost reflection.
    Only the n eigenvalues are stored; `apply` supplies the eigenvectors
    through the FFT of the odd extension.
    """
    params = ProblemParams(s=s, gamma=1.0)
    if not grid.is_uniform:
        raise ValueError("matrix transfer is defined on uniform grids only")
    n = grid.n
    h = 1.0 / n
    k = np.arange(1, n + 1, dtype=float)
    lam = (4.0 / h ** 2) * np.sin(k * np.pi * h / 2.0) ** 2
    return SpectralOperator(grid=grid, symbol=lam ** (-s), params=params)


def green_q_norm(kernel: GreenKernel, grid: Grid, x0_index: int, q: float) -> float:
    """(int_Omega G^q(x, x0) dx)^{1/q} for a grid node x0.

    Valid for 0 < q < N/(N-2s); the diagonal cell is integrated through the
    envelope |x0 - y|^{q(2s-1)} in closed form, as in `assemble`.
    """
    s = kernel.params.s
    q_high = 1.0 / (1.0 - 2.0 * s)
    if not 0.0 < q < q_high:
        raise ValueError(f"q must lie in (0, {q_high}); the integral diverges otherwise")
    x = grid.nodes
    x0 = x[x0_index]
    mask = np.arange(grid.n) != x0_index
    vals = kernel(x[mask], np.full(mask.sum(), x0)) ** q
    total = float(np.sum(vals * grid.weights[mask]))
    a = 1.0 - q * (1.0 - 2.0 * s)  # > 0 inside the admissible q range
    total += _own_cell_integral(0.5 * grid.weights[x0_index], a)
    return total ** (1.0 / q)


_PROFILE_EXCLUDE = 3     # nodes left out next to the endpoint
_PROFILE_MIN_POINTS = 4  # two per mirror half: the boundary slope needs two


def green_q_norm_profile(kernel: GreenKernel, grid: Grid, q: float):
    """q-norms centred at left-boundary-layer nodes, with their distances.

    Returns (delta, norms) for the left half of the grid's adaptive
    boundary window, skipping the nodes nearest the endpoint (diagonal-cell
    pollution).  Raises InsufficientWindowError when fewer than two left-half
    nodes remain.
    """
    mask = grid.boundary_window(_PROFILE_EXCLUDE, None, _PROFILE_MIN_POINTS)
    idx = np.flatnonzero(mask[: grid.n // 2])
    norms = np.array([green_q_norm(kernel, grid, i, q) for i in idx])
    return grid.delta[idx], norms
