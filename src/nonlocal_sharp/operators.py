"""Green operators: synthetic kernel, folded tiled assembly, matrix transfer, bound checks.

The synthetic backend takes the two-sided envelope

    G(x, y) = |x-y|^{2s-N} (delta(x)^gamma / |x-y|^gamma ^ 1)
                            (delta(y)^gamma / |x-y|^gamma ^ 1)

as the kernel itself, collocated with cell quadrature, A_ij ~
int_{cell_j} G(x_i, y) dy, plus one band per row for the diagonal and the
Gauss-refined cells.  It is folded by x -> 1 - x into two (n/2, n/2)
blocks, one per mirror sector, each symmetric and stored as the `Slab`s of
`_tiles`, which hold an entry and its transpose once.  The spectral
backend stores the n eigenvalues of the matrix transfer and applies each
sector's half of them by a long-double transform of length n/2 (float64
rounding breaks the solver's nesting certificate).
`apply_sector` is each backend's matvec on a sector, and `apply` adds the
two; `entries` evaluates entries by the rule that defines them, never from
stored blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exponents import ProblemParams, _check_q
from .grids import Grid, boundary_distance


class DiagonalSingularityError(ValueError):
    """Pointwise evaluation requested on the diagonal x = y."""


@dataclass(frozen=True)
class GreenKernel:
    """Evaluatable symmetric synthetic kernel."""

    params: ProblemParams

    def __call__(self, x, y):
        """|x-y|^{2s-1} min(delta(x)^g/|x-y|^g, 1) min(delta(y)^g/|x-y|^g, 1).

        Vectorized over x, y; the diagonal x = y is singular and must be
        handled by cell-integrated quadrature instead.  Where the product
        form overflows (r^{2s-1-2gamma} at r ~ 1e-104) or a value is not
        finite, it raises ValueError and never returns inf or NaN.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.abs(x - y)
        if np.any(r == 0.0):
            raise DiagonalSingularityError("kernel is singular on the diagonal x = y")
        with np.errstate(over="ignore", invalid="ignore"):
            val = _envelope(r, boundary_distance(x), boundary_distance(y), self.params)
        if not np.all(np.isfinite(val)):
            raise ValueError("kernel value is not a finite float at these points")
        return float(val) if val.ndim == 0 else val


def synthetic_k5(params: ProblemParams) -> GreenKernel:
    """Envelope-exact kernel backend on the unit interval; requires s < 1/2."""
    if not params.s < 0.5:
        raise ValueError("synthetic backend requires s < 1/2 (integrable 1-D singularity)")
    return GreenKernel(params)


def _envelope(r, dx, dy, params: ProblemParams, out=None, scratch=None):
    """r^{2s-1} min(dx^gamma/r^gamma, 1) min(dy^gamma/r^gamma, 1), in product form.

    The one place the envelope is written out, as the equal product
    r^{2s-1-2gamma} min(dx^gamma, r^gamma) min(dy^gamma, r^gamma), with no
    divide.  At r = 2.5e-10, the smallest distance on graded_mesh(4000, 3),
    the power stays below 1e29.  Called with r alone, it returns a new
    array.  The assembly also passes `out` and `scratch`, float arrays of
    r's shape, and an r it may overwrite; both ways give the same bits.
    """
    if out is None:
        r = np.array(r, dtype=float)
        out, scratch = np.empty_like(r), np.empty_like(r)
    g = params.gamma
    ra = np.power(r, 2.0 * params.s - 1.0 - 2.0 * g, out=scratch)
    if g != 1.0:  # at gamma = 1 both min-factors read r itself
        r **= g  # the in-place operator keeps numpy's fast paths of `**` (sqrt for 1/2)
    np.minimum(dx ** g, r, out=out)
    np.multiply(ra, out, out=out)
    np.minimum(dy ** g, r, out=r)
    return np.multiply(out, r, out=out)


def _stored_bytes(op) -> int:
    """An operator's `nbytes`: the bytes of its top-level arrays.

    A GreenOperator's band, even and odd once built; a SpectralOperator's
    symbol, twiddles and scaled even half of the symbol.
    """
    return sum(a.nbytes for a in vars(op).values() if isinstance(a, np.ndarray))


@dataclass(frozen=True)
class GreenOperator:
    """Mirror-symmetric operator stored as its even and odd halves.

    A_ij / w_j is symmetric, so A is self-adjoint in <u, v>_w.  With J the
    flip of n/2 entries, A acts through two (n/2, n/2) blocks,

        A_LL + A_LR J = S_even diag(w_L),    A_LL - A_LR J = S_odd diag(w_L),

    on mirror-even and mirror-odd vectors.  `even` and `odd` hold S_even
    and S_odd, both symmetric, as their upper staircases laid out by
    `tiles`, the `Slab`s and `Part`s that `_tiles` builds and whose
    docstrings give the format.  `_fold` builds each from the four fields
    the first time it is read, so the even sector never builds `odd`;
    `band` is kept for the folds and for `entries`.
    """

    grid: Grid
    params: ProblemParams
    band: np.ndarray
    tiles: tuple[Slab, ...]

    @cached_property
    def even(self) -> np.ndarray:
        return _fold(self, np.add)

    @cached_property
    def odd(self) -> np.ndarray:
        return _fold(self, np.subtract)

    nbytes = property(_stored_bytes)


# Row blocks stay small: a study worker's glibc mmap threshold rises to the first operator block
# it frees, so later transients come from the heap and stay resident (43.0 vs 39.1 MB blocked);
# and the fold's three buffers are live at a worker's peak, beside the block it has just filled:
# at n = 4000 the fold peaks 0.98 MB above its 8.12 MB of stored bytes, and 1.77 MB at 2 ** 16.
_BLOCK_ENTRIES = 2 ** 15  # matrix entries per row block of the assembly
_SLAB_ROWS = 256  # rows per slab of a folded block
_SEPARATION = 2.0  # a column nearer a slab than this many slab widths is stored dense
_FAR_GAIN = 1e17  # k Chebyshev points make rho^-k at most 1e-14 / 1e3
_NEAR_BAND = 8        # off-diagonal band refined by Gauss quadrature
_GAUSS_NODES = 8
# the rule np.polynomial.legendre.leggauss(8) gives, bit for bit, without importing numpy.polynomial
_GAUSS_X = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                     -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                     0.7966664774136267, 0.9602898564975362])
_GAUSS_W = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                     0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                     0.22238103445337443, 0.10122853629037706])


class Part(NamedTuple):
    """Rows [a0, a1) and columns [c0, c1) of a slab, row by row in block[start:stop]:
    S[a0:a1, c0:c1], or if `low`, over the slab's rows, its k rows V[q, j] = S(xi_q, y_j) /
    xi_q^gamma, with S[r0:r1, c0:c1] = U V.  A dense part stands for S[a0:a1, c0:c1] and, right
    of its rows, for its transpose S[max(c0, a1):c1, a0:a1]."""

    a0: int
    a1: int
    c0: int
    c1: int
    start: int
    stop: int
    low: bool


class Slab(NamedTuple):
    """Rows [r0, r1) of a folded block S, which hold the upper staircase of S[r0:r1, r0:].

    S is symmetric, so its `parts`, in column order, store each entry of that staircase once:
    the first, dense, part, columns [r0, c), splits at m = r0 + (r1 - r0) // 2 into S[r0:m, r0:c]
    and S[m:r1, m:c], and S[m:r1, r0:m] is read as the upper one's transpose.  Its U[i, q] =
    x_i^gamma l_q(x_i), l_q the Lagrange basis of k Chebyshev points xi_q on its cells, is in
    block[at:at + (r1 - r0) * k], row by row; each part starts where the last stops.  Slabs
    hold _SLAB_ROWS rows, the last the rest and always the last _NEAR_BAND: near x = 1/2 the
    stored-node kernel is asymmetric in its last bits, so a slab splits only where its lower
    part keeps _NEAR_BAND rows, and a part's own square is never mirrored.
    """

    r0: int
    r1: int
    k: int
    at: int
    parts: tuple[Part, ...]


def _block_length(tiles: tuple[Slab, ...]) -> int:
    """The length of a block laid out by `tiles`: where its last part stops."""
    return tiles[-1].parts[-1].stop


def _tiles(grid: Grid) -> tuple[Slab, ...]:
    """The `Slab`s of a folded block, and which of their columns are far.

    A slab's columns run from r0 to n/2, in parts of far or dense columns;
    its first part, dense, holds its square, and splits into two row bands
    at the slab's midpoint, the lower one from the midpoint's column on.
    Column j is far when y_j and xr = fl(1 - y_j), the kernel's
    singularities, lie _SEPARATION widths beyond the slab's cells [lo, hi]
    and no min-factor kink (x = y/2, xr/2, xr - y) crosses [lo, hi]: one
    branch holds, analytic but at y, xr and, once x > y/2 or xr/2, at 0
    (x^gamma itself is not).  k is the least with rho^k >= _FAR_GAIN, rho
    the Bernstein ellipse of the nearest singularity u on [-1, 1].  The
    separation puts y and xr at u >= 5, and 0 counts only if min(y, xr) <
    2 lo, so hi < 4 lo / 3 and 0 is at u > 7: rho >= 5 + sqrt(24), k <= 18.
    A far column lies past the slab's band, below n/2, so never in the last
    slab, and k < r1 - r0 (were it not, the far field would only be larger).
    """
    x, b, n, half = grid.nodes, grid.boundaries, grid.n, grid.n // 2
    firsts = range(0, max(1, half - _NEAR_BAND + 1), _SLAB_ROWS)
    tiles, at = [], 0
    for r0, r1 in zip(firsts, [*firsts[1:], half]):
        j = np.arange(r0, half)
        lo, hi = b[r0], b[r1]
        y, xr = x[j], x[n - 1 - j]
        low = (j >= r1 + _NEAR_BAND) & (np.minimum(y, xr) - hi >= _SEPARATION * (hi - lo))
        for kink in (y / 2, xr / 2, xr - y):
            low &= (kink < lo) | (kink > hi)
        u = (2 * np.minimum(y, xr) - lo - hi) / (hi - lo)  # the singularity on [-1, 1]
        u = np.where((lo > y / 2) | (lo > xr / 2), np.minimum(u, (lo + hi) / (hi - lo)), u)
        u = np.min(u[low], initial=np.inf)
        k = 0 if u == np.inf else int(np.ceil(np.log(_FAR_GAIN) / np.log(u + np.sqrt(u * u - 1))))
        edges = [r0, *(np.flatnonzero(np.diff(low)) + r0 + 1).tolist(), half]
        parts, start, m = [], at + (r1 - r0) * k, r0 + (r1 - r0) // 2
        for c0, c1 in zip(edges, edges[1:]):
            far = bool(low[c0 - r0])
            split = c0 == r0 and r1 - m >= _NEAR_BAND  # the first part holds the square
            for a0, a1 in ((r0, m), (m, r1)) if split else ((r0, r1),):
                c = max(c0, a0)  # the lower band starts at its own first row
                stop = start + (k if far else a1 - a0) * (c1 - c)
                parts.append(Part(a0, a1, c, c1, start, stop, far))
                start = stop
        tiles.append(Slab(r0, r1, k, at, tuple(parts)))
        at = start
    return tuple(tiles)


def _chebyshev(grid: Grid, r0: int, r1: int, k: int, scale, out) -> np.ndarray:
    """The k Chebyshev points xi on the cells of rows [r0, r1); writes
    U[i, q] = scale_i l_q(x_i) into out, with l_q their barycentric Lagrange basis."""
    lo, hi = grid.boundaries[r0], grid.boundaries[r1]
    theta = np.pi * (np.arange(k) + 0.5) / k
    xi = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)
    q = grid.nodes[r0:r1, None] - xi  # then in place
    hit = q == 0.0
    q[hit] = 1.0
    np.divide(np.sin(theta) * (-1.0) ** np.arange(k), q, out=q)
    q /= q.sum(axis=1, keepdims=True)
    on = hit.any(axis=1)  # a node on a point
    q[on] = hit[on]
    np.multiply(scale[:, None], q, out=out.reshape(r1 - r0, k))
    return xi


def assemble(kernel: GreenKernel, grid: Grid) -> GreenOperator:
    """Assemble the folded operator of the synthetic kernel.

    Computes the band and the layout, and reads `even` before it returns,
    so the build owns the even fold's cost and its errors; `odd` is the
    same fold with np.subtract, left to its first read.
    """
    op = GreenOperator(grid=grid, params=kernel.params,
                       band=_corrected_band(kernel.params, grid), tiles=_tiles(grid))
    op.even
    return op


def _fold(op: GreenOperator, combine) -> np.ndarray:
    """The block S = combine(K_LL, K_LR J) of op's kernel values, laid out by op.tiles.

    Each part evaluates the envelope at its rows (nodes, or Chebyshev
    points) against its columns, then their mirrors, in row blocks that
    reuse one set of buffers, and combines the halves.  A dense part takes
    the band's entries by offset j - i, with r = 1 there first.
    """
    grid, params, band, tiles = op.grid, op.params, op.band, op.tiles
    x, d, n = grid.nodes, grid.delta, grid.n
    g = params.gamma
    block = np.empty(_block_length(tiles))
    cap = max(1, _BLOCK_ENTRIES // n) * n  # entries per row block: whole rows of the grid
    buffers = np.empty((3, cap))
    offsets = np.arange(-_NEAR_BAND, _NEAR_BAND + 1)
    for r0, r1, k, at, parts in tiles:
        xi = _chebyshev(grid, r0, r1, k, d[r0:r1] ** g, block[at:at + (r1 - r0) * k])
        for a0, a1, c0, c1, start, stop, low in parts:
            w = c1 - c0
            # the columns, then their mirror columns n-1-j
            xc, dc = (np.stack([a[c0:c1], a[n - c1:n - c0][::-1]])[:, None] for a in (x, d))
            xs, ds = (xi, xi) if low else (x[a0:a1], d[a0:a1])  # delta(xi) = xi <= 1/2
            out = block[start:stop].reshape(-1, w)
            rows = cap // (2 * w)
            banded = not low and c0 < a1 + _NEAR_BAND  # else no band column is in it
            for t0 in range(0, xs.size, rows):
                t1 = min(t0 + rows, xs.size)
                r, G, scratch = (b[:(t1 - t0) * 2 * w].reshape(2, t1 - t0, w) for b in buffers)
                np.subtract(xs[t0:t1, None], xc, out=r)
                np.abs(r, out=r)
                if banded:  # the band's columns, then their places in r
                    j = np.arange(a0 + t0, a0 + t1)[:, None] + offsets
                    mirror, on = j >= n // 2, (j >= 0) & (j < n)
                    np.subtract(n - 1, j, out=j, where=mirror)
                    on &= (j >= c0) & (j < c1)
                    j += np.arange(t1 - t0)[:, None] * w - c0 + mirror * ((t1 - t0) * w)
                    at_band = j[on]
                    r.put(at_band, 1.0)  # placeholders, overwritten below
                _envelope(r, ds[t0:t1, None], dc, params, out=G, scratch=scratch)
                if banded:
                    G.put(at_band, band[a0 + t0:a0 + t1][on])
                combine(G[0], G[1], out=out[t0:t1])
            if low:
                out /= xi[:, None] ** g
    return block


def _block_apply(op: GreenOperator, block: np.ndarray, v: np.ndarray) -> np.ndarray:
    """S diag(w) v for the block S laid out by op.tiles and a vector v of shape (half,).

    A dense part adds P v[c0:c1] to out[a0:a1] and, right of its rows,
    P^T v[a0:a1] to out[max(c0, a1):c1]; a far field adds U V v[c0:c1] and
    V^T U^T v[r0:r1].  A part's own square [a0, a1) x [a0, a1) acts as
    stored, never mirrored.
    """
    v = op.grid.weights[:v.size] * v
    out = np.zeros_like(v)
    for r0, r1, k, at, parts in op.tiles:
        U = block[at:at + (r1 - r0) * k].reshape(r1 - r0, k)
        ux, far = U.T @ v[r0:r1], np.zeros(k)
        for a0, a1, c0, c1, start, stop, low in parts:
            P = block[start:stop].reshape(-1, c1 - c0)
            if low:
                far += P @ v[c0:c1]
                out[c0:c1] += P.T @ ux
            else:
                out[a0:a1] += P @ v[c0:c1]
                lo = max(c0, a1)
                out[lo:c1] += P[:, lo - c0:].T @ v[a0:a1]
        out[r0:r1] += U @ far
    return out


def _own_cell_integral(half_width, a: float):
    """int |x_c - y|^{a-1} dy over a cell of the given half-width about x_c."""
    return 2.0 * half_width ** a / a


def _corrected_band(params: ProblemParams, grid: Grid):
    """The (n/2, 2 _NEAR_BAND + 1) kernel values in rows < n/2 that the envelope misses.

    band[i, k + off] is the kernel value at (i, i + off), |off| <= k =
    _NEAR_BAND: the entry divided by its weight w_j, which `_fold` and
    `entries` multiply back in; a column outside the grid holds 0.  The
    diagonal cell is the closed form of int |x_i - y|^{2s-1} dy, exact as
    every cell's half-width is at most delta(x_i).  Within _NEAR_BAND cells
    an 8-point Gauss rule replaces the first-order midpoint rule, and the
    one-sided averages are combined as Ghat_ij = (I_ij/w_j + I_ji/w_i)/2,
    so the kernel values stay exactly symmetric.  Both directions' Gauss
    points go through the envelope together, in blocks of cells: a larger
    scratch would stay resident in a study worker (see _BLOCK_ENTRIES).
    """
    x, w, n, half = grid.nodes, grid.weights, grid.n, grid.n // 2
    k = _NEAR_BAND
    # means[c, m] = (1/w_c) int_{cell_c} G(x_i, y) dy at the rows i = c + offsets[m] around cell c;
    # rows outside the grid are clipped to it and their values never read
    cells = np.arange(min(half + k, n))
    offsets = np.r_[-k:0, 1:k + 1]
    lo, hi = grid.boundaries[cells], grid.boundaries[cells + 1]
    y = (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * _GAUSS_X
    xi = x[np.clip(cells[:, None] + offsets, 0, n - 1)][:, :, None]
    dx, dy = np.minimum(xi, 1.0 - xi), np.minimum(y, 1.0 - y)[:, None]
    step = max(1, _BLOCK_ENTRIES // (offsets.size * _GAUSS_NODES))  # cells per envelope call
    buffers = np.empty((3, step, offsets.size, _GAUSS_NODES))
    means = np.empty((cells.size, offsets.size))
    for c0 in range(0, cells.size, step):
        c1 = min(c0 + step, cells.size)
        r, out, scratch = buffers[:, :c1 - c0]
        # Gauss points lie inside their cells, so r > 0 and every point is in [0, 1]
        np.abs(np.subtract(xi[c0:c1], y[c0:c1, None], out=r), out=r)
        _envelope(r, dx[c0:c1], dy[c0:c1], params, out=out, scratch=scratch)
        means[c0:c1] = out @ _GAUSS_W
    means = (0.5 * (hi - lo))[:, None] * means / w[cells, None]
    band = np.zeros((half, 2 * k + 1))  # row i holds the columns i - k .. i + k
    band[:, k] = _own_cell_integral(0.5 * w, 2.0 * params.s)[:half] / w[:half]
    for off in range(1, min(k + 1, n)):
        m = min(half, n - off)  # the pairs (i, i + off) in the grid, i < m
        avg = 0.5 * (means[off:off + m, k - off] + means[:m, k - 1 + off])
        band[:m, k + off] = avg
        band[off:, k - off] = avg[:max(0, half - off)]  # their mirrors (i + off, i) in left rows
    return band


@dataclass(frozen=True)
class SpectralOperator:
    """Matrix transfer stored as its symbol: eigenvalues in sine mode order.

    symbol[k - 1] = lambda_k(h)^{-s}, the eigenvalue of the sine mode
    sin(k pi x) restricted to the uniform midpoint grid.  The operator is
    symmetric, so it is self-adjoint in <u, v>_w like GreenOperator.  `pre`
    and `post` are the twiddles of `_dst4`, and `even_symbol` is the even
    sector's symbol[0::2] 2/N in long double, N = n/2, all built once.
    """

    grid: Grid
    params: ProblemParams
    symbol: np.ndarray = field(init=False, repr=False)
    pre: np.ndarray = field(init=False, repr=False)
    post: np.ndarray = field(init=False, repr=False)
    even_symbol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_spectral_grid(self.grid)
        n, h, pi = self.grid.n, 1.0 / self.grid.n, np.arccos(np.longdouble(-1))
        lam = (4.0 / h ** 2) * np.sin(np.arange(1, n + 1, dtype=float) * np.pi * h / 2.0) ** 2
        k = np.arange(n // 4, dtype=np.longdouble)
        object.__setattr__(self, "symbol", lam ** (-self.params.s))  # lambda_k(h)^{-s}
        object.__setattr__(self, "pre", np.exp(-2j * pi * k / n))  # exp(-i pi k / N), N = n/2
        object.__setattr__(self, "post", np.exp(-1j * pi * (4 * k + 1) / (2 * n)))
        object.__setattr__(self, "even_symbol", self.symbol[0::2] * (2 / np.longdouble(n // 2)))

    nbytes = property(_stored_bytes)


def _check_spectral_grid(grid: Grid) -> None:
    """The grids the matrix transfer runs on: uniform, with n a multiple of 4.

    The even sector's DST-IV of length n/2 runs as a complex FFT of length
    n/4, so n/2 must be even.  Raises ValueError.
    """
    if not grid.is_uniform:
        raise ValueError("matrix transfer is defined on uniform grids only")
    if grid.n % 4:
        raise ValueError(f"spectral backend needs n a multiple of 4, got n = {grid.n}")


Operator = GreenOperator | SpectralOperator


def _mirror(v: np.ndarray, odd: bool = False) -> np.ndarray:
    """The full vector [v, v reversed] of a left half v, or [v, -v reversed] when odd."""
    return np.concatenate([v, -v[::-1] if odd else v[::-1]])


def _dst4(op: SpectralOperator, x: np.ndarray) -> np.ndarray:
    """The DST-IV y_k = sum_j x_j sin(pi (2j + 1)(2k + 1) / 4N) of x, of length N = n/2.

    The DCT-IV of x reversed, signed by (-1)^k, by one complex FFT of length
    N/2: of r_{2j} + i r_{N-1-2j}, r = x reversed, times pre_j = exp(-i pi j
    / N); times post_k = exp(-i pi (4k + 1) / 4N) it holds y_{2k} and
    y_{N-1-2k} as its real and imaginary parts.
    """
    z = np.empty(x.size // 2, dtype=np.clongdouble)
    z.real, z.imag = x[1::2][::-1], x[::2]
    t = np.fft.fft(z * op.pre)
    t *= op.post
    y = np.empty(x.size, dtype=np.longdouble)
    y[0::2], y[1::2] = t.real, t.imag[::-1]
    return y


def apply_sector(op: Operator, v: np.ndarray, odd: bool = False) -> np.ndarray:
    """The left half of A [v, v reversed], or of A [v, -v reversed] when odd.

    v has shape (n/2,); any other shape raises ValueError.  The folded
    operator applies its even or odd block.  The spectral one applies its
    sector's sine modes in long double.  Mirror-even, the odd modes k =
    2m + 1 are the DST-IV basis of length N = n/2: DST-IV(symbol[0::2] 2/N
    DST-IV(v)).  Mirror-odd, the even modes k = 2m are the sine modes of
    the N-point midpoint grid: the irfft of the rfft of [v, -v reversed],
    mode m scaled by symbol[2m - 1] and the mean by 0, cut to N values.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (op.grid.n // 2,):
        raise ValueError("v must have shape (n/2,), one value per left-half node")
    return _sector(op, v, odd).astype(float, copy=False)


def _sector(op: Operator, v: np.ndarray, odd: bool) -> np.ndarray:
    """`apply_sector` of a checked v, a spectral result still in long double."""
    if not isinstance(op, SpectralOperator):
        return _block_apply(op, op.odd if odd else op.even, v)
    half, v = op.grid.n // 2, v.astype(np.longdouble)
    if not odd:
        return _dst4(op, op.even_symbol * _dst4(op, v))
    coef = np.fft.rfft(np.concatenate([v, -v[::-1]]))
    coef[0] = 0.0  # the mean, which no sine mode has
    coef[1:] *= op.symbol[1::2]
    return np.fft.irfft(coef, op.grid.n)[:half]


def apply(op: Operator, v: np.ndarray) -> np.ndarray:
    """Apply the discretized integral operator to node values.

    v is one vector of node values, shape (n,); any other shape raises
    ValueError.  Both backends apply v's mirror-even and mirror-odd parts
    by `apply_sector` and add them, the spectral one in long double: an
    entry far below its mirror partner is their difference.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (op.grid.n,):
        raise ValueError("v must have shape (n,), one value per node")
    left, right = v[:op.grid.n // 2], v[op.grid.n // 2:][::-1]
    ee = _sector(op, 0.5 * (left + right), False)
    oo = _sector(op, 0.5 * (left - right), True)
    return np.concatenate([ee + oo, (ee - oo)[::-1]]).astype(float, copy=False)


def entries(op: Operator, i, j) -> np.ndarray:
    """The matrix entries A[i, j] at index arrays i, j, from the rule that defines them.

    No stored block is read.  A right-half row i is read as the entry
    (n-1-i, n-1-j).  A left-row entry is w_j times band[i, j - i + k] when
    |j - i| <= k = _NEAR_BAND, else times the envelope at the nodes.  A
    dense part holds these to a few ulps (numpy's pow can round differently
    at another array position), a far field to about 1e-15.  The spectral
    operator, sum_k symbol[k - 1] of its sine modes' projections, is the
    circulant on the odd extension to 2n points restricted to the first n,
    Toeplitz minus Hankel: A[i, j] = c[|i - j|] - c[i + j + 1], with c the
    circulant's first column, the long-double irfft of [0, symbol].
    """
    n = op.grid.n
    if isinstance(op, SpectralOperator):
        c = np.fft.irfft(np.concatenate([[0.0], op.symbol], dtype=np.longdouble), 2 * n)
        return (c[np.abs(i - j)] - c[i + j + 1]).astype(float)
    flip = i >= n // 2
    i, j = np.where(flip, n - 1 - i, i), np.where(flip, n - 1 - j, j)
    k = _NEAR_BAND
    near = np.abs(j - i) <= k  # j lies in the grid, so the band holds (i, j)
    x, d = op.grid.nodes, op.grid.delta
    r = np.where(near, 1.0, np.abs(x[i] - x[j]))
    g = np.where(near, op.band[i, np.clip(j - i + k, 0, 2 * k)],
                 _envelope(r, d[i], d[j], op.params))
    return g * op.grid.weights[j]


def spectral_mt_operator(s: float, grid: Grid) -> SpectralOperator:
    """Matrix-transfer realization of the inverse spectral fractional operator.

    The -s power of the second-difference Dirichlet Laplacian on a uniform
    midpoint grid: eigenvalues lambda_k(h)^{-s}, lambda_k(h) = (4/h^2)
    sin^2(k pi h / 2), with the discrete sine modes as eigenvectors (exact
    under antisymmetric ghost reflection), which `apply_sector` supplies by
    FFT.  The grid must pass `_check_spectral_grid`, else ValueError.
    """
    return SpectralOperator(grid=grid, params=ProblemParams(s=s, gamma=1.0))


def green_q_norm(kernel: GreenKernel, grid: Grid, x0_index: int, q: float) -> float:
    """(int_Omega G^q(x, x0) dx)^{1/q} for a grid node x0.

    Valid for q in the range of `exponents._check_q`; the diagonal cell is
    integrated through the envelope |x0 - y|^{q(2s-1)} in closed form, as in
    `assemble`.  A right-half x0 is read at its left-half mirror node, and
    delta from the grid: the rounding of 1 - x_left is large relative to
    delta near x = 1.
    """
    s = kernel.params.s
    _check_q(1, s, q)
    i = range(grid.n)[x0_index]  # a negative index counts from the end, as in numpy
    i = min(i, grid.n - 1 - i)  # the left-half mirror node of a right-half centre
    x, d = grid.nodes, grid.delta
    mask = np.arange(grid.n) != i
    vals = _envelope(np.abs(x[mask] - x[i]), d[mask], d[i], kernel.params) ** q
    total = float(np.sum(vals * grid.weights[mask]))
    a = 1.0 - q * (1.0 - 2.0 * s)  # > 0 inside the admissible q range
    total += _own_cell_integral(0.5 * grid.weights[i], a)
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


def _check_samples(n_samples: int) -> None:
    """The one range of a bound check's sample count: an integer >= 100."""
    if not (isinstance(n_samples, (int, np.integer)) and n_samples >= 100):
        raise ValueError("need an integer of at least 100 sample pairs")


def check_kernel_bounds(kernel_or_op, n_samples: int = 10_000, seed: int = 0) -> BoundReport:
    """Sample kernel values and report envelope constants.

    Accepts either a pointwise GreenKernel (pairs drawn uniformly in the
    square; acceptance criterion 11) or an operator, whose entries over the
    weights estimate kernel values at node pairs (`verify-kernel`).  They
    are evaluated by `entries`, in O(n_samples + n) memory, without
    applying the operator or reading its stored blocks.
    """
    _check_samples(n_samples)
    rng = np.random.default_rng(seed)
    params = kernel_or_op.params

    if isinstance(kernel_or_op, GreenKernel):
        x = rng.uniform(0.0, 1.0, size=n_samples)
        y = rng.uniform(0.0, 1.0, size=n_samples)
        coincide = x == y
        y[coincide] = np.nextafter(y[coincide], 1.0)
        dx, dy = boundary_distance(x), boundary_distance(y)
        g = np.asarray(kernel_or_op(x, y))
    else:
        op = kernel_or_op
        n = op.grid.n
        i = rng.integers(0, n, size=2 * n_samples)
        j = rng.integers(0, n, size=2 * n_samples)
        keep = i != j
        i, j = i[keep][:n_samples], j[keep][:n_samples]
        x, y = op.grid.nodes[i], op.grid.nodes[j]
        dx, dy = op.grid.delta[i], op.grid.delta[j]
        # entries are w_j times a symmetric kernel-value matrix
        g = entries(op, i, j) / op.grid.weights[j]

    envelope = _envelope(np.abs(x - y), dx, dy, params)
    phi_prod = dx ** params.gamma * dy ** params.gamma

    c1_hat = float(np.max(g / envelope))
    c0_hat = float(np.min(g / phi_prod))
    violations = int(np.count_nonzero(g < phi_prod * (1.0 - 1e-12)))
    return BoundReport(c0_hat=c0_hat, c1_hat=c1_hat,
                       violations=violations, n_samples=int(x.size))
