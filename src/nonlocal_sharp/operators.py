"""Green operators: synthetic kernel, folded assembly, matrix transfer, bound checks.

The synthetic backend takes the matching two-sided envelope

    G(x, y) = |x-y|^{2s-N} (delta(x)^gamma / |x-y|^gamma ^ 1)
                            (delta(y)^gamma / |x-y|^gamma ^ 1)

as the kernel itself, with constants 1 and the eigenfunction profile
replaced by delta^gamma.  All boundary-behaviour theory consumes only the
envelope bounds, so this one backend probes every (s, gamma) regime:
gamma = s (restricted), gamma = s - 1/2 (censored-like), gamma = 1
(spectral).

The integral operator u -> int G(., y) u(y) dy is collocated at grid nodes
with cell quadrature: A_ij ~ int_{cell_j} G(x_i, y) dy.  The envelope at the
nodes (the midpoint rule) gives every entry; the entries it misses are then
written from one dense band per row: the singular diagonal cell, integrated
in closed form through the |x - y|^{2s-1} envelope, whose min-factors are 1
on every cell because the exactly mirrored grid has half-width <= delta, and
the Gauss-refined cells around it.  The grid and the synthetic kernel are
symmetric under x -> 1 - x, so the operator is folded into two (n/2, n/2)
blocks, its actions on the left halves of mirror-even and mirror-odd vectors
(the two sectors), each stored once as the upper slabs of a symmetric matrix
of kernel values (`GreenOperator`); the odd one is built when first read.
The spectral backend is the matrix transfer of the second-difference
Dirichlet Laplacian, whose eigenvectors on the uniform midpoint grid are the
DST-II sine modes, so it stores only its n eigenvalues (the symbol).
Extended oddly to 2n points, a grid function sees that Laplacian as the
2n-point periodic one, a circulant whose Fourier modes are the sine modes,
so `apply` runs it by numpy's real FFT in O(n log n), in long double (80-bit
extended on x86-64 Linux): FFT rounding is absolute, and in float64 it is
large enough relative to the small boundary values of u to break the
solver's nesting certificate.  `apply_sector`, each backend's one matvec on
a sector, is what the solvers call; `apply` takes one full vector; both run
on numpy alone.  `entries` evaluates single matrix entries by the rule that
defines them, the envelope and its correction band, or the spectral closed
form, never from stored blocks; `check_kernel_bounds` samples operators so.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial

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
        handled by cell-integrated quadrature instead.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.abs(x - y)
        if np.any(r == 0.0):
            raise DiagonalSingularityError("kernel is singular on the diagonal x = y")
        val = _envelope(r, boundary_distance(x), boundary_distance(y), self.params)
        return float(val) if val.ndim == 0 else val


def synthetic_k5(params: ProblemParams) -> GreenKernel:
    """Envelope-exact kernel backend on the unit interval; requires s < 1/2."""
    if not params.s < 0.5:
        raise ValueError("synthetic backend requires s < 1/2 (integrable 1-D singularity)")
    return GreenKernel(params)


def _envelope(r, dx, dy, params: ProblemParams, out=None, scratch=None):
    """r^{2s-1} min(dx^gamma/r^gamma, 1) min(dy^gamma/r^gamma, 1), in product form.

    The one place the two-sided envelope is written out: the synthetic
    kernel, the folded assembly, the q-norms and the bound checks all
    evaluate it here.  It is computed as the equal product
    r^{2s-1-2gamma} min(dx^gamma, r^gamma) min(dy^gamma, r^gamma), which
    needs no divide: the assembly is bound by full passes over its row
    blocks, and the quotient form costs two more (one divide per factor).
    At r = 2.5e-10, the smallest distance on graded_mesh(4000, 3), and the
    most negative exponent 2s - 1 - 2gamma > -3, the power stays below
    1e29, far from overflow.  r has the shape of the result.  Called with
    r alone, it returns a new array and leaves r as it was.  The assembly
    also passes `out` and `scratch`, float arrays of r's shape, and a float
    r that may be overwritten (scratch ends up holding r^{2s-1-2gamma}),
    so no array of that shape is allocated.  Both ways run the same
    operations in the same order and give the same bits.
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


@dataclass(frozen=True)
class GreenOperator:
    """Mirror-symmetric operator stored as its even and odd halves.

    The collocation matrix A has A_ij ~ int_{cell_j} G(x_i, y) dy, i.e. it
    includes the quadrature weights; the underlying kernel values A_ij / w_j
    form a symmetric matrix, so A is self-adjoint in the quadrature inner
    product <u, v>_w = sum_i w_i u_i v_i (the discrete L^2 pairing).  The
    grid and the kernel are symmetric under x -> 1 - x, so A commutes with
    the flip and is fixed by its left rows [A_LL, A_LR].  With J the flip of
    n/2 entries it acts through two (n/2, n/2) blocks,

        A_LL + A_LR J = S_even diag(w_L),    A_LL - A_LR J = S_odd diag(w_L),

    on the mirror-even and mirror-odd parts of a vector; the right-half
    weights are exact copies of the left ones, w_L.  `even` and `odd` hold
    the kernel-value matrices S_even and S_odd, each packed once as its
    upper slabs (`_slabs`: slab [r0, r1) holds S[r0:r1, r0:], its diagonal
    square in full), in one flat float64 array of about n^2/8 + 32 n
    entries, each applied by `apply_sector` to a left half.  Only `even` is
    stored up front: `odd` is made by the zero-argument `build_odd` the first
    time it is read, and kept, so the mirror-even sector never builds it.
    """

    grid: Grid
    even: np.ndarray
    build_odd: Callable[[], np.ndarray]
    params: ProblemParams

    def __post_init__(self):
        self._check(self.even)

    def _check(self, packed: np.ndarray):
        if packed.shape != (_slabs(self.grid.n // 2)[-1][3],):
            raise ValueError("block shapes do not match grid")

    @cached_property
    def odd(self) -> np.ndarray:
        odd = self.build_odd()
        self._check(odd)
        return odd


_BLOCK_ENTRIES = 2 ** 16  # matrix entries per row block of the assembly
_SLAB_ROWS = 128  # rows per stored slab of a folded block


def _slabs(half: int):
    """(r0, r1, start, stop) of each stored slab of a folded block with `half` rows.

    Slab [r0, r1) holds S[r0:r1, r0:half], C-order, as packed[start:stop].
    The slabs are _SLAB_ROWS rows tall, except the last, which takes the
    remainder and always holds the last _NEAR_BAND rows (up to
    _SLAB_ROWS + _NEAR_BAND - 1 rows), so their pairs sit in one stored
    square.  A block of at most _SLAB_ROWS rows is one slab: the whole square.
    """
    firsts = range(0, max(1, half - _NEAR_BAND + 1), _SLAB_ROWS)
    slabs, start = [], 0
    for r0, r1 in zip(firsts, [*firsts[1:], half]):
        stop = start + (r1 - r0) * (half - r0)
        slabs.append((r0, r1, start, stop))
        start = stop
    return slabs


def assemble(kernel: GreenKernel, grid: Grid) -> GreenOperator:
    """Assemble the folded operator of the synthetic kernel.

    Builds `even` now and leaves `odd` to the same fold with np.subtract,
    run the first time a mirror-odd input reads it.
    """
    return GreenOperator(grid=grid, even=_fold(kernel, grid, np.add),
                         build_odd=partial(_fold, kernel, grid, np.subtract),
                         params=kernel.params)


def _fold(kernel: GreenKernel, grid: Grid, combine) -> np.ndarray:
    """The packed slabs of S = combine(K_LL, K_LR J), the kernel values of a block.

    The right-half weights are exact copies of the left ones, so the block
    combine(A_LL, A_LR J) is S diag(w_L), and S is symmetric, as K is; it
    is stored as its upper slabs (`_slabs`), which `_slab_apply` reads.
    Each slab [r0, r1) is written directly, in row blocks of about
    _BLOCK_ENTRIES entries.  Row block [b0, b1) evaluates the envelope at
    the nodes on the columns r0 .. n-1-r0, plus a margin of _NEAR_BAND
    columns on each side that holds its rows' band (`_corrected_band`) of
    the kernel values the envelope misses; it writes the band's in-grid
    entries, each at its offset j - i, and folds the columns r0 .. n-1-r0
    into S[b0:b1, r0:], its rows of the slab.  Off the band
    r_ij = |x_i - x_j| > 0; on it r is set to 1, so r = 0 never reaches the
    envelope.  So every slab's diagonal square is evaluated in full, never
    copied from its transpose: the last slab holds the last _NEAR_BAND rows,
    and stored right-half nodes are fl(1 - x), so near x_i + x_k = 1, for
    pairs of those rows, the stored-node kernel is itself asymmetric in its
    last bits.  The row-block buffers are allocated once per call and
    reused by every block, and every step is written in place.
    """
    x = grid.nodes
    d = grid.delta
    n = grid.n
    half = n // 2
    band, inside = _corrected_band(kernel.params, grid)
    slabs = _slabs(half)
    packed = np.empty(slabs[-1][3])
    rows = max(1, _BLOCK_ENTRIES // n)
    buffers = np.empty((3, rows * n))
    for r0, r1, start, stop in slabs:
        slab = packed[start:stop].reshape(r1 - r0, half - r0)
        e = max(0, r0 - _NEAR_BAND)  # it folds the columns r0 .. n-1-r0, evaluates e .. n-1-e
        m = n - 2 * e
        # entry (b0 + t, b0 + t + off) of row block b0 lies at flat index t (m + 1) + b0 - e + off
        band_at = np.arange(rows)[:, None] * (m + 1) + np.arange(-_NEAR_BAND, _NEAR_BAND + 1) - e
        for b0 in range(r0, r1, rows):
            b1 = min(b0 + rows, r1)
            r, G, scratch = (b[:(b1 - b0) * m].reshape(b1 - b0, m) for b in buffers)
            at = band_at[:b1 - b0][inside[b0:b1]] + b0
            np.subtract(x[b0:b1, None], x[None, e:n - e], out=r)
            np.abs(r, out=r)
            r.put(at, 1.0)  # placeholders, overwritten below
            _envelope(r, d[b0:b1, None], d[None, e:n - e], kernel.params, out=G, scratch=scratch)
            G.put(at, band[b0:b1][inside[b0:b1]])
            # G's column j is the grid's column e + j; the margin is left out of the fold
            combine(G[:, r0 - e:half - e], G[:, half - e:n - r0 - e][:, ::-1],
                    out=slab[b0 - r0:b1 - r0])
    return packed


def _slab_apply(packed: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """S diag(w) v for the S stored as `packed` slabs and a vector v of shape (half,).

    v is scaled by w once.  Slab [r0, r1) adds its rows, P v[r0:], to
    out[r0:r1] and its mirror below the square, P[:, r1-r0:]^T v[r0:r1], to
    out[r1:].  Its diagonal square is applied as stored, never mirrored,
    so a block smaller than one slab acts exactly as given.
    """
    half = w.size
    v = w * v
    out = np.zeros_like(v)
    for r0, r1, start, stop in _slabs(half):
        slab = packed[start:stop].reshape(r1 - r0, half - r0)
        out[r0:r1] += slab @ v[r0:]
        out[r1:] += slab[:, r1 - r0:].T @ v[r0:r1]
    return out


def _own_cell_integral(half_width, a: float):
    """int |x_c - y|^{a-1} dy over a cell of the given half-width about x_c."""
    return 2.0 * half_width ** a / a


_NEAR_BAND = 8        # off-diagonal band refined by Gauss quadrature
_GAUSS_NODES = 8

def _corrected_band(params: ProblemParams, grid: Grid):
    """(band, inside): the kernel values in rows < n/2 that the envelope misses.

    band[i, k + off] is the kernel value at (i, i + off), |off| <= k =
    _NEAR_BAND: the entry divided by its weight w_j, which `_fold` and
    `entries` multiply back in.  inside marks the offsets whose column lies
    in the grid, 0 <= i + off < n; the other positions hold no value.  The
    diagonal cell integral is the closed form int |x_i - y|^{2s-1} dy over
    the cell with min-factors 1, exact because every cell's half-width is at
    most delta(x_i).  Within _NEAR_BAND cells of the singularity the
    kernel's curvature makes the midpoint rule only first-order accurate,
    which dominates the global assembly error; an 8-point Gauss rule on
    those cells removes it.  The two one-sided cell averages are combined at
    the kernel level, Ghat_ij = (I_ij/w_j + I_ji/w_i)/2, so the kernel
    values stay exactly symmetric and every row a consistent quadrature
    (entrywise averaging (A+A^T)/2 would inject an O(h) bulk bias on graded
    meshes where w_i != w_j).
    """
    gx, gw = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    x = grid.nodes
    w = grid.weights
    n = grid.n

    def cell_average(i0, j0):
        # (1/w_j) int_{cell_j} G(x_i, y) dy
        lo, hi = grid.boundaries[j0], grid.boundaries[j0 + 1]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        y = mid[:, None] + half[:, None] * gx[None, :]
        xi = x[i0][:, None]
        # Gauss points lie inside their cells, so r > 0 and every point is in [0, 1]
        vals = _envelope(np.abs(xi - y), np.minimum(xi, 1.0 - xi), np.minimum(y, 1.0 - y),
                         params)
        return half * (vals @ gw) / w[j0]

    k = _NEAR_BAND
    i = np.arange(n // 2)
    band = np.empty((n // 2, 2 * k + 1))  # row i holds the columns i - k .. i + k
    band[:, k] = _own_cell_integral(0.5 * w, 2.0 * params.s)[i] / w[i]
    for off in range(1, min(k, n - 1) + 1):
        i0 = i[:n - off]  # rows whose pair (i, i + off) lies in the grid
        j0 = i0 + off
        avg = 0.5 * (cell_average(i0, j0) + cell_average(j0, i0))
        band[i0, k + off] = avg
        left = j0 < n // 2  # pairs whose mirror entry (j0, i0) is in a left row too
        band[j0[left], k - off] = avg[left]
    cols = i[:, None] + np.arange(-k, k + 1)
    return band, (cols >= 0) & (cols < n)


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


def _mirror(v: np.ndarray, odd: bool = False) -> np.ndarray:
    """The full vector [v, v reversed] of a left half v, or [v, -v reversed] when odd."""
    return np.concatenate([v, -v[::-1] if odd else v[::-1]])


def apply_sector(op: Operator, v: np.ndarray, odd: bool = False) -> np.ndarray:
    """The left half of A [v, v reversed], or of A [v, -v reversed] when odd.

    v has shape (n/2,); any other shape raises ValueError.  The folded
    operator applies its even or odd block; the spectral one keeps the
    first n/2 values of `apply` on the mirrored vector.
    """
    v = np.asarray(v, dtype=float)
    half = op.grid.n // 2
    if v.shape != (half,):
        raise ValueError("v must have shape (n/2,), one value per left-half node")
    if isinstance(op, SpectralOperator):
        return apply(op, _mirror(v, odd))[:half]
    return _slab_apply(op.odd if odd else op.even, op.grid.weights[:half], v)


def apply(op: Operator, v: np.ndarray) -> np.ndarray:
    """Apply the discretized integral operator to node values.

    v is one vector of node values, shape (n,); any other shape raises
    ValueError.  The folded operator applies v's mirror-even and mirror-odd
    parts by `apply_sector`.  The spectral one extends v oddly to
    [v, -v reversed], runs a long-double rfft of length 2n, scales Fourier
    mode k = 1..n, sine mode k, by symbol[k - 1] and the mean by 0, and
    returns the first n values of the irfft in float64.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (op.grid.n,):
        raise ValueError("v must have shape (n,), one value per node")
    if isinstance(op, SpectralOperator):
        n = op.grid.n
        coef = np.fft.rfft(np.concatenate([v, -v[::-1]], dtype=np.longdouble))
        coef[0] = 0.0  # the mean, which no sine mode has
        coef[1:] *= op.symbol
        return np.fft.irfft(coef, 2 * n)[:n].astype(float)
    left, right = v[:op.grid.n // 2], v[op.grid.n // 2:][::-1]
    ee = apply_sector(op, 0.5 * (left + right))
    oo = apply_sector(op, 0.5 * (left - right), odd=True)
    return np.concatenate([ee + oo, (ee - oo)[::-1]])


def entries(op: Operator, i, j) -> np.ndarray:
    """The matrix entries A[i, j] at index arrays i, j, from the rule that defines them.

    No column is applied and no stored block is read.  A folded operator
    commutes with the flip, so a right-half row i is read as the entry
    (n-1-i, n-1-j).  A left-row entry is w_j times its kernel value: the
    value band[i, j - i + _NEAR_BAND] of `_corrected_band` (the diagonal
    cell and the Gauss cells) when |j - i| <= _NEAR_BAND, or else the
    envelope at the nodes, with r = 1 placed at the band's positions, as
    `_fold` does, so r = 0 never reaches the envelope.  These are the
    values `_fold` combines into its blocks, to within a few ulps: numpy's
    pow can round differently at another array position.  The spectral
    operator is `apply`'s 2n-point circulant restricted to the first n
    points, Toeplitz minus Hankel: A[i, j] = c[|i - j|] - c[i + j + 1],
    with c the circulant's first column, the long-double irfft of
    [0, symbol].
    """
    n = op.grid.n
    if isinstance(op, SpectralOperator):
        c = np.fft.irfft(np.concatenate([[0.0], op.symbol], dtype=np.longdouble), 2 * n)
        return (c[np.abs(i - j)] - c[i + j + 1]).astype(float)
    flip = i >= n // 2
    i, j = np.where(flip, n - 1 - i, i), np.where(flip, n - 1 - j, j)
    band, _ = _corrected_band(op.params, op.grid)
    k = _NEAR_BAND
    near = np.abs(j - i) <= k  # j lies in the grid, so the band holds (i, j)
    x, d = op.grid.nodes, op.grid.delta
    r = np.where(near, 1.0, np.abs(x[i] - x[j]))
    g = np.where(near, band[i, np.clip(j - i + k, 0, 2 * k)], _envelope(r, d[i], d[j], op.params))
    return g * op.grid.weights[j]


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
    square; acceptance criterion 11 checks the synthetic kernel so) or an
    operator, whose entries divided by the quadrature weights estimate
    kernel values at node pairs (`verify-kernel`, on either backend).  The
    sampled entries are evaluated by `entries` from the rule that defines
    them, in O(n_samples + n) memory, without applying the operator or
    reading its stored blocks.
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
