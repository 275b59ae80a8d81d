"""Green's-function kernel blocks for the Laplace and Helmholtz equations.

Conventions:
    2D Laplace    G(x,y) = -log|x-y| / (2 pi)
    3D Laplace    G(x,y) = 1 / (4 pi |x-y|)
    2D Helmholtz  G(x,y) = (i/4) H0^(1)(k |x-y|)
    3D Helmholtz  G(x,y) = exp(i k |x-y|) / (4 pi |x-y|)

``layer="double"`` evaluates dG/dnu_y (normal derivative at the source).
If the source set carries quadrature weights, column j of every block is
scaled by w_j, so a block times a density vector is a quadrature sum
(``eval_fields`` leaves the weights to its caller).  Coincident pairs take
0: the limit there is a quadrature decision, which the curve systems of
``bie`` make when they add their diagonal.

The Bessel functions of the 2D Helmholtz kernel come from ``scipy.special``,
which loads on first use: the first 2D Helmholtz block or ``bessel_h0`` call.
A process that evaluates only the other kernels never loads it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .geom import PointSet, _positive, coincidence_scale

# targets closer to a source than this times the larger ``scale`` of the
# two point sets count as coincident and take 0; the threshold is symmetric
# in targets and sources, so single-layer blocks transpose bit for bit
COINCIDENT_RTOL = 1e-14


@dataclass(frozen=True)
class KernelSpec:
    equation: str                   # "laplace" | "helmholtz"
    dim: int                        # 2 | 3
    layer: str = "single"           # "single" | "double"
    wavenumber: float = 0.0

    def __post_init__(self):
        if self.equation not in ("laplace", "helmholtz"):
            raise InvalidInput(f"unknown equation {self.equation!r}")
        if self.dim not in (2, 3):
            raise InvalidInput("dim must be 2 or 3")
        if self.layer not in ("single", "double"):
            raise InvalidInput(f"unknown layer {self.layer!r}")
        if self.equation == "helmholtz":
            check_wavenumber(self.wavenumber)
        if self.equation == "laplace" and self.wavenumber != 0:
            raise InvalidInput("laplace requires wavenumber == 0")

    @property
    def scalar_field(self):
        return "complex" if self.equation == "helmholtz" else "real"

    @property
    def dtype(self):
        return np.complex128 if self.equation == "helmholtz" else np.float64

    def single_layer(self):
        """Same spec with layer forced to single (used for proxy surfaces)."""
        if self.layer == "single":
            return self
        return KernelSpec(self.equation, self.dim, "single", self.wavenumber)


def check_wavenumber(k):
    """Raise InvalidInput unless k is a finite positive real number.  A
    complex k is refused even with a zero imaginary part, and so is an
    infinite one, which would make every off-diagonal entry NaN."""
    if not _positive(k):
        raise InvalidInput(f"helmholtz requires a finite real wavenumber > 0, got {k!r}")


def _special():
    """``scipy.special``, imported on the first call (later calls find it in
    ``sys.modules``): it holds the Bessel functions of the 2D Helmholtz
    kernel and nothing else skelkit uses."""
    from scipy import special
    return special


def bessel_h0(z):
    """Zeroth-order Hankel function of the first kind, J0(z) + i Y0(z).

    Accepts a positive scalar or array; relative accuracy ~1e-15 over
    (0, 700] (Cephes via scipy).  Y0 blows up at 0, so z <= 0 is rejected.
    The first call loads ``scipy.special``.
    """
    z = np.asarray(z, dtype=np.float64)
    if not np.all(z > 0):
        raise InvalidInput("bessel_h0 requires z > 0 (Y0 is singular at 0)")
    sp = _special()
    out = sp.j0(z) + 1j * sp.y0(z)
    return complex(out) if out.ndim == 0 else out


# evaluate a block in row chunks of roughly this many entries
_CHUNK_ENTRIES = 4_000_000

# the order in which einsum sums the axes of a 2- or 3-term contraction
_AXIS_ORDER = {2: (0, 1), 3: (0, 2, 1)}


def eval_block(spec: KernelSpec, targets: PointSet, sources: PointSet) -> np.ndarray:
    """Dense m x n kernel block G(x_i, y_j) (or dG/dnu_y for double layer).

    Coincident pairs (distance below 1e-14 times the larger ``scale`` of the
    two sets, which subsets take from the set they were cut from) are 0.
    Blocks between subsets of one set thus class each pair alike, whatever
    rows and columns they hold.  The
    threshold is symmetric in targets and sources, so a single-layer block
    of unweighted sources equals the transpose of the swapped block bit for
    bit.
    """
    return _evaluate(spec, targets, sources, pair=False)[0]


def eval_block_pair(spec: KernelSpec, a: PointSet, b: PointSet):
    """``(eval_block(spec, a, b), eval_block(spec, b, a))`` bit for bit, with
    the radial part of the kernel (the Hankel or exponential factor of
    Helmholtz) evaluated once for each pair of points.

    Both orientations share it exactly: (x - y)**2 and (y - x)**2 are the
    same bits, summed over the axes in the same order, and the coincidence
    scale, the larger of the two sets', is symmetric in them.  Only the
    normal and the weights, both of the source side, are per orientation.
    The second block is the transpose of an array laid out like the
    first."""
    ab, ba = _evaluate(spec, a, b, pair=True)
    return ab, ba.T


def eval_fields(spec: KernelSpec, targets, sources: PointSet, counts) -> np.ndarray:
    """The blocks of a group of target sets against consecutive runs of one
    source set, side by side, from one evaluation.

    ``targets`` is an (m, p, dim) array of m sets of p points, and
    ``counts[g]`` the length of run g of ``sources``.  The columns of run g
    are eval_block(spec, PointSet(targets[g]), run g) bit for bit, but for
    the sources' weights, which are left to the caller: each target set is
    classed for coincidence against its own scale, as a PointSet built from
    it would be, and the sources'.  The p x n result is column-major: it is
    evaluated transposed, a source per row, so that each run's columns are
    contiguous, as the column-major ID targets that take them.
    ``skel.compress_source`` evaluates the proxy fields of a group of nodes
    with one call."""
    m, p, dim = np.shape(targets)
    _check_operands(spec, dim, sources)
    n = sources.n
    if p < 1 or len(counts) != m or sum(counts) != n or min(counts, default=0) < 0:
        raise InvalidInput(f"{m} target sets of {p} points with runs {list(counts)} "
                           f"of {n} sources")
    # the sets axis by axis, (dim, m, p), where each reduction and gather
    # reads rows
    t = np.ascontiguousarray(np.transpose(targets, (2, 0, 1)), dtype=np.float64)
    limit = np.array([(COINCIDENT_RTOL * max(s, sources.scale)) ** 2 for s in
                      coincidence_scale(t.min(axis=2).T, t.max(axis=2).T).tolist()])
    if m > 1:
        runs = np.repeat(np.arange(m), counts)
        t, limit = t[:, runs], limit[runs]
    # each source row's own target set (one set is read for every row),
    # laid out so that each axis of x is contiguous along the row
    x = np.broadcast_to(t.transpose(1, 2, 0), (n, p, dim))
    limit = np.broadcast_to(limit[:, None], (n, 1))
    y = sources.coords[:, None]
    step = max(1, _CHUNK_ENTRIES // p)
    out = np.empty((n, p), dtype=spec.dtype) if n > step else None
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        f, rs, coincident, d = _radial(spec, x[rows], y[rows], limit[rows])
        blk = _finish(spec, f, rs, coincident, d, x[rows], sources, rows, False)
        if out is None:
            return blk.T
        out[rows] = blk
    return out.T


def _evaluate(spec, a, b, pair):
    """(eval_block(spec, a, b), the transpose of eval_block(spec, b, a) if
    ``pair`` else None), in row chunks of a."""
    _check_operands(spec, a.dim, b)
    if pair:
        _check_operands(spec, b.dim, a)
    limit = (COINCIDENT_RTOL * max(a.scale, b.scale)) ** 2
    m, n = a.n, b.n
    rows_per_chunk = max(1, _CHUNK_ENTRIES // max(n, 1))
    if m <= rows_per_chunk:
        return _block_rows(spec, a, b, slice(None), limit, pair)
    ab = np.empty((m, n), dtype=spec.dtype)
    ba = np.empty((m, n), dtype=spec.dtype) if pair else None
    for lo in range(0, m, rows_per_chunk):
        rows = slice(lo, min(lo + rows_per_chunk, m))
        ab[rows], ba_rows = _block_rows(spec, a, b, rows, limit, pair)
        if pair:
            ba[rows] = ba_rows
    return ab, ba


def _check_operands(spec, target_dim, sources):
    if target_dim != spec.dim or sources.dim != spec.dim:
        raise InvalidInput(
            f"dimension mismatch: spec is {spec.dim}D, targets {target_dim}D, "
            f"sources {sources.dim}D")
    if spec.layer == "double" and sources.normals is None:
        raise InvalidInput("double layer needs source normals")


def _along(arr, rows):
    """A per-point array of the source set laid along the columns of a
    block (``rows`` None) or, cut to the slice ``rows``, along its rows."""
    return arr if rows is None else arr[rows, None]


def _block_rows(spec, a, b, rows, limit, pair):
    """Rows ``rows`` of eval_block(spec, a, b) and, if ``pair``, the same
    rows of the transpose of eval_block(spec, b, a) (else None); pairs
    whose squared distance is below ``limit`` are coincident.  The second
    is finished first, from a copy, since the first may overwrite the
    shared factor."""
    x = a.coords[rows, None]
    f, rs, coincident, d = _radial(spec, x, b.coords, limit)
    ba = (_weighted(_finish(spec, f, rs, coincident, d, b.coords, a, rows, True), a, rows)
          if pair else None)
    return _weighted(_finish(spec, f, rs, coincident, d, x, b, None, False), b, None), ba


def _radial(spec, x, y, limit):
    """The part of a block that is the same in both orientations: the
    radial factor of the kernel at each pair of target coordinates ``x``
    and source coordinates ``y``, arrays whose last axis is the point's and
    whose others broadcast to the block's shape (a target per row and a
    source per column, or in ``eval_fields`` a source per row and its
    target set along it), with the pairs whose squared distance is below
    ``limit`` (a number, or an array that broadcasts likewise) marked
    coincident.  Returns (f, rs, coincident, scratch):
    the whole block for the single layer, the denominator for the Laplace
    double layer, dG/drs for the Helmholtz double layer; rs, the distances,
    where the finish needs them; the mask, or None if no pair coincides;
    and a scratch array of the block's shape.

    Every step writes into an array that is already there (``out=`` and
    in-place operators), with the operands in the order of the plain
    formulas written in the comments, so the entries are theirs bit for bit
    from a few arrays of the block's shape instead of one per operation."""
    # r2 is summed axis by axis through one scratch array, with no
    # (rows x cols x dim) difference tensor, adding the axes in einsum's
    # order.  It starts at the first axis's d*d, equal to einsum's 0 + d*d
    # since d*d is never -0
    first, *rest = _AXIS_ORDER[spec.dim]
    r2 = np.subtract(x[..., first], y[..., first])
    d = np.empty_like(r2)
    r2 *= r2
    for ax in rest:
        np.subtract(x[..., ax], y[..., ax], out=d)
        d *= d
        r2 += d
    coincident = r2 < limit
    if coincident.any():
        np.putmask(r2, coincident, 1.0)  # safe squared radius, overwritten below
    else:
        coincident = None

    k = spec.wavenumber
    rs = None
    if spec.equation == "laplace" and spec.dim == 2:
        if spec.layer == "single":
            # from r^2 directly: -log(r)/(2 pi) = -log(r^2)/(4 pi), no sqrt
            f = np.log(r2, out=r2)
            f *= -0.25 / np.pi
        else:
            # the 2 pi r2 of -ndot / (2 pi r2)
            f = r2
            f *= 2 * np.pi
    else:
        rs = np.sqrt(r2, out=r2)
        if spec.layer == "single":
            if spec.equation == "laplace":
                # 1 / (4 pi rs)
                rs *= 4 * np.pi
                f = np.divide(1.0, rs, out=rs)
            elif spec.dim == 2:
                # 0.25j * (j0(k rs) + 1j * y0(k rs))
                kr = np.multiply(k, rs, out=rs)
                sp = _special()
                f = np.multiply(1j, sp.y0(kr, out=d))
                f += sp.j0(kr, out=d)
                np.multiply(0.25j, f, out=f)
            else:
                # exp(1j k rs) / (4 pi rs)
                f = np.exp(np.multiply(1j * k, rs))
                rs *= 4 * np.pi
                f /= rs
            rs = None
        elif spec.equation == "laplace":
            # grad_y |x-y|^{-1} = (x-y)/r^3, so dG/dnu_y = -ndot / (4 pi rs^3):
            # the 4 pi rs^3
            f = np.power(rs, 3, out=rs)
            f *= 4 * np.pi
            rs = None
        elif spec.dim == 2:
            # -0.25j k (j1(k rs) + 1j * y1(k rs)) of dG/drs * ndot / rs
            kr = np.multiply(k, rs, out=d)
            sp = _special()
            f = np.multiply(1j, sp.y1(kr))
            f += sp.j1(kr, out=d)
            np.multiply(-0.25j * k, f, out=f)
        else:
            # exp(1j k rs) * (1j k rs - 1) / (4 pi rs rs) of dG/drs * ndot / rs
            ikr = np.multiply(1j * k, rs)
            f = np.exp(ikr)
            ikr -= 1.0
            f *= ikr
            del ikr
            rr = np.multiply(4 * np.pi, rs, out=d)
            rr *= rs
            f /= rr
    return f, rs, coincident, d


def _finish(spec, f, rs, coincident, d, x, sources, rows, copy):
    """One orientation's block, without the source weights, from
    ``_radial``'s output: target coordinates ``x`` and the source set laid
    out as ``_along(..., rows)`` says.  The block is written over f unless
    ``copy``; d is scratch."""
    if spec.layer == "double":
        # xdot[i,j] = (x_i - y_j) . nu_j (nu the source normal), summed axis
        # by axis in einsum's order from +0 like einsum, since its signed
        # zeros show: the first axis's term plus 0.0 is einsum's 0 + term
        y, nu = _along(sources.coords, rows), _along(sources.normals, rows)
        first, *rest = _AXIS_ORDER[spec.dim]
        xdot = np.subtract(x[..., first], y[..., first], out=np.empty_like(d))
        xdot *= nu[..., first]
        xdot += 0.0
        for ax in rest:
            np.subtract(x[..., ax], y[..., ax], out=d)
            d *= nu[..., ax]
            xdot += d
        # ndot = (y - x) . nu = -xdot; -(-xdot) is xdot bit for bit
        if spec.equation == "laplace":
            # -ndot / (2 pi r2) in 2D, -ndot / (4 pi rs^3) in 3D
            block = np.divide(xdot, f, out=xdot)
        else:
            # dG/drs * ndot / rs
            ndot = np.negative(xdot, out=xdot)
            block = np.multiply(f, ndot, out=None if copy else f)
            block /= rs
    else:
        block = f.copy() if copy else f

    if coincident is not None:
        np.copyto(block, 0.0, where=coincident)
    return block


def _weighted(block, sources, rows):
    """``block`` with the source weights laid out as ``_along(..., rows)``
    says applied in place."""
    if sources.weights is not None:
        block *= _along(sources.weights, rows)
    return block
