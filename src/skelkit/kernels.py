"""Green's-function kernel blocks for the Laplace and Helmholtz equations.

Conventions:
    2D Laplace    G(x,y) = -log|x-y| / (2 pi)
    3D Laplace    G(x,y) = 1 / (4 pi |x-y|)
    2D Helmholtz  G(x,y) = (i/4) H0^(1)(k |x-y|)
    3D Helmholtz  G(x,y) = exp(i k |x-y|) / (4 pi |x-y|)

``layer="double"`` evaluates dG/dnu_y (normal derivative at the source).
If the source set carries quadrature weights, column j of every block is
scaled by w_j, so a block times a density vector is a quadrature sum.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import InvalidInput
from .geom import PointSet

# targets closer to a source than this times max(extent of either set,
# largest |coordinate| of either set, 1) count as coincident and are handled
# by the self-interaction policy; the threshold is symmetric in targets and
# sources, so single-layer blocks transpose bit for bit
COINCIDENT_RTOL = 1e-14


@dataclass(frozen=True)
class KernelSpec:
    equation: str                   # "laplace" | "helmholtz"
    dim: int                        # 2 | 3
    layer: str = "single"           # "single" | "double"
    wavenumber: float = 0.0
    self_interaction: str = "zero"  # "zero" | "curvature_limit"

    def __post_init__(self):
        if self.equation not in ("laplace", "helmholtz"):
            raise InvalidInput(f"unknown equation {self.equation!r}")
        if self.dim not in (2, 3):
            raise InvalidInput("dim must be 2 or 3")
        if self.layer not in ("single", "double"):
            raise InvalidInput(f"unknown layer {self.layer!r}")
        if self.self_interaction not in ("zero", "curvature_limit"):
            raise InvalidInput(f"unknown self_interaction {self.self_interaction!r}")
        if self.equation == "helmholtz" and not self.wavenumber > 0:
            raise InvalidInput("helmholtz requires wavenumber > 0")
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
        return KernelSpec(self.equation, self.dim, "single", self.wavenumber,
                          self.self_interaction)


def bessel_h0(z):
    """Zeroth-order Hankel function of the first kind, J0(z) + i Y0(z).

    Accepts a positive scalar or array; relative accuracy ~1e-15 over
    (0, 700] (Cephes via scipy).  Y0 blows up at 0, so z <= 0 is rejected.
    """
    z = np.asarray(z, dtype=np.float64)
    if not np.all(z > 0):
        raise InvalidInput("bessel_h0 requires z > 0 (Y0 is singular at 0)")
    out = sp.j0(z) + 1j * sp.y0(z)
    return complex(out) if out.ndim == 0 else out


# evaluate a block in row chunks of roughly this many entries
_CHUNK_ENTRIES = 4_000_000

# the order in which einsum sums the axes of a 2- or 3-term contraction
_AXIS_ORDER = {2: (0, 1), 3: (0, 2, 1)}


def eval_block(spec: KernelSpec, targets: PointSet, sources: PointSet) -> np.ndarray:
    """Dense m x n kernel block G(x_i, y_j) (or dG/dnu_y for double layer).

    Coincident pairs (distance below 1e-14 times the largest of the extent
    of either set, the largest |coordinate| of either set, and 1) are set by
    ``spec.self_interaction``: "zero", or "curvature_limit" which fills
    -kappa/(4 pi) (2D Laplace double layer smooth limit; the curvature
    comes from ``sources.curvatures``).  The threshold is symmetric in
    targets and sources, so a single-layer block of unweighted sources
    equals the transpose of the swapped block bit for bit.
    """
    if targets.dim != spec.dim or sources.dim != spec.dim:
        raise InvalidInput(
            f"dimension mismatch: spec is {spec.dim}D, targets {targets.dim}D, "
            f"sources {sources.dim}D")
    if spec.layer == "double" and sources.normals is None:
        raise InvalidInput("double layer needs source normals")

    # one coincidence scale for the whole block, however it is chunked
    span = max(*_extent(targets.coords), *_extent(sources.coords), 1.0)
    m, n = targets.n, sources.n
    rows_per_chunk = max(1, _CHUNK_ENTRIES // max(n, 1))
    if m <= rows_per_chunk:
        return _block_rows(spec, targets.coords, sources, span)
    out = np.empty((m, n), dtype=spec.dtype)
    for lo in range(0, m, rows_per_chunk):
        hi = min(lo + rows_per_chunk, m)
        out[lo:hi] = _block_rows(spec, targets.coords[lo:hi], sources, span)
    return out


def _extent(coords):
    """(largest per-axis extent, largest |coordinate|) of a point set, read
    off its per-axis minimum and maximum; the same bits as ``np.ptp`` and
    ``np.abs`` over all of it."""
    lo, hi = coords.min(axis=0).tolist(), coords.max(axis=0).tolist()
    return max(h - l for l, h in zip(lo, hi)), max(max(hi), -min(lo))


def _block_rows(spec, x, sources, span):
    """The rows of ``eval_block`` at target coordinates ``x``; pairs closer
    than COINCIDENT_RTOL * span are coincident.

    Every step writes into an array that is already there (``out=`` and
    in-place operators), with the operands in the order of the plain
    formulas written in the comments, so the entries are theirs bit for bit
    from a few arrays of the block's shape instead of one per operation."""
    # r2 and, for the double layer, xdot[i,j] = (x_i - y_j) . nu_j (nu the
    # source normal) are summed axis by axis through one scratch array, with
    # no (rows x cols x dim) difference tensor, adding the axes in einsum's
    # order.  r2 starts at the first axis's d*d, equal to einsum's 0 + d*d
    # since d*d is never -0; xdot starts from +0 like einsum, since its
    # signed zeros show
    y = sources.coords
    first, *rest = _AXIS_ORDER[spec.dim]
    d = np.empty((x.shape[0], y.shape[0]))
    r2 = np.subtract(x[:, first, None], y[:, first], out=np.empty_like(d))
    r2 *= r2
    for ax in rest:
        np.subtract(x[:, ax, None], y[:, ax], out=d)
        d *= d
        r2 += d
    xdot = None
    if spec.layer == "double":
        xdot = np.zeros_like(d)
        for ax in _AXIS_ORDER[spec.dim]:
            np.subtract(x[:, ax, None], y[:, ax], out=d)
            d *= sources.normals[:, ax]
            xdot += d
    coincident = r2 < (COINCIDENT_RTOL * span) ** 2
    if coincident.any():
        np.putmask(r2, coincident, 1.0)  # safe squared radius, overwritten below
    else:
        coincident = None

    # ndot = (y - x) . nu = -xdot; -(-xdot) is xdot bit for bit
    k = spec.wavenumber
    if spec.equation == "laplace" and spec.dim == 2:
        if spec.layer == "single":
            # from r^2 directly: -log(r)/(2 pi) = -log(r^2)/(4 pi), no sqrt
            block = np.log(r2, out=r2)
            block *= -0.25 / np.pi
        else:
            # -ndot / (2 pi r2)
            r2 *= 2 * np.pi
            block = np.divide(xdot, r2, out=xdot)
    else:
        rs = np.sqrt(r2, out=r2)
        if spec.layer == "single":
            if spec.equation == "laplace":
                # 1 / (4 pi rs)
                rs *= 4 * np.pi
                block = np.divide(1.0, rs, out=rs)
            elif spec.dim == 2:
                # 0.25j * (j0(k rs) + 1j * y0(k rs))
                kr = np.multiply(k, rs, out=rs)
                block = np.multiply(1j, sp.y0(kr, out=d))
                block += sp.j0(kr, out=d)
                np.multiply(0.25j, block, out=block)
            else:
                # exp(1j k rs) / (4 pi rs)
                block = np.exp(np.multiply(1j * k, rs))
                rs *= 4 * np.pi
                block /= rs
        elif spec.equation == "laplace":
            # grad_y |x-y|^{-1} = (x-y)/r^3, so dG/dnu_y = -ndot / (4 pi rs^3)
            r3 = np.power(rs, 3, out=rs)
            r3 *= 4 * np.pi
            block = np.divide(xdot, r3, out=xdot)
        elif spec.dim == 2:
            # -0.25j k (j1(k rs) + 1j * y1(k rs)) * ndot / rs
            kr = np.multiply(k, rs, out=d)
            block = np.multiply(1j, sp.y1(kr))
            block += sp.j1(kr, out=d)
            np.multiply(-0.25j * k, block, out=block)
            block *= np.negative(xdot, out=xdot)
            block /= rs
        else:
            # exp(1j k rs) * (1j k rs - 1) / (4 pi rs rs) * ndot / rs
            ikr = np.multiply(1j * k, rs)
            block = np.exp(ikr)
            ikr -= 1.0
            block *= ikr
            del ikr
            rr = np.multiply(4 * np.pi, rs, out=d)
            rr *= rs
            block /= rr
            block *= np.negative(xdot, out=xdot)
            block /= rs

    if coincident is not None:
        if spec.self_interaction == "zero":
            fill = 0.0
        else:
            if spec.equation != "laplace" or spec.dim != 2 or spec.layer != "double":
                raise InvalidInput("curvature_limit only defined for the 2D Laplace double layer")
            kappa = sources.curvatures
            if kappa is None:
                raise InvalidInput("curvature_limit needs source curvatures")
            fill = np.broadcast_to(-np.asarray(kappa) / (4 * np.pi), block.shape[1:])
        np.copyto(block, fill, where=coincident)

    if sources.weights is not None:
        block *= sources.weights
    return block
