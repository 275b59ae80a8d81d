"""Second-kind boundary integral equations on smooth closed 2D curves.

Interior Dirichlet problems use the double-layer representation, giving

    -sigma(x)/2 + int_dOmega dG/dnu_y (x,y) sigma(y) ds(y) = f(x).

Laplace systems are discretized with the plain trapezoidal rule (the kernel
is smooth on a smooth curve; the diagonal takes the limit -kappa/(4 pi)).
Helmholtz kernels are weakly singular, so the trapezoidal rule is corrected
with tenth-order Kapur-Rokhlin endpoint weights.  A multiple-scattering
driver (sound-hard obstacles, single-layer representation) provides the
block system and per-scatterer direct-solver preconditioners.  Kernels put
0 on coincident pairs; each curve system holds its own diagonal, which
``compress_system`` adds once to the compressed matrix.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyWarning, InvalidInput
from .geom import PointSet, _finite, _index, _positive, build_tree
from .kernels import KernelSpec, check_wavenumber, eval_block, eval_block_pair
from .skel import KernelSource, ProxyConfig, _offsets, add_diagonal, compress_source
from .solver import factor, solve

# Two-sided Kapur-Rokhlin correction weights of order 10 for integrands of
# the form phi(x) log|x| + psi(x) (Kapur & Rokhlin, SIAM J. Numer. Anal.
# 34(4), 1997; the widely reproduced ten-weight table).  The corrected rule
# drops the singular node and reweights the ten nearest nodes on each side
# by (1 + gamma_l).  Validated by the convergence test in the test suite.
KR10_GAMMA = np.array([
    7.832432020568779e+00,
    -4.565161670374749e+01,
    1.452168846354677e+02,
    -2.901348302886379e+02,
    3.870862162579900e+02,
    -3.523821383570681e+02,
    2.172421547519342e+02,
    -8.707796087382991e+01,
    2.053584266072635e+01,
    -2.166984103403823e+00,
])


@dataclass
class Curve2D:
    """Closed smooth curve sampled at n equispaced parameter values.

    Carries everything the Nystrom discretization needs: positions, unit
    outward normals, signed curvature, and arclength weights |x'| * 2pi/n.
    """

    t: np.ndarray
    xy: np.ndarray
    normals: np.ndarray
    curvature: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("xy", "normals", "curvature", "weights"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidInput(f"curve {name} must be finite")
        if np.any(self.weights <= 0):
            raise InvalidInput("curve weights must be positive")

    @property
    def n(self):
        return self.xy.shape[0]

    def point_set(self):
        return PointSet(self.xy, self.normals, self.weights)

    def node_spacing(self):
        return float(self.weights.max())

    def diameter(self):
        lo = self.xy.min(axis=0)
        hi = self.xy.max(axis=0)
        return float(np.linalg.norm(hi - lo))


def ellipse(a, b, n) -> Curve2D:
    """Ellipse with semi-axes a, b, counterclockwise, n nodes."""
    n = _index(n, "n")
    if not (_positive(a) and _positive(b)) or n < 4:
        raise InvalidInput("need finite positive semi-axes and n >= 4")
    t = 2 * np.pi * np.arange(n) / n
    xy = np.column_stack([a * np.cos(t), b * np.sin(t)])
    speed = np.sqrt((a * np.sin(t)) ** 2 + (b * np.cos(t)) ** 2)
    normals = np.column_stack([b * np.cos(t), a * np.sin(t)]) / speed[:, None]
    curvature = a * b / speed ** 3
    weights = speed * (2 * np.pi / n)
    return Curve2D(t, xy, normals, curvature, weights)


def circle(radius, n) -> Curve2D:
    return ellipse(radius, radius, n)


def trefoil(n, center=(0.0, 0.0), scale=1.0) -> Curve2D:
    """Three-lobed curve r(theta) = (2 + cos 3 theta)/6, counterclockwise,
    scaled by ``scale`` > 0 about ``center``."""
    n = _index(n, "n")
    if n < 8:
        raise InvalidInput("need n >= 8")
    if not _positive(scale):
        raise InvalidInput(f"trefoil scale must be finite and positive, got {scale}")
    center = _finite_pair(center, "trefoil center")
    t = 2 * np.pi * np.arange(n) / n
    r = (2 + np.cos(3 * t)) / 6
    dr = -np.sin(3 * t) / 2
    ddr = -1.5 * np.cos(3 * t)
    c, s = np.cos(t), np.sin(t)
    xy = center + scale * r[:, None] * np.column_stack([c, s])
    dx = scale * (dr * c - r * s)
    dy = scale * (dr * s + r * c)
    speed = np.hypot(dx, dy)
    normals = np.column_stack([dy, -dx]) / speed[:, None]
    curvature = (r * r + 2 * dr * dr - r * ddr) / (r * r + dr * dr) ** 1.5 / scale
    weights = speed * (2 * np.pi / n)
    return Curve2D(t, xy, normals, curvature, weights)


def _finite_pair(value, what):
    """``value`` as a float64 pair, or InvalidInput naming ``what`` unless
    it is two finite reals: np.asarray would read True and "1" as 1.0."""
    try:
        pair = len(value) == 2 and all(map(_finite, value))
    except TypeError:
        pair = False
    if not pair:
        raise InvalidInput(f"{what} must be two finite coordinates, got {value!r}")
    return np.asarray(value, dtype=np.float64)


def _windings(curve: Curve2D, points) -> np.ndarray:
    """Winding of the sampled curve around each of the m x 2 ``points``, in
    one broadcast over points and nodes."""
    d = curve.xy[None] - np.asarray(points)[:, None]
    ang = np.arctan2(d[..., 1], d[..., 0])
    dang = np.diff(ang, axis=1, append=ang[:, :1])
    dang = (dang + np.pi) % (2 * np.pi) - np.pi
    return np.round(dang.sum(axis=1) / (2 * np.pi)).astype(int)


def winding_number(curve: Curve2D, point) -> int:
    """Winding of the sampled curve around a point (1 inside a CCW curve).
    A point that is not two finite coordinates raises InvalidInput."""
    return int(_windings(curve, _finite_pair(point, "point")[None])[0])


def contains(curve: Curve2D, point) -> bool:
    return winding_number(curve, point) != 0


def _cyclic_distance(i, j, n):
    d = np.abs(i[:, None] - j[None, :])
    return np.minimum(d, n - d)


def _kr_correct(blk, dist):
    """``blk`` with the Kapur-Rokhlin weights 1 + gamma_d applied to node
    pairs at cyclic distance d = 1..10."""
    near = (dist >= 1) & (dist <= KR10_GAMMA.size)
    if not np.any(near):
        return blk
    return blk * np.where(near, 1.0 + KR10_GAMMA[np.minimum(dist, KR10_GAMMA.size) - 1], 1.0)


def _add_diagonal(blk, rows, cols, diagonal):
    """``blk`` plus ``diagonal[j]`` where the row and the column are the
    same node j, as a new array."""
    return blk + np.where(rows[:, None] == cols[None, :], diagonal[cols], 0.0)


def _nodes(idx, n):
    """``idx`` as an array of node indices, or InvalidInput unless it is a
    1-D array of integers in [0, n): a negative index would miss its
    coincident pair's diagonal, and a bool mask would select rows."""
    idx = np.asarray(idx)
    if idx.ndim != 1 or idx.dtype.kind not in "iu" or (
            idx.size and not 0 <= idx.min() <= idx.max() < n):
        raise InvalidInput(f"node indices must be a 1-D array of integers in [0, {n}), "
                           f"got {idx.dtype} of shape {idx.shape}")
    return idx


@dataclass
class BieSystem:
    """Discretized second-kind system: entries K(x_i, x_j) w_j off the
    diagonal (Kapur-Rokhlin reweighted near it for Helmholtz) and
    ``diagonal``, -1/2 (+ w_i times the smooth limit -kappa_i/(4 pi),
    Laplace), on it.  ``block`` gives the entries between nodes with the
    diagonal, ``kernel_block`` without it; both are deterministic and
    side-effect free."""

    spec: KernelSpec
    curve: Curve2D
    # the incoming proxy field is the single layer of spec; a class
    # attribute, not a dataclass field
    incoming = None

    def __post_init__(self):
        self.points = self.curve.point_set()
        if self.spec.equation == "laplace":
            self.diagonal = -self.curve.curvature / (4 * np.pi) * self.curve.weights - 0.5
        else:
            self.diagonal = np.full(self.n, -0.5)

    @property
    def n(self):
        return self.curve.n

    @property
    def dtype(self):
        return self.spec.dtype

    def kernel_block(self, rows, cols):
        base = eval_block(self.spec, self.points.subset(rows), self.points.subset(cols))
        if self.spec.equation == "helmholtz":
            base = _kr_correct(base, _cyclic_distance(rows, cols, self.n))
        return base

    def block(self, rows, cols):
        rows, cols = _nodes(rows, self.n), _nodes(cols, self.n)
        return _add_diagonal(self.kernel_block(rows, cols), rows, cols, self.diagonal)

    def matrix(self):
        idx = np.arange(self.n)
        return self.block(idx, idx)


def discretize_dirichlet(curve: Curve2D, spec: KernelSpec) -> BieSystem:
    """Nystrom system for the interior Dirichlet problem on ``curve``.

    The quadrature follows the equation.  Laplace takes the plain
    trapezoidal rule (smooth kernel; diagonal -1/2 + w * (-kappa/(4 pi))).
    Helmholtz is weakly singular and takes the tenth-order Kapur-Rokhlin
    corrected rule with a bare -1/2 diagonal.
    """
    _planar(spec)
    if spec.equation == "laplace":
        spec = KernelSpec("laplace", 2, "double")
    else:
        spec = KernelSpec("helmholtz", 2, "double", spec.wavenumber)
    return BieSystem(spec=spec, curve=curve)


def point_source_data(curve: Curve2D, source, spec: KernelSpec) -> np.ndarray:
    """Dirichlet data on the curve from an exterior unit point source:
    f_i = G(x_i, source)."""
    _planar(spec)
    source = _finite_pair(source, "point source")
    if contains(curve, source):
        raise InvalidInput("point source must lie strictly outside the domain")
    sspec = KernelSpec(spec.equation, 2, "single", spec.wavenumber)
    tgt = PointSet(curve.xy)
    src = PointSet(source.reshape(1, 2))
    return eval_block(sspec, tgt, src)[:, 0]


def _planar(spec):
    """InvalidInput unless ``spec`` is a 2D kernel, as a curve's is."""
    if spec.dim != 2:
        raise InvalidInput(f"a curve takes a 2D kernel, got a {spec.dim}D {spec.equation} kernel")


def _density(curve, density):
    """``density`` as an array with one row per node of ``curve``."""
    density = np.asarray(density)
    if density.shape[:1] != (curve.n,):
        raise InvalidInput(f"density of length {len(np.atleast_1d(density))} "
                           f"on a curve of {curve.n} nodes")
    return density


def eval_interior(curve: Curve2D, density, spec: KernelSpec, targets) -> np.ndarray:
    """Double-layer potential of ``density`` at interior targets via the
    trapezoidal rule.  Targets within two node spacings of the curve get an
    AccuracyWarning (the result is returned regardless)."""
    _planar(spec)
    density = _density(curve, density)
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    for p in targets:
        if not contains(curve, p):
            raise InvalidInput(f"target {p} is not interior")
    dists = np.min(np.linalg.norm(curve.xy[None, :, :] - targets[:, None, :], axis=2), axis=1)
    if np.any(dists < 2 * curve.node_spacing()):
        warnings.warn("target within 2 node spacings of the boundary; "
                      "quadrature accuracy degrades near the curve", AccuracyWarning)
    dspec = KernelSpec(spec.equation, 2, "double", spec.wavenumber)
    block = eval_block(dspec, PointSet(targets), curve.point_set())
    return block @ density


def compress_system(system, eps, max_leaf_size=None,
                    proxy: ProxyConfig | None = None, mode="proxy"):
    """Build a tree over the nodes of a curve system and skeletonize its
    matrix.  Returns (tree, CompressedMatrix).

    A curve system is a ``BieSystem``, such as one scatterer of a
    ``ScatteringSystem``: its ``points``, ``spec``,
    ``kernel_block(rows, cols)``, its entries between node indices without
    the diagonal, its ``diagonal`` of n values, and ``incoming``: None where
    its incoming proxy field is the single layer of ``spec``, else the
    ``KernelSpec`` whose block from the nodes to the proxy surface is that
    field transposed (the scatterer's Neumann trace is the Helmholtz
    double layer).  The system is handed to ``compress_source`` as a
    ``KernelSource`` in node order; the tree owns the order in which it is
    compressed.  ``KernelSource`` takes the proxy fields of a group of
    nodes at once, and scales the incoming field by the mean quadrature
    weight of the nodes, like the weighted columns of the system.  The
    diagonal enters the compressed matrix once, by ``skel.add_diagonal``."""
    tree = build_tree(system.points, max_leaf_size)
    src = KernelSource(system.spec, system.points, block=system.kernel_block,
                       incoming=system.incoming)
    cm = compress_source(src, tree, eps, proxy=proxy, mode=mode)
    add_diagonal(cm, system.diagonal)
    return tree, cm


def solve_dirichlet(system: BieSystem, rhs, eps, max_leaf_size=None):
    """Convenience driver: compress, factor, solve.  Returns (density, cm, fi)."""
    _, cm = compress_system(system, eps, max_leaf_size)
    fi = factor(cm)
    return solve(fi, rhs), cm, fi


def write_density_csv(path, curve: Curve2D, density):
    """Solution density along a curve as CSV: t, x, y, re(sigma), im(sigma).
    A density that is not one value per node raises InvalidInput before the
    file is opened."""
    density = _density(curve, density)
    if density.ndim != 1:
        raise InvalidInput(f"density of shape {density.shape}: one value per node is written")
    with open(path, "w") as f:
        f.write("t,x,y,sigma_re,sigma_im\n")
        for i in range(curve.n):
            f.write(f"{curve.t[i]:.17g},{curve.xy[i, 0]:.17g},{curve.xy[i, 1]:.17g},"
                    f"{np.real(density[i]):.17g},{np.imag(density[i]):.17g}\n")


def write_field_csv(path, points, values):
    """Potential field samples as CSV: x, y, re(u), im(u).  Anything but
    (m, 2) points with m values raises InvalidInput."""
    points = np.atleast_2d(np.asarray(points))
    values = np.asarray(values)
    if points.ndim != 2 or points.shape[1] != 2 or values.shape != points.shape[:1]:
        raise InvalidInput(f"points of shape {points.shape} with values of shape {values.shape}")
    with open(path, "w") as f:
        f.write("x,y,u_re,u_im\n")
        for p, v in zip(points, values):
            f.write(f"{p[0]:.17g},{p[1]:.17g},{np.real(v):.17g},{np.imag(v):.17g}\n")


# ---------------------------------------------------------------------------
# multiple scattering: sound-hard obstacles, single-layer representation

def _neumann_trace_block(k, targets: PointSet, sources: PointSet,
                         kr_dist=None) -> np.ndarray:
    """d/dnu_x of the 2D Helmholtz single layer, scaled by source weights;
    coincident pairs are zero.  G is symmetric, so this is the double layer
    of ``eval_block`` with targets and sources swapped (the target normal
    becomes the source normal), transposed.  kr_dist, when given, is the
    cyclic node distance used for Kapur-Rokhlin reweighting."""
    dspec = KernelSpec("helmholtz", 2, "double", k)
    blk = eval_block(dspec, sources, PointSet(targets.coords, targets.normals)).T
    if kr_dist is not None:
        blk = _kr_correct(blk, kr_dist)
    if sources.weights is not None:
        blk = blk * sources.weights[None, :]
    return blk


def _neumann_trace_pair(k, a: PointSet, b: PointSet):
    """(_neumann_trace_block(k, a, b), _neumann_trace_block(k, b, a)) bit
    for bit, from one evaluation of the Hankel factor per pair of nodes."""
    dspec = KernelSpec("helmholtz", 2, "double", k)
    ba, ab = eval_block_pair(dspec, PointSet(b.coords, b.normals),
                             PointSet(a.coords, a.normals))
    ba, ab = ba.T, ab.T
    if b.weights is not None:
        ba = ba * b.weights[None, :]
    if a.weights is not None:
        ab = ab * a.weights[None, :]
    return ba, ab


class _Scatterer(BieSystem):
    """One sound-hard obstacle as a curve system: -1/2 plus the
    Kapur-Rokhlin corrected Neumann trace of the Helmholtz single layer.
    Its rows are Neumann traces, so its incoming proxy field is too: the
    double layer from the nodes to the proxy surface, transposed, as
    ``_neumann_trace_block`` evaluates it.  ``BieSystem`` gives it its
    points, its diagonal and ``block``."""

    def __init__(self, curve: Curve2D, k):
        self.k = k
        self.incoming = KernelSpec("helmholtz", 2, "double", k)
        super().__init__(spec=KernelSpec("helmholtz", 2, "single", k), curve=curve)

    def kernel_block(self, rows, cols):
        return _neumann_trace_block(self.k, self.points.subset(rows), self.points.subset(cols),
                                    kr_dist=_cyclic_distance(rows, cols, self.n))


def _translates(scatterers):
    """For each scatterer, the index of the representative of its shape: the
    first earlier representative it is a rigid translate of, or itself when
    there is none.  A translate has the same wavenumber and node count,
    bit-equal normals, weights and curvature, and node offsets
    ``xy - xy[0]`` equal to within 4 ulps of the largest coordinate.  The
    kernel is translation invariant, so its self-system is that of its
    representative.  Its cross blocks with another scatterer depend only on
    the two representatives and the offset between the two scatterers, to
    the same 4 ulps: ``matrix()`` evaluates them once per class of pairs
    (``_shared_pairs``), 4 pairs of 6 on a 2x2 grid and 24 of 120 on a 4x4
    grid, and a copy can differ from its own evaluation in the last bits."""
    reps = []
    for i, s in enumerate(scatterers):
        reps.append(i)
        for j in range(i):
            r = scatterers[j]
            if reps[j] != j or r.k != s.k or r.n != s.n:
                continue
            a, b = r.curve, s.curve
            if not (np.array_equal(a.normals, b.normals) and np.array_equal(a.weights, b.weights)
                    and np.array_equal(a.curvature, b.curvature)):
                continue
            ulp = np.spacing(max(np.abs(a.xy).max(), np.abs(b.xy).max()))
            if np.abs((a.xy - a.xy[0]) - (b.xy - b.xy[0])).max() <= 4 * ulp:
                reps[i] = j
                break
    return reps


def _shared_pairs(scatterers, reps):
    """For each pair i < j of scatterers, in order, the ordered pair (p, q)
    whose blocks K(p, q) and K(q, p) are K(i, j) and K(j, i): (i, j) itself
    when the pair is the first of its class.

    Two pairs share a class when their scatterers have the same
    representatives (``reps``, from ``_translates``) and their offsets
    ``xy_j[0] - xy_i[0]`` agree to within 4 ulps of the largest coordinate
    of the system.  A pair whose offset is the negative of an earlier one's,
    with the representatives swapped, takes that pair's blocks swapped."""
    m = len(scatterers)
    first = np.array([s.curve.xy[0] for s in scatterers])
    tol = 4 * np.spacing(max((np.abs(s.curve.xy).max() for s in scatterers), default=0.0))
    reps = np.asarray(reps)
    # the first pair of each class found so far, and its offset
    heads = np.empty((m * (m - 1) // 2, 2), dtype=np.intp)
    head_off = np.empty((len(heads), 2))
    count = 0
    shared = {}
    for i in range(m):
        for j in range(i + 1, m):
            d = first[j] - first[i]
            r = reps[heads[:count]]
            same = (r == (reps[i], reps[j])).all(1) & (np.abs(head_off[:count] - d).max(1) <= tol)
            swapped = ((r == (reps[j], reps[i])).all(1)
                       & (np.abs(head_off[:count] + d).max(1) <= tol))
            hit = np.flatnonzero(same | swapped)
            if hit.size:
                p, q = heads[hit[0]].tolist()
                shared[i, j] = (p, q) if same[hit[0]] else (q, p)
            else:
                heads[count], head_off[count] = (i, j), d
                count += 1
                shared[i, j] = (i, j)
    return shared


@dataclass
class ScatteringSystem:
    """Block system A_ij = -I/2 + K_ii (i = j), K_ij (i != j), with K the
    target-normal derivative of the Helmholtz single layer; the incoming
    field is the vertical plane wave exp(i k x2)."""

    scatterers: list
    k: float

    @property
    def n(self):
        return sum(s.n for s in self.scatterers)

    def offsets(self):
        return _offsets([s.n for s in self.scatterers])

    def matrix(self):
        """The dense block system.  A translate of an earlier scatterer takes
        that scatterer's diagonal block.  The two cross blocks of each pair
        of scatterers come from one evaluation of their Hankel factors, and
        a later pair of translates at the same offset (or at the opposite
        one, with the shapes swapped) copies them: a 2x2 grid of equal
        shapes evaluates 4 pairs instead of 6, a 4x4 grid 24 instead of 120.
        A copied block can differ from its own evaluation in the last bits;
        ``_shared_pairs`` gives the tolerance."""
        off = self.offsets()
        sc = self.scatterers
        reps = _translates(sc)
        blk = [slice(off[i], off[i + 1]) for i in range(len(sc))]
        A = np.zeros((self.n, self.n), dtype=np.complex128)
        for i, r in enumerate(reps):
            if r != i:
                A[blk[i], blk[i]] = A[blk[r], blk[r]]
            else:
                A[blk[i], blk[i]] = sc[i].matrix()
        for (i, j), (p, q) in _shared_pairs(sc, reps).items():
            if (p, q) == (i, j):
                A[blk[i], blk[j]], A[blk[j], blk[i]] = _neumann_trace_pair(self.k, sc[i].points,
                                                                           sc[j].points)
            else:
                A[blk[i], blk[j]], A[blk[j], blk[i]] = A[blk[p], blk[q]], A[blk[q], blk[p]]
        return A

    def rhs_plane_wave(self):
        """-d/dnu of u_inc = exp(i k x2) on every scatterer boundary."""
        parts = []
        for s in self.scatterers:
            u = np.exp(1j * self.k * s.curve.xy[:, 1])
            parts.append(-1j * self.k * s.curve.normals[:, 1] * u)
        return np.concatenate(parts)

    def precond_blocks(self, eps=1e-6, max_leaf_size=None):
        """Per-scatterer factored inverses of the isolated self-systems.  Each
        distinct shape is compressed and factored once: a translate of an
        earlier scatterer shares that scatterer's inverse object."""
        reps = _translates(self.scatterers)
        facs = {r: factor(compress_system(self.scatterers[r], eps, max_leaf_size)[1])
                for r in dict.fromkeys(reps)}
        return [facs[r] for r in reps]

    def precond_apply(self, facs):
        """The block-diagonal preconditioner of ``facs``, as a function of a
        vector of the n unknowns; one of another length raises InvalidInput."""
        off, n = self.offsets(), self.n

        def apply_pinv(x):
            if np.shape(x)[:1] != (n,):
                raise InvalidInput(f"vector of shape {np.shape(x)} for {n} unknowns")
            out = np.empty_like(np.asarray(x, dtype=np.complex128))
            for i, fi in enumerate(facs):
                out[off[i]:off[i + 1]] = solve(fi, x[off[i]:off[i + 1]])
            return out

        return apply_pinv

    def scattered_field(self, densities, targets):
        """Single-layer field of the solved densities at exterior points.
        Densities of another shape than (n,), and targets that are not 2D
        points outside every scatterer, raise InvalidInput."""
        densities = np.asarray(densities)
        if densities.shape != (self.n,):
            raise InvalidInput(f"densities of shape {densities.shape} for {self.n} unknowns")
        targets = PointSet(np.atleast_2d(targets))
        if targets.dim != 2:
            raise InvalidInput(f"targets must be 2D points, got {targets.dim}D")
        if any(_windings(s.curve, targets.coords).any() for s in self.scatterers):
            raise InvalidInput("targets must lie outside every scatterer")
        off = self.offsets()
        out = np.zeros(targets.n, dtype=np.complex128)
        spec = KernelSpec("helmholtz", 2, "single", self.k)
        for i, s in enumerate(self.scatterers):
            blk = eval_block(spec, targets, s.points)
            out += blk @ densities[off[i]:off[i + 1]]
        return out


def scattering_system(scatterers, k) -> ScatteringSystem:
    """Validate geometry (pairwise disjoint) and assemble the block system.
    Two scatterers whose bounding boxes meet are refused when any node of
    either lies inside the other."""
    check_wavenumber(k)
    curves = list(scatterers)
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            a, b = curves[i], curves[j]
            lo_a, hi_a = a.xy.min(0), a.xy.max(0)
            lo_b, hi_b = b.xy.min(0), b.xy.max(0)
            boxes_overlap = np.all(lo_a <= hi_b) and np.all(lo_b <= hi_a)
            if boxes_overlap and (_windings(a, b.xy).any() or _windings(b, a.xy).any()):
                raise InvalidInput(f"scatterers {i} and {j} overlap")
    return ScatteringSystem([_Scatterer(c, k) for c in curves], k)
