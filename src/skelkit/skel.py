"""Multilevel recursive skeletonization over an orthtree.

Working from the finest tree level upward, each node's diagonal block is
extracted and its off-diagonal block row/column is compressed with an ID;
surviving skeletons are regrouped into parent nodes and the procedure
repeats.  The result is a telescoping representation

    A  ~  D1 + L1 [ D2 + L2 ( ... Dt + Lt S Rt ... ) R2 ] R1

whose factors are block diagonal, plus a small dense skeleton matrix S at
the top.  Compression targets are shrunk with proxy surfaces: distant
interactions are replaced by a constant-size ring/sphere of equivalent
sources around each box, so per-node work depends only on neighbor sizes.
"""

import functools
import itertools
import math
import mmap
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInput, RefusedTooLarge
from .geom import (OrthTree, PointSet, _fraction, _index, _positive, fibonacci_sphere,
                   level_neighbors)
from .kernels import KernelSpec, eval_block, eval_fields
from .lowrank import _above_two, _target_id, _warn
# unused here: benchmark/spans.py::patch_table, their only reader, wraps both
# by name.  id_randomized is deleted (ROADMAP item 2); None satisfies the
# tracer's getattr until ROADMAP item 1a removes both lines.
from .lowrank import id_fixed_precision  # noqa: F401
id_randomized = None

DEFAULT_N_PROXY = {2: 64, 3: 512}

GLOBAL_MODE_LIMIT = 20000

# compress_source evaluates each node's blocks in row tiles of about this
# many entries, each written straight into its rows of the level's store, so
# no full-size block is held beside the store: on the 4096-point cube this
# lowers the peak RSS by about 9 MB against whole blocks, at the same time
_TILE_ENTRIES = 65_536

# the flags of the anonymous mapping that holds a level's blocks: where mmap
# can pre-fault it (Linux), private and pre-faulted; else Python's default.
# Filling 58 MB in tiles took 28 ms so, against 49 ms with the default
# (shared, faulted page by page), 39 ms private and page by page, and 55 ms
# shared and pre-faulted: shared anonymous pages are shared memory
_STORE_FLAGS = ({"flags": mmap.MAP_PRIVATE | mmap.MAP_POPULATE}
                if hasattr(mmap, "MAP_POPULATE") else {})


@dataclass
class ProxyConfig:
    """Proxy surface: n_proxy points on the circle (2D) or sphere (3D)
    circumscribing the 3^d supercell of a box's neighbors, scaled by
    radius_factor."""

    n_proxy: int | None = None     # None -> 64 (2D) / 512 (3D)
    radius_factor: float = 1.0

    def resolve(self, dim):
        if dim not in (2, 3):
            raise InvalidInput(f"a proxy surface takes dim 2 or 3, got dim {dim!r}")
        n = _index(self.n_proxy if self.n_proxy is not None else DEFAULT_N_PROXY[dim],
                   "n_proxy")
        # a zero radius stacks every proxy point at the box centre
        r = self.radius_factor
        if not _positive(r):
            raise InvalidInput(f"radius_factor must be finite and > 0, got {r!r}")
        floor = 8 if dim == 2 else 32
        if n < floor:
            raise InvalidInput(f"n_proxy must be >= {floor} in {dim}D")
        return replace(self, n_proxy=n)


def proxy_radius(halfwidth, config: ProxyConfig, dim):
    return config.radius_factor * 3.0 * halfwidth * np.sqrt(dim)


@functools.lru_cache(maxsize=64)
def _unit_surface(dim, n):
    """n points on the unit circle (2D, equispaced) or sphere (3D, spherical
    Fibonacci spiral), read-only: every proxy surface shares it."""
    if dim == 2:
        th = 2 * np.pi * np.arange(n) / n
        pts = np.column_stack([np.cos(th), np.sin(th)])
    else:
        pts = fibonacci_sphere(n)
    pts.flags.writeable = False
    return pts


def proxy_points(box, config: ProxyConfig, dim) -> PointSet:
    """Deterministic points on the proxy surface around ``box`` (anything
    with .center and .halfwidth): the unit surface of ``_unit_surface``,
    scaled to the proxy radius and centred on the box."""
    cfg = config.resolve(dim)
    r = proxy_radius(box.halfwidth, cfg, dim)
    return PointSet(_rings([box.center], [r], cfg.n_proxy)[0])


def _rings(centers, radii, n):
    """The proxy surfaces of n points around m boxes with these centres and
    proxy radii, as an (m, n, dim) array: each the unit surface scaled by
    its radius and moved to its centre."""
    centers = np.asarray(centers, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    return centers[:, None, :] + radii[:, None, None] * _unit_surface(centers.shape[1], n)


class KernelSource:
    """The matrix over ``points`` that ``compress_source`` compresses, in
    point order: the tree that it is compressed over owns the order.
    ``block(rows, cols)`` evaluates the entries between point indices
    (default: the kernel of ``spec``).  ``proxy_fields`` gives the far
    fields of a group of nodes.  The outgoing field is the single layer of
    the same equation, from the node's points to its proxy surface: the
    proxy only has to span exterior fields.  The incoming field is the
    kernel layer ``incoming`` (default: that single layer) evaluated the
    same way and transposed; a scatterer, whose rows are Neumann traces,
    gives the Helmholtz double layer.  Over weighted points the incoming
    field is scaled by the mean weight, like the weighted columns of
    ``block``, so both halves of a node's ID share one magnitude.

    ``symmetric`` marks a plain unweighted single-layer kernel.  Its row
    blocks are the transposes of its column blocks bit for bit (plain
    transpose, Helmholtz included), so ``compress_source`` leaves the row
    half out of each node's ID."""

    def __init__(self, spec: KernelSpec, points: PointSet, block=None,
                 incoming: KernelSpec | None = None):
        self._points = points
        self.proxy_spec = spec.single_layer()
        self.incoming = self.proxy_spec if incoming is None else incoming
        self.n = points.n
        self.dtype = spec.dtype
        self.wavenumber = spec.wavenumber
        self.symmetric = (block is None and self.incoming == self.proxy_spec
                          and spec.layer == "single" and points.weights is None)
        self.block = block or (
            lambda r, c: eval_block(spec, points.subset(r), points.subset(c)))
        self._w = None if points.weights is None else float(np.mean(points.weights))

    def proxy_fields(self, cols, rings):
        """The far fields of a group of nodes: node g has the points
        ``cols[g]`` and the proxy surface ``rings[g]`` of an (m, p, dim)
        array.  Returns two lists of p x ``cols[g].size`` blocks, the
        outgoing fields and the transposed incoming ones, each from one
        ``eval_fields`` call for the whole group.  With G the single layer
        from the nodes' points to their surfaces and w the mean weight, the
        outgoing block is G diag(weights); the incoming block is w G, or w
        times the ``incoming`` layer's block where that is not the single
        layer."""
        counts = [c.size for c in cols]
        pts = self._points.subset(np.concatenate(cols))
        G = eval_fields(self.proxy_spec, rings, pts, counts)
        at = np.cumsum(counts[:-1])
        out = G if pts.weights is None else G * pts.weights
        inc = (G if self.incoming == self.proxy_spec
               else eval_fields(self.incoming, rings, pts, counts))
        if self._w is not None:
            # w comes from the weights, so out is a product, not G
            inc *= self._w
        return np.split(out, at, axis=1), np.split(inc, at, axis=1)


@dataclass
class CompressedNode:
    """One node of a compressed level.  Rows and columns share one
    skeleton and one interpolation matrix: D is square, R has k = skel.size
    rows, and the row interpolation L is R^T, a read-only view of R's
    buffer; ``Level`` checks the shapes, ``CompressedMatrix`` the rest."""

    skel: np.ndarray        # surviving indices, global tree order, sorted
    D: np.ndarray           # extracted diagonal block (n x n)
    R: np.ndarray           # column interpolation, k x n
    children: np.ndarray | None   # positions in the previous level (None at finest)

    @property
    def k(self):
        return self.skel.size

    @property
    def L(self):
        """The row interpolation, n x k: ``R.T``, read-only."""
        return _transposed(self.R)

    @property
    def blocks(self):
        return self.R, self.D, self.L


def _transposed(a):
    """``a.T``, a view of a's buffer, made read-only: an L or Ld held this
    way cannot be edited in place, since that edit would also reach R or
    Rd."""
    t = a.T
    t.flags.writeable = False
    return t


def _offsets(sizes):
    """Slice offsets [0, s0, s0 + s1, ...] of blocks stacked with ``sizes``."""
    return np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])


class Level:
    """One level of a telescoping operator.  Each node's ``blocks`` are
    (up, diag, down): (R, D, L) for the compressed matrix, (Rd, Dd, Ld) for
    its inverse.  Node a takes and gives the DOF slice dof_off; up maps it
    to the skeleton slice k_off, and down maps that slice of the coarser
    vector back.  The blocks and offsets are taken when the level is built.

    This is where squareness is checked, for compressed and factored
    nodes alike: each node's (up, diag, down) must be (k x n, n x n,
    n x k), or InvalidInput names the node."""

    def __init__(self, nodes):
        self.nodes = nodes
        self.blocks = blocks = [nd.blocks for nd in nodes]
        for a, (up, diag, down) in enumerate(blocks):
            n, k = diag.shape[0], up.shape[0]
            if diag.shape != (n, n) or down.shape != (n, k) or up.shape != (k, n):
                raise InvalidInput(
                    f"node {a} has diag {diag.shape}, down {down.shape} and up "
                    f"{up.shape}, not (n x n, n x k, k x n)")
        self.dof_off = _offsets([diag.shape[0] for _, diag, _ in blocks])
        self.k_off = _offsets([up.shape[0] for up, _, _ in blocks])
        self.K = int(self.k_off[-1])


def _permutation(perm, message="perm must be a permutation of 0..N-1"):
    """``perm`` as an array, or InvalidInput(``message``) unless it is a 1-D
    integer array that holds each of 0..len(perm)-1 once."""
    p = np.asarray(perm)
    if p.ndim != 1 or p.dtype.kind not in "iu" or (np.sort(p) != np.arange(p.size)).any():
        raise InvalidInput(message)
    return p


def _values(a, what):
    """``a`` as an array of float64 or complex128, whichever holds its field:
    a narrower type of that field (bool, an integer, float32, complex64) is
    cast, and any other raises InvalidInput."""
    a = np.asarray(a)
    dtype = np.dtype(np.complex128 if a.dtype.kind == "c" else np.float64)
    if not np.can_cast(a.dtype, dtype):
        raise InvalidInput(f"{what} holds {a.dtype} values, not real or complex ones")
    return a.astype(dtype, copy=False)


def _level_orders(lv, dofs):
    """Each node's elimination order [q, p] and its inverse, in positions
    local to the node, cut from two level-wide arrays by ``lv.dof_off``.

    ``dofs`` lists the level's DOFs, node after node.  p holds the positions
    of a node's skeletons among its DOFs, in skeleton order, and q the rest,
    ascending.  Returns (order, inverse, r, skel, strays): the two
    level-wide arrays, the count r of q per node, the skeletons, which are
    the next level's DOFs, and per node whether its skeletons are not
    distinct DOFs of its own; a level with such a node has no order, and
    its first three are None."""
    nb, off, k_off = len(lv.nodes), lv.dof_off, lv.k_off
    sizes, ks = np.diff(off), np.diff(k_off)
    owner = np.repeat(np.arange(nb), sizes)         # level position -> node
    skel_owner = np.repeat(np.arange(nb), ks)
    skel = np.concatenate([np.asarray(nd.skel, dtype=np.int64) for nd in lv.nodes]
                          + [np.empty(0, dtype=np.int64)])
    where = np.full(int(dofs.max(initial=-1)) + 1, -1)
    where[dofs] = np.arange(dofs.size)
    inside = (skel >= 0) & (skel < where.size)
    p = np.full(skel.size, -1)
    p[inside] = where[skel[inside]]
    mine = p >= 0
    mine[mine] = owner[p[mine]] == skel_owner[mine]
    mask = np.zeros(dofs.size, dtype=bool)
    mask[p[mine]] = True
    # a node whose skeletons mark fewer of its DOFs than it has skeletons
    strays = np.bincount(owner[mask], minlength=nb) != ks
    if strays.any():
        return None, None, None, skel, strays
    q = np.flatnonzero(~mask)
    r = sizes - ks
    q_owner = owner[q]
    order = np.empty(dofs.size, dtype=np.int64)
    order[off[q_owner] + np.arange(q.size) - _offsets(r)[q_owner]] = q
    order[off[skel_owner] + r[skel_owner] + np.arange(skel.size) - k_off[skel_owner]] = p
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    start = off[owner]
    return order - start, inverse - start, r.tolist(), skel, strays


def _check_tree(lv, below, level):
    """InvalidInput unless ``lv``, at ``level``, fits the tree over ``below``,
    the level under it, or None at the finest (``CompressedMatrix``)."""
    kids = [nd.children for nd in lv.nodes]
    starts = _offsets([0 if c is None else len(c) for c in kids])
    nb = 0 if below is None else len(below.nodes)
    if all((c is None) == (below is None) for c in kids) and np.array_equal(
            _cat([c for c in kids if c is not None]), np.arange(nb)):
        wrong = [] if below is None else np.flatnonzero(lv.dof_off != below.k_off[starts])
        if len(wrong):
            raise InvalidInput(f"level {level} does not fit the tree: node {wrong[0] - 1} "
                               "does not end on the skeletons of its last child")
        return
    a = next((a for a, c in enumerate(kids) if (c is None) != (below is None) or not (
        c is None or np.array_equal(c, np.arange(starts[a], starts[a + 1])))), len(kids) - 1)
    raise InvalidInput(f"level {level} does not fit the tree: node {a} has children "
                       f"{kids[a]}, not the next of the {nb} nodes below")


def _check_interpolative(lv, dofs, level, dtype):
    """InvalidInput naming the first node of ``lv``, at ``level`` over the
    DOFs ``dofs``, that is not interpolative (``CompressedMatrix``): R's
    k x k entries at the skeleton positions are tested for the whole level
    at once, bit for bit.  Returns the skeletons, the next level's DOFs."""
    ks = np.diff(lv.k_off)
    shapes, want = [nd.skel.shape for nd in lv.nodes], [(k,) for k in ks.tolist()]
    if shapes != want:
        a = next(a for a, (s, w) in enumerate(zip(shapes, want)) if s != w)
        raise InvalidInput(f"skeleton sizes: level {level}, node {a} has skeletons of "
                           f"shape {shapes[a]} for the {ks[a]} rows of R")
    order, _, r, skel, strays = _level_orders(lv, dofs)
    if strays.any():
        raise InvalidInput(f"level {level}, node {np.flatnonzero(strays)[0]} is not "
                           "interpolative: its skeletons are not distinct DOFs of its own")
    # each node's R at its skeleton positions, k x k, taken into one buffer;
    # the bits of 1.0 cleared from the diagonals, any bit left is a fault.
    # The buffer is its own mapping: freed from the heap, its size raised
    # malloc's mmap threshold, and with it the peak of the 4096-point cube's
    # next set-up by 9 MB at 3 of 10 seeds (2-vCPU Xeon, glibc)
    off, size = lv.dof_off.tolist(), int(ks @ ks)
    base = _offsets(ks * ks)
    got = np.frombuffer(mmap.mmap(-1, max(1, size * np.dtype(dtype).itemsize), **_STORE_FLAGS),
                        dtype, size)
    for nd, lo, ra, hi, b, k in zip(lv.nodes, off, r, off[1:], base.tolist(), ks.tolist()):
        nd.R.take(order[lo + ra:hi], axis=1, out=got[b:b + k * k].reshape(k, k), mode="clip")
    owner, step = np.repeat(np.arange(ks.size), ks), got.itemsize // 8
    bits = got.view(np.uint64)
    bits[(base[owner] + (np.arange(skel.size) - lv.k_off[owner]) * (ks[owner] + 1)) * step] ^= \
        np.float64(1).view(np.uint64)
    wrong = np.flatnonzero(bits) // step
    if wrong.size:
        raise InvalidInput(f"level {level}, node {np.searchsorted(base, wrong[0], 'right') - 1}"
                           " is not interpolative: R is not I at its skeletons")
    return skel


class _Permuted:
    """A telescoping operator of N = ``perm.size`` unknowns, in the order of
    ``perm``, over ``Level``s, finest first, and a top, checked once, when
    it is built (by hand, by ``compress_source``, ``factor`` or a reader,
    or through ``dataclasses.replace``), with InvalidInput.  The rules both
    kinds share: ``perm`` is a permutation of 0..N-1; the finest level takes
    N DOFs and each coarser one exactly the K the level below leaves; each
    node's blocks are of the scalar type, float64 or complex128, that the
    top sets (a top of a narrower type of its field, such as an integer or
    float32 S, is cast to it; a block is never cast); the top is K x K.  A
    field reassigned later, or an array edited in place, is not checked
    again until the object is rebuilt or round-tripped."""

    def _check_common(self, dtype):
        """The shared rules but the top's shape; returns the top's K."""
        self.perm = _permutation(self.perm)
        k = self.n
        for li, lv in enumerate(self.levels, 1):
            if lv.dof_off[-1] != k:
                raise InvalidInput(f"level {li} takes {lv.dof_off[-1]} DOFs, the level "
                                   f"below leaves {k}")
            wrong = [(a, b.dtype) for a, bl in enumerate(lv.blocks) for b in bl if b.dtype != dtype]
            if wrong:
                raise InvalidInput(f"level {li}, node {wrong[0][0]} has a {wrong[0][1]} "
                                   f"block in a {dtype} operator")
            k = lv.K
        return k

    @property
    def n(self):
        return self.perm.size


@dataclass
class CompressedMatrix(_Permuted):
    """Telescoping compressed form of an N x N matrix, of S's scalar type.
    Besides ``_Permuted``'s rules, each level fits the tree: no child at the
    finest level, and above it children that list the level below once
    each, in order, each D the size of its children's skeletons.  Each node
    is interpolative, as ``compress_source`` builds it: one skeleton for
    each row of R, distinct DOFs of its own, at whose positions R is
    exactly I (its L is R^T by construction)."""

    levels: list
    S: np.ndarray
    eps: float
    perm: np.ndarray

    def __post_init__(self):
        self.S = _values(self.S, "S")
        K = self._check_common(self.S.dtype)
        if self.S.shape != (K, K):
            raise InvalidInput(f"top block shape {self.S.shape} for {K} skeletons")
        dofs, below = np.arange(self.n), None
        for li, lv in enumerate(self.levels, 1):
            _check_tree(lv, below, li)
            dofs, below = _check_interpolative(lv, dofs, li, self.S.dtype), lv

    @property
    def nlevels(self):
        return len(self.levels)

    @property
    def dtype(self):
        return np.result_type(self.S, np.float64)

    def skeleton_counts(self):
        """Skeleton total K per level, finest first."""
        return [lv.K for lv in self.levels]

    def storage_bytes(self):
        """Bytes of the arrays held: S, the permutation, and each node's D,
        R and skeleton."""
        return self.S.nbytes + self.perm.nbytes + sum(
            nd.D.nbytes + nd.R.nbytes + nd.skel.nbytes for lv in self.levels for nd in lv.nodes)

    def apply(self, x):
        return apply(self, x)


def apply(cm: CompressedMatrix, x) -> np.ndarray:
    """Multiply the compressed matrix against x (vector or column block):
    upward pass through the column interpolants, dense top-level skeleton
    multiply, downward pass through the row interpolants, accumulating the
    extracted diagonal blocks on the way down."""
    return _telescope(cm.levels, lambda u: cm.S @ u, cm.n, cm.perm, cm.dtype, x)


def _telescope(levels, top, n, perm, dtype, x):
    """The telescoping sweep behind both ``apply`` and ``solver.solve``:
    y = diag1 x + down1 [ diag2 u1 + down2 ( ... top(u_t) ... ) ] with
    u1 = up1 x, u2 = up2 u1, and so on, over ``Level``s listed finest
    first.  ``top`` acts on the coarsest skeleton vector."""
    x = np.asarray(x)
    if x.dtype.kind not in "biufc":
        raise InvalidInput(f"expected bool, integer, real or complex values, got {x.dtype}")
    if x.ndim not in (1, 2):
        raise InvalidInput(f"expected a vector or a column block, got {x.ndim} dimensions")
    single = x.ndim == 1
    if x.shape[0] != n:
        raise InvalidInput(f"length mismatch: operator is {n}, input {x.shape[0]}")
    dtype = np.result_type(dtype, x.dtype)
    # np.dot(..., out=) costs less per call than np.matmul (16384-point
    # ellipse BIE, 2-vCPU Xeon: apply 5.5 against 7.5 ms) and writes the bits
    # of ``@`` on real blocks; on complex ones, such as a block of one
    # column or a real L held as R.T against a complex input, only
    # np.matmul writes the bits of ``@``
    mul = np.matmul if dtype == np.complex128 else np.dot
    u = x.reshape(n, -1).astype(dtype, copy=False)[perm]
    nrhs = u.shape[1]

    us = []
    for lv in levels:
        us.append(u)
        # offsets as Python ints: slicing by numpy integers costs more per node
        off, k_off = lv.dof_off.tolist(), lv.k_off.tolist()
        nxt = np.empty((lv.K, nrhs), dtype=dtype)
        for a, (up, _, _) in enumerate(lv.blocks):
            mul(up, u[off[a]:off[a + 1]], out=nxt[k_off[a]:k_off[a + 1]])
        u = nxt
    v = top(u)
    for lv in reversed(levels):
        u = us.pop()
        off, k_off = lv.dof_off.tolist(), lv.k_off.tolist()
        w = np.empty((off[-1], nrhs), dtype=dtype)
        for a, (_, diag, down) in enumerate(lv.blocks):
            # each product is written straight into a slice: diag's into w;
            # once diag has read the node's (square) slice of u, down's
            # product takes its place (exact zeros at rank 0, where out= is
            # zero-filled), and u is added to w once per level
            s = slice(off[a], off[a + 1])
            mul(diag, u[s], out=w[s])
            mul(down, v[k_off[a]:k_off[a + 1]], out=u[s])
        w += u
        v = w

    # u is now the permuted input's buffer; free it before allocating the output
    del u
    out = np.empty((n, nrhs), dtype=dtype)
    out[perm] = v
    return out[:, 0] if single else out


def compress(spec: KernelSpec, points: PointSet, tree: OrthTree, eps,
             proxy: ProxyConfig | None = None, mode: str = "proxy",
             allow_large: bool = False) -> CompressedMatrix:
    """Recursively skeletonize the kernel matrix of ``spec`` over ``points``.

    mode="proxy" compresses each node against [neighbor blocks | proxy
    surface]; mode="global" uses the full off-diagonal block row/column
    (quadratic work, refused above 20000 points unless allow_large).

    Each node takes one ID, whose skeleton serves its rows and columns
    alike, with L = R^T, so every diagonal block of the inverse recursion
    is square.  A single-layer kernel without quadrature weights is symmetric
    (``KernelSource.symmetric``), and its ID leaves out the row half of the
    target, which repeats the column half; see ``compress_source``.
    """
    return compress_source(KernelSource(spec, points), tree, eps, proxy=proxy,
                           mode=mode, allow_large=allow_large)


def _cat(parts):
    """Concatenated index arrays (empty int64 if there are none)."""
    return np.concatenate(parts) if len(parts) else np.empty(0, dtype=np.int64)


def _half(blocks, far):
    """One half of a node's ID target, as row blocks: ``blocks``, then the
    far field ``far()``, evaluated only when it is reached."""
    yield from blocks
    yield far()


def compress_source(source, tree: OrthTree, eps, proxy: ProxyConfig | None = None,
                    mode: str = "proxy", allow_large: bool = False) -> CompressedMatrix:
    """Compression sweep over a ``KernelSource``; anything else raises
    InvalidInput, and so does a ``proxy`` in global mode, which has no
    proxy surface.  The tree must be over the source's ``n`` points, or
    InvalidInput is raised, and it owns the point order: the sweep works in
    tree positions, and maps each index array through ``tree.perm`` before
    it calls the source's ``block`` or ``proxy_fields``, which take point
    indices.

    Each level runs in four phases; in proxy mode each kernel block is
    evaluated once:

    1. The index sets: a leaf's DOFs are its points, a coarser node's the
       skeletons of its children.
    2. Each node evaluates the blocks it shares with its partners, its
       neighbours (proxy mode) and its siblings: node a evaluates K(DOFs of
       a, DOFs of its partners), for a symmetric source only partners above
       a, since the blocks below are transposes; at the finest level a
       leaf's D comes from the same calls, as its tiles' first columns.
       ``block`` is called on row tiles of about ``_TILE_ENTRIES`` entries
       (one row if a row is longer), each written into its rows of the
       level's store, so no full-size block is built as a temporary.  The
       default ``block``'s tiles are blocks between subsets of the point
       set, which keep that set's coincidence scale (``PointSet.scale``),
       so each entry is the whole block's, whatever tile holds it.
    3. Each node's ID, one skeleton for rows and columns with L = R^T
       (Ho-Ying's index sets, CPAM 2016), of [column target; row target
       transposed], each [neighbour blocks from phase 2; far field]: the
       proxy field, or in global mode, where a node has no neighbours, its
       whole off-diagonal block column and row, evaluated here (sibling
       blocks again).  A symmetric source's row half repeats its column
       half and is left out.  The proxy fields of consecutive ID nodes
       with one proxy count are evaluated together, in groups of up to
       ``_TILE_ENTRIES`` entries (a larger field, such as a 3D node's, is
       a group of one), by one ``proxy_fields`` call when the group's
       first node reaches its far field; each node's surface is the one
       ``proxy_points`` gives its box, and each node lets its fields go
       once its last half has taken them.  ``lowrank._target_id`` takes the
       target as these row blocks and picks the route: ``id_gram`` on the
       Gram matrix of the blocks, taken one at a time, for a tall target of
       at least 64 columns at eps >= ``lowrank._GRAM_MIN_EPS``, and otherwise
       ``id_fixed_precision`` on one column-major stack of them, factored
       in place.  A carried node, a leaf above the finest cover (its own
       only child), was compressed against the same box one level down, so
       it takes no proxy surface, far field or ID: it keeps every DOF, with
       L = R = I, which is what an ID that finds full rank gives.
    4. The next level's D, and the top S (the root's, as it were), sliced
       from the sibling blocks at the skeletons, since each level's matrix
       is the submatrix of the one below at its skeletons (Martinsson-
       Rokhlin 2005).  Each slice is one ``take`` from the row-major block
       that holds it.  A symmetric source takes the slice for siblings
       a < b once and writes its transpose in the mirrored position.  Then
       the level's blocks are freed.

    Only the leaves' D are evaluated as such.  IDs whose interpolation
    entries exceed 2 are counted, and reported in one AccuracyWarning per
    call rather than one per block."""
    if not isinstance(source, KernelSource):
        raise InvalidInput(f"compress_source takes a KernelSource, not {type(source).__name__}")
    _fraction(eps, "eps")
    if mode not in ("proxy", "global"):
        raise InvalidInput(f"unknown mode {mode!r}")
    if mode == "global" and proxy is not None:
        raise InvalidInput("global mode has no proxy surface: pass no proxy")
    n = tree.n_points
    if source.n != n:
        raise InvalidInput(f"the source has {source.n} points, the tree {n}")
    if mode == "global" and n > GLOBAL_MODE_LIMIT and not allow_large:
        raise RefusedTooLarge(
            f"global-mode compression of N={n} is quadratic; "
            "pass allow_large=True to force it")
    cfg = (proxy or ProxyConfig()).resolve(tree.dim)
    dtype = source.dtype

    perm = tree.perm
    covers = tree.levels
    top = next(i for i, c in enumerate(covers) if len(c) == 1)
    if top == 0:
        S = np.ascontiguousarray(source.block(perm, perm), dtype=dtype)
        return CompressedMatrix(levels=[], S=S, eps=eps, perm=perm.copy())

    sym = source.symmetric
    levels = []
    interp_max = []     # max |P| of every ID kept, in any order

    def _blk(rows, cols):
        # nodes can be isolated (no neighbors) or fully compressed away
        if len(rows) == 0 or len(cols) == 0:
            return np.zeros((len(rows), len(cols)), dtype=dtype)
        return source.block(perm[rows], perm[cols])

    children = [None] * len(covers[0])
    dofs = [np.arange(tree.nodes[i].lo, tree.nodes[i].hi) for i in covers[0]]
    # the level's diagonal blocks: the leaves' evaluated in phase 2, each
    # coarser level's sliced by the level below
    Ds = [np.empty((d.size, d.size), dtype=dtype) for d in dofs]

    for li in range(top):
        ids = covers[li]
        nb = len(ids)
        nbrs = level_neighbors(tree, li) if mode == "proxy" else [[]] * nb
        parents = tree.cover_children(li + 1)
        sibs = {a: ch.tolist() for ch in parents for a in ch}
        partners = [sorted(set(sibs[a]).union(nbrs[a]) - {a}) for a in range(nb)]
        owned = [[b for b in partners[a] if b > a] for a in range(nb)] if sym else partners
        at, shapes = [], []     # at[a][b]: the columns of own[a] that hold b's DOFs
        size = [d.size for d in dofs]
        for a, ow in enumerate(owned):
            # offsets as Python ints, which cost less than numpy's to make
            # and to slice by
            off = list(itertools.accumulate((size[b] for b in ow), initial=0))
            at.append({b: slice(off[i], off[i + 1]) for i, b in enumerate(ow)})
            shapes.append((size[a], off[-1]))
        # own[a] = K(DOFs of a, DOFs of owned[a]).  The level's blocks share
        # one anonymous mapping, returned to the system whole when the level
        # is done; freed one by one from the heap, they would stay resident
        # under whatever was allocated after them.  Every byte of it is
        # written, so where it can be (_STORE_FLAGS) it is faulted in by the
        # one mmap call
        sizes = [r * c for r, c in shapes]
        mapping = mmap.mmap(-1, max(1, sum(sizes) * np.dtype(dtype).itemsize),
                            **_STORE_FLAGS)
        store = np.frombuffer(mapping, dtype=dtype, count=sum(sizes))
        own = [v.reshape(shape) for v, shape in
               zip(np.split(store, _offsets(sizes)[1:-1]), shapes)]
        for a in range(nb):
            # at the finest level the tiles' first columns are the leaf's D
            rows = dofs[a]
            head = rows.size if li == 0 else 0
            cols = _cat(([rows] if head else []) + [dofs[b] for b in owned[a]])
            if cols.size:
                step = max(1, _TILE_ENTRIES // cols.size)
                for lo in range(0, rows.size, step):
                    tile = source.block(perm[rows[lo:lo + step]], perm[cols])
                    if head:
                        Ds[a][lo:lo + step] = tile[:, :head]
                    own[a][lo:lo + step] = tile[:, head:]

        def pair(a, b):
            # K(DOFs of a, DOFs of b) for partners a and b
            if b in at[a]:
                return own[a][:, at[a][b]]
            return own[b][:, at[b][a]].T

        # carried: a leaf above the finest cover, its own only child
        carried = [li > 0 and not tree.nodes[i].children for i in ids]
        if mode == "proxy":
            # each ID node's proxy surface, and its far fields evaluated for
            # a group of consecutive nodes with one proxy count, up to
            # _TILE_ENTRIES entries (or one node), at once
            boxes = [tree.nodes[i] for i in ids]
            centers = np.array([b.center for b in boxes])
            radii = proxy_radius(np.array([b.halfwidth for b in boxes]), cfg, tree.dim)
            n_far = np.full(nb, cfg.n_proxy)
            if source.wavenumber > 0:
                n_far += np.ceil(4.0 * source.wavenumber * radii).astype(np.int64)
            n_far = n_far.tolist()
            group, members, entries = {}, [], 0
            for a in range(nb):
                if carried[a] or not size[a]:
                    continue
                e = n_far[a] * size[a]
                if not members or n_far[a] != n_far[members[0]] or entries + e > _TILE_ENTRIES:
                    members, entries = [], 0
                members.append(a)
                group[a] = members
                entries += e
            held = {}   # node -> (outgoing, incoming)

        def far(a, half):
            # half 0 or 1 of node a's proxy field; its group's fields are
            # evaluated when the group's first node asks, and each node's
            # are let go when its last half is taken
            if a not in held:
                g = group[a]
                rings = _rings(centers[g], radii[g], n_far[a])
                held.update(zip(g, zip(*source.proxy_fields([perm[dofs[b]] for b in g], rings))))
            return (held.pop(a) if half == (0 if sym else 1) else held[a])[half]

        def build_node(a):
            d = dofs[a]
            D = Ds[a]
            if carried[a]:
                # carried, so its D is zero
                R = np.eye(d.size, dtype=dtype)
                return CompressedNode(skel=d, D=D, R=R, children=children[a]), np.arange(d.size)
            # the far field: the proxy surface, or in global mode every other
            # node; evaluated only when its half reaches it, since one held
            # through the ID raised the 4096-point cube's compression peak
            # from 232 to 274 MB
            if mode == "proxy":
                n_far_a = n_far[a]
                empty = np.zeros((n_far_a, 0), dtype=dtype)
                far_col = lambda: far(a, 0) if d.size else empty
                far_row = lambda: far(a, 1) if d.size else empty
            else:
                rest = _cat([dofs[b] for b in range(nb) if b != a])
                n_far_a = rest.size
                far_col = lambda: _blk(rest, d)
                far_row = lambda: _blk(d, rest).T
            # [column target; row target transposed], each half its neighbour
            # blocks then its far field; the row half is left out for a
            # symmetric source
            halves = [_half((pair(b, a) for b in nbrs[a]), far_col)]
            if not sym:
                halves.append(_half((pair(a, b).T for b in nbrs[a]), far_row))
            m = len(halves) * (sum(dofs[b].size for b in nbrs[a]) + n_far_a)
            idp = _target_id(halves, (m, d.size), eps)
            interp_max.append(idp.max_entry)
            order = np.argsort(idp.skel)
            pos = idp.skel[order]
            R = np.ascontiguousarray(idp.proj[order, :], dtype=dtype)
            return CompressedNode(skel=d[pos], D=D, R=R, children=children[a]), pos

        nodes, pos = zip(*[build_node(a) for a in range(nb)])
        levels.append(Level(list(nodes)))

        # the parents' diagonal blocks: sibling blocks at the skeletons, with
        # the children's own blocks zero (they stay in this level's D).  Each
        # owned slice is one gather from own[a]'s row-major buffer, the bits
        # of np.ix_; a symmetric source's slice below the diagonal is the
        # transpose of the one above
        Ds = []
        for ch in parents:
            off = list(itertools.accumulate((pos[i].size for i in ch), initial=0))
            M = np.zeros((off[-1], off[-1]), dtype=dtype)
            for i, a in enumerate(ch):
                width = own[a].shape[1]
                for j, b in enumerate(ch):
                    if b in at[a]:
                        blk = own[a].ravel().take(
                            pos[a][:, None] * width + (at[a][b].start + pos[b]))
                        M[off[i]:off[i + 1], off[j]:off[j + 1]] = blk
                        if sym:
                            M[off[j]:off[j + 1], off[i]:off[i + 1]] = blk.T
            Ds.append(M)
        own = store = mapping = None
        children = parents
        dofs = [_cat([nodes[c].skel for c in ch]) for ch in parents]

    bad = [x for x in interp_max if x > 2.0]
    if bad:
        _warn(f"interpolation matrix entries exceed 2 in {len(bad)} of "
              f"{len(interp_max)} ID blocks (worst {_above_two(max(bad))}); "
              "pivoting quality degraded")
    # the root's block is the dense top-level skeleton matrix; its diagonal
    # blocks stay zero (their interactions were extracted into the final D level)
    return CompressedMatrix(levels=levels, S=Ds[0], eps=eps, perm=perm.copy())


def add_diagonal(cm: CompressedMatrix, diagonal):
    """Add ``diagonal``, n values in point order, to ``cm`` in place: to the
    diagonal of each finest-level D, through ``cm.perm``, or of S when there
    is no level.  Only a leaf's D holds coincident pairs, since each level's
    matrix is the submatrix of the one below at its skeletons (Martinsson-
    Rokhlin 2005).  Anything but n finite values of the matrix's field
    raises InvalidInput."""
    diagonal = np.asarray(diagonal)
    if (diagonal.shape != (cm.n,) or not np.can_cast(diagonal.dtype, cm.dtype, "same_kind")
            or not np.isfinite(diagonal).all()):
        field = "complex" if cm.dtype.kind == "c" else "real"
        raise InvalidInput(f"a diagonal must be {cm.n} finite {field} values, "
                           f"got {diagonal.dtype} of shape {diagonal.shape}")
    d, lo = diagonal[cm.perm], 0
    for D in [nd.D for nd in cm.levels[0].nodes] if cm.levels else [cm.S]:
        D[np.diag_indices_from(D)] += d[lo:lo + len(D)]
        lo += len(D)


# ---------------------------------------------------------------------------
# binary container (shared with the factored-inverse serialization)

_MAGIC = b"SKLC"
_VERSION = 1
_DT_CODE = {np.dtype(np.float64): 0, np.dtype(np.complex128): 1}
_CODE_DT = {v: k for k, v in _DT_CODE.items()}


def _write_arr(out, a):
    """Append one array record to the list ``out``: its header, then the
    array itself, in whatever memory order it is held; ``_joined`` writes
    it row-major."""
    code = {np.dtype(np.int64): 2}.get(a.dtype) or _DT_CODE[a.dtype]
    out += struct.pack(f"<BB{a.ndim}q", code, a.ndim, *a.shape), a


def _record_sizes(records):
    """The bytes each listed record takes in the container."""
    return [r.nbytes if isinstance(r, np.ndarray) else len(r) for r in records]


def _joined(records):
    """The container whose records ``_write_arr`` and the writers listed:
    one bytearray of their summed size, each header copied into its slice
    and each array written there row-major by ``np.copyto``, transposed
    views included, so no record is copied anywhere else first."""
    sizes = _record_sizes(records)
    buf = bytearray(sum(sizes))
    pos = 0
    for r, size in zip(records, sizes):
        if isinstance(r, np.ndarray):
            dst = np.frombuffer(buf, r.dtype.newbyteorder("<"), r.size, pos)
            np.copyto(dst.reshape(r.shape), r)
        else:
            buf[pos:pos + size] = r
        pos += size
    return buf


def _same_bits(a, b):
    """Whether a and b, float64 or complex128, have one shape and the same
    bits in every entry (so -0.0 is not 0.0, and a NaN can equal itself)."""
    parts = (np.real, np.imag) if np.iscomplexobj(a) else (np.asarray,)
    return a.shape == b.shape and a.dtype == b.dtype and all(
        np.array_equal(f(a).view(np.uint64), f(b).view(np.uint64)) for f in parts)


def _write_header(out, kind, dtype, nlevels, eps, perm):
    """Magic, version, container kind and ``dtype``'s scalar field, then (N
    = perm.size, levels, eps) and the tree permutation; ``_Reader`` reads them back."""
    out += _MAGIC, struct.pack("<HBBqId", _VERSION, kind, _DT_CODE[dtype], perm.size,
                               nlevels, eps)
    _write_arr(out, np.asarray(perm, dtype=np.int64))


class _Reader:
    """Bounds-checked cursor over container bytes; the constructor reads
    the header ``_write_header`` writes.  A short read, a wrong header or a
    malformed array record raises InvalidInput, never a struct or numpy
    error."""

    def __init__(self, data, kind):
        self.buf = memoryview(data)
        self.pos = 0
        if bytes(self.take(4)) != _MAGIC:
            raise InvalidInput("not a skelkit container")
        version, got, self.value_code = self.unpack("<HBB")
        if version != _VERSION:
            raise InvalidInput(f"unsupported container version {version}")
        if got != kind:
            raise InvalidInput(f"container kind {got}, expected {kind}")
        if self.value_code not in _CODE_DT:
            raise InvalidInput(f"corrupt skelkit container: scalar field {self.value_code}")
        self.n, self.nlevels, self.eps = self.unpack("<qId")
        bad = "corrupt skelkit container: bad permutation"
        self.perm = _permutation(self.array(1, index=True), bad)
        if self.perm.size != self.n:
            raise InvalidInput(bad)

    def take(self, nbytes):
        if nbytes > len(self.buf) - self.pos:
            raise InvalidInput("truncated skelkit container")
        self.pos += nbytes
        return self.buf[self.pos - nbytes:self.pos]

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, ndim, index=False, order="C"):
        """Next array record: an int64 index array, or a value array of the
        header's field (float64 or complex128), of exactly ``ndim``
        dimensions, copied out in memory ``order``, or with ``order=None``
        a read-only view of the container's bytes."""
        code, nd = self.unpack("<BB")
        if nd != ndim or code != (2 if index else self.value_code):
            raise InvalidInput("corrupt skelkit container: bad array header")
        shape = self.unpack(f"<{nd}q")
        if min(shape) < 0:
            raise InvalidInput("corrupt skelkit container: negative extent")
        dt = np.dtype(np.int64) if index else _CODE_DT[code]
        raw = self.take(math.prod(shape) * dt.itemsize)
        a = np.frombuffer(raw, dtype=dt).reshape(shape)
        return a if order is None else a.copy(order=order)

    def blocks(self):
        """The next node's (up, diag, down) records: up and diag copied out,
        down a read-only view of the container's bytes."""
        diag, down, up = self.array(2), self.array(2, order=None), self.array(2)
        return up, diag, down

    def finish(self):
        if self.pos != len(self.buf):
            raise InvalidInput("trailing bytes after skelkit container")


def _write_levels(out, levels, write_head=None):
    """The per-level block tables both container kinds share: per level a
    u32 node count, then per node its kind's head record (``write_head``,
    if the kind has one) and its diag, down and up blocks."""
    for lv in levels:
        out.append(struct.pack("<I", len(lv.nodes)))
        for nd in lv.nodes:
            if write_head is not None:
                write_head(out, nd)
            up, diag, down = nd.blocks
            for blk in (diag, down, up):
                _write_arr(out, blk)


def _read_levels(f, read_node):
    """Inverse of ``_write_levels``; ``read_node(f, li, a)`` reads node a's
    record at level li, its blocks through ``f.blocks()``.  ``Level`` checks
    each node's shapes, and its message is given the level; the object the
    levels are built into checks the rest (``_built``)."""
    levels = []
    for li in range(f.nlevels):
        (count,) = f.unpack("<I")
        nodes = [read_node(f, li, a) for a in range(count)]
        try:
            levels.append(Level(nodes))
        except InvalidInput as exc:
            raise InvalidInput(f"corrupt skelkit container: level {li + 1}, {exc}") from None
    return levels


def _built(cls, **fields):
    """``cls(**fields)`` for a reader: the InvalidInput of its checks is
    given the prefix of a corrupt container."""
    try:
        return cls(**fields)
    except InvalidInput as exc:
        raise InvalidInput(f"corrupt skelkit container: {exc}") from None


def _write_compressed_head(out, nd):
    # the layout has a row and a column skeleton array: both are nd.skel
    ch = nd.children if nd.children is not None else np.empty(0, dtype=np.int64)
    out.append(struct.pack("<B", 1 if nd.children is not None else 0))
    for idx in (ch, nd.skel, nd.skel):
        _write_arr(out, np.asarray(idx, dtype=np.int64))


def _read_compressed_node(f, li, a):
    (has_ch,) = f.unpack("<B")
    ch = f.array(1, index=True)
    skel, again = f.array(1, index=True), f.array(1, index=True)
    R, D, L = f.blocks()
    if has_ch > 1 or (ch.size and not has_ch):
        raise InvalidInput("corrupt skelkit container: children flag")
    if not np.array_equal(skel, again):
        # what a source with separate row and column IDs wrote
        raise InvalidInput(
            f"skelkit container: level {li + 1}, node {a} has different row and "
            "column skeletons; recompress the matrix to load it")
    if not _same_bits(L, R.T):
        # a node holds one interpolation matrix, R; its L is R^T
        raise InvalidInput(f"skelkit container: level {li + 1}, node {a} is not interpolative: "
                           f"L is not R^T (down {L.shape}, up {R.shape})")
    return CompressedNode(skel=skel, D=D, R=R, children=ch if has_ch else None)


def _compressed_records(cm):
    out = []
    _write_header(out, 1, cm.dtype, cm.nlevels, cm.eps, cm.perm)
    _write_levels(out, cm.levels, _write_compressed_head)
    _write_arr(out, cm.S)
    return out


def serialize_compressed(cm: CompressedMatrix) -> bytearray:
    """Bit-exact binary container: header (N, levels, eps, field), the
    permutation, per-level block tables, dense top S.  See README.  The
    records are listed as headers and the arrays themselves, then written
    by ``_joined`` into one bytearray of the container's size."""
    return _joined(_compressed_records(cm))


def serialized_size(cm: CompressedMatrix) -> int:
    """``len(serialize_compressed(cm))``, summed over the records it lists
    without writing the container."""
    return sum(_record_sizes(_compressed_records(cm)))


def deserialize_compressed(data: bytes) -> CompressedMatrix:
    """Inverse of serialize_compressed; raises InvalidInput on bytes that
    are truncated or do not form a consistent container."""
    f = _Reader(data, kind=1)
    levels = _read_levels(f, _read_compressed_node)
    S = f.array(2)
    f.finish()
    return _built(CompressedMatrix, levels=levels, S=S, eps=f.eps, perm=f.perm)


def save_compressed(cm: CompressedMatrix, path):
    with open(path, "wb") as f:
        f.write(serialize_compressed(cm))


def load_compressed(path) -> CompressedMatrix:
    with open(path, "rb") as f:
        return deserialize_compressed(f.read())
