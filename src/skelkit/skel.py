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
from .geom import OrthTree, PointSet, _index, _positive, fibonacci_sphere, level_neighbors
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
    """Adapter presenting a matrix over ``points`` to the compression sweep
    in tree ordering ``perm``.  ``block(rows, cols)`` evaluates entries in
    point order (default: the kernel of ``spec``); ``proxy_rows(targets,
    proxy)`` the incoming proxy field (default: the single layer).  Outgoing
    proxy fields always use the single-layer kernel of the same equation:
    the proxy only has to span exterior fields.  Over weighted points the
    incoming field is scaled by the mean weight, like the weighted columns
    of ``block``, so both halves of a node's ID share one magnitude.
    ``compress_source`` takes the fields of a group of nodes at once from
    ``proxy_fields``, which gives ``proxy_col_block``'s and
    ``proxy_row_block``'s bits; where ``proxy_rows`` is given or either
    per-node method is replaced, ``proxy_fields`` returns None and the
    per-node methods are called.

    ``symmetric`` marks a plain unweighted single-layer kernel.  Its row
    blocks are the transposes of its column blocks bit for bit (plain
    transpose, Helmholtz included), so ``compress_source`` leaves the row
    half out of each node's ID."""

    def __init__(self, spec: KernelSpec, points: PointSet, perm, block=None,
                 proxy_rows=None):
        self.perm = np.asarray(perm)
        self._points = points
        self.proxy_spec = spec.single_layer()
        self.n = points.n
        self.dtype = spec.dtype
        self.wavenumber = spec.wavenumber
        self.symmetric = (block is None and proxy_rows is None
                          and spec.layer == "single" and points.weights is None)
        self._block = block or (
            lambda r, c: eval_block(spec, points.subset(r), points.subset(c)))
        self._rows = proxy_rows
        self._w = None if points.weights is None else float(np.mean(points.weights[self.perm]))

    def block(self, rows, cols):
        return self._block(self.perm[rows], self.perm[cols])

    def proxy_row_block(self, rows, proxy: PointSet):
        # incoming fields: proxy charges evaluated at the node's points
        t = self._points.subset(self.perm[rows])
        blk = eval_block(self.proxy_spec, t, proxy) if self._rows is None else self._rows(t, proxy)
        return blk if self._w is None else self._w * blk

    def proxy_col_block(self, cols, proxy: PointSet):
        # outgoing fields: node sources evaluated on the proxy surface; the
        # single layer reads no source normals
        return eval_block(self.proxy_spec, proxy, self._points.subset(self.perm[cols]))

    def proxy_fields(self, cols, rings):
        """The far fields of a group of nodes, from one kernel call: node g
        has the DOFs ``cols[g]`` and the proxy surface ``rings[g]`` of an
        (m, p, dim) array.  Returns two lists, whose g-th blocks are
        ``proxy_col_block(cols[g], PointSet(rings[g]))`` and the transpose
        of ``proxy_row_block`` of the same, bit for bit.  Both are read off
        the one unweighted single-layer block G, as G diag(w) and w G with
        w the mean weight, the products the per-node blocks make; G's
        transpose is the incoming block bit for bit.

        Returns None if the incoming field is not the single layer (a
        ``proxy_rows`` was given) or ``proxy_col_block`` or
        ``proxy_row_block`` is replaced, on a subclass or on the instance:
        ``compress_source`` then calls those two per node."""
        if self._rows is not None or any(
                getattr(getattr(self, name), "__func__", None) is not getattr(KernelSource, name)
                for name in ("proxy_col_block", "proxy_row_block")):
            return None
        counts = [c.size for c in cols]
        pts = self._points.subset(self.perm[np.concatenate(cols)])
        G = eval_fields(self.proxy_spec, rings, pts, counts)
        at = np.cumsum(counts[:-1])
        out = G if pts.weights is None else G * pts.weights
        if self._w is not None:
            # w comes from the weights, so out is a product, not G
            G *= self._w
        return np.split(out, at, axis=1), np.split(G, at, axis=1)


@dataclass
class CompressedNode:
    """One node of a compressed level.  Rows and columns share one
    skeleton, so D is square and L and R have k = skel.size columns and
    rows; ``Level`` checks the shapes.  ``compress_source`` and the reader
    hold L as ``R.T``, a read-only view of R's buffer."""

    skel: np.ndarray        # surviving indices, global tree order, sorted
    D: np.ndarray           # extracted diagonal block (n x n)
    L: np.ndarray           # row interpolation, n x k: R.T
    R: np.ndarray           # column interpolation, k x n
    children: np.ndarray | None   # positions in the previous level (None at finest)

    @property
    def k(self):
        return self.skel.size

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


@dataclass
class CompressedMatrix:
    """Telescoping compressed form of an N x N structured matrix."""

    levels: list
    S: np.ndarray
    n: int
    eps: float
    perm: np.ndarray
    scalar_field: str

    @property
    def nlevels(self):
        return len(self.levels)

    @property
    def dtype(self):
        return np.complex128 if self.scalar_field == "complex" else np.float64

    def skeleton_counts(self):
        """Skeleton total K per level, finest first."""
        return [lv.K for lv in self.levels]

    def storage_bytes(self):
        """Bytes of the arrays held, each buffer counted once: an L that is
        a view of R adds nothing."""
        arrays = [self.S, self.perm]
        for lv in self.levels:
            for nd in lv.nodes:
                arrays += nd.D, nd.L, nd.R, nd.skel
        return sum({(a.__array_interface__["data"][0], a.nbytes): a.nbytes
                    for a in arrays}.values())

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
    alike, with L = R^T, held as a view of R, so every diagonal block of the
    inverse recursion is square.  A single-layer
    kernel without quadrature weights is symmetric
    (``KernelSource.symmetric``), and its ID leaves out the row half of the
    target, which repeats the column half; see ``compress_source``.
    """
    source = KernelSource(spec, points, tree.perm)
    return compress_source(source, tree, eps, proxy=proxy, mode=mode,
                           allow_large=allow_large)


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
    """Compression sweep over any matrix source exposing ``block``,
    ``proxy_row_block``, ``proxy_col_block``, ``n``, ``dtype``, ``wavenumber``,
    and optionally ``symmetric`` and ``proxy_fields`` (``KernelSource``),
    which takes precedence over the per-node proxy blocks where it does
    not return None.

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
       level's store, so no full-size block is built as a temporary.  A
       ``KernelSource``'s tiles are blocks between subsets of its point
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
       once its last half has taken them.  A source without
       ``proxy_fields``, or whose ``proxy_fields`` returns None (a
       ``KernelSource`` whose incoming field is not the single layer, or
       whose per-node proxy blocks are replaced), has both halves
       evaluated node by node, by ``proxy_col_block`` and
       ``proxy_row_block``, on one ``PointSet`` of the node's surface.
       ``lowrank._target_id`` takes the target as these row blocks and
       picks the route: ``id_gram`` on the Gram
       matrix of the blocks, taken one at a time, for a tall target of at
       least 64 columns at eps >= ``lowrank._GRAM_MIN_EPS``, and otherwise
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
    if not 0 < eps < 1:
        raise InvalidInput("eps must lie in (0, 1)")
    if mode not in ("proxy", "global"):
        raise InvalidInput(f"unknown mode {mode!r}")
    n = tree.n_points
    if mode == "global" and n > GLOBAL_MODE_LIMIT and not allow_large:
        raise RefusedTooLarge(
            f"global-mode compression of N={n} is quadratic; "
            "pass allow_large=True to force it")
    cfg = (proxy or ProxyConfig()).resolve(tree.dim)
    dtype = source.dtype
    field = "complex" if np.issubdtype(dtype, np.complexfloating) else "real"

    covers = tree.levels
    top = next(i for i, c in enumerate(covers) if len(c) == 1)
    if top == 0:
        allidx = np.arange(n)
        S = np.ascontiguousarray(source.block(allidx, allidx), dtype=dtype)
        return CompressedMatrix(levels=[], S=S, n=n, eps=eps,
                                perm=tree.perm.copy(), scalar_field=field)

    k_wave = getattr(source, "wavenumber", 0.0)
    sym = getattr(source, "symmetric", False)
    fields = getattr(source, "proxy_fields", None)
    levels = []
    interp_max = []     # max |P| of every ID kept, in any order

    def _blk(rows, cols):
        # nodes can be isolated (no neighbors) or fully compressed away
        if len(rows) == 0 or len(cols) == 0:
            return np.zeros((len(rows), len(cols)), dtype=dtype)
        return source.block(rows, cols)

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
                    tile = source.block(rows[lo:lo + step], cols)
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
            if k_wave > 0:
                n_far += np.ceil(4.0 * k_wave * radii).astype(np.int64)
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
            held = {}   # node -> (outgoing, incoming), or its proxy surface

        def far(a, half):
            # half 0 or 1 of node a's proxy field; its group's fields are
            # evaluated when the group's first node asks, and each node's
            # are let go when its last half is taken.  Without grouped
            # fields, each node of the group gets its proxy surface, for
            # the source's per-node blocks
            if a not in held:
                g = group[a]
                rings = _rings(centers[g], radii[g], n_far[a])
                got = fields([dofs[b] for b in g], rings) if fields else None
                held.update(zip(g, zip(*got) if got else map(PointSet, rings)))
            f = held.pop(a) if half == (0 if sym else 1) else held[a]
            if not isinstance(f, PointSet):
                return f[half]
            if half == 0:
                return source.proxy_col_block(dofs[a], f)
            return source.proxy_row_block(dofs[a], f).T

        def build_node(a):
            d = dofs[a]
            D = Ds[a]
            if carried[a]:
                # carried, so its D is zero
                R = np.eye(d.size, dtype=dtype)
                return CompressedNode(skel=d, D=D, L=_transposed(R), R=R,
                                      children=children[a]), np.arange(d.size)
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
            return (CompressedNode(skel=d[pos], D=D, L=_transposed(R), R=R,
                                   children=children[a]), pos)

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
    return CompressedMatrix(levels=levels, S=Ds[0], n=n, eps=eps,
                            perm=tree.perm.copy(), scalar_field=field)


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


def _joined(records):
    """The container whose records ``_write_arr`` and the writers listed:
    one bytearray of their summed size, each header copied into its slice
    and each array written there row-major by ``np.copyto``, transposed
    views included, so no record is copied anywhere else first."""
    sizes = [r.nbytes if isinstance(r, np.ndarray) else len(r) for r in records]
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


def _write_header(out, kind, field, n, nlevels, eps, perm):
    """Magic, version, container kind and scalar field, then (N, levels,
    eps) and the tree permutation; ``_Reader`` reads them back."""
    out += _MAGIC, struct.pack("<HBBqId", _VERSION, kind, 1 if field == "complex" else 0,
                               n, nlevels, eps)
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
        self.field = "complex" if self.value_code else "real"
        self.n, self.nlevels, self.eps = self.unpack("<qId")
        self.perm = self.array(1, index=True)
        if self.perm.size != self.n or \
                not np.array_equal(np.sort(self.perm), np.arange(self.n)):
            raise InvalidInput("corrupt skelkit container: bad permutation")

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
        """The next node's diag, down and up records, as (up, diag, down).
        A down record with the bits of up transposed is held as ``up.T``, a
        read-only view, as ``compress_source`` and ``solver.factor`` hold
        it; any other is copied out as read."""
        diag, down, up = self.array(2), self.array(2, order=None), self.array(2)
        return up, diag, _transposed(up) if _same_bits(down, up.T) else down.copy()

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
    each node's shapes, and its message is given the level.  One DOF count
    chains from N: the finest level takes N DOFs, and every coarser level
    exactly the skeletons the level below leaves.  Returns the levels and
    the skeleton count the top must take."""
    levels = []
    leaves = f.n
    for li in range(f.nlevels):
        (count,) = f.unpack("<I")
        nodes = [read_node(f, li, a) for a in range(count)]
        try:
            lv = Level(nodes)
        except InvalidInput as exc:
            raise InvalidInput(f"corrupt skelkit container: level {li + 1}, {exc}") from None
        if lv.dof_off[-1] != leaves:
            raise InvalidInput(
                f"corrupt skelkit container: level {li + 1} takes {lv.dof_off[-1]} "
                f"DOFs, the level below leaves {leaves}")
        leaves = lv.K
        levels.append(lv)
    return levels, leaves


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
    if has_ch != (li > 0) or (li == 0 and ch.size):
        raise InvalidInput("corrupt skelkit container: children flag")
    if not np.array_equal(skel, again):
        # what a source with separate row and column IDs wrote
        raise InvalidInput(
            f"skelkit container: level {li + 1}, node {a} has different row and "
            "column skeletons; recompress the matrix to load it")
    if L.shape[1] != skel.size or R.shape[0] != skel.size:
        raise InvalidInput("corrupt skelkit container: skeleton sizes")
    return CompressedNode(skel=skel, D=D, L=L, R=R, children=ch if has_ch else None)


def serialize_compressed(cm: CompressedMatrix) -> bytearray:
    """Bit-exact binary container: header (N, levels, eps, field), the
    permutation, per-level block tables, dense top S.  See README.  The
    records are listed as headers and the arrays themselves, then written
    by ``_joined`` into one bytearray of the container's size."""
    out = []
    _write_header(out, 1, cm.scalar_field, cm.n, cm.nlevels, cm.eps, cm.perm)
    _write_levels(out, cm.levels, _write_compressed_head)
    _write_arr(out, cm.S)
    return _joined(out)


def deserialize_compressed(data: bytes) -> CompressedMatrix:
    """Inverse of serialize_compressed; raises InvalidInput on bytes that
    are truncated or do not form a consistent container."""
    f = _Reader(data, kind=1)
    levels, top = _read_levels(f, _read_compressed_node)
    for li in range(1, len(levels)):
        # children list the previous level's nodes once each, in order, and
        # each D block stacks its children's skeletons
        k = np.diff(levels[li - 1].k_off)
        kids = [nd.children for nd in levels[li].nodes]
        if not (np.array_equal(np.concatenate(kids) if kids else [], np.arange(k.size))
                and all(nd.D.shape[0] == k[c].sum() for nd, c in zip(levels[li].nodes, kids))):
            raise InvalidInput(f"corrupt skelkit container: level {li + 1} "
                               "does not fit the tree")
    S = f.array(2)
    f.finish()
    if S.shape != (top, top):
        raise InvalidInput("corrupt skelkit container: top block shape")
    return CompressedMatrix(levels=levels, S=S, n=f.n, eps=f.eps, perm=f.perm,
                            scalar_field=f.field)


def save_compressed(cm: CompressedMatrix, path):
    with open(path, "wb") as f:
        f.write(serialize_compressed(cm))


def load_compressed(path) -> CompressedMatrix:
    with open(path, "rb") as f:
        return deserialize_compressed(f.read())
