"""Point clouds and adaptive orthtrees (binary/quad/octrees).

The tree reorders points so that every node owns a contiguous index range,
which is what makes blockwise compression of the kernel matrix possible.
Level 0 of ``OrthTree.levels`` is the finest level; the last level is the
root alone.  A leaf whose subdivision stopped early is listed again at every
finer level it spans, so each level is a full partition of ``0..N-1``.
"""

import functools
import math
import numbers
import operator
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput

DEFAULT_MAX_LEAF = {2: 64, 3: 128}

# relative padding of the root box; keeps extreme points strictly inside
ROOT_PAD = 1e-12

# hard cap; beyond this, duplicated points are left together in one leaf
_MAX_DEPTH = 60


def _index(value, what):
    """``value`` as an int, or InvalidInput naming ``what`` for a bool or a fraction."""
    try:
        if isinstance(value, bool):  # a bool is an int: operator.index(True) is 1
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise InvalidInput(f"{what} must be an integer, got {value!r}") from None


def _finite(value):
    """Whether ``value`` is a finite real: a bool, a non-number and an int
    beyond the float range are not."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def _positive(value):
    """Whether ``value`` is a finite real > 0 (``_finite``)."""
    return _finite(value) and value > 0


def _fraction(value, what, lo=0.0):
    """InvalidInput naming ``what`` unless ``value`` is a finite real
    (``_finite``: not a bool) in (0, 1), and at least ``lo``."""
    if not (_finite(value) and 0 < value < 1 and value >= lo):
        bounds = f"[{lo:.3g}, 1)" if lo else "(0, 1)"
        raise InvalidInput(f"{what} must be a real number in {bounds}, got {value!r}")


def coincidence_scale(lo, hi):
    """max(largest per-axis extent, largest |coordinate|, 1) of a point set
    whose coordinates on each axis run from lo to hi: arrays whose last axis
    is the point's, and whose other axes, if any, list sets."""
    return np.maximum(np.maximum(hi - lo, np.maximum(hi, -lo)).max(axis=-1), 1.0)


@dataclass
class PointSet:
    """N points in 2 or 3 dimensions, with optional unit normals (needed by
    double-layer kernels) and quadrature weights.

    ``scale``, the ``coincidence_scale`` of its coordinates, is the length
    against which kernels class two points as coincident.  It is
    found when a set is built and kept by every subset of it, so a kernel
    entry between points of one set does not depend on the block that
    evaluates it."""

    coords: np.ndarray
    normals: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.coords = np.ascontiguousarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 2 or self.coords.shape[1] not in (2, 3):
            raise InvalidInput(f"coords must be (N, d) with d in {{2,3}}, got {self.coords.shape}")
        if self.coords.shape[0] < 1:
            raise InvalidInput("need at least one point")
        if not np.all(np.isfinite(self.coords)):
            raise InvalidInput("non-finite coordinate")
        self.scale = float(coincidence_scale(self.coords.min(axis=0), self.coords.max(axis=0)))
        if self.normals is not None:
            self.normals = np.ascontiguousarray(self.normals, dtype=np.float64)
            if self.normals.shape != self.coords.shape:
                raise InvalidInput("normals must match coords shape")
            lens = np.linalg.norm(self.normals, axis=1)
            if not np.all(np.abs(lens - 1.0) <= 1e-12):  # NaN included
                raise InvalidInput("normals must be unit vectors (|n| = 1 within 1e-12)")
        if self.weights is not None:
            self.weights = np.ascontiguousarray(self.weights, dtype=np.float64).reshape(-1)
            if self.weights.shape[0] != self.coords.shape[0]:
                raise InvalidInput("weights must have one entry per point")
            if not np.all(np.isfinite(self.weights)):
                raise InvalidInput("non-finite weight")

    @property
    def n(self):
        return self.coords.shape[0]

    @property
    def dim(self):
        return self.coords.shape[1]

    def subset(self, idx):
        """New PointSet restricted to the given 1-D index (fancy indexing),
        with this set's ``scale``.  The rows of a validated set are valid,
        so they are not checked again; an index that selects no point, or
        is not 1-D, raises InvalidInput."""
        out = object.__new__(type(self))
        out.coords, out.scale = self.coords[idx], self.scale
        if out.coords.ndim != 2 or out.coords.shape[0] < 1:
            raise InvalidInput("subset index must be 1-D and select at least one point")
        for name in ("normals", "weights"):
            arr = getattr(self, name)
            setattr(out, name, None if arr is None else arr[idx])
        return out


@dataclass
class TreeNode:
    center: np.ndarray
    halfwidth: float
    lo: int          # index range [lo, hi) in tree ordering
    hi: int
    depth: int
    parent: int | None = None
    children: list = field(default_factory=list)

    @property
    def size(self):
        return self.hi - self.lo


@dataclass
class OrthTree:
    """Adaptive 2^d-ary partition.  ``perm`` maps tree positions to original
    indices: ``coords_tree = coords[perm]``."""

    nodes: list
    levels: list        # levels[0] = finest cover ... levels[-1] = [root]
    perm: np.ndarray
    dim: int

    @property
    def depth(self):
        return len(self.levels)

    @property
    def root(self):
        return self.nodes[self.levels[-1][0]]

    @property
    def n_points(self):
        return self.root.size

    def leaves(self):
        return [i for i, nd in enumerate(self.nodes) if not nd.children]

    def cover_children(self, level):
        """For each node of cover ``level``, the ascending positions of its
        children in the next finer cover, ``level - 1``: ``build_tree`` lists
        children in range order, as covers are sorted.  A leaf that stopped
        early is listed in both covers as its own only child."""
        at = {nid: j for j, nid in enumerate(self.levels[level - 1])}
        return [np.array([at[c] for c in self.nodes[nid].children or [nid]], dtype=np.int64)
                for nid in self.levels[level]]

    @functools.cached_property
    def adjacency(self):
        """For each cover, each box's ascending list of the boxes it touches:
        on every axis, |c_a - c_b| - (h_a + h_b) <= 1e-9 h_root.  Found from
        the root down (Carrier-Greengard-Rokhlin, SISC 1988): two touching
        boxes of cover l lie in equal or touching boxes of cover l+1."""
        boxes = np.array([[*nd.center, nd.halfwidth] for nd in self.nodes])
        out, pa, pb = [[[]]], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        for level in range(self.depth - 1, 0, -1):
            # each pair (p, q) of equal or touching boxes of cover l+1 gives
            # the candidate pairs (children of p) x (children of q) of cover l
            kids = self.cover_children(level)
            flat, cnt = np.concatenate(kids), np.array([k.size for k in kids])
            p, q = (np.concatenate([np.arange(cnt.size), x]) for x in (pa, pb))
            size, start = cnt[p] * cnt[q], np.cumsum(cnt) - cnt
            pair = np.repeat(np.arange(p.size), size)
            r = np.arange(pair.size) - np.repeat(np.cumsum(size) - size, size)
            a = flat[start[p][pair] + r // cnt[q][pair]]
            b = flat[start[q][pair] + r % cnt[q][pair]]
            c, h = np.hsplit(boxes[self.levels[level - 1]], [-1])
            gap = np.abs(c[a] - c[b]) - (h[a] + h[b])
            hit = (a != b) & np.all(gap <= 1e-9 * self.root.halfwidth, axis=1)
            order = np.lexsort((b[hit], a[hit]))
            pa, pb = a[hit][order], b[hit][order]
            ends = [0, *np.cumsum(np.bincount(pa, minlength=flat.size)).tolist()]
            col = pb.tolist()
            out.append([col[i:j] for i, j in zip(ends, ends[1:])])
        return out[::-1]


def build_tree(points: PointSet, max_leaf_size: int | None = None) -> OrthTree:
    """Sort points into an adaptive orthtree with contiguous per-node ranges.

    The root is the smallest enclosing hypercube (padded by 1e-12 relative).
    Boxes split at their centers; a point exactly on a split plane goes to
    the higher-coordinate child.  Empty children are pruned.  Subdivision
    stops once a node holds <= max_leaf_size points.
    """
    coords = points.coords
    d = points.dim
    n = points.n
    max_leaf_size = _index(DEFAULT_MAX_LEAF[d] if max_leaf_size is None else max_leaf_size,
                           "max_leaf_size")
    if max_leaf_size < 1:
        raise InvalidInput("max_leaf_size must be >= 1")
    if not np.all(np.isfinite(coords)):
        raise InvalidInput("non-finite coordinate")

    lo_c = coords.min(axis=0)
    hi_c = coords.max(axis=0)
    center = 0.5 * (lo_c + hi_c)
    halfwidth = 0.5 * float((hi_c - lo_c).max())
    pad_scale = max(halfwidth, float(np.abs(center).max()), 1.0)
    halfwidth = halfwidth * (1.0 + ROOT_PAD) + ROOT_PAD * pad_scale

    nodes = []
    perm = np.empty(n, dtype=np.int64)
    order = np.arange(n, dtype=np.int64)
    pos = [0]  # running DFS write position into perm

    def recurse(idx, center, hw, depth, parent):
        node_id = len(nodes)
        node = TreeNode(center=center.copy(), halfwidth=hw, lo=pos[0],
                        hi=pos[0] + idx.size, depth=depth, parent=parent)
        nodes.append(node)
        if idx.size <= max_leaf_size or depth >= _MAX_DEPTH:
            perm[node.lo:node.hi] = idx
            pos[0] += idx.size
            return node_id
        pts = coords[idx]
        # child octant per point; ties (== center) go to the upper child
        code = np.zeros(idx.size, dtype=np.int64)
        for a in range(d):
            code |= (pts[:, a] >= center[a]).astype(np.int64) << a
        for c in range(1 << d):
            sel = idx[code == c]
            if sel.size == 0:
                continue
            offs = np.array([(0.5 if (c >> a) & 1 else -0.5) * hw for a in range(d)])
            cid = recurse(sel, center + offs, 0.5 * hw, depth + 1, node_id)
            node.children.append(cid)
        return node_id

    recurse(order, center, halfwidth, 0, None)

    max_depth = max(nd.depth for nd in nodes)
    # cover at fineness f: nodes at depth (max_depth - f) plus shallower leaves
    levels = []
    for f in range(max_depth, -1, -1):
        cover = [i for i, nd in enumerate(nodes)
                 if nd.depth == f or (not nd.children and nd.depth < f)]
        cover.sort(key=lambda i: nodes[i].lo)
        levels.append(cover)
    return OrthTree(nodes=nodes, levels=levels, perm=perm, dim=d)


def neighbors(tree: OrthTree, node_id: int) -> list:
    """Same-depth nodes whose boxes touch the given node's box (itself
    excluded), in increasing node-id order: the same-depth part of its row
    in the cover that holds its depth."""
    node_id = _index(node_id, "node id")
    if not 0 <= node_id < len(tree.nodes):
        raise InvalidInput(f"invalid node id {node_id!r}")
    depth = tree.nodes[node_id].depth
    ids, rows = tree.levels[tree.depth - 1 - depth], tree.adjacency[tree.depth - 1 - depth]
    return sorted(ids[b] for b in rows[ids.index(node_id)] if tree.nodes[ids[b]].depth == depth)


def level_neighbors(tree: OrthTree, level: int) -> list:
    """Adjacency lists within one cover (``tree.levels[level]``): for each
    box, the ascending positions of the boxes it touches, read from
    ``tree.adjacency`` (shared, not to be modified).  Unlike
    :func:`neighbors` this mixes box sizes, since early-stopped leaves are
    carried down through finer covers."""
    level = _index(level, "level")
    if not 0 <= level < tree.depth:
        raise InvalidInput(f"level must lie in [0, {tree.depth}), got {level}")
    return tree.adjacency[level]


def fibonacci_sphere(n) -> np.ndarray:
    """n x 3 points of a spherical Fibonacci spiral on the unit sphere."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    th = np.pi * (3.0 - np.sqrt(5.0)) * i
    return np.column_stack([rho * np.cos(th), rho * np.sin(th), z])


# ---------------------------------------------------------------------------
# point-set file formats (see README for the layouts)

def read_points_text(path, dim, has_normals=False, has_weights=False) -> PointSet:
    """Whitespace-delimited text, one point per row: d coordinate columns,
    then optionally d normal columns, then optionally one weight column."""
    try:
        data = np.loadtxt(path, dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise InvalidInput(f"{path}: malformed point file: {exc}") from None
    want = dim + (dim if has_normals else 0) + (1 if has_weights else 0)
    if data.shape[1] != want:
        raise InvalidInput(f"expected {want} columns, found {data.shape[1]}")
    coords = data[:, :dim]
    k = dim
    normals = None
    if has_normals:
        normals = data[:, k:k + dim]
        k += dim
    weights = data[:, k] if has_weights else None
    return PointSet(coords, normals, weights)


def write_points_text(ps: PointSet, path):
    cols = [ps.coords]
    if ps.normals is not None:
        cols.append(ps.normals)
    if ps.weights is not None:
        cols.append(ps.weights[:, None])
    np.savetxt(path, np.hstack(cols), fmt="%.17g")


_BIN_MAGIC = b"SKPT"


def write_points_binary(ps: PointSet, path):
    """Shape-prefixed binary: magic, u32 N, u8 dim, u8 flags (bit0 normals,
    bit1 weights), then float64 coords row-major, normals, weights."""
    flags = (1 if ps.normals is not None else 0) | (2 if ps.weights is not None else 0)
    with open(path, "wb") as f:
        f.write(_BIN_MAGIC)
        f.write(struct.pack("<IBB", ps.n, ps.dim, flags))
        f.write(ps.coords.tobytes())
        if ps.normals is not None:
            f.write(ps.normals.tobytes())
        if ps.weights is not None:
            f.write(ps.weights.tobytes())


def read_points_binary(path) -> PointSet:
    """Inverse of write_points_binary; a file that is not one, or whose
    length does not match its header, raises InvalidInput."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != _BIN_MAGIC:
        raise InvalidInput(f"{path}: not a skelkit binary point file")
    if len(data) < 10:
        raise InvalidInput(f"{path}: truncated skelkit binary point file")
    n, dim, flags = struct.unpack_from("<IBB", data, 4)
    if flags & ~3:
        raise InvalidInput(f"{path}: unknown flag bits {flags:#x} (1 normals, 2 weights)")
    sizes = [n * dim, n * dim if flags & 1 else 0, n if flags & 2 else 0]
    if len(data) != 10 + 8 * sum(sizes):
        raise InvalidInput(f"{path}: {len(data)} bytes, header (N={n}, dim={dim}, "
                           f"flags={flags}) needs {10 + 8 * sum(sizes)}")
    vals = np.frombuffer(data, dtype=np.float64, offset=10).copy()
    coords, normals, weights = np.split(vals, np.cumsum(sizes)[:2])
    return PointSet(coords.reshape(n, dim),
                    normals.reshape(n, dim) if flags & 1 else None,
                    weights if flags & 2 else None)
