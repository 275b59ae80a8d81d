"""Sparse embedding, telescoping factorization and solves.

A compressed matrix D1 + L1[...]R1 embeds into a structured sparse system
by introducing per-level auxiliary variables z = R x and y = S z:

    [ D1 L1                 ] [x ]   [b]
    [ R1       -I           ] [y1]   [0]
    [    -I  D2   L2        ] [z1] = [0]
    [         R2  ...       ] [..]   [.]
    [             ...  -I   ]
    [              -I   S   ]

Rather than handing that system to a generic sparse LU, the factorization
here eliminates x and y blockwise, node by node, through the node's ID
(Ho-Ying, CPAM 2016; Minden et al., Multiscale Model. Simul. 2017).  In the
order [q, p], with p the node's skeleton positions and q the other r DOFs,
R = [T, I] and L = R^T, so N = [I; -T] spans the null space of R and
E = [0; I] satisfies R E = I.  One pivoted LU of the r x r block
M = N^T D N then gives the inverse of the bordered block,
[[D, L], [R, 0]]^-1 = [[Dd, Ld], [Rd, -Lambda]], as

    Dd = N M^-1 N^T,   Ld = E - N W,   Rd = E^T - (D N)_p M^-1 N^T,
    Lambda = D_pp - (D N)_p W,   with W = M^-1 N^T D E,

without inverting D or the bordered block.  A node that keeps every DOF
(r = 0) takes no LU: Dd = 0, Ld = L, Rd = R and Lambda = D.  The recursion
continues on Shat = Lambda + S one level up.  When every D and S is
symmetric, so is every bordered block and its inverse: Rd is then read off
Ld^T, and Ld is held as a view of it.  The embedding is still
assembled (and exportable as Matrix Market) so an external sparse solver
can serve as an independent cross-check.
"""

import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import InvalidInput, NotConverged, SingularBlock
from .skel import (CompressedMatrix, Level, _joined, _offsets, _read_levels, _Reader,
                   _same_bits, _telescope, _transposed, _write_arr, _write_header,
                   _write_levels)

_RCOND_WARN = 1e-14


@dataclass
class SparseEmbedding:
    """Coordinate-form embedding with entries grouped into labeled blocks
    ("D1", "L1", "R1", "I:y1", "I:z1", ..., "S").  Variable layout is
    [x, y1, z1, ..., yL, zL]; the right-hand side is [b, 0, ..., 0]."""

    m: int
    n: int
    dtype: np.dtype
    blocks: dict
    perm: np.ndarray

    def to_coo(self):
        rows = np.concatenate([v[0] for v in self.blocks.values()])
        cols = np.concatenate([v[1] for v in self.blocks.values()])
        vals = np.concatenate([v[2] for v in self.blocks.values()])
        return rows, cols, vals

    def to_dense(self):
        A = np.zeros((self.m, self.m), dtype=self.dtype)
        rows, cols, vals = self.to_coo()
        A[rows, cols] = vals
        return A

    def rhs(self, b):
        b = np.asarray(b)
        if b.shape[0] != self.n:
            raise InvalidInput("rhs length mismatch")
        out = np.zeros((self.m,) + b.shape[1:], dtype=np.result_type(self.dtype, b.dtype))
        out[:self.n] = b[self.perm]
        return out

    def extract_x(self, sol):
        out = np.empty_like(sol[:self.n])
        out[self.perm] = sol[:self.n]
        return out

    @property
    def nnz(self):
        return sum(len(v[0]) for v in self.blocks.values())


def _block_entries(parts, label, r0, c0, B):
    """Append B's nonzeros, shifted to (r0, c0), to the entries of ``label``."""
    nz = np.nonzero(B)
    if len(nz[0]):
        parts.setdefault(label, []).append((nz[0] + r0, nz[1] + c0, B[nz]))


def assemble_embedding(cm: CompressedMatrix) -> SparseEmbedding:
    """Build the coordinate-form multilevel embedding of ``cm``."""
    n = cm.n
    dtype = cm.dtype
    parts = {}          # label -> [(rows, cols, vals), ...], joined once at the end
    # column offsets of [x, y1, z1, y2, z2, ...]; y(l) and z(l) both have K
    # entries, so these are also the row offsets of [b-rows, z1-coupling,
    # y1-coupling, z2-coupling, ...]
    off = [0, n]
    for lv in cm.levels:
        off += [off[-1] + lv.K, off[-1] + 2 * lv.K]
    m = off[-1]

    for li, lv in enumerate(cm.levels):
        l1 = li + 1
        # this level's D/L rows and D/R columns: the b-rows and x at the
        # finest level, otherwise the y(l-1) coupling rows and z(l-1)
        dl = 0 if li == 0 else off[2 * li]
        y, z = off[2 * li + 1], off[2 * li + 2]     # y(l) and z(l)
        for a, nd in enumerate(lv.nodes):
            _block_entries(parts, f"D{l1}", dl + lv.dof_off[a], dl + lv.dof_off[a], nd.D)
            _block_entries(parts, f"L{l1}", dl + lv.dof_off[a], y + lv.k_off[a], nd.L)
            _block_entries(parts, f"R{l1}", y + lv.k_off[a], dl + lv.dof_off[a], nd.R)
        # coupling identities: R(l) x - z(l) = 0 and -y(l) + [next level] = 0
        idx = np.arange(lv.K)
        minus = np.full(lv.K, -1.0, dtype=dtype)
        parts[f"I:z{l1}"] = [(y + idx, z + idx, minus)]
        parts[f"I:y{l1}"] = [(z + idx, y + idx, minus)]

    # S couples the y(L) rows to the z(L) columns
    _block_entries(parts, "S", off[2 * cm.nlevels], off[2 * cm.nlevels], cm.S)
    blocks = {label: tuple(np.concatenate(arrs) for arrs in zip(*entries))
              for label, entries in parts.items()}
    return SparseEmbedding(m=m, n=n, dtype=dtype, blocks=blocks, perm=cm.perm)


@dataclass
class FactoredNode:
    """One node of the factored inverse: the blocks of B^-1, B = [[D, L],
    [R, 0]] the node's bordered block, that ``solve`` reads; see the module
    docstring for how ``factor`` reads them off the node's ID."""

    Dd: np.ndarray          # B^-1[:n, :n] = N M^-1 N^T
    Ld: np.ndarray          # B^-1[:n, n:] = E - N W; Rd.T, read-only, where B is symmetric
    Rd: np.ndarray          # B^-1[n:, :n] = E^T - (D N)_p M^-1 N^T, or Ld^T
    lu_D = lu_M = None      # no LU is kept; benchmark/spans.py still reads the names

    @property
    def Lam(self):
        # nor is Lambda = -B^-1[n:, n:], which only factor reads, one level
        # up; benchmark/spans.py still reads its nbytes
        return np.zeros((0, 0), dtype=self.Dd.dtype)

    @property
    def blocks(self):
        return self.Rd, self.Dd, self.Ld


@dataclass
class FactoredInverse:
    levels: list
    S_lu: tuple
    n: int
    perm: np.ndarray
    scalar_field: str
    warnings: list = field(default_factory=list)

    @property
    def dtype(self):
        return np.complex128 if self.scalar_field == "complex" else np.float64

    def solve(self, b):
        return solve(self, b)


def lu_factor(a):
    """LU with partial pivoting through LAPACK getrf: (lu, piv) as scipy's
    ``lu_factor`` returns them, 0-based pivots and 0x0 blocks included.  An
    exactly zero pivot stays on lu's diagonal for the caller to check; no
    warning is issued, so no warning filter has to be touched."""
    a = np.asarray(a)
    if a.size == 0:
        return np.empty_like(a), np.arange(0, dtype=np.int32)
    getrf, = get_lapack_funcs(("getrf",), (a,))
    lu, piv, _ = getrf(a)
    return lu, piv


def lu_solve(lu_and_piv, b):
    """x with a x = b, from lu_factor's (lu, piv) of a, through LAPACK getrs
    as scipy's ``lu_solve`` calls it, without its batching and input checks."""
    lu, piv = lu_and_piv
    b = np.asarray(b)
    if lu.shape[0] != b.shape[0]:
        raise ValueError(f"shapes of lu {lu.shape} and b {b.shape} are incompatible")
    getrs, = get_lapack_funcs(("getrs",), (lu, b))
    if b.size == 0:
        return np.empty_like(b, dtype=getrs.dtype)
    x, _ = getrs(lu, piv, b)
    return x


def _rcond1(A, Ainv):
    """1 / (||A||_1 ||A^-1||_1), the norms by LAPACK lange."""
    lange, = get_lapack_funcs(("lange",), (A, Ainv))
    na, nb = lange("1", A), lange("1", Ainv)
    return 1.0 / (na * nb) if na * nb > 0 else 0.0


def _put_diagonal(M, blocks):
    """Write the square ``blocks`` down M's diagonal, one after another."""
    o = 0
    for blk in blocks:
        k = blk.shape[0]
        M[o:o + k, o:o + k] = blk
        o += k


def _symmetric(cm):
    """Whether every node's D and the top S equal their transposes bit for
    bit.  With L = R^T at every node, the matrix and each node's bordered
    block are then symmetric.  Each block is compared in strips of 128 rows
    of its upper triangle against the columns they mirror, and a BIE's
    first D ends the search.  On the 4096-point cube at eps 1e-6 (2-vCPU
    Xeon) the strips take 0.025 s and 0.4 MB of temporaries, whole blocks
    against their transposes 0.064 s and 7 MB."""
    blocks = [nd.D for lv in cm.levels for nd in lv.nodes] + [cm.S]
    return all(_same_bits(A[i:i + 128, i:], A[i:, i:i + 128].T)
               for A in blocks for i in range(0, A.shape[0], 128))


def _not_interpolative(level, node, why):
    return InvalidInput(f"level {level}, node {node} is not interpolative: {why}")


def _level_orders(lv, dofs, level):
    """Each node's elimination order [q, p] and its inverse, in positions
    local to the node, cut from two level-wide arrays by ``lv.dof_off``.

    ``dofs`` lists the level's DOFs, node after node.  p holds the positions
    of a node's skeletons among its DOFs, in skeleton order, and q the rest,
    ascending.  A skeleton that is not one of its node's DOFs, or is listed
    twice, is refused with InvalidInput.  Returns (order, inverse, r, skel):
    the two level-wide arrays, the count r of q per node, and the
    skeletons, which are the next level's DOFs."""
    nb, off, k_off = len(lv.nodes), lv.dof_off, lv.k_off
    if off[-1] != dofs.size:
        raise InvalidInput(f"level {level} takes {off[-1]} DOFs, the level below "
                           f"leaves {dofs.size}")
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
    bad = np.bincount(owner[mask], minlength=nb) != ks
    if bad.any():
        raise _not_interpolative(level, int(np.flatnonzero(bad)[0]),
                                 "its skeletons are not distinct DOFs of its own")
    q = np.flatnonzero(~mask)
    r = sizes - ks
    q_owner = owner[q]
    order = np.empty(dofs.size, dtype=np.int64)
    order[off[q_owner] + np.arange(q.size) - _offsets(r)[q_owner]] = q
    order[off[skel_owner] + r[skel_owner] + np.arange(skel.size) - k_off[skel_owner]] = p
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    start = off[owner]
    return order - start, inverse - start, r.tolist(), skel


def factor(cm: CompressedMatrix, regularize: float = 0.0) -> FactoredInverse:
    """Telescoping inverse of a compressed matrix, in elimination form.

    Every node must be interpolative, as ``compress_source`` builds it: R
    is exactly I at the skeleton positions p (its skeletons among its DOFs)
    and L == R^T bitwise; otherwise InvalidInput names the level and node.
    If every D and S equals its transpose bit for bit, so that each
    bordered block is symmetric, each node's Rd is read off Ld^T and Ld is
    held as ``Rd.T``, a read-only view: one buffer for the pair.  The
    matrix alone decides this, so a loaded copy factors bit for bit alike.
    Per level and node, D_eff is D with the children's Lambda on its
    diagonal.  In the order [q, p], one pivoted LU of M = N^T D_eff N, r x r
    with r = n - k, and one solve against [N^T | N^T D_eff E] give the
    blocks of [[D_eff, L], [R, 0]]^-1 (module docstring).  That bordered
    block is singular exactly when M is, since R has full row rank: an
    exactly zero pivot of M raises SingularBlock(level, node, "bordered").
    Neither D nor the bordered block is inverted, so a singular D inside an
    invertible bordered block factors, and a node that keeps every DOF
    takes no LU: Dd = 0, Ld = L = Rd^T, Rd = R and Lambda = D_eff exactly.
    Blocks M with reciprocal condition (1-norm, of M and the M^-1 read off
    the solve) below 1e-14 are recorded in ``warnings`` rather than
    aborting.  ``regularize``, a finite real, adds delta*I to every D_eff
    and to the top block before factorization (off by default)."""
    if not isinstance(regularize, numbers.Real) or not np.isfinite(regularize):
        raise InvalidInput(f"regularize must be a finite real, got {regularize!r}")
    dtype = cm.dtype
    warnings_list = []

    def _lu(A, level, node, what):
        lu, piv = lu_factor(A)
        if not lu.diagonal().all():
            raise SingularBlock(level, node, what)
        return lu, piv

    def _effective(D, blocks):
        """D with ``blocks`` down its diagonal and delta added to it, a copy."""
        De = np.array(D, dtype=dtype)
        _put_diagonal(De, blocks)
        if regularize:
            De[np.diag_indices_from(De)] += regularize
        return De

    sym = _symmetric(cm)
    lams = []           # the Lambdas of the level below, until this level has read them
    flevels = []
    dofs = np.arange(cm.n)
    for li, lv in enumerate(cm.levels):
        order, inverse, rs, dofs = _level_orders(lv, dofs, li + 1)
        off = lv.dof_off.tolist()

        def factor_node(a):
            nd = lv.nodes[a]
            n, k, r = nd.D.shape[0], nd.k, rs[a]
            qp, iv = order[off[a]:off[a + 1]], inverse[off[a]:off[a + 1]]
            R = nd.R.take(qp, axis=1)
            if not _same_bits(R[:, r:], np.eye(k, dtype=R.dtype)):
                raise _not_interpolative(li + 1, a, "R is not I at its skeletons")
            if not _same_bits(nd.L, nd.R.T):
                raise _not_interpolative(li + 1, a, "L is not R^T")
            C = _effective(nd.D, [lams[c] for c in nd.children] if li else ())
            C = C.take(qp, axis=0).take(qp, axis=1)         # D_eff in [q, p] order
            if r == 0:
                # every DOF is a skeleton: B^-1 = [[0, L], [R, -D_eff]], L = R^T
                Rd = np.array(nd.R, dtype=dtype, order="C")
                return FactoredNode(Dd=np.zeros((n, n), dtype=dtype), Ld=_transposed(Rd), Rd=Rd), C
            Tn = -R[:, :r]
            # C = [N, E]^T D_eff [N, E] = [[M, N^T D E], [(D N)_p, D_pp]]
            C[:, :r] += C[:, r:] @ Tn
            C[:r] += Tn.T @ C[r:]
            # X = M^-1 [N^T | N^T D E] = [M^-1 N^T | W]; the right-hand side is
            # built transposed, column-major as getrs takes it, and it and the
            # LU are freed once X is found
            X = lu_solve(_lu(C[:r, :r], li + 1, a, "bordered"),
                         np.concatenate((np.eye(r, dtype=dtype), Tn, C[:r, r:].T)).T)
            rc = _rcond1(C[:r, :r], X[:, :r])
            if rc < _RCOND_WARN:
                warnings_list.append((li + 1, a, "bordered", rc))
            NX = np.concatenate((X, Tn @ X))                # N [M^-1 N^T | W]
            Z = C[r:, :r] @ X                               # (D N)_p [M^-1 N^T | W]
            # Ld = E - N W and Rd = E^T - (D N)_p M^-1 N^T, in [q, p] order,
            # where E and E^T are the last k columns and rows of I_n
            eye = np.eye(n, dtype=dtype)
            np.subtract(eye[:, r:], NX[:, n:], out=NX[:, n:])
            if sym:
                # a symmetric B^-1 has Rd = Ld^T: Rd is taken from Ld's columns
                # and Ld is held as its view.  Ld keeps its own arithmetic,
                # which shares W with Lambda: Ld = Rd^T in its place raised
                # the backward error up to tenfold
                Rd = NX[:, n:].T.take(iv, axis=1)
            else:
                np.subtract(eye[r:], Z[:, :n], out=Z[:, :n])
                Rd = Z[:, :n].take(iv, axis=1)
            # rows and columns back to the node's own order
            return (FactoredNode(Dd=NX[:, :n].take(iv, axis=0).take(iv, axis=1),
                                 Ld=_transposed(Rd) if sym else NX[:, n:].take(iv, axis=0), Rd=Rd),
                    C[r:, r:] - Z[:, n:])

        fnodes, lams = zip(*[factor_node(a) for a in range(len(lv.nodes))])
        flevels.append(Level(list(fnodes)))

    # top: Shat = Lambda + S with the final level's Lambdas on the diagonal
    Shat = _effective(cm.S, lams)
    lams = None
    S_lu = _lu(Shat, "top", 0, "S")
    return FactoredInverse(levels=flevels, S_lu=S_lu, n=cm.n, perm=cm.perm.copy(),
                           scalar_field=cm.scalar_field, warnings=warnings_list)


def solve(fi: FactoredInverse, b) -> np.ndarray:
    """Apply the factored inverse: x = Dd1 b + Ld1 [ ... Shat^-1 ... ] Rd1 b,
    the same telescoping sweep (and cost) as the forward apply."""
    return _telescope(fi.levels, lambda u: lu_solve(fi.S_lu, u),
                      fi.n, fi.perm, fi.dtype, b)


def _as_operator(op):
    if callable(op):
        return op
    mat = np.asarray(op)
    return lambda v: mat @ v


def gmres(apply_fn, b, tol=1e-9, max_iter=None, precond=None):
    """Full (no restart) GMRES with modified Gram-Schmidt and a single
    re-orthogonalization pass when loss of orthogonality is detected.

    Returns (x, iterations), where iterations counts applications of the
    operator.  Raises NotConverged (carrying the best iterate) if the
    relative residual has not reached tol within max_iter steps.
    """
    if not tol > 0:
        raise InvalidInput("tol must be positive")
    if max_iter is not None and max_iter < 1:
        raise InvalidInput("max_iter must be at least 1")
    A = _as_operator(apply_fn)
    M = _as_operator(precond) if precond is not None else None
    b = np.asarray(b)
    n = b.shape[0]
    if max_iter is None:
        max_iter = n
    max_iter = min(max_iter, n)

    r0 = M(b) if M is not None else b
    r0 = np.asarray(r0)
    dtype = np.result_type(r0.dtype, np.float64)
    beta = np.linalg.norm(r0)
    if beta == 0:
        return np.zeros(n, dtype=dtype), 0

    V = np.empty((max_iter + 1, n), dtype=dtype)
    V[0] = r0 / beta
    H = np.zeros((max_iter + 1, max_iter), dtype=dtype)
    cs = np.zeros(max_iter + 1, dtype=dtype)
    sn = np.zeros(max_iter + 1, dtype=dtype)
    g = np.zeros(max_iter + 1, dtype=dtype)
    g[0] = beta

    def _solution(j):
        y = np.zeros(j, dtype=dtype)
        for i in range(j - 1, -1, -1):
            y[i] = (g[i] - H[i, i + 1:j] @ y[i + 1:j]) / H[i, i]
        return V[:j].T @ y

    res = 1.0
    j = 0
    for j in range(max_iter):
        w = A(V[j])
        if M is not None:
            w = M(w)
        w = np.asarray(w, dtype=dtype).copy()
        norm0 = np.linalg.norm(w)
        for i in range(j + 1):
            hij = np.vdot(V[i], w)
            H[i, j] = hij
            w -= hij * V[i]
        # DGKS-style correction when the projection removed nearly everything
        corr = V[:j + 1].conj() @ w
        if np.linalg.norm(corr) > 1e-10 * max(norm0, 1e-300):
            w -= V[:j + 1].T @ corr
            H[:j + 1, j] += corr
        H[j + 1, j] = np.linalg.norm(w)
        if H[j + 1, j] > 0:
            V[j + 1] = w / H[j + 1, j]
        # apply accumulated Givens rotations, then form a new one
        for i in range(j):
            t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
            H[i + 1, j] = -np.conj(sn[i]) * H[i, j] + cs[i] * H[i + 1, j]
            H[i, j] = t
        denom = np.sqrt(np.abs(H[j, j]) ** 2 + np.abs(H[j + 1, j]) ** 2)
        if denom == 0:
            res = 0.0
            j += 1
            break
        cs[j] = np.abs(H[j, j]) / denom
        phase = H[j, j] / np.abs(H[j, j]) if H[j, j] != 0 else 1.0
        sn[j] = phase * np.conj(H[j + 1, j]) / denom
        H[j, j] = phase * denom
        H[j + 1, j] = 0.0
        g[j + 1] = -np.conj(sn[j]) * g[j]
        g[j] = cs[j] * g[j]
        res = abs(g[j + 1]) / beta
        if res <= tol:
            return _solution(j + 1), j + 1
    x = _solution(j + 1)
    raise NotConverged(x, float(res), int(max_iter))


# ---------------------------------------------------------------------------
# Matrix Market export of the embedding

def export_matrix_market(se: SparseEmbedding, path):
    """Coordinate-format Matrix Market file: 1-based indices, entries sorted
    by (column, row), 17 significant digits (bit-exact decimal round trip)."""
    rows, cols, vals = se.to_coo()
    order = np.lexsort((rows, cols))
    rows, cols, vals = rows[order], cols[order], vals[order]
    complex_field = np.issubdtype(se.dtype, np.complexfloating)
    field_name = "complex" if complex_field else "real"
    with open(path, "w") as f:
        f.write(f"%%MatrixMarket matrix coordinate {field_name} general\n")
        f.write(f"{se.m} {se.m} {len(vals)}\n")
        if complex_field:
            for r, c, v in zip(rows, cols, vals):
                f.write(f"{r + 1} {c + 1} {v.real:.17g} {v.imag:.17g}\n")
        else:
            for r, c, v in zip(rows, cols, vals):
                f.write(f"{r + 1} {c + 1} {v:.17g}\n")


# ---------------------------------------------------------------------------
# factored-inverse serialization (same binary container as CompressedMatrix)

def serialize_factored(fi: FactoredInverse) -> bytearray:
    """The factored inverse in the container of ``serialize_compressed``,
    written the same way: the column-major top LU, like a transposed Ld,
    goes straight into its slice."""
    out = []
    _write_header(out, 2, fi.scalar_field, fi.n, len(fi.levels), 0.0, fi.perm)
    _write_levels(out, fi.levels)
    _write_arr(out, fi.S_lu[0])
    _write_arr(out, np.asarray(fi.S_lu[1], dtype=np.int64))
    return _joined(out)


def _read_factored_node(f, *_):
    Rd, Dd, Ld = f.blocks()
    return FactoredNode(Dd=Dd, Ld=Ld, Rd=Rd)


def deserialize_factored(data: bytes) -> FactoredInverse:
    """Inverse of serialize_factored; raises InvalidInput on bytes that are
    truncated or do not form a factored-inverse container, including block
    shapes that do not chain from N through the levels to the top LU, and
    pivots out of range."""
    f = _Reader(data, kind=2)
    levels, k = _read_levels(f, _read_factored_node)
    # column-major, as factor leaves it: getrs would copy a row-major LU on every solve
    lu = f.array(2, order="F")
    piv = f.array(1, index=True)
    f.finish()
    if lu.shape != (k, k) or piv.shape != (k,):
        raise InvalidInput(
            f"corrupt skelkit container: top LU {lu.shape} with {piv.size} pivots "
            f"for {k} skeletons")
    if k and not 0 <= piv.min() <= piv.max() < k:
        raise InvalidInput(f"corrupt skelkit container: top LU pivot outside [0, {k})")
    return FactoredInverse(levels=levels, S_lu=(lu, piv.astype(np.int32)), n=f.n,
                           perm=f.perm, scalar_field=f.field)


def save_factored(fi: FactoredInverse, path):
    with open(path, "wb") as f:
        f.write(serialize_factored(fi))


def load_factored(path) -> FactoredInverse:
    with open(path, "rb") as f:
        return deserialize_factored(f.read())


def read_matrix_market(path):
    """Minimal coordinate-format reader; returns (shape, rows, cols, vals).
    A malformed, truncated or undecodable file raises InvalidInput."""
    with open(path) as f:
        try:
            # undecodable bytes raise UnicodeDecodeError, a ValueError, at
            # whichever read decodes them; for a small file that is the first
            header = f.readline()
            if not header.startswith("%%MatrixMarket matrix coordinate"):
                raise InvalidInput("unsupported Matrix Market header")
            complex_field = "complex" in header
            width = 4 if complex_field else 3
            line = f.readline()
            while line.startswith("%"):
                line = f.readline()
            mm, nn, nnz = (int(t) for t in line.split())
            if min(mm, nn, nnz) < 0:
                raise ValueError(f"negative size {mm} {nn} {nnz}")
            lines = list(itertools.islice(f, nnz))
            if len(lines) < nnz:
                raise ValueError(f"{len(lines)} of {nnz} entries present")
            rows = np.empty(nnz, dtype=np.int64)
            cols = np.empty(nnz, dtype=np.int64)
            vals = np.empty(nnz, dtype=np.complex128 if complex_field else np.float64)
            for i, entry in enumerate(lines):
                parts = entry.split()
                if len(parts) != width:
                    raise ValueError(f"entry {i + 1} has {len(parts)} fields, not {width}")
                rows[i] = int(parts[0]) - 1
                cols[i] = int(parts[1]) - 1
                if complex_field:
                    vals[i] = float(parts[2]) + 1j * float(parts[3])
                else:
                    vals[i] = float(parts[2])
        except ValueError as exc:
            raise InvalidInput(f"{path}: malformed Matrix Market file: {exc}") from None
    if nnz and (min(rows.min(), cols.min()) < 0 or rows.max() >= mm or cols.max() >= nn):
        raise InvalidInput(f"{path}: entry index outside the {mm}x{nn} matrix")
    return (mm, nn), rows, cols, vals
