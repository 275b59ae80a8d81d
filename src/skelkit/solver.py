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
here eliminates x and y blockwise: per node, one pivoted LU and inverse of
the bordered block gives [[D, L], [R, 0]]^-1 = [[Dd, Ld], [Rd, -Lambda]],
that is Lambda = (R D^-1 L)^-1, Dd = D^-1 - D^-1 L Lambda R D^-1,
Ld = D^-1 L Lambda and Rd = Lambda R D^-1, without inverting D alone.  The
recursion continues on Shat = Lambda + S one level up.  The embedding is
still assembled (and exportable as Matrix Market) so an external sparse
solver can serve as an independent cross-check.
"""

import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import InvalidInput, NotConverged, SingularBlock
from .skel import (CompressedMatrix, Level, _read_levels, _Reader, _telescope,
                   _write_arr, _write_header, _write_levels)

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
    Dd: np.ndarray          # B^-1[:n, :n] = D^-1 - D^-1 L Lambda R D^-1, B = [[D, L], [R, 0]]
    Ld: np.ndarray          # B^-1[:n, n:] = D^-1 L Lambda
    Rd: np.ndarray          # B^-1[n:, :n] = Lambda R D^-1
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
    if A.size == 0:
        return 1.0
    na = np.abs(A).sum(axis=0).max()
    nb = np.abs(Ainv).sum(axis=0).max()
    return 1.0 / (na * nb) if na * nb > 0 else 0.0


def _put_diagonal(M, blocks):
    """Write the square ``blocks`` down M's diagonal, one after another."""
    o = 0
    for blk in blocks:
        k = blk.shape[0]
        M[o:o + k, o:o + k] = blk
        o += k


def factor(cm: CompressedMatrix, regularize: float = 0.0) -> FactoredInverse:
    """Telescoping inverse of a compressed matrix.

    Per level and node, B = [[D, L], [R, 0]], with the children's Lambda on
    D's diagonal, is LU-factored with partial pivoting and inverted once; an
    exactly zero pivot raises SingularBlock naming the level and node.  D is
    never inverted alone, so a singular D inside an invertible B factors.
    Blocks with reciprocal condition below 1e-14 are recorded in
    ``warnings`` rather than aborting.  ``regularize``, a finite real, adds
    delta*I to the D part of every B and to the top block before
    factorization (off by default)."""
    if not isinstance(regularize, numbers.Real) or not np.isfinite(regularize):
        raise InvalidInput(f"regularize must be a finite real, got {regularize!r}")
    dtype = cm.dtype
    warnings_list = []

    def _lu(B, level, node, what, n_reg):
        """LU of B after adding delta to its first n_reg diagonal entries."""
        if regularize:
            B[np.arange(n_reg), np.arange(n_reg)] += regularize
        lu, piv = lu_factor(B)
        if np.any(np.diag(lu) == 0):
            raise SingularBlock(level, node, what)
        return lu, piv

    lams = []           # the Lambdas of the level below, until this level has read them
    flevels = []
    for li, lv in enumerate(cm.levels):

        def factor_node(a):
            nd = lv.nodes[a]
            nn, k = nd.D.shape[0], nd.k
            B = np.zeros((nn + k, nn + k), dtype=dtype)
            B[:nn, :nn] = nd.D
            B[:nn, nn:] = nd.L
            B[nn:, :nn] = nd.R
            if li > 0:
                _put_diagonal(B, [lams[c] for c in nd.children])
            lu = _lu(B, li + 1, a, "bordered", nn)
            Binv = lu_solve(lu, np.eye(nn + k, dtype=dtype))
            rc = _rcond1(B, Binv)
            if rc < _RCOND_WARN:
                warnings_list.append((li + 1, a, "bordered", rc))
            # contiguous copies: a loaded inverse then solves bit for bit alike
            return (FactoredNode(Dd=Binv[:nn, :nn].copy(), Ld=Binv[:nn, nn:].copy(),
                                 Rd=Binv[nn:, :nn].copy()), -Binv[nn:, nn:])

        fnodes, lams = zip(*[factor_node(a) for a in range(len(lv.nodes))])
        flevels.append(Level(list(fnodes)))

    # top: Shat = Lambda + S with the final level's Lambdas on the diagonal
    Shat = np.array(cm.S, dtype=dtype)
    _put_diagonal(Shat, lams)
    lams = None
    S_lu = _lu(Shat, "top", 0, "S", Shat.shape[0])
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

def serialize_factored(fi: FactoredInverse) -> bytes:
    out = []
    _write_header(out, 2, fi.scalar_field, fi.n, len(fi.levels), 0.0, fi.perm)
    _write_levels(out, fi.levels)
    _write_arr(out, fi.S_lu[0])
    _write_arr(out, np.asarray(fi.S_lu[1], dtype=np.int64))
    return b"".join(out)


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
