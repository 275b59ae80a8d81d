"""Interpolative decompositions (IDs) with adaptive rank selection.

An ID approximates A ~ A[:, skel] @ P where the k retained columns are
actual columns of A and P carries a k x k identity on the skeleton.  The
deterministic path is one column-pivoted QR (LAPACK geqp3) per ID; the full
triangular factor is kept so the ID can later be cut at any other rank
without a second factorization.  A tall block (m >= 2n, n >= 192) is first
reduced to its n x n triangle by a blocked, unpivoted QR (LAPACK geqrf), and
geqp3 runs on that triangle: the pivots and R are those of A, but most of
the work is BLAS-3 instead of geqp3's BLAS-2 column-norm updates.  A
compression at eps >= _GRAM_MIN_EPS (about 4.7e-7) takes a tall target
past both: ``id_gram`` factors its Gram matrix, summed from its row
blocks, by one pivoted Cholesky (LAPACK pstrf), which picks geqp3's
pivots and stop in exact arithmetic at a fraction of the flops.  The
randomized path sketches with a Gaussian test matrix first and falls back
to deterministic when its a-posteriori probe check fails.

An ID whose interpolation entries exceed 2 (degraded pivoting) is reported
by an AccuracyWarning from the public call that returns it, unless that
call is made by skelkit itself: a compression counts such IDs and reports
them once.  No warning filter is touched, so IDs in several threads at once
leave the process-global filter list alone.
"""

import os
import sys
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .errors import AccuracyWarning, InvalidInput

# blocks with m >= _QR_FIRST_ASPECT * n and n >= _QR_FIRST_MIN_COLS take
# geqrf before geqp3; on smaller or squarer blocks the extra pass costs more
# than it saves (block-shape sweep in BENCH_pr9_tall_qr.json)
_QR_FIRST_ASPECT = 2
_QR_FIRST_MIN_COLS = 192
# a tall target's ID is read off its Gram matrix at eps >= sqrt(1e3 u): the
# rounding of A^H A moves the ID's residual by about u/eps ||A||, 1000 times
# below eps ||A|| there (``id_gram``)
_GRAM_MIN_EPS = float(np.sqrt(1e3 * np.finfo(np.float64).eps))
# ilaenv's geqrf block size in reference LAPACK and OpenBLAS; an lwork sized
# for it covers the optimal workspace of geqrf and geqp3, so neither falls
# back to unblocked code
_LAPACK_NB = 32
_PKG_DIR = os.path.dirname(__file__) + os.sep


@dataclass
class InterpDecomp:
    """skel: retained column indices (pivot order); proj: k x n matrix with
    proj[:, skel] == I exactly; achieved_error: estimated ||A - BP|| / ||A||.

    piv and R are the column pivot order and the full triangular factor the
    ID was read from; ``sketched`` marks a factor of a random sketch of A
    rather than of A itself.  max_entry is max |proj|, read off proj when
    the ID is built: at most 2 unless pivoting degraded on this block."""

    skel: np.ndarray
    proj: np.ndarray
    rank: int
    achieved_error: float
    piv: np.ndarray | None = None
    R: np.ndarray | None = None
    sketched: bool = False
    max_entry: float = field(init=False)

    def __post_init__(self):
        self.max_entry = float(np.abs(self.proj).max(initial=0.0))

    def cut(self, k):
        """The same ID with exactly k skeleton columns, read off the stored
        factor; None when that factor is a sketch with fewer than k rows."""
        if k == self.rank:
            return self
        if self.sketched and k > self.R.shape[0]:
            return None
        skel, proj = _interp(self.piv, self.R, k, self.proj.dtype)
        return _reported(replace(self, skel=skel, proj=proj, rank=k,
                                 achieved_error=_ratio(self.R, k)))


def _check_matrix(A):
    A = np.asarray(A)
    if A.dtype.kind not in "fc":
        A = A.astype(np.float64)
    if A.ndim != 2:
        raise InvalidInput("expected a 2D matrix")
    if not np.all(np.isfinite(A)):
        raise InvalidInput("matrix has non-finite entries")
    return A


def _ratio(R, k):
    d = np.abs(np.diagonal(R))
    return float(d[k] / d[0]) if k < d.size and d[0] > 0 else 0.0


def _tall(m, n):
    """Whether an m x n block takes geqrf before geqp3 in ``pivoted_qr``."""
    return m >= _QR_FIRST_ASPECT * n and n >= _QR_FIRST_MIN_COLS


def gram_route(m, n, eps):
    """Whether the ID of an m x n target to precision eps is ``id_gram``'s:
    a tall target (``pivoted_qr``'s geqrf rule) at eps >= _GRAM_MIN_EPS."""
    return _tall(m, n) and _GRAM_MIN_EPS <= eps < 1


def pivoted_qr(A, eps, *, overwrite_a=False):
    """Column-pivoted QR (LAPACK geqp3) with the rank read off R's diagonal:
    the first k whose pivot |R_kk| is at most eps*|R_00|, or min(m, n) if
    there is none.

    A tall block, m >= 2n with n >= 192, is first factored A = Q0 R0 by
    unpivoted blocked Householder QR (geqrf), and geqp3 then factors the
    n x n triangle R0.  Q0 is unitary, so R0 has A's column norms and Gram
    matrix, and geqp3 picks the same pivots in exact arithmetic (Chan,
    LAA 1987) while most of the flops run as BLAS-3.

    Returns (piv, R, rank, trailing_ratio): R is the full min(m, n) x n
    upper-trapezoidal factor with columns in pivot order, trailing_ratio
    |R_kk| / |R_00| at k = rank (0 when no pivot was rejected).

    ``overwrite_a=True`` lets LAPACK factor A in place, as in scipy: an
    F-contiguous floating-point A is then not copied, and its contents are
    undefined afterwards.  By default A is left alone.
    """
    m, n = A.shape
    kmax = min(m, n)
    if kmax == 0:
        return np.arange(n), np.zeros((0, n), dtype=A.dtype), 0, 0.0
    geqrf, geqp3 = get_lapack_funcs(("geqrf", "geqp3"), (A,))
    lwork = 2 * n + (n + 1) * _LAPACK_NB
    if _tall(m, n):
        # geqp3 factors triu(R0) as a column-major scratch copy, in place
        R0 = geqrf(A, lwork=lwork, overwrite_a=overwrite_a)[0]
        A = np.asfortranarray(R0[:n])
        np.copyto(A, 0, where=np.tri(n, k=-1, dtype=bool))
        overwrite_a = True
    qr, jpvt = geqp3(A, lwork=lwork, overwrite_a=overwrite_a)[:2]
    R = np.triu(qr[:kmax])
    d = np.abs(np.diagonal(R))
    stop = np.flatnonzero(d <= eps * d[0])
    rank = int(stop[0]) if stop.size else kmax
    return jpvt.astype(np.int64) - 1, R, rank, _ratio(R, rank)


def _warn(message, quiet_inside=False):
    """AccuracyWarning attributed to the first caller outside skelkit.

    With ``quiet_inside`` only this module's frames are skipped, and nothing
    is issued when the first caller past them is skelkit's own (a
    compression counts its degraded IDs and reports them once)."""
    skip = __file__ if quiet_inside else _PKG_DIR
    frame, level = sys._getframe(0), 1
    while frame is not None and frame.f_code.co_filename.startswith(skip):
        frame, level = frame.f_back, level + 1
    if frame is not None and frame.f_code.co_filename.startswith(_PKG_DIR):
        return
    warnings.warn(message, AccuracyWarning, stacklevel=level)


def _above_two(x):
    """x with just enough digits to read above 2."""
    return next(s for p in range(3, 18) if float(s := f"{x:.{p}g}") > 2.0)


def _interp(piv, R, k, dtype):
    """Skeleton and projection of the ID cut at exactly k columns.

    Columns past the last nonzero pivot (exact rank deficiency, or k beyond
    R's rows) are padded in: each such skeleton reconstructs only itself."""
    n = piv.size
    r = min(k, int(np.count_nonzero(np.diagonal(R))))
    P = np.zeros((k, n), dtype=dtype)
    P[np.arange(k), piv[:k]] = 1.0
    if r > 0 and k < n:
        # R[:r, :r] x = R[:r, k:] by LAPACK trtrs, called as scipy's
        # solve_triangular calls it (R is the factor of a block
        # _check_matrix found finite): a triangle that is not F-contiguous
        # goes in as the lower triangle of its transpose, transposed again
        a, b = R[:r, :r], R[:r, k:]
        trtrs, = get_lapack_funcs(("trtrs",), (a, b))
        if a.flags.f_contiguous:
            x, info = trtrs(a, b, lower=False, trans=0)
        else:
            x, info = trtrs(a.T, b, lower=True, trans=1)
        if info:
            raise np.linalg.LinAlgError(f"trtrs failed with info {info}")
        P[:r, piv[k:]] = x
    return piv[:k].copy(), P


def _reported(idp):
    """``idp``, after an AccuracyWarning to a caller outside skelkit if its
    entries exceed 2."""
    if idp.max_entry > 2.0:
        _warn(f"interpolation matrix entries reach {_above_two(idp.max_entry)} (> 2); "
              "pivoting quality degraded on this block", quiet_inside=True)
    return idp


def id_fixed_precision(A, eps, *, overwrite_a=False) -> InterpDecomp:
    """Column ID to relative precision eps via column-pivoted QR.

    The rank is the first k at which the next pivot magnitude falls below
    eps times the leading pivot.  A zero matrix yields rank 0; ``cut`` pads
    unused columns in past the rank.

    ``overwrite_a=True`` hands A to LAPACK to factor in place (scipy's
    convention): an F-contiguous floating-point A is then not copied, and
    its contents are undefined afterwards.  By default A is left alone.
    """
    if not 0 < eps < 1:
        raise InvalidInput("eps must lie in (0, 1)")
    A = _check_matrix(A)
    piv, R, rank, ratio = pivoted_qr(A, eps, overwrite_a=overwrite_a)
    skel, proj = _interp(piv, R, rank, A.dtype)
    return _reported(InterpDecomp(skel=skel, proj=proj, rank=rank, achieved_error=ratio,
                                  piv=piv, R=R))


def _gram(blocks):
    """Upper triangle of sum X^H X over the row blocks ``blocks`` (None if
    there are none), accumulated by BLAS syrk/herk.  Each block is taken
    column-major first, so blocks of equal values give equal bits."""
    G = None
    for X in blocks:
        X = np.asarray(X)
        dt = np.result_type(X, np.float64 if G is None else G)
        if G is None:
            G = np.zeros((X.shape[1],) * 2, dtype=dt, order="F")
        elif dt != G.dtype:
            G = G.astype(dt, order="F")
        if X.shape[1] != G.shape[0]:
            raise InvalidInput("row blocks differ in their number of columns")
        if X.size:
            # X^H X: herk with trans "C" (2) for complex blocks, syrk "T" for real
            cplx = dt.kind == "c"
            rk, = get_blas_funcs(("herk" if cplx else "syrk",), (G,))
            G = rk(1.0, np.asfortranarray(X, dtype=dt), beta=1.0, c=G,
                   trans=2 if cplx else 1, overwrite_c=1)
    return G


def id_gram(halves, eps) -> InterpDecomp:
    """Column ID of the matrix A whose row blocks ``halves`` holds, read
    off one pivoted Cholesky (LAPACK pstrf) of G = A^H A; A is never formed.

    ``halves`` is a list of iterables of row blocks with n columns each; A
    is every block stacked in order.  G is summed block by block within
    each half, and the halves' sums are then added, so two halves of equal
    blocks give exactly twice the Gram matrix of one.  G is divided by its
    largest diagonal, which gives one half and both the same bits.

    pstrf pivots on the largest remaining Schur diagonal, the largest
    residual column norm squared: geqp3's pivot in exact arithmetic.  It
    stops once that is at most eps^2, the rule |R_kk| <= eps |R_00| of
    ``pivoted_qr``, and its factor U (rank x n, columns in pivot order) is
    R up to the signs of its rows, so the interpolation matrix
    R11^-1 R12 is the same.  Forming G costs about u/eps^2 relative in
    that matrix and u/eps ||A|| in the residual, 1000 times below eps
    ||A|| at eps >= _GRAM_MIN_EPS; a smaller eps is refused.

    The ID's R is U: ``cut`` beyond the rank pads columns in."""
    if not _GRAM_MIN_EPS <= eps < 1:
        raise InvalidInput(f"eps must lie in [{_GRAM_MIN_EPS:.3g}, 1) for a Gram-matrix ID")
    grams = [G for G in map(_gram, halves) if G is not None]
    if not grams:
        raise InvalidInput("expected at least one row block")
    G = grams[0]
    for Gh in grams[1:]:
        if Gh.shape != G.shape:
            raise InvalidInput("row blocks differ in their number of columns")
        G = G + Gh
    n = G.shape[0]
    diag = np.diagonal(G).real.copy()
    # a non-finite entry of A reaches G's diagonal, a sum of squares
    if not np.all(np.isfinite(diag)):
        raise InvalidInput("matrix has non-finite entries")
    top = float(diag.max(initial=0.0))
    if top > 0:
        G /= top
        diag /= top
        pstrf, = get_lapack_funcs(("pstrf",), (G,))
        G, piv, rank, info = pstrf(G, tol=eps * eps, lower=0, overwrite_a=1)
        if info < 0:
            raise np.linalg.LinAlgError(f"pstrf failed with info {info}")
        piv = piv.astype(np.int64) - 1
    else:
        piv, rank = np.arange(n), 0
    U = np.triu(G[:rank])
    # the largest remaining Schur diagonal: (|R_kk| / |R_00|)^2 at k = rank
    rest = diag[piv[rank:]] - np.square(np.abs(U[:, rank:])).sum(axis=0)
    ratio = float(np.sqrt(max(rest.max(initial=0.0), 0.0)))
    skel, proj = _interp(piv, U, rank, G.dtype)
    return _reported(InterpDecomp(skel=skel, proj=proj, rank=rank, achieved_error=ratio,
                                  piv=piv, R=U))


def id_rows(A, eps) -> InterpDecomp:
    """Row-space ID: A ~ proj.T @ A[skel, :] (plain transpose, no conjugate)."""
    return id_fixed_precision(np.asarray(A).T, eps)


def _spectral_norm_estimate(A, rng, iters=8):
    v = rng.standard_normal(A.shape[1])
    if A.dtype.kind == "c":
        v = v + 1j * rng.standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    s = 0.0
    for _ in range(iters):
        w = A @ v
        v = A.conj().T @ w
        s = np.linalg.norm(v) ** 0.5
        nv = np.linalg.norm(v)
        if nv == 0:
            return 0.0
        v /= nv
    return float(s)


def id_randomized(A, eps, oversampling=10, seed=0) -> InterpDecomp:
    """Randomized column ID: Gaussian sketch with adaptive size doubling,
    verified a posteriori on 5 random probe vectors; falls back to the
    deterministic path if the probes see more than 3*eps*||A|| error."""
    if not 0 < eps < 1:
        raise InvalidInput("eps must lie in (0, 1)")
    if oversampling < 4:
        raise InvalidInput("oversampling must be >= 4")
    A = _check_matrix(A)
    m, n = A.shape
    rng = np.random.default_rng(seed)
    cplx = A.dtype.kind == "c"

    normA = _spectral_norm_estimate(A, rng) if A.size else 0.0
    if normA == 0.0:
        return id_fixed_precision(A, eps)

    ell = 2 * oversampling
    while True:
        if ell >= m:
            return id_fixed_precision(A, eps)
        Om = rng.standard_normal((ell, m))
        if cplx:
            Om = Om + 1j * rng.standard_normal((ell, m))
        Y = Om @ A
        piv, R, rank, ratio = pivoted_qr(Y, eps)
        if rank <= ell - oversampling:
            break
        ell *= 2

    skel, proj = _interp(piv, R, rank, A.dtype)

    # a-posteriori check on random probes
    worst = 0.0
    for _ in range(5):
        v = rng.standard_normal(n)
        if cplx:
            v = v + 1j * rng.standard_normal(n)
        err = np.linalg.norm(A @ v - A[:, skel] @ (proj @ v))
        worst = max(worst, err / (normA * np.linalg.norm(v)))
    if worst > 3 * eps:
        return id_fixed_precision(A, eps)
    return _reported(InterpDecomp(skel=skel, proj=proj, rank=rank, achieved_error=worst,
                                  piv=piv, R=R, sketched=True))
