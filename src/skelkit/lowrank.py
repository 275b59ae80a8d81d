"""Interpolative decompositions (IDs) with adaptive rank selection.

An ID approximates A ~ A[:, skel] @ P where the k retained columns are
actual columns of A and P carries a k x k identity on the skeleton.  The
deterministic path is one column-pivoted QR (LAPACK geqp3) per ID; the full
triangular factor is kept so the ID can later be cut at any other rank
without a second factorization.  A tall block (m >= 2n, n >= 192) is first
reduced to its n x n triangle by a blocked, unpivoted QR (LAPACK geqrf), and
geqp3 runs on that triangle: the pivots and R are those of A, but most of
the work is BLAS-3 instead of geqp3's BLAS-2 column-norm updates.  The
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
from scipy.linalg import get_lapack_funcs

from .errors import AccuracyWarning, InvalidInput

# blocks with m >= _QR_FIRST_ASPECT * n and n >= _QR_FIRST_MIN_COLS take
# geqrf before geqp3; on smaller or squarer blocks the extra pass costs more
# than it saves (block-shape sweep in BENCH_pr9_tall_qr.json)
_QR_FIRST_ASPECT = 2
_QR_FIRST_MIN_COLS = 192
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
    if m >= _QR_FIRST_ASPECT * n and n >= _QR_FIRST_MIN_COLS:
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
