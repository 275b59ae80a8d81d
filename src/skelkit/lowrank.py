"""Interpolative decompositions (IDs) with adaptive rank selection.

An ID approximates A ~ A[:, skel] @ P where the k retained columns are
actual columns of A and P carries a k x k identity on the skeleton.  The
deterministic path is one column-pivoted QR (LAPACK geqp3) per ID; the full
triangular factor is kept so the ID can later be cut at any other rank
without a second factorization.  The randomized path sketches with a
Gaussian test matrix first and falls back to deterministic when its
a-posteriori probe check fails.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import qr, solve_triangular

from .errors import InvalidInput


@dataclass
class InterpDecomp:
    """skel: retained column indices (pivot order); proj: k x n matrix with
    proj[:, skel] == I exactly; achieved_error: estimated ||A - BP|| / ||A||.

    piv and R are the column pivot order and the full triangular factor the
    ID was read from; ``sketched`` marks a factor of a random sketch of A
    rather than of A itself."""

    skel: np.ndarray
    proj: np.ndarray
    rank: int
    achieved_error: float
    piv: np.ndarray | None = None
    R: np.ndarray | None = None
    sketched: bool = False

    def cut(self, k):
        """The same ID with exactly k skeleton columns, read off the stored
        factor; None when that factor is a sketch with fewer than k rows."""
        if k == self.rank:
            return self
        if self.sketched and k > self.R.shape[0]:
            return None
        skel, proj = _interp(self.piv, self.R, k, self.proj.dtype)
        return replace(self, skel=skel, proj=proj, rank=k,
                       achieved_error=_ratio(self.R, k))


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


def pivoted_qr(A, eps, min_rank=0):
    """Column-pivoted QR (LAPACK geqp3) with the rank read off R's diagonal:
    the first k >= min_rank whose pivot |R_kk| is at most eps*|R_00|, or
    min(m, n) if there is none.

    Returns (piv, R, rank, trailing_ratio): R is the full min(m, n) x n
    upper-trapezoidal factor with columns in pivot order, trailing_ratio
    |R_kk| / |R_00| at k = rank (0 when no pivot was rejected).
    """
    m, n = A.shape
    kmax = min(m, n)
    if kmax == 0:
        return np.arange(n), np.zeros((0, n), dtype=A.dtype), 0, 0.0
    # "raw" skips the m x n triu of mode="r"; its R is already min(m, n) x n
    _, R, piv = qr(A, mode="raw", pivoting=True, check_finite=False)
    d = np.abs(np.diagonal(R))
    stop = np.flatnonzero(d[min_rank:] <= eps * d[0])
    rank = min_rank + int(stop[0]) if stop.size else kmax
    return piv.astype(np.int64), R, rank, _ratio(R, rank)


def _interp(piv, R, k, dtype):
    """Skeleton and projection of the ID cut at exactly k columns.

    Columns past the last nonzero pivot (exact rank deficiency, or k beyond
    R's rows) are padded in: each such skeleton reconstructs only itself."""
    n = piv.size
    r = min(k, int(np.count_nonzero(np.diagonal(R))))
    P = np.zeros((k, n), dtype=dtype)
    P[np.arange(k), piv[:k]] = 1.0
    if r > 0 and k < n:
        P[:r, piv[k:]] = solve_triangular(R[:r, :r], R[:r, k:])
    big = np.abs(P).max(initial=0.0)
    if big > 2.0:
        warnings.warn(
            f"interpolation matrix entries reach {big:.3g} (> 2); "
            "pivoting quality degraded on this block", stacklevel=3)
    return piv[:k].copy(), P


def id_fixed_precision(A, eps, min_rank=0) -> InterpDecomp:
    """Column ID to relative precision eps via column-pivoted QR.

    The rank is the first k >= min_rank at which the next pivot magnitude
    falls below eps times the leading pivot.  A zero matrix yields rank 0;
    with min_rank > 0 unused columns are padded in as needed.
    """
    if not 0 < eps < 1:
        raise InvalidInput("eps must lie in (0, 1)")
    A = _check_matrix(A)
    piv, R, rank, ratio = pivoted_qr(A, eps, min_rank=min_rank)
    k = max(rank, min(min_rank, A.shape[1]))
    skel, proj = _interp(piv, R, k, A.dtype)
    return InterpDecomp(skel=skel, proj=proj, rank=k, achieved_error=ratio,
                        piv=piv, R=R)


def id_rows(A, eps, min_rank=0) -> InterpDecomp:
    """Row-space ID: A ~ proj.T @ A[skel, :] (plain transpose, no conjugate)."""
    return id_fixed_precision(np.asarray(A).T, eps, min_rank=min_rank)


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
    return InterpDecomp(skel=skel, proj=proj, rank=rank, achieved_error=worst,
                        piv=piv, R=R, sketched=True)
