import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelkit.errors import InvalidInput
from skelkit.lowrank import (id_fixed_precision, id_randomized, id_rows,
                             pivoted_qr)


def reconstruction_error(A, idp, ord=2):
    return np.linalg.norm(A - A[:, idp.skel] @ idp.proj, ord) / max(
        np.linalg.norm(A, ord), 1e-300)


def decay_matrix(m, n, profile, seed):
    """Random matrices with assorted singular-value decay profiles."""
    rng = np.random.default_rng(seed)
    k = min(m, n)
    if profile == "geometric":
        s = 0.6 ** np.arange(k)
    elif profile == "algebraic":
        s = 1.0 / (1 + np.arange(k)) ** 3
    elif profile == "step":
        s = np.where(np.arange(k) < k // 4, 1.0, 1e-12)
    else:
        s = np.abs(rng.standard_normal(k)) + 1e-3
    U, _ = np.linalg.qr(rng.standard_normal((m, k)))
    V, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return (U * s) @ V.T


def test_identity_full_rank():
    idp = id_fixed_precision(np.eye(3), 1e-9)
    assert idp.rank == 3
    assert sorted(idp.skel.tolist()) == [0, 1, 2]
    np.testing.assert_array_equal(idp.proj[np.argsort(idp.skel)], np.eye(3))


def test_rank_one_hand_example():
    # columns have norms sqrt(5) and sqrt(20); one pivoted-QR step picks
    # column 1 and expresses column 0 as half of it
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    idp = id_fixed_precision(A, 1e-12)
    assert idp.rank == 1
    assert idp.skel.tolist() == [1]
    np.testing.assert_allclose(idp.proj, [[0.5, 1.0]], rtol=1e-15)


def test_rank3_product():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 60))
    idp = id_fixed_precision(A, 1e-10)
    assert idp.rank == 3
    assert reconstruction_error(A, idp) <= 1e-8
    # SVD oracle: the rank really is 3
    sv = np.linalg.svd(A, compute_uv=False)
    assert sv[3] < 1e-12 * sv[0]


def test_id_rows_variants():
    idr = id_rows(np.eye(3), 1e-9)
    assert sorted(idr.skel.tolist()) == [0, 1, 2]

    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    idr = id_rows(A, 1e-12)
    assert idr.rank == 1
    np.testing.assert_allclose(idr.proj.T @ A[idr.skel, :], A, atol=1e-14)

    rng = np.random.default_rng(5)
    B = rng.standard_normal((50, 3)) @ rng.standard_normal((3, 40))
    idr = id_rows(B, 1e-10)
    assert idr.rank == 3
    assert np.linalg.norm(B - idr.proj.T @ B[idr.skel, :]) <= 1e-8 * np.linalg.norm(B)


def test_randomized_matches_deterministic():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((120, 3)) @ rng.standard_normal((3, 80))
    idz = id_randomized(A, 1e-10, seed=1)
    assert idz.rank == 3
    assert reconstruction_error(A, idz) <= 1e-8

    assert id_randomized(np.zeros((10, 10)), 1e-9).rank == 0

    for seed in range(3):
        B = decay_matrix(100, 90, "geometric", seed)
        det = id_fixed_precision(B, 1e-9)
        rnd = id_randomized(B, 1e-9, seed=seed)
        e_det = reconstruction_error(B, det)
        e_rnd = reconstruction_error(B, rnd)
        assert e_rnd <= 10 * max(e_det, 1e-9)


def test_randomized_validation():
    with pytest.raises(InvalidInput):
        id_randomized(np.eye(4), 1e-9, oversampling=2)


def test_projection_identity_is_exact():
    for seed in range(4):
        A = decay_matrix(60, 50, "geometric", seed)
        idp = id_fixed_precision(A, 1e-6)
        sub = idp.proj[:, idp.skel]
        assert np.array_equal(sub, np.eye(idp.rank))  # tolerance 0


def test_rank_monotone_in_eps():
    A = decay_matrix(80, 70, "algebraic", 3)
    assert id_fixed_precision(A, 1e-3).rank <= id_fixed_precision(A, 1e-9).rank


def test_reconstruction_bound_frobenius():
    for profile in ("geometric", "algebraic", "step", "flat"):
        for seed in (0, 1):
            A = decay_matrix(90, 75, profile, seed)
            for eps in (1e-4, 1e-8):
                idp = id_fixed_precision(A, eps)
                k, n = idp.rank, A.shape[1]
                bound = 10 * eps * np.sqrt(1 + k * (n - k))
                assert reconstruction_error(A, idp, ord="fro") <= max(bound, 1e-14)


def test_near_optimality_vs_svd():
    rng = np.random.default_rng(0)
    for trial in range(20):
        m, n = rng.integers(20, 200, size=2)
        profile = ("geometric", "algebraic", "step", "flat")[trial % 4]
        A = decay_matrix(int(m), int(n), profile, trial)
        idp = id_fixed_precision(A, 1e-6)
        k = idp.rank
        if k == min(m, n):
            continue
        sv = np.linalg.svd(A, compute_uv=False)
        err = np.linalg.norm(A - A[:, idp.skel] @ idp.proj, 2)
        assert err <= 10 * np.sqrt(1 + k * (n - k)) * sv[k] + 1e-14 * sv[0]


def test_zero_matrix():
    idp = id_fixed_precision(np.zeros((8, 5)), 1e-9)
    assert idp.rank == 0
    assert idp.skel.size == 0
    assert idp.proj.shape == (0, 5)


def test_min_rank_padding():
    A = np.outer(np.arange(1.0, 5.0), np.arange(1.0, 7.0))  # exact rank 1
    idp = id_fixed_precision(A, 1e-10, min_rank=3)
    assert idp.rank == 3
    assert len(set(idp.skel.tolist())) == 3
    assert np.array_equal(idp.proj[:, idp.skel][np.arange(3)], np.eye(3)[np.arange(3)])
    assert reconstruction_error(A, idp) < 1e-13


def test_invalid_inputs():
    with pytest.raises(InvalidInput):
        id_fixed_precision(np.array([[np.nan, 1.0]]), 1e-9)
    with pytest.raises(InvalidInput):
        id_fixed_precision(np.eye(3), 2.0)
    with pytest.raises(InvalidInput):
        id_fixed_precision(np.eye(3), 0.0)


def test_complex_input():
    rng = np.random.default_rng(9)
    A = (rng.standard_normal((40, 4)) + 1j * rng.standard_normal((40, 4))) @ \
        (rng.standard_normal((4, 30)) + 1j * rng.standard_normal((4, 30)))
    idp = id_fixed_precision(A, 1e-10)
    assert idp.rank == 4
    assert reconstruction_error(A, idp) < 1e-8


def test_pivoted_qr_agrees_with_unpivoted_norms():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((30, 30))
    piv, R, rank, ratio = pivoted_qr(A, 1e-15)
    assert rank == 30
    # |R| has the norm structure of A's pivoted columns
    q, r_ref = np.linalg.qr(A[:, piv])
    np.testing.assert_allclose(np.abs(np.diag(R[:, :30])), np.abs(np.diag(r_ref)),
                               rtol=1e-10)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       profile=st.sampled_from(["geometric", "algebraic", "flat"]),
       eps_exp=st.integers(3, 10))
def test_property_reconstruction_and_identity(seed, profile, eps_exp):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(5, 60)), int(rng.integers(5, 60))
    A = decay_matrix(m, n, profile, seed)
    eps = 10.0 ** (-eps_exp)
    idp = id_fixed_precision(A, eps)
    assert np.array_equal(idp.proj[:, idp.skel], np.eye(idp.rank))
    k = idp.rank
    bound = 10 * eps * np.sqrt(1 + k * (n - k))
    assert reconstruction_error(A, idp, ord="fro") <= max(bound, 1e-13)


def test_stop_rule_with_min_rank():
    # orthogonal columns: the pivots are exactly the column norms
    A = np.diag([1.0, 1e-2, 1e-4, 1e-6, 1e-8])
    for min_rank, rank in [(0, 3), (2, 3), (3, 3), (4, 4), (5, 5), (9, 5)]:
        piv, R, got, ratio = pivoted_qr(A, 1e-5, min_rank=min_rank)
        assert got == rank, min_rank
        assert ratio == pytest.approx(A[rank, rank] if rank < 5 else 0.0)
        assert id_fixed_precision(A, 1e-5, min_rank=min_rank).rank == rank
    assert piv.tolist() == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("m,n,cplx", [(200, 30, False), (30, 200, False),
                                      (60, 40, True)])
def test_pivoted_qr_keeps_full_factor(m, n, cplx):
    A = decay_matrix(m, n, "geometric", 7)
    if cplx:
        A = A + 1j * decay_matrix(m, n, "geometric", 8)
    eps = 1e-4
    piv, R, rank, _ = pivoted_qr(A, eps)
    assert sorted(piv.tolist()) == list(range(n))
    assert R.shape == (min(m, n), n)
    assert np.array_equal(R, np.triu(R))
    # A[:, piv] = Q R with Q unitary: the Gram matrices agree
    Ap = A[:, piv]
    np.testing.assert_allclose(R.conj().T @ R, Ap.conj().T @ Ap, atol=1e-12)
    d = np.abs(np.diag(R))
    assert d[rank] <= eps * d[0] < d[rank - 1]
    idp = id_fixed_precision(A, eps)
    assert idp.rank == rank and idp.R.shape == R.shape
    assert reconstruction_error(A, idp) <= 10 * eps * np.sqrt(1 + rank * (n - rank))


def test_zero_and_empty_inputs():
    for shape in [(6, 4), (0, 5), (5, 0), (0, 0)]:
        A = np.zeros(shape)
        piv, R, rank, ratio = pivoted_qr(A, 1e-9)
        assert (rank, ratio) == (0, 0.0)
        assert R.shape == (min(shape), shape[1])
        assert sorted(piv.tolist()) == list(range(shape[1]))
        idp = id_fixed_precision(A, 1e-9)
        assert idp.rank == 0 and idp.proj.shape == (0, shape[1])
        assert id_randomized(A, 1e-9).rank == 0
        # min_rank pads with unused columns, never beyond n
        idp = id_fixed_precision(A, 1e-9, min_rank=2)
        k = min(2, shape[1])
        assert idp.rank == k and idp.proj.shape == (k, shape[1])
        assert np.array_equal(idp.proj[:, idp.skel], np.eye(k))


def test_cut_is_exact_and_equals_rerun():
    A = decay_matrix(80, 60, "geometric", 4)
    idp = id_fixed_precision(A, 1e-4)
    for k in (idp.rank, idp.rank + 1, idp.rank + 7, 60):
        c = idp.cut(k)
        assert c.rank == k and c.proj.shape == (k, 60)
        assert np.array_equal(c.proj[:, c.skel], np.eye(k))  # tolerance 0
        assert np.array_equal(c.skel[:idp.rank], idp.skel)
        # cutting the stored factor gives the same ID as a second QR
        rerun = id_fixed_precision(A, 1e-4, min_rank=k)
        assert rerun.rank == k
        assert np.array_equal(c.skel, rerun.skel)
        np.testing.assert_allclose(c.proj, rerun.proj, rtol=0, atol=1e-12)
    assert reconstruction_error(A, idp.cut(idp.rank + 7)) < reconstruction_error(A, idp)


def test_cut_of_short_sketch_needs_recompute():
    A = decay_matrix(600, 50, "geometric", 1)
    idz = id_randomized(A, 1e-6, seed=3)
    assert idz.sketched and idz.R.shape[0] < 50
    assert idz.cut(idz.R.shape[0] + 1) is None
    c = idz.cut(idz.R.shape[0])
    assert np.array_equal(c.proj[:, c.skel], np.eye(c.rank))
    assert reconstruction_error(A, c) <= 1e-4
