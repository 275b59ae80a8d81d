import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from skelkit import KernelSpec, PointSet, eval_block, lowrank
from skelkit.errors import AccuracyWarning, InvalidInput
from skelkit.lowrank import id_fixed_precision, id_gram, pivoted_qr
from skelkit.skel import ProxyConfig, proxy_points
from skelkit.solver import gmres


def reconstruction_error(A, idp, ord=2):
    return np.linalg.norm(A - A[:, idp.skel] @ idp.proj, ord) / max(
        np.linalg.norm(A, ord), 1e-300)


def interp_at(piv, R, k):
    """Reference rank-k ID from A[:, piv] = Q R with R[:k, :k]
    nonsingular: the skeleton piv[:k] and P[:, piv[k:]] = R11^-1 R12."""
    P = np.zeros((k, piv.size), dtype=R.dtype)
    P[:, piv[:k]] = np.eye(k)
    P[:, piv[k:]] = scipy.linalg.solve_triangular(R[:k, :k], R[:k, k:])
    return piv[:k], P


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


def test_row_id_is_the_id_of_the_transpose():
    # a row-space ID, A ~ proj.T @ A[skel, :], is the column ID of the
    # transposed view A.T (plain transpose, no conjugate)
    idr = id_fixed_precision(np.eye(3).T, 1e-9)
    assert sorted(idr.skel.tolist()) == [0, 1, 2]

    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    idr = id_fixed_precision(A.T, 1e-12)
    assert idr.rank == 1
    np.testing.assert_allclose(idr.proj.T @ A[idr.skel, :], A, atol=1e-14)

    rng = np.random.default_rng(5)
    B = rng.standard_normal((50, 3)) @ rng.standard_normal((3, 40))
    idr = id_fixed_precision(B.T, 1e-10)
    assert idr.rank == 3
    assert np.linalg.norm(B - idr.proj.T @ B[idr.skel, :]) <= 1e-8 * np.linalg.norm(B)


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


def test_invalid_inputs():
    with pytest.raises(InvalidInput):
        id_fixed_precision(np.array([[np.nan, 1.0]]), 1e-9)
    with pytest.raises(InvalidInput):
        id_fixed_precision(np.eye(3), 2.0)
    with pytest.raises(InvalidInput):
        id_fixed_precision(np.eye(3), 0.0)


@pytest.mark.parametrize("eps", ["1e-6", None, 1e-6j])
def test_eps_must_be_a_real_number(eps):
    # each once raised TypeError from the comparison with the bounds
    with pytest.raises(InvalidInput, match="eps"):
        id_fixed_precision(np.eye(3), eps)
    with pytest.raises(InvalidInput, match="eps"):
        id_gram([[tall_block(False)]], eps)


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


def test_stop_rule():
    # orthogonal columns: the pivots are exactly the column norms
    A = np.diag([1.0, 1e-2, 1e-4, 1e-6, 1e-8])
    for eps, rank in [(1e-5, 3), (1e-3, 2), (1e-7, 4), (1e-9, 5)]:
        piv, R, got, ratio = pivoted_qr(A, eps)
        assert got == rank, eps
        assert ratio == pytest.approx(A[rank, rank] if rank < 5 else 0.0)
        idp = id_fixed_precision(A, eps)
        assert idp.rank == rank and idp.achieved_error == ratio
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
    assert idp.rank == rank
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


def test_id_is_exact_and_equals_scipy_pivoted_qr():
    A = decay_matrix(80, 60, "geometric", 4)
    R_ref, piv_ref = scipy.linalg.qr(A, mode="r", pivoting=True)
    idp = id_fixed_precision(A, 1e-4)
    for eps in (1e-4, 1e-5, 1e-6):
        c = id_fixed_precision(A, eps)
        k = c.rank
        assert k >= idp.rank and c.proj.shape == (k, 60)
        assert np.array_equal(c.proj[:, c.skel], np.eye(k))  # tolerance 0
        assert np.array_equal(c.skel[:idp.rank], idp.skel)
        # the ID at each rank is that of scipy's pivoted QR
        skel, proj = interp_at(piv_ref, R_ref, k)
        assert np.array_equal(c.skel, skel)
        np.testing.assert_allclose(c.proj, proj, rtol=0, atol=1e-12)
    assert c.rank > idp.rank
    assert reconstruction_error(A, c) < reconstruction_error(A, idp)


# tall blocks: m >= 2n with n at the QR-first threshold or above
TALL = (480, lowrank._QR_FIRST_MIN_COLS + 8)


def tall_block(cplx, seed=11):
    A = decay_matrix(*TALL, "algebraic", seed)
    return A + 1j * decay_matrix(*TALL, "algebraic", seed + 1) if cplx else A


@pytest.fixture
def lapack_calls(monkeypatch):
    """Count the LAPACK routines pivoted_qr calls, by name."""
    calls = []
    real = lowrank.get_lapack_funcs

    def counting(names, arrays):
        def wrap(name, fn):
            return lambda *a, **k: calls.append(name) or fn(*a, **k)
        return tuple(wrap(nm, fn) for nm, fn in zip(names, real(names, arrays)))

    monkeypatch.setattr(lowrank, "get_lapack_funcs", counting)
    return calls


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_tall_qr_first_matches_plain_pivoting(cplx, lapack_calls):
    A = tall_block(cplx)
    m, n = A.shape
    eps = 1e-5
    piv, R, rank, ratio = pivoted_qr(A, eps)
    assert lapack_calls == ["geqrf", "geqp3"]
    assert R.shape == (n, n) and np.array_equal(R, np.triu(R))
    assert sorted(piv.tolist()) == list(range(n))
    # A[:, piv] = Q0 Q1 R with Q0 Q1 unitary: the Gram matrices agree
    Ap = A[:, piv]
    scale = np.linalg.norm(A, 2) ** 2
    np.testing.assert_allclose(R.conj().T @ R, Ap.conj().T @ Ap, rtol=0,
                               atol=1e-13 * scale)
    # the same rank and skeleton set as geqp3 on the whole block
    _, R_ref, piv_ref = scipy.linalg.qr(A, mode="economic", pivoting=True)
    d_ref = np.abs(np.diag(R_ref))
    rank_ref = int(np.flatnonzero(d_ref <= eps * d_ref[0])[0])
    assert 0 < rank == rank_ref < n
    assert set(piv[:rank].tolist()) == set(piv_ref[:rank].tolist())
    np.testing.assert_allclose(np.abs(np.diag(R)), d_ref, rtol=1e-8, atol=1e-14 * d_ref[0])
    assert ratio == pytest.approx(d_ref[rank] / d_ref[0], rel=1e-6)
    # the ID is read off the same factor
    lapack_calls.clear()
    idp = id_fixed_precision(A, eps)
    assert lapack_calls[:2] == ["geqrf", "geqp3"] and idp.rank == rank
    assert np.array_equal(idp.proj[:, idp.skel], np.eye(rank))  # tolerance 0
    skel, proj = interp_at(piv, R, rank)
    assert np.array_equal(idp.skel, skel)
    np.testing.assert_allclose(idp.proj, proj, rtol=0, atol=1e-12)
    assert reconstruction_error(A, idp) <= 10 * eps * np.sqrt(1 + rank * (n - rank))


def test_tall_qr_first_cut(lapack_calls):
    # the pivots do not depend on eps: each tighter eps cuts the same
    # QR-first factor at a larger rank
    A = tall_block(False, seed=4)
    n = A.shape[1]
    piv, R, _, _ = pivoted_qr(A, 1e-4)
    assert "geqrf" in lapack_calls and R.shape == (n, n)
    ranks, errs = [], []
    for eps in (1e-4, 5e-5, 3e-5, 2e-5):
        idp = id_fixed_precision(A, eps)
        k = idp.rank
        assert idp.proj.shape == (k, n)
        assert np.array_equal(idp.proj[:, idp.skel], np.eye(k))  # tolerance 0
        skel, proj = interp_at(piv, R, k)
        assert np.array_equal(idp.skel, skel)
        np.testing.assert_allclose(idp.proj, proj, rtol=0, atol=1e-12)
        ranks.append(k)
        errs.append(reconstruction_error(A, idp))
        assert errs[-1] <= 10 * eps * np.sqrt(1 + k * (n - k))
    assert all(a < b for a, b in zip(ranks, ranks[1:])) and ranks[-1] < n
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_tall_zero_columns_are_never_skeletons(lapack_calls):
    m, n = TALL
    idp = id_fixed_precision(np.zeros(TALL), 1e-9)
    assert lapack_calls == ["geqrf", "geqp3"]
    assert idp.rank == 0 and idp.skel.size == 0 and idp.proj.shape == (0, n)

    # exact zero columns are never chosen before the live ones, and the
    # rank stops at the live ones
    rng = np.random.default_rng(3)
    A = decay_matrix(m, n, "algebraic", 5)
    dead = rng.choice(n, n // 2, replace=False)
    A[:, dead] = 0.0
    live = n - dead.size
    _, R, rank, _ = pivoted_qr(A, 1e-9)
    assert np.count_nonzero(np.diagonal(R)) == live and not R[live:].any()
    idp = id_fixed_precision(A, 1e-9)
    assert idp.rank == rank <= live
    assert set(idp.skel.tolist()).isdisjoint(dead.tolist())
    assert not idp.proj[:, dead].any()
    assert reconstruction_error(A, idp) < 1e-8


def test_below_threshold_is_plain_geqp3(lapack_calls, monkeypatch):
    # below either bound the block goes straight to geqp3, bit for bit as
    # scipy's pivoted QR of the whole block
    m, n = TALL
    for shape in [(2 * n - 1, n), (m, lowrank._QR_FIRST_MIN_COLS - 1), (n, n)]:
        A = decay_matrix(*shape, "algebraic", 2)
        lapack_calls.clear()
        piv, R, _, _ = pivoted_qr(A, 1e-6)
        assert lapack_calls == ["geqp3"], shape
        _, R_ref, piv_ref = scipy.linalg.qr(A, mode="raw", pivoting=True)
        assert np.array_equal(piv, piv_ref) and np.array_equal(R, R_ref)
    monkeypatch.setattr(lowrank, "_QR_FIRST_MIN_COLS", 10 ** 9)
    lapack_calls.clear()
    pivoted_qr(tall_block(False), 1e-6)
    assert lapack_calls == ["geqp3"]


def kernel_target(spec, n=256, seed=1):
    """Row blocks of a compression-like ID target: K(near, box) for 3n
    points around a unit box of n sources, then K(proxy surface, box)."""
    rng = np.random.default_rng(seed)
    d = spec.dim
    near = rng.random((8 * n, d)) * 3 - 1.5
    near = near[np.abs(near).max(axis=1) > 0.5][:3 * n]
    box = PointSet(rng.random((n, d)) - 0.5)
    cell = SimpleNamespace(center=np.zeros(d), halfwidth=0.5)
    return [eval_block(spec, PointSet(near), box),
            eval_block(spec, proxy_points(cell, ProxyConfig(), d), box)]


@pytest.mark.parametrize("spec, seed", [
    (KernelSpec("laplace", 3), 2), (KernelSpec("helmholtz", 3, wavenumber=4.0), 1)],
    ids=["laplace3d", "helmholtz3d"])
@pytest.mark.parametrize("eps", [1e-6, 1.01 * lowrank._GRAM_MIN_EPS], ids=["1e-6", "floor"])
def test_gram_id_matches_pivoted_qr(spec, seed, eps):
    # one pivoted Cholesky of A^H A picks geqp3's rank and skeleton on a tall
    # kernel block; the reconstruction errors agreed to 1e-4 relative when
    # this was written
    blocks = kernel_target(spec, seed=seed)
    A = np.vstack(blocks)
    assert lowrank._gram_route(*A.shape, eps)
    ref = id_fixed_precision(A, eps)
    idp = id_gram([blocks], eps)
    assert idp.proj.dtype == A.dtype and np.array_equal(idp.proj[:, idp.skel], np.eye(idp.rank))
    assert 0 < idp.rank == ref.rank < A.shape[1]
    assert set(idp.skel.tolist()) == set(ref.skel.tolist())
    err, err_ref = reconstruction_error(A, idp), reconstruction_error(A, ref)
    assert err <= 1.05 * err_ref and err_ref <= 1.05 * err
    assert idp.achieved_error == pytest.approx(ref.achieved_error, rel=1e-2)
    # two equal halves: twice the Gram matrix, the same bits once scaled
    twice = id_gram([blocks, [X.copy(order="F") for X in blocks]], eps)
    assert np.array_equal(twice.skel, idp.skel) and np.array_equal(twice.proj, idp.proj)


def test_gram_id_of_zero_target_has_rank_zero():
    m, n = TALL
    idp = id_gram([[np.zeros((m // 2, n))], [np.zeros((m - m // 2, n))]], 1e-6)
    assert idp.rank == 0 and idp.skel.size == 0 and idp.proj.shape == (0, n)
    assert idp.achieved_error == 0.0


def test_gram_id_refuses_eps_below_its_floor(monkeypatch):
    blocks = [tall_block(False)]
    floor = lowrank._GRAM_MIN_EPS
    assert floor == pytest.approx(np.sqrt(1e3 * np.finfo(float).eps))
    assert lowrank._gram_route(*TALL, floor)
    assert not lowrank._gram_route(*TALL, np.nextafter(floor, 0))
    # no geqrf floor of 192 columns; a column floor of its own, and the
    # aspect ratio 2
    assert lowrank._gram_route(TALL[0], lowrank._QR_FIRST_MIN_COLS - 1, 1e-3)
    cols = lowrank._GRAM_MIN_COLS
    assert lowrank._gram_route(2 * cols, cols, 1e-3)
    assert not lowrank._gram_route(2 * cols, cols - 1, 1e-3)
    assert not lowrank._gram_route(2 * TALL[1] - 1, TALL[1], 1e-3)

    # _target_id, given a target's row blocks in halves, takes the route
    # on that rule; otherwise it hands one stack of the blocks to
    # id_fixed_precision, and gives that ID's bits
    routes, real_gram, real_id = [], lowrank.id_gram, lowrank.id_fixed_precision

    def gram(halves, eps):
        routes.append("gram")
        return real_gram(halves, eps)

    def qr(A, eps, **kwargs):
        routes.append("qr")
        return real_id(A, eps, **kwargs)

    monkeypatch.setattr(lowrank, "id_gram", gram)
    monkeypatch.setattr(lowrank, "id_fixed_precision", qr)
    for m, n, eps, route in [(2 * cols, cols, floor, "gram"),
                             (2 * cols, cols, np.nextafter(floor, 0), "qr"),
                             (2 * cols - 1, cols, floor, "qr"),
                             (2 * cols - 2, cols - 1, floor, "qr")]:
        A = decay_matrix(m, n, "algebraic", 12)
        # row blocks as compress_source holds them: a view, a transposed
        # view, and a far field reached last
        parts = [A[:n // 2], np.ascontiguousarray(A[n // 2:n].T).T, A[n:]]
        halves = [iter(parts[:1]), (X for X in parts[1:])]
        routes.clear()
        idp = lowrank._target_id(halves, (m, n), eps)
        assert routes == [route], (m, n, eps)
        want = (real_gram([parts[:1], parts[1:]], eps) if route == "gram"
                else real_id(np.vstack(parts), eps))
        assert _id_bytes(idp) == _id_bytes(want)
        assert np.array_equal(A, np.vstack(parts))
    with pytest.raises(InvalidInput):
        id_gram(blocks, np.nextafter(floor, 0))
    bad = tall_block(False)
    bad[3, 5] = np.nan
    with pytest.raises(InvalidInput):
        id_gram([[bad]], 1e-6)


def kahan(n, c=0.285):
    """Kahan's matrix, columns scaled apart so that geqp3 does not pivot:
    its interpolation coefficients grow exponentially with the rank."""
    s = np.sqrt(1 - c * c)
    K = s ** np.arange(n)[:, None] * (np.eye(n) + np.triu(-c * np.ones((n, n)), 1))
    return K * (1 - 25 * np.finfo(float).eps * np.arange(n))


def test_degraded_pivoting_warns_once_at_the_caller():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        idp = id_fixed_precision(kahan(100), 0.05)
    assert idp.max_entry > 2
    assert len(caught) == 1
    w = caught[0]
    assert w.category is AccuracyWarning and w.filename == __file__
    assert "reach 3.75e+04 (> 2)" in str(w.message)


@pytest.mark.parametrize("x, text", [(2.004, "2.004"), (2.0000001, "2.0000001"),
                                     (2.69, "2.69"), (37491.37, "3.75e+04")])
def test_interp_value_reads_above_two(x, text):
    assert lowrank._above_two(x) == text


def _id_bytes(idp):
    return [np.asarray(v).tobytes() for v in (idp.skel, idp.proj)] + [
        idp.rank, idp.achieved_error, idp.max_entry]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("shape", [(120, 80), TALL], ids=["plain", "tall"])
def test_id_leaves_its_input_alone_by_default(order, cplx, shape):
    A = decay_matrix(*shape, "algebraic", 6)
    if cplx:
        A = A + 1j * decay_matrix(*shape, "algebraic", 7)
    A = np.asarray(A, order=order)
    before = A.copy(order="K")
    id_fixed_precision(A, 1e-6)
    pivoted_qr(A, 1e-6)
    assert A.tobytes(order="A") == before.tobytes(order="A")


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("shape", [(120, 80), TALL], ids=["plain", "tall"])
def test_overwrite_a_factors_in_place(cplx, shape):
    # an F-ordered block handed over is factored where it lies: the ID is
    # the copying path's bit for bit, and the block's contents are gone
    A = decay_matrix(*shape, "algebraic", 8)
    if cplx:
        A = A + 1j * decay_matrix(*shape, "algebraic", 9)
    want = id_fixed_precision(A, 1e-6)
    F = np.asfortranarray(A)
    got = id_fixed_precision(F, 1e-6, overwrite_a=True)
    assert _id_bytes(got) == _id_bytes(want)
    assert not np.array_equal(F, A)
    # a C-ordered block cannot be factored in place, so it is copied
    C = np.ascontiguousarray(A)
    assert _id_bytes(id_fixed_precision(C, 1e-6, overwrite_a=True)) == _id_bytes(want)
    assert np.array_equal(C, A)


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_interp_matches_solve_triangular_bitwise(cplx, order):
    # _interp calls LAPACK trtrs itself, as solve_triangular would
    A = decay_matrix(90, 60, "geometric", 10)
    if cplx:
        A = A + 1j * decay_matrix(90, 60, "geometric", 11)
    piv, R, rank, _ = pivoted_qr(A, 1e-8)
    R = np.asarray(R, order=order)
    for k in (1, rank // 2, rank, 60):
        skel, P = lowrank._interp(piv, R, k, A.dtype)
        want = np.zeros_like(P)
        want[np.arange(k), piv[:k]] = 1.0
        if k < 60:
            want[:, piv[k:]] = scipy.linalg.solve_triangular(R[:k, :k], R[:k, k:],
                                                             check_finite=False)
        assert np.array_equal(skel, piv[:k]) and P.tobytes() == want.tobytes()


def test_max_entry_is_kept_with_the_id():
    idp = id_fixed_precision(decay_matrix(80, 60, "geometric", 12), 1e-6)
    assert idp.max_entry == np.abs(idp.proj).max()
    # built by hand or replaced, it is read off the new proj
    hand = lowrank.InterpDecomp(skel=idp.skel, proj=3 * idp.proj, rank=idp.rank,
                                achieved_error=0.0)
    assert hand.max_entry == 3 * idp.max_entry
    assert replace(idp, proj=3 * idp.proj).max_entry == 3 * idp.max_entry


def test_degraded_id_called_back_from_skelkit_warns_at_the_caller():
    # a preconditioner run by skelkit's gmres is the caller's code: its ID
    # warns there, though skelkit frames sit further down the stack
    calls = []

    def precond(v):
        if not calls:
            calls.append(id_fixed_precision(kahan(100), 0.05))
        return v

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gmres(lambda v: v, np.ones(3), precond=precond)
    assert calls and len(caught) == 1
    assert caught[0].category is AccuracyWarning and caught[0].filename == __file__
