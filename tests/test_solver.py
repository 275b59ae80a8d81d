import struct
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import cache

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from skelkit import bie, solver
from skelkit.bench import DENSE_ORACLE_LIMIT
from skelkit.errors import InvalidInput, NotConverged, SingularBlock
from skelkit.geom import PointSet, build_tree, fibonacci_sphere
from skelkit.kernels import KernelSpec, eval_block
from skelkit.skel import (CompressedMatrix, CompressedNode, KernelSource, Level,
                          apply, compress, compress_source,
                          deserialize_compressed, serialize_compressed)
from skelkit.solver import (assemble_embedding, deserialize_factored,
                            export_matrix_market, factor, gmres, lu_factor,
                            lu_solve, read_matrix_market, serialize_factored, solve)

LAPLACE2 = KernelSpec("laplace", 2)


def circle_points(n):
    th = 2 * np.pi * np.arange(n) / n
    return PointSet(np.column_stack([np.cos(th), np.sin(th)]))


def one_level_synthetic(seed=0, sizes=(50, 50), k=5, diag_shift=4.0):
    """Hand-built one-level block-separable matrix A = D + L S R with known
    blocks, well conditioned via a diagonal shift.  Each node is
    interpolative, as compression builds them: its skeletons are its first
    DOFs, R = [I, random] and L = R^T.  ``k`` is the skeleton count of every
    node, or a sequence of one per node.  Returns (cm, A_dense)."""
    rng = np.random.default_rng(seed)
    p = len(sizes)
    ks = [k] * p if np.isscalar(k) else list(k)
    offs = np.concatenate([[0], np.cumsum(sizes)])
    koff = np.concatenate([[0], np.cumsum(ks)])
    n = offs[-1]
    nodes = []
    Ds, Ls, Rs = [], [], []
    for a, (na, ka) in enumerate(zip(sizes, ks)):
        D = rng.standard_normal((na, na)) + diag_shift * np.eye(na)
        R = np.hstack([np.eye(ka), rng.standard_normal((ka, na - ka))])
        L = np.ascontiguousarray(R.T)
        Ds.append(D)
        Ls.append(L)
        Rs.append(R)
        skel = np.arange(offs[a], offs[a] + ka)
        nodes.append(CompressedNode(skel, D, L, R, None))
    S = np.zeros((koff[-1], koff[-1]))
    for a in range(p):
        for b in range(p):
            if a != b:
                S[koff[a]:koff[a + 1], koff[b]:koff[b + 1]] = \
                    rng.standard_normal((ks[a], ks[b]))
    cm = CompressedMatrix(levels=[Level(nodes)], S=S, n=n, eps=1e-15,
                          perm=np.arange(n), scalar_field="real")
    A = np.zeros((n, n))
    for a in range(p):
        sa = slice(offs[a], offs[a + 1])
        A[sa, sa] = Ds[a]
        for b in range(p):
            if a != b:
                sb = slice(offs[b], offs[b + 1])
                A[sa, sb] = Ls[a] @ S[koff[a]:koff[a + 1], koff[b]:koff[b + 1]] @ Rs[b]
    return cm, A


def rank_zero_two_level(n=64):
    """Two-level compression of a diagonal matrix whose proxy fields are
    zero: rank-0 leaves, then 0x0 nodes at level 2 and a 0x0 top.  Returns
    (cm, A_dense)."""
    pts = PointSet(np.random.default_rng(0).uniform(size=(n, 2)))
    tree = build_tree(pts, 16)
    d = 2.0 + np.arange(float(n))
    src = KernelSource(LAPLACE2, pts, tree.perm,
                       block=lambda r, c: np.where(r[:, None] == c, d[r][:, None], 0.0),
                       proxy_rows=lambda t, p: np.zeros((t.n, p.n)))
    src.proxy_col_block = lambda cols, proxy: np.zeros((proxy.n, len(cols)))
    return compress_source(src, tree, 1e-9), np.diag(d)


class TestEmbedding:
    def test_one_level_dimension(self):
        cm, _ = one_level_synthetic(sizes=(50, 50), k=5)  # N=100, Kr=Kc=10
        se = assemble_embedding(cm)
        assert se.m == 120
        assert se.n == 100

    def test_degenerate_is_s_itself(self):
        pts = circle_points(30)
        cm = compress(LAPLACE2, pts, build_tree(pts, 64), 1e-9)
        assert cm.nlevels == 0
        se = assemble_embedding(cm)
        assert se.m == 30
        dense = se.to_dense()
        full = eval_block(LAPLACE2, pts, pts)
        np.testing.assert_array_equal(dense[np.ix_(np.argsort(cm.perm)[cm.perm],
                                                   np.arange(30))][0:0], dense[0:0])
        np.testing.assert_allclose(dense, full[np.ix_(cm.perm, cm.perm)], atol=0)

    def test_block_labels(self):
        # one level reduces to the 3x3 block pattern [D L; R 0 -I; 0 -I S]:
        # exactly these labeled blocks and nothing else
        cm, _ = one_level_synthetic()
        se = assemble_embedding(cm)
        assert set(se.blocks) == {"D1", "L1", "R1", "I:y1", "I:z1", "S"}

    def test_dense_elimination_matches_compressed_solve(self):
        pts = circle_points(512)
        tree = build_tree(pts, 64)
        # shifted single-layer system so the matrix is well conditioned
        sys_ = bie.discretize_dirichlet(bie.circle(1.0, 512), LAPLACE2)
        tree, cm = bie.compress_system(sys_, 1e-9)
        se = assemble_embedding(cm)
        E = se.to_dense()
        Atilde = apply(cm, np.eye(512))
        rng = np.random.default_rng(0)
        for _ in range(5):
            b = rng.standard_normal(512)
            xe = se.extract_x(np.linalg.solve(E, se.rhs(b)))
            xd = np.linalg.solve(Atilde, b)
            assert np.linalg.norm(xe - xd) / np.linalg.norm(xd) <= 1e-10

    def test_consistency_forward_recursion(self):
        # filling y/z by the coupling rows must reproduce apply() in the
        # first block row and zero out all coupling rows
        pts = circle_points(512)
        tree = build_tree(pts, 64)
        cm = compress(LAPLACE2, pts, tree, 1e-9)
        assert cm.nlevels >= 2
        se = assemble_embedding(cm)
        E = se.to_dense()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(512)
        xt = x[cm.perm]
        # forward recursion: z(l) = R z(l-1), then y downward from S
        zs = []
        u = xt
        for lv in cm.levels:
            nxt = np.zeros(lv.K)
            for a, nd in enumerate(lv.nodes):
                if nd.k:
                    nxt[lv.k_off[a]:lv.k_off[a + 1]] = \
                        nd.R @ u[lv.dof_off[a]:lv.dof_off[a + 1]]
            zs.append(nxt)
            u = nxt
        ys = [None] * cm.nlevels
        v = cm.S @ zs[-1]
        ys[-1] = v
        for li in range(cm.nlevels - 1, 0, -1):
            lv = cm.levels[li]
            w = np.zeros(int(lv.dof_off[-1]))
            for a, nd in enumerate(lv.nodes):
                seg = nd.D @ zs[li - 1][lv.dof_off[a]:lv.dof_off[a + 1]]
                if nd.k:
                    seg = seg + nd.L @ ys[li][lv.k_off[a]:lv.k_off[a + 1]]
                w[lv.dof_off[a]:lv.dof_off[a + 1]] = seg
            ys[li - 1] = w
        vec = np.concatenate([xt] + [np.concatenate([ys[li], zs[li]])
                                     for li in range(cm.nlevels)])
        out = E @ vec
        ref = apply(cm, x)[cm.perm]
        assert np.linalg.norm(out[:512] - ref) / np.linalg.norm(ref) <= 1e-13
        assert np.abs(out[512:]).max() <= 1e-13 * np.abs(ref).max()


class TestFactor:
    def test_diagonal_matrix_trivial_compression(self):
        # 1x1 blocks with empty skeletons: solve is exact division
        nodes = [CompressedNode(np.empty(0, dtype=int), np.array([[2.0]]),
                                np.zeros((1, 0)), np.zeros((0, 1)), None),
                 CompressedNode(np.empty(0, dtype=int), np.array([[3.0]]),
                                np.zeros((1, 0)), np.zeros((0, 1)), None)]
        cm = CompressedMatrix(levels=[Level(nodes)], S=np.zeros((0, 0)),
                              n=2, eps=1e-15, perm=np.arange(2), scalar_field="real")
        fi = factor(cm)
        b = np.array([4.0, 9.0])
        np.testing.assert_array_equal(solve(fi, b), [2.0, 3.0])

    def test_synthetic_matches_dense_inverse(self):
        cm, A = one_level_synthetic(seed=3, sizes=(40, 35, 45), k=4)
        fi = factor(cm)
        rng = np.random.default_rng(5)
        b = rng.standard_normal(A.shape[0])
        x = solve(fi, b)
        xd = np.linalg.solve(A, b)
        assert np.linalg.norm(x - xd) / np.linalg.norm(xd) <= 1e-10

    def test_circle_double_layer_factor(self):
        sys_ = bie.discretize_dirichlet(bie.circle(1.0, 512), LAPLACE2)
        tree, cm = bie.compress_system(sys_, 1e-9)
        fi = factor(cm)
        assert fi.warnings == []
        rng = np.random.default_rng(2)
        b = rng.standard_normal(512)
        x = solve(fi, b)
        res = np.linalg.norm(apply(cm, x) - b) / np.linalg.norm(b)
        assert res <= 1e-8

    def test_solve_apply_roundtrip_bound(self):
        pts = circle_points(512)
        sys_ = bie.discretize_dirichlet(bie.circle(1.0, 512), LAPLACE2)
        tree, cm = bie.compress_system(sys_, 1e-9)
        fi = factor(cm)
        # condition estimate by power iteration on the compressed operator
        rng = np.random.default_rng(3)
        v = rng.standard_normal(512)
        for _ in range(20):
            v = apply(cm, v)
            v /= np.linalg.norm(v)
        sigma_max = np.linalg.norm(apply(cm, v))
        w = rng.standard_normal(512)
        for _ in range(20):
            w = solve(fi, w)
            w /= np.linalg.norm(w)
        sigma_min = 1.0 / np.linalg.norm(solve(fi, w))
        kappa = sigma_max / sigma_min
        b = rng.standard_normal(512)
        res = np.linalg.norm(apply(cm, solve(fi, b)) - b) / np.linalg.norm(b)
        assert res <= 100 * cm.eps * kappa

    def test_multiple_rhs_reuse(self):
        cm, A = one_level_synthetic(seed=9)
        fi = factor(cm)
        rng = np.random.default_rng(0)
        B = rng.standard_normal((A.shape[0], 10))
        X = solve(fi, B)
        assert X.shape == B.shape
        np.testing.assert_allclose(A @ X, B, atol=1e-9 * np.abs(B).max())

    def test_singular_block_raises_and_regularize_rescues(self):
        cm, _ = one_level_synthetic(seed=1, sizes=(8, 8), k=2)
        cm.levels[0].nodes[1].D[:] = 0.0
        with pytest.raises(SingularBlock) as exc:
            factor(cm)
        assert exc.value.level == 1
        assert exc.value.node == 1
        fi = factor(cm, regularize=1e-8)
        assert fi is not None

    def test_singular_d_inside_invertible_bordered_block_factors(self):
        # node 1's D is singular, but [[D, L], [R, 0]] is not: inverting D on
        # its own raised SingularBlock(level 1, node 1, "D")
        cm, A = one_level_synthetic(seed=3, sizes=(8, 8), k=2)
        cm.levels[0].nodes[1].D[:, 0] = 0.0
        A[8:, 8] = 0.0
        fi = factor(cm)
        assert fi.warnings == []
        b = np.random.default_rng(0).standard_normal(16)
        x = solve(fi, b)
        assert np.linalg.norm(A @ x - b) <= 1e-13 * np.linalg.norm(b)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), "1e-8", True])
    def test_regularize_must_be_a_finite_real(self, delta):
        # a nan or inf shift once factored and made solve return non-finite
        # x; True, a numbers.Real, once added 1.0 * I
        cm, _ = one_level_synthetic()
        with pytest.raises(InvalidInput, match="regularize"):
            factor(cm, regularize=delta)

    def test_rank_zero_leaves_and_empty_nodes(self):
        # a diagonal matrix with zero proxy fields: every leaf has rank 0,
        # so every level-2 node and the top are 0x0; each leaf takes the LU
        # of its M = D, the 0x0 nodes keep every DOF and take none, and the
        # 0x0 top is LU-factored like any other
        cm, A = rank_zero_two_level()
        assert cm.nlevels == 2 and cm.S.shape == (0, 0)
        assert all(nd.k == 0 for nd in cm.levels[0].nodes)
        assert all(nd.D.shape == (0, 0) for nd in cm.levels[1].nodes)
        fi = factor(cm)
        B = np.random.default_rng(0).standard_normal((cm.n, 3))
        np.testing.assert_allclose(solve(fi, B), np.linalg.inv(A) @ B, rtol=1e-14)
        blob = serialize_factored(fi)
        fi2 = deserialize_factored(blob)
        assert serialize_factored(fi2) == blob
        assert np.array_equal(solve(fi2, B), solve(fi, B))

    def test_length_mismatch(self):
        cm, _ = one_level_synthetic()
        pts = circle_points(40)
        cm0 = compress(LAPLACE2, pts, build_tree(pts, 64), 1e-9)   # no levels
        for fi in (factor(cm), factor(cm0)):
            for b in (np.zeros(7), np.zeros(fi.n + 1), np.zeros((fi.n - 1, 3))):
                with pytest.raises(InvalidInput, match="length mismatch"):
                    solve(fi, b)
            assert np.all(solve(fi, np.zeros(fi.n)) == 0.0)


def _sweep_fn(op, cm, A):
    """``apply`` or ``solve`` on ``cm`` as a function of the right-hand
    side, and the dense matrix that function multiplies by."""
    if op == "apply":
        return (lambda x: apply(cm, x)), A
    fi = factor(cm)
    return (lambda b: solve(fi, b)), np.linalg.inv(A)


@cache
def _circle_dirichlet(n):
    sys_ = bie.discretize_dirichlet(bie.circle(1.0, n), LAPLACE2)
    return bie.compress_system(sys_, 1e-9)[1], sys_.matrix()


@pytest.mark.parametrize("op", ["apply", "solve"])
class TestSweep:
    """apply and solve run one telescoping sweep; each case runs through
    both callers."""

    def test_real_operator_complex_rhs(self, op):
        cm, A = one_level_synthetic(seed=4, sizes=(30, 20, 25), k=4)
        fn, M = _sweep_fn(op, cm, A)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(cm.n) + 1j * rng.standard_normal(cm.n)
        y = fn(x)
        assert y.dtype == np.complex128
        assert np.linalg.norm(y - M @ x) <= 1e-12 * np.linalg.norm(M @ x)

    def test_block_equals_columns(self, op):
        cm, A = _circle_dirichlet(256)
        assert cm.nlevels >= 2
        fn, _ = _sweep_fn(op, cm, A)
        X = np.random.default_rng(1).standard_normal((cm.n, 5))
        Y = fn(X)
        assert Y.shape == X.shape
        cols = np.column_stack([fn(X[:, j]) for j in range(5)])
        np.testing.assert_allclose(Y, cols, rtol=1e-12, atol=1e-13 * np.abs(Y).max())

    def test_no_levels(self, op):
        cm, A = _circle_dirichlet(40)
        assert cm.nlevels == 0
        fn, M = _sweep_fn(op, cm, A)
        x = np.random.default_rng(2).standard_normal(cm.n)
        assert np.linalg.norm(fn(x) - M @ x) <= 1e-12 * np.linalg.norm(M @ x)

    def test_node_with_zero_skeletons(self, op):
        cm, A = one_level_synthetic(seed=6, sizes=(12, 9, 10), k=(3, 0, 3))
        assert [nd.k for nd in cm.levels[0].nodes] == [3, 0, 3]
        fn, M = _sweep_fn(op, cm, A)
        x = np.random.default_rng(3).standard_normal((cm.n, 2))
        assert np.linalg.norm(fn(x) - M @ x) <= 1e-12 * np.linalg.norm(M @ x)

    def test_rejects_more_than_two_dimensions(self, op):
        # trailing axes were once flattened into columns: an (n, 2, 2)
        # input returned an (n, 4) result
        cm, A = one_level_synthetic(seed=7, sizes=(6, 5), k=2)
        fn, _ = _sweep_fn(op, cm, A)
        for x in (np.ones((cm.n, 2, 2)), np.float64(1.0)):
            with pytest.raises(InvalidInput, match="dimensions"):
                fn(x)

    def test_peak_memory(self, op):
        # the permuted input, the finest level's output and the un-permuted
        # result were once alive together: a peak of 3.0 input sizes
        cm, _ = _circle_dirichlet(4096)
        fi = factor(cm) if op == "solve" else None
        x = np.random.default_rng(4).standard_normal((cm.n, 128))
        tracemalloc.start()
        try:
            apply(cm, x) if fi is None else solve(fi, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * x.nbytes


class TestGmres:
    def test_identity_one_iteration(self):
        b = np.arange(1.0, 6.0)
        x, it = gmres(lambda v: v, b, tol=1e-12)
        assert it == 1
        np.testing.assert_allclose(x, b, rtol=1e-12)

    def test_diagonal_krylov_bound(self):
        d = np.arange(1.0, 11.0)
        b = np.ones(10)
        x, it = gmres(lambda v: d * v, b, tol=1e-12)
        assert it <= 10
        np.testing.assert_allclose(x, b / d, rtol=1e-10)

    def test_random_system_matches_dense(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((50, 50)) + 6 * np.eye(50)
        b = rng.standard_normal(50)
        x, it = gmres(A, b, tol=1e-12)
        xd = np.linalg.solve(A, b)
        assert np.linalg.norm(x - xd) / np.linalg.norm(xd) <= 1e-11

    def test_complex_system(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)) \
            + 8 * np.eye(40)
        b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        x, _ = gmres(A, b, tol=1e-12)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-11

    def test_not_converged_carries_iterate(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((60, 60)) + 4 * np.eye(60)
        b = rng.standard_normal(60)
        with pytest.raises(NotConverged) as exc:
            gmres(A, b, tol=1e-14, max_iter=3)
        assert exc.value.iterations == 3
        assert exc.value.x.shape == (60,)
        assert 0 < exc.value.residual < 1

    def test_breakdown_at_the_first_step_returns_zero(self):
        # A v_0 = 0: once x = [nan, nan, nan] with "best relative residual 0"
        # after 3 iterations
        with pytest.raises(NotConverged) as exc:
            gmres(np.zeros((3, 3)), np.ones(3))
        assert exc.value.iterations == 1
        assert exc.value.residual == 1.0
        assert np.all(exc.value.x == 0)

    def test_breakdown_keeps_the_steps_before_it(self):
        # the second step's column lies in the span: once IndexError
        with pytest.raises(NotConverged) as exc:
            gmres(np.diag([1.0, 0.0]), np.ones(2))
        assert exc.value.iterations == 2
        assert exc.value.residual == pytest.approx(1 / np.sqrt(2), rel=1e-12)
        np.testing.assert_allclose(exc.value.x, [1.0, 1.0], rtol=1e-12)

    def test_breakdown_reports_the_true_residual(self):
        # the upper shift: once residual 0.503 reported for an iterate whose
        # own residual was 0.610, with x[0] = 4.8e15
        A, b = np.diag(np.ones(2), 1), np.ones(3)
        with pytest.raises(NotConverged) as exc:
            gmres(A, b)
        true = np.linalg.norm(A @ exc.value.x - b) / np.linalg.norm(b)
        assert abs(exc.value.residual - true) <= 1e-12
        assert abs(exc.value.residual - 1 / np.sqrt(3)) <= 1e-12

    def test_preconditioner_cuts_iterations(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((80, 80)) + 10 * np.eye(80)
        b = rng.standard_normal(80)
        Ainv = np.linalg.inv(A)
        _, it_plain = gmres(A, b, tol=1e-10)
        x, it_prec = gmres(A, b, tol=1e-10, precond=Ainv)
        assert it_prec <= 2
        assert it_prec < it_plain
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-9

    def test_zero_rhs(self):
        x, it = gmres(np.eye(4), np.zeros(4), tol=1e-12)
        assert it == 0
        assert np.all(x == 0)

    def test_bad_tol(self):
        with pytest.raises(InvalidInput):
            gmres(np.eye(2), np.ones(2), tol=0.0)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_bad_max_iter(self, max_iter):
        # both once raised IndexError
        with pytest.raises(InvalidInput, match="max_iter"):
            gmres(np.eye(3) * 2, np.ones(3), max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [True, 2.5, np.float64(3.0), "3"])
    def test_max_iter_must_be_an_integer(self, max_iter):
        # each once raised TypeError, from range or from <
        with pytest.raises(InvalidInput, match="max_iter"):
            gmres(np.eye(3) * 2, np.ones(3), max_iter=max_iter)

    def test_numpy_integer_max_iter_accepted(self):
        x, it = gmres(np.eye(3) * 2, np.ones(3), tol=1e-12, max_iter=np.int64(3))
        assert it == 1
        np.testing.assert_allclose(x, 0.5)

    @pytest.mark.parametrize("tol", [True, float("inf"), 1.0, float("nan"), -1e-6, "1e-6",
                                     1j * 1e-6])
    def test_tol_must_lie_in_0_1(self, tol):
        # True and inf were accepted: on I + 0.3 randn (50 x 50, seed 0)
        # GMRES returned after one step, 0.99 off in relative error
        rng = np.random.default_rng(0)
        A = np.eye(50) + 0.3 * rng.standard_normal((50, 50))
        with pytest.raises(InvalidInput, match="tol"):
            gmres(A, rng.standard_normal(50), tol=tol)


class TestMatrixMarket:
    def test_identity_format(self, tmp_path):
        nodes = [CompressedNode(np.empty(0, dtype=int), np.eye(1), np.zeros((1, 0)),
                                np.zeros((0, 1)), None)
                 for _ in range(2)]
        cm = CompressedMatrix(levels=[], S=np.eye(2), n=2, eps=1e-15,
                              perm=np.arange(2), scalar_field="real")
        se = assemble_embedding(cm)
        path = tmp_path / "eye.mtx"
        export_matrix_market(se, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate real general"
        assert lines[1] == "2 2 2"
        assert lines[2].split() == ["1", "1", "1"]
        assert lines[3].split() == ["2", "2", "1"]

    def test_roundtrip_real(self, tmp_path):
        pts = circle_points(256)
        cm = compress(LAPLACE2, pts, build_tree(pts, 64), 1e-6)
        se = assemble_embedding(cm)
        path = tmp_path / "emb.mtx"
        export_matrix_market(se, path)
        shape, rows, cols, vals = read_matrix_market(path)
        assert shape == (se.m, se.m)
        dense = np.zeros((se.m, se.m))
        dense[rows, cols] = vals
        np.testing.assert_array_equal(dense, se.to_dense())
        # cross-check with an independent reader
        from scipy.io import mmread
        ref = mmread(str(path)).toarray()
        np.testing.assert_array_equal(ref, se.to_dense())

    def test_roundtrip_complex(self, tmp_path):
        spec = KernelSpec("helmholtz", 2, wavenumber=2.0)
        pts = circle_points(200)
        cm = compress(spec, pts, build_tree(pts, 64), 1e-6)
        se = assemble_embedding(cm)
        path = tmp_path / "emb_c.mtx"
        export_matrix_market(se, path)
        header = path.read_text().splitlines()[0]
        assert "complex" in header
        first_entry = path.read_text().splitlines()[2]
        assert len(first_entry.split()) == 4  # i j re im
        shape, rows, cols, vals = read_matrix_market(path)
        dense = np.zeros((se.m, se.m), dtype=np.complex128)
        dense[rows, cols] = vals
        np.testing.assert_array_equal(dense, se.to_dense())

    @pytest.mark.parametrize("corrupt", ["truncated", "size_line", "short", "index", "binary"])
    def test_corrupt_export_raises_invalid_input(self, tmp_path, corrupt):
        pts = circle_points(120)
        cm = compress(LAPLACE2, pts, build_tree(pts, 16), 1e-3)
        path = tmp_path / "emb.mtx"
        export_matrix_market(assemble_embedding(cm), path)
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        m, _, nnz = (int(t) for t in lines[1].split())
        if corrupt == "truncated":
            text = text[:len(text) // 2]
        elif corrupt != "binary":
            if corrupt == "size_line":
                lines[1] = "3 3 x\n"
            elif corrupt == "short":
                lines[1] = f"{m} {m} {nnz + 1}\n"
            else:
                lines[2] = f"{m + 1} " + lines[2].split(" ", 1)[1]
            text = "".join(lines)
        # non-UTF-8 bytes in place of the header, and in an entry line after
        # a valid header
        blobs = ([b"\xff\xfe\x00garbage\n", lines[0].encode() + b"1 1 \xff\n"]
                 if corrupt == "binary" else [text.encode()])
        for blob in blobs:
            path.write_bytes(blob)
            with pytest.raises(InvalidInput):
                read_matrix_market(path)


class TestFactoredSerialization:
    def test_roundtrip_solves_identically(self, tmp_path):
        from skelkit.solver import load_factored, save_factored
        sys_ = bie.discretize_dirichlet(bie.circle(1.0, 512), LAPLACE2)
        tree, cm = bie.compress_system(sys_, 1e-9)
        fi = factor(cm)
        path = tmp_path / "fi.bin"
        save_factored(fi, path)
        fi2 = load_factored(path)
        assert fi2.n == fi.n and fi2.scalar_field == fi.scalar_field
        # the top LU comes back column-major, as factor leaves it, so getrs
        # solves with it in place
        assert fi.S_lu[0].flags.f_contiguous and fi2.S_lu[0].flags.f_contiguous
        b = np.random.default_rng(0).standard_normal(512)
        assert solve(fi, b).tobytes() == solve(fi2, b).tobytes()

    def test_roundtrip_complex_and_degenerate(self, tmp_path):
        from skelkit.solver import load_factored, save_factored
        spec = KernelSpec("helmholtz", 2, wavenumber=2.0)
        pts = circle_points(40)
        cm = compress(spec, pts, build_tree(pts, 64), 1e-9)
        assert cm.nlevels == 0
        fi = factor(cm)
        path = tmp_path / "fid.bin"
        save_factored(fi, path)
        fi2 = load_factored(path)
        b = np.random.default_rng(1).standard_normal(40) + 0j
        assert np.array_equal(solve(fi, b), solve(fi2, b))


def test_nonsquare_lambda_rejected():
    # rectangular skeleton blocks cannot enter the telescoping inverse:
    # Level, the one shape check, refuses a node with 3 row and 2 column
    # interpolation columns
    rng = np.random.default_rng(0)
    n1 = 8
    square = CompressedNode(np.arange(2), rng.standard_normal((n1, n1)),
                            rng.standard_normal((n1, 2)), rng.standard_normal((2, n1)), None)
    skewed = CompressedNode(np.arange(3), rng.standard_normal((n1, n1)),
                            rng.standard_normal((n1, 3)), rng.standard_normal((2, n1)), None)
    with pytest.raises(InvalidInput, match=r"^node 1 has diag \(8, 8\), down \(8, 3\) "
                                           r"and up \(2, 8\)"):
        Level([square, skewed])


def _one_level_container(n1, skels, rng):
    """README's layout of a one-level compressed container whose node a
    stores the row and column skeleton records ``skels[a]`` (offset into
    its n1 points) with L and R of their sizes, and a random S."""
    records = []
    for a, (rows, cols) in enumerate(skels):
        arrays = (np.empty(0, np.int64), n1 * a + rows, n1 * a + cols,
                  rng.standard_normal((n1, n1)) + 4 * np.eye(n1),
                  rng.standard_normal((n1, rows.size)), rng.standard_normal((cols.size, n1)))
        records.append(struct.pack("<B", 0) + b"".join(_ref_array(x) for x in arrays))
    S = rng.standard_normal((sum(r.size for r, _ in skels), sum(c.size for _, c in skels)))
    n = n1 * len(skels)
    return _ref_container(1, "real", n, 1e-15, np.arange(n), [records], [S])


def test_loaded_non_square_node_is_named():
    # compression makes every node square (one skeleton for rows and
    # columns); a container whose node 1 keeps 3 row and 2 column
    # skeletons is refused when it is read, naming the node
    blob = _one_level_container(8, [(np.arange(kr), np.arange(kc))
                                    for kr, kc in [(2, 2), (3, 2), (2, 2)]],
                                np.random.default_rng(0))
    with pytest.raises(InvalidInput, match="level 1, node 1 "):
        deserialize_compressed(blob)


def test_loaded_two_skeleton_node_is_refused():
    # a source with separate row and column IDs wrote row and column
    # skeletons of one size but different points; such a container loaded
    # and factored, and is now refused at load, naming the node
    same, other = (np.arange(2), np.arange(2)), (np.array([0, 1]), np.array([0, 2]))
    rng = np.random.default_rng(0)
    deserialize_compressed(_one_level_container(8, [same] * 3, rng))
    blob = _one_level_container(8, [same, other, same], rng)
    with pytest.raises(InvalidInput, match="level 1, node 1 has different row and column "
                                           "skeletons"):
        deserialize_compressed(blob)


def test_factor_leaves_warning_filters_alone(monkeypatch):
    # factor once mapped its nodes over a thread pool sized by this variable,
    # and the per-LU catch_warnings, which is process-global, then left a
    # stray ("ignore", LinAlgWarning) filter behind; the variable is inert now
    monkeypatch.setenv("SKELKIT_THREADS", "4")
    system = bie.discretize_dirichlet(bie.circle(1.0, 2048), LAPLACE2)
    cm = bie.compress_system(system, 1e-9, 16)[1]
    before = list(warnings.filters)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        factor(cm)
    finally:
        sys.setswitchinterval(interval)
    assert list(warnings.filters) == before


def test_concurrent_factors_leave_warning_filters_alone():
    # factor wrapped each LU in warnings.catch_warnings, which swaps the
    # process-global filter list: two threads factoring at once left a stray
    # ("ignore", LinAlgWarning) filter behind
    system = bie.discretize_dirichlet(bie.circle(1.0, 2048), LAPLACE2)
    cm = bie.compress_system(system, 1e-9, 16)[1]
    before = list(warnings.filters)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            for fut in [pool.submit(factor, cm) for _ in range(2)]:
                fut.result(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert list(warnings.filters) == before


def test_lu_factor_is_scipys_without_the_warning():
    rng = np.random.default_rng(0)
    blocks = [rng.standard_normal((5, 5)),
              rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
              np.zeros((3, 3)), np.zeros((0, 0)), np.zeros((0, 0), complex)]
    for a in blocks:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lu, piv = lu_factor(a)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            ref_lu, ref_piv = scipy.linalg.lu_factor(a, check_finite=False)
        assert lu.dtype == ref_lu.dtype and piv.dtype == ref_piv.dtype
        np.testing.assert_array_equal(lu, ref_lu)
        np.testing.assert_array_equal(piv, ref_piv)


@pytest.mark.parametrize("cplx_lu, cplx_b", [(False, False), (True, True), (False, True)],
                         ids=["real", "complex", "real-lu-complex-b"])
@pytest.mark.parametrize("nrhs", [None, 1, 7])
def test_lu_solve_is_scipys(cplx_lu, cplx_b, nrhs):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((9, 9)) + (1j * rng.standard_normal((9, 9)) if cplx_lu else 0)
    b = rng.standard_normal((9,) if nrhs is None else (9, nrhs))
    if cplx_b:
        b = b + 1j * rng.standard_normal(b.shape)
    lu = lu_factor(a)
    want = scipy.linalg.lu_solve(lu, b, check_finite=False)
    got = lu_solve(lu, b)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # an empty right-hand side gives an empty answer of the same dtype
    empty = lu_solve(lu, np.zeros((9, 0), dtype=b.dtype))
    assert empty.shape == (9, 0) and empty.dtype == want.dtype


@pytest.mark.parametrize("regularize", [0.0, 1e-3])
def test_factor_leaves_the_compressed_matrix_alone(regularize):
    # factor reads the compressed blocks and writes none of them
    system = bie.discretize_dirichlet(bie.circle(1.0, 512), LAPLACE2)
    cm = bie.compress_system(system, 1e-9, 16)[1]
    before = serialize_compressed(cm)
    factor(cm, regularize=regularize)
    assert serialize_compressed(cm) == before


@pytest.mark.parametrize("spec", [LAPLACE2, KernelSpec("helmholtz", 2, wavenumber=10.0)],
                         ids=["laplace", "helmholtz"])
def test_factor_keeps_no_lambda(spec):
    # Lambda stays inside factor: a factored node is built as a loaded one
    # is, holding Dd, Ld and Rd, and the two solve alike
    system = bie.discretize_dirichlet(bie.circle(1.0, 1024), spec)
    cm = bie.compress_system(system, 1e-9, 16)[1]
    assert cm.nlevels >= 3
    fi = factor(cm)
    loaded = deserialize_factored(serialize_factored(fi))
    for lv, lv2 in zip(fi.levels, loaded.levels, strict=True):
        for fn, fn2 in zip(lv.nodes, lv2.nodes, strict=True):
            assert fn.Lam.shape == (0, 0) and fn.Lam.dtype == fn.Dd.dtype
            for name in ("Dd", "Ld", "Rd"):
                a, b = getattr(fn, name), getattr(fn2, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
    rng = np.random.default_rng(5)
    for shape in ((1024,), (1024, 16)):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert solve(fi, x).tobytes() == solve(loaded, x).tobytes()
        assert solve(fi, x.real).tobytes() == solve(loaded, x.real).tobytes()


def _bordered_reference(cm):
    """The inverse of each node's bordered block B = [[D_eff, L], [R, 0]],
    D_eff with the children's Lambda = -B^-1[n:, n:] on its diagonal, by
    np.linalg.inv: ``factor``'s blocks as they were first computed.  Yields
    (level, node, B^-1, n)."""
    lams = []
    for li, lv in enumerate(cm.levels):
        below, lams = lams, []
        for a, nd in enumerate(lv.nodes):
            n, k = nd.D.shape[0], nd.k
            B = np.zeros((n + k, n + k), dtype=cm.dtype)
            B[:n, :n], B[:n, n:], B[n:, :n] = nd.D, nd.L, nd.R
            o = 0
            for c in (nd.children if li else []):
                kc = below[c].shape[0]
                B[o:o + kc, o:o + kc] = below[c]
                o += kc
            Binv = np.linalg.inv(B)
            lams.append(-Binv[n:, n:])
            yield li, a, Binv, n


@pytest.mark.parametrize("case, bound", [("ellipse_bie", 1e-13), ("square", 1e-11),
                                         ("helmholtz_bie", 2e-13)],
                         ids=["ellipse_bie", "square", "helmholtz_bie"])
def test_elimination_matches_the_bordered_inverse(case, bound):
    # factor reads each node's Dd, Ld and Rd off one LU of N^T D_eff N; they
    # are the blocks of the bordered block's inverse.  Largest entry error
    # over the node's largest |B^-1| entry, measured when this was written:
    # 4e-15 (ellipse), 6e-13 (square), 1.3e-14 (Helmholtz ellipse)
    if case == "square":
        pts = PointSet(np.random.default_rng(201).random((2048, 2)))
        cm = compress(LAPLACE2, pts, build_tree(pts), 1e-6)
    else:
        spec = LAPLACE2 if case == "ellipse_bie" else KernelSpec("helmholtz", 2, wavenumber=10.0)
        system = bie.discretize_dirichlet(bie.ellipse(2.0, 1.0, 1024), spec)
        cm = bie.compress_system(system, 1e-9, None if case == "ellipse_bie" else 16)[1]
    assert cm.nlevels >= 3
    fi = factor(cm)
    eliminated = 0
    for li, a, Binv, n in _bordered_reference(cm):
        fn = fi.levels[li].nodes[a]
        scale = np.abs(Binv).max()
        for got, want in ((fn.Dd, Binv[:n, :n]), (fn.Ld, Binv[:n, n:]), (fn.Rd, Binv[n:, :n])):
            assert got.shape == want.shape
            if got is fn.Ld and (case == "square" or fn.Rd.shape[0] == n):
                # the square's matrix is symmetric, and so is every bordered
                # block; a node that keeps every DOF has Ld = L = R^T exactly.
                # Either way Ld is Rd^T, sharing Rd's buffer
                assert got.base is fn.Rd and got.strides == fn.Rd.strides[::-1]
            else:
                assert got.flags.c_contiguous
            assert np.abs(got - want).max(initial=0.0) <= bound * scale, (li, a)
        eliminated += fn.Rd.shape[0] < n
    assert eliminated >= 10


def _pass_through_case(case):
    if case == "ellipse_bie":
        system = bie.discretize_dirichlet(bie.ellipse(2.0, 1.0, 4096), LAPLACE2)
        return bie.compress_system(system, 1e-9)[1]
    pts = PointSet(np.random.default_rng(201).random((2048, 3)))
    return compress(KernelSpec("laplace", 3), pts, build_tree(pts), 1e-6)


@pytest.mark.parametrize("case", ["ellipse_bie", "cube"])
def test_nodes_that_keep_every_dof_take_no_lu(case, monkeypatch):
    # a node whose skeletons are all its DOFs (the ellipse's carried nodes,
    # the cube's full-rank leaves) takes no getrf, and its blocks are exact:
    # Dd = 0, Ld = Rd = I and Lambda = D_eff, bit for bit.  Through the
    # bordered LU they held only up to its rounding.  Lambda is read where
    # factor puts it, on the parent's diagonal or the top's
    cm = _pass_through_case(case)
    puts, lus = [], []
    real_put, real_lu = solver._put_diagonal, solver.lu_factor
    # the finest level's nodes put no blocks
    monkeypatch.setattr(solver, "_put_diagonal",
                        lambda M, blocks: (blocks and puts.append(list(blocks)))
                        or real_put(M, blocks))
    monkeypatch.setattr(solver, "lu_factor", lambda a: lus.append(a.shape) or real_lu(a))
    fi = factor(cm)
    calls = iter(puts)
    lams = [[blk for _ in cm.levels[li].nodes for blk in next(calls)]
            for li in range(1, cm.nlevels)] + [next(calls)]
    assert next(calls, None) is None
    kept = 0
    for li, (lv, flv) in enumerate(zip(cm.levels, fi.levels)):
        for a, (nd, fn) in enumerate(zip(lv.nodes, flv.nodes)):
            n = nd.D.shape[0]
            if nd.k < n:
                continue
            kept += 1
            eye = np.eye(n)
            assert not fn.Dd.any() and fn.Dd.shape == (n, n)
            assert fn.Ld.tobytes() == eye.tobytes() and fn.Rd.tobytes() == eye.tobytes()
            D_eff = nd.D.copy()
            if li:
                real_put(D_eff, [lams[li - 1][c] for c in nd.children])
            assert lams[li][a].tobytes() == D_eff.tobytes()
    nodes = sum(len(lv.nodes) for lv in cm.levels)
    assert kept >= (40 if case == "ellipse_bie" else 8)
    assert len(lus) == nodes - kept + 1


def _interpolative_corruptions(corrupt):
    """A level-2 node of the 120-point circle container, made not
    interpolative; returns the container's bytes and the node's position."""
    cm = deserialize_compressed(_containers()["compressed"][0])
    lv = cm.levels[1]
    a, nd = next((a, nd) for a, nd in enumerate(lv.nodes) if 2 <= nd.k < nd.D.shape[0])
    dofs = np.concatenate([cm.levels[0].nodes[c].skel for c in nd.children])
    p = np.searchsorted(dofs, nd.skel)
    if corrupt == "r_not_identity":
        nd.R[1, p[1]] = np.nextafter(1.0, 2.0)
        nd.L = np.ascontiguousarray(nd.R.T)
    elif corrupt == "l_not_r_transposed":
        # L is a view of R: corrupt a copy, or R changes with it
        q = np.setdiff1d(np.arange(dofs.size), p)[0]
        nd.L = nd.L.copy()
        nd.L[q, 0] = np.nextafter(nd.L[q, 0], np.inf)
    elif corrupt == "skeleton_of_another_node":
        nd.skel[0] = next(i for i in range(cm.n) if i not in dofs)
    else:
        nd.skel[1] = nd.skel[0]
    return serialize_compressed(cm), a


@pytest.mark.parametrize("corrupt", ["r_not_identity", "l_not_r_transposed",
                                     "skeleton_of_another_node", "skeleton_twice"])
def test_factor_refuses_a_node_that_is_not_interpolative(corrupt):
    # the elimination reads R = [T, I] and L = R^T off each node; a loaded
    # node that is not so is refused by name rather than factored wrongly
    blob, a = _interpolative_corruptions(corrupt)
    cm = deserialize_compressed(blob)
    with pytest.raises(InvalidInput, match=f"^level 2, node {a} is not interpolative"):
        factor(cm)


@pytest.mark.parametrize("corrupt, why", [("r_not_identity", "R is not I at its skeletons"),
                                         ("l_not_r_transposed", "L is not R\\^T")])
@pytest.mark.parametrize("keeps_every_dof", [False, True], ids=["eliminated", "kept"])
def test_factor_names_a_later_node_that_is_not_interpolative(corrupt, why, keeps_every_dof):
    # the checks run at every node, one that keeps every DOF included, and
    # name the node: here the last of its level, after nodes that pass.  L,
    # held as R.T, is made a copy before one of its entries is changed
    system = bie.discretize_dirichlet(bie.ellipse(2.0, 1.0, 1024), LAPLACE2)
    _, cm = bie.compress_system(system, 1e-8, 16)
    li, a, nd = next((li, len(lv.nodes) - 1, lv.nodes[-1]) for li, lv in enumerate(cm.levels)
                     if len(lv.nodes) > 1 and 2 <= lv.nodes[-1].k
                     and (lv.nodes[-1].k == lv.nodes[-1].D.shape[0]) == keeps_every_dof)
    assert factor(cm).levels[li].nodes[a].Dd.any() != keeps_every_dof
    R = nd.R.copy()
    dofs = (np.arange(*cm.levels[0].dof_off[a:a + 2]) if li == 0 else
            np.concatenate([cm.levels[li - 1].nodes[c].skel for c in nd.children]))
    p = np.searchsorted(dofs, nd.skel)
    if corrupt == "r_not_identity":
        R[1, p[1]] = np.nextafter(1.0, 2.0)
        nd.R, nd.L = R, R.T
    else:
        nd.L = R.T.copy()
        nd.L[p[0], 1] = np.nextafter(nd.L[p[0], 1], np.inf)
    with pytest.raises(InvalidInput, match=f"^level {li + 1}, node {a} is not interpolative: {why}"):
        factor(cm)


def test_factor_refuses_a_level_short_of_the_dofs_below():
    # a hand-built level that takes fewer DOFs than the matrix has: the
    # readers refuse such a container, and factor refuses the object
    cm, _ = one_level_synthetic()
    cm.n += 1
    cm.perm = np.arange(cm.n)
    with pytest.raises(InvalidInput, match=f"^level 1 takes {cm.n - 1} DOFs"):
        factor(cm)


def test_skeletons_in_any_order_and_place():
    # the skeletons of a hand-built node need be neither its first DOFs nor
    # sorted: R is I at their positions, in skeleton order, and L = R^T
    rng = np.random.default_rng(11)
    sizes, ks = (9, 12, 7), (3, 4, 2)
    offs, koff = np.cumsum((0,) + sizes), np.cumsum((0,) + ks)
    nodes, blocks = [], []
    for a, (na, ka) in enumerate(zip(sizes, ks)):
        pos = rng.permutation(na)[:ka]
        assert not np.all(np.diff(pos) > 0)
        R = rng.standard_normal((ka, na))
        R[:, pos] = np.eye(ka)
        D = rng.standard_normal((na, na)) + 4 * np.eye(na)
        nodes.append(CompressedNode(offs[a] + pos, D, np.ascontiguousarray(R.T), R, None))
        blocks.append((D, R))
    S = rng.standard_normal((koff[-1], koff[-1]))
    A = np.zeros((offs[-1], offs[-1]))
    for a, (Da, Ra) in enumerate(blocks):
        sa = slice(offs[a], offs[a + 1])
        A[sa, sa] = Da
        for b, (_, Rb) in enumerate(blocks):
            if a != b:
                Sab = S[koff[a]:koff[a + 1], koff[b]:koff[b + 1]]
                A[sa, offs[b]:offs[b + 1]] = Ra.T @ Sab @ Rb
    for a in range(3):
        S[koff[a]:koff[a + 1], koff[a]:koff[a + 1]] = 0
    cm = CompressedMatrix(levels=[Level(nodes)], S=S, n=offs[-1], eps=1e-15,
                          perm=np.arange(offs[-1]), scalar_field="real")
    b = rng.standard_normal(offs[-1])
    x = solve(factor(cm), b)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def _ref_array(a):
    """README's array record: u8 dtype code, u8 ndim, i64 shape, raw
    little-endian row-major bytes."""
    code = {"float64": 0, "complex128": 1, "int64": 2}[a.dtype.name]
    return (struct.pack("<BB", code, a.ndim) + struct.pack(f"<{a.ndim}q", *a.shape)
            + a.astype(a.dtype.newbyteorder("<")).tobytes(order="C"))


def _ref_container(kind, field, n, eps, perm, levels, tail):
    """README's container: the header, the permutation, per level a u32 node
    count and the nodes' records, then the ``tail`` arrays."""
    out = b"SKLC" + struct.pack("<HBB", 1, kind, field == "complex")
    out += struct.pack("<qId", n, len(levels), eps) + _ref_array(perm)
    for records in levels:
        out += struct.pack("<I", len(records)) + b"".join(records)
    return out + b"".join(_ref_array(a) for a in tail)


def _ref_compressed(cm):
    def record(nd):
        ch = nd.children if nd.children is not None else np.empty(0, np.int64)
        return (struct.pack("<B", nd.children is not None)
                + b"".join(_ref_array(a) for a in (ch, nd.skel, nd.skel,
                                                   nd.D, nd.L, nd.R)))
    return _ref_container(1, cm.scalar_field, cm.n, cm.eps, cm.perm,
                          [[record(nd) for nd in lv.nodes] for lv in cm.levels], [cm.S])


def _ref_factored(fi):
    levels = [[b"".join(_ref_array(a) for a in (fn.Dd, fn.Ld, fn.Rd)) for fn in lv.nodes]
              for lv in fi.levels]
    lu, piv = fi.S_lu
    return _ref_container(2, fi.scalar_field, fi.n, 0.0, fi.perm, levels,
                          [lu, piv.astype(np.int64)])


@pytest.mark.parametrize("case", ["real", "complex", "no_levels", "empty_top"])
def test_containers_follow_the_readme_layout(case):
    # byte for byte against an encoder written from README's layout with
    # struct and tobytes: a writer that drops or reorders a record on both
    # the writing and the reading side fails here, not in a round trip
    if case == "empty_top":
        cm = rank_zero_two_level()[0]
        assert cm.nlevels == 2 and cm.S.shape == (0, 0)
    elif case == "no_levels":
        pts = circle_points(40)
        cm = compress(LAPLACE2, pts, build_tree(pts, 64), 1e-9)
        assert cm.nlevels == 0
    else:
        spec = LAPLACE2 if case == "real" else KernelSpec("helmholtz", 2, wavenumber=10.0)
        cm = bie.compress_system(bie.discretize_dirichlet(bie.circle(1.0, 512), spec),
                                 1e-9, 16)[1]
        assert cm.nlevels >= 2 and cm.scalar_field == case
    fi = factor(cm)
    assert serialize_compressed(cm) == _ref_compressed(cm)
    assert serialize_factored(fi) == _ref_factored(fi)


def _reference_sweep(levels, top, perm, x):
    """The telescoping sweep as first written: each product a new array,
    copied into place by offset."""
    dtype = np.result_type(levels[0].blocks[0][1].dtype, x.dtype)
    u = x.reshape(x.shape[0], -1).astype(dtype)[perm]
    us = []
    for lv in levels:
        us.append(u)
        nxt = np.empty((lv.K, u.shape[1]), dtype=dtype)
        for a, (up, _, _) in enumerate(lv.blocks):
            if up.shape[0]:
                nxt[lv.k_off[a]:lv.k_off[a + 1]] = up @ u[lv.dof_off[a]:lv.dof_off[a + 1]]
        u = nxt
    v = top(u)
    for lv in reversed(levels):
        u = us.pop()
        w = np.empty((lv.dof_off[-1], u.shape[1]), dtype=dtype)
        for a, (_, diag, down) in enumerate(lv.blocks):
            seg = diag @ u[lv.dof_off[a]:lv.dof_off[a + 1]]
            if down.shape[1]:
                seg = seg + down @ v[lv.k_off[a]:lv.k_off[a + 1]]
            w[lv.dof_off[a]:lv.dof_off[a + 1]] = seg
        v = w
    out = np.empty_like(v)
    out[perm] = v
    return out.reshape(x.shape)


@pytest.mark.parametrize("spec", [LAPLACE2, KernelSpec("helmholtz", 2, wavenumber=10.0)],
                         ids=["laplace", "helmholtz"])
@pytest.mark.parametrize("shape", [(512,), (512, 16)], ids=["vector", "block"])
@pytest.mark.parametrize("cplx", [False, True], ids=["real_x", "complex_x"])
def test_sweeps_write_the_reference_bytes(spec, shape, cplx):
    # apply and solve write each product straight into its output slice:
    # the bytes of the plain sweep
    system = bie.discretize_dirichlet(bie.circle(1.0, 512), spec)
    cm = bie.compress_system(system, 1e-9, 16)[1]
    fi = factor(cm)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if cplx else 0)
    want = _reference_sweep(cm.levels, lambda u: cm.S @ u, cm.perm, x)
    assert apply(cm, x).tobytes() == want.tobytes()
    want = _reference_sweep(fi.levels, lambda u: lu_solve(fi.S_lu, u), fi.perm, x)
    assert solve(fi, x).tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(10,), (10, 3)], ids=["vector", "block"])
def test_sweeps_write_the_reference_bytes_at_one_skeleton_nodes(shape):
    # complex nodes that keep one skeleton each: an L of one column against
    # a complex input is where np.dot(..., out=) leaves the bits of ``@``
    rng = np.random.default_rng(7)

    def cplx(*s):
        return rng.standard_normal(s) + 1j * rng.standard_normal(s)

    nodes = []
    for lo in (0, 5):
        R = cplx(1, 5)
        R[0, 0] = 1
        nodes.append(CompressedNode(np.array([lo]), cplx(5, 5), R.T, R, None))
    cm = CompressedMatrix(levels=[Level(nodes)], S=cplx(2, 2), n=10, eps=1e-6,
                          perm=np.arange(10), scalar_field="complex")
    fi = factor(cm)
    x = cplx(*shape)
    want = _reference_sweep(cm.levels, lambda u: cm.S @ u, cm.perm, x)
    assert apply(cm, x).tobytes() == want.tobytes()
    want = _reference_sweep(fi.levels, lambda u: lu_solve(fi.S_lu, u), fi.perm, x)
    assert solve(fi, x).tobytes() == want.tobytes()


def test_default_3d_cube_compresses_to_a_factorable_matrix():
    # default settings once sent these tall proxy blocks through the sketched
    # ID and re-ran the shorter side's QR, leaving a 341x334 Lambda block
    pts = PointSet(np.random.default_rng(0).uniform(size=(4096, 3)))
    cm = compress(KernelSpec("laplace", 3), pts, build_tree(pts), 1e-6)
    for lv in cm.levels:
        for nd in lv.nodes:
            assert nd.L.shape[1] == nd.R.shape[0] == nd.k
    fi = factor(cm)
    b = np.random.default_rng(1).standard_normal(4096)
    x = solve(fi, b)
    assert np.linalg.norm(apply(cm, x) - b) <= 100 * 1e-6 * np.linalg.norm(b)


def test_sphere_8192_backward_error():
    # inverting each node's D on its own, then R D^-1 L, left a backward
    # error of 1.35e-9 here; one LU of [[D, L], [R, 0]] per node gave 6.5e-13,
    # and its elimination form, one LU of N^T D N per node, gives 3.2e-13.
    # Spheres of 2048 and 4096 points do not show the loss
    pts = PointSet(fibonacci_sphere(8192))
    cm = compress(KernelSpec("laplace", 3), pts, build_tree(pts), 1e-6)
    fi = factor(cm)
    b = np.random.default_rng(0).standard_normal(8192)
    x = solve(fi, b)
    assert np.linalg.norm(apply(cm, x) - b) <= 1e-11 * np.linalg.norm(b)


@pytest.mark.parametrize("seed", [1, 2])
def test_one_point_leaf_factors(seed):
    # these clouds have a 1-point leaf whose D is [[0]] and whose one point is
    # its skeleton; factoring it once raised SingularBlock.  Its bordered block
    # [[0, 1], [1, 0]] is invertible, and the leaf keeps its one DOF, so it
    # takes no LU at all
    pts = PointSet(np.random.default_rng(seed).standard_normal((4096, 2)))
    cm = compress(LAPLACE2, pts, build_tree(pts), 1e-6)
    assert any(nd.D.shape == (1, 1) and nd.D[0, 0] == 0 and nd.k == 1
               for nd in cm.levels[0].nodes)
    fi = factor(cm)
    b = np.random.default_rng(3).standard_normal(4096)
    x = solve(fi, b)
    assert np.linalg.norm(apply(cm, x) - b) <= 1e-8 * np.linalg.norm(b)


@cache
def _containers():
    pts = circle_points(120)
    cm = compress(LAPLACE2, pts, build_tree(pts, 16), 1e-3)
    assert cm.nlevels >= 2
    return {"compressed": (serialize_compressed(cm), deserialize_compressed,
                           serialize_compressed),
            "factored": (serialize_factored(factor(cm)), deserialize_factored,
                         serialize_factored)}


@pytest.mark.parametrize("kind", ["compressed", "factored"])
@settings(max_examples=80, deadline=None)
@given(cut=st.floats(0, 1, exclude_max=True),
       # flips land in the 38-byte container and permutation headers half
       # the time, anywhere in the container otherwise
       flips=st.lists(st.tuples(st.one_of(st.integers(0, 37), st.integers(38, 10 ** 9)),
                                st.integers(1, 255)), min_size=1, max_size=3))
def test_corrupt_containers_raise_invalid_input(kind, cut, flips):
    blob, read, write = _containers()[kind]
    with pytest.raises(InvalidInput):
        read(blob[:int(cut * len(blob))])
    bad = bytearray(blob)
    for pos, mask in flips:
        bad[pos % len(bad)] ^= mask
    try:
        read(bytes(bad))   # a flip inside array data can still parse
    except InvalidInput:
        pass
    # the reader is exact: reading back and writing again is bit-identical
    assert write(read(blob)) == blob


@pytest.mark.parametrize("kind", ["compressed", "factored"])
def test_complex_block_in_real_container_raises_invalid_input(kind):
    # a complex D (or Dd) block in a real container once parsed, and apply
    # (solve) dropped its imaginary part with only a ComplexWarning
    blob, read, write = _containers()[kind]
    obj = read(blob)
    nd = obj.levels[1].nodes[0]
    if kind == "compressed":
        nd.D = nd.D + 1j
    else:
        nd.Dd = nd.Dd + 1j
    with pytest.raises(InvalidInput):
        read(write(obj))


@pytest.mark.parametrize("corrupt", ["child_out_of_range", "child_dropped",
                                     "flag_at_finest", "flag_missing"])
def test_inconsistent_children_raise_invalid_input(corrupt):
    # well-formed records whose child positions do not describe the levels
    # below once parsed cleanly, and factor then raised IndexError
    cm = deserialize_compressed(_containers()["compressed"][0])
    nd = cm.levels[1].nodes[0]
    if corrupt == "child_out_of_range":
        nd.children[0] = 10 ** 6
    elif corrupt == "child_dropped":
        nd.children = nd.children[1:]
    elif corrupt == "flag_at_finest":
        cm.levels[0].nodes[0].children = np.array([0])
    else:
        nd.children = None
    with pytest.raises(InvalidInput):
        deserialize_compressed(serialize_compressed(cm))


def test_compressed_level1_d_l_row_raises_invalid_input():
    # the compressed-kind twin of the factored level1_dd_ld_row case below:
    # both kinds share one shape check, Level's, and the reader names the level
    cm = deserialize_compressed(_containers()["compressed"][0])
    nd = next(nd for nd in cm.levels[0].nodes if nd.D.size and nd.L.shape[1])
    nd.D, nd.L = nd.D[:-1], nd.L[:-1]
    with pytest.raises(InvalidInput, match=r"level 1, node \d+ has diag"):
        deserialize_compressed(serialize_compressed(cm))


@pytest.mark.parametrize("kind", ["compressed", "factored"])
def test_level_short_of_the_dofs_below_raises_invalid_input(kind):
    # a node that drops one DOF from all three blocks stays square, so only
    # the count chained from N through the levels sees it
    blob, read, write = _containers()[kind]
    obj = read(blob)
    nd = next(nd for nd in obj.levels[0].nodes if nd.blocks[1].size)
    up, diag, down = nd.blocks
    names = ("R", "D", "L") if kind == "compressed" else ("Rd", "Dd", "Ld")
    for name, blk in zip(names, (up[:, :-1], diag[:-1, :-1], down[:-1])):
        setattr(nd, name, blk)
    with pytest.raises(InvalidInput, match=f"level 1 takes {obj.n - 1} DOFs"):
        read(write(obj))


@pytest.mark.parametrize("corrupt", [
    "level2_dd_rd_column", "level1_dd_ld_row", "ld_row", "rd_column",
    "top_not_square", "top_too_small", "pivot_too_large", "pivot_negative"])
def test_inconsistent_factored_shapes_raise_invalid_input(corrupt):
    # well-formed records whose block shapes do not chain: dropping a column
    # of a level-2 Dd and Rd once parsed and solve returned a wrong result
    # with no error; dropping a row of a level-1 Dd and Ld made solve raise
    # ValueError
    fi = deserialize_factored(_containers()["factored"][0])
    level = 0 if corrupt == "level1_dd_ld_row" else 1
    fn = next(fn for fn in fi.levels[level].nodes if fn.Dd.size and fn.Rd.shape[0])
    lu, piv = fi.S_lu
    if corrupt == "level2_dd_rd_column":
        fn.Dd, fn.Rd = fn.Dd[:, :-1], fn.Rd[:, :-1]
    elif corrupt == "level1_dd_ld_row":
        fn.Dd, fn.Ld = fn.Dd[:-1], fn.Ld[:-1]
    elif corrupt == "ld_row":
        fn.Ld = fn.Ld[:-1]
    elif corrupt == "rd_column":
        fn.Rd = fn.Rd[:, :-1]
    elif corrupt == "top_not_square":
        fi.S_lu = (lu[:, :-1], piv)
    elif corrupt == "top_too_small":
        fi.S_lu = (lu[:-1, :-1], piv[:-1])
    elif corrupt == "pivot_too_large":
        fi.S_lu = (lu, np.where(np.arange(piv.size) == 0, piv.size, piv))
    else:
        fi.S_lu = (lu, np.where(np.arange(piv.size) == 0, -1, piv))
    with pytest.raises(InvalidInput):
        deserialize_factored(serialize_factored(fi))


def _quadratic_embedding_blocks(cm):
    """Reference: the embedding's labeled blocks as they were once built,
    each node's nonzeros concatenated onto its label's arrays in turn."""
    blocks = {}

    def add(label, r0, c0, B):
        nz = np.nonzero(B)
        if len(nz[0]):
            new = (nz[0] + r0, nz[1] + c0, B[nz])
            old = blocks.get(label)
            blocks[label] = new if old is None else tuple(map(np.concatenate, zip(old, new)))

    # one offset list for rows and columns: y(l) and z(l) both have K entries
    off = [0, cm.n]
    for lv in cm.levels:
        off += [off[-1] + lv.K, off[-1] + 2 * lv.K]
    for li, lv in enumerate(cm.levels):
        dl = 0 if li == 0 else off[2 * li]
        y, z = off[2 * li + 1], off[2 * li + 2]
        for a, nd in enumerate(lv.nodes):
            add(f"D{li + 1}", dl + lv.dof_off[a], dl + lv.dof_off[a], nd.D)
            add(f"L{li + 1}", dl + lv.dof_off[a], y + lv.k_off[a], nd.L)
            add(f"R{li + 1}", y + lv.k_off[a], dl + lv.dof_off[a], nd.R)
        idx = np.arange(lv.K)
        blocks[f"I:z{li + 1}"] = (y + idx, z + idx, np.full(lv.K, -1.0, cm.dtype))
        blocks[f"I:y{li + 1}"] = (z + idx, y + idx, np.full(lv.K, -1.0, cm.dtype))
    add("S", off[2 * cm.nlevels], off[2 * cm.nlevels], cm.S)
    return blocks


@pytest.mark.parametrize("case", ["square", "helmholtz_bie"])
def test_embedding_matches_quadratic_assembly(case, tmp_path):
    # one concatenation per label: same entries, same order, same file bytes
    if case == "square":
        pts = PointSet(np.random.default_rng(0).random((512, 2)))
        cm = compress(LAPLACE2, pts, build_tree(pts, 16), 1e-6)
    else:
        system = bie.discretize_dirichlet(bie.ellipse(2.0, 1.0, 512),
                                          KernelSpec("helmholtz", 2, wavenumber=10.0))
        cm = bie.compress_system(system, 1e-8, 16)[1]
    assert cm.nlevels >= 3
    se = assemble_embedding(cm)
    ref = _quadratic_embedding_blocks(cm)
    assert list(se.blocks) == list(ref)
    ref_se = type(se)(m=se.m, n=se.n, dtype=se.dtype, blocks=ref, perm=se.perm)
    for got, want in zip(se.to_coo(), ref_se.to_coo(), strict=True):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    export_matrix_market(se, tmp_path / "new.mtx")
    export_matrix_market(ref_se, tmp_path / "ref.mtx")
    assert (tmp_path / "new.mtx").read_bytes() == (tmp_path / "ref.mtx").read_bytes()


def _splu_solve(cm, B):
    """Solve with the sparse embedding of ``cm`` through SuperLU: an oracle
    for ``factor`` and ``solve`` that shares none of their code."""
    se = assemble_embedding(cm)
    rows, cols, vals = se.to_coo()
    lu = splu(csc_matrix((vals, (rows, cols)), shape=(se.m, se.m)))
    return se.extract_x(lu.solve(se.rhs(B)))


def test_factor_matches_sparse_lu_of_the_embedding():
    system = bie.discretize_dirichlet(bie.ellipse(2.0, 1.0, 16384), LAPLACE2)
    cm = bie.compress_system(system, 1e-9)[1]
    assert cm.n > DENSE_ORACLE_LIMIT
    B = np.random.default_rng(0).standard_normal((cm.n, 3))
    X = solve(factor(cm), B)
    ref = _splu_solve(cm, B)
    err = np.linalg.norm(X - ref, axis=0) / np.linalg.norm(ref, axis=0)
    assert err.max() <= 1e-12


def _holds_transpose(a, b):
    """Whether ``a`` is ``b.T``: a view of b's own buffer, strides reversed."""
    return a.base is b and a.shape == b.shape[::-1] and a.strides == b.strides[::-1]


@pytest.mark.parametrize("case", ["cube", "ellipse_bie"])
def test_ld_is_a_view_of_rd_for_a_symmetric_matrix(case):
    # the 3D Laplace volume matrix is symmetric, so every Ld is Rd^T, held
    # as a view; the ellipse BIE is not, and each node it eliminates keeps
    # an Ld of its own.  Either way a node that keeps every DOF has Ld = Rd^T
    cm = _pass_through_case(case)
    fi = factor(cm)
    eliminated = 0
    for flv in fi.levels:
        for fn in flv.nodes:
            if case == "cube" or fn.Rd.shape[0] == fn.Dd.shape[0]:
                assert _holds_transpose(fn.Ld, fn.Rd) and not fn.Ld.flags.writeable
            else:
                assert not np.shares_memory(fn.Ld, fn.Rd) and fn.Ld.flags.c_contiguous
            eliminated += fn.Rd.shape[0] < fn.Dd.shape[0]
    assert eliminated >= 8


def _square_2048():
    pts = PointSet(np.random.default_rng(201).random((2048, 2)))
    return compress(LAPLACE2, pts, build_tree(pts), 1e-6)


@pytest.mark.parametrize("case", ["square", "ellipse_bie"])
def test_a_loaded_matrix_factors_and_solves_bit_for_bit(case):
    # the readers hold L as R^T and Ld as Rd^T as compress and factor did,
    # and factor decides symmetry from the matrix alone: the loaded matrix's
    # inverse is the same, in bytes and in the memory order of its blocks
    cm = _square_2048() if case == "square" else _pass_through_case(case)
    fi = factor(cm)
    loaded = factor(deserialize_compressed(serialize_compressed(cm)))
    assert serialize_factored(loaded) == serialize_factored(fi)
    for lv, lv2 in zip(fi.levels, loaded.levels, strict=True):
        for fn, fn2 in zip(lv.nodes, lv2.nodes, strict=True):
            assert _holds_transpose(fn.Ld, fn.Rd) == _holds_transpose(fn2.Ld, fn2.Rd)
    again = deserialize_factored(serialize_factored(fi))
    rng = np.random.default_rng(5)
    for shape in ((cm.n,), (cm.n, 16)):
        x = rng.standard_normal(shape)
        for b in (x, x + 1j * rng.standard_normal(shape)):
            want = solve(fi, b).tobytes()
            assert solve(loaded, b).tobytes() == want and solve(again, b).tobytes() == want


def test_serialize_factored_holds_no_second_copy():
    # the column-major top LU and the transposed Ld views are written
    # straight into the container: one call once held a row-major copy of
    # the top beside the joined container
    fi = factor(_pass_through_case("cube"))
    tracemalloc.start()
    try:
        blob = serialize_factored(fi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blob) > 30e6
    assert peak <= 1.05 * len(blob)
