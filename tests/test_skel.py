import numpy as np
import pytest

from skelkit.errors import InvalidInput, RefusedTooLarge
from skelkit.geom import PointSet, TreeNode, build_tree
from skelkit.kernels import KernelSpec, eval_block
from skelkit.skel import (CompressedMatrix, CompressedNode, Level,
                          ProxyConfig, apply, compress, deserialize_compressed,
                          proxy_points, serialize_compressed)


def circle_points(n, radius=1.0):
    th = 2 * np.pi * np.arange(n) / n
    return PointSet(radius * np.column_stack([np.cos(th), np.sin(th)]))


def square_points(n, seed=0):
    return PointSet(np.random.default_rng(seed).random((n, 2)))


def dense_matrix(spec, pts):
    return eval_block(spec, pts, pts)


LAPLACE2 = KernelSpec("laplace", 2)


class TestProxyPoints:
    def test_four_point_circle(self):
        box = TreeNode(center=np.zeros(2), halfwidth=0.5, lo=0, hi=0, depth=0)
        ps = proxy_points(box, ProxyConfig(n_proxy=8), 2)
        r = 3 * 0.5 * np.sqrt(2)
        # first four of eight equispaced points sit at multiples of pi/4
        np.testing.assert_allclose(ps.coords[0], [r, 0], atol=1e-14)
        np.testing.assert_allclose(ps.coords[2], [0, r], atol=1e-14)
        np.testing.assert_allclose(ps.coords[4], [-r, 0], atol=1e-14)
        np.testing.assert_allclose(ps.coords[6], [0, -r], atol=1e-14)

    def test_equidistant_from_center(self):
        for dim in (2, 3):
            box = TreeNode(center=0.3 * np.ones(dim), halfwidth=0.7, lo=0, hi=0, depth=0)
            cfg = ProxyConfig(n_proxy=40, radius_factor=1.3)
            ps = proxy_points(box, cfg, dim)
            r = np.linalg.norm(ps.coords - box.center, axis=1)
            expect = 1.3 * 3 * 0.7 * np.sqrt(dim)
            assert np.all(np.abs(r - expect) < 1e-12)

    def test_min_count_enforced(self):
        box = TreeNode(center=np.zeros(3), halfwidth=1.0, lo=0, hi=0, depth=0)
        with pytest.raises(InvalidInput):
            proxy_points(box, ProxyConfig(n_proxy=16), 3)

    def test_doubling_proxy_count_keeps_accuracy(self):
        pts = circle_points(1024)
        tree = build_tree(pts, 64)
        x = np.random.default_rng(0).standard_normal(1024)
        ref = dense_matrix(LAPLACE2, pts) @ x
        errs = []
        for npx in (64, 128):
            cm = compress(LAPLACE2, pts, tree, 1e-6, ProxyConfig(n_proxy=npx))
            errs.append(np.linalg.norm(apply(cm, x) - ref) / np.linalg.norm(ref))
        assert errs[1] <= 2 * errs[0] + 1e-15


def test_single_block_degenerate():
    pts = circle_points(40)
    tree = build_tree(pts, 64)  # one leaf: no hierarchy
    cm = compress(LAPLACE2, pts, tree, 1e-9)
    assert cm.nlevels == 0
    dense = dense_matrix(LAPLACE2, pts)
    x = np.random.default_rng(1).standard_normal(40)
    np.testing.assert_allclose(apply(cm, x), dense @ x, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(cm.S, dense[np.ix_(cm.perm, cm.perm)])


def test_apply_matches_dense_circle():
    pts = circle_points(512)
    tree = build_tree(pts, 64)
    cm = compress(LAPLACE2, pts, tree, 1e-9)
    dense = dense_matrix(LAPLACE2, pts)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(512)
    err = np.linalg.norm(apply(cm, x) - dense @ x) / np.linalg.norm(dense @ x)
    assert err <= 1e-7


def test_apply_zero_and_linearity():
    pts = circle_points(256)
    tree = build_tree(pts, 32)
    cm = compress(LAPLACE2, pts, tree, 1e-6)
    assert np.all(apply(cm, np.zeros(256)) == 0.0)
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal(256), rng.standard_normal(256)
    alpha = 1.7
    lhs = apply(cm, x + alpha * y)
    rhs = apply(cm, x) + alpha * apply(cm, y)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) <= 1e-13


def test_apply_length_mismatch():
    pts = circle_points(64)
    # with levels, and a single leaf without any
    for tree in (build_tree(pts, 16), build_tree(pts, 64)):
        cm = compress(LAPLACE2, pts, tree, 1e-6)
        for x in (np.zeros(65), np.zeros(63), np.zeros((65, 3))):
            with pytest.raises(InvalidInput, match="length mismatch"):
                apply(cm, x)


def test_level_conformance_invariant():
    # column skeletons at level l == sum of block sizes at level l+1, exactly
    pts = square_points(2048, seed=5)
    tree = build_tree(pts, 64)
    cm = compress(LAPLACE2, pts, tree, 1e-6)
    assert cm.nlevels >= 2
    for lv, nxt in zip(cm.levels, cm.levels[1:]):
        assert lv.K_c == int(nxt.col_dof_off[-1])
        assert lv.K_r == int(nxt.row_dof_off[-1])
    assert cm.levels[-1].K_r == cm.S.shape[0]
    assert cm.levels[-1].K_c == cm.S.shape[1]


def test_square_8192_five_levels_decreasing_skeletons():
    pts = square_points(8192, seed=0)
    tree = build_tree(pts, 64)
    assert tree.depth == 5  # 5-level quadtree at this occupancy
    cm = compress(LAPLACE2, pts, tree, 1e-3)
    totals = [k[1] for k in cm.skeleton_counts()]
    assert all(a > b for a, b in zip(totals, totals[1:]))
    assert totals[0] < 8192

    # sparsification is geometric: survivors crowd the block boundaries, so
    # their mean distance to the box edge shrinks relative to all points
    coords = pts.coords[tree.perm]

    def mean_edge_distance(level):
        dists_all, dists_skel = [], []
        for a, nid in enumerate(tree.levels[level]):
            nd = tree.nodes[nid]
            for sel, acc in ((np.arange(nd.lo, nd.hi), dists_all),
                             (cm.levels[level].nodes[a].col_skel, dists_skel)):
                if len(sel) == 0:
                    continue
                rel = np.abs(coords[sel] - nd.center)
                acc.extend(nd.halfwidth - rel.max(axis=1))
        return np.mean(dists_all), np.mean(dists_skel)

    all_d, skel_d = mean_edge_distance(1)
    assert skel_d < 0.8 * all_d


def test_circle_1024_skeleton_band():
    pts = circle_points(1024)
    tree = build_tree(pts, 64)
    cm = compress(LAPLACE2, pts, tree, 1e-9)
    assert 47 <= cm.S.shape[0] <= 188  # factor-2 band around 94


def test_proxy_vs_global_agreement():
    pts = circle_points(1024)
    tree = build_tree(pts, 64)
    eps = 1e-9
    cm_p = compress(LAPLACE2, pts, tree, eps, mode="proxy")
    cm_g = compress(LAPLACE2, pts, tree, eps, mode="global")
    x = np.random.default_rng(3).standard_normal(1024)
    yp, yg = apply(cm_p, x), apply(cm_g, x)
    assert np.linalg.norm(yp - yg) / np.linalg.norm(yg) <= 10 * eps


def test_global_mode_size_guard(monkeypatch):
    import skelkit.skel as skel_mod
    monkeypatch.setattr(skel_mod, "GLOBAL_MODE_LIMIT", 400)
    pts = circle_points(512)
    tree = build_tree(pts, 64)
    with pytest.raises(RefusedTooLarge):
        compress(LAPLACE2, pts, tree, 1e-6, mode="global")
    # override flag forces the quadratic path
    cm = compress(LAPLACE2, pts, tree, 1e-6, mode="global", allow_large=True)
    assert cm.n == 512


def test_eps_validation():
    pts = circle_points(64)
    tree = build_tree(pts, 16)
    for bad in (0.0, 1.0, -1e-3, 2.0):
        with pytest.raises(InvalidInput):
            compress(LAPLACE2, pts, tree, bad)


def test_compress_deterministic():
    pts = circle_points(512)
    tree = build_tree(pts, 64)
    cm1 = compress(LAPLACE2, pts, tree, 1e-6, seed=0)
    cm2 = compress(LAPLACE2, pts, tree, 1e-6, seed=0)
    assert np.array_equal(cm1.S, cm2.S)
    x = np.random.default_rng(0).standard_normal(512)
    assert np.array_equal(apply(cm1, x), apply(cm2, x))


def test_threaded_compression_matches_serial(monkeypatch):
    pts = square_points(1024, seed=2)
    tree = build_tree(pts, 64)
    cm1 = compress(LAPLACE2, pts, tree, 1e-6)
    monkeypatch.setenv("SKELKIT_THREADS", "4")
    cm2 = compress(LAPLACE2, pts, tree, 1e-6)
    assert np.array_equal(cm1.S, cm2.S)
    for l1, l2 in zip(cm1.levels, cm2.levels):
        for n1, n2 in zip(l1.nodes, l2.nodes):
            assert np.array_equal(n1.D, n2.D)
            assert np.array_equal(n1.L, n2.L)
            assert np.array_equal(n1.R, n2.R)


def test_helmholtz_complex_apply():
    spec = KernelSpec("helmholtz", 2, wavenumber=6.0)
    pts = circle_points(512)
    tree = build_tree(pts, 64)
    cm = compress(spec, pts, tree, 1e-6)
    assert cm.scalar_field == "complex"
    dense = dense_matrix(spec, pts)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    err = np.linalg.norm(apply(cm, x) - dense @ x) / np.linalg.norm(dense @ x)
    assert err <= 100 * 1e-6


def test_apply_accuracy_all_kernels():
    cases = [
        (KernelSpec("laplace", 2), circle_points(600), 1e-9),
        (KernelSpec("laplace", 2, "double"), None, 1e-9),   # filled below
        (KernelSpec("helmholtz", 2, wavenumber=4.0), circle_points(600), 1e-8),
    ]
    th = 2 * np.pi * np.arange(600) / 600
    xy = np.column_stack([np.cos(th), np.sin(th)])
    cases[1] = (cases[1][0], PointSet(xy, xy), 1e-9)
    for spec, pts, eps in cases:
        tree = build_tree(pts, 64)
        cm = compress(spec, pts, tree, eps)
        dense = eval_block(spec, pts, pts)
        x = np.random.default_rng(0).standard_normal(600)
        err = np.linalg.norm(apply(cm, x) - dense @ x) / np.linalg.norm(dense @ x)
        assert err <= 100 * eps, (spec, err)


def test_apply_accuracy_3d():
    # 3D sphere surface with radial normals; modest eps so the default
    # 512-point proxy sphere has headroom (see ProxyConfig docs)
    i = np.arange(800) + 0.5
    z = 1 - 2 * i / 800
    rho = np.sqrt(1 - z ** 2)
    th = np.pi * (3 - np.sqrt(5.0)) * i
    xyz = np.column_stack([rho * np.cos(th), rho * np.sin(th), z])
    for spec, pts in [
        (KernelSpec("laplace", 3), PointSet(xyz)),
        (KernelSpec("laplace", 3, "double"), PointSet(xyz, xyz)),
        (KernelSpec("helmholtz", 3, wavenumber=2.0), PointSet(xyz)),
    ]:
        tree = build_tree(pts, 128)
        cm = compress(spec, pts, tree, 1e-6)
        dense = eval_block(spec, pts, pts)
        x = np.random.default_rng(1).standard_normal(800)
        err = np.linalg.norm(apply(cm, x) - dense @ x) / np.linalg.norm(dense @ x)
        assert err <= 100 * 1e-6, (spec, err)


def test_serialization_roundtrip_bit_exact(tmp_path):
    for spec, pts in [(LAPLACE2, circle_points(500)),
                      (KernelSpec("helmholtz", 2, wavenumber=3.0), circle_points(300))]:
        tree = build_tree(pts, 64)
        cm = compress(spec, pts, tree, 1e-6)
        blob = serialize_compressed(cm)
        cm2 = deserialize_compressed(blob)
        assert cm2.n == cm.n and cm2.nlevels == cm.nlevels and cm2.eps == cm.eps
        assert cm2.scalar_field == cm.scalar_field
        assert np.array_equal(cm2.S, cm.S)
        assert np.array_equal(cm2.perm, cm.perm)
        for l1, l2 in zip(cm.levels, cm2.levels):
            for n1, n2 in zip(l1.nodes, l2.nodes):
                assert np.array_equal(n1.D, n2.D)
                assert np.array_equal(n1.L, n2.L)
                assert np.array_equal(n1.R, n2.R)
                assert np.array_equal(n1.row_skel, n2.row_skel)
                assert np.array_equal(n1.col_skel, n2.col_skel)
        # a loaded matrix applies identically (bit-exact round trip)
        x = np.random.default_rng(0).standard_normal(cm.n)
        if cm.scalar_field == "complex":
            x = x + 0j
        assert np.array_equal(apply(cm, x), apply(cm2, x))
        assert serialize_compressed(cm2) == blob


def test_storage_growth_subquadratic():
    sizes = [1024, 2048, 4096, 8192, 16384]
    storages = []
    for n in sizes:
        pts = circle_points(n)
        cm = compress(LAPLACE2, pts, build_tree(pts, 64), 1e-9)
        storages.append(cm.storage_bytes())
    for a, b in zip(storages, storages[1:]):
        assert b / a <= 2.5


def test_synthetic_compressed_matrix_apply():
    # hand-built one-level block-separable matrix: apply must equal
    # D + L S R exactly (pure block algebra, no kernel involved)
    rng = np.random.default_rng(7)
    n1, n2, k = 6, 5, 2
    D1, D2 = rng.standard_normal((n1, n1)), rng.standard_normal((n2, n2))
    L1, L2 = rng.standard_normal((n1, k)), rng.standard_normal((n2, k))
    R1, R2 = rng.standard_normal((k, n1)), rng.standard_normal((k, n2))
    S = np.zeros((2 * k, 2 * k))
    S[:k, k:] = rng.standard_normal((k, k))
    S[k:, :k] = rng.standard_normal((k, k))
    nodes = [
        CompressedNode(np.arange(0, k), np.arange(0, k), D1, L1, R1, None),
        CompressedNode(np.arange(n1, n1 + k), np.arange(n1, n1 + k), D2, L2, R2, None),
    ]
    cm = CompressedMatrix(levels=[Level(nodes)], S=S, n=n1 + n2,
                          eps=1e-15, perm=np.arange(n1 + n2), scalar_field="real")
    Afull = np.zeros((n1 + n2, n1 + n2))
    Afull[:n1, :n1] = D1
    Afull[n1:, n1:] = D2
    Afull[:n1, n1:] = L1 @ S[:k, k:] @ R2
    Afull[n1:, :n1] = L2 @ S[k:, :k] @ R1
    x = rng.standard_normal(n1 + n2)
    np.testing.assert_allclose(apply(cm, x), Afull @ x, rtol=1e-13)


def test_far_separated_clusters():
    # isolated boxes have no same-level neighbors; compression must handle
    # empty neighbor blocks (and chains of single-child boxes)
    rng = np.random.default_rng(0)
    pts = PointSet(np.vstack([rng.random((100, 2)),
                              rng.random((100, 2)) + 60.0]))
    tree = build_tree(pts, 16)
    cm = compress(LAPLACE2, pts, tree, 1e-9)
    dense = eval_block(LAPLACE2, pts, pts)
    x = rng.standard_normal(200)
    err = np.linalg.norm(apply(cm, x) - dense @ x) / np.linalg.norm(dense @ x)
    assert err <= 1e-7


def test_global_mode_short_sketch_is_equalized(monkeypatch):
    # every other sketched ID runs at a coarse eps, so its sketch has fewer
    # rows than its partner's rank: that side is recomputed deterministically
    # at min_rank=k, and where its own rank then exceeds k the partner is cut
    # again, so both still come out at one common k
    from skelkit import lowrank, skel
    calls = []

    def sketch(A, eps, seed=0):
        calls.append(1)
        return lowrank.id_randomized(A, 1e-2 if len(calls) % 2 else eps, seed=seed)

    reruns = []

    def deterministic(A, eps, min_rank=0):
        idp = lowrank.id_fixed_precision(A, eps, min_rank=min_rank)
        if min_rank:
            reruns.append((min_rank, idp.rank))
        return idp

    monkeypatch.setattr(skel, "_RANDOMIZED_CUTOFF", 0)
    monkeypatch.setattr(skel, "id_randomized", sketch)
    monkeypatch.setattr(skel, "id_fixed_precision", deterministic)
    pts = square_points(800, seed=5)
    cm = compress(LAPLACE2, pts, build_tree(pts, 64), 1e-8, mode="global")
    assert calls and reruns
    assert any(rank > k for k, rank in reruns)
    for lv in cm.levels:
        for nd in lv.nodes:
            assert nd.k_r == nd.k_c == nd.L.shape[1] == nd.R.shape[0]
    dense = dense_matrix(LAPLACE2, pts)
    x = np.random.default_rng(2).standard_normal(800)
    err = np.linalg.norm(apply(cm, x) - dense @ x) / np.linalg.norm(dense @ x)
    assert err <= 100 * 1e-8
