import struct
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from skelkit import bie, geom, lowrank, skel
from skelkit.errors import AccuracyWarning, InvalidInput, RefusedTooLarge
from skelkit.geom import PointSet, TreeNode, build_tree, level_neighbors
from skelkit.kernels import KernelSpec, eval_block
from skelkit.skel import (CompressedMatrix, CompressedNode, KernelSource, Level,
                          ProxyConfig, apply, compress, compress_source,
                          deserialize_compressed, proxy_points, serialize_compressed)
from test_geom import assert_neighbours_match_all_pairs


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

    @pytest.mark.parametrize("n_proxy", [64.5, 64.0, "64"])
    def test_non_integer_count_rejected(self, n_proxy):
        # 64.5 would give 65 unevenly spaced points
        with pytest.raises(InvalidInput, match="integer"):
            ProxyConfig(n_proxy=n_proxy).resolve(2)

    @pytest.mark.parametrize("factor", [0.0, -1.0, np.nan, np.inf, None, True])
    def test_degenerate_radius_rejected(self, factor):
        # radius 0 stacks every proxy point at the box centre, which costs
        # an order of magnitude of accuracy without a word
        pts = square_points(256)
        with pytest.raises(InvalidInput, match="radius_factor"):
            compress(LAPLACE2, pts, build_tree(pts, 64), 1e-6,
                     ProxyConfig(radius_factor=factor))

    def test_numpy_integer_count_accepted(self):
        assert ProxyConfig(n_proxy=np.int64(40)).resolve(3).n_proxy == 40

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
    # skeletons at level l == sum of block sizes at level l+1, exactly
    pts = square_points(2048, seed=5)
    tree = build_tree(pts, 64)
    cm = compress(LAPLACE2, pts, tree, 1e-6)
    assert cm.nlevels >= 2
    for lv, nxt in zip(cm.levels, cm.levels[1:]):
        assert lv.K == int(nxt.dof_off[-1])
    assert cm.S.shape == (cm.levels[-1].K, cm.levels[-1].K)


def test_square_8192_five_levels_decreasing_skeletons():
    pts = square_points(8192, seed=0)
    tree = build_tree(pts, 64)
    assert tree.depth == 5  # 5-level quadtree at this occupancy
    cm = compress(LAPLACE2, pts, tree, 1e-3)
    totals = cm.skeleton_counts()
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
                             (cm.levels[level].nodes[a].skel, dists_skel)):
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
    cm1 = compress(LAPLACE2, pts, tree, 1e-6)
    cm2 = compress(LAPLACE2, pts, tree, 1e-6)
    assert np.array_equal(cm1.S, cm2.S)
    x = np.random.default_rng(0).standard_normal(512)
    assert np.array_equal(apply(cm1, x), apply(cm2, x))


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
                assert np.array_equal(n1.skel, n2.skel)
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
        CompressedNode(np.arange(0, k), D1, L1, R1, None),
        CompressedNode(np.arange(n1, n1 + k), D2, L2, R2, None),
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


def test_global_mode_equal_ranks_and_accuracy():
    pts = square_points(800, seed=5)
    cm = compress(LAPLACE2, pts, build_tree(pts, 64), 1e-8, mode="global")
    for lv in cm.levels:
        for nd in lv.nodes:
            assert nd.k == nd.L.shape[1] == nd.R.shape[0]
    dense = dense_matrix(LAPLACE2, pts)
    x = np.random.default_rng(2).standard_normal(800)
    err = np.linalg.norm(apply(cm, x) - dense @ x) / np.linalg.norm(dense @ x)
    assert err <= 100 * 1e-8


@pytest.mark.parametrize("case", ["laplace2d", "helmholtz2d", "laplace3d", "global2d"])
def test_symmetric_shortcut_is_bit_identical(case):
    # a symmetric source's row target transposed repeats its column target,
    # so the shortcut factors the column half alone; the joint ID of both
    # halves picks the same skeleton at every node and the same S, and both
    # paths give L = R^T bit for bit.  Only the interpolants' last bits
    # differ: the two apply errors agreed to 1.3e-16 when this was written.
    dim = 3 if case == "laplace3d" else 2
    spec = {"laplace2d": LAPLACE2, "global2d": LAPLACE2, "laplace3d": KernelSpec("laplace", 3),
            "helmholtz2d": KernelSpec("helmholtz", 2, wavenumber=20.0)}[case]
    n = 1024 if case == "laplace3d" else 2048
    pts = PointSet(np.random.default_rng(7).random((n, dim)))
    tree = build_tree(pts)
    mode = "global" if case == "global2d" else "proxy"
    source = KernelSource(spec, pts, tree.perm)
    assert source.symmetric
    one = compress_source(source, tree, 1e-6, mode=mode)
    source.symmetric = False
    joint = compress_source(source, tree, 1e-6, mode=mode)
    assert len(one.levels) >= 2 and len(one.levels[-1].nodes) > 1
    for lv, lv_joint in zip(one.levels, joint.levels, strict=True):
        for nd, nd_joint in zip(lv.nodes, lv_joint.nodes, strict=True):
            assert np.array_equal(nd.skel, nd_joint.skel)
            for m in (nd, nd_joint):
                assert np.array_equal(m.L, m.R.T)
    assert np.array_equal(one.S, one.S.T) and np.array_equal(one.S, joint.S)
    dense = dense_matrix(spec, pts)
    x = np.random.default_rng(1).standard_normal(n)
    errs = [np.linalg.norm(apply(cm, x) - dense @ x) / np.linalg.norm(dense @ x)
            for cm in (one, joint)]
    assert errs[0] <= 100 * 1e-6
    assert abs(errs[0] - errs[1]) <= 1e-15


def _gram_route_shapes(monkeypatch):
    """Install a recorder on ``lowrank.id_gram``, the name through which
    ``lowrank._target_id`` calls it: the (m, n) shape of the target of each
    Gram-route ID, its row blocks stacked."""
    shapes, real_gram = [], lowrank.id_gram

    def recording_gram(halves, eps):
        halves = [list(h) for h in halves]
        blocks = [X for h in halves for X in h]
        shapes.append((sum(X.shape[0] for X in blocks), blocks[0].shape[1]))
        return real_gram(halves, eps)

    monkeypatch.setattr(lowrank, "id_gram", recording_gram)
    return shapes


def test_tall_qr_first_keeps_cube_skeletons(monkeypatch):
    # the largest ID targets of a 3D cube are tall.  At eps 1e-6 their IDs,
    # and those of the tall targets down to 64 columns, are read off Gram
    # matrices; at 1e-7, below the Gram route's floor, they take geqrf
    # before geqp3.
    # Either way plain geqp3 everywhere must pick the same skeletons.
    spec = KernelSpec("laplace", 3)
    pts = PointSet(np.random.default_rng(201).random((2048, 3)))
    tree = build_tree(pts)
    dense = dense_matrix(spec, pts)
    x = np.random.default_rng(1).standard_normal(2048)
    shapes, geqrf_calls = [], []
    gram_shapes = _gram_route_shapes(monkeypatch)
    real_qr, real_funcs = lowrank.pivoted_qr, lowrank.get_lapack_funcs

    def counting_qr(A, *args, **kwargs):
        shapes.append(A.shape)
        return real_qr(A, *args, **kwargs)

    def counting_funcs(names, arrays):
        fns = real_funcs(names, arrays)
        return tuple((lambda *a, _f=f, **k: geqrf_calls.append(1) or _f(*a, **k))
                     if nm == "geqrf" else f for nm, f in zip(names, fns))

    monkeypatch.setattr(lowrank, "pivoted_qr", counting_qr)
    monkeypatch.setattr(lowrank, "get_lapack_funcs", counting_funcs)
    for eps in (1e-6, 1e-7):
        for log in (shapes, gram_shapes, geqrf_calls):
            log.clear()
        cm = compress(spec, pts, tree, eps)
        tall = [(m, n) for m, n in shapes + gram_shapes if lowrank._tall(m, n)]
        assert len(shapes) + len(gram_shapes) == sum(len(lv.nodes) for lv in cm.levels)
        assert shapes and len(tall) >= 4
        if eps >= lowrank._GRAM_MIN_EPS:
            assert [s for s in gram_shapes if lowrank._tall(*s)] == tall and not geqrf_calls
            assert all(lowrank._gram_route(m, n, eps) for m, n in gram_shapes)
            assert not any(lowrank._gram_route(m, n, eps) for m, n in shapes)
        else:
            assert not gram_shapes and len(geqrf_calls) == len(tall)

        calls = len(shapes), len(gram_shapes), len(geqrf_calls)
        with monkeypatch.context() as mp:
            mp.setattr(lowrank, "_QR_FIRST_MIN_COLS", 10 ** 9)
            mp.setattr(lowrank, "_GRAM_MIN_COLS", 10 ** 9)
            plain = compress(spec, pts, tree, eps)
        assert len(shapes) == calls[0] + sum(len(lv.nodes) for lv in plain.levels)
        assert (len(gram_shapes), len(geqrf_calls)) == calls[1:]
        for lv, lv_plain in zip(cm.levels, plain.levels, strict=True):
            for nd, nd_plain in zip(lv.nodes, lv_plain.nodes, strict=True):
                assert np.array_equal(nd.skel, nd_plain.skel)

        err = np.linalg.norm(apply(cm, x) - dense @ x) / np.linalg.norm(dense @ x)
        assert err <= 100 * eps


def test_bie_below_the_gram_floor_never_takes_the_route(monkeypatch):
    # with the column bounds lowered, the ellipse BIE's targets are tall; at
    # eps 1e-9, below the floor, they still all go through geqrf and geqp3
    monkeypatch.setattr(lowrank, "_QR_FIRST_MIN_COLS", 16)
    monkeypatch.setattr(lowrank, "_GRAM_MIN_COLS", 16)
    gram_shapes = _gram_route_shapes(monkeypatch)
    shapes, real_id = [], lowrank.id_fixed_precision

    def recording_id(A, eps, **kwargs):
        shapes.append(A.shape)
        return real_id(A, eps, **kwargs)

    monkeypatch.setattr(lowrank, "id_fixed_precision", recording_id)
    system = bie.discretize_dirichlet(bie.ellipse(2.0, 1.0, 4096), LAPLACE2)
    bie.compress_system(system, 1e-9)
    assert not gram_shapes
    assert sum(lowrank._tall(*shape) for shape in shapes) >= 10
    # above the floor the same targets take the route
    bie.compress_system(system, 1e-6)
    assert len(gram_shapes) >= 10


def _carried(tree, li, a, nd):
    """Whether node a of level li is carried: a leaf listed again in that
    cover, its own only child."""
    return li > 0 and tree.levels[li - 1][nd.children[0]] == tree.levels[li][a]


def _compressed_nodes(tree, cm):
    """The nodes of ``cm`` that took IDs: all but the carried ones."""
    return [nd for li, lv in enumerate(cm.levels) for a, nd in enumerate(lv.nodes)
            if not _carried(tree, li, a, nd)]


@pytest.mark.parametrize("symmetric", [True, False], ids=["one_id", "both_halves"])
def test_degraded_interpolation_warns_once_per_compression(symmetric):
    # 2D Helmholtz at k=20 has a few blocks whose |P| exceeds 2; they are
    # counted into one warning that points at the caller.  The symmetric
    # shortcut and the joint ID alike take one ID per node, with L = R^T.
    pts = PointSet(np.random.default_rng(201).random((1024, 2)))
    tree = build_tree(pts)
    source = KernelSource(KernelSpec("helmholtz", 2, wavenumber=20.0), pts, tree.perm)
    source.symmetric = symmetric
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cm = compress_source(source, tree, 1e-6)
    # carried nodes take no ID, so their L = R = I count in no ID block
    maxima = [np.abs(nd.R).max(initial=0.0) for nd in _compressed_nodes(tree, cm)]
    bad = [x for x in maxima if x > 2]
    assert len(bad) >= 2
    assert len(caught) == 1
    w = caught[0]
    assert w.category is AccuracyWarning and w.filename == __file__
    assert (f"exceed 2 in {len(bad)} of {len(maxima)} ID blocks "
            f"(worst {lowrank._above_two(max(bad))})") in str(w.message)


def _ellipse_points(n, normals=False, weights=False):
    curve = bie.ellipse(2.0, 1.0, n)
    return PointSet(curve.xy, curve.normals if normals else None,
                    curve.weights if weights else None)


def _caught_compression(case, monkeypatch):
    """(source, tree, compressed matrix) of one compression at eps 1e-6,
    caught at ``compress_source``: a 1024-point kernel matrix through
    ``compress`` (single or double layer, or the single layer with
    quadrature weights), the same matrix as a custom source without the
    ``symmetric`` attribute, a 1024-point Dirichlet BIE or the 256-point
    scatterer preconditioner."""
    seen = []

    def capture(module):
        real = module.compress_source

        def run(source, tree, *args, **kwargs):
            cm = real(source, tree, *args, **kwargs)
            seen.append((source, tree, cm))
            return cm
        monkeypatch.setattr(module, "compress_source", run)

    if case in ("single", "double", "weighted"):
        capture(skel)
        spec = KernelSpec("laplace", 2, "double" if case == "double" else "single")
        pts = _ellipse_points(1024, normals=case == "double", weights=case == "weighted")
        compress(spec, pts, build_tree(pts, 64), 1e-6)
    elif case == "custom":
        pts = _ellipse_points(1024)
        tree = build_tree(pts, 64)
        ks = KernelSource(LAPLACE2, pts, tree.perm)
        custom = type("Custom", (), {})()
        for name in ("block", "proxy_row_block", "proxy_col_block", "n", "dtype",
                     "wavenumber"):
            setattr(custom, name, getattr(ks, name))
        seen.append((custom, tree, compress_source(custom, tree, 1e-6)))
    elif case == "scatterer":
        capture(bie)
        curve = bie.trefoil(256)
        k = 2 * np.pi * 2.0 / curve.diameter()
        bie.scattering_system([curve], k).precond_blocks(eps=1e-6)
    else:
        capture(bie)
        eq = LAPLACE2 if case == "laplace_bie" else KernelSpec("helmholtz", 2, wavenumber=10.0)
        bie.compress_system(bie.discretize_dirichlet(bie.ellipse(2.0, 1.0, 1024), eq), 1e-6)
    ((source, tree, cm),) = seen
    return source, tree, cm


@pytest.mark.parametrize("case, symmetric", [
    ("single", True), ("double", False), ("weighted", False), ("custom", False),
    ("laplace_bie", False), ("helmholtz_bie", False), ("scatterer", False)])
def test_every_source_takes_one_id_per_node(case, symmetric, monkeypatch):
    ids, real_id = [], lowrank.id_fixed_precision

    def counting_id(*args, **kwargs):
        ids.append(1)
        return real_id(*args, **kwargs)

    monkeypatch.setattr(lowrank, "id_fixed_precision", counting_id)
    gram_shapes = _gram_route_shapes(monkeypatch)
    source, tree, cm = _caught_compression(case, monkeypatch)
    # a source without the attribute takes the joint ID
    assert getattr(source, "symmetric", False) == symmetric
    # carried nodes take no ID
    nodes = len(_compressed_nodes(tree, cm))
    assert nodes > 0
    assert len(ids) + len(gram_shapes) == nodes
    # each recorder sees the IDs of its route: the stacked QR everywhere,
    # the Gram route on the Helmholtz targets of 64 columns and more
    assert ids and bool(gram_shapes) == (case in ("helmholtz_bie", "scatterer"))


@pytest.mark.parametrize("case", ["double", "weighted", "custom", "laplace_bie",
                                  "helmholtz_bie", "scatterer"])
def test_every_source_is_square_by_construction(case, monkeypatch):
    # one skeleton serves a node's rows and columns, whatever the source
    source, tree, cm = _caught_compression(case, monkeypatch)
    assert not getattr(source, "symmetric", False)
    assert len(cm.levels) >= 2
    for lv in cm.levels:
        for nd in lv.nodes:
            assert np.array_equal(nd.L, nd.R.T)
    # source.block takes tree positions: the dense matrix in tree order
    n = tree.n_points
    idx = np.arange(n)
    x = np.random.default_rng(0).standard_normal(n)
    ref = (source.block(idx, idx) @ x[tree.perm])[np.argsort(tree.perm)]
    err = np.linalg.norm(apply(cm, x) - ref) / np.linalg.norm(ref)
    assert err <= 100 * 1e-6


def _far_fields(case, monkeypatch):
    """One compression's far fields as ``compress_source`` hands them to
    the IDs: (source, tree, cm, far, groups), with far[i] the far block of
    each half of the i-th ID's target and groups the (nodes, entries) of
    each ``proxy_fields`` call."""
    far, groups, seen = [], [], []
    real_id = skel._target_id

    def capture_id(halves, shape, eps):
        halves = [list(h) for h in halves]
        far.append([h[-1] for h in halves])
        return real_id(halves, shape, eps)

    def capture(module):
        real = module.compress_source

        def run(source, tree, *args, **kwargs):
            fields = source.proxy_fields

            def counted(cols, rings):
                groups.append((len(cols), rings.shape[1] * sum(c.size for c in cols)))
                return fields(cols, rings)
            source.proxy_fields = counted
            seen.append((source, tree, real(source, tree, *args, **kwargs)))
            return seen[-1][2]
        monkeypatch.setattr(module, "compress_source", run)

    monkeypatch.setattr(skel, "_target_id", capture_id)
    rng = np.random.default_rng(201)
    if case in ("laplace_bie", "helmholtz_bie"):
        capture(bie)
        eq = LAPLACE2 if case == "laplace_bie" else KernelSpec("helmholtz", 2, wavenumber=10.0)
        system = bie.discretize_dirichlet(bie.ellipse(2.0, 1.0, 1024), eq)
        bie.compress_system(system, 1e-8, 16)
    else:
        capture(skel)
        dim = 2 if case == "square" else 3
        pts = PointSet(rng.random((2048 if dim == 2 else 1024, dim)))
        compress(KernelSpec("laplace", dim), pts, build_tree(pts), 1e-6)
    ((source, tree, cm),) = seen
    return source, tree, cm, far, groups


def _bits(a):
    return a.dtype, a.shape, np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("case", ["laplace_bie", "square", "cube", "helmholtz_bie"])
def test_grouped_far_fields_equal_the_per_node_blocks(case, monkeypatch):
    # each ID's far field comes from one evaluation for a group of nodes;
    # it must equal, bit for bit, the per-node proxy blocks of the node's
    # own proxy surface: weighted columns and the mean-weighted incoming
    # half (BIE), one half (square), groups of one (cube) and a complex
    # field with more points than n_proxy (Helmholtz)
    source, tree, cm, far, groups = _far_fields(case, monkeypatch)
    dim, k = tree.dim, source.wavenumber
    if case == "laplace_bie":
        depths = {tree.nodes[i].depth for i in tree.levels[0]}
        assert len(depths) > 1     # a finest cover of mixed depths
    # groups of up to _TILE_ENTRIES entries, or of one node
    assert sum(n for n, _ in groups) == sum(1 for f in far if f[0].size)
    assert all(n == 1 or e <= skel._TILE_ENTRIES for n, e in groups)
    if case == "cube":
        assert any(n == 1 and e > skel._TILE_ENTRIES for n, e in groups)
    else:
        assert max(n for n, _ in groups) > 1
    seen = iter(far)
    dofs = [np.arange(tree.nodes[i].lo, tree.nodes[i].hi) for i in tree.levels[0]]
    n_far_seen = set()
    for li, lv in enumerate(cm.levels):
        if li:
            dofs = [np.concatenate([cm.levels[li - 1].nodes[c].skel for c in nd.children])
                    for nd in lv.nodes]
        for a, nd in enumerate(lv.nodes):
            if _carried(tree, li, a, nd):
                continue
            box, d = tree.nodes[tree.levels[li][a]], dofs[a]
            n_far = skel.DEFAULT_N_PROXY[dim]
            if k > 0:
                n_far += int(np.ceil(4.0 * k * skel.proxy_radius(box.halfwidth, ProxyConfig(), dim)))
            n_far_seen.add(n_far)
            got = next(seen)
            assert len(got) == (1 if source.symmetric else 2)
            if not d.size:
                assert all(g.shape == (n_far, 0) for g in got)
                continue
            pxy = proxy_points(box, ProxyConfig(n_proxy=n_far), dim)
            want = [source.proxy_col_block(d, pxy), source.proxy_row_block(d, pxy).T]
            for g, w in zip(got, want):
                assert _bits(g) == _bits(w)
    assert next(seen, None) is None
    if case == "helmholtz_bie":
        assert min(n_far_seen) > skel.DEFAULT_N_PROXY[2] and len(n_far_seen) > 1


@pytest.mark.parametrize("replace", ["subclass", "instance", "proxy_rows"])
def test_replaced_proxy_blocks_are_called_per_node(replace, monkeypatch):
    # proxy_fields stands in for the per-node proxy blocks only while they
    # are KernelSource's own and the incoming field is the single layer;
    # otherwise every ID node calls them, here giving the same bits
    system = bie.discretize_dirichlet(bie.ellipse(2.0, 1.0, 512), LAPLACE2)
    tree = build_tree(system.points, 16)
    calls, ids = [], []

    class Counting(KernelSource):
        def proxy_row_block(self, rows, proxy):
            calls.append(rows.size)
            return super().proxy_row_block(rows, proxy)

    def make(cls=KernelSource, **kwargs):
        return cls(system.spec, system.points, tree.perm, block=system.block, **kwargs)

    plain = make()
    if replace == "subclass":
        src = make(Counting)
    elif replace == "instance":
        src = make()
        own = src.proxy_row_block
        src.proxy_row_block = lambda rows, proxy: calls.append(rows.size) or own(rows, proxy)
    else:
        single = system.spec.single_layer()
        src = make(proxy_rows=lambda t, p: calls.append(t.n) or eval_block(single, t, p))
    group = ([np.arange(3), np.arange(3, 7)], np.zeros((2, 8, 2)))
    assert plain.proxy_fields(*group) is not None and src.proxy_fields(*group) is None
    want = serialize_compressed(compress_source(plain, tree, 1e-9))
    real_id = skel._target_id
    monkeypatch.setattr(skel, "_target_id",
                        lambda halves, shape, eps: ids.append(shape[1]) or real_id(halves, shape, eps))
    got = serialize_compressed(compress_source(src, tree, 1e-9))
    assert got == want
    assert len(calls) == sum(1 for n in ids if n) > 0


# ---------------------------------------------------------------------------
# each kernel block evaluated once: neighbour pairs once, D and S sliced

def _volume_source(case, symmetric=True):
    """(source, tree) of a kernel matrix; "cloud" is an adaptive Gaussian
    cloud with pass-through leaves and 1-point leaves."""
    rng = np.random.default_rng(201)
    if case == "square":
        pts, leaf, spec = PointSet(rng.random((2048, 2))), None, LAPLACE2
    elif case == "cube":
        pts, leaf, spec = PointSet(rng.random((2048, 3))), None, KernelSpec("laplace", 3)
    elif case == "helmholtz":
        pts, leaf = PointSet(rng.random((1024, 2))), None
        spec = KernelSpec("helmholtz", 2, wavenumber=20.0)
    else:
        pts, leaf, spec = PointSet(rng.standard_normal((1024, 2))), 16, LAPLACE2
    tree = build_tree(pts, leaf)
    source = KernelSource(spec, pts, tree.perm)
    source.symmetric = symmetric
    return source, tree


def _direct_block(source, row_parts, col_parts):
    """source.block over the stacked parts, with the parts' own diagonal
    blocks zero: what a parent's D (or S) holds."""
    rows, cols = np.concatenate(row_parts), np.concatenate(col_parts)
    out = np.zeros((rows.size, cols.size), dtype=source.dtype)
    if rows.size and cols.size:
        out[...] = source.block(rows, cols)
    r_off = skel._offsets([p.size for p in row_parts])
    c_off = skel._offsets([p.size for p in col_parts])
    for i in range(len(row_parts)):
        out[r_off[i]:r_off[i + 1], c_off[i]:c_off[i + 1]] = 0
    return out


def assert_sliced_blocks_are_kernel_blocks(source, cm):
    """Every D above the leaves, and S, equals a direct ``source.block`` of
    the children's skeletons with the children's diagonal blocks zero; each
    leaf's D, evaluated with its neighbour blocks, equals its own block
    bit for bit."""
    assert cm.nlevels >= 2
    finest = cm.levels[0]
    for a, nd in enumerate(finest.nodes):
        d = np.arange(finest.dof_off[a], finest.dof_off[a + 1])
        assert nd.D.tobytes() == np.asarray(source.block(d, d), dtype=nd.D.dtype).tobytes()
    for below, lv in zip(cm.levels, cm.levels[1:]):
        for nd in lv.nodes:
            kids = [below.nodes[c] for c in nd.children]
            np.testing.assert_array_equal(nd.D, _direct_block(
                source, [k.skel for k in kids], [k.skel for k in kids]))
    top = cm.levels[-1].nodes
    np.testing.assert_array_equal(cm.S, _direct_block(
        source, [k.skel for k in top], [k.skel for k in top]))


def count_block_entries(source, monkeypatch):
    """Install a counter on ``source.block``: counts[li][i, j] is how often
    level li evaluates the entry at tree positions (i, j).  A level starts
    with its neighbour search."""
    counts = []
    real_block, real_nbrs = source.block, skel.level_neighbors

    def level_neighbors_(tree, li):
        counts.append(np.zeros((source.n, source.n), dtype=np.int8))
        return real_nbrs(tree, li)

    def block(rows, cols):
        counts[-1][np.ix_(rows, cols)] += 1
        return real_block(rows, cols)

    monkeypatch.setattr(skel, "level_neighbors", level_neighbors_)
    source.block = block
    return counts


def assert_each_entry_evaluated_once(counts, cm, tree, symmetric):
    """Per level, each neighbour pair's block once, in one orientation for
    a symmetric source, plus the leaves' D; no D above the leaves, no S."""
    assert len(counts) == cm.nlevels
    leaf = np.zeros((tree.n_points,) * 2, dtype=bool)
    for a, nd in enumerate(cm.levels[0].nodes):
        lo = tree.nodes[tree.levels[0][a]].lo
        leaf[lo:lo + nd.D.shape[0], lo:lo + nd.D.shape[1]] = True
    for li, lv in enumerate(cm.levels):
        c = counts[li].astype(np.int64)
        assert c.max() == 1
        if symmetric:
            both = c + c.T
            if li == 0:
                both[leaf] = 0
            assert both.max() <= 1
        shapes = [nd.D.shape for nd in lv.nodes]
        expected = sum(shapes[a][0] * shapes[b][1]
                       for a, nbrs in enumerate(level_neighbors(tree, li))
                       for b in nbrs if b > a or not symmetric)
        if li == 0:
            expected += sum(nd.D.size for nd in lv.nodes)
        assert c.sum() == expected


@pytest.mark.parametrize("case", ["square", "cube", "cloud", "helmholtz"])
@pytest.mark.parametrize("symmetric", [True, False], ids=["one_id", "both_halves"])
def test_parent_blocks_are_sliced_and_pairs_evaluated_once(case, symmetric, monkeypatch):
    source, tree = _volume_source(case, symmetric)
    if case == "cloud":
        assert any(tree.nodes[i].size == 1 for i in tree.levels[0])
        assert any(set(a) & set(b) for a, b in zip(tree.levels, tree.levels[1:]))
    counts = count_block_entries(source, monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        cm = compress_source(source, tree, 1e-6)
    assert_each_entry_evaluated_once(counts, cm, tree, symmetric)
    assert_sliced_blocks_are_kernel_blocks(source, cm)


@pytest.mark.parametrize("case", ["square", "cube", "cloud", "helmholtz"])
def test_symmetric_parent_blocks_are_mirrored(case):
    # a symmetric source slices each pair of siblings once and writes the
    # transpose below the diagonal: every D and S is its own transpose
    source, tree = _volume_source(case)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        cm = compress_source(source, tree, 1e-6)
    for lv in cm.levels:
        for nd in lv.nodes:
            assert skel._same_bits(nd.D, nd.D.T)
    assert skel._same_bits(cm.S, cm.S.T)
    assert_sliced_blocks_are_kernel_blocks(source, cm)


def _tile_case(case):
    """(source, tree) for the tile tests: the cube's blocks under the root
    are up to 512 x 3584, cut into tiles of 18 rows; "duplicates" is a
    Gaussian cloud with 50 copies of one point, coincident in every tile."""
    rng = np.random.default_rng(201)
    if case == "cube":
        pts, leaf, spec = PointSet(rng.random((4096, 3))), None, KernelSpec("laplace", 3)
    elif case == "square":
        pts, leaf, spec = PointSet(rng.random((4096, 2))), None, LAPLACE2
    elif case == "cloud":
        return _volume_source("cloud")
    else:
        pts = PointSet(np.vstack([rng.standard_normal((1024, 2)), np.full((50, 2), 0.3)]))
        leaf, spec = 16, LAPLACE2
    tree = build_tree(pts, leaf)
    return KernelSource(spec, pts, tree.perm), tree


@pytest.mark.parametrize("case, tile", [("cube", None), ("square", 4096)])
def test_store_is_filled_in_tiles(case, tile, monkeypatch):
    # every block call between distinct nodes (phase 2; the others are the
    # leaves' D) spans at most one tile, or one row where a row is longer.
    # The square's blocks fit the default tile, so it runs with a smaller one
    if tile is not None:
        monkeypatch.setattr(skel, "_TILE_ENTRIES", tile)
    tile = skel._TILE_ENTRIES
    source, tree = _tile_case(case)
    real, calls = source.block, []

    def block(rows, cols):
        if not np.intersect1d(rows, cols).size:
            calls.append((rows.size, cols.size, cols.tobytes()))
        return real(rows, cols)

    source.block = block
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        compress_source(source, tree, 1e-6)
    assert all(r * c <= max(tile, c) for r, c, _ in calls)
    # some blocks were larger than a tile: their columns recur, tile by tile
    assert len({key for _, _, key in calls}) < len(calls)


@pytest.mark.parametrize("case", ["cloud", "duplicates"])
def test_tiles_give_the_whole_block_bits(case, monkeypatch):
    # every tile is a block between subsets of one point set, so it classes
    # every pair as the whole block does
    default = skel._TILE_ENTRIES

    def compressed(tile):
        monkeypatch.setattr(skel, "_TILE_ENTRIES", tile)
        source, tree = _tile_case(case)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            return serialize_compressed(compress_source(source, tree, 1e-6))

    whole = compressed(10 ** 12)
    assert compressed(default) == whole
    assert compressed(64) == whole


def test_tiles_share_the_coincidence_scale_of_their_point_set(monkeypatch):
    # points on a line, up to 1000 from the origin, with p and q 7.5e-12
    # apart on either side of the split at -500.  The set's coincidence
    # scale is 1000, so the pair is coincident (the "zero" fill) in every
    # block between subsets of it, even a one-row tile of p whose own
    # coordinates reach 500 only; two freshly built one-point sets, of
    # scale 500, evaluate it
    delta = 7.5e-12
    x = np.concatenate([[-1000.0, -500.0 - delta, -500.0, 0.0],
                        -500.0 * np.random.default_rng(0).random(200)])
    pts = PointSet(np.column_stack([x, np.zeros_like(x)]))
    tree = build_tree(pts, 16)
    p, q = np.argsort(tree.perm)[[1, 2]]
    assert eval_block(LAPLACE2, pts.subset([1]), pts.subset([2]))[0, 0] == 0.0
    g = eval_block(LAPLACE2, PointSet(pts.coords[[1]]), PointSet(pts.coords[[2]]))[0, 0]
    assert g == pytest.approx(-np.log(delta) / (2 * np.pi), rel=1e-4)

    def compressed(tile):
        # the container, and K(p, q) in every block call that holds it
        monkeypatch.setattr(skel, "_TILE_ENTRIES", tile)
        source, seen = KernelSource(LAPLACE2, pts, tree.perm), []
        real = source.block

        def block(rows, cols):
            out = real(rows, cols)
            if p in rows and q in cols:
                seen.append(out[np.flatnonzero(rows == p)[0], np.flatnonzero(cols == q)[0]])
            return out

        source.block = block
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            out = serialize_compressed(compress_source(source, tree, 1e-6))
        assert seen and set(seen) == {0.0}
        return out

    whole = compressed(10 ** 12)
    assert compressed(skel._TILE_ENTRIES) == whole
    assert compressed(1) == whole


@pytest.mark.parametrize("case", ["square", "cube", "cloud", "ellipse", "far"])
def test_siblings_are_neighbours(case):
    # compress_source slices a parent's D from its children's neighbour
    # blocks; all children of an orthtree node touch
    if case == "ellipse":
        tree = build_tree(_ellipse_points(4096), 32)
    elif case == "far":
        rng = np.random.default_rng(0)
        tree = build_tree(PointSet(np.vstack([rng.random((100, 2)),
                                              rng.random((100, 2)) + 60.0])), 16)
    else:
        tree = _volume_source(case)[1]
    pairs = 0
    for li in range(tree.depth - 1):
        nbrs = level_neighbors(tree, li)
        for ch in tree.cover_children(li + 1):
            for a in ch:
                assert set(ch.tolist()) - {a} <= set(nbrs[a])
                pairs += len(ch) - 1
    assert pairs > 0


def _range_walk(tree, cover_prev, cover):
    """Reference for ``OrthTree.cover_children``: for each node of ``cover``,
    the positions of its members in ``cover_prev``, found by walking the
    index ranges of both covers, which are sorted by range start."""
    out = []
    j = 0
    for nid in cover:
        kids = []
        while j < len(cover_prev) and tree.nodes[cover_prev[j]].lo < tree.nodes[nid].hi:
            kids.append(j)
            j += 1
        out.append(np.array(kids, dtype=np.int64))
    return out


_COVER_CASES = ["square", "two_scales", "ellipse", "duplicates", "leaf_1"]


def _cover_tree(case):
    """An adaptive tree of one of ``_COVER_CASES``, at seed 201."""
    rng = np.random.default_rng(201)
    leaf = None
    if case == "square":
        pts = PointSet(rng.random((4096, 2)))
    elif case == "two_scales":
        pts = PointSet(np.vstack([0.01 * rng.random((2000, 2)), rng.random((2000, 2))]))
    elif case == "ellipse":
        pts = _ellipse_points(16384)
    elif case == "duplicates":
        # 50 copies of one point, more than a leaf holds, split to the cap
        pts = PointSet(np.vstack([rng.standard_normal((1024, 2)), np.full((50, 2), 0.3)]))
        leaf = 16
    else:
        pts, leaf = PointSet(rng.random((500, 2))), 1
    return build_tree(pts, leaf)


@pytest.mark.parametrize("case", _COVER_CASES)
def test_cover_children_read_from_the_tree(case):
    # compress_source takes each node's children from the tree, and carries
    # a node exactly when it is a leaf above the finest cover; the walk over
    # index ranges is the reference for both
    tree = _cover_tree(case)
    if case == "duplicates":
        assert tree.depth == geom._MAX_DEPTH + 1
    carried = 0
    for li in range(1, tree.depth):
        prev, cover = tree.levels[li - 1], tree.levels[li]
        walk = _range_walk(tree, prev, cover)
        got = tree.cover_children(li)
        assert len(got) == len(walk)
        for a, nid in enumerate(cover):
            assert got[a].dtype == np.int64 and np.array_equal(got[a], walk[a])
            # listed again as its own only child: the rule _carried reads
            own = prev[walk[a][0]] == nid
            assert own == (len(walk[a]) == 1 and not tree.nodes[nid].children)
            carried += own
    assert carried > 0


@pytest.mark.parametrize("case", _COVER_CASES)
def test_top_down_neighbours_match_all_pairs(case):
    # the neighbour lists found from the root down are the all-pairs rule's
    assert_neighbours_match_all_pairs(_cover_tree(case))


def test_global_mode_slices_its_targets():
    # global mode evaluates its sibling blocks as proxy mode does, and slices
    # the parents' D and the top S from them
    for symmetric in (True, False):
        source, tree = _volume_source("square", symmetric)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            cm = compress_source(source, tree, 1e-6, mode="global")
        assert_sliced_blocks_are_kernel_blocks(source, cm)


@pytest.mark.parametrize("symmetric", [True, False], ids=["one-ID", "both_halves"])
def test_global_mode_targets_are_the_whole_block_row_and_column(symmetric, monkeypatch):
    # a global-mode node has no neighbours and its far field is every other
    # node: its target is [K(DOFs of the others, its DOFs); K(its DOFs, DOFs
    # of the others)^T], and for a symmetric source the upper half alone.
    # A tall target goes to the Gram route as the row blocks of its halves,
    # in order.
    source, tree = _volume_source("square", symmetric)
    captured, real_id, real_gram = [], lowrank.id_fixed_precision, lowrank.id_gram

    def capture(A, eps, **kwargs):
        captured.append(("qr", [np.array(A)]))
        return real_id(A, eps, **kwargs)

    def capture_gram(halves, eps):
        halves = [[np.array(X) for X in h] for h in halves]
        captured.append(("gram", [np.vstack(h) for h in halves]))
        return real_gram(halves, eps)

    monkeypatch.setattr(lowrank, "id_fixed_precision", capture)
    monkeypatch.setattr(lowrank, "id_gram", capture_gram)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        cm = compress_source(source, tree, 1e-6, mode="global")

    def assert_bits_equal(got, want):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    routes = []
    captured = iter(captured)
    for li, lv in enumerate(cm.levels):
        if li == 0:
            dofs = [np.arange(tree.nodes[i].lo, tree.nodes[i].hi) for i in tree.levels[0]]
        else:
            below = cm.levels[li - 1].nodes
            dofs = [np.concatenate([below[c].skel for c in nd.children])
                    for nd in lv.nodes]
        for a in range(len(lv.nodes)):
            rest = np.concatenate([dofs[b] for b in range(len(lv.nodes)) if b != a])
            want = [source.block(rest, dofs[a])]
            if not symmetric:
                want.append(source.block(dofs[a], rest).T)
            route, got = next(captured)
            routes.append(route)
            if route == "qr":
                want = [np.vstack(want)]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_bits_equal(g, w)
    assert next(captured, None) is None
    assert routes.count("gram") >= 4 and routes.count("qr") >= 40


@pytest.mark.parametrize("case", ["cube", "ellipse_bie"], ids=["one_id", "both_halves"])
def test_in_place_targets_give_the_copying_bytes(case, monkeypatch):
    # compress_source hands each column-major ID target to LAPACK to factor
    # in place; an ID of a copy, with the overwrite dropped, gives the same
    # container bytes
    if case == "cube":
        source, tree = _volume_source("cube")
        run = lambda: compress_source(source, tree, 1e-6)
    else:
        system = bie.discretize_dirichlet(bie.ellipse(2.0, 1.0, 4096), LAPLACE2)
        run = lambda: bie.compress_system(system, 1e-9)[1]
    in_place = serialize_compressed(run())
    handed, real_id = [], lowrank.id_fixed_precision

    def copying_id(A, eps, **kwargs):
        handed.append((A.flags.f_contiguous, kwargs.pop("overwrite_a", False)))
        return real_id(np.array(A), eps, **kwargs)

    monkeypatch.setattr(lowrank, "id_fixed_precision", copying_id)
    assert serialize_compressed(run()) == in_place
    assert handed and all(f and o for f, o in handed)


def test_concurrent_compressions_leave_warning_filters_alone():
    # compress_source once silenced its per-block warnings with
    # warnings.catch_warnings, which swaps the process-global filter list:
    # two threads compressing at once left a stray filter behind
    system = bie.discretize_dirichlet(bie.circle(1.0, 2048), LAPLACE2)
    before = list(warnings.filters)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            futs = [pool.submit(bie.compress_system, system, 1e-9, 16) for _ in range(2)]
            for fut in futs:
                fut.result(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert list(warnings.filters) == before

@pytest.mark.parametrize("case", ["cloud", "ellipse_bie"])
def test_carried_nodes_pass_through_without_an_id(case, monkeypatch):
    # a leaf that stopped early is listed again in each coarser cover, as
    # its own only child; it was compressed against the same box below, so
    # it keeps every DOF with L = R = I and a zero D, and takes no ID
    ids, real_id = [], lowrank.id_fixed_precision

    def counting_id(*args, **kwargs):
        ids.append(1)
        return real_id(*args, **kwargs)

    monkeypatch.setattr(lowrank, "id_fixed_precision", counting_id)
    gram_shapes = _gram_route_shapes(monkeypatch)
    if case == "cloud":
        eps = 1e-6
        source, tree = _volume_source("cloud")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            cm = compress_source(source, tree, eps)
    else:
        eps = 1e-9
        source = bie.discretize_dirichlet(bie.ellipse(2.0, 1.0, 4096), LAPLACE2)
        tree, cm = bie.compress_system(source, eps)

    carried = [(li, nd) for li, lv in enumerate(cm.levels) for a, nd in enumerate(lv.nodes)
               if _carried(tree, li, a, nd)]
    assert len(carried) >= 40
    assert len(ids) + len(gram_shapes) == len(_compressed_nodes(tree, cm))
    # the ellipse at eps 1e-9 is below the Gram route's floor
    assert ids and bool(gram_shapes) == (case == "cloud")
    for li, nd in carried:
        # every DOF, that is every skeleton of its only child, survives
        child = cm.levels[li - 1].nodes[nd.children[0]]
        assert np.array_equal(nd.skel, child.skel)
        assert np.array_equal(nd.L, np.eye(nd.k)) and np.array_equal(nd.R, np.eye(nd.k))
        assert nd.D.shape == (nd.k, nd.k) and not np.any(nd.D)

    n = tree.n_points
    x = np.random.default_rng(0).standard_normal(n)
    if case == "cloud":
        # source.block takes tree positions: the dense matrix in tree order
        idx = np.arange(n)
        ref = (source.block(idx, idx) @ x[tree.perm])[np.argsort(tree.perm)]
    else:
        ref = source.matrix() @ x
    err = np.linalg.norm(apply(cm, x) - ref) / np.linalg.norm(ref)
    assert err <= 100 * eps


def test_serialize_holds_no_second_copy_of_the_blocks():
    # each block was copied by tobytes() and again into a growing buffer:
    # a 55 MB peak for the 34 MB container of this cube
    pts = PointSet(np.random.default_rng(201).random((2048, 3)))
    cm = compress(KernelSpec("laplace", 3), pts, build_tree(pts), 1e-6)
    tracemalloc.start()
    try:
        blob = serialize_compressed(cm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blob) > 30e6
    assert peak <= 1.05 * len(blob)


def _write_arr_tobytes(out, a):
    """Reference record writer: header, shape, then ``a.tobytes()``."""
    a = np.ascontiguousarray(a)
    code = {np.dtype(np.int64): 2}.get(a.dtype) or skel._DT_CODE[a.dtype]
    out += [struct.pack("<BB", code, a.ndim), struct.pack(f"<{a.ndim}q", *a.shape),
            a.tobytes()]


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_zero_size_blocks_round_trip(dtype, monkeypatch):
    # a node compressed away entirely has 3 x 0 and 0 x 3 interpolants
    rng = np.random.default_rng(0)
    nodes = [CompressedNode(np.empty(0, dtype=np.int64), rng.random((3, 3)).astype(dtype),
                            np.zeros((3, 0), dtype), np.zeros((0, 3), dtype), None),
             CompressedNode(np.array([3]), rng.random((2, 2)).astype(dtype),
                            rng.random((2, 1)).astype(dtype), rng.random((1, 2)).astype(dtype),
                            None)]
    cm = CompressedMatrix(levels=[Level(nodes)], S=np.zeros((1, 1), dtype), n=5, eps=1e-6,
                          perm=np.arange(5)[::-1].copy(),
                          scalar_field="complex" if dtype is np.complex128 else "real")
    blob = serialize_compressed(cm)
    assert serialize_compressed(deserialize_compressed(blob)) == blob
    monkeypatch.setattr(skel, "_write_arr", _write_arr_tobytes)
    assert serialize_compressed(cm) == blob


def _holds_transpose(a, b):
    """Whether ``a`` is ``b.T``: a view of b's own buffer, strides reversed."""
    return a.base is b and a.shape == b.shape[::-1] and a.strides == b.strides[::-1]


def _compressed_case(case):
    dim = 3 if case == "cube" else 2
    pts = PointSet(np.random.default_rng(201).random((2048, dim)))
    return compress(KernelSpec("laplace", dim), pts, build_tree(pts), 1e-6)


@pytest.mark.parametrize("case", ["square", "cube", "ellipse_bie"])
def test_l_is_a_view_of_r_after_compress_and_load(case):
    # one interpolant per node: L is R^T, in memory and once loaded
    if case == "ellipse_bie":
        system = bie.discretize_dirichlet(bie.ellipse(2.0, 1.0, 2048), LAPLACE2)
        cm = bie.compress_system(system, 1e-9)[1]
    else:
        cm = _compressed_case(case)
    loaded = deserialize_compressed(serialize_compressed(cm))
    for m in (cm, loaded):
        nodes = [nd for lv in m.levels for nd in lv.nodes]
        assert len(nodes) >= 8
        assert all(_holds_transpose(nd.L, nd.R) for nd in nodes)
        # the view is read-only: an edit of L in place would also edit R
        with pytest.raises(ValueError, match="read-only"):
            nodes[0].L[0, 0] = 2.0


def test_a_record_that_is_not_r_transposed_loads_as_read():
    # a hand-built node whose L is not R^T bit for bit keeps its own L, and
    # -0.0 is not 0.0
    R = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0]])
    L = R.T.copy()
    L[1, 0] = -0.0
    assert np.array_equal(L, R.T)
    nodes = [CompressedNode(np.array([0, 1]), np.eye(3), L, R, None),
             CompressedNode(np.array([3]), np.eye(1), np.eye(1), np.eye(1), None)]
    cm = CompressedMatrix(levels=[Level(nodes)], S=np.ones((3, 3)), n=4, eps=1e-6,
                          perm=np.arange(4), scalar_field="real")
    blob = serialize_compressed(cm)
    got = deserialize_compressed(blob).levels[0].nodes
    assert got[0].L.flags.c_contiguous and got[0].L.tobytes() == L.tobytes()
    assert _holds_transpose(got[1].L, got[1].R)
    assert serialize_compressed(deserialize_compressed(blob)) == blob


@pytest.mark.parametrize("case", ["square", "cube"])
def test_storage_bytes_counts_each_buffer_once(case):
    # an L that is a view of R adds nothing; held as copies, the L blocks
    # add exactly their own bytes
    cm = _compressed_case(case)
    copies = CompressedMatrix(
        levels=[Level([replace(nd, L=nd.L.copy()) for nd in lv.nodes]) for lv in cm.levels],
        S=cm.S, n=cm.n, eps=cm.eps, perm=cm.perm, scalar_field=cm.scalar_field)
    sum_l = sum(nd.L.nbytes for lv in cm.levels for nd in lv.nodes)
    assert sum_l > 0.1 * cm.storage_bytes()
    assert copies.storage_bytes() - cm.storage_bytes() == sum_l


def test_transposed_views_write_the_reference_bytes(monkeypatch):
    # every L of this cube is a view, written row-major by np.copyto
    cm = _compressed_case("cube")
    assert all(not nd.L.flags.c_contiguous for lv in cm.levels for nd in lv.nodes
               if nd.k > 1)
    blob = serialize_compressed(cm)
    assert isinstance(blob, bytearray)
    monkeypatch.setattr(skel, "_write_arr", _write_arr_tobytes)
    assert serialize_compressed(cm) == blob
