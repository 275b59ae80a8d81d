import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelkit import bie
from skelkit.errors import InvalidInput
from skelkit.geom import (PointSet, build_tree, level_neighbors,
                          neighbors, read_points_binary, read_points_text,
                          write_points_binary, write_points_text)


def uniform_cloud(n, seed=0, d=2):
    return PointSet(np.random.default_rng(seed).random((n, d)))


def leaves(tree):
    return [i for i, nd in enumerate(tree.nodes) if not nd.children]


def test_four_corner_points_single_split():
    pts = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    tree = build_tree(pts, 1)
    assert tree.depth == 2
    assert len(leaves(tree)) == 4
    assert all(tree.nodes[i].size == 1 for i in leaves(tree))


def test_empty_quadrants_are_pruned():
    # cloud spans the unit square but only two diagonal quadrants are occupied
    rng = np.random.default_rng(3)
    cluster = 0.4 * rng.random((20, 2))
    pts = PointSet(np.vstack([cluster, [[1.0, 1.0]]]))
    tree = build_tree(pts, 8)
    root = tree.root
    assert len(root.children) == 2  # two empty siblings never materialize
    for nd in tree.nodes:
        assert nd.size > 0


def test_uniform_8192_leaf_count():
    pts = uniform_cloud(8192, seed=1)
    tree = build_tree(pts, 64)
    ids = leaves(tree)
    assert 128 <= len(ids) <= 256
    ranges = sorted((tree.nodes[i].lo, tree.nodes[i].hi) for i in ids)
    assert ranges[0][0] == 0 and ranges[-1][1] == 8192
    for (a, b), (c, d) in zip(ranges, ranges[1:]):
        assert b == c  # disjoint and covering


def grid_levels(tree, depth):
    return [i for i, nd in enumerate(tree.nodes) if nd.depth == depth]


def test_neighbors_on_uniform_grid():
    # 16 points at the centers of a 4x4 grid, one per leaf
    xs = (np.arange(4) + 0.5) / 4
    g = np.array([[x, y] for x in xs for y in xs])
    tree = build_tree(PointSet(g), 1)
    lvl2 = grid_levels(tree, 2)
    assert len(lvl2) == 16
    counts = sorted(len(neighbors(tree, i)) for i in lvl2)
    assert counts.count(3) == 4      # corners
    assert counts.count(8) == 4      # interior
    assert counts.count(5) == 8      # edges


def test_neighbors_absent_when_pruned():
    # occupy 3 quadrants of the unit square; the empty one cannot show up
    pts = np.array([[0.1, 0.1], [0.9, 0.1], [0.1, 0.9]])
    tree = build_tree(PointSet(pts), 1)
    lvl = grid_levels(tree, 1)
    assert len(lvl) == 3
    for i in lvl:
        nb = neighbors(tree, i)
        assert len(nb) == 2
        assert i not in nb


def test_neighbors_invalid_id():
    # a bool was taken as node 1, and a level out of range raised
    # IndexError or, at -1, read the root cover
    tree = build_tree(uniform_cloud(300), 8)
    for bad in (10 ** 9, len(tree.nodes), -1, True, 1.0):
        with pytest.raises(InvalidInput):
            neighbors(tree, bad)
    for bad in (99, tree.depth, -1, True, 1.0):
        with pytest.raises(InvalidInput):
            level_neighbors(tree, bad)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 400), seed=st.integers(0, 10 ** 6), d=st.sampled_from([2, 3]),
       leaf=st.integers(1, 64))
def test_tree_invariants(n, seed, d, leaf):
    pts = uniform_cloud(n, seed, d)
    tree = build_tree(pts, leaf)
    # perm is a bijection
    assert np.array_equal(np.sort(tree.perm), np.arange(n))
    # every level partitions 0..N-1
    for cover in tree.levels:
        owned = np.concatenate([np.arange(tree.nodes[i].lo, tree.nodes[i].hi)
                                for i in cover])
        assert np.array_equal(np.sort(owned), np.arange(n))
    # children concatenate to the parent range, in order
    for nd in tree.nodes:
        if nd.children:
            lo = nd.lo
            for c in nd.children:
                assert tree.nodes[c].lo == lo
                lo = tree.nodes[c].hi
            assert lo == nd.hi
    # leaf occupancy and geometry
    coords = pts.coords[tree.perm]
    for i in leaves(tree):
        nd = tree.nodes[i]
        assert nd.size <= max(leaf, 1) or nd.depth >= 60
        box_pts = coords[nd.lo:nd.hi]
        assert np.all(np.abs(box_pts - nd.center) <= nd.halfwidth * (1 + 1e-9))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_neighbor_symmetry(seed):
    tree = build_tree(uniform_cloud(300, seed), 16)
    for i in range(len(tree.nodes)):
        for j in neighbors(tree, i):
            assert i in neighbors(tree, j)


def test_rebuild_on_permuted_input_same_geometry():
    pts = uniform_cloud(500, seed=7)
    t1 = build_tree(pts, 32)
    rng = np.random.default_rng(8)
    shuffle = rng.permutation(500)
    t2 = build_tree(PointSet(pts.coords[shuffle]), 32)
    boxes1 = sorted((tuple(nd.center), nd.halfwidth, nd.size) for nd in t1.nodes)
    boxes2 = sorted((tuple(nd.center), nd.halfwidth, nd.size) for nd in t2.nodes)
    assert boxes1 == boxes2


def test_level_neighbors_consistent_with_covers():
    tree = build_tree(uniform_cloud(600, 2), 32)
    for li in range(tree.depth - 1):
        ids = tree.levels[li]
        nbrs = level_neighbors(tree, li)
        for a, lst in enumerate(nbrs):
            for b in lst:
                assert a in nbrs[b]
                assert b != a


def test_identical_points_do_not_recurse_forever():
    pts = PointSet(np.zeros((10, 2)))
    tree = build_tree(pts, 2)
    assert tree.n_points == 10


def test_split_plane_tie_goes_to_upper_child():
    # the middle point sits exactly on both split planes of the root box
    pts = PointSet(np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]))
    tree = build_tree(pts, 1)
    coords = pts.coords[tree.perm]
    upper = [i for i in tree.root.children
             if np.all(tree.nodes[i].center > 0.5)]
    assert len(upper) == 1
    nd = tree.nodes[upper[0]]
    pts_in_upper = coords[nd.lo:nd.hi]
    assert any(np.allclose(p, [0.5, 0.5]) for p in pts_in_upper)


def test_invalid_inputs():
    with pytest.raises(InvalidInput):
        PointSet(np.zeros((0, 2)))
    with pytest.raises(InvalidInput):
        PointSet(np.array([[np.inf, 0.0]]))
    with pytest.raises(InvalidInput):
        PointSet(np.zeros((3, 4)))
    with pytest.raises(InvalidInput):
        PointSet(np.zeros((2, 2)), normals=np.full((2, 2), 0.9))
    with pytest.raises(InvalidInput):
        build_tree(uniform_cloud(10), 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["normals", "weights", "curvatures"])
def test_non_finite_point_data_refused(field, bad):
    # a non-finite weight or curvature loaded, and compress failed only
    # inside an ID ("matrix has non-finite entries"); a NaN normal passed
    # the unit-length check.  Curvatures reach only the diagonal of a
    # Laplace BIE, from its curve, which checks them
    data = {"normals": np.tile([1.0, 0.0], (3, 1)), "weights": np.ones(3),
            "curvatures": np.ones(4)}[field]
    data.flat[1] = bad
    if field == "curvatures":
        c = bie.circle(1.0, 4)
        with pytest.raises(InvalidInput, match="curve curvature must be finite"):
            bie.Curve2D(c.t, c.xy, c.normals, data, c.weights)
    else:
        with pytest.raises(InvalidInput, match="non-finite|unit vectors"):
            PointSet(np.random.default_rng(0).random((3, 2)), **{field: data})


@pytest.mark.parametrize("leaf", [float("nan"), 2.5, 64.0, True])
def test_leaf_size_must_be_an_integer(leaf):
    # a NaN passed the >= 1 check and split every box down to _MAX_DEPTH
    # (110,612 nodes for 2000 points); 2.5 would act as 2, True as 1
    with pytest.raises(InvalidInput, match="max_leaf_size must be an integer"):
        build_tree(uniform_cloud(2000), leaf)


def test_numpy_integer_leaf_size_accepted():
    pts = uniform_cloud(2000)
    ref = build_tree(pts, 8)
    tree = build_tree(pts, np.int64(8))
    assert tree.levels == ref.levels and np.array_equal(tree.perm, ref.perm)


def _full_point_set(n, d, seed):
    rng = np.random.default_rng(seed)
    nrm = rng.standard_normal((n, d))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    return PointSet(rng.standard_normal((n, d)), nrm, rng.random(n) + 0.5)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["int", "list", "mask", "repeat"])
def test_subset_equals_validated_point_set(d, kind):
    # subset skips re-validation; what it returns must still be what the
    # validating constructor builds from the same slices
    ps = _full_point_set(50, d, 4)
    idx = {"int": np.array([7, 3, 49, 0]), "list": [1, 2, 3],
           "mask": np.arange(50) % 3 == 0, "repeat": np.array([5, 5, 5])}[kind]
    sub = ps.subset(idx)
    want = PointSet(ps.coords[idx], ps.normals[idx], ps.weights[idx])
    assert type(sub) is PointSet
    for name in ("coords", "normals", "weights"):
        got, ref = getattr(sub, name), getattr(want, name)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.flags.c_contiguous and got.tobytes() == ref.tobytes()
    bare = PointSet(ps.coords).subset(idx)
    assert bare.normals is None and bare.weights is None


def test_subsets_keep_the_coincidence_scale_of_their_set():
    # the scale is max(largest per-axis extent, largest |coordinate|, 1) of
    # the set as built; subsets, and subsets of those, keep it
    xy = np.array([[-3.0, 0.5], [4.0, 0.25], [0.0, 0.0]])
    assert PointSet(xy).scale == 7.0
    assert PointSet(xy + [0.0, 10.0]).scale == 10.5
    assert PointSet(xy * 0.1).scale == 1.0
    ps = PointSet(xy)
    sub = ps.subset([1, 2]).subset([1])
    assert sub.coords.tolist() == [[0.0, 0.0]] and sub.scale == 7.0
    assert PointSet(sub.coords).scale == 1.0


@pytest.mark.parametrize("idx", [np.array([], dtype=np.int64), [], np.zeros(50, dtype=bool),
                                 np.array([[0, 1], [2, 3]]), 3],
                         ids=["empty", "empty_list", "empty_mask", "2d", "scalar"])
def test_subset_rejects_empty_and_non_1d_index(idx):
    with pytest.raises(InvalidInput):
        _full_point_set(50, 2, 4).subset(idx)


def test_point_file_roundtrips(tmp_path):
    rng = np.random.default_rng(0)
    nrm = rng.standard_normal((10, 2))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    ps = PointSet(rng.random((10, 2)), nrm, rng.random(10) + 0.1)

    txt = tmp_path / "pts.txt"
    write_points_text(ps, txt)
    back = read_points_text(txt, 2, has_normals=True, has_weights=True)
    np.testing.assert_allclose(back.coords, ps.coords)
    np.testing.assert_allclose(back.normals, ps.normals)
    np.testing.assert_allclose(back.weights, ps.weights)

    binp = tmp_path / "pts.bin"
    write_points_binary(ps, binp)
    back2 = read_points_binary(binp)
    assert np.array_equal(back2.coords, ps.coords)
    assert np.array_equal(back2.normals, ps.normals)
    assert np.array_equal(back2.weights, ps.weights)

    with pytest.raises(InvalidInput):
        read_points_text(txt, 2)  # wrong column count
    for bad in ("0.1 0.2\n0.3 abc\n", "0.1 0.2\n0.3\n"):
        txt.write_text(bad)
        with pytest.raises(InvalidInput):
            read_points_text(txt, 2)


def test_truncated_binary_point_file_raises_invalid_input(tmp_path):
    rng = np.random.default_rng(0)
    nrm = rng.standard_normal((10, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    path = tmp_path / "pts.bin"
    write_points_binary(PointSet(rng.random((10, 3)), nrm, rng.random(10) + 0.1), path)
    blob = path.read_bytes()
    # inside the magic, inside the (N, dim, flags) header, just after it,
    # halfway, one byte short, one byte over
    for data in (blob[:3], blob[:7], blob[:10], blob[:len(blob) // 2],
                 blob[:-1], blob + b"\0"):
        path.write_bytes(data)
        with pytest.raises(InvalidInput):
            read_points_binary(path)


def test_point_files_with_non_finite_weights_refused(tmp_path):
    txt = tmp_path / "pts.txt"
    txt.write_text("0.1 0.2 1.0\n0.3 0.4 nan\n")
    with pytest.raises(InvalidInput, match="non-finite weight"):
        read_points_text(txt, 2, has_weights=True)
    path = tmp_path / "pts.bin"
    write_points_binary(PointSet(np.random.default_rng(0).random((4, 2)),
                                 weights=np.ones(4)), path)
    path.write_bytes(path.read_bytes()[:-8] + np.float64(np.nan).tobytes())
    with pytest.raises(InvalidInput, match="non-finite weight"):
        read_points_binary(path)


@pytest.mark.parametrize("flags", [4, 7, 0x80])
def test_binary_point_file_with_unknown_flag_bits_refused(tmp_path, flags):
    # bit 0 marks normals and bit 1 weights; a file is written with the
    # other bits clear, and the length matches the known bits' layout
    rng = np.random.default_rng(0)
    nrm = rng.standard_normal((5, 2))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    ps = PointSet(rng.random((5, 2)), *((nrm, np.ones(5)) if flags & 3 else ()))
    path = tmp_path / "pts.bin"
    write_points_binary(ps, path)
    blob = bytearray(path.read_bytes())
    assert blob[9] == flags & 3
    blob[9] = flags
    path.write_bytes(bytes(blob))
    with pytest.raises(InvalidInput, match="unknown flag bits"):
        read_points_binary(path)


def all_pairs(tree, ids):
    """The reference rule, every box of ``ids`` against every other: for
    each, the ascending positions in ``ids`` of the boxes it touches (on
    every axis |c_a - c_b| - (h_a + h_b) <= 1e-9 h_root), itself excluded."""
    c = np.array([tree.nodes[i].center for i in ids])
    h = np.array([tree.nodes[i].halfwidth for i in ids])
    gap = np.abs(c[:, None, :] - c[None, :, :]) - (h[:, None, None] + h[None, :, None])
    hit = np.all(gap <= 1e-9 * tree.root.halfwidth, axis=2)
    np.fill_diagonal(hit, False)
    return [np.flatnonzero(row).tolist() for row in hit]


def assert_neighbours_match_all_pairs(tree):
    """Every cover's lists, and every node's ``neighbors``, equal the
    all-pairs rule's."""
    for li, ids in enumerate(tree.levels):
        got = level_neighbors(tree, li)
        assert got == all_pairs(tree, ids)
        assert all(type(b) is int for lst in got for b in lst)
    for depth in {nd.depth for nd in tree.nodes}:
        same = [i for i, nd in enumerate(tree.nodes) if nd.depth == depth]
        for i, row in zip(same, all_pairs(tree, same)):
            assert neighbors(tree, i) == [same[j] for j in row]


def _adaptive_tree(d, seed, leaf=6):
    # a dense cluster in one corner and a sparse spread: leaves stop early
    # outside the cluster and are carried through the finer covers
    rng = np.random.default_rng(seed)
    pts = np.vstack([0.04 * rng.random((400, d)), rng.random((150, d))])
    return build_tree(PointSet(pts), leaf)


@pytest.mark.parametrize("leaf", [1, 40, None])
@pytest.mark.parametrize("d", [2, 3])
def test_level_neighbors_match_brute_force(d, leaf):
    tree = _adaptive_tree(d, 3 + d, leaf)
    assert_neighbours_match_all_pairs(tree)
    # several covers mix box sizes
    assert sum(len({tree.nodes[i].halfwidth for i in ids}) > 1 for ids in tree.levels) >= 2


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 400), seed=st.integers(0, 10 ** 6), d=st.sampled_from([2, 3]),
       leaf=st.integers(1, 64), kind=st.sampled_from(["uniform", "clustered", "duplicates"]))
def test_top_down_lists_match_all_pairs(n, seed, d, leaf, kind):
    # the lists found from the root down are the all-pairs rule's on
    # clustered clouds, whose leaves sit at very different depths, and on
    # duplicated points, which split down to the depth cap
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    if kind == "clustered":
        pts[: n // 2] = 0.3 + 1e-3 * pts[: n // 2]
    elif kind == "duplicates":
        pts[: n // 3 + 1] = pts[0]
    assert_neighbours_match_all_pairs(build_tree(PointSet(pts), leaf))
