import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from skelkit import kernels
from skelkit.errors import InvalidInput
from skelkit.geom import PointSet
from skelkit.kernels import (COINCIDENT_RTOL, KernelSpec, bessel_h0, eval_block,
                             eval_block_pair, eval_fields)


def h0_series(z, terms=40):
    """Independent oracle: ascending power series for J0 and Y0.

    J0(z) = sum (-1)^m (z/2)^(2m) / (m!)^2,
    Y0(z) = (2/pi)[(ln(z/2) + gamma) J0(z) + sum (-1)^(m+1) H_m (z/2)^(2m)/(m!)^2]
    with H_m the harmonic numbers.  Converges for any z; accurate while the
    terms do not overwhelm double precision (z up to ~8).
    """
    j0 = 1.0
    corr = 0.0
    hm = 0.0
    term = 1.0
    for m in range(1, terms):
        term *= -(z / 2) ** 2 / m ** 2
        hm += 1.0 / m
        j0 += term
        corr += -hm * term
    gamma = 0.5772156649015328606
    y0 = (2 / np.pi) * ((np.log(z / 2) + gamma) * j0 + corr)
    return j0 + 1j * y0


# frozen from the series oracle above (and mpmath to 30 digits)
H0_AT_1 = 0.7651976865579666 + 0.08825696421567696j


def pair(spec, x, y, normal=None):
    tgs = PointSet(np.asarray(x, dtype=float).reshape(1, -1))
    nrm = None if normal is None else np.asarray(normal, dtype=float).reshape(1, -1)
    srcs = PointSet(np.asarray(y, dtype=float).reshape(1, -1), nrm)
    return eval_block(spec, tgs, srcs)[0, 0]


def test_laplace3d_single_value():
    v = pair(KernelSpec("laplace", 3), [0, 0, 0], [2, 0, 0])
    assert v == pytest.approx(1 / (8 * np.pi), rel=1e-15)


def test_laplace2d_single_log1_is_zero():
    assert pair(KernelSpec("laplace", 2), [0, 0], [1, 0]) == 0.0


def test_helmholtz2d_single_value():
    # k |x-y| = 1: G = (i/4) H0(1)
    v = pair(KernelSpec("helmholtz", 2, wavenumber=1.0), [0, 0], [1, 0])
    expected = 0.25j * H0_AT_1
    assert v == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(-0.0220642 + 0.1913000j, abs=1e-6)


def test_laplace2d_double_layer_on_circle():
    # x and y on the unit circle with outward normals: kernel is -1/(4 pi)
    spec = KernelSpec("laplace", 2, "double")
    x = np.array([1.0, 0.0])
    for th in (0.3, 1.0, 2.2, np.pi, 5.0):
        y = np.array([np.cos(th), np.sin(th)])
        v = pair(spec, x, y, normal=y)
        assert v == pytest.approx(-1 / (4 * np.pi), rel=1e-12)


def test_helmholtz3d_value():
    k = 2.0
    r = 1.5
    v = pair(KernelSpec("helmholtz", 3, wavenumber=k), [0, 0, 0], [r, 0, 0])
    assert v == pytest.approx(np.exp(1j * k * r) / (4 * np.pi * r), rel=1e-14)


class TestBesselH0:
    def test_value_at_1(self):
        assert bessel_h0(1.0) == pytest.approx(H0_AT_1, rel=1e-14)
        assert bessel_h0(1.0) == pytest.approx(h0_series(1.0), rel=1e-13)

    def test_small_z_leading_forms(self):
        z = 1e-4
        v = bessel_h0(z)
        gamma = 0.5772156649015328606
        assert v.real == pytest.approx(1.0, abs=1e-8)
        assert v.imag == pytest.approx((2 / np.pi) * (np.log(z / 2) + gamma), rel=1e-7)

    def test_asymptotic_form_at_10(self):
        # H0 ~ sqrt(2/(pi z)) e^{i(z - pi/4)} (1 - i/(8z) + ...); the leading
        # form alone carries a 1/(8z) relative error
        v = bessel_h0(10.0)
        leading = np.sqrt(2 / (np.pi * 10.0)) * np.exp(1j * (10.0 - np.pi / 4))
        assert abs(v - leading) / abs(v) < 2e-2
        corrected = leading * (1 - 1j / (8 * 10.0))
        assert abs(v - corrected) / abs(v) < 1e-2

    def test_accuracy_against_mpmath(self):
        mp.mp.dps = 30
        zs = np.concatenate([np.geomspace(1e-3, 8, 25), np.linspace(8.3, 700, 40)])
        for z in zs:
            ref = complex(mp.besselj(0, mp.mpf(z)) + 1j * mp.bessely(0, mp.mpf(z)))
            got = bessel_h0(float(z))
            assert abs(got - ref) / abs(ref) < 1e-13

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            bessel_h0(0.0)
        with pytest.raises(InvalidInput):
            bessel_h0(-1.0)

    def test_vectorized(self):
        z = np.array([0.5, 1.0, 2.0])
        v = bessel_h0(z)
        assert v.shape == (3,)
        assert v[1] == pytest.approx(H0_AT_1, rel=1e-14)


def random_cloud(n, d, seed):
    return PointSet(np.random.default_rng(seed).random((n, d)) * 2 - 1)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 6), dim=st.sampled_from([2, 3]),
       eq=st.sampled_from(["laplace", "helmholtz"]))
def test_single_layer_symmetry(seed, dim, eq):
    spec = KernelSpec(eq, dim, wavenumber=1.7 if eq == "helmholtz" else 0.0)
    a = random_cloud(7, dim, seed)
    b = random_cloud(9, dim, seed + 1)
    fwd = eval_block(spec, a, b)
    bwd = eval_block(spec, b, a)
    np.testing.assert_allclose(fwd, bwd.T, rtol=1e-15, atol=1e-300)


def test_laplace_blocks_are_real():
    blk = eval_block(KernelSpec("laplace", 2), random_cloud(5, 2, 0), random_cloud(5, 2, 1))
    assert blk.dtype == np.float64


def test_helmholtz_conjugation_identity():
    # G(x,y; k)^* equals the analytic continuation of G to -k
    mp.mp.dps = 30
    k = 1.3
    spec = KernelSpec("helmholtz", 2, wavenumber=k)
    a = random_cloud(4, 2, 5)
    b = random_cloud(4, 2, 6)
    blk = eval_block(spec, a, b)
    for i in range(4):
        for j in range(4):
            r = np.linalg.norm(a.coords[i] - b.coords[j])
            gneg = complex(0.25j * mp.hankel1(0, -k * mp.mpf(r)))
            assert abs(np.conj(blk[i, j]) - gneg) < 1e-13 * abs(gneg)
    # 3D: trivial by the explicit formula, check anyway
    spec3 = KernelSpec("helmholtz", 3, wavenumber=k)
    a3, b3 = random_cloud(3, 3, 7), random_cloud(3, 3, 8)
    blk3 = eval_block(spec3, a3, b3)
    r3 = np.linalg.norm(a3.coords[:, None] - b3.coords[None, :], axis=2)
    np.testing.assert_allclose(np.conj(blk3), np.exp(-1j * k * r3) / (4 * np.pi * r3),
                               rtol=1e-14)


def test_helmholtz_to_laplace_limit_3d():
    # as k -> 0 the 3D Helmholtz kernel approaches the Laplace kernel
    # directly; the deviation is |e^{ikr} - 1| ~ k r relative
    a = random_cloud(6, 3, 11)
    b = PointSet(random_cloud(6, 3, 12).coords + 5.0)  # well separated
    k = 1e-6
    hb = eval_block(KernelSpec("helmholtz", 3, wavenumber=k), a, b)
    lb = eval_block(KernelSpec("laplace", 3), a, b)
    rmax = np.linalg.norm(a.coords[:, None] - b.coords[None, :], axis=2).max()
    np.testing.assert_allclose(hb.real, lb, rtol=1e-9)
    assert np.abs(hb - lb).max() <= 2 * k * rmax * np.abs(lb).max()


def test_source_weights_scale_columns():
    spec = KernelSpec("laplace", 2)
    src = random_cloud(5, 2, 3)
    w = np.arange(1.0, 6.0)
    srcw = PointSet(src.coords, weights=w)
    tg = random_cloud(4, 2, 4)
    np.testing.assert_allclose(eval_block(spec, tg, srcw),
                               eval_block(spec, tg, src) * w[None, :], rtol=1e-15)


def test_double_layer_requires_normals():
    spec = KernelSpec("laplace", 2, "double")
    with pytest.raises(InvalidInput):
        eval_block(spec, random_cloud(3, 2, 0), random_cloud(3, 2, 1))


def test_dimension_mismatch():
    with pytest.raises(InvalidInput):
        eval_block(KernelSpec("laplace", 2), random_cloud(3, 3, 0), random_cloud(3, 3, 1))


def test_coincident_point_policies():
    spec = KernelSpec("laplace", 2)
    pts = random_cloud(6, 2, 9)
    blk = eval_block(spec, pts, pts)
    assert np.all(np.diag(blk) == 0.0)

    # curvature limit for the 2D Laplace double layer
    th = 2 * np.pi * np.arange(8) / 8
    xy = np.column_stack([np.cos(th), np.sin(th)])
    ps = PointSet(xy, xy, curvatures=np.ones(8))
    spec_d = KernelSpec("laplace", 2, "double", self_interaction="curvature_limit")
    blk = eval_block(spec_d, ps, ps)
    np.testing.assert_allclose(np.diag(blk), -1 / (4 * np.pi), rtol=1e-14)


def test_spec_validation():
    with pytest.raises(InvalidInput):
        KernelSpec("helmholtz", 2)              # k must be positive
    with pytest.raises(InvalidInput):
        KernelSpec("laplace", 2, wavenumber=1)  # k must be zero
    with pytest.raises(InvalidInput):
        KernelSpec("stokes", 2)
    with pytest.raises(InvalidInput):
        KernelSpec("laplace", 4)


@pytest.mark.parametrize("k", [np.inf, np.nan, -np.inf, 1 + 0j, 2.0 + 0.5j, True, "1"],
                         ids=["inf", "nan", "-inf", "complex-real", "complex", "bool", "str"])
def test_helmholtz_wavenumber_must_be_a_finite_positive_real(k):
    # an infinite k made every off-diagonal entry NaN, and a complex one
    # reached a comparison that raised TypeError
    with pytest.raises(InvalidInput, match="finite real wavenumber"):
        KernelSpec("helmholtz", 2, wavenumber=k)


@pytest.mark.parametrize("k", [1, 2.5, np.float64(2.5), np.int64(3)])
def test_real_wavenumbers_of_any_type_are_accepted(k):
    assert KernelSpec("helmholtz", 3, "double", k).wavenumber == k


@pytest.mark.parametrize("layer", ["single", "double"])
def test_laplace2d_blocks_match_closed_forms(layer):
    # targets and sources over several length scales, with close pairs
    rng = np.random.default_rng(21)
    tg = rng.random((40, 2)) * 4 - 2
    src = np.vstack([rng.random((30, 2)) * 4 - 2, tg[:20] + 1e-7 * rng.standard_normal((20, 2))])
    nrm = rng.standard_normal(src.shape)
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    blk = eval_block(KernelSpec("laplace", 2, layer), PointSet(tg), PointSet(src, nrm))
    d = src[None, :, :] - tg[:, None, :]                      # y - x
    r = np.hypot(d[..., 0], d[..., 1])
    if layer == "single":
        want = -np.log(r) / (2 * np.pi)
    else:
        want = -np.einsum("ijk,jk->ij", d, nrm) / (2 * np.pi * r * r)
    assert np.abs(blk - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("spec", [
    KernelSpec("laplace", 2),
    KernelSpec("laplace", 2, "double"),
    KernelSpec("laplace", 2, "double", self_interaction="curvature_limit"),
    KernelSpec("laplace", 3),
], ids=["l2-single", "l2-double", "l2-curvature", "l3-single"])
def test_coincidence_threshold_fill(spec):
    # cloud extent 1, so pairs closer than COINCIDENT_RTOL count as coincident
    d = spec.dim
    tg = np.zeros((1, d))
    src = np.zeros((3, d))
    src[:, 0] = [0.9 * COINCIDENT_RTOL, 1.1 * COINCIDENT_RTOL, 1.0]
    nrm = np.zeros((3, d))
    nrm[:, 0] = 1.0
    kappa = np.array([0.5, 2.0, 3.0])
    blk = eval_block(spec, PointSet(tg), PointSet(src, nrm, curvatures=kappa))[0]
    r = src[:, 0]
    if spec.dim == 3:
        outside = 1 / (4 * np.pi * r)
    elif spec.layer == "single":
        outside = -np.log(r) / (2 * np.pi)
    else:
        outside = -r / (2 * np.pi * r * r)
    inside = -kappa[0] / (4 * np.pi) if spec.self_interaction == "curvature_limit" else 0.0
    assert blk[0] == inside
    np.testing.assert_allclose(blk[1:], outside[1:], rtol=1e-14)


@pytest.mark.parametrize("spec", [
    KernelSpec("laplace", 2), KernelSpec("laplace", 3),
    KernelSpec("helmholtz", 2, wavenumber=1.7), KernelSpec("helmholtz", 3, wavenumber=1.7),
], ids=["l2", "l3", "h2", "h3"])
def test_single_layer_transposes_bitwise_across_chunks(spec, monkeypatch):
    # compress mirrors S and takes one ID per node on this identity, so it
    # must hold however a block is chunked.  The pair (0, 0) is 1e-13 apart:
    # coincident at the whole block's scale (100), not at the first row
    # chunk's own scale (1)
    d = spec.dim
    rng = np.random.default_rng(3)
    tg = rng.random((40, d))
    tg[10:] *= 100
    src = rng.random((30, d))
    src[0] = tg[0]
    src[0, 0] += 1e-13
    tg, src = PointSet(tg), PointSet(src)
    whole = eval_block(spec, tg, src)
    assert whole[0, 0] == 0 and np.all(whole[1:, 1:] != 0)
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 10 * src.n)
    assert np.array_equal(eval_block(spec, tg, src), whole)
    assert np.array_equal(eval_block(spec, src, tg).T, whole)


def _einsum_block(spec, targets, sources):
    """The kernel block as formed from the whole (rows x cols x dim)
    difference tensor and its einsum contractions: a reference copy of the
    formula that ``eval_block`` evaluates axis by axis."""
    x, y = targets.coords, sources.coords
    span = max(float(np.ptp(x, axis=0).max()), float(np.ptp(y, axis=0).max()),
               float(np.abs(x).max()), float(np.abs(y).max()), 1.0)
    diff = x[:, None, :] - y[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff)
    coincident = r2 < (COINCIDENT_RTOL * span) ** 2
    np.putmask(r2, coincident, 1.0)
    k = spec.wavenumber
    if spec.layer == "double":
        ndot = -np.einsum("ijk,jk->ij", diff, sources.normals)
    if spec.equation == "laplace" and spec.dim == 2:
        if spec.layer == "single":
            block = np.log(r2)
            block *= -0.25 / np.pi
        else:
            block = -ndot / (2 * np.pi * r2)
    else:
        rs = np.sqrt(r2)
        if spec.layer == "single":
            if spec.equation == "laplace":
                block = 1.0 / (4 * np.pi * rs)
            elif spec.dim == 2:
                block = 0.25j * (sp.j0(k * rs) + 1j * sp.y0(k * rs))
            else:
                block = np.exp(1j * k * rs) / (4 * np.pi * rs)
        elif spec.equation == "laplace":
            block = -ndot / (4 * np.pi * rs ** 3)
        elif spec.dim == 2:
            block = -0.25j * k * (sp.j1(k * rs) + 1j * sp.y1(k * rs)) * ndot / rs
        else:
            dgdr = np.exp(1j * k * rs) * (1j * k * rs - 1.0) / (4 * np.pi * rs * rs)
            block = dgdr * ndot / rs
    if spec.self_interaction == "zero":
        block = np.where(coincident, np.zeros(1, dtype=block.dtype), block)
    else:
        block = np.where(coincident, -sources.curvatures[None, :] / (4 * np.pi), block)
    if sources.weights is not None:
        block = block * sources.weights[None, :]
    return block


def _grid_cloud(n, d, seed):
    # points on a coarse lattice plus a spread-out random part: many
    # difference components are exactly zero, so signed zeros show, and
    # the targets share points with the sources (coincident pairs); the
    # normals are axis-aligned or random
    rng = np.random.default_rng(seed)
    h = n // 2
    scales = 10.0 ** rng.integers(-3, 3, (n - h, 1))
    coords = np.vstack([rng.integers(-2, 3, (h, d)).astype(float),
                        rng.standard_normal((n - h, d)) * scales])
    normals = rng.standard_normal((n, d))
    normals[:h] = np.eye(d)[rng.integers(0, d, h)] * rng.choice([-1.0, 1.0], (h, 1))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return coords, normals, rng.random(n) + 0.5, rng.standard_normal(n)


@pytest.mark.parametrize("spec", [
    KernelSpec(eq, dim, layer, 1.7 if eq == "helmholtz" else 0.0)
    for eq in ("laplace", "helmholtz") for dim in (2, 3) for layer in ("single", "double")
] + [KernelSpec("laplace", 2, "double", self_interaction="curvature_limit")],
    ids=lambda s: f"{s.equation[0]}{s.dim}-{s.layer}-{s.self_interaction}")
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
@pytest.mark.parametrize("chunked", [False, True], ids=["whole", "chunked"])
def test_eval_block_matches_einsum_formula_bitwise(spec, weighted, chunked, monkeypatch):
    coords, normals, weights, kappa = _grid_cloud(90, spec.dim, 5)
    sources = PointSet(coords, normals, weights if weighted else None, kappa)
    targets = PointSet(np.vstack([coords[::2], coords[:20] + 1e-16]))
    want = _einsum_block(spec, targets, sources)
    assert np.any(want == 0) or spec.self_interaction == "curvature_limit"
    if chunked:
        monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 7 * sources.n)
    got = eval_block(spec, targets, sources)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", [
    KernelSpec(eq, dim, layer, 1.7 if eq == "helmholtz" else 0.0)
    for eq in ("laplace", "helmholtz") for dim in (2, 3) for layer in ("single", "double")
] + [KernelSpec("laplace", 2, "double", self_interaction="curvature_limit")],
    ids=lambda s: f"{s.equation[0]}{s.dim}-{s.layer}-{s.self_interaction}")
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
@pytest.mark.parametrize("chunked", [False, True], ids=["whole", "chunked"])
def test_eval_block_pair_matches_einsum_formula_bitwise(spec, weighted, chunked, monkeypatch):
    # both orientations of a pair, each with its own normals, weights and
    # curvatures, and pairs of points within COINCIDENT_RTOL of each other
    coords, normals, weights, kappa = _grid_cloud(90, spec.dim, 5)
    b_coords, b_normals, b_weights, b_kappa = _grid_cloud(40, spec.dim, 6)
    b_coords[:20] = coords[1:40:2] + 1e-16
    a = PointSet(coords, normals, weights if weighted else None, kappa)
    b = PointSet(b_coords, b_normals, b_weights if weighted else None, b_kappa)
    want_ab, want_ba = _einsum_block(spec, a, b), _einsum_block(spec, b, a)
    for want in (want_ab, want_ba):
        assert np.any(want == 0) or spec.self_interaction == "curvature_limit"
    if chunked:
        monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 7 * b.n)
    got_ab, got_ba = eval_block_pair(spec, a, b)
    for got, want in ((got_ab, want_ab), (got_ba, want_ba)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


_ALL_SPECS = [
    KernelSpec(eq, dim, layer, 1.7 if eq == "helmholtz" else 0.0)
    for eq in ("laplace", "helmholtz") for dim in (2, 3) for layer in ("single", "double")
] + [KernelSpec("laplace", 2, "double", self_interaction="curvature_limit")]


def _spec_id(s):
    return f"{s.equation[0]}{s.dim}-{s.layer}-{s.self_interaction}"


@pytest.mark.parametrize("spec", _ALL_SPECS, ids=_spec_id)
@pytest.mark.parametrize("chunked", [False, True], ids=["whole", "chunked"])
@pytest.mark.parametrize("m", [1, 4])
def test_eval_fields_match_per_set_blocks_bitwise(spec, chunked, m, monkeypatch):
    # each run of sources against its own target set, as eval_block gives
    # it without the source weights.  Each set is classed against its own
    # scale: set 2 is far from the origin, so a pair that is coincident
    # there is not in a set of unit scale, and set 0 holds two sources
    d = spec.dim
    rng = np.random.default_rng(3)
    coords, normals, weights, kappa = _grid_cloud(60, d, 7)
    sources = PointSet(coords, normals, weights, kappa)
    bare = PointSet(coords, normals, None, kappa)
    counts = [15, 0, 25, 20][:m] if m > 1 else [60]
    targets = rng.standard_normal((m, 9, d))
    targets[0, :2] = coords[:2]
    if m > 1:
        targets[2] += 1e3
        targets[2, 0] = coords[15] + 0.5 * COINCIDENT_RTOL * np.abs(targets[2]).max()
    if chunked:
        monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 2 * sources.n)
    got = eval_fields(spec, targets, sources, counts)
    assert got.shape == (9, 60) and got.dtype == spec.dtype
    off = np.concatenate([[0], np.cumsum(counts)])
    for g in range(m):
        run = np.arange(off[g], off[g + 1])
        if run.size:
            want = eval_block(spec, PointSet(targets[g]), bare.subset(run))
            assert np.ascontiguousarray(got[:, run]).tobytes() == want.tobytes()
    coincident = [(0, 0), (1, 1)] + [(0, 15)] * (m > 1)
    for i, j in coincident:
        assert got[i, j] == (0.0 if spec.self_interaction == "zero" else -kappa[j] / (4 * np.pi))


def test_eval_fields_checks_its_runs():
    spec = KernelSpec("laplace", 2)
    sources = random_cloud(10, 2, 1)
    with pytest.raises(InvalidInput, match="runs"):
        eval_fields(spec, np.zeros((2, 4, 2)), sources, [4, 5])
    with pytest.raises(InvalidInput, match="runs"):
        eval_fields(spec, np.zeros((2, 4, 2)), sources, [10])
    with pytest.raises(InvalidInput, match="runs"):
        eval_fields(spec, np.zeros((2, 4, 2)), sources, [12, -2])
    with pytest.raises(InvalidInput, match="of 0 points"):
        eval_fields(spec, np.zeros((1, 0, 2)), sources, [10])
    with pytest.raises(InvalidInput, match="dimension"):
        eval_fields(spec, np.zeros((1, 4, 3)), sources, [10])


def test_eval_block_pair_checks_both_sides():
    spec = KernelSpec("helmholtz", 2, "double", 1.7)
    with_normals = PointSet(random_cloud(5, 2, 1).coords, np.tile([1.0, 0.0], (5, 1)))
    bare = random_cloud(4, 2, 2)
    for a, b in ((with_normals, bare), (bare, with_normals)):
        with pytest.raises(InvalidInput, match="normals"):
            eval_block_pair(spec, a, b)
    with pytest.raises(InvalidInput, match="dimension"):
        eval_block_pair(spec, with_normals, random_cloud(4, 3, 2))


@pytest.mark.parametrize("spec", [
    KernelSpec("laplace", 2), KernelSpec("laplace", 3),
    KernelSpec("laplace", 2, "double", self_interaction="curvature_limit"),
    KernelSpec("helmholtz", 2, "double", 1.7),
], ids=["l2-single", "l3-single", "l2-curvature", "h2-double"])
def test_span_far_from_the_origin_comes_from_the_coordinates(spec):
    # a unit-sized cloud around |c| ~ 3000: the coincidence scale is the
    # largest |coordinate|, not the extent, so a pair 0.5 * COINCIDENT_RTOL
    # * |c| apart is coincident and one 4 * COINCIDENT_RTOL * |c| apart is not
    d = spec.dim
    rng = np.random.default_rng(11)
    c = np.array([1000.0, -3000.0, 500.0][:d])
    scale = float(np.abs(c).max())
    tg = c + rng.random((30, d))
    src = np.vstack([c + rng.random((20, d)), tg[:2]])
    src[-2, 0] += 0.5 * COINCIDENT_RTOL * scale
    src[-1, 0] += 4 * COINCIDENT_RTOL * scale
    nrm = rng.standard_normal(src.shape)
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    sources = PointSet(src, nrm, rng.random(src.shape[0]) + 0.5, rng.standard_normal(src.shape[0]))
    targets = PointSet(tg)
    got = eval_block(spec, targets, sources)
    want = _einsum_block(spec, targets, sources)
    assert got.tobytes() == want.tobytes()
    fill = -sources.curvatures[-2] / (4 * np.pi) * sources.weights[-2] \
        if spec.self_interaction == "curvature_limit" else 0.0
    assert got[0, -2] == fill and got[1, -1] != 0
    # the extent alone would not have made the first pair coincident
    assert np.ptp(np.vstack([tg, src]), axis=0).max() * COINCIDENT_RTOL < 0.5 * COINCIDENT_RTOL * scale
