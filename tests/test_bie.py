import numpy as np
import pytest
from scipy.special import iv

from skelkit import bie, skel
from skelkit.errors import AccuracyWarning, InvalidInput, NotConverged
from skelkit.geom import PointSet, build_tree
from skelkit.kernels import KernelSpec, bessel_h0, eval_block
from skelkit.solver import gmres, solve

LAPLACE2 = KernelSpec("laplace", 2)


class TestCurves:
    def test_ellipse_fields(self):
        c = bie.ellipse(2.0, 1.0, 64)
        assert c.n == 64
        np.testing.assert_allclose(np.linalg.norm(c.normals, axis=1), 1.0, rtol=1e-14)
        assert np.all(c.weights > 0)
        # curvature extremes of an ellipse: a/b^2 at the ends of the minor
        # axis, b/a^2 at the ends of the major axis
        assert c.curvature.max() == pytest.approx(2.0, rel=1e-12)
        assert c.curvature.min() == pytest.approx(0.25, rel=1e-12)
        # total arclength via the weights (oracle: quadrature of |x'|)
        from scipy.integrate import quad
        ref, _ = quad(lambda t: np.hypot(2 * np.sin(t), np.cos(t)), 0, 2 * np.pi,
                      limit=200)
        assert c.weights.sum() == pytest.approx(ref, rel=1e-10)

    def test_circle_is_unit_curvature(self):
        c = bie.circle(1.0, 32)
        np.testing.assert_allclose(c.curvature, 1.0, rtol=1e-14)
        np.testing.assert_allclose(c.weights, 2 * np.pi / 32, rtol=1e-14)

    def test_trefoil_closed_and_outward(self):
        c = bie.trefoil(256)
        # normals point away from the centroid on this star-shaped curve
        rad = c.xy - c.xy.mean(0)
        assert np.all(np.einsum("ij,ij->i", rad, c.normals) > 0)
        # curvature of r(t)=(2+cos 3t)/6 at t=0: (r^2+2r'^2-r r'')/(r^2+r'^2)^1.5
        r0, ddr0 = 0.5, -1.5
        kappa0 = (r0 ** 2 - r0 * ddr0) / r0 ** 3
        assert c.curvature[0] == pytest.approx(kappa0, rel=1e-12)

    def test_winding(self):
        c = bie.ellipse(2.0, 1.0, 128)
        assert bie.contains(c, (0.0, 0.0))
        assert bie.contains(c, (1.5, 0.3))
        assert not bie.contains(c, (2.5, 0.0))
        assert not bie.contains(c, (0.0, 1.5))


class TestKapurRokhlin:
    def test_moment_free_convergence(self):
        # oracle: int_0^{2pi} e^{cos t} log|2 sin(t/2)| dt = -2 pi sum I_n(1)/n
        # (Fourier series of the periodic log kernel against the Bessel
        # expansion of e^{cos t})
        exact = -2 * np.pi * sum(iv(nn, 1.0) / nn for nn in range(1, 60))

        def f(t):
            with np.errstate(divide="ignore"):
                return np.exp(np.cos(t)) * np.log(np.abs(2 * np.sin(t / 2)))

        def kr_rule(N):
            h = 2 * np.pi / N
            t = h * np.arange(N)
            vals = f(t)
            vals[0] = 0.0
            s = vals.sum()
            for ell, g in enumerate(bie.KR10_GAMMA, 1):
                s += g * (f(np.array([ell * h]))[0] + f(np.array([(N - ell) * h]))[0])
            return h * s

        def plain_rule(N):
            h = 2 * np.pi / N
            vals = f(h * np.arange(N))
            vals[0] = 0.0
            return h * vals.sum()

        assert abs(kr_rule(320) - exact) < 1e-12
        assert abs(plain_rule(320) - exact) > 1e-2
        # empirical order ~10 between N=40 and N=80
        e1, e2 = abs(kr_rule(40) - exact), abs(kr_rule(80) - exact)
        assert np.log2(e1 / e2) > 7.0

    def test_weights_sum_matches_lattice_identity(self):
        # sum_{j=1}^{N-1} log(2 sin(pi j / N)) = log N: the corrected rule
        # must integrate log|2 sin(t/2)| (whose integral is 0) accurately
        N = 200
        h = 2 * np.pi / N
        t = h * np.arange(1, N)
        s = np.log(2 * np.sin(t / 2)).sum()
        for ell, g in enumerate(bie.KR10_GAMMA, 1):
            s += g * (np.log(2 * np.sin(ell * h / 2)) + np.log(2 * np.sin((N - ell) * h / 2)))
        assert abs(h * s) < 1e-12


class TestDirichletSystem:
    @pytest.mark.parametrize("curve", [bie.circle(1.0, 64), bie.circle(1.0, 256),
                                       bie.circle(1.0, 1024),
                                       bie.ellipse(2.0, 1.0, 64),
                                       bie.ellipse(2.0, 1.0, 256),
                                       bie.ellipse(2.0, 1.0, 1024)])
    def test_gauss_identity(self, curve):
        system = bie.discretize_dirichlet(curve, LAPLACE2)
        ones = np.ones(curve.n)
        np.testing.assert_allclose(system.matrix() @ ones, -ones, atol=1e-10)

    def test_circle_offdiagonal_entries(self):
        n = 64
        system = bie.discretize_dirichlet(bie.circle(1.0, n), LAPLACE2)
        A = system.matrix()
        w = 2 * np.pi / n
        offdiag = A[~np.eye(n, dtype=bool)]
        np.testing.assert_allclose(offdiag, -w / (4 * np.pi), rtol=1e-12)

    def test_spectral_convergence_on_ellipse(self):
        spec = LAPLACE2
        src = np.array([4.0, 3.0])
        chk = np.array([0.4, -0.15])
        uex = None
        errs = []
        for n in (64, 128):
            curve = bie.ellipse(2.0, 1.0, n)
            system = bie.discretize_dirichlet(curve, spec)
            rhs = bie.point_source_data(curve, src, spec)
            sigma = np.linalg.solve(system.matrix(), rhs)
            u = bie.eval_interior(curve, sigma, spec, chk)[0]
            if uex is None:
                from skelkit.geom import PointSet
                from skelkit.kernels import eval_block
                uex = eval_block(spec, PointSet(chk.reshape(1, 2)),
                                 PointSet(src.reshape(1, 2)))[0, 0]
            errs.append(abs(u - uex) / abs(uex))
        # the n=128 error can be exactly 0.0, so no division
        assert errs[0] >= 10.0 * errs[1]

    def test_helmholtz_system_solves(self):
        # manufactured solution: field of an exterior source evaluated at an
        # interior checkpoint
        k = 2 * np.pi * 2.0 / 4.0   # two wavelengths across the ellipse
        hspec = KernelSpec("helmholtz", 2, wavenumber=k)
        curve = bie.ellipse(2.0, 1.0, 512)
        system = bie.discretize_dirichlet(curve, hspec)
        rhs = bie.point_source_data(curve, (4.0, 3.0), hspec)
        sigma = np.linalg.solve(system.matrix(), rhs)
        chk = np.array([0.35, -0.2])
        u = bie.eval_interior(curve, sigma, hspec, chk)[0]
        uex = 0.25j * bessel_h0(k * np.linalg.norm(chk - np.array([4.0, 3.0])))
        assert abs(u - uex) / abs(uex) < 1e-7


class TestPointSourceData:
    def test_unit_distance_entry_vanishes(self):
        curve = bie.circle(1.0, 8)
        # source at distance exactly 1 from the node at angle 0
        src = np.array([2.0, 0.0])
        rhs = bie.point_source_data(curve, src, LAPLACE2)
        assert rhs[0] == 0.0

    def test_linearity_in_strength(self):
        curve = bie.circle(1.0, 32)
        rhs = bie.point_source_data(curve, (3.0, 1.0), LAPLACE2)
        np.testing.assert_allclose(2.5 * rhs, 2.5 * rhs)  # trivially linear

    def test_helmholtz_modulus(self):
        k = 2.0
        hspec = KernelSpec("helmholtz", 2, wavenumber=k)
        curve = bie.circle(1.0, 16)
        src = np.array([3.0, 0.5])
        rhs = bie.point_source_data(curve, src, hspec)
        r = np.linalg.norm(curve.xy - src, axis=1)
        np.testing.assert_allclose(np.abs(rhs), np.abs(bessel_h0(k * r)) / 4, rtol=1e-13)

    def test_interior_source_rejected(self):
        curve = bie.ellipse(2.0, 1.0, 64)
        with pytest.raises(InvalidInput):
            bie.point_source_data(curve, (0.5, 0.2), LAPLACE2)


class TestEvalInterior:
    def test_constant_density_gauss(self):
        for curve in (bie.circle(1.0, 256), bie.trefoil(256)):
            u = bie.eval_interior(curve, np.ones(curve.n), LAPLACE2,
                                  curve.xy.mean(0) * 0)
            assert u[0] == pytest.approx(-1.0, abs=1e-10)

    def test_zero_density(self):
        curve = bie.circle(1.0, 64)
        assert np.all(bie.eval_interior(curve, np.zeros(64), LAPLACE2, (0.1, 0.1)) == 0)

    def test_near_boundary_warns(self):
        curve = bie.circle(1.0, 64)
        with pytest.warns(AccuracyWarning):
            bie.eval_interior(curve, np.ones(64), LAPLACE2, (0.999, 0.0))

    def test_exterior_target_rejected(self):
        curve = bie.circle(1.0, 64)
        with pytest.raises(InvalidInput):
            bie.eval_interior(curve, np.ones(64), LAPLACE2, (2.0, 0.0))


class TestScattering:
    def make(self, n=128, omega=2.0, sep=1.5, count=2):
        centers = [(i * sep, 0.0) for i in range(count)]
        curves = [bie.trefoil(n, center=c) for c in centers]
        k = 2 * np.pi * omega / curves[0].diameter()
        return bie.scattering_system(curves, k), k

    def test_single_scatterer_preconditioner_is_exact(self):
        sys_, _ = self.make(count=1)
        A = sys_.matrix()
        b = sys_.rhs_plane_wave()
        pinv = sys_.precond_apply(sys_.precond_blocks(eps=1e-9))
        x, it = gmres(lambda v: A @ v, b, tol=1e-6, precond=pinv)
        assert it <= 3
        xd = np.linalg.solve(A, b)
        assert np.linalg.norm(x - xd) / np.linalg.norm(xd) <= 1e-6

    def test_two_scatterers_preconditioning(self):
        sys_, _ = self.make(n=128)
        A = sys_.matrix()
        b = sys_.rhs_plane_wave()
        pinv = sys_.precond_apply(sys_.precond_blocks(eps=1e-8))
        try:
            x_plain, it_plain = gmres(lambda v: A @ v, b, tol=1e-6)
        except NotConverged as exc:  # pragma: no cover
            x_plain, it_plain = exc.x, exc.iterations
        x_prec, it_prec = gmres(lambda v: A @ v, b, tol=1e-6, precond=pinv)
        assert it_prec * 5 <= it_plain
        chk = np.array([0.75, 2.0])
        u1 = sys_.scattered_field(x_plain, chk)[0]
        u2 = sys_.scattered_field(x_prec, chk)[0]
        assert abs(u1 - u2) / abs(u1) <= 1e-5

    def test_iteration_count_monotone_in_separation(self):
        # closer scatterers couple more strongly: preconditioned counts may
        # not drop by more than the +-2 slack as separation shrinks
        counts = []
        for sep in (3.0, 2.0, 1.4):
            sys_, _ = self.make(n=96, sep=sep)
            A = sys_.matrix()
            b = sys_.rhs_plane_wave()
            pinv = sys_.precond_apply(sys_.precond_blocks(eps=1e-8))
            _, it = gmres(lambda v: A @ v, b, tol=1e-6, precond=pinv)
            counts.append(it)
        for wide, tight in zip(counts, counts[1:]):
            assert tight >= wide - 2

    def test_overlapping_scatterers_rejected(self):
        curves = [bie.trefoil(64), bie.trefoil(64, center=(0.1, 0.0))]
        with pytest.raises(InvalidInput):
            bie.scattering_system(curves, 5.0)

    def test_direct_and_gmres_agree(self):
        # one scatterer: compressed direct solve of the self block against
        # dense GMRES on the same matrix
        sys_, _ = self.make(count=1, n=128)
        A = sys_.matrix()
        b = sys_.rhs_plane_wave()
        fi = sys_.precond_blocks(eps=1e-9)[0]
        x_direct = solve(fi, b)
        x_iter, _ = gmres(lambda v: A @ v, b, tol=1e-10)
        assert np.linalg.norm(x_direct - x_iter) / np.linalg.norm(x_iter) <= 1e-6


def test_compress_system_supports_direct_and_iterative_paths():
    curve = bie.ellipse(2.0, 1.0, 512)
    system = bie.discretize_dirichlet(curve, LAPLACE2)
    rhs = bie.point_source_data(curve, (4.0, 3.0), LAPLACE2)
    eps = 1e-9
    sigma_direct, cm, fi = bie.solve_dirichlet(system, rhs, eps)
    A = system.matrix()
    sigma_iter, _ = gmres(lambda v: A @ v, rhs, tol=1e-10)
    kappa = np.linalg.cond(A)
    tol = 10 * max(1e-10, eps * kappa)
    assert np.linalg.norm(sigma_direct - sigma_iter) / np.linalg.norm(sigma_iter) <= tol


def test_density_and_field_csv(tmp_path):
    curve = bie.circle(1.0, 32)
    system = bie.discretize_dirichlet(curve, LAPLACE2)
    rhs = bie.point_source_data(curve, (3.0, 0.0), LAPLACE2)
    sigma = np.linalg.solve(system.matrix(), rhs)
    dpath = tmp_path / "density.csv"
    bie.write_density_csv(dpath, curve, sigma)
    lines = dpath.read_text().strip().splitlines()
    assert lines[0] == "t,x,y,sigma_re,sigma_im"
    assert len(lines) == 33
    back = np.array([float(ln.split(",")[3]) for ln in lines[1:]])
    np.testing.assert_array_equal(back, sigma)

    targets = np.array([[0.0, 0.0], [0.2, 0.1]])
    u = bie.eval_interior(curve, sigma, LAPLACE2, targets)
    fpath = tmp_path / "field.csv"
    bie.write_field_csv(fpath, targets, u)
    assert fpath.read_text().startswith("x,y,u_re,u_im")


def test_helmholtz_direct_solve_paper_frequency():
    # ten wavelengths across the ellipse: the full complex pipeline
    # (Kapur-Rokhlin system, compression, telescoping inverse)
    k = 2 * np.pi * 10.0 / 4.0
    spec = KernelSpec("helmholtz", 2, wavenumber=k)
    curve = bie.ellipse(2.0, 1.0, 1024)
    system = bie.discretize_dirichlet(curve, spec)
    rhs = bie.point_source_data(curve, (4.0, 3.0), spec)
    sigma, cm, fi = bie.solve_dirichlet(system, rhs, 1e-9)
    assert fi.warnings == []
    chk = np.array([0.3, -0.2])
    u = bie.eval_interior(curve, sigma, spec, chk)[0]
    uex = 0.25j * bessel_h0(k * np.linalg.norm(chk - np.array([4.0, 3.0])))
    assert abs(u - uex) / abs(uex) < 1e-6


def test_tiny_curve_degenerate_tree():
    # whole curve fits in one leaf: the solver runs through the dense path
    curve = bie.circle(1.0, 48)
    system = bie.discretize_dirichlet(curve, LAPLACE2)
    rhs = bie.point_source_data(curve, (3.0, 0.0), LAPLACE2)
    sigma, cm, fi = bie.solve_dirichlet(system, rhs, 1e-9, max_leaf_size=64)
    assert cm.nlevels == 0
    ref = np.linalg.solve(system.matrix(), rhs)
    np.testing.assert_allclose(sigma, ref, rtol=1e-10)


def _captured_source(monkeypatch, module, run):
    """The (source, tree) that ``run`` hands to ``module.compress_source``."""
    seen = []
    real = module.compress_source

    def capture(source, tree, *args, **kwargs):
        seen.append((source, tree))
        return real(source, tree, *args, **kwargs)

    monkeypatch.setattr(module, "compress_source", capture)
    run()
    assert len(seen) == 1
    return seen[0]


@pytest.mark.parametrize("case", ["laplace_bie", "helmholtz_bie", "scatterer", "kernel"])
def test_proxy_source_matches_definitions(case, monkeypatch):
    # every driver hands compress_source the same adapter; check it against
    # the matrix and the proxy fields it stands for
    if case == "kernel":
        spec = LAPLACE2
        pts = PointSet(np.random.default_rng(0).random((300, 2)))
        A = eval_block(spec, pts, pts)
        src, tree = _captured_source(monkeypatch, skel, lambda: skel.compress(
            spec, pts, build_tree(pts), 1e-6))

        def incoming(t, p):
            return eval_block(spec, t, p)
    elif case == "scatterer":
        curve = bie.trefoil(128)
        k = 2 * np.pi * 2.0 / curve.diameter()
        system = bie.scattering_system([curve], k)
        pts, A = curve.point_set(), system.matrix()
        src, tree = _captured_source(monkeypatch, bie,
                                     lambda: system.precond_blocks(eps=1e-6))
        spec = KernelSpec("helmholtz", 2, "single", k)
        wscale = float(np.mean(pts.weights[tree.perm]))

        def incoming(t, p):
            return wscale * bie._neumann_trace_block(k, t, p)
    else:
        eq = LAPLACE2 if case == "laplace_bie" else KernelSpec("helmholtz", 2, wavenumber=10.0)
        system = bie.discretize_dirichlet(bie.ellipse(1.0, 0.5, 256), eq)
        pts, A = system.points, system.matrix()
        src, tree = _captured_source(monkeypatch, bie,
                                     lambda: bie.compress_system(system, 1e-6))
        spec = system.spec.single_layer()
        wscale = float(np.mean(pts.weights[tree.perm]))

        def incoming(t, p):
            return wscale * eval_block(spec, t, p)

    perm = tree.perm
    assert (src.n, src.dtype, src.wavenumber) == (pts.n, spec.dtype, spec.wavenumber)
    assert not np.array_equal(perm, np.arange(pts.n))   # tree order is not point order
    idx = np.arange(pts.n)
    np.testing.assert_array_equal(src.block(idx, idx), A[np.ix_(perm, perm)])
    rng = np.random.default_rng(1)
    rows, cols = rng.choice(pts.n, 40, replace=False), rng.choice(pts.n, 30, replace=False)
    np.testing.assert_array_equal(src.block(rows, cols), A[np.ix_(perm[rows], perm[cols])])

    pxy = skel.proxy_points(tree.nodes[tree.levels[0][0]], skel.ProxyConfig(), 2)
    np.testing.assert_array_equal(src.proxy_row_block(rows, pxy),
                                  incoming(pts.subset(perm[rows]), pxy))
    # outgoing fields are the single layer: source normals play no part
    tgt = pts.subset(perm[cols])
    bare = PointSet(tgt.coords, None, tgt.weights)
    np.testing.assert_array_equal(src.proxy_col_block(cols, pxy), eval_block(spec, pxy, bare))


def _closed_form_neumann_trace(k, targets, sources, kr_dist=None):
    """Reference: -(ik/4) H1(kr) (x-y).nu_x / r times the source weights,
    zero at coincident pairs, written out without ``eval_block``."""
    from scipy import special as sp
    diff = targets.coords[:, None, :] - sources.coords[None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=2))
    same = r < 1e-14
    rs = np.where(same, 1.0, r)
    ndotx = np.einsum("ijk,ik->ij", diff, targets.normals)
    blk = -0.25j * k * (sp.j1(k * rs) + 1j * sp.y1(k * rs)) * ndotx / rs
    blk = np.where(same, 0.0, blk)
    if kr_dist is not None:
        blk = bie._kr_correct(blk, kr_dist)
    if sources.weights is not None:
        blk = blk * sources.weights[None, :]
    return blk


def test_neumann_trace_is_the_swapped_double_layer():
    # the Neumann trace goes through eval_block; it must equal the closed
    # form bit for bit on self blocks (Kapur-Rokhlin corrected), on blocks
    # between two scatterers and on proxy rows
    a, b = bie.trefoil(128), bie.trefoil(128, center=(3.0, 0.0))
    k = 2 * np.pi * 2.0 / a.diameter()
    pa, pb = a.point_set(), b.point_set()
    rng = np.random.default_rng(3)
    idx = np.arange(128)
    rows, cols = np.sort(rng.choice(128, 50, replace=False)), np.arange(40, 100)
    tree = build_tree(pa, 32)
    proxy = skel.proxy_points(tree.nodes[tree.levels[0][0]], skel.ProxyConfig(), 2)
    cases = [(pa, pa, bie._cyclic_distance(idx, idx, 128)), (pa, pa, None),
             (pa.subset(rows), pa.subset(cols), bie._cyclic_distance(rows, cols, 128)),
             (pa, pb, None), (pb, pa, None), (pa.subset(rows), proxy, None)]
    for tgt, src, kr in cases:
        np.testing.assert_array_equal(bie._neumann_trace_block(k, tgt, src, kr_dist=kr),
                                      _closed_form_neumann_trace(k, tgt, src, kr_dist=kr))


@pytest.mark.parametrize("eps", [1e-6, 1e-10])
def test_scatterer_compression_meets_eps(eps, monkeypatch):
    # the scatterer's proxy rows carry the mean quadrature weight, like its
    # self-block entries; unscaled (about 85x larger at n=256) they biased
    # the rank cutoff, and the compressed self-system missed eps by 2.4x at
    # 1e-6 and 1.7x at 1e-10
    curve = bie.trefoil(1024)
    k = 2 * np.pi * 2.0 / curve.diameter()
    system = bie.scattering_system([curve], k)
    seen = []
    real = bie.compress_source

    def capture(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(bie, "compress_source", capture)
    system.precond_blocks(eps=eps)
    A = system.matrix()
    err = skel.apply(seen[0], np.eye(curve.n, dtype=A.dtype)) - A
    assert np.linalg.norm(err) <= 1.5 * eps * np.linalg.norm(A)
