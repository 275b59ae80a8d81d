import numpy as np
import pytest
from scipy.special import iv

from skelkit import bie, skel
from skelkit.errors import AccuracyWarning, InvalidInput, NotConverged
from skelkit.geom import PointSet, build_tree
from skelkit.kernels import KernelSpec, bessel_h0, eval_block
from skelkit.solver import factor, gmres, solve
from test_skel import (assert_each_entry_evaluated_once, assert_sliced_blocks_are_kernel_blocks,
                       count_block_entries, diagonal_per_call)

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

    @pytest.mark.parametrize("make", [lambda n: bie.ellipse(1.0, 1.0, n), bie.trefoil])
    def test_node_count_must_be_an_integer(self, make):
        # 64.5 nodes would give 65, with weights short of the length
        with pytest.raises(InvalidInput, match="integer"):
            make(64.5)
        with pytest.raises(InvalidInput, match="integer"):
            make(64.0)
        assert make(np.int64(64)).n == 64

    @pytest.mark.parametrize("kwargs", [{"scale": -1.0}, {"scale": 0.0}, {"scale": np.nan},
                                        {"scale": np.inf}, {"center": (np.nan, 0.0)},
                                        {"center": (0.0, -np.inf)}, {"center": (1.0, 2.0, 3.0)},
                                        {"scale": True}, {"scale": "2"},
                                        {"center": (True, False)}, {"center": ("1", "0")}])
    def test_trefoil_scale_and_center_are_checked(self, kwargs):
        # a negative scale flipped every curvature, and with it the Laplace
        # diagonal limit; a non-finite one gave non-finite coordinates
        with pytest.raises(InvalidInput, match="trefoil"):
            bie.trefoil(64, **kwargs)

    @pytest.mark.parametrize("a, b", [(np.nan, 1.0), (1.0, np.inf), (-np.inf, 1.0),
                                      (True, 1.0), (1.0, True), ("2", 1.0)])
    def test_ellipse_semi_axes_must_be_finite(self, a, b):
        with pytest.raises(InvalidInput, match="finite positive semi-axes"):
            bie.ellipse(a, b, 64)

    @pytest.mark.parametrize("field", ["xy", "normals", "curvature", "weights"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_curve_fields_must_be_finite(self, field, bad):
        c = bie.trefoil(64)
        fields = {name: getattr(c, name).copy()
                  for name in ("t", "xy", "normals", "curvature", "weights")}
        fields[field].flat[5] = bad
        with pytest.raises(InvalidInput, match=f"curve {field} must be finite"):
            bie.Curve2D(**fields)

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


@pytest.mark.parametrize("point", [(np.nan, 0.0), (0.0, np.inf), (0.1, 0.2, 0.3), (True, 0.0)],
                         ids=["nan", "inf", "three", "bool"])
def test_points_must_be_two_finite_coordinates(point):
    # a NaN point once wound -2**63 times round the curve, with a
    # RuntimeWarning, so it lay inside: point_source_data took a NaN source
    # for an interior one
    curve = bie.ellipse(2.0, 1.0, 64)
    with pytest.raises(InvalidInput, match="two finite coordinates"):
        bie.contains(curve, point)
    with pytest.raises(InvalidInput, match="two finite coordinates"):
        bie.point_source_data(curve, point, LAPLACE2)
    if point[0] is not True:
        with pytest.raises(InvalidInput, match="two finite coordinates"):
            bie.eval_interior(curve, np.ones(64), LAPLACE2, [point])


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

    def test_density_length_must_match(self, tmp_path):
        curve = bie.circle(1.0, 64)
        for density in (np.ones(63), np.ones((65, 2))):
            with pytest.raises(InvalidInput, match=f"{len(density)} on a curve of 64"):
                bie.eval_interior(curve, density, LAPLACE2, (0.1, 0.1))
            with pytest.raises(InvalidInput, match=f"{len(density)} on a curve of 64"):
                bie.write_density_csv(tmp_path / "d.csv", curve, density)

    def test_density_csv_takes_one_value_per_node(self, tmp_path):
        # a (16, 2) density once wrote the header, then raised numpy's
        # TypeError on the first row, leaving a one-line file
        curve = bie.circle(1.0, 16)
        path = tmp_path / "d.csv"
        with pytest.raises(InvalidInput, match=r"\(16, 2\)"):
            bie.write_density_csv(path, curve, np.ones((16, 2)))
        assert not path.exists()
        # the field of (n, k) densities is (m, k)
        assert bie.eval_interior(curve, np.ones((16, 2)), LAPLACE2, (0.1, 0.1)).shape == (1, 2)

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

    @pytest.mark.parametrize("k", [1 + 0j, np.inf, np.nan, 0.0])
    def test_wavenumber_must_be_a_finite_positive_real(self, k):
        # a complex k once raised TypeError from the k <= 0 comparison
        curves = [bie.trefoil(64), bie.trefoil(64, center=(3.0, 0.0))]
        with pytest.raises(InvalidInput, match="wavenumber"):
            bie.scattering_system(curves, k)

    def test_overlapping_scatterers_rejected(self):
        curves = [bie.trefoil(64), bie.trefoil(64, center=(0.1, 0.0))]
        with pytest.raises(InvalidInput):
            bie.scattering_system(curves, 5.0)

    @pytest.mark.parametrize("center", [0.35 * np.array([np.cos(np.pi / 6), np.sin(np.pi / 6)]),
                                        (0.0, 0.9)], ids=["diagonal-0.35", "vertical-0.9"])
    def test_intersecting_scatterers_rejected(self, center):
        # the centroids and first nodes lie outside the other curve, so
        # these were accepted, though 18 nodes (diagonal) and 1 node
        # (vertical) of each lie inside the other
        curves = [bie.trefoil(64), bie.trefoil(64, center=center)]
        with pytest.raises(InvalidInput, match="overlap"):
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

    def test_preconditioner_refuses_a_vector_of_another_length(self):
        # the preconditioner filled an empty array one scatterer at a time,
        # so a longer vector came back with uninitialized memory in its tail
        sys_, _ = self.make(n=64)
        pinv = sys_.precond_apply(sys_.precond_blocks(eps=1e-8))
        assert pinv(np.ones(sys_.n, dtype=complex)).shape == (sys_.n,)
        for m in (sys_.n + 7, sys_.n - 1):
            with pytest.raises(InvalidInput, match=f"for {sys_.n} unknowns"):
                pinv(np.ones(m, dtype=complex))

    @pytest.mark.parametrize("case", ["longer", "shorter", "inside", "inside-second"])
    def test_scattered_field_checks_its_inputs(self, case):
        # longer densities were cut, shorter ones raised numpy's matmul
        # ValueError, and a target inside a scatterer returned a number
        sys_, _ = self.make(n=64)
        densities, target = np.ones(sys_.n, dtype=complex), (0.75, 2.0)
        assert np.isfinite(sys_.scattered_field(densities, target)).all()
        densities, target, match = {
            "longer": (np.ones(sys_.n + 3, dtype=complex), target, "densities"),
            "shorter": (densities[:-3], target, "densities"),
            "inside": (densities, (0.0, 0.0), "outside every scatterer"),
            "inside-second": (densities, [(0.75, 2.0), (1.5, 0.0)], "outside every scatterer"),
        }[case]
        with pytest.raises(InvalidInput, match=match):
            sys_.scattered_field(densities, target)


@pytest.mark.parametrize("curve", [bie.ellipse(2.0, 1.0, 256), bie.trefoil(192)],
                         ids=["ellipse", "trefoil"])
def test_each_curve_system_holds_its_diagonal(curve):
    # the kernels put 0 on coincident pairs and the systems add their
    # diagonal: -kappa/(4 pi) w - 1/2 bit for bit on the Laplace BIE, -1/2
    # on the Helmholtz BIE and on a scatterer, in blocks of scattered rows
    # and columns and in the whole matrix
    rng = np.random.default_rng(4)
    rows = rng.choice(curve.n, 60, replace=False)
    cols = np.concatenate([rows[::2], rng.choice(curve.n, 40, replace=False)])
    i, j = np.nonzero(rows[:, None] == cols[None, :])
    assert i.size >= 30
    laplace = bie.discretize_dirichlet(curve, LAPLACE2)
    want = -curve.curvature / (4 * np.pi) * curve.weights - 0.5
    assert laplace.block(rows, cols)[i, j].tobytes() == want[rows[i]].tobytes()
    assert np.diag(laplace.matrix()).tobytes() == want.tobytes()
    k = 2 * np.pi * 2.0 / curve.diameter()
    helmholtz = bie.discretize_dirichlet(curve, KernelSpec("helmholtz", 2, wavenumber=k))
    scattering = bie.scattering_system([curve], k)
    for system, whole in ((helmholtz, helmholtz.matrix()), (scattering.scatterers[0],
                                                            scattering.matrix())):
        assert np.all(system.block(rows, cols)[i, j] == -0.5)
        assert np.all(np.diag(whole) == -0.5)


@pytest.mark.parametrize("bad", [[-1], [64], [[63]], [63.0], np.arange(64) == 63, []],
                         ids=["negative", "past-the-end", "2-D", "float", "bool-mask", "empty"])
@pytest.mark.parametrize("kind", ["bie", "scatterer"])
def test_curve_system_block_refuses_bad_node_indices(kind, bad):
    # block([-1], [63]) gave [[0.]] where block([63], [63]) gives the
    # diagonal entry: the coincident pair missed its diagonal.  A bool mask
    # gave a 64 x 1 block, and 64 raised numpy's IndexError
    curve = bie.ellipse(2.0, 1.0, 64)
    system = (bie.discretize_dirichlet(curve, LAPLACE2) if kind == "bie"
              else bie.scattering_system([curve], 1.0).scatterers[0])
    assert system.block([63], [63])[0, 0] == system.diagonal[63] != 0
    for rows, cols in ((bad, [63]), ([63], bad)):
        with pytest.raises(InvalidInput, match="node indices"):
            system.block(rows, cols)


@pytest.mark.parametrize("call", ["discretize", "point_source", "eval_interior"])
def test_curve_routines_refuse_a_3d_kernel(call):
    # KernelSpec("laplace", 3) silently gave the 2D kernel
    curve = bie.circle(1.0, 32)
    spec = KernelSpec("laplace", 3)
    with pytest.raises(InvalidInput, match="2D kernel"):
        if call == "discretize":
            bie.discretize_dirichlet(curve, spec)
        elif call == "point_source":
            bie.point_source_data(curve, (3.0, 0.0), spec)
        else:
            bie.eval_interior(curve, np.ones(32), spec, (0.1, 0.0))


@pytest.mark.parametrize("case", ["leaf40", "helmholtz", "scatterer", "global", "no_level"])
def test_diagonal_added_after_compression_keeps_every_byte(case):
    # compress_system compresses the kernel alone and adds the diagonal to
    # the leaves' D; the container must be the one a source that adds the
    # diagonal on every block call compresses to
    leaf, mode, eps = None, "proxy", 1e-9
    if case == "scatterer":
        curve = bie.trefoil(256)
        system = bie.scattering_system([curve], 2 * np.pi * 2.0 / curve.diameter()).scatterers[0]
    elif case == "helmholtz":
        spec = KernelSpec("helmholtz", 2, wavenumber=10.0)
        system = bie.discretize_dirichlet(bie.ellipse(2.0, 1.0, 1024), spec)
    else:
        n = {"leaf40": 3000, "global": 1024, "no_level": 40}[case]
        system = bie.discretize_dirichlet(bie.ellipse(2.0, 1.0, n), LAPLACE2)
        leaf = 40 if case == "leaf40" else None
        mode = "global" if case == "global" else mode
    tree, cm = bie.compress_system(system, eps, leaf, mode=mode)
    ref = skel.compress_source(
        skel.KernelSource(system.spec, system.points, incoming=system.incoming,
                          block=diagonal_per_call(system.kernel_block, system.diagonal)),
        tree, eps, mode=mode)
    assert skel.serialize_compressed(cm) == skel.serialize_compressed(ref)
    if case == "leaf40":
        # carried leaves: leaves above the finest cover
        assert any(not tree.nodes[i].children for cover in tree.levels[1:] for i in cover)
    assert (cm.nlevels == 0) == (case == "no_level")


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


@pytest.mark.parametrize("points, values", [
    (np.zeros((3, 2)), np.ones(1)), (np.zeros((3, 2)), np.ones(4)),
    (np.zeros((3, 3)), np.ones(3)), (np.zeros((3, 2)), np.ones((3, 1))),
], ids=["fewer-values", "more-values", "three-coordinates", "column-of-values"])
def test_field_csv_refuses_mismatched_input(tmp_path, points, values):
    # zip wrote one row for three points with one value, and points with
    # three columns lost their third coordinate
    with pytest.raises(InvalidInput, match="points of shape"):
        bie.write_field_csv(tmp_path / "field.csv", points, values)
    assert not (tmp_path / "field.csv").exists()


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


@pytest.mark.parametrize("case", ["laplace_bie", "helmholtz_bie", "scatterer", "kernel",
                                  "weighted_kernel"])
def test_proxy_source_matches_definitions(case, monkeypatch):
    # every driver hands compress_source the same adapter; check it against
    # the matrix and the proxy fields it stands for.  Over weighted points
    # the incoming field carries the mean weight, like the weighted columns.
    # A curve system's source is its matrix without the diagonal, which
    # compress_system adds to the compressed matrix afterwards.
    if case in ("kernel", "weighted_kernel"):
        spec = LAPLACE2
        rng = np.random.default_rng(0)
        pts = PointSet(rng.random((300, 2)))
        if case == "weighted_kernel":
            pts = PointSet(pts.coords, None, rng.uniform(0.5, 1.5, 300))
        A = eval_block(spec, pts, pts)
        src, tree = _captured_source(monkeypatch, skel, lambda: skel.compress(
            spec, pts, build_tree(pts), 1e-6))
        wscale = 1.0 if pts.weights is None else float(np.mean(pts.weights))

        def incoming(t, p):
            return wscale * eval_block(spec, t, p)
    elif case == "scatterer":
        curve = bie.trefoil(128)
        k = 2 * np.pi * 2.0 / curve.diameter()
        system = bie.scattering_system([curve], k)
        pts = curve.point_set()
        A = system.matrix() - np.diag(system.scatterers[0].diagonal)
        src, tree = _captured_source(monkeypatch, bie,
                                     lambda: system.precond_blocks(eps=1e-6))
        spec = KernelSpec("helmholtz", 2, "single", k)
        wscale = float(np.mean(pts.weights))

        def incoming(t, p):
            return wscale * bie._neumann_trace_block(k, t, p)
    else:
        eq = LAPLACE2 if case == "laplace_bie" else KernelSpec("helmholtz", 2, wavenumber=10.0)
        system = bie.discretize_dirichlet(bie.ellipse(1.0, 0.5, 256), eq)
        pts, A = system.points, system.matrix() - np.diag(system.diagonal)
        src, tree = _captured_source(monkeypatch, bie,
                                     lambda: bie.compress_system(system, 1e-6))
        spec = system.spec.single_layer()
        wscale = float(np.mean(pts.weights))

        def incoming(t, p):
            return wscale * eval_block(spec, t, p)

    # the source is in point order, whatever the tree's order
    assert (src.n, src.dtype, src.wavenumber) == (pts.n, spec.dtype, spec.wavenumber)
    assert not np.array_equal(tree.perm, np.arange(pts.n))
    idx = np.arange(pts.n)
    np.testing.assert_array_equal(src.block(idx, idx), A)
    rng = np.random.default_rng(1)
    rows, cols = rng.choice(pts.n, 40, replace=False), rng.choice(pts.n, 30, replace=False)
    np.testing.assert_array_equal(src.block(rows, cols), A[np.ix_(rows, cols)])

    # the fields of a group of two nodes, rows and cols, on one proxy surface
    pxy = skel.proxy_points(tree.nodes[tree.levels[0][0]], skel.ProxyConfig(), 2)
    out, inc = src.proxy_fields([rows, cols], np.stack([pxy.coords, pxy.coords]))
    np.testing.assert_array_equal(inc[0], incoming(pts.subset(rows), pxy).T)
    # outgoing fields are the single layer: source normals play no part
    tgt = pts.subset(cols)
    bare = PointSet(tgt.coords, None, tgt.weights)
    np.testing.assert_array_equal(out[1], eval_block(spec, pxy, bare))


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


def _scatterer(n=256):
    curve = bie.trefoil(n)
    return bie.scattering_system([curve], 2 * np.pi * 2.0 / curve.diameter()).scatterers[0]


@pytest.mark.parametrize("case", ["laplace_bie", "helmholtz_bie", "scatterer"])
def test_stacked_blocks_are_sliced_and_pairs_evaluated_once(case, monkeypatch):
    # both halves stacked (source.symmetric is False): the row block of each
    # node is evaluated once; its neighbours' column blocks, the parents' D
    # and the top S are slices of it.  The source evaluates the matrix
    # without its diagonal, and the compressed result holds the whole matrix
    if case == "scatterer":
        system = _scatterer()
    else:
        eq = LAPLACE2 if case == "laplace_bie" else KernelSpec("helmholtz", 2, wavenumber=10.0)
        system = bie.discretize_dirichlet(bie.ellipse(2.0, 1.0, 2048), eq)
    seen = []
    real = bie.compress_source

    def counted(source, tree, *args, **kwargs):
        seen.append((source, tree, count_block_entries(source, tree, monkeypatch)))
        return real(source, tree, *args, **kwargs)

    monkeypatch.setattr(bie, "compress_source", counted)
    _, cm = bie.compress_system(system, 1e-8, 32)
    ((source, tree, counts),) = seen
    assert not source.symmetric
    assert_each_entry_evaluated_once(counts, cm, tree, symmetric=False)
    assert_sliced_blocks_are_kernel_blocks(
        skel.KernelSource(system.spec, system.points, block=system.block), cm)




def _trefoil_grid(n=128, spacing=3.0, side=2):
    # the benchmark's 2x2 grid of identical trefoils (side 2), at a smaller n
    curves = [bie.trefoil(n, center=(spacing * i, spacing * j))
              for i in range(side) for j in range(side)]
    return bie.scattering_system(curves, 2 * np.pi * 2.0 / curves[0].diameter())


def test_translated_scatterers_share_one_inverse(monkeypatch):
    sys_ = _trefoil_grid()
    assert bie._translates(sys_.scatterers) == [0, 0, 0, 0]
    compressed = []
    real = bie.compress_system

    def counted(system, *args, **kwargs):
        compressed.append(system)
        return real(system, *args, **kwargs)

    monkeypatch.setattr(bie, "compress_system", counted)
    facs = sys_.precond_blocks(eps=1e-8)
    assert len(compressed) == 1 and compressed[0] is sys_.scatterers[0]
    assert len(facs) == 4 and all(f is facs[0] for f in facs)


def _rotated(curve, angle, center):
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return bie.Curve2D(curve.t, center + (curve.xy - center) @ rot.T, curve.normals @ rot.T,
                       curve.curvature, curve.weights)


@pytest.mark.parametrize("case", ["n", "k", "scaled", "rotated", "moved"])
def test_other_shapes_are_not_translates(case):
    k = 2 * np.pi * 2.0 / bie.trefoil(128).diameter()
    other, k_other = bie.trefoil(128, center=(3.0, 0.0)), k
    if case == "n":
        other = bie.trefoil(130, center=(3.0, 0.0))
    elif case == "k":
        k_other = 1.1 * k
    elif case == "scaled":
        other = bie.trefoil(128, center=(3.0, 0.0), scale=1.2)
    elif case == "rotated":
        # a trefoil is symmetric under a third of a turn; a tenth is not
        other = _rotated(other, 0.2 * np.pi, np.array([3.0, 0.0]))
        assert not np.array_equal(other.normals, bie.trefoil(128).normals)
    else:
        other.xy[5, 0] += 1e-9
    scatterers = [bie._Scatterer(bie.trefoil(128), k), bie._Scatterer(other, k_other),
                  bie._Scatterer(bie.trefoil(128, center=(0.0, 3.0)), k)]
    assert bie._translates(scatterers) == [0, 1, 0]


def test_shared_inverse_matches_per_scatterer_reference():
    # the reference is the per-scatterer path: each scatterer's own self
    # block in the matrix, and its own compressed and factored inverse
    sys_ = _trefoil_grid()
    off = sys_.offsets()
    A = sys_.matrix()
    A_ref = A.copy()
    for i, s in enumerate(sys_.scatterers):
        idx = np.arange(s.n)
        A_ref[off[i]:off[i + 1], off[i]:off[i + 1]] = s.block(idx, idx)
    ref_facs = [factor(bie.compress_system(s, 1e-8)[1]) for s in sys_.scatterers]
    b = sys_.rhs_plane_wave()
    x, it = gmres(lambda v: A @ v, b, tol=1e-6,
                  precond=sys_.precond_apply(sys_.precond_blocks(eps=1e-8)))
    x_ref, it_ref = gmres(lambda v: A_ref @ v, b, tol=1e-6, precond=sys_.precond_apply(ref_facs))
    assert it == it_ref
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_copied_diagonal_blocks_match_their_own():
    sys_ = _trefoil_grid()
    off = sys_.offsets()
    A = sys_.matrix()
    for i, s in enumerate(sys_.scatterers):
        idx = np.arange(s.n)
        own = s.block(idx, idx)
        got = A[off[i]:off[i + 1], off[i]:off[i + 1]]
        assert np.linalg.norm(got - own) <= 1e-13 * np.linalg.norm(own)


def _per_block_matrix(sys_):
    """The scattering matrix assembled block by block: each cross block
    K(i, j) evaluated on its own, and each diagonal block copied from the
    scatterer's representative."""
    off = sys_.offsets()
    reps = bie._translates(sys_.scatterers)
    A = np.zeros((sys_.n, sys_.n), dtype=np.complex128)
    for i, si in enumerate(sys_.scatterers):
        for j, sj in enumerate(sys_.scatterers):
            bi = slice(off[i], off[i + 1])
            bj = slice(off[j], off[j + 1])
            if i != j:
                A[bi, bj] = bie._neumann_trace_block(sys_.k, si.points, sj.points)
            elif reps[i] != i:
                br = slice(off[reps[i]], off[reps[i] + 1])
                A[bi, bj] = A[br, br]
            else:
                idx = np.arange(si.n)
                A[bi, bj] = si.block(idx, idx)
    return A


def _mixed_pair():
    # a trefoil and a 2:1 ellipse, of different node counts
    ell = bie.ellipse(0.6, 0.3, 150)
    ell.xy += np.array([2.0, 0.5])
    return bie.scattering_system([bie.trefoil(200), ell], 7.3)


def _demo_pair(sep):
    # scripts/scatter_demo.py's layout at one of its separations
    curves = [bie.trefoil(256), bie.trefoil(256, center=(sep, 0.0))]
    return bie.scattering_system(curves, 2 * np.pi * 2.0 / curves[0].diameter())


@pytest.mark.parametrize("make", [_trefoil_grid, _mixed_pair] +
                         [lambda s=s: _demo_pair(s) for s in (3.0, 2.0, 1.5, 1.25)],
                         ids=["grid", "mixed", "demo-3.0", "demo-2.0", "demo-1.5", "demo-1.25"])
def test_matrix_is_the_per_block_assembly_bitwise(make):
    # matrix() evaluates each pair of scatterers once for both cross blocks.
    # The first pair of each class of translates is bitwise; the pairs that
    # copy it are checked by test_copied_cross_blocks_match_their_own
    sys_ = make()
    A = sys_.matrix()
    ref = _per_block_matrix(sys_)
    blk = [slice(a, b) for a, b in zip(sys_.offsets()[:-1], sys_.offsets()[1:])]
    for (i, j), src in bie._shared_pairs(sys_.scatterers, bie._translates(sys_.scatterers)).items():
        if src != (i, j):
            ref[blk[i], blk[j]] = A[blk[i], blk[j]]
            ref[blk[j], blk[i]] = A[blk[j], blk[i]]
    assert A.tobytes() == ref.tobytes()


def _swapped_shapes():
    # two shapes, each listed twice: pair (2, 3) is pair (0, 1) reversed
    big = lambda c: bie.trefoil(256, center=c, scale=1.2)
    curves = [bie.trefoil(256), big((3.0, 0.0)), big((0.0, 3.0)),
              bie.trefoil(256, center=(-3.0, 3.0))]
    return bie.scattering_system(curves, 2 * np.pi * 2.0 / curves[0].diameter())


def _shuffled_grid():
    # a 3x3 grid listed centre first: pair (0, 2) from the centre to a
    # corner is pair (0, 1) to the opposite corner reversed
    sys_ = _trefoil_grid(256, 3.0, 3)
    order = [4, 0, 8, 2, 6, 1, 7, 3, 5]
    return bie.scattering_system([sys_.scatterers[i].curve for i in order], sys_.k)


def _other_shape_grid(case):
    # the 2x2 grid with scatterer 1 replaced by another shape: pair (2, 3)
    # has pair (0, 1)'s offset and pair (1, 3) pair (0, 2)'s, but neither
    # has the same shapes
    curves = [bie.trefoil(64, center=(3.0 * i, 3.0 * j)) for i in range(2) for j in range(2)]
    if case == "n":
        curves[1] = bie.trefoil(66, center=(0.0, 3.0))
    elif case == "scaled":
        curves[1] = bie.trefoil(64, center=(0.0, 3.0), scale=1.2)
    elif case == "rotated":
        curves[1] = _rotated(curves[1], 0.2 * np.pi, np.array([0.0, 3.0]))
    else:
        curves[1].xy[5, 0] += 1e-9
    return bie.scattering_system(curves, 2 * np.pi * 2.0 / curves[0].diameter())


@pytest.mark.parametrize("make, calls", [
    (lambda: _trefoil_grid(64), 4), (lambda: _trefoil_grid(64, side=3), 12),
    (lambda: _trefoil_grid(64, side=4), 24), (lambda: _trefoil_grid(64, 0.91, 3), 12),
    (_mixed_pair, 1), (_swapped_shapes, 5), (_shuffled_grid, 12)] +
    [(lambda s=s: _demo_pair(s), 1) for s in (3.0, 2.0, 1.5, 1.25)] +
    [(lambda c=c: _other_shape_grid(c), 6) for c in ("n", "scaled", "rotated", "moved")],
    ids=["2x2", "3x3", "4x4", "3x3-0.91", "mixed", "swapped-shapes", "shuffled-3x3",
         "demo-3.0", "demo-2.0", "demo-1.5", "demo-1.25",
         "other-n", "other-scaled", "other-rotated", "other-moved"])
def test_pairs_at_one_offset_are_evaluated_once(make, calls, monkeypatch):
    sys_ = make()
    seen = []
    real = bie._neumann_trace_pair

    def counted(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(bie, "_neumann_trace_pair", counted)
    sys_.matrix()
    assert len(seen) == calls


@pytest.mark.parametrize("make, bound", [
    (lambda: _trefoil_grid(256), 2e-15), (lambda: _trefoil_grid(256, side=3), 1e-14),
    (lambda: _trefoil_grid(256, 0.91, 3), 7e-15), (_swapped_shapes, 4e-15),
    (_shuffled_grid, 1e-14)], ids=["2x2", "3x3", "3x3-0.91", "swapped-shapes", "shuffled-3x3"])
def test_copied_cross_blocks_match_their_own(make, bound):
    # a copied block is its class's block bit for bit, and within about
    # twice the measured error of the block evaluated on its own scatterers
    # (relative Frobenius norm, trefoil(256) at 2 wavelengths: 9.7e-16,
    # 4.8e-15, 3.4e-15, 1.8e-15 and 4.8e-15; at spacing 0.91 the lobes of
    # vertical neighbours nearly touch, and below 0.9005 they cross)
    sys_ = make()
    A = sys_.matrix()
    blk = [slice(a, b) for a, b in zip(sys_.offsets()[:-1], sys_.offsets()[1:])]
    shared = bie._shared_pairs(sys_.scatterers, bie._translates(sys_.scatterers))
    copied = [(ij, pq) for ij, pq in shared.items() if ij != pq]
    assert copied
    for (i, j), (p, q) in copied:
        for (a, b), (c, d) in (((i, j), (p, q)), ((j, i), (q, p))):
            got = A[blk[a], blk[b]]
            assert got.tobytes() == A[blk[c], blk[d]].tobytes()
            own = bie._neumann_trace_block(sys_.k, sys_.scatterers[a].points,
                                           sys_.scatterers[b].points)
            assert np.linalg.norm(got - own) <= bound * np.linalg.norm(own)


def test_neumann_trace_pair_is_both_blocks_bitwise():
    # weighted and unweighted sources, and sets of different sizes
    k = 2 * np.pi * 2.0 / bie.trefoil(128).diameter()
    pa, pb = bie.trefoil(128).point_set(), bie.trefoil(96, center=(2.0, 1.0)).point_set()
    bare = PointSet(pb.coords, pb.normals)
    for a, b in ((pa, pb), (pb, pa), (pa, bare)):
        ab, ba = bie._neumann_trace_pair(k, a, b)
        assert ab.tobytes() == bie._neumann_trace_block(k, a, b).tobytes()
        assert ba.tobytes() == bie._neumann_trace_block(k, b, a).tobytes()
