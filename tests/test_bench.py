from types import SimpleNamespace

import numpy as np
import pytest

from skelkit.bench import (CSV_COLUMNS, BenchRecord, RunConfig,
                           _apply_bench_one, fit_exponent, main, make_kernel,
                           make_points, run, write_csv)
from skelkit.errors import InvalidInput
from skelkit.skel import (ProxyConfig, proxy_points, proxy_radius,
                          serialize_compressed)


class TestFitExponent:
    def test_linear_power_law(self):
        ns = [512, 1024, 2048, 4096, 8192]
        recs = [(n, 3.7e-6 * n) for n in ns]
        assert fit_exponent(recs) == pytest.approx(1.0, abs=0.01)

    def test_three_halves_power_law(self):
        ns = [512, 1024, 2048, 4096, 8192]
        recs = [(n, 2.2e-8 * n ** 1.5) for n in ns]
        assert fit_exponent(recs) == pytest.approx(1.5, abs=0.01)

    def test_ignores_smallest_n(self):
        ns = [512, 1024, 2048, 4096, 8192]
        recs = [(512, 50.0)] + [(n, 1e-6 * n) for n in ns[1:]]
        assert fit_exponent(recs) == pytest.approx(1.0, abs=0.01)

    def test_needs_four_points(self):
        with pytest.raises(InvalidInput):
            fit_exponent([(1, 1.0), (2, 2.0), (4, 4.0)])

    @pytest.mark.parametrize("t", [None, float("nan"), float("inf"), 0.0, -1e-3])
    def test_times_must_be_finite_and_positive(self, t):
        # four records with Tcm = None returned a nan slope, and a zero time
        # a nan slope after a RuntimeWarning from log
        ns = (512, 1024, 2048, 4096)
        for i in (0, 2):
            recs = [BenchRecord(N=n, Tcm=t if j == i else 1e-6 * n) for j, n in enumerate(ns)]
            with pytest.raises(InvalidInput, match=f"record {i} has Tcm"):
                fit_exponent(recs)

    def test_sizes_must_be_positive(self):
        # increasing N through zero passed the order check, and the fit on
        # the logs of negative N failed in LAPACK with numpy's LinAlgError
        recs = [(-4, 1.0), (-2, 2.0), (-1, 3.0), (1, 4.0), (2, 5.0)]
        with pytest.raises(InvalidInput, match="record 0 has N = -4"):
            fit_exponent(recs)
        with pytest.raises(InvalidInput, match="record 0 has N = 0"):
            fit_exponent([(0, 1.0), (1, 2.0), (2, 3.0), (4, 4.0)])

    def test_accepts_records(self):
        recs = [BenchRecord(N=n, Tcm=1e-6 * n) for n in (512, 1024, 2048, 4096)]
        assert fit_exponent(recs) == pytest.approx(1.0, abs=0.01)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            RunConfig(experiment="nope")
        with pytest.raises(InvalidInput):
            RunConfig(experiment="apply_bench", geometry="torus")
        with pytest.raises(InvalidInput):
            RunConfig(experiment="apply_bench", ns=(1024, 512))
        with pytest.raises(InvalidInput):
            RunConfig(experiment="apply_bench", ns=())
        with pytest.raises(InvalidInput):
            RunConfig(experiment="apply_bench", eps=2.0)

    @pytest.mark.parametrize("field, value", [
        ("ns", (64.7,)), ("ns", (True,)), ("ns", ("64",)), ("seed", True), ("seed", 2.5)],
        ids=["ns-fraction", "ns-bool", "ns-str", "seed-bool", "seed-fraction"])
    def test_counts_must_be_integers(self, field, value):
        # ns=(64.7,) was truncated to 64, ns=(True,) and seed=True were
        # taken, and seed=2.5 passed only to fail in run with numpy's TypeError
        with pytest.raises(InvalidInput, match="integer"):
            RunConfig(experiment="apply_bench", **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("eps", "1e-6"), ("eps", None), ("eps", 1e-6j), ("tol", "1e-6"), ("tol", None),
        ("tol", 1e-6j)])
    def test_tolerances_must_be_real_numbers(self, field, value):
        # each once raised TypeError from the comparison with 0 and 1
        with pytest.raises(InvalidInput, match=field):
            RunConfig(experiment="apply_bench", **{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = RunConfig(experiment="apply_bench", ns=(np.int64(64),), seed=np.int64(3))
        assert cfg.ns == (64,) and cfg.seed == 3

    def test_kernel_parsing(self):
        cfg = RunConfig(experiment="apply_bench", geometry="circle",
                        kernel="helmholtz2d", omega=10.0)
        spec = make_kernel(cfg)
        # omega = (k / 2 pi) * diam, circle diam = 2
        assert spec.wavenumber == pytest.approx(10.0 * np.pi)
        with pytest.raises(InvalidInput):
            make_kernel(RunConfig(experiment="apply_bench", kernel="stokes2d"))

    def test_geometry_generators(self):
        for geo, d in [("circle", 2), ("square", 2), ("sphere", 3), ("cube", 3),
                       ("ellipse", 2)]:
            pts = make_points(geo, 100, seed=0)
            assert pts.n == 100 and pts.dim == d
        s = make_points("sphere", 64, 0)
        np.testing.assert_allclose(np.linalg.norm(s.coords, axis=1), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("n", [32, 64, 512, 1000])
    def test_sphere_points_are_the_proxy_spiral(self, n):
        # the formula both generators used before they shared one
        i = np.arange(n) + 0.5
        z = 1.0 - 2.0 * i / n
        rho = np.sqrt(np.clip(1 - z * z, 0, None))
        th = np.pi * (3 - np.sqrt(5.0)) * i
        ref = np.column_stack([rho * np.cos(th), rho * np.sin(th), z])
        assert np.array_equal(make_points("sphere", n, seed=0).coords, ref)
        box = SimpleNamespace(center=np.array([0.25, -1.5, 3.0]), halfwidth=0.375)
        cfg = ProxyConfig(n_proxy=n)
        want = box.center + proxy_radius(box.halfwidth, cfg, 3) * ref
        assert np.array_equal(proxy_points(box, cfg, 3).coords, want)


def test_apply_bench_record_and_storage_column():
    cfg = RunConfig(experiment="apply_bench", geometry="circle", ns=(512,),
                    eps=1e-6)
    rec, cm = _apply_bench_one(cfg, 512, want_error=True)
    assert rec.N == 512
    assert rec.Kr == cm.S.shape[0]
    assert rec.E is not None and rec.E < 1e-4
    assert rec.M == pytest.approx(len(serialize_compressed(cm)) / 1e6, rel=0.01)


def test_run_writes_csv_schema(tmp_path):
    out = tmp_path / "r.csv"
    cfg = RunConfig(experiment="apply_bench", geometry="circle", ns=(256, 512),
                    eps=1e-6, out=str(out))
    run(cfg)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,Kr,Kc,Tcm,Tlu,Tsv,Tmv,E,M,iters"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "256"
    assert first[CSV_COLUMNS.index("Tlu")] == ""   # absent values are empty


def test_reproducibility_same_seed():
    cfg = RunConfig(experiment="apply_bench", geometry="square", ns=(512,),
                    eps=1e-6, seed=3)
    r1 = run(cfg)[0]
    r2 = run(cfg)[0]
    assert (r1.Kr, r1.Kc, r1.E) == (r2.Kr, r2.Kc, r2.E)


def test_solve_bench_smoke():
    cfg = RunConfig(experiment="solve_bench", geometry="ellipse", ns=(256,),
                    eps=1e-6)
    rec = run(cfg)[0]
    assert rec.E < 1e-5
    assert rec.Tlu is not None and rec.Tsv is not None


def test_dense_oracle_skipped_above_limit(monkeypatch):
    import skelkit.bench as bench_mod
    monkeypatch.setattr(bench_mod, "DENSE_ORACLE_LIMIT", 256)
    cfg = RunConfig(experiment="apply_bench", geometry="circle", ns=(512,), eps=1e-6)
    rec = run(cfg)[0]
    assert rec.E is None
    assert rec.row()[CSV_COLUMNS.index("E")] == ""


def test_export_matrix_market(tmp_path):
    mm = tmp_path / "emb.mtx"
    cfg = RunConfig(experiment="apply_bench", geometry="circle", ns=(256,),
                    eps=1e-6, export_mm=str(mm))
    run(cfg)
    assert mm.read_text().startswith("%%MatrixMarket matrix coordinate real general")


def test_scatter_demo_smoke():
    cfg = RunConfig(experiment="scatter_demo", geometry="trefoil_scatterers",
                    ns=(64,), eps=1e-6, omega=1.0, tol=1e-5)
    rec = run(cfg)[0]
    assert rec.iters is not None and rec.iters >= 1
    assert rec.E < 1e-4


def test_scatter_demo_runs_the_scatterers_alone(capsys):
    # scatter_demo built the two trefoils whatever --geometry named
    assert main(["scatter_demo", "--geometry", "square", "--n", "64", "--omega", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # with no --geometry, scatter_demo runs the scatterers and the others the circle
    assert main(["scatter_demo", "--n", "64", "--omega", "1", "--tol", "1e-5"]) == 0
    assert RunConfig(experiment="scatter_demo").geometry == "trefoil_scatterers"
    assert RunConfig(experiment="apply_bench").geometry == "circle"


def test_cli_main(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    rc = main(["apply_bench", "--geometry", "circle", "--n", "256",
               "--eps", "1e-6", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.splitlines()[0] == "N,Kr,Kc,Tcm,Tlu,Tsv,Tmv,E,M,iters"
    assert out.exists()

    rc = main(["apply_bench", "--geometry", "moebius"])
    assert rc == 2
    rc = main(["solve_bench", "--geometry", "cube", "--kernel", "laplace3d"])
    assert rc == 2
    rc = main(["solve_bench", "--n", "256", "--regularize", "nan"])
    assert rc == 2
    # a negative seed, and a GMRES tolerance outside (0, 1)
    for bad in (["apply_bench", "--geometry", "square", "--n", "256", "--seed", "-1"],
                ["scatter_demo", "--n", "64", "--tol", "2"]):
        assert main(bad) == 2
        assert capsys.readouterr().err.startswith("error: ")
    # malformed numbers, an ellipse without two positive semi-axes, and
    # parameters the geometry does not read
    for bad in (["--n", "1024,"], ["--geometry", "ellipse:x,1"], ["--geometry", "ellipse:2"],
                ["--geometry", "ellipse:0,1"], ["--geometry", "trefoil_scatterers:x"],
                ["--geometry", "circle:5"], ["--geometry", "cube:2", "--kernel", "laplace3d"]):
        assert main(["apply_bench", *bad]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert main(["scatter_demo", "--geometry", "trefoil_scatterers:1,2,3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # the scatterers are scatter_demo's geometry alone: with a Helmholtz
    # kernel the other experiments once exited 1 with a KeyError traceback
    for experiment in ("apply_bench", "solve_bench", "sweep"):
        assert main([experiment, "--geometry", "trefoil_scatterers", "--kernel", "helmholtz2d",
                     "--n", "64"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    # scatter_demo builds no compressed matrix, so it has nothing to export
    mm = tmp_path / "demo.mtx"
    assert main(["scatter_demo", "--n", "64", "--export-mm", str(mm)]) == 2
    assert capsys.readouterr().err.startswith("error: ") and not mm.exists()


def test_write_csv_roundtrip(tmp_path):
    recs = [BenchRecord(N=10, Kr=3, E=0.5), BenchRecord(N=20)]
    path = tmp_path / "x.csv"
    write_csv(recs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[1].startswith("10,3,")
    assert lines[2].split(",")[1] == ""


def test_solve_bench_regularize_solves_the_shifted_system():
    # --regularize DELTA solves (A + DELTA I) x = b, so the Dirichlet
    # solution is off by about DELTA (E = 1.0e-6 here).  A shift added
    # inside factor's elimination, the inverse of no named matrix, read
    # E = 8.7e-5
    cfg = RunConfig(experiment="solve_bench", geometry="ellipse", ns=(2048,), eps=1e-10,
                    regularize=1e-6)
    assert run(cfg)[0].E <= 1e-5


@pytest.mark.parametrize("experiment", ["apply_bench", "sweep", "scatter_demo"])
def test_regularize_is_refused_outside_solve_bench(experiment, capsys):
    # only solve_bench factors a matrix to shift: the others ran and printed
    # the rows they print without the flag
    with pytest.raises(InvalidInput, match="--regularize"):
        RunConfig(experiment=experiment, regularize=5.0)
    assert main([experiment, "--n", "64", "--regularize", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--regularize" in err
    assert RunConfig(experiment=experiment, regularize=0.0).regularize == 0.0


@pytest.mark.parametrize("experiment, field, value", [
    ("apply_bench", "omega", 5.0), ("apply_bench", "tol", 0.5), ("apply_bench", "regularize", 5.0),
    ("sweep", "omega", 5.0), ("sweep", "tol", 0.5), ("sweep", "regularize", 5.0),
    ("solve_bench", "seed", 7), ("solve_bench", "omega", 3.0), ("solve_bench", "tol", 0.9),
    ("scatter_demo", "seed", 9), ("scatter_demo", "kernel", "laplace3d"),
    ("scatter_demo", "mode", "global"), ("scatter_demo", "export_mm", "demo.mtx"),
    ("scatter_demo", "regularize", 5.0),
    ("apply_bench", "geometry_params", (3.0,))])
def test_options_the_experiment_does_not_read_are_refused(experiment, field, value, tmp_path,
                                                          monkeypatch, capsys):
    # each ran and printed the row it prints without the option; omega is
    # read only with a Helmholtz kernel, and the default kernel is Laplace's
    monkeypatch.chdir(tmp_path)
    if field == "geometry_params":   # a square takes no parameters
        kwargs, argv, name = {"geometry": "square", field: value}, ["--geometry", "square:3"], \
            "square"
    else:
        name = "--" + field.replace("_", "-")
        kwargs, argv = {field: value}, [name, str(value)]
    with pytest.raises(InvalidInput, match=name):
        RunConfig(experiment=experiment, **kwargs)
    assert main([experiment, "--n", "64", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert not list(tmp_path.iterdir())   # refused before anything ran


@pytest.mark.parametrize("argv", [
    ["apply_bench", "--n", "256", "--kernel", "helmholtz2d", "--omega", "-5"],
    ["scatter_demo", "--n", "64", "--omega", "0"],
    ["scatter_demo", "--n", "64", "--omega", "nan"]], ids=["negative", "zero", "nan"])
def test_omega_is_checked_where_it_is_read(argv, tmp_path, monkeypatch, capsys):
    # each was refused in terms of the wavenumber made from it, which the
    # user never typed ("got -15.707963267948966")
    monkeypatch.chdir(tmp_path)
    kernel = {"kernel": "helmholtz2d"} if "--kernel" in argv else {}
    with pytest.raises(InvalidInput, match=f"^--omega must be finite and > 0, got {argv[-1]}"):
        RunConfig(experiment=argv[0], omega=float(argv[-1]), **kernel)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --omega") and "wavenumber" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("experiment", ["apply_bench", "solve_bench", "scatter_demo", "sweep"])
def test_every_option_at_its_default_is_accepted(experiment, capsys):
    # an unread option is refused only when it is set to something else
    assert main([experiment, "--n", "64", "--seed", "0", "--kernel", "laplace2d", "--omega",
                 "10", "--mode", "proxy", "--regularize", "0", "--tol", "1e-6"]) == 0
    assert capsys.readouterr().out.startswith("N,Kr,Kc,")
    cfg = RunConfig(experiment=experiment, export_mm=None, geometry_params=None)
    assert cfg.geometry_params == {"scatter_demo": (1.5,)}.get(experiment, ())


def test_solve_bench_ellipse_paper_scale():
    # reference point: ellipse alpha=2, N=1024, eps=1e-9 solves to ~1e-10
    # interior error with a few dozen top-level skeletons.  The skeleton
    # band is checked against an SVD oracle on the actual top-level
    # off-diagonal block rows: with a hypercube root box the top grouping
    # has four blocks, so the attainable count is the sum of their
    # epsilon-ranks (tabulated two-block conventions halve it).
    import skelkit.bie as bie
    from skelkit.geom import build_tree
    from skelkit.kernels import KernelSpec

    cfg = RunConfig(experiment="solve_bench", geometry="ellipse", ns=(1024,),
                    eps=1e-9)
    rec = run(cfg)[0]
    assert rec.E <= 1e-8

    curve = bie.ellipse(2.0, 1.0, 1024)
    system = bie.discretize_dirichlet(curve, KernelSpec("laplace", 2))
    A = system.matrix()
    tree = build_tree(system.points)
    oracle_rank = 0
    for nid in tree.levels[-2]:
        nd = tree.nodes[nid]
        idx = tree.perm[nd.lo:nd.hi]
        rest = np.setdiff1d(np.arange(1024), idx)
        sv = np.linalg.svd(A[np.ix_(idx, rest)], compute_uv=False)
        oracle_rank += int(np.sum(sv > 1e-9 * sv[0]))
    assert 15 <= rec.Kr <= 2 * oracle_rank


def test_cli_sweep_prints_slope(capsys):
    rc = main(["sweep", "--geometry", "circle", "--n", "256,512,1024,2048",
               "--eps", "1e-6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "# fitted log-log slope of Tcm:" in out


def test_helmholtz_apply_bench():
    cfg = RunConfig(experiment="apply_bench", geometry="circle", ns=(512,),
                    eps=1e-6, kernel="helmholtz2d", omega=5.0)
    rec = run(cfg)[0]
    assert rec.E < 1e-4


def test_3d_apply_bench_smoke():
    for geo, kern in (("sphere", "laplace3d"), ("cube", "laplace3d")):
        cfg = RunConfig(experiment="apply_bench", geometry=geo, ns=(512,),
                        eps=1e-4, kernel=kern)
        rec = run(cfg)[0]
        assert rec.E < 1e-2
