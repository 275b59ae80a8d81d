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
    # malformed numbers, and an ellipse without two positive semi-axes
    for bad in (["--n", "1024,"], ["--geometry", "ellipse:x,1"], ["--geometry", "ellipse:2"],
                ["--geometry", "ellipse:0,1"], ["--geometry", "trefoil_scatterers:x"]):
        assert main(["apply_bench", *bad]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_write_csv_roundtrip(tmp_path):
    recs = [BenchRecord(N=10, Kr=3, E=0.5), BenchRecord(N=20)]
    path = tmp_path / "x.csv"
    write_csv(recs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[1].startswith("10,3,")
    assert lines[2].split(",")[1] == ""


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
