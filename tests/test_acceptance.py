"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all, or
``python -m tests.test_acceptance`` standalone).  Runtime limits are part of
the criteria and asserted.
"""

import time

import numpy as np

from skelkit import bie, skel
from skelkit.bench import RunConfig, fit_exponent, make_points, run
from skelkit.errors import NotConverged
from skelkit.geom import PointSet, build_tree
from skelkit.kernels import KernelSpec, eval_block
from skelkit.lowrank import id_fixed_precision
from skelkit.skel import apply, compress
from skelkit.solver import assemble_embedding, factor, gmres, solve

LAPLACE2 = KernelSpec("laplace", 2)


def circle_points(n):
    th = 2 * np.pi * np.arange(n) / n
    return PointSet(np.column_stack([np.cos(th), np.sin(th)]))


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def decay_matrix(m, n, profile, seed):
    rng = np.random.default_rng(seed)
    k = min(m, n)
    s = {"geometric": 0.7 ** np.arange(k),
         "fast": 0.3 ** np.arange(k),
         "algebraic": 1.0 / (1 + np.arange(k)) ** 2,
         "step": np.where(np.arange(k) < max(k // 5, 1), 1.0, 1e-10),
         "flat": np.linspace(1, 0.5, k)}[profile]
    U, _ = np.linalg.qr(rng.standard_normal((m, k)))
    V, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return (U * s) @ V.T


def test_criterion_1_id_near_optimality():
    profiles = ("geometric", "fast", "algebraic", "step", "flat")
    rng = np.random.default_rng(0)
    with Timer() as t:
        worst = 0.0
        for trial in range(100):
            m = int(rng.integers(10, 200))
            n = int(rng.integers(10, 200))
            A = decay_matrix(m, n, profiles[trial % 5], trial)
            idp = id_fixed_precision(A, 1e-6)
            k = idp.rank
            if k == min(m, n):
                continue
            sv = np.linalg.svd(A, compute_uv=False)
            err = np.linalg.norm(A - A[:, idp.skel] @ idp.proj, 2)
            bound = 10 * np.sqrt(1 + k * (n - k)) * sv[k] + 1e-14 * sv[0]
            worst = max(worst, err / bound)
    ok = worst <= 1.0 and t.elapsed < 10.0
    _report(1, ok, f"spectral error within 10*sqrt(1+k(n-k))*sigma_(k+1) "
                   f"(worst ratio {worst:.3f}); {t.elapsed:.1f}s")


def test_criterion_2_apply_accuracy_vs_eps():
    n = 2048
    pts = circle_points(n)
    tree = build_tree(pts, 64)
    dense = eval_block(LAPLACE2, pts, pts)
    x = np.random.default_rng(0).standard_normal(n)
    ref = dense @ x
    with Timer() as t:
        errs = {}
        for eps in (1e-3, 1e-6, 1e-9):
            cm = compress(LAPLACE2, pts, tree, eps)
            errs[eps] = float(np.linalg.norm(apply(cm, x) - ref) / np.linalg.norm(ref))
    ok = all(errs[e] <= 100 * e for e in errs) and t.elapsed < 30.0
    _report(2, ok, f"circle N=2048 apply errors {errs} all within 100*eps; "
                   f"{t.elapsed:.1f}s")


def test_criterion_3_skeleton_ranks():
    with Timer() as t:
        ks = {}
        for n, paper in ((1024, 94), (4096, 113)):
            pts = circle_points(n)
            cm = compress(LAPLACE2, pts, build_tree(pts, 64), 1e-9)
            ks[n] = (cm.S.shape[0], paper)
    ok = all(ref / 2 <= k <= ref * 2 for k, ref in ks.values()) and t.elapsed < 30.0
    _report(3, ok, f"top-level skeleton count K within factor 2 of reference: "
                   f"{ {n: v[0] for n, v in ks.items()} } vs { {n: v[1] for n, v in ks.items()} }; "
                   f"{t.elapsed:.1f}s")


def test_criterion_4_direct_solve_accuracy():
    with Timer() as t:
        curve = bie.ellipse(2.0, 1.0, 1024)
        system = bie.discretize_dirichlet(curve, LAPLACE2)
        src = np.array([4.0, 3.0])
        rhs = bie.point_source_data(curve, src, LAPLACE2)
        sigma, cm, fi = bie.solve_dirichlet(system, rhs, 1e-9)
        chk = np.array([0.3, -0.2])
        u = bie.eval_interior(curve, sigma, LAPLACE2, chk)[0]
        uex = eval_block(LAPLACE2, PointSet(chk.reshape(1, 2)),
                         PointSet(src.reshape(1, 2)))[0, 0]
        err = abs(u - uex) / abs(uex)
    ok = err <= 1e-8 and t.elapsed < 30.0
    _report(4, ok, f"ellipse interior checkpoint error {err:.2e} <= 1e-8; "
                   f"{t.elapsed:.1f}s")


def test_criterion_5_embedding_equivalence():
    n = 512
    k_helm = 2 * np.pi * 2.0 / 4.0   # omega = 2 across the ellipse
    systems = {
        "laplace": bie.discretize_dirichlet(bie.ellipse(2.0, 1.0, n), LAPLACE2),
        "helmholtz": bie.discretize_dirichlet(
            bie.ellipse(2.0, 1.0, n), KernelSpec("helmholtz", 2, wavenumber=k_helm)),
    }
    with Timer() as t:
        diffs = {}
        for name, system in systems.items():
            rhs = bie.point_source_data(system.curve, (4.0, 3.0), system.spec)
            tree, cm = bie.compress_system(system, 1e-9)
            fi = factor(cm)
            x_fast = solve(fi, rhs)
            se = assemble_embedding(cm)
            sol = np.linalg.solve(se.to_dense(), se.rhs(rhs))
            x_oracle = se.extract_x(sol)
            diffs[name] = float(np.linalg.norm(x_fast - x_oracle)
                                / np.linalg.norm(x_oracle))
    ok = all(d <= 1e-9 for d in diffs.values()) and t.elapsed < 60.0
    _report(5, ok, f"dense embedding solve vs telescoping solve {diffs} "
                   f"(tol 1e-9); {t.elapsed:.1f}s")


def test_criterion_6_error_bound_property():
    n = 1024
    curve = bie.ellipse(2.0, 1.0, n)
    system = bie.discretize_dirichlet(curve, LAPLACE2)
    A = system.matrix()
    kappa = np.linalg.cond(A)
    rhs = bie.point_source_data(curve, (4.0, 3.0), LAPLACE2)
    x_true = np.linalg.solve(A, rhs)
    with Timer() as t:
        ratios = {}
        for eps in (1e-6, 1e-9):
            tree, cm = bie.compress_system(system, eps)
            x_eps = solve(factor(cm), rhs)
            err = np.linalg.norm(x_true - x_eps) / np.linalg.norm(x_true)
            bound = 100 * (2 * eps * kappa / (1 - eps * kappa))
            ratios[eps] = float(err / bound)
    ok = all(r <= 1.0 for r in ratios.values()) and t.elapsed < 60.0
    _report(6, ok, f"solution error within 100*(2 eps kappa/(1-eps kappa)), "
                   f"kappa={kappa:.2f}, ratios {ratios}; {t.elapsed:.1f}s")


def _fastest_sweep(config, rounds=3):
    """Records of ``rounds`` whole sweeps, each N's Tcm the fastest of all.
    Each sweep already keeps the fastest of three compressions per N; the
    rounds spread those over the run, so a burst of load on a shared machine
    that slows one N's compressions does not bend the fitted slope."""
    recs = run(config)
    for _ in range(rounds - 1):
        for rec, again in zip(recs, run(config)):
            rec.Tcm = min(rec.Tcm, again.Tcm)
    return recs


def test_criterion_7_scaling_exponents():
    ns = (1024, 2048, 4096, 8192, 16384)
    with Timer() as t:
        # leaf 128 keeps the d=1 sweep BLAS-bound rather than dominated by
        # per-node dispatch, so the measured slope reflects the O(N) theory
        recs_c = _fastest_sweep(RunConfig(experiment="sweep", geometry="circle",
                                          ns=ns, eps=1e-9, max_leaf=128))
        slope_c = fit_exponent(recs_c)
        recs_s = _fastest_sweep(RunConfig(experiment="sweep", geometry="square",
                                          ns=ns, eps=1e-6))
        slope_s = fit_exponent(recs_s)
    ok = 0.8 <= slope_c <= 1.3 and 1.2 <= slope_s <= 1.8 and t.elapsed < 600.0
    _report(7, ok, f"compression-time slopes: circle {slope_c:.2f} in [0.8,1.3], "
                   f"square {slope_s:.2f} in [1.2,1.8]; {t.elapsed:.0f}s")


def test_compression_counts_scale_as_criterion_7(monkeypatch):
    # criterion 7's two compressions, one per N, counted rather than timed:
    # the kernel entries skel evaluates, and each ID target's modelled QR
    # flops, 2 M K^2 - 2 K^3 / 3 with K the shorter side.  Counts repeat
    # exactly under any load; measured slopes (numpy 2.4 / scipy 1.17):
    # circle 1.05 entries and 1.08 flops, square 1.32 and 1.69
    entries, flops = [0], [0]
    real_eval, real_id = skel.eval_block, skel._target_id

    def counting_eval(spec, targets, sources):
        entries[0] += targets.n * sources.n
        return real_eval(spec, targets, sources)

    def counting_id(halves, shape, eps):
        k, m = sorted(shape)
        flops[0] += 2 * m * k * k - 2 * k ** 3 / 3
        return real_id(halves, shape, eps)

    monkeypatch.setattr(skel, "eval_block", counting_eval)
    monkeypatch.setattr(skel, "_target_id", counting_id)
    slopes = {}
    for geometry, eps, leaf in (("circle", 1e-9, 128), ("square", 1e-6, None)):
        counted = []
        for n in (1024, 2048, 4096, 8192, 16384):
            entries[0] = flops[0] = 0
            pts = make_points(geometry, n, 0)
            compress(LAPLACE2, pts, build_tree(pts, leaf), eps)
            counted.append((n, entries[0], flops[0]))
        slopes[geometry] = [fit_exponent([(n, c[i]) for n, *c in counted]) for i in (0, 1)]
    (ce, cf), (se, sf) = slopes["circle"], slopes["square"]
    ok = 0.9 <= ce <= 1.2 and 0.9 <= cf <= 1.2 and 1.15 <= se <= 1.5 and 1.5 <= sf <= 1.85
    _report("7 (counts)", ok, f"entries/flops slopes: circle {ce:.3f}/{cf:.3f} in [0.9,1.2], "
                              f"square {se:.3f} in [1.15,1.5] / {sf:.3f} in [1.5,1.85]")


def test_criterion_8_solve_phase_advantage():
    n = 8192
    with Timer() as t:
        curve = bie.circle(1.0, n)
        system = bie.discretize_dirichlet(curve, LAPLACE2)
        t0 = time.perf_counter()
        tree, cm = bie.compress_system(system, 1e-9)
        tcm = time.perf_counter() - t0
        t0 = time.perf_counter()
        fi = factor(cm)
        tlu = time.perf_counter() - t0
        rhs = bie.point_source_data(curve, (4.0, 3.0), LAPLACE2)
        rng = np.random.default_rng(0)
        # ten right-hand sides reuse the one factorization
        t0 = time.perf_counter()
        for _ in range(10):
            solve(fi, rng.standard_normal(n))
        tsv = (time.perf_counter() - t0) / 10
        solve(fi, rhs)
    ok = tsv <= tcm / 50 and tsv <= tlu / 10 and t.elapsed < 120.0
    _report(8, ok, f"N=8192 circle: T_sv={tsv * 1e3:.1f}ms vs T_cm={tcm:.2f}s "
                   f"(ratio {tcm / tsv:.0f} >= 50), per-solve <= T_lu/10 "
                   f"(T_lu={tlu:.2f}s); {t.elapsed:.0f}s")


def test_criterion_9_preconditioner_demo():
    n = 256
    with Timer() as t:
        curves = [bie.trefoil(n), bie.trefoil(n, center=(1.5, 0.0))]
        k = 2 * np.pi * 2.0 / curves[0].diameter()   # ~2 wavelengths per lobe
        sys_ = bie.scattering_system(curves, k)
        A = sys_.matrix()
        b = sys_.rhs_plane_wave()
        pinv = sys_.precond_apply(sys_.precond_blocks(eps=1e-8))
        try:
            x_plain, it_plain = gmres(lambda v: A @ v, b, tol=1e-6)
        except NotConverged as exc:  # pragma: no cover
            x_plain, it_plain = exc.x, exc.iterations
        x_prec, it_prec = gmres(lambda v: A @ v, b, tol=1e-6, precond=pinv)
        chk = np.array([0.75, 2.5])
        u1 = sys_.scattered_field(x_plain, chk)[0]
        u2 = sys_.scattered_field(x_prec, chk)[0]
        agree = abs(u1 - u2) / abs(u1)
    ok = (it_prec <= 20 and it_prec * 5 <= it_plain and agree <= 1e-6
          and t.elapsed < 120.0)
    _report(9, ok, f"GMRES iterations {it_plain} -> {it_prec} (ratio "
                   f"{it_plain / it_prec:.1f}), checkpoint agreement "
                   f"{agree:.1e}; {t.elapsed:.0f}s")


def test_criterion_10_gauss_identity():
    with Timer() as t:
        worst = 0.0
        for make in (lambda n: bie.circle(1.0, n), lambda n: bie.ellipse(2.0, 1.0, n)):
            for n in (64, 256, 1024):
                system = bie.discretize_dirichlet(make(n), LAPLACE2)
                res = np.abs(system.matrix() @ np.ones(n) + 1.0).max()
                worst = max(worst, float(res))
    ok = worst <= 1e-10 and t.elapsed < 5.0
    _report(10, ok, f"double layer of constant density is -1 on the boundary "
                    f"(worst residual {worst:.1e}); {t.elapsed:.1f}s")


def main():
    import sys
    fns = [v for k, v in sorted(globals().items()) if k.startswith("test_criterion")]
    fns.sort(key=lambda f: int(f.__name__.split("_")[2]))
    failures = 0
    for fn in fns:
        try:
            fn()
        except AssertionError:
            failures += 1
    print(f"{len(fns) - failures}/{len(fns)} acceptance criteria passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
