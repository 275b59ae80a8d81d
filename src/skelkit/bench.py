"""Desk-scale benchmark harness and the ``skelkit`` command-line tool.

Reproduces the toolkit's experiment families: compressed matvec benchmarks
(apply_bench), boundary-integral direct solves (solve_bench), the multiple
scattering preconditioner demo (scatter_demo), and scaling sweeps (sweep).
Writes one CSV row per problem size with the fixed schema

    N,Kr,Kc,Tcm,Tlu,Tsv,Tmv,E,M,iters

(absent values empty).  Wall-clock times are monotonic; matvec/solve times
are medians of three runs, and the compression time of apply_bench and
sweep is the fastest of three compressions.  Absolute times are
machine-dependent; scaling exponents and error columns are the meaningful
outputs.
"""

import argparse
import csv
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import bie
from .errors import InvalidInput, NotConverged, RefusedTooLarge
from .geom import PointSet, _index, build_tree, fibonacci_sphere
from .kernels import KernelSpec, eval_block
from .skel import ProxyConfig, apply, compress, serialized_size
from .solver import (assemble_embedding, export_matrix_market, factor, gmres,
                     solve)

DENSE_ORACLE_LIMIT = 4096

GEOMETRIES = ("circle", "square", "sphere", "cube", "ellipse", "trefoil_scatterers")
EXPERIMENTS = ("apply_bench", "solve_bench", "scatter_demo", "sweep")

CSV_COLUMNS = ["N", "Kr", "Kc", "Tcm", "Tlu", "Tsv", "Tmv", "E", "M", "iters"]


@dataclass
class RunConfig:
    experiment: str
    geometry: str | None = None   # trefoil_scatterers for scatter_demo, else circle
    ns: tuple = (1024,)
    eps: float = 1e-9
    kernel: str = "laplace2d"
    omega: float = 10.0
    seed: int = 0
    out: str | None = None
    export_mm: str | None = None
    mode: str = "proxy"
    regularize: float = 0.0
    max_leaf: int | None = None
    separation: float = 1.5
    tol: float = 1e-6
    geometry_params: tuple = (2.0, 1.0)   # ellipse semi-axes

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise InvalidInput(f"unknown experiment {self.experiment!r}")
        demo = self.experiment == "scatter_demo"
        if self.geometry is None:
            self.geometry = "trefoil_scatterers" if demo else "circle"
        if self.geometry not in GEOMETRIES:
            raise InvalidInput(f"unknown geometry {self.geometry!r}")
        if (self.geometry == "trefoil_scatterers") != demo:
            raise InvalidInput("geometry trefoil_scatterers goes with scatter_demo, and only "
                               f"with it: got {self.experiment} on {self.geometry}")
        ns = tuple(_index(n, "each N") for n in self.ns)
        if not ns or any(n <= 0 for n in ns):
            raise InvalidInput("N values must be positive")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise InvalidInput("N values must be increasing")
        self.ns = ns
        if not 0 < self.eps < 1:
            raise InvalidInput("eps must lie in (0, 1)")
        if not 0 < self.tol < 1:
            raise InvalidInput("tol must lie in (0, 1)")
        self.seed = _index(self.seed, "seed")
        if self.seed < 0:
            raise InvalidInput(f"seed must be >= 0, got {self.seed}")
        if self.export_mm and self.experiment == "scatter_demo":
            raise InvalidInput("scatter_demo builds no compressed matrix to export")
        axes = self.geometry_params
        if self.geometry == "ellipse" and not (
                len(axes) == 2 and all(0 < v < np.inf for v in axes)):
            raise InvalidInput(f"an ellipse takes two positive semi-axes, got {axes}")


@dataclass
class BenchRecord:
    N: int
    Kr: int | None = None
    Kc: int | None = None
    Tcm: float | None = None
    Tlu: float | None = None
    Tsv: float | None = None
    Tmv: float | None = None
    E: float | None = None
    M: float | None = None
    iters: int | None = None

    def row(self):
        out = []
        for c in CSV_COLUMNS:
            v = getattr(self, c)
            if v is None:
                out.append("")
            elif isinstance(v, float):
                out.append(f"{v:.6g}")
            else:
                out.append(str(v))
        return out


# ---------------------------------------------------------------------------
# geometries and kernels

def make_points(geometry, n, seed, params=(2.0, 1.0)) -> PointSet:
    rng = np.random.default_rng(seed)
    if geometry == "circle":
        th = 2 * np.pi * np.arange(n) / n
        return PointSet(np.column_stack([np.cos(th), np.sin(th)]))
    if geometry == "square":
        return PointSet(rng.random((n, 2)))
    if geometry == "sphere":
        return PointSet(fibonacci_sphere(n))
    if geometry == "cube":
        return PointSet(rng.random((n, 3)))
    if geometry == "ellipse":
        a, b = params
        return PointSet(bie.ellipse(a, b, n).xy)
    raise InvalidInput(f"geometry {geometry!r} is not a point cloud")


def geometry_diameter(geometry, params=(2.0, 1.0)):
    return {"circle": 2.0, "square": np.sqrt(2.0), "sphere": 2.0,
            "cube": np.sqrt(3.0), "ellipse": 2.0 * max(params)}[geometry]


def make_kernel(config: RunConfig) -> KernelSpec:
    name = config.kernel.lower()
    table = {"laplace2d": ("laplace", 2), "laplace3d": ("laplace", 3),
             "helmholtz2d": ("helmholtz", 2), "helmholtz3d": ("helmholtz", 3)}
    if name not in table:
        raise InvalidInput(f"unknown kernel {config.kernel!r}")
    eq, dim = table[name]
    k = 0.0
    if eq == "helmholtz":
        diam = geometry_diameter(config.geometry, config.geometry_params)
        k = 2 * np.pi * config.omega / diam   # omega = (k/2pi) diam
    return KernelSpec(eq, dim, "single", k)


def _timed(fn, stat, repeats=3):
    """``stat`` (``np.median`` or ``min``) of the wall-clock seconds of
    ``repeats`` calls of fn, and the last call's result."""
    ts = []
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        ts.append(time.perf_counter() - t0)
    return float(stat(ts)), out


# ---------------------------------------------------------------------------
# experiments

def _apply_bench_one(config, n, want_error):
    spec = make_kernel(config)
    pts = make_points(config.geometry, n, config.seed, config.geometry_params)
    if spec.dim != pts.dim:
        raise InvalidInput(f"kernel {config.kernel} is {spec.dim}D but geometry "
                           f"{config.geometry} is {pts.dim}D")
    tree = build_tree(pts, config.max_leaf)
    # the fastest of three: a scaling fit needs the compression's own cost,
    # not whatever else the machine was doing during one run
    tcm, cm = _timed(lambda: compress(spec, pts, tree, config.eps, ProxyConfig(),
                                      mode=config.mode), min)
    rng = np.random.default_rng(config.seed + 1)
    x = rng.standard_normal(n)
    tmv, y = _timed(lambda: apply(cm, x), np.median)
    rec = BenchRecord(N=n, Kr=cm.S.shape[0], Kc=cm.S.shape[1], Tcm=tcm, Tmv=tmv,
                      M=serialized_size(cm) / 1e6)
    if want_error:
        if n > DENSE_ORACLE_LIMIT:
            rec.E = None
        else:
            dense = eval_block(spec, pts, pts)
            ref = dense @ x
            rec.E = float(np.linalg.norm(y - ref) / np.linalg.norm(ref))
    return rec, cm


def _solve_bench_one(config, n):
    spec = make_kernel(config)
    if spec.dim != 2:
        raise InvalidInput("solve_bench drives 2D boundary integral equations")
    if config.geometry == "circle":
        curve = bie.circle(1.0, n)
    elif config.geometry == "ellipse":
        a, b = config.geometry_params
        curve = bie.ellipse(a, b, n)
    else:
        raise InvalidInput("solve_bench needs a curve geometry (circle or ellipse)")
    system = bie.discretize_dirichlet(curve, spec)
    source = np.array([4.0, 3.0])
    checkpoint = np.array([0.31, -0.22]) * min(config.geometry_params) \
        if config.geometry == "ellipse" else np.array([0.31, -0.22])
    rhs = bie.point_source_data(curve, source, spec)

    t0 = time.perf_counter()
    tree, cm = bie.compress_system(system, config.eps, config.max_leaf,
                                   mode=config.mode)
    tcm = time.perf_counter() - t0
    t0 = time.perf_counter()
    fi = factor(cm, regularize=config.regularize)
    tlu = time.perf_counter() - t0
    tsv, sigma = _timed(lambda: solve(fi, rhs), np.median)
    u = bie.eval_interior(curve, sigma, spec, checkpoint)[0]
    sspec = KernelSpec(spec.equation, 2, "single", spec.wavenumber)
    uex = eval_block(sspec, PointSet(checkpoint.reshape(1, 2)),
                     PointSet(source.reshape(1, 2)))[0, 0]
    rec = BenchRecord(N=n, Kr=cm.S.shape[0], Kc=cm.S.shape[1], Tcm=tcm, Tlu=tlu,
                      Tsv=tsv, E=float(abs(u - uex) / abs(uex)),
                      M=serialized_size(cm) / 1e6)
    return rec, cm


def _scatter_demo_one(config, n):
    """Two trefoil scatterers, plane-wave excitation, block-diagonal
    direct-solver preconditioner versus plain GMRES.  Returns the record,
    the plain GMRES iteration count and the preconditioned density."""
    curves = [bie.trefoil(n, center=(0.0, 0.0)),
              bie.trefoil(n, center=(config.separation, 0.0))]
    diam = curves[0].diameter()
    k = 2 * np.pi * config.omega / diam
    sys_ = bie.scattering_system(curves, k)
    A = sys_.matrix()
    b = sys_.rhs_plane_wave()

    t0 = time.perf_counter()
    facs = sys_.precond_blocks(eps=config.eps, max_leaf_size=config.max_leaf)
    tlu = time.perf_counter() - t0
    pinv = sys_.precond_apply(facs)

    try:
        x_plain, it_plain = gmres(lambda v: A @ v, b, tol=config.tol, max_iter=2 * n)
    except NotConverged as exc:
        x_plain, it_plain = exc.x, exc.iterations
    x_prec, it_prec = gmres(lambda v: A @ v, b, tol=config.tol,
                            max_iter=2 * n, precond=pinv)
    checkpoint = np.array([config.separation / 2, 2.5])
    u1 = sys_.scattered_field(x_plain, checkpoint)[0]
    u2 = sys_.scattered_field(x_prec, checkpoint)[0]
    rec = BenchRecord(N=n, Tlu=tlu, iters=it_prec,
                      E=float(abs(u1 - u2) / max(abs(u1), 1e-300)))
    return rec, it_plain, x_prec


def run(config: RunConfig):
    """Execute the configured experiment for every N; returns the records
    and writes the CSV when config.out is set."""
    records = []
    last_cm = None
    for n in config.ns:
        if config.experiment in ("apply_bench", "sweep"):
            rec, cm = _apply_bench_one(config, n,
                                       want_error=config.experiment == "apply_bench")
            last_cm = cm
        elif config.experiment == "solve_bench":
            rec, cm = _solve_bench_one(config, n)
            last_cm = cm
        else:
            rec = _scatter_demo_one(config, n)[0]
        records.append(rec)
    if config.export_mm:
        export_matrix_market(assemble_embedding(last_cm), config.export_mm)
    if config.out:
        write_csv(records, config.out)
    return records


def write_csv(records, path):
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(CSV_COLUMNS)
        for rec in records:
            wr.writerow(rec.row())


def fit_exponent(records, field_name="Tcm"):
    """Least-squares slope of log T against log N, dropping the smallest N
    (warm-up noise).  Needs at least 4 records with finite, positive,
    increasing N, and a finite, positive T in each."""
    if all(hasattr(r, "N") for r in records):
        pairs = [(r.N, getattr(r, field_name)) for r in records]
    else:
        pairs = [tuple(r) for r in records]
    if len(pairs) < 4:
        raise InvalidInput("need at least 4 records to fit an exponent")
    ns = np.array([p[0] for p in pairs], dtype=float)
    ts = np.array([p[1] for p in pairs], dtype=float)
    # a zero or negative N has no logarithm: LAPACK failed on the nan fit
    bad = np.flatnonzero(~(np.isfinite(ns) & (ns > 0)))
    if bad.size:
        raise InvalidInput(f"record {bad[0]} has N = {pairs[bad[0]][0]!r}: "
                           f"N must be finite and positive")
    if np.any(np.diff(ns) <= 0):
        raise InvalidInput("records must have increasing N")
    # a missing (None, so nan), infinite or non-positive time gave a nan slope
    bad = np.flatnonzero(~(np.isfinite(ts) & (ts > 0)))
    if bad.size:
        raise InvalidInput(f"record {bad[0]} has {field_name} = {pairs[bad[0]][1]!r}: "
                           f"times must be finite and positive")
    ns, ts = ns[1:], ts[1:]
    slope, _ = np.polyfit(np.log(ns), np.log(ts), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# CLI

def _build_parser():
    p = argparse.ArgumentParser(
        prog="skelkit",
        description="desk-scale benchmarks for the recursive-skeletonization toolkit")
    p.add_argument("experiment", choices=EXPERIMENTS)
    p.add_argument("--geometry", default=None,
                   help="circle|square|sphere|cube|ellipse[:a,b]|trefoil_scatterers[:sep]; "
                        "default trefoil_scatterers for scatter_demo, else circle")
    p.add_argument("--n", default="1024", help="comma-separated problem sizes")
    p.add_argument("--eps", type=float, default=1e-9)
    p.add_argument("--kernel", default="laplace2d",
                   help="laplace2d|laplace3d|helmholtz2d|helmholtz3d")
    p.add_argument("--omega", type=float, default=10.0,
                   help="domain size in wavelengths (Helmholtz)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--export-mm", default=None,
                   help="write the sparse embedding of the largest run as Matrix Market")
    p.add_argument("--mode", choices=("proxy", "global"), default="proxy")
    p.add_argument("--regularize", type=float, default=0.0, metavar="DELTA")
    p.add_argument("--max-leaf", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-6, help="GMRES tolerance")
    return p


def _numbers(text, conv, what):
    """The comma-separated numbers in ``text``, each through ``conv``."""
    try:
        return tuple(conv(v) for v in text.split(","))
    except ValueError:
        raise InvalidInput(f"{what} must be comma-separated numbers, got {text!r}") from None


def _parse_geometry(text):
    if text is None or ":" not in text:
        return text, None
    name, args = text.split(":", 1)
    params = _numbers(args, float, f"{name} parameters")
    # an ellipse reads two semi-axes, the scatterers one separation
    want = {"ellipse": 2, "trefoil_scatterers": 1}.get(name, 0)
    if name in GEOMETRIES and len(params) != want:
        raise InvalidInput(f"geometry {name} takes {want} parameter(s), got {text!r}")
    return name, params


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        geometry, gparams = _parse_geometry(args.geometry)
        kwargs = dict(
            experiment=args.experiment,
            geometry=geometry,
            ns=_numbers(args.n, int, "--n"),
            eps=args.eps,
            kernel=args.kernel,
            omega=args.omega,
            seed=args.seed,
            out=args.out,
            export_mm=args.export_mm,
            mode=args.mode,
            regularize=args.regularize,
            max_leaf=args.max_leaf,
            tol=args.tol,
        )
        if geometry == "ellipse" and gparams:
            kwargs["geometry_params"] = gparams
        if geometry == "trefoil_scatterers" and gparams:
            kwargs["separation"] = gparams[0]
        config = RunConfig(**kwargs)
        records = run(config)
    except (InvalidInput, RefusedTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(",".join(CSV_COLUMNS))
    for rec in records:
        print(",".join(rec.row()))
    if config.experiment == "sweep" and len(records) >= 4:
        print(f"# fitted log-log slope of Tcm: {fit_exponent(records):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
