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
from dataclasses import dataclass, fields

import numpy as np

from . import bie
from .errors import InvalidInput, NotConverged, RefusedTooLarge
from .geom import (PointSet, _finite, _fraction, _index, _positive, build_tree,
                   fibonacci_sphere)
from .kernels import KernelSpec, eval_block
from .skel import add_diagonal, apply, compress, serialized_size
from .solver import (assemble_embedding, export_matrix_market, factor, gmres,
                     solve)

DENSE_ORACLE_LIMIT = 4096

# each geometry's dimension and default parameters
GEOMETRIES = {"circle": (2, ()), "square": (2, ()), "sphere": (3, ()), "cube": (3, ()),
              "ellipse": (2, (2.0, 1.0)),              # semi-axes
              "trefoil_scatterers": (2, (1.5,))}      # centre separation
# each experiment's geometries, the first its default, and the options it
# reads besides ns, eps, max_leaf and out; omega only with a Helmholtz kernel
_CLOUDS = (("circle", "square", "sphere", "cube", "ellipse"),
           {"seed", "kernel", "omega", "mode", "export_mm"})
EXPERIMENTS = {
    "apply_bench": _CLOUDS,
    "solve_bench": (("circle", "ellipse"), {"kernel", "omega", "mode", "export_mm", "regularize"}),
    "scatter_demo": (("trefoil_scatterers",), {"omega", "tol"}),
    "sweep": _CLOUDS,
}
_OPTIONS = set().union(*(reads for _, reads in EXPERIMENTS.values()))   # read by some
KERNELS = {"laplace2d": ("laplace", 2), "laplace3d": ("laplace", 3),
           "helmholtz2d": ("helmholtz", 2), "helmholtz3d": ("helmholtz", 3)}

CSV_COLUMNS = ["N", "Kr", "Kc", "Tcm", "Tlu", "Tsv", "Tmv", "E", "M", "iters"]


@dataclass
class RunConfig:
    """One experiment's settings: an option that the experiment does not
    read (``EXPERIMENTS``) must keep its default, or InvalidInput is raised."""
    experiment: str
    geometry: str | None = None   # None: the experiment's first geometry
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
    tol: float = 1e-6
    geometry_params: tuple | None = None   # None: the geometry's defaults

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise InvalidInput(f"unknown experiment {self.experiment!r}")
        geometries, reads = EXPERIMENTS[self.experiment]
        ns = tuple(_index(n, "each N") for n in self.ns)
        if not ns or any(n <= 0 for n in ns):
            raise InvalidInput("N values must be positive")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise InvalidInput("N values must be increasing")
        self.ns = ns
        _fraction(self.eps, "eps")
        _fraction(self.tol, "tol")
        if not _finite(self.regularize):
            raise InvalidInput(f"--regularize must be a finite real, got {self.regularize!r}")
        self.seed = _index(self.seed, "seed")
        if self.seed < 0:
            raise InvalidInput(f"seed must be >= 0, got {self.seed}")
        if not isinstance(self.kernel, str) or self.kernel.lower() not in KERNELS:
            raise InvalidInput(f"unknown kernel {self.kernel!r}")
        equation, kernel_dim = KERNELS[self.kernel.lower()]
        if equation == "laplace" and "kernel" in reads:
            reads = reads - {"omega"}   # omega sets a Helmholtz wavenumber
        for f in fields(self):
            if f.name in _OPTIONS - reads and getattr(self, f.name) != f.default:
                with_kernel = f" with kernel {self.kernel}" if f.name == "omega" else ""
                raise InvalidInput(f"--{f.name.replace('_', '-')} is not read by "
                                   f"{self.experiment}{with_kernel}")
        if "omega" in reads and not _positive(self.omega):
            raise InvalidInput(f"--omega must be finite and > 0, got {self.omega!r}")
        if self.geometry is None:
            self.geometry = geometries[0]
        if self.geometry not in GEOMETRIES:
            raise InvalidInput(f"unknown geometry {self.geometry!r}")
        if self.geometry not in geometries:
            raise InvalidInput(f"{self.experiment} runs on {'|'.join(geometries)}, "
                               f"not {self.geometry}")
        dim, defaults = GEOMETRIES[self.geometry]
        params = defaults if self.geometry_params is None else self.geometry_params
        if not (isinstance(params, tuple) and len(params) == len(defaults)
                and all(map(_positive, params))):
            raise InvalidInput(f"geometry {self.geometry} takes a tuple of {len(defaults)} "
                               f"finite, positive parameter(s), got {params!r}")
        self.geometry_params = params
        if kernel_dim != dim:
            raise InvalidInput(f"kernel {self.kernel} is {kernel_dim}D but geometry "
                               f"{self.geometry} is {dim}D")


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

def make_points(geometry, n, seed, params=None) -> PointSet:
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
        return PointSet(bie.ellipse(*(params or GEOMETRIES["ellipse"][1]), n).xy)
    raise InvalidInput(f"geometry {geometry!r} is not a point cloud")


def geometry_diameter(geometry, params):
    if geometry == "ellipse":
        return 2.0 * max(params)
    return {"circle": 2.0, "square": np.sqrt(2.0), "sphere": 2.0, "cube": np.sqrt(3.0)}[geometry]


def make_kernel(config: RunConfig) -> KernelSpec:
    eq, dim = KERNELS[config.kernel.lower()]
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
    tree = build_tree(pts, config.max_leaf)
    # the fastest of three: a scaling fit needs the compression's own cost,
    # not whatever else the machine was doing during one run
    tcm, cm = _timed(lambda: compress(spec, pts, tree, config.eps, mode=config.mode), min)
    rng = np.random.default_rng(config.seed + 1)
    x = rng.standard_normal(n)
    tmv, y = _timed(lambda: apply(cm, x), np.median)
    rec = BenchRecord(N=n, Kr=cm.S.shape[0], Kc=cm.S.shape[1], Tcm=tcm, Tmv=tmv,
                      M=serialized_size(cm) / 1e6)
    if want_error and n <= DENSE_ORACLE_LIMIT:
        ref = eval_block(spec, pts, pts) @ x
        rec.E = float(np.linalg.norm(y - ref) / np.linalg.norm(ref))
    return rec, cm


def _solve_bench_one(config, n):
    spec = make_kernel(config)
    if config.geometry == "circle":
        curve, scale = bie.circle(1.0, n), 1.0
    else:   # the ellipse
        curve, scale = bie.ellipse(*config.geometry_params, n), min(config.geometry_params)
    system = bie.discretize_dirichlet(curve, spec)
    source = np.array([4.0, 3.0])
    checkpoint = np.array([0.31, -0.22]) * scale
    rhs = bie.point_source_data(curve, source, spec)

    t0 = time.perf_counter()
    tree, cm = bie.compress_system(system, config.eps, config.max_leaf,
                                   mode=config.mode)
    tcm = time.perf_counter() - t0
    # (A + delta I) x = b: the shift enters the compressed matrix, and
    # factor inverts the matrix it is given
    add_diagonal(cm, np.full(n, config.regularize))
    t0 = time.perf_counter()
    fi = factor(cm)
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
    sep, = config.geometry_params
    curves = [bie.trefoil(n, center=(0.0, 0.0)), bie.trefoil(n, center=(sep, 0.0))]
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
    checkpoint = np.array([sep / 2, 2.5])
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
        if config.experiment == "solve_bench":
            rec, last_cm = _solve_bench_one(config, n)
        elif config.experiment == "scatter_demo":
            rec = _scatter_demo_one(config, n)[0]
        else:
            rec, last_cm = _apply_bench_one(config, n,
                                            want_error=config.experiment == "apply_bench")
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
                   help="domain size in wavelengths; read by scatter_demo, and by the "
                        "others with a Helmholtz kernel")
    p.add_argument("--seed", type=int, default=0,
                   help="seeds the points and right-hand sides; read by apply_bench and sweep")
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--export-mm", default=None,
                   help="write the sparse embedding of the largest run as Matrix Market")
    p.add_argument("--mode", choices=("proxy", "global"), default="proxy")
    p.add_argument("--regularize", type=float, default=0.0, metavar="DELTA",
                   help="solve (A + DELTA I) x = b; read by solve_bench")
    p.add_argument("--max-leaf", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-6, help="GMRES tolerance; read by scatter_demo")
    return p


def _numbers(text, conv, what):
    """The comma-separated numbers in ``text``, each through ``conv``."""
    try:
        return tuple(conv(v) for v in text.split(","))
    except ValueError:
        raise InvalidInput(f"{what} must be comma-separated numbers, got {text!r}") from None


def _parse_geometry(text):
    """The name and parameters (None if none are given) of ``G[:a,b]``."""
    if text is None or ":" not in text:
        return text, None
    name, args = text.split(":", 1)
    return name, _numbers(args, float, f"{name} parameters")


def main(argv=None):
    # each parsed option but --geometry and --n is the RunConfig field of its name
    args = vars(_build_parser().parse_args(argv))
    try:
        geometry, params = _parse_geometry(args.pop("geometry"))
        config = RunConfig(geometry=geometry, geometry_params=params,
                           ns=_numbers(args.pop("n"), int, "--n"), **args)
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
