"""The four benchmark workloads.

Each workload builds its inputs from a seed, sets up a ready operator,
runs a fixed reference phase that checks outputs against an oracle, and
then serves a closed loop of requests: one caller issues each call only
after the previous one returned.

Library entry points are always reached through module attributes
(``skel.apply``, ``solver.solve``, ...) so the traced run can wrap them.
"""

import contextlib
import math
import time

import numpy as np
import scipy.linalg

import skelkit.bie as bie
import skelkit.geom as geom
import skelkit.kernels as kernels
import skelkit.skel as skel
import skelkit.solver as solver

from measure import median, min_samples, percentile

# loop outputs must match the oracle-checked reference output for the same
# input to this relative tolerance (the arithmetic is identical, so only
# BLAS reordering may differ)
REPEAT_RTOL = 1e-8

# sample counts the loop must reach besides its time budget, so that the
# per-layer loop timings always rest on several calls
MIN_SINGLE = 20
MIN_BLOCK = 3

POOL = 8            # distinct single right-hand sides per run
ORACLE_ROWS = 64    # rows of A evaluated exactly by the sampled-row oracle


def rel_err(x, ref):
    x = np.asarray(x)
    ref = np.asarray(ref)
    den = np.linalg.norm(ref)
    return float(np.linalg.norm(x - ref) / den) if den > 0 else float(np.linalg.norm(x))


def col_rel_err(X, REF):
    """Worst relative error over the columns of a block."""
    den = np.linalg.norm(REF, axis=0)
    return float(np.max(np.linalg.norm(X - REF, axis=0) / den))


class Workload:
    """Base class: subclasses define inputs, set-up, the reference phase and
    the operations the loop issues."""

    name = ""
    n = 0               # problem size; the tests pass a tiny one
    setup_reps = 1
    has_solve = True
    # span names the traced run must record on this workload
    traced = ()

    def __init__(self, n=None):
        if n is not None:
            self.n = n
        self.refs = {}
        self.turn = 0

    # -- to override -------------------------------------------------------
    def make_inputs(self, seed):
        raise NotImplementedError

    def setup(self, inp):
        raise NotImplementedError

    def reference(self, st, inp, ops, tracer):
        """Fixed, oracle-checked work; returns the error for err_digits."""
        raise NotImplementedError

    def rhs(self, st, b):
        raise NotImplementedError

    def apply(self, st, x):
        raise NotImplementedError

    def solve_block(self, st, B):
        raise NotImplementedError

    # -- shared ------------------------------------------------------------
    @staticmethod
    def new_samples():
        return {k: [] for k in ("rhs", "apply", "apply16", "apply128", "solve16", "solve128")}

    def loop(self, st, inp, ops, seconds, samples, final=True):
        """Closed loop of single-RHS, apply and block calls for ``seconds``,
        appending call times to ``samples``.  The final chunk runs on until
        the minimum sample counts are reached.  Every output is compared
        with the reference output for the same input."""
        pool, blocks = inp["pool"], inp["blocks"]

        def timed(kind, fn, ref):
            if ref is None:  # its reference call already failed
                return
            ok = False
            t0 = time.perf_counter()
            done, out = ops.run(kind, fn)
            dt = time.perf_counter() - t0
            if done:
                err = (rel_err(out, ref) if np.ndim(ref) == 1 else col_rel_err(out, ref))
                ok = ops.check(kind, err <= REPEAT_RTOL,
                               f"{kind}: output differs from reference by {err:.3e}")
            if ok:
                samples[kind].append(dt)

        t_end = time.perf_counter() + seconds
        t_cap = time.perf_counter() + 4 * seconds + 30
        while True:
            i = self.turn
            v = i % len(pool)
            timed("rhs", lambda: self.rhs(st, pool[v]), self.refs["rhs"][v])
            timed("apply", lambda: self.apply(st, pool[v]), self.refs["apply"][v])
            if i % 2 == 1:
                timed("apply16", lambda: self.apply(st, blocks[16]), self.refs["apply16"])
                if self.has_solve:
                    timed("solve16", lambda: self.solve_block(st, blocks[16]),
                          self.refs["solve16"])
            if i % 8 == 7:
                timed("apply128", lambda: self.apply(st, blocks[128]), self.refs["apply128"])
                if self.has_solve:
                    timed("solve128", lambda: self.solve_block(st, blocks[128]),
                          self.refs["solve128"])
            self.turn += 1
            now = time.perf_counter()
            enough = not final or (len(samples["rhs"]) >= MIN_SINGLE
                                   and len(samples["apply"]) >= MIN_SINGLE
                                   and len(samples["apply128"]) >= MIN_BLOCK)
            if (now >= t_end and enough) or now >= t_cap:
                return

    def reference_loop_outputs(self, st, inp, ops, tracer, checks):
        """Compute, check and keep the reference output of every input the
        loop will issue.  ``checks`` maps "rhs", "apply" and "solve" to a
        function (output, input) -> relative error against an oracle.
        Returns the oracle errors of the single-vector outputs by kind."""
        pool, blocks = inp["pool"], inp["blocks"]
        jobs = [(f"{kind}:{v}", kind, fn, b) for v, b in enumerate(pool)
                for kind, fn in (("rhs", self.rhs), ("apply", self.apply))]
        for nb in (16, 128):
            jobs.append((f"apply{nb}", "apply", self.apply, blocks[nb]))
            if self.has_solve:
                jobs.append((f"solve{nb}", "solve", self.solve_block, blocks[nb]))
        refs = {"rhs": [], "apply": []}
        errs = {"rhs": [], "apply": []}
        for key, kind, fn, b in jobs:
            op = key.split(":")[0]
            err = math.inf
            ok, out = ops.run(op, lambda: fn(st, b))
            if ok:
                with tracer.paused():
                    err = checks[kind](out, b)
                ops.check(op, err <= self.tol, f"{key}: error {err:.3e} against the oracle")
            if ":" in key:
                refs[op].append(out)
                errs[op].append(err)
            else:
                refs[op] = out
        self.refs = refs
        return errs


def _gauss_pool(rng, n, complex_=False):
    def draw(*shape):
        a = rng.standard_normal(shape)
        if complex_:
            a = a + 1j * rng.standard_normal(shape)
        return a

    pool = [draw(n) for _ in range(POOL)]
    blocks = {16: draw(n, 16), 128: draw(n, 128)}
    return pool, blocks


def _pool_arrays(inp):
    return [*inp["pool"], inp["blocks"][16], inp["blocks"][128]]


def _volume_inputs(seed, n, dim):
    """Seed-uniform points in the unit square or cube, oracle rows and the
    right-hand-side pool."""
    rng = np.random.default_rng(seed)
    coords = rng.random((n, dim))
    rows = np.sort(rng.choice(n, ORACLE_ROWS, replace=False))
    pool, blocks = _gauss_pool(rng, n)
    inp = {"points": geom.PointSet(coords), "rows": rows, "pool": pool,
           "blocks": blocks}
    inp["arrays"] = [coords, rows, *_pool_arrays(inp)]
    return inp


class _CompressedWorkload(Workload):
    """Shared loop operations for workloads that hold a CompressedMatrix
    (``st["cm"]``) and, when factoring succeeded, a FactoredInverse."""

    def apply(self, st, x):
        return skel.apply(st["cm"], x)

    def rhs(self, st, b):
        return solver.solve(st["fi"], b)

    def solve_block(self, st, B):
        return solver.solve(st["fi"], B)

    def residual(self, st):
        cm = st["cm"]

        def err(x, b):
            if np.ndim(b) == 1:
                return rel_err(skel.apply(cm, x), b)
            return col_rel_err(skel.apply(cm, x), b)
        return err

    def column_error(self, inp, A_rows):
        """Median sampled-row error over all 152 columns the loop applies
        (8 vectors and the 16- and 128-column blocks): many columns keep
        err_digits steady from seed to seed."""
        outs = self.refs["apply"] + [self.refs["apply16"], self.refs["apply128"]]
        if any(y is None for y in outs):
            return math.inf
        rows = inp["rows"]
        X = np.column_stack(inp["pool"] + [inp["blocks"][16], inp["blocks"][128]])
        Y = np.column_stack(outs)[rows]
        ref = A_rows @ X
        return median(list(np.linalg.norm(Y - ref, axis=0) / np.linalg.norm(ref, axis=0)))

    @staticmethod
    def sampled(rows, A_rows):
        """Sampled-row oracle: compare rows ``rows`` of a product with the
        exactly evaluated rows A[rows, :] times the input."""
        def err(y, x):
            ref = A_rows @ x
            if np.ndim(x) == 1:
                return rel_err(y[rows], ref)
            return col_rel_err(y[rows], ref)
        return err


_SWEEP_SPANS = ("geom.build_tree", "geom.level_neighbors", "kernels.eval_block",
                "lowrank.id_fixed_precision", "lowrank.pivoted_qr", "skel.compress")
_DIRECT_SPANS = ("solver.factor", "solver.lu_factor", "solver.lu_solve", "solver.solve")


class EllipseBieRhs(_CompressedWorkload):
    name = "ellipse-bie-rhs"
    n = 16384
    eps = 1e-9
    tol = 100 * eps
    spec = kernels.KernelSpec("laplace", 2)
    traced = _SWEEP_SPANS + _DIRECT_SPANS + (
        "skel.apply", "skel.serialize", "bie.discretize_dirichlet",
        "bie.compress_system", "bie.eval_interior")

    def __init__(self, n=None, setup_reps=2):
        super().__init__(n)
        self.setup_reps = setup_reps

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        # exterior point sources and interior checkpoints, well inside
        phi = rng.uniform(0, 2 * np.pi, POOL)
        src = 4.0 * np.column_stack([np.cos(phi), np.sin(phi)])
        psi, r = rng.uniform(0, 2 * np.pi, POOL), rng.uniform(0.2, 0.8, POOL)
        chk = r[:, None] * np.column_stack([np.cos(psi), 0.5 * np.sin(psi)])
        rows = np.sort(rng.choice(self.n, ORACLE_ROWS, replace=False))
        pool, blocks = _gauss_pool(rng, self.n)
        curve = bie.ellipse(2.0, 1.0, self.n)
        inp = {"curve": curve, "src": src, "chk": chk, "rows": rows,
               "pool": pool, "blocks": blocks}
        inp["arrays"] = [curve.xy, src, chk, rows, *_pool_arrays(inp)]
        return inp

    def setup(self, inp):
        system = bie.discretize_dirichlet(inp["curve"], self.spec)
        _, cm = bie.compress_system(system, self.eps)
        fi = solver.factor(cm)
        return {"system": system, "cm": cm, "fi": fi}

    def reference(self, st, inp, ops, tracer):
        system, curve = st["system"], inp["curve"]
        with tracer.paused():
            A_rows = system.block(inp["rows"], np.arange(self.n))
        residual = self.residual(st)
        self.reference_loop_outputs(st, inp, ops, tracer, {
            "rhs": residual, "apply": self.sampled(inp["rows"], A_rows),
            "solve": residual})
        ops.run("serialize", lambda: skel.serialize_compressed(st["cm"]))
        # point-source Dirichlet data: the interior field is known exactly
        errs = []
        for src, chk in zip(inp["src"], inp["chk"]):
            errs.append(self._checkpoint_error(st, curve, system.spec, src, chk, ops))
        return median(errs)

    def _checkpoint_error(self, st, curve, spec, src, chk, ops):
        ok, rhs = ops.run("point_source", lambda: bie.point_source_data(curve, src, spec))
        if ok:
            ok, sigma = ops.run("rhs", lambda: self.rhs(st, rhs))
        if ok:
            ok, u = ops.run("eval_interior", lambda: bie.eval_interior(curve, sigma, spec, chk))
        if not ok:
            return math.inf
        uex = -np.log(np.linalg.norm(chk - src)) / (2 * np.pi)
        err = abs(u[0] - uex) / abs(uex)
        ops.check("checkpoint", err <= 1e-8, f"checkpoint error {err:.3e}")
        return err


class SquareVolume(_CompressedWorkload):
    name = "square-volume"
    n = 8192
    eps = 1e-6
    tol = 100 * eps
    spec = kernels.KernelSpec("laplace", 2)
    traced = _SWEEP_SPANS + _DIRECT_SPANS + ("skel.apply", "skel.serialize")

    def make_inputs(self, seed):
        return _volume_inputs(seed, self.n, 2)

    def setup(self, inp):
        tree = geom.build_tree(inp["points"])
        cm = skel.compress(self.spec, inp["points"], tree, self.eps)
        fi = solver.factor(cm)
        return {"cm": cm, "fi": fi}

    def reference(self, st, inp, ops, tracer):
        pts, rows = inp["points"], inp["rows"]
        A_rows = kernels.eval_block(self.spec, pts.subset(rows), pts)
        oracle = self.sampled(rows, A_rows)
        residual = self.residual(st)
        self.reference_loop_outputs(st, inp, ops, tracer, {
            "rhs": residual, "apply": oracle, "solve": residual})
        ops.run("serialize", lambda: skel.serialize_compressed(st["cm"]))
        return self.column_error(inp, A_rows)


class CubeVolume(_CompressedWorkload):
    name = "cube-volume"
    n = 4096
    eps = 1e-6
    tol = 100 * eps
    spec = kernels.KernelSpec("laplace", 3)
    has_solve = False
    # id_randomized runs only where a proxy block is tall enough, which
    # depends on the ranks the seed's points give, so it is not required;
    # solver.factor comes from the probe of the traced run
    traced = _SWEEP_SPANS + ("skel.apply", "skel.serialize", "solver.factor",
                             "solver.lu_factor")

    def make_inputs(self, seed):
        return _volume_inputs(seed, self.n, 3)

    def setup(self, inp):
        tree = geom.build_tree(inp["points"])
        cm = skel.compress(self.spec, inp["points"], tree, self.eps)
        return {"cm": cm, "fi": None}

    # factoring fails at the seed commit, so a right-hand side is answered
    # by the fast apply (the volume potential of the given charges)
    def rhs(self, st, b):
        return skel.apply(st["cm"], b)

    def reference(self, st, inp, ops, tracer):
        pts, rows = inp["points"], inp["rows"]
        A_rows = kernels.eval_block(self.spec, pts.subset(rows), pts)
        oracle = self.sampled(rows, A_rows)
        self.reference_loop_outputs(st, inp, ops, tracer, {"rhs": oracle, "apply": oracle})
        ops.run("serialize", lambda: skel.serialize_compressed(st["cm"]))
        if tracer.enabled:
            self.factor_probe(st)
        return self.column_error(inp, A_rows)

    @staticmethod
    def factor_probe(st):
        """Attempt ``factor`` once, outside the workload's operations.

        It currently raises for most seeds ("non-square Lambda
        block", ROADMAP item 1).  A benchmark workload must have no failing
        operation, so the attempt is not counted as one; the traced run
        reports its outcome as ``solver.factor.failures`` instead, from the
        error its span records."""
        with contextlib.suppress(Exception):
            solver.factor(st["cm"])


class TrefoilScatter(Workload):
    name = "trefoil-scatter"
    n = 256
    setup_reps = 3
    omega = 2.0         # trefoil diameter in wavelengths
    spacing = 3.0       # centre distance of neighbouring trefoils
    eps = 1e-8
    gmres_tol = 1e-6
    # the GMRES answer must match the dense solve to this relative error
    tol = 100 * gmres_tol
    traced = _SWEEP_SPANS + _DIRECT_SPANS + (
        "kernels.neumann_trace", "solver.gmres", "bie.scattering.matrix",
        "bie.precond_blocks", "bie.precond_apply")

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        curves = [bie.trefoil(self.n, center=(self.spacing * i, self.spacing * j))
                  for i in range(2) for j in range(2)]
        k = 2 * np.pi * self.omega / curves[0].diameter()
        xy = np.concatenate([c.xy for c in curves])
        nu = np.concatenate([c.normals for c in curves])
        # sound-hard data -du_inc/dnu for plane waves from seed-chosen angles
        angles = rng.uniform(0, 2 * np.pi, POOL)
        pool = []
        for a in angles:
            d = np.array([np.cos(a), np.sin(a)])
            pool.append(-1j * k * (nu @ d) * np.exp(1j * k * (xy @ d)))
        _, blocks = _gauss_pool(rng, xy.shape[0], complex_=True)
        inp = {"curves": curves, "k": k, "pool": pool, "blocks": blocks}
        inp["arrays"] = [xy, angles, *_pool_arrays(inp)]
        return inp

    def setup(self, inp):
        sys_ = bie.scattering_system(inp["curves"], inp["k"])
        A = sys_.matrix()
        facs = sys_.precond_blocks(eps=self.eps)
        return {"A": A, "precond": sys_.precond_apply(facs)}

    def rhs(self, st, b):
        A = st["A"]
        x, _ = solver.gmres(lambda v: A @ v, b, tol=self.gmres_tol, precond=st["precond"])
        return x

    def apply(self, st, x):
        return st["A"] @ x

    def solve_block(self, st, B):
        return st["precond"](B)

    def reference(self, st, inp, ops, tracer):
        A = st["A"]
        # dense oracle: one LU of the assembled system
        dense = scipy.linalg.lu_factor(A)
        off = np.concatenate([[0], np.cumsum([c.n for c in inp["curves"]])])

        def check_rhs(x, b):
            return rel_err(x, scipy.linalg.lu_solve(dense, b))

        def check_apply(y, x):
            return rel_err(y, A @ x)

        def check_solve(X, B):
            # per-scatterer solves: the block diagonal of A times X gives B
            R = np.empty_like(B)
            for i in range(len(off) - 1):
                s = slice(off[i], off[i + 1])
                R[s] = A[s, s] @ X[s]
            return col_rel_err(R, B)

        errs = self.reference_loop_outputs(st, inp, ops, tracer, {
            "rhs": check_rhs, "apply": check_apply, "solve": check_solve})
        # plain GMRES on the first right-hand side, for the iteration count
        b = inp["pool"][0]
        x_ref = scipy.linalg.lu_solve(dense, b)
        ok, out = ops.run("gmres_plain", lambda: solver.gmres(lambda v: A @ v, b,
                                                               tol=self.gmres_tol))
        if ok:
            err = rel_err(out[0], x_ref)
            ops.check("gmres_plain", err <= self.tol, f"plain GMRES error {err:.3e}")
        return median(errs["rhs"])


WORKLOADS = {w.name: w for w in (EllipseBieRhs, SquareVolume, TrefoilScatter, CubeVolume)}


def latency_profile(samples):
    """Per operation: call count, fastest call, and each of p50 and p90
    that has ten calls beyond it, in ms.  These go to the run record only:
    on a shared machine they move by up to 2x between runs (see README)."""
    out = {}
    for kind, v in samples.items():
        if v:
            out[kind] = {"n": len(v), "min": 1e3 * min(v)}
            out[kind].update({f"p{round(100 * q)}": 1e3 * percentile(v, q)
                              for q in (0.5, 0.9) if len(v) >= min_samples(q)})
    return out
