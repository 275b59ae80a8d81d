"""Span tracing around calls into skelkit's layers.

The library is not instrumented.  Instead, each public function is wrapped
under its name in the namespace of the module that *calls* it: ``skel`` and
``bie`` bind ``eval_block``, ``id_fixed_precision``, ``compress_source`` and
friends with ``from ... import``, so patching only the defining module would
miss every call.  The benchmark's own calls go through module attributes
(``skel.apply``, ``solver.solve``), which the same table covers.  One
private function is wrapped as well: ``bie._neumann_trace_block`` evaluates
the Helmholtz Bessel blocks of the scattering system without going through
``eval_block``, so it is the ``kernels`` work of ``trefoil-scatter``.

Spans carry a name, start, end, parent and phase; they stay in memory and
are written out when the run ends.
"""

import contextlib
import functools
import importlib
import time

import numpy as np


class Span:
    __slots__ = ("name", "parent", "phase", "start", "end", "attrs", "error")

    def __init__(self, name, parent, phase, start=0.0, end=0.0, attrs=None):
        self.name = name
        self.parent = parent
        self.phase = phase
        self.start = start
        self.end = end
        self.attrs = attrs or {}
        self.error = None

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {"name": self.name, "parent": self.parent, "phase": self.phase,
                "start": self.start, "end": self.end, "attrs": self.attrs,
                "error": self.error}


class Tracer:
    """Records spans while ``enabled``; wrappers pass straight through
    otherwise, so one set of patches serves traced and untraced phases."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self.phase = None
        self._stack = []

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark-side work (oracles, checks) without recording it."""
        was = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, name, fn, attrs=None, wrap_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = Span(name, self._stack[-1] if self._stack else None, self.phase)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter()
                span.error = type(exc).__name__
                raise
            finally:
                self._stack.pop()
            span.end = time.perf_counter()
            if attrs is not None:
                # attribute extraction is bookkeeping, not layer work
                self.enabled = False
                try:
                    span.attrs = attrs(args, kwargs, out)
                finally:
                    self.enabled = True
            if wrap_result is not None:
                out = wrap_result(self, out)
            return out

        return wrapper


# -- attribute extractors (computed sizes, not timings) ----------------------

def _nrhs(x):
    x = np.asarray(x)
    return 1 if x.ndim == 1 else int(x.shape[1])


def _cplx(a):
    return np.iscomplexobj(a)


def _attrs_tree(args, kwargs, tree):
    return {"boxes": len(tree.nodes)}


def _attrs_block(args, kwargs, block):
    return {"entries": int(block.size)}


def _attrs_id(args, kwargs, idp):
    min_rank = kwargs.get("min_rank", args[2] if len(args) > 2 else 0)
    big = float(np.abs(idp.proj).max(initial=0.0))
    return {"min_rank": int(min_rank), "rank": int(idp.rank), "max_interp": big}


def qr_flops(m, n, rank, complex_=False):
    """Householder update flops of ``rank`` steps of column-pivoted QR on an
    m x n matrix: each step j reads and rank-1 updates the trailing
    (m-j) x (n-j-1) block, 4 (m-j)(n-j-1) real flops; complex costs 4x."""
    j = np.arange(rank, dtype=np.float64)
    flops = float(np.sum(4.0 * (m - j) * np.maximum(n - j - 1, 0)))
    return 4.0 * flops if complex_ else flops


def lu_flops(n, complex_=False):
    flops = 2.0 * n ** 3 / 3.0
    return 4.0 * flops if complex_ else flops


def lu_solve_flops(n, nrhs, complex_=False):
    flops = 2.0 * n * n * nrhs
    return 4.0 * flops if complex_ else flops


def _attrs_qr(args, kwargs, out):
    A = np.asarray(args[0])
    m, n = A.shape
    rank = int(out[2])
    return {"m": m, "n": n, "rank": rank, "flops": qr_flops(m, n, rank, _cplx(A))}


def _attrs_lu_factor(args, kwargs, out):
    A = np.asarray(args[0])
    return {"n": int(A.shape[0]), "flops": lu_flops(A.shape[0], _cplx(A))}


def _attrs_lu_solve(args, kwargs, out):
    lu = args[0][0]
    b = np.asarray(args[1])
    return {"n": int(lu.shape[0]), "nrhs": _nrhs(b),
            "flops": lu_solve_flops(lu.shape[0], _nrhs(b), _cplx(lu) or _cplx(b))}


def _node_bytes(fn):
    total = fn.Dd.nbytes + fn.Ld.nbytes + fn.Rd.nbytes + fn.Lam.nbytes
    for lu in (fn.lu_D, fn.lu_M):
        if lu is not None:
            total += lu[0].nbytes + np.asarray(lu[1]).nbytes
    return total


def _attrs_factor(args, kwargs, fi):
    held = read = 0
    for lv in fi.levels:
        for fn in lv.nodes:
            held += _node_bytes(fn)
            read += fn.Dd.nbytes + fn.Ld.nbytes + fn.Rd.nbytes
    if fi.S_lu is not None:
        top = fi.S_lu[0].nbytes + np.asarray(fi.S_lu[1]).nbytes
        held += top
        read += top
    return {"held_bytes": held, "solve_read_bytes": read,
            "rcond_warnings": len(fi.warnings)}


def _make_attrs_compress(serialize):
    def attrs(args, kwargs, cm):
        return {"nodes": sum(len(lv.nodes) for lv in cm.levels),
                "levels": cm.nlevels, "top_rank": int(cm.S.shape[0]),
                "serialized_bytes": len(serialize(cm))}
    return attrs


def _attrs_nrhs(args, kwargs, out):
    return {"nrhs": _nrhs(args[1])}


def _attrs_gmres(args, kwargs, out):
    return {"iters": int(out[1]), "precond": kwargs.get("precond") is not None}


def _attrs_bytes(args, kwargs, out):
    return {"bytes": int(out.nbytes)}


def _wrap_precond(tracer, apply_fn):
    return tracer.wrap("bie.precond_apply", apply_fn)


def patch_table(serialize):
    """(module, attribute path, span name, attrs, wrap_result) for every
    call site the benchmark traces.  ``serialize`` is the unpatched
    ``serialize_compressed``, used to size compressed matrices."""
    return [
        # geom
        ("skelkit.geom", "build_tree", "geom.build_tree", _attrs_tree, None),
        ("skelkit.bie", "build_tree", "geom.build_tree", _attrs_tree, None),
        ("skelkit.skel", "level_neighbors", "geom.level_neighbors", None, None),
        # kernels
        ("skelkit.skel", "eval_block", "kernels.eval_block", _attrs_block, None),
        ("skelkit.bie", "eval_block", "kernels.eval_block", _attrs_block, None),
        ("skelkit.bie", "_neumann_trace_block", "kernels.neumann_trace", _attrs_block, None),
        # lowrank
        ("skelkit.skel", "id_fixed_precision", "lowrank.id_fixed_precision", _attrs_id, None),
        ("skelkit.lowrank", "id_fixed_precision", "lowrank.id_fixed_precision", _attrs_id, None),
        ("skelkit.skel", "id_randomized", "lowrank.id_randomized", _attrs_id, None),
        ("skelkit.lowrank", "pivoted_qr", "lowrank.pivoted_qr", _attrs_qr, None),
        # skel
        ("skelkit.skel", "compress_source", "skel.compress", _make_attrs_compress(serialize), None),
        ("skelkit.bie", "compress_source", "skel.compress", _make_attrs_compress(serialize), None),
        ("skelkit.skel", "apply", "skel.apply", _attrs_nrhs, None),
        ("skelkit.skel", "serialize_compressed", "skel.serialize", None, None),
        # solver
        ("skelkit.solver", "factor", "solver.factor", _attrs_factor, None),
        ("skelkit.bie", "factor", "solver.factor", _attrs_factor, None),
        ("skelkit.solver", "lu_factor", "solver.lu_factor", _attrs_lu_factor, None),
        ("skelkit.solver", "lu_solve", "solver.lu_solve", _attrs_lu_solve, None),
        ("skelkit.solver", "solve", "solver.solve", _attrs_nrhs, None),
        ("skelkit.bie", "solve", "solver.solve", _attrs_nrhs, None),
        ("skelkit.solver", "gmres", "solver.gmres", _attrs_gmres, None),
        # bie
        ("skelkit.bie", "discretize_dirichlet", "bie.discretize_dirichlet", None, None),
        ("skelkit.bie", "compress_system", "bie.compress_system", None, None),
        ("skelkit.bie", "ScatteringSystem.matrix", "bie.scattering.matrix", _attrs_bytes, None),
        ("skelkit.bie", "ScatteringSystem.precond_blocks", "bie.precond_blocks", None, None),
        ("skelkit.bie", "ScatteringSystem.precond_apply", "bie.precond_apply_build", None,
         _wrap_precond),
        ("skelkit.bie", "eval_interior", "bie.eval_interior", None, None),
    ]


class Patches:
    """Installs the wrappers of :func:`patch_table` and restores the
    originals on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        serialize = importlib.import_module("skelkit.skel").serialize_compressed
        for modname, path, name, attrs, wrap_result in patch_table(serialize):
            owner = importlib.import_module(modname)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(name, original, attrs, wrap_result))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


# -- aggregation ---------------------------------------------------------------

def covered(start, end, intervals):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span: its duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered(s.start, s.end, children[i])
            for i, s in enumerate(spans)]


def layer_metrics(spans, samples, overhead_s):
    """Per-layer metrics of a traced run.

    Totals and counts cover the traced set-up and the fixed reference
    phase, whose work is the same on every run with the same seed; the
    time-bounded loop contributes per-call medians only."""
    fixed = [i for i, s in enumerate(spans) if s.phase in ("setup", "reference")]
    selfs = self_times(spans)

    def pick(name, where=None):
        return [spans[i] for i in fixed
                if spans[i].name == name and (where is None or where(spans[i]))]

    def total(name):
        return sum(s.duration for s in pick(name))

    def calls(name, where=None):
        return len(pick(name, where))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in pick(name))

    def self_total(name):
        return sum(selfs[i] for i in fixed if spans[i].name == name)

    def parent_is(*names):
        return lambda s: s.parent is not None and spans[s.parent].name in names

    def loop_calls(name, nrhs):
        return [s.duration for s in spans
                if s.phase == "loop" and s.name == name and s.attrs.get("nrhs", 1) == nrhs]

    def loop_median(name):
        d = sorted(loop_calls(name, 1))
        return d[len(d) // 2] if d else 0.0

    def span_rate(name, nrhs):
        d = loop_calls(name, nrhs)
        return nrhs / min(d) if d else 0.0

    def block_rate(kind, nrhs):
        d = samples.get(kind, [])
        return nrhs / min(d) if d else 0.0

    def first_attr(name, key, where):
        found = pick(name, where)
        return found[0].attrs.get(key, 0) if found else 0

    ids = pick("lowrank.id_fixed_precision", parent_is("skel.compress")) + \
        pick("lowrank.id_randomized", parent_is("skel.compress"))
    reruns = sum(1 for s in ids if s.attrs.get("min_rank", 0) > 0)
    eb_s = total("kernels.eval_block")
    eb_entries = attr_sum("kernels.eval_block", "entries")
    return {
        "geom.build_tree.s": total("geom.build_tree"),
        "geom.level_neighbors.s": total("geom.level_neighbors"),
        "geom.level_neighbors.calls": calls("geom.level_neighbors"),
        "geom.boxes": attr_sum("geom.build_tree", "boxes"),
        "kernels.eval_block.s": eb_s,
        "kernels.eval_block.calls": calls("kernels.eval_block"),
        "kernels.eval_block.entries": eb_entries,
        "kernels.eval_block.entries_per_us": eb_entries / (eb_s * 1e6) if eb_s > 0 else 0.0,
        "kernels.neumann_trace.s": total("kernels.neumann_trace"),
        "kernels.neumann_trace.calls": calls("kernels.neumann_trace"),
        "kernels.neumann_trace.entries": attr_sum("kernels.neumann_trace", "entries"),
        "lowrank.id_fixed_precision.s": total("lowrank.id_fixed_precision"),
        "lowrank.id_fixed_precision.calls": calls("lowrank.id_fixed_precision"),
        "lowrank.pivoted_qr.s": total("lowrank.pivoted_qr"),
        "lowrank.pivoted_qr.calls": calls("lowrank.pivoted_qr"),
        "lowrank.qr_gflop": attr_sum("lowrank.pivoted_qr", "flops") / 1e9,
        "lowrank.id_rerun.calls": reruns,
        "lowrank.id.first_pass_frac": (len(ids) - reruns) / len(ids) if ids else 0.0,
        "lowrank.id_randomized.s": total("lowrank.id_randomized"),
        "lowrank.id_randomized.calls": calls("lowrank.id_randomized"),
        "lowrank.id_randomized.fallbacks": calls("lowrank.id_fixed_precision",
                                                 parent_is("lowrank.id_randomized")),
        "lowrank.max_interp_entry": max((s.attrs.get("max_interp", 0.0) for s in ids),
                                        default=0.0),
        "skel.compress.s": total("skel.compress"),
        "skel.compress.self_s": self_total("skel.compress"),
        "skel.apply.s": loop_median("skel.apply"),
        "skel.apply.nrhs16.rhs_per_s": span_rate("skel.apply", 16),
        "skel.apply.nrhs128.rhs_per_s": span_rate("skel.apply", 128),
        "skel.nodes": attr_sum("skel.compress", "nodes"),
        "skel.levels": max((s.attrs.get("levels", 0) for s in pick("skel.compress")), default=0),
        "skel.top_rank": max((s.attrs.get("top_rank", 0) for s in pick("skel.compress")),
                             default=0),
        "skel.serialize.s": total("skel.serialize"),
        "skel.compressed_mb": attr_sum("skel.compress", "serialized_bytes") / 1e6,
        "solver.factor.s": total("solver.factor"),
        "solver.factor.self_s": self_total("solver.factor"),
        "solver.factor.failures": calls("solver.factor", lambda s: s.error is not None),
        "solver.lu_factor.s": total("solver.lu_factor"),
        "solver.lu_factor.calls": calls("solver.lu_factor"),
        "solver.lu_solve.s": total("solver.lu_solve"),
        "solver.lu_solve.calls": calls("solver.lu_solve"),
        "solver.lu_gflop": (attr_sum("solver.lu_factor", "flops")
                            + attr_sum("solver.lu_solve", "flops")) / 1e9,
        "solver.rcond_warnings": attr_sum("solver.factor", "rcond_warnings"),
        "solver.factored_mb": attr_sum("solver.factor", "held_bytes") / 1e6,
        "solver.solve_read_mb": attr_sum("solver.factor", "solve_read_bytes") / 1e6,
        "solver.solve.s": loop_median("solver.solve"),
        "solver.solve.nrhs16.rhs_per_s": block_rate("solve16", 16),
        "solver.solve.nrhs128.rhs_per_s": block_rate("solve128", 128),
        "solver.gmres.s": loop_median("solver.gmres"),
        "solver.gmres.iters_plain": first_attr("solver.gmres", "iters",
                                               lambda s: not s.attrs.get("precond")),
        "solver.gmres.iters_prec": first_attr("solver.gmres", "iters",
                                              lambda s: s.attrs.get("precond")),
        "bie.discretize_dirichlet.s": total("bie.discretize_dirichlet"),
        "bie.compress_system.s": total("bie.compress_system"),
        "bie.scattering.matrix.s": total("bie.scattering.matrix"),
        "bie.scattering.matrix_mb": attr_sum("bie.scattering.matrix", "bytes") / 1e6,
        "bie.precond_blocks.s": total("bie.precond_blocks"),
        "bie.precond_apply.calls": calls("bie.precond_apply"),
        "bie.eval_interior.s": total("bie.eval_interior"),
        "trace.overhead_s": overhead_s,
        "trace.spans": len(spans),
    }
