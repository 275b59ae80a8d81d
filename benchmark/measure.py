"""Small measurement helpers: percentiles, metric names, operation
accounting, peak memory, the environment record and the input fingerprint."""

import hashlib
import math
import os
import platform
import re
import resource
import sys
import traceback
from pathlib import Path

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# a percentile is reported only if at least this many samples lie beyond it
TAIL_SAMPLES = 10


def check_metric_name(name):
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not isinstance(name, str) or not METRIC_NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def min_samples(q):
    """Smallest sample count that leaves TAIL_SAMPLES samples beyond the
    q-quantile (q in [0.5, 1))."""
    return math.ceil(TAIL_SAMPLES / (1.0 - q) - 1e-9)


def percentile(samples, q):
    """Nearest-rank q-quantile of ``samples``.

    Raises ValueError when fewer than :func:`min_samples` samples are given,
    so no reported tail percentile rests on fewer than ten samples."""
    if not 0.5 <= q < 1.0:
        raise ValueError("q must lie in [0.5, 1)")
    need = min_samples(q)
    if len(samples) < need:
        raise ValueError(f"p{round(100 * q)} needs {need} samples, got {len(samples)}")
    ordered = sorted(samples)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def median(samples):
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def error_digits(err):
    """-log10 of a relative error, within [0, 17].  An error of 1 or more,
    inf (no answer) or nan reads 0, so the result line stays strict JSON."""
    if not err < 1.0:
        return 0.0
    return -math.log10(max(err, 1e-17))


class Ops:
    """Counts attempted and failed operations.

    An exception fails the operation; a failed accuracy check fails it and
    also marks the run incorrect, because a wrong answer was returned."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures = []

    def run(self, kind, fn):
        """Attempt ``fn()``; returns (ok, result)."""
        self.attempted += 1
        try:
            return True, fn()
        except Exception as exc:  # the run must go on and report the failure
            self.failed += 1
            self.failures.append({"op": kind, "error": type(exc).__name__,
                                  "message": str(exc)[:300],
                                  "where": traceback.format_exc(limit=-1).strip()[-300:]})
            return False, None

    def check(self, kind, ok, detail=""):
        """Record the outcome of an accuracy check on an operation that
        already counted as attempted."""
        if not ok:
            self.failed += 1
            self.correct = False
            self.failures.append({"op": kind, "error": "check", "message": detail})
        return ok


def peak_rss_mb():
    """Peak resident set size of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(arrays):
    """SHA-256 over the generated input arrays, in order: equal digests mean
    both sides of a comparison ran identical inputs."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    """Commit of a git checkout, read from .git without running git; None
    when the tree is not a git repository."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src_dir):
    """SHA-256 over the library's source files, which identifies the code
    under test even where no git metadata exists."""
    h = hashlib.sha256()
    for p in sorted(Path(src_dir).rglob("*.py")):
        h.update(p.relative_to(src_dir).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "SKELKIT_THREADS")


def environment(root, src_dir):
    import numpy as np
    import scipy

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(src_dir),
    }
