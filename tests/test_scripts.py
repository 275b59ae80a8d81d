"""Smoke runs of the experiment scripts documented in the README."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, args, cwd, **env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script, args, outputs", [
    ("run_desk_suite.py", ["--nmax", "1024"],
     ["apply_circle.csv", "apply_square.csv", "solve_ellipse.csv"]),
    ("scatter_demo.py", ["--n", "64"], ["scatter_demo.csv", "scatter_density.csv"]),
    ("fingerprint.py", ["--quick"], ["fingerprint.txt"]),
])
def test_script_runs(tmp_path, script, args, outputs):
    proc = _run(script, [*args, "--outdir", str(tmp_path)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) >= 2, name


def test_fingerprint_compare_exits_1_on_a_differing_line(tmp_path):
    # the saved run asks for two BLAS threads and the compared run for one:
    # the script runs on one either way, so the lines still match
    saved, again, doctored = (tmp_path / d for d in ("saved", "again", "doctored"))
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    proc = _run("fingerprint.py", ["--quick", "--outdir", str(saved)], tmp_path,
                **dict.fromkeys(threads, "2"))
    assert proc.returncode == 0, proc.stderr
    lines = (saved / "fingerprint.txt").read_text().splitlines()
    proc = _run("fingerprint.py", ["--quick", "--outdir", str(again), "--compare", str(saved)],
                tmp_path, **dict.fromkeys(threads, "1"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # one hash changed: the saved line and this run's line are printed
    case, item, sha = lines[3].split()
    wrong = f"{case} {item} {sha[::-1]}"
    doctored.mkdir()
    (doctored / "fingerprint.txt").write_text("\n".join(lines[:3] + [wrong] + lines[4:]) + "\n")
    proc = _run("fingerprint.py", ["--quick", "--outdir", str(again), "--compare",
                                   str(doctored)], tmp_path)
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-2:] == [f"- {wrong}", f"+ {lines[3]}"]


def _ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_ab_statistics_on_fixed_numbers():
    ab = _ab()
    assert ab.parse_seeds("4501-4503, 7") == [4501, 4502, 4503, 7]
    # the quartiles numpy.percentile gives
    assert ab.summary([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25,
                                                "min": 1.0, "max": 4.0, "n": 4}
    stats = ab.compare([(2.0, 1.0), (1.0, 1.0), (1.0, 3.0)], "lower")
    assert (stats["change_wins"], stats["ties"], stats["change_losses"]) == (1, 1, 1)
    assert ab.compare([(2.0, 1.0)], "higher")["change_losses"] == 1


@pytest.mark.parametrize("change, met", [
    # parent 10..19 (median 14.5, IQR 4.5); the change 5 lower in every pair
    ([p - 5.0 for p in range(10, 20)], True),
    # 5 lower in 8 pairs, higher in 2: 8 of 10 wins
    ([p - 5.0 for p in range(10, 18)] + [20.0, 21.0], False),
    # lower in every pair, but the medians 4 apart, inside the IQR
    ([p - 4.0 for p in range(10, 20)], False),
    # 9 pairs, all won by far
    ([p - 9.0 for p in range(10, 19)], False),
])
def test_ab_verdict_on_fixed_numbers(change, met):
    ab = _ab()
    pairs = list(zip(map(float, range(10, 20)), change))
    got = ab.verdict(ab.compare(pairs, "lower"), "peak_rss_mb")
    assert got["met"] is met
    # the same numbers negated, for a metric where higher is better
    flipped = ab.verdict(ab.compare([(-p, -c) for p, c in pairs], "higher"), "err_digits")
    assert flipped["met"] is met
    assert flipped["median_gain"] == got["median_gain"]


def test_ab_smoke_pair_on_one_checkout(tmp_path):
    out = tmp_path / "ab.json"
    proc = _run("ab.py", ["--parent", str(ROOT), "--change", str(ROOT), "--workload",
                          "trefoil-scatter", "--seeds", "3", "--seconds", "0.3",
                          "--claim", "peak_rss_mb", "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(out.read_text())
    assert [p["first"] for p in rec["pairs"]] == ["parent"]
    assert set(rec["metrics"]) == {"setup_s", "err_digits", "peak_rss_mb"}
    assert rec["metrics"]["err_digits"]["ties"] == 1   # one checkout, one answer
    assert rec["host"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    for side in ("parent", "change"):
        assert rec["sides"][side]["runs"] == 1
        assert rec["sides"][side]["failed_ops"] == 0
    assert rec["verdict"]["pairs"] == 1 and rec["verdict"]["met"] is False
