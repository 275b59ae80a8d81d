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
    # solve_bench reads no seed: passed to it, a seed stopped the suite
    ("run_desk_suite.py", ["--nmax", "1024", "--seed", "3"],
     ["apply_circle.csv", "apply_square.csv", "solve_ellipse.csv"]),
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


@pytest.mark.parametrize("change, status", [
    # parent 100..109 (median 104.5, IQR 4.5, a spread of 0.043); bound 0.15
    ([p + 0.0 for p in range(100, 110)], "within bound"),
    # medians 15 apart, inside the bound's 15.675
    ([p + 15.0 for p in range(100, 110)], "within bound"),
    # medians 16 apart, outside it
    ([p + 16.0 for p in range(100, 110)], "worse"),
    # better by far: within bound
    ([p - 50.0 for p in range(100, 110)], "within bound"),
])
def test_ab_regression_on_fixed_numbers(change, status):
    ab = _ab()
    pairs = list(zip(map(float, range(100, 110)), change))
    assert ab.regression(ab.compare(pairs, "lower"), 0.15)["status"] == status
    # the numbers mirrored about the parent's median, for a metric where
    # higher is better
    flipped = ab.regression(ab.compare([(209 - p, 209 - c) for p, c in pairs], "higher"), 0.15)
    assert flipped["status"] == status


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_ab_regression_unresolved_when_the_parent_spreads_wider_than_the_bound(better):
    ab = _ab()
    # parent 50, 60, ..., 140: median 95, IQR 45, a spread of 0.47 > 0.15
    parent = [50.0 + 10 * i for i in range(10)]
    sign = 1.0 if better == "lower" else -1.0
    same = ab.regression(ab.compare(list(zip(parent, parent)), better), 0.15)
    assert same["status"] == "unresolved" and same["parent_spread"] == pytest.approx(45 / 95)
    # better in every pair, but the runs overlap: still unresolved
    near = [p - sign * 20.0 for p in parent]
    assert ab.regression(ab.compare(list(zip(parent, near)), better), 0.15)["status"] == \
        "unresolved"
    # every change run better than every parent run
    apart = [p - sign * 100.0 for p in parent]
    got = ab.regression(ab.compare(list(zip(parent, apart)), better), 0.15)
    assert got["status"] == "within bound" and got["all_runs_better"]
    # worse by more than the bound is worse, whatever the spread
    worse = [p + sign * 20.0 for p in parent]
    assert ab.regression(ab.compare(list(zip(parent, worse)), better), 0.15)["status"] == \
        "worse"


def test_ab_records_uncommitted_src(tmp_path):
    # a side whose src is not its commit ran code that its commit field
    # does not name
    ab = _ab()
    assert ab.src_uncommitted(tmp_path) is None    # no .git of its own

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("outside src\n")
    git("add", "src")
    git("commit", "-q", "-m", "one")
    assert ab.src_uncommitted(tmp_path) is False
    (tmp_path / "src" / "b.py").write_text("y = 2\n")
    assert ab.src_uncommitted(tmp_path) is True
    (tmp_path / "src" / "b.py").unlink()
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    assert ab.src_uncommitted(tmp_path) is True
    git("commit", "-q", "-am", "two")
    assert ab.src_uncommitted(tmp_path) is False
    rec = ab.report([], {}, uncommitted={"parent": False, "change": True})
    assert [rec["sides"][s]["src_uncommitted"] for s in ab.SIDES] == [False, True]


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
        # the three set-ups whose median is setup_s, from run.py's record file
        times = rec["pairs"][0][side]["setup_times_s"]
        assert len(times) == 3 and all(t > 0 for t in times)
        assert sorted(times)[1] == rec["pairs"][0][side]["metrics"]["setup_s"]
        assert rec["sides"][side]["runs"] == 1
        assert rec["sides"][side]["failed_ops"] == 0
        assert "src_uncommitted" in rec["sides"][side]
    assert rec["verdict"]["pairs"] == 1 and rec["verdict"]["met"] is False
    # one run a side: no spread, the same answer, so nothing is worse
    assert set(rec["no_regression"]) == set(rec["metrics"])
    assert rec["no_regression"]["err_digits"]["status"] == "within bound"
