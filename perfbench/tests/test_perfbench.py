"""Smoke tests of the benchmark itself, on the tiny inputs.

Run from the repository root:

    python3 -m pytest perfbench/tests -q -p no:cacheprovider
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pandas as pd
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [ROOT, BENCH]

import gen  # noqa: E402
import host  # noqa: E402
import oracle  # noqa: E402
from session import Session, Stalled, run_job  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


def _result(p) -> dict:
    assert p.returncode == 0, p.stderr[-3000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_reports_end_to_end(workload):
    res = _result(_run("--workload", workload, "--seed", "3",
                       "--seconds", "1", "--trace", "0", "--size", "tiny"))
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    res = _result(_run("--workload", "revalidate", "--seed", "3",
                       "--trace", "1", "--size", "tiny"))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    with open(os.path.join(ROOT, ".perfbench_out",
                           "spans-revalidate-3.json")) as f:
        spans = json.load(f)
    assert {s["workload"] for s in spans} == set(gen.WORKLOADS)
    assert all(s["end"] >= s["start"] for s in spans)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_checker_accepts_expected_and_rejects_one_flipped_row(
        workload, tmp_path):
    gen.generate(workload, 3, str(tmp_path), "tiny")
    exp = oracle.expected(workload, str(tmp_path))
    assert oracle.check(dict(exp), exp) == []
    assert oracle.self_test(dict(exp), exp) is None
    for name, want in exp.items():
        if isinstance(want, pd.DataFrame) and len(want):
            flipped = {**exp, name: oracle.flip_one(want)}
            assert oracle.check(flipped, exp), name


def test_same_seed_same_inputs(tmp_path):
    a = gen.generate("revalidate", 7, str(tmp_path / "a"), "tiny")
    b = gen.generate("revalidate", 7, str(tmp_path / "b"), "tiny")
    assert a == b
    for f in ("snapshot_old", "snapshot_new"):
        ta = pd.read_parquet(tmp_path / "a" / f"{f}.parquet")
        tb = pd.read_parquet(tmp_path / "b" / f"{f}.parquet")
        pd.testing.assert_frame_equal(ta, tb)


def test_stall_guard_kills_the_session_and_a_fresh_one_works(
        monkeypatch, tmp_path):
    import ray

    monkeypatch.chdir(tmp_path)
    session = Session(1)
    session.start()
    try:
        @ray.remote
        def nap(s):
            time.sleep(s)
            return s

        t0 = time.perf_counter()
        with pytest.raises(Stalled):
            run_job(lambda: ray.get(nap.remote(60)), timeout=2)
        assert time.perf_counter() - t0 < 10
        session.stop()
        session.start()
        assert ray.get(nap.remote(0)) == 0
    finally:
        session.close()


def test_stopping_a_session_leaves_no_process_behind(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    session = Session(1)
    session.start()
    try:
        started = host.descendants()
    finally:
        session.close()
    assert started
    # neither running nor a zombie handed to PID 1
    assert [p for p in started if os.path.exists(f"/proc/{p}")] == []


def test_without_the_library_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("--workload", "validate", "--seed", "1", "--seconds", "1",
             "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert "correct" not in p.stdout
