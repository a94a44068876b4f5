"""Seeded end-to-end benchmark of boon_ray on Ray Data.

Run from the repository root:

    python3 perfbench/run.py --workload validate --seed 1 --seconds 6 --trace 0

Workloads: validate, integrity, neardup, revalidate (see
``BENCHMARK.json`` for why each exists). Inputs are generated from
``--seed`` into ``.perfbench_work/``; Ray starts with ``num_cpus`` set
to what ``nproc`` prints.

``setup_s`` is the median over ``SETUPS`` fresh Ray sessions of
``ray.init`` + schema compiles + the workload's own set-up, plus one
warm job on the seed's tiny inputs in the last session (the warm job
alone takes 1-8 s on one CPU, so it is not repeated). Jobs then run
back to back for ``--seconds``; each is timed from its first stage to
its collected result and checked exactly against the expected output
(``oracle.py``) outside the timed region.

Both ``files_per_s`` and ``setup_s`` use times with the hypervisor's
steal taken out (``host.Timer``). On a shared VM that steal reached
15% of the machine's CPU time and stretched the same job by up to 2x.
The raw wall times are in the run record next to them (``*_wall_s``).

``peak_rss_mb`` is the highest sum, over samples taken after every
job and before every session stop, of the driver's VmHWM and the
VmHWM of each Ray worker alive at the sample. The inputs and expected
outputs are made in a child process, so the oracle's memory is not in
the driver's figure.

``--trace 1`` prints the per-layer metrics instead (``tracing.py``).
``--workload all`` runs the four workloads one after another, each in
its own process, and prints their end-to-end metrics as a table.
Two more modes feed the docs rather than the metrics:

    python3 perfbench/run.py --table --seed 1
        per-core constants as a markdown table
    python3 perfbench/run.py --census --sf-dir DIR
        which ``__ray_entry__.queries()`` finish at num_cpus = nproc,
        each within the jobs' stall guard ``JOB_TIMEOUT_S``

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The run record
(seed, input sizes, host facts, per-job times) is the line before.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import multiprocessing
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import gen
from session import Session, Stalled, log, run_job

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 2                       # fresh Ray sessions per run
JOB_TIMEOUT_S = 60.0             # the slowest healthy job takes ~15 s
WORK_DIR = ".perfbench_work"     # generated inputs, under the checkout


def tail_rate(rates: list):
    """(p, files/s) at the highest job-time percentile p (99, then 90)
    that has at least ten slower jobs beyond it; None if too few."""
    for p in (99, 90):
        if len(rates) * (100 - p) / 100 >= 10:
            q = statistics.quantiles(rates, n=100, method="inclusive")
            return p, q[100 - p - 1]
    return None


def prepare(workload: str, seed: int, size: str, work: str) -> tuple:
    """Write the inputs (the run's size and the tiny warm-up size) and
    compute the expected outputs of a job."""
    import oracle

    data = os.path.join(work, size)
    rec = gen.generate(workload, seed, data, size)
    tiny = gen.generate(workload, seed, os.path.join(work, "tiny"), "tiny")
    return rec, tiny, oracle.expected(workload, data)


def bench(args, work: str) -> tuple:
    import host
    import oracle
    from workloads import WORKLOADS, NullTracer

    record = {"workload": args.workload, "seed": args.seed,
              "host": host.host_record()}
    cls = WORKLOADS[args.workload]
    data, tiny_data = (os.path.join(work, s) for s in (args.size, "tiny"))
    # in a child process: DuckDB and the reference implementations must
    # not raise the driver's memory high-water mark
    with concurrent.futures.ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("spawn")) as ex:
        rec, tiny, expect = ex.submit(prepare, args.workload, args.seed,
                                      args.size, work).result()
    record["inputs"] = rec
    ncpu = record["host"]["ray_num_cpus"] = record["host"]["nproc"]
    session = Session(ncpu)
    # driver-side imports happen once per process, before any sample
    import ray.data  # noqa: F401
    import __ray_entry__  # noqa: F401

    def start():
        """ray.init, compiles and the workload's own set-up."""
        with host.Timer() as t:
            session.start()
            w = cls(data, rec)
            w.setup()
        return w, t

    def warm_up():
        with host.Timer() as t:
            warm = cls(tiny_data, tiny)
            warm.setup()
            warm.job(NullTracer())
        return t

    peak = 0.0

    def sample_peak():
        nonlocal peak
        peak = max(peak, host.peak_rss_mb())

    starts = []
    try:
        for i in range(SETUPS):
            w, t = start()
            starts.append(t)
            if i < SETUPS - 1:
                sample_peak()
                session.stop()
        warm = warm_up()
        jobs, failures, selftest = [], [], None
        t_end = time.perf_counter() + args.seconds
        while time.perf_counter() < t_end or not jobs and not failures:
            try:
                with host.Timer() as t:
                    out = run_job(lambda: w.job(NullTracer()), JOB_TIMEOUT_S)
            except Stalled as e:
                failures.append(f"job {len(jobs) + len(failures)}: {e}")
                log(failures[-1] + "; restarting Ray")
                session.stop()
                w, _ = start()
                warm_up()
                continue
            except Exception:
                failures.append(traceback.format_exc(limit=3))
                log(failures[-1])
                continue
            sample_peak()
            problems = oracle.check(out, expect)
            if problems:
                failures.append("; ".join(problems))
                log(f"output check failed: {failures[-1]}")
                continue
            jobs.append(t)
            if selftest is None:
                selftest = oracle.self_test(out, expect) or "ok"
    finally:
        session.close()

    files = w.files()
    rates = [files / t.s for t in jobs]
    for key, ts in (("job", jobs), ("start", starts), ("warm", [warm])):
        record[f"{key}_s"] = [round(t.s, 4) for t in ts]
        record[f"{key}_wall_s"] = [round(t.wall, 4) for t in ts]
    record.update(
        files_per_job=files, failures=failures,
        checker_self_test=selftest, host=host.close_record(record["host"]))
    tail = tail_rate(rates)
    if tail:
        record["files_per_s_tail"] = {"job_s_percentile": tail[0],
                                      "files_per_s": tail[1]}
    metrics = {
        "files_per_s": {"value": statistics.median(rates) if rates else 0.0,
                        "unit": "files/s"},
        "setup_s": {"value": statistics.median(t.s for t in starts)
                    + warm.s,
                    "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }
    result = {"correct": not failures and selftest == "ok",
              "attempted": len(jobs) + len(failures),
              "failed": len(failures), "metrics": metrics}
    return record, result


def run_all(args) -> int:
    """Every workload in its own process; one table of their results."""
    results = {}
    for w in gen.WORKLOADS:
        p = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0", "--size", args.size],
            capture_output=True, text=True, timeout=600)
        if p.returncode:
            log(f"{w} exited with {p.returncode}:\n{p.stderr[-2000:]}")
            results[w] = None
            continue
        results[w] = res = json.loads(p.stdout.strip().splitlines()[-1])
        cells = [f"{k} {v['value']:.4g} {v['unit']}"
                 for k, v in res["metrics"].items()]
        print(f"{w:<11} " + "  ".join(cells) + "  ops_failed/ops_attempted "
              f"{res['failed']}/{res['attempted']}  correct {res['correct']}",
              flush=True)
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="validate",
                    choices=(*gen.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="default", choices=("default", "tiny"))
    ap.add_argument("--table", action="store_true",
                    help="print the per-core constants table and exit")
    ap.add_argument("--census", action="store_true",
                    help="record which driver queries finish")
    ap.add_argument("--sf-dir", help="input directory for --census")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "boon_ray", "__init__.py")):
        log("no boon_ray package here; run from the repository root")
        return 2
    sys.path[:0] = [ROOT, HERE]
    # Ray workers inherit the environment: they import boon_ray and the
    # benchmark's own modules from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, HERE, os.environ.get("PYTHONPATH")) if p)
    if args.workload == "all":
        return run_all(args)
    work = os.path.join(ROOT, WORK_DIR, str(os.getpid()))
    os.makedirs(os.path.join(work, "tmp"))
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    tempfile.tempdir = None
    import host

    # a SIGTERM unwinds through the finally below like an error would
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.table:
            import tracing

            print(tracing.core_table(args.seed, work))
            return 0
        if args.census:
            import census

            return census.run(args.sf_dir, JOB_TIMEOUT_S)
        if args.trace:
            import tracing

            record, result = tracing.run(args, work)
        else:
            record, result = bench(args, work)
    finally:
        # no process of the run outlives it, whichever way it ends
        host.kill_descendants()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))     # only if no other run's
    print(json.dumps(record, default=str))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
