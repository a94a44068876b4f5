"""Which driver queries finish at num_cpus = nproc.

Runs every ``__ray_entry__.queries()`` entry on ``--sf-dir`` (the
driver's sf0.01 tables), one at a time, each under the benchmark's
stall guard. A query that stalls kills the Ray session and the census
goes on in a fresh one. One JSON line per query (name, status, seconds, rows), then
a summary line. This is a record of the host, not a metric.
"""

from __future__ import annotations

import json
import time
import traceback


def run(sf_dir: str, timeout: float) -> int:
    import host
    from session import Session, Stalled, run_job

    if not sf_dir:
        raise SystemExit("--census needs --sf-dir")
    rec = host.host_record()
    session = Session(rec["nproc"])
    session.start()
    import __ray_entry__ as entry

    counts = {}
    try:
        for name, fn in entry.queries().items():
            t0 = time.perf_counter()
            row = {"query": name}
            try:
                df = run_job(lambda: fn(sf_dir).to_pandas(), timeout)
                row.update(status="ok", rows=len(df))
            except Stalled:
                row["status"] = "timeout"
                session.stop()
                session.start()
            except Exception as e:
                row.update(status="error", error=repr(e)[:200],
                           where=traceback.format_exc(limit=2)[-300:])
            row["s"] = round(time.perf_counter() - t0, 3)
            counts[row["status"]] = counts.get(row["status"], 0) + 1
            print(json.dumps(row), flush=True)
    finally:
        session.close()
    rec["ray_num_cpus"] = session.num_cpus
    print(json.dumps({"census": counts, "timeout_s": timeout,
                      "host": host.close_record(rec)}), flush=True)
    return 0
