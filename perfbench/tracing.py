"""The traced run: per-layer metrics, measured from outside the library.

It does two things over the same generated inputs as the untraced run:

1. ``in_process``: calls each module's public functions in this
   process, without Ray, and reports per-row and per-document costs:
   the per-core constants. ``core_table`` prints them as a table.
2. ``replay``: runs every workload's job on Ray stage by stage. Each
   stage's input is materialized first and the call into the next
   public function is timed as a span (workload, name, start, end,
   parent, counts). A few spans call a layer directly (the corpus
   read, ``validate_dataset``, ``bucketed_map_groups``,
   ``snapshot_delta``) so that layer gets a number of its own.

The selected workload's job also runs once untraced, so the run
reports the tracing overhead. Spans are kept in memory and written
to ``.perfbench_out/spans-<workload>-<seed>.json`` at the end.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import statistics
import time

import pyarrow.parquet as pq

import gen
import oracle
from workloads import WORKLOADS, CORPUS_FIELDS, NullTracer, collect

MIN_TIMED_S = 0.2      # repeat an in-process call until this much time


class Tracer:
    """Spans for one job replay; see workloads.py for the protocol."""

    traced = True

    def __init__(self, workload: str, spans: list, epoch: float):
        self.workload = workload
        self.spans = spans
        self.epoch = epoch
        self.stack = []

    def input(self, ds):
        return ds.materialize()

    output = input

    @contextlib.contextmanager
    def span(self, name, **counts):
        sid = len(self.spans)
        rec = {"id": sid, "workload": self.workload, "name": name,
               "parent": self.stack[-1] if self.stack else None, **counts}
        self.spans.append(rec)
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield rec
        finally:
            rec["start"] = start - self.epoch
            rec["end"] = time.perf_counter() - self.epoch
            self.stack.pop()


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


# ------------------------------------------------------------ in-process

def _per_item(fn, n: int) -> float:
    """Median seconds per item of ``fn()`` over repeats totalling at
    least MIN_TIMED_S (three at least)."""
    times, total = [], 0.0
    while len(times) < 3 or total < MIN_TIMED_S:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        times.append(dt)
        total += dt
    return statistics.median(times) / max(n, 1)


def _schemas() -> dict:
    """(document, formats asserted) per workload schema."""
    import __ray_entry__ as entry
    from boon_ray.pipelines.flagship import (
        CONDITIONAL_METADATA_SCHEMA, METADATA_SCHEMA,
    )

    return {"metadata": (METADATA_SCHEMA, False),
            "conditional": (CONDITIONAL_METADATA_SCHEMA, False),
            "props": (entry.PROPS_SCHEMA, False),
            "manifest": (gen.MANIFEST_SCHEMA, True)}


def _patterns(doc) -> list:
    if isinstance(doc, dict):
        out = [doc["pattern"]] if isinstance(doc.get("pattern"), str) else []
        out += list(doc.get("patternProperties", {}))
        return out + [p for v in doc.values() for p in _patterns(v)]
    if isinstance(doc, list):
        return [p for v in doc for p in _patterns(v)]
    return []


def in_process(dirs: dict) -> dict:
    """Per-core constants of each module over the generated inputs."""
    from boon_ray import formats
    from boon_ray.compiler import compile_schema
    from boon_ray.ecma import compile_ecma
    from boon_ray.evaluator import Evaluator
    from boon_ray.pipelines.flagship import CORPUS_RULES
    from boon_ray.sketches import HyperLogLog, hash64
    from boon_ray.sources.corpus import derive_corpus_batch
    from boon_ray.stages.colvec import FlatVectorizer
    from boon_ray.stages.dedup import MinHashBands
    from boon_ray.stages.validate import JsonSchemaValidator
    from boon_ray.stages.vectorized import violations_batch

    m = {}
    docs = pq.read_table(f"{dirs['validate']}/documents.parquet")
    n = docs.num_rows
    m["sources.corpus.derive_ns_per_row"] = 1e9 * _per_item(
        lambda: derive_corpus_batch(docs), n)
    corpus = derive_corpus_batch(docs)

    specs, nodes = {}, 0
    for name, (doc, fmt) in _schemas().items():
        m[f"compiler.{name}.compile_ms"] = 1e3 * _per_item(
            lambda: compile_schema(doc, formats_enabled=fmt), 1)
        specs[name] = compile_schema(doc, formats_enabled=fmt)
        nodes += len(specs[name].nodes)
    m["compiler.nodes"] = nodes
    pats = [p for doc, _ in _schemas().values() for p in _patterns(doc)]

    def compile_patterns():
        re.purge()          # the re module caches compiled patterns
        for p in pats:
            compile_ecma(p)
    m["ecma.compile_ms"] = 1e3 * _per_item(compile_patterns, 1)

    rows = [dict(zip(CORPUS_FIELDS, r)) for r in zip(
        *(corpus.column(c).to_pylist() for c in CORPUS_FIELDS))]
    ev = Evaluator(specs["conditional"])
    m["evaluator.us_per_row"] = 1e6 * _per_item(
        lambda: [ev.is_valid(r) for r in rows], n)
    bad = [r for r in rows if not ev.is_valid(r)]
    m["evaluator.error_us_per_row"] = 1e6 * _per_item(
        lambda: [ev.errors(r) for r in bad], len(bad))

    props = pq.read_table(f"{dirs['validate']}/events.parquet")
    manifests = pq.read_table(f"{dirs['validate']}/manifests.parquet")
    json_docs = [(Evaluator(specs["props"]), s)
                 for s in props.column("props").to_pylist()]
    json_docs += [(Evaluator(specs["manifest"]), s)
                  for s in manifests.column("manifest").to_pylist()]
    m["evaluator.json_us_per_doc"] = 1e6 * _per_item(
        lambda: [e.is_valid(json.loads(s)) for e, s in json_docs],
        len(json_docs))
    fmt_values = []
    for s in manifests.column("manifest").to_pylist():
        d = json.loads(s)
        fmt_values.append(
            [(formats.check_uri, d.get("homepage")),
             (formats.check_date_time, d.get("released"))]
            + [(formats.check_email, a.get("email"))
               for a in d.get("authors", ())])
    m["formats.us_per_doc"] = 1e6 * _per_item(
        lambda: [f(v) for doc in fmt_values for f, v in doc
                 if isinstance(v, str)], len(fmt_values))

    flat = {k: FlatVectorizer.compile(specs[k], CORPUS_FIELDS)
            for k in ("metadata", "conditional")}
    m["stages.colvec.mask_path_schemas"] = sum(
        v is not None for v in flat.values())
    m["stages.colvec.ns_per_row"] = 1e9 * _per_item(
        lambda: flat["metadata"].mask(corpus), n)
    m["stages.vectorized.ns_per_row"] = 1e9 * _per_item(
        lambda: violations_batch(corpus, CORPUS_RULES), n)
    m["stages.vectorized.violation_rows"] = violations_batch(
        corpus, CORPUS_RULES).num_rows
    validator = JsonSchemaValidator(specs["conditional"],
                                    from_columns=CORPUS_FIELDS,
                                    include_errors=False)
    m["stages.validate.us_per_row"] = 1e6 * _per_item(
        lambda: validator(corpus), n)

    paths = corpus.column("path").to_pandas().to_numpy(dtype=object)
    content = corpus.column("content").to_pandas().to_numpy(dtype=object)
    m["sketches.hll_ns_per_row"] = 1e9 * _per_item(
        lambda: HyperLogLog(14).add_values(paths), n)
    m["sketches.hash64_ns_per_row"] = 1e9 * _per_item(
        lambda: hash64(content), n)

    nd = pq.read_table(f"{dirs['neardup']}/neardup.parquet")
    bands = MinHashBands("text", "doc_id", include_sig=False)
    m["stages.dedup.signature_us_per_doc"] = 1e6 * _per_item(
        lambda: bands(nd), nd.num_rows)
    sizes = bands(nd).to_pandas().groupby(["band", "key"])["doc_id"] \
        .nunique()
    sizes = sizes[sizes > 1].to_numpy()
    m["stages.dedup.candidate_buckets"] = len(sizes)
    # pairs the buckets emit (all pairs, star pairs above 64 members)
    m["stages.dedup.emitted_pairs"] = int(sum(
        s - 1 if s > 64 else s * (s - 1) // 2 for s in sizes))
    return m


# ---------------------------------------------------------------- replay

def _replay_extra(name: str, w, t: Tracer) -> None:
    """Spans that call one layer directly, beyond the job's own."""
    import pandas as pd

    from boon_ray.compiler import compile_schema
    from boon_ray.pipelines.flagship import CONDITIONAL_METADATA_SCHEMA
    from boon_ray.stages.combine import bucketed_map_groups
    from boon_ray.stages.dedup import MinHashBands
    from boon_ray.stages.delta import snapshot_delta
    from boon_ray.stages.validate import validate_dataset

    if name == "validate":
        with t.span("sources.corpus.corpus_dataset"):
            corpus = w.corpus().materialize()
        spec = compile_schema(CONDITIONAL_METADATA_SCHEMA)
        with t.span("stages.validate.validate_dataset",
                    rows_in=w.rec["docs"]):
            collect(validate_dataset(corpus, spec, from_columns=CORPUS_FIELDS,
                                     include_errors=False))
    elif name == "neardup":
        # the LSH exchange's input; one row per bucket comes back
        bands = MinHashBands("text", "doc_id", include_sig=False)
        exploded = w.read("neardup", ["doc_id", "text"]).map_batches(
            lambda b: bands(b), batch_format="pyarrow",
            batch_size=None).materialize()
        with t.span("stages.combine.bucketed_map_groups",
                    rows_in=exploded.count(),
                    bytes_in=exploded.size_bytes()) as s:
            rows = collect(bucketed_map_groups(
                exploded, ["band", "key"],
                lambda g: pd.DataFrame({"rows": [len(g)]}),
                num_buckets=128)).column("rows").to_numpy()
            s["bucket_skew"] = float(rows.max() / rows.mean())
    elif name == "revalidate":
        old = w.read("snapshot_old").materialize()
        new = w.read("snapshot_new").materialize()
        with t.span("stages.delta.snapshot_delta",
                    rows_in=w.rec["old_rows"] + w.rec["new_rows"]) as s:
            s["rows_out"] = collect(snapshot_delta(
                old, new, cmp_col="content", num_buckets=32)).num_rows


def _metrics_from_spans(spans: list, ip: dict) -> dict:
    by = {s["name"]: s for s in spans}
    m = {}

    def put(prefix, span_name, *counts):
        s = by[span_name]
        m[f"{prefix}.s"] = _dur(s)
        for c in counts:
            m[f"{prefix}.{c}"] = s[c]

    m["sources.corpus.read_s"] = _dur(by["sources.corpus.corpus_dataset"])
    m["stages.validate.stage_s"] = _dur(
        by["stages.validate.validate_dataset"])
    put("stages.vectorized", "stages.vectorized.corpus_violations")
    put("stages.colvec", "stages.colvec.corpus_schema_verdicts")
    m["evaluator.conditional_s"] = _dur(
        by["evaluator.corpus_conditional_verdicts"])
    m["evaluator.props_s"] = _dur(by["evaluator.props_verdicts"])
    m["formats.manifest_s"] = _dur(by["formats.manifest_verdicts"])
    for mod, fn in (("stages.unique", "uniqueness_violations"),
                    ("stages.referential", "referential_violations"),
                    ("stages.stats", "column_stats"),
                    ("stages.drift", "drift_check"),
                    ("pipelines.flagship", "partition_verdicts")):
        put(mod, f"{mod}.{fn}", "rows_in", "rows_out")
    ex = by["stages.combine.bucketed_map_groups"]
    m.update({"stages.combine.exchange_s": _dur(ex),
              "stages.combine.rows_in": ex["rows_in"],
              "stages.combine.bytes_in": ex["bytes_in"],
              "stages.combine.bucket_skew": ex["bucket_skew"]})
    cand = by["stages.dedup.minhash_duplicate_pairs"]
    ver = by["stages.dedup.verify_jaccard"]
    m.update({
        "stages.dedup.candidates_s": _dur(cand),
        "stages.dedup.verify_s": _dur(ver),
        "stages.dedup.cluster_s": _dur(
            by["stages.dedup.cluster_pairs_distributed"]),
        "stages.dedup.candidate_buckets": ip["stages.dedup.candidate_buckets"],
        "stages.dedup.pairs_unique_over_emitted":
            cand["rows_out"] / max(ip["stages.dedup.emitted_pairs"], 1),
        "stages.dedup.verified_over_candidates":
            ver["rows_out"] / max(cand["rows_out"], 1),
    })
    delta = by["stages.delta.snapshot_delta"]
    inc = by["pipelines.incremental.incremental_revalidate"]
    write = by["state.checkpoint.run_partitioned"]
    m.update({
        "stages.delta.s": _dur(delta),
        "stages.delta.delta_rows": delta["rows_out"],
        "pipelines.incremental.s": _dur(inc),
        "pipelines.incremental.revalidated_over_rows":
            inc["n_revalidated"] / max(inc["rows_out"], 1),
        "state.checkpoint.write_s": _dur(write),
        "state.checkpoint.bytes_written": write["bytes_written"],
    })
    return m


def unit_of(name: str) -> str:
    """Units follow from the metric's name."""
    for suffix in ("ns_per_row", "us_per_row", "us_per_doc"):
        if name.endswith(suffix):
            return suffix.replace("_per_", "/")
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if "bytes" in name:
        return "B"
    if "_over_" in name or name.endswith("skew"):
        return "ratio"
    return "count"


def run(args, work: str) -> tuple:
    import host
    from session import Session

    record = {"workload": args.workload, "seed": args.seed, "trace": 1,
              "host": host.host_record()}
    inputs = {}
    for size in ("tiny", args.size):
        for w in WORKLOADS:
            d = os.path.join(work, size, w)
            inputs[size, w] = d, gen.generate(w, args.seed, d, size)
    dirs = {w: inputs[args.size, w][0] for w in WORKLOADS}
    recs = {w: inputs[args.size, w][1] for w in WORKLOADS}
    record["inputs"] = recs
    expect = {w: oracle.expected(w, dirs[w]) for w in WORKLOADS}
    ip = in_process(dirs)

    spans, epoch = [], time.perf_counter()
    session = Session(record["host"]["nproc"])
    record["host"]["ray_num_cpus"] = session.num_cpus
    session.start()
    try:
        ws = {}
        for name, cls in WORKLOADS.items():
            ws[name] = w = cls(dirs[name], recs[name])
            w.setup()
            warm = cls(*inputs["tiny", name])
            warm.setup()
            warm.job(NullTracer())
        t0 = time.perf_counter()
        out = ws[args.workload].job(NullTracer())
        untraced = time.perf_counter() - t0
        failures = oracle.check(out, expect[args.workload])
        for name, w in ws.items():
            t = Tracer(name, spans, epoch)
            with t.span(f"{name}.job") as job:
                out = w.job(t)
            failures += oracle.check(out, expect[name])
            if name == args.workload:
                traced = _dur(job)
            _replay_extra(name, w, t)
    finally:
        session.close()

    m = {**ip, **_metrics_from_spans(spans, ip)}
    m.update({"trace.untraced_job_s": untraced, "trace.traced_job_s": traced,
              "trace.overhead_s": traced - untraced})
    out_dir = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")
    with open(path, "w") as f:
        json.dump(spans, f, indent=1)
    record.update(spans_file=path, spans=len(spans), failures=failures,
                  host=host.close_record(record["host"]))
    metrics = {k: {"value": float(v), "unit": unit_of(k)}
               for k, v in sorted(m.items())}
    return record, {"correct": not failures,
                    "attempted": len(WORKLOADS) + 1,
                    "failed": len(failures), "metrics": metrics}


# ------------------------------------------------------------ core table

CORE_ROWS = (
    ("evaluator.us_per_row", "full recursive engine, conditional schema"),
    ("evaluator.error_us_per_row", "full engine, error trees (failing rows)"),
    ("evaluator.json_us_per_doc", "full engine, JSON documents + parse"),
    ("stages.validate.us_per_row", "JsonSchemaValidator batch (recursive)"),
    ("stages.colvec.ns_per_row", "colvec mask (flat schema)"),
    ("stages.vectorized.ns_per_row", "RuleSet violation rows"),
    ("sources.corpus.derive_ns_per_row", "corpus derive"),
    ("formats.us_per_doc", "formats: email, uri, date-time"),
    ("stages.dedup.signature_us_per_doc", "MinHash signature + banding"),
    ("sketches.hash64_ns_per_row", "hash64 over strings"),
    ("sketches.hll_ns_per_row", "HLL add over strings"),
)


def core_table(seed: int, work: str) -> str:
    """The in-process constants as a table in docs/SCALE.md's shape."""
    import host

    dirs = {w: os.path.join(work, w) for w in ("validate", "neardup")}
    for w, d in dirs.items():
        gen.generate(w, seed, d)
    m = in_process(dirs)
    h = host.host_record()
    lines = [f"Per-core constants from `perfbench/run.py --table --seed "
             f"{seed}`: one process, nproc {h['nproc']}, affinity "
             f"{h['affinity_cpus']} CPUs, Ray {h['versions']['ray']}.", "",
             "| stage | per-core throughput | cost |", "|---|---|---|"]
    for key, label in CORE_ROWS:
        unit = unit_of(key)                     # e.g. "us/row"
        per_s = {"ns": 1e9, "us": 1e6}[unit[:2]] / m[key]
        lines.append(f"| {label} | {per_s:,.0f} {unit[3:]}s/s "
                     f"| {m[key]:,.4g} {unit} |")
    return "\n".join(lines)
