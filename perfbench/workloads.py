"""The four benchmark workloads, run through the public boon_ray API.

A workload object owns one generated input directory. ``setup()``
compiles its schemas and builds what a deployment keeps between runs
(a drift baseline, a verdict checkpoint); ``job(t)`` runs one
iteration and returns its result tables, collected on the driver.

``t`` is a tracer. Untraced (``NullTracer``) every call passes a lazy
Dataset straight through and spans record nothing, so the job is
exactly what a user would submit. Traced (``tracing.Tracer``),
``t.input`` materializes a stage's input before its span opens and
``t.output`` materializes the stage's own output inside it, so each
span times one public call.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

from boon_ray.compiler import compile_schema

import gen

CORPUS_FIELDS = ("repo", "path", "commit", "lang", "content")


class NullTracer:
    """The untraced job: no materialization, no spans."""

    traced = False

    def input(self, ds):
        return ds

    output = input

    def span(self, name, **counts):
        return _NullSpan()


class _NullSpan:
    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        return False


def collect(ds) -> pa.Table:
    """Execute ``ds`` and gather its blocks on the driver. Blocks
    without columns (empty outputs of some exchanges) are skipped."""
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="default")


class Workload:
    name = ""

    def __init__(self, data_dir: str, rec: dict):
        self.dir = data_dir
        self.rec = rec

    def files(self) -> int:
        """Input files one job validates (corpus rows, JSON documents
        or snapshot rows)."""
        raise NotImplementedError

    def setup(self) -> None:
        pass

    def job(self, t) -> dict:
        raise NotImplementedError

    def corpus(self):
        from boon_ray.sources.corpus import corpus_dataset

        return corpus_dataset(self.dir)

    def read(self, name: str, columns=None):
        import ray.data as rd

        return rd.read_parquet(f"{self.dir}/{name}.parquet", columns=columns)


class Validate(Workload):
    """Keyword rules, colvec mask path, recursive engine, props JSON
    and format-asserting manifest documents."""

    name = "validate"

    def files(self):
        return self.rec["docs"] + self.rec["events"] + self.rec["manifests"]

    def setup(self):
        import __ray_entry__ as entry

        self.props_spec = compile_schema(entry.PROPS_SCHEMA)
        self.manifest_spec = compile_schema(gen.MANIFEST_SCHEMA,
                                            formats_enabled=True)

    def job(self, t):
        from boon_ray.pipelines.flagship import (
            corpus_conditional_verdicts, corpus_schema_verdicts,
            corpus_violations,
        )
        from boon_ray.stages.validate import validate_dataset

        docs, out = self.rec["docs"], {}
        src = t.input(self.corpus())
        with t.span("stages.vectorized.corpus_violations",
                    rows_in=docs) as s:
            out["keyword_violations"] = collect(corpus_violations(src))
            s["rows_out"] = out["keyword_violations"].num_rows
        src = t.input(self.corpus())
        with t.span("stages.colvec.corpus_schema_verdicts", rows_in=docs):
            out["schema_verdicts"] = collect(corpus_schema_verdicts(src))
        src = t.input(self.corpus())
        with t.span("evaluator.corpus_conditional_verdicts", rows_in=docs):
            out["conditional_verdicts"] = collect(
                corpus_conditional_verdicts(src))
        src = t.input(self.read("events", ["event_id", "props"]))
        with t.span("evaluator.props_verdicts", rows_in=self.rec["events"]):
            out["events_props_valid"] = collect(validate_dataset(
                src, self.props_spec, column="props",
                key_columns=("event_id",), include_errors=False))
        src = t.input(self.read("manifests", ["doc_id", "manifest"]))
        with t.span("formats.manifest_verdicts",
                    rows_in=self.rec["manifests"]):
            out["manifest_verdicts"] = collect(validate_dataset(
                src, self.manifest_spec, column="manifest",
                key_columns=("doc_id",), include_errors=False))
        return out


class Integrity(Workload):
    """Table checks: uniqueness, referential, column stats, drift,
    per-partition verdicts. No engine work."""

    name = "integrity"

    def files(self):
        return self.rec["docs"]

    def setup(self):
        from boon_ray.stages.drift import snapshot_distribution

        self.baseline = snapshot_distribution(self.corpus())

    def job(self, t):
        from boon_ray.pipelines.flagship import (
            corpus_violations, partition_verdicts,
        )
        from boon_ray.sources.corpus import commits_table
        from boon_ray.stages.drift import drift_check
        from boon_ray.stages.referential import referential_violations
        from boon_ray.stages.stats import column_stats
        from boon_ray.stages.unique import uniqueness_violations

        n, out = self.rec["docs"], {}
        src = t.input(self.corpus())
        with t.span("stages.unique.uniqueness_violations", rows_in=n) as s:
            out["uniqueness_violations"] = collect(
                uniqueness_violations(src))
            s["rows_out"] = out["uniqueness_violations"].num_rows
        src = t.input(self.corpus())
        with t.span("stages.referential.referential_violations",
                    rows_in=n) as s:
            out["referential_orphans"] = collect(referential_violations(
                src, commits_table(self.dir), fk=("commit",),
                emit_columns=("repo", "path", "commit")))
            s["rows_out"] = out["referential_orphans"].num_rows
        src = t.input(self.corpus())
        with t.span("stages.stats.column_stats", rows_in=n) as s:
            out["column_stats"] = collect(column_stats(
                src, distinct_columns=("path", "commit")))
            s["rows_out"] = out["column_stats"].num_rows
        src = t.input(self.corpus())
        with t.span("stages.drift.drift_check", rows_in=n) as s:
            out["drift_verdicts"] = drift_check(src, self.baseline)
            s["rows_out"] = out["drift_verdicts"].num_rows
        src = t.input(self.corpus())
        with t.span("pipelines.flagship.partition_verdicts", rows_in=n) as s:
            # the partition list comes from Ray Data's native groupby,
            # as a caller of partition_verdicts would get it
            repos = collect(src.groupby("repo").count())
            out["partition_verdicts"] = partition_verdicts(
                corpus_violations(src), repos.select(["repo"]), "repo")
            s["rows_out"] = out["partition_verdicts"].num_rows
        return out


class NearDup(Workload):
    """MinHash LSH candidates, exact Jaccard verification, connected
    components."""

    name = "neardup"
    THRESHOLD = 0.5

    def files(self):
        return self.rec["docs"]

    def job(self, t):
        from boon_ray.stages.dedup import (
            cluster_pairs_distributed, minhash_duplicate_pairs,
            verify_jaccard,
        )

        src = t.input(self.read("neardup", ["doc_id", "text"]))
        with t.span("stages.dedup.minhash_duplicate_pairs",
                    rows_in=self.rec["docs"]) as s:
            cand = t.output(minhash_duplicate_pairs(
                src, "text", "doc_id", verify=False))
            if t.traced:
                s["rows_out"] = cand.count()
        with t.span("stages.dedup.verify_jaccard") as s:
            # materialized: the clusters and the caller both read it
            pairs = verify_jaccard(src, cand, "text", "doc_id",
                                   threshold=self.THRESHOLD).materialize()
            if t.traced:
                s["rows_out"] = pairs.count()
        with t.span("stages.dedup.cluster_pairs_distributed") as s:
            clusters = collect(cluster_pairs_distributed(pairs))
            s["rows_out"] = clusters.num_rows
        return {"pairs": collect(pairs), "clusters": clusters}


class Revalidate(Workload):
    """Snapshot diff, delta-sized engine pass, merged verdicts written
    per lang through the checkpointed writer."""

    name = "revalidate"
    KEYS = ("doc_id", "repo", "path", "commit", "lang")

    def files(self):
        return self.rec["new_rows"]

    def setup(self):
        from boon_ray.pipelines.flagship import CONDITIONAL_METADATA_SCHEMA
        from boon_ray.stages.validate import validate_dataset

        self.spec = compile_schema(CONDITIONAL_METADATA_SCHEMA)
        # the previous run's full verdict checkpoint, kept on disk
        self.ckpt_dir = f"{self.dir}/checkpoint"
        shutil.rmtree(self.ckpt_dir, ignore_errors=True)
        validate_dataset(
            self.read("snapshot_old"), self.spec, from_columns=CORPUS_FIELDS,
            key_columns=self.KEYS, include_errors=False,
        ).write_parquet(self.ckpt_dir)

    def job(self, t):
        import ray.data as rd

        from boon_ray.pipelines.incremental import incremental_revalidate
        from boon_ray.state.checkpoint import run_partitioned

        old = t.input(self.read("snapshot_old"))
        new = t.input(self.read("snapshot_new"))
        ckpt = t.input(rd.read_parquet(self.ckpt_dir))
        with t.span("pipelines.incremental.incremental_revalidate",
                    rows_in=self.rec["old_rows"] + self.rec["new_rows"]) as s:
            merged, stats = incremental_revalidate(
                old, new, self.spec, key_columns=self.KEYS,
                cached_verdicts=ckpt)
            # materialized: one write per lang reads it
            merged = merged.materialize()
            s.update(rows_out=merged.count(), **stats)
        out_dir = f"{self.dir}/out"
        shutil.rmtree(out_dir, ignore_errors=True)   # a failed job's
        with t.span("state.checkpoint.run_partitioned") as s:
            summary = run_partitioned(
                list(gen.LANGS),
                lambda lang: merged.filter(expr=f"lang == '{lang}'"),
                out_dir)
            s["bytes_written"] = _dir_bytes(out_dir)
        written = pa.concat_tables(
            pq.read_table(f"{out_dir}/part={lang}/{f}")
            for lang in summary["manifests"]
            for f in sorted(os.listdir(f"{out_dir}/part={lang}"))
            if f.endswith(".parquet"))
        shutil.rmtree(out_dir)
        return {"verdicts": written, "stats": stats}


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(r, f))
               for r, _, fs in os.walk(path) for f in fs)


WORKLOADS = {w.name: w for w in (Validate, Integrity, NearDup, Revalidate)}
