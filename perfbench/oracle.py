"""Expected outputs for every workload, computed without Ray, and the
exact checker that compares a job's output against them.

- ``validate`` and ``integrity``: the repository's DuckDB oracles
  (``__ray_entry__._base_oracle_sql``, the per-operator SQL that the
  driver-facing oracles are composed from) run on the generated
  files; the manifest verdicts are the ones the generator planted;
  HLL distinct counts come from one in-process sketch per group.
- ``neardup``: a single-process reference of the same plan: LSH
  buckets from the MinHash band keys, all pairs per bucket (star
  pairs above 64 members), exact word 3-gram Jaccard, and connected
  components by union-find.
- ``revalidate``: the full engine run in-process over every row of
  the new snapshot, and the delta counts from a pandas diff.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

# the repository oracles each workload's outputs are checked against
SQL_CHECKS = {
    "validate": ("keyword_violations", "schema_verdicts",
                 "conditional_verdicts", "events_props_valid"),
    "integrity": ("uniqueness_violations", "referential_orphans",
                  "column_stats", "drift_verdicts", "partition_verdicts"),
}


def _sql_expected(workload: str, data_dir: str) -> dict:
    import duckdb

    import __ray_entry__ as entry

    sql = entry._base_oracle_sql()
    con = duckdb.connect()
    try:
        for view in ("documents", "events"):
            path = f"{data_dir}/{view}.parquet"
            if not os.path.exists(path):
                continue
            con.sql(f"CREATE VIEW {view} AS SELECT * FROM "
                    f"read_parquet('{path}')")
        return {name: con.sql(sql[name]).df()
                for name in SQL_CHECKS[workload]}
    finally:
        con.close()


def _hll_distincts(data_dir: str) -> pd.DataFrame:
    from boon_ray.sketches import HyperLogLog, hash64
    from boon_ray.sources.corpus import corpus_table

    corpus = corpus_table(data_dir).to_pandas()
    rows = []
    for lang, g in corpus.groupby("lang"):
        row = {"lang": lang}
        for c in ("path", "commit"):
            vals = g[c].dropna().to_numpy(dtype=object)
            row[f"distinct_{c}"] = int(round(
                HyperLogLog(14).add_hashes(hash64(vals)).estimate()))
        rows.append(row)
    return pd.DataFrame(rows)


def _neardup_expected(data_dir: str, threshold: float) -> dict:
    from boon_ray.stages.dedup import (
        MAX_BUCKET_ALL_PAIRS, MinHashBands, _shingle_hashes,
    )

    t = pq.read_table(f"{data_dir}/neardup.parquet")
    bands = MinHashBands("text", "doc_id", include_sig=False)(t).to_pandas()
    bands = bands.sort_values(["band", "key", "doc_id"])
    cand = set()
    for _, ids in bands.groupby(["band", "key"], sort=False)["doc_id"]:
        uniq = np.unique(ids.to_numpy())
        if len(uniq) < 2:
            continue
        if len(uniq) > MAX_BUCKET_ALL_PAIRS:
            cand.update((int(uniq[0]), int(b)) for b in uniq[1:])
        else:
            ii, jj = np.triu_indices(len(uniq), k=1)
            cand.update(zip(uniq[ii].tolist(), uniq[jj].tolist()))
    text = dict(zip(t.column("doc_id").to_pylist(),
                    t.column("text").to_pylist()))
    shingles = {}
    pairs = []
    for a, b in sorted(cand):
        for d in (a, b):
            if d not in shingles:
                shingles[d] = _shingle_hashes(text[d], 3, True)
        sa, sb = shingles[a], shingles[b]
        inter = np.intersect1d(sa, sb, assume_unique=True).size
        union = sa.size + sb.size - inter
        j = inter / union if union else 1.0
        if j >= threshold:
            pairs.append((a, b, j))
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, _ in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    nodes = sorted(parent)
    return {
        "pairs": pd.DataFrame(pairs, columns=["a", "b", "jaccard"]),
        "clusters": pd.DataFrame({"id": nodes,
                                  "cluster": [find(n) for n in nodes]}),
    }


def _revalidate_expected(data_dir: str) -> dict:
    from boon_ray.compiler import compile_schema
    from boon_ray.evaluator import Evaluator
    from boon_ray.pipelines.flagship import CONDITIONAL_METADATA_SCHEMA

    fields = ("repo", "path", "commit", "lang", "content")
    old = pq.read_table(f"{data_dir}/snapshot_old.parquet").to_pandas()
    new = pq.read_table(f"{data_dir}/snapshot_new.parquet").to_pandas()
    ev = Evaluator(compile_schema(CONDITIONAL_METADATA_SCHEMA))
    verdicts = new[["doc_id", "repo", "path", "commit", "lang"]].copy()
    verdicts["valid"] = [ev.is_valid(dict(zip(fields, row)))
                         for row in new[list(fields)].itertuples(
                             index=False, name=None)]
    both = old.merge(new, on="doc_id", suffixes=("_o", "_n"))
    changed = int((both["content_o"] != both["content_n"]).sum())
    added = int((~new["doc_id"].isin(old["doc_id"])).sum())
    removed = int((~old["doc_id"].isin(new["doc_id"])).sum())
    stats = {"n_added": added, "n_changed": changed, "n_removed": removed,
             "n_revalidated": added + changed}
    return {"verdicts": verdicts, "stats": stats}


def expected(workload: str, data_dir: str) -> dict:
    """Everything a job of ``workload`` must return, keyed like the
    job's output."""
    if workload == "validate":
        exp = _sql_expected(workload, data_dir)
        man = pq.read_table(f"{data_dir}/manifests.parquet",
                            columns=["doc_id", "expected_valid"])
        exp["manifest_verdicts"] = man.rename_columns(
            ["doc_id", "valid"]).to_pandas()
        return exp
    if workload == "integrity":
        exp = _sql_expected(workload, data_dir)
        exp["column_stats"] = exp["column_stats"].merge(
            _hll_distincts(data_dir), on="lang")
        return exp
    if workload == "neardup":
        from workloads import NearDup

        return _neardup_expected(data_dir, NearDup.THRESHOLD)
    if workload == "revalidate":
        return _revalidate_expected(data_dir)
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------------ check

def _frame(x) -> pd.DataFrame:
    return x.to_pandas() if isinstance(x, pa.Table) else x


def _normalized(df: pd.DataFrame, cols: list) -> pd.DataFrame:
    out = pd.DataFrame()
    for c in cols:
        s = df[c]
        if pd.api.types.is_bool_dtype(s):
            out[c] = s.astype(bool)
        elif pd.api.types.is_integer_dtype(s):
            out[c] = s.astype(np.int64)
        elif pd.api.types.is_float_dtype(s):
            out[c] = s.astype(np.float64)
        else:
            out[c] = s.astype(object).where(s.notna(), None)
    return out.sort_values(cols, kind="stable").reset_index(drop=True)


def same_rows(actual, expect) -> str | None:
    """None when ``actual`` holds exactly the rows of ``expect`` (as a
    multiset over ``expect``'s columns), else what differs."""
    expect = _frame(expect)
    actual = _frame(actual)
    cols = list(expect.columns)
    missing = [c for c in cols if c not in actual.columns]
    if missing:
        return f"missing columns {missing}"
    if len(actual) != len(expect):
        return f"{len(actual)} rows, expected {len(expect)}"
    a, e = _normalized(actual, cols), _normalized(expect, cols)
    diff = ~((a == e) | (a.isna() & e.isna())).all(axis=1)
    if diff.any():
        i = int(np.nonzero(diff.to_numpy())[0][0])
        return (f"{int(diff.sum())} rows differ, first: "
                f"{a.iloc[i].to_dict()} != {e.iloc[i].to_dict()}")
    return None


def check(out: dict, exp: dict) -> list:
    """Mismatch descriptions of one job's output; empty when exact."""
    problems = []
    for name, want in exp.items():
        got = out.get(name)
        if got is None:
            problems.append(f"{name}: no output")
        elif isinstance(want, dict):
            if got != want:
                problems.append(f"{name}: {got} != {want}")
        else:
            why = same_rows(got, want)
            if why:
                problems.append(f"{name}: {why}")
    return problems


def flip_one(df: pd.DataFrame) -> pd.DataFrame:
    """A copy of ``df`` with one value of its first row changed: a bool
    flipped, else a number bumped, else a string extended."""
    df = df.copy()
    for c in df.columns:
        if pd.api.types.is_bool_dtype(df[c]):
            df.loc[df.index[0], c] = not df[c].iloc[0]
            return df
    for c in df.columns:
        if pd.api.types.is_numeric_dtype(df[c]):
            df.loc[df.index[0], c] = df[c].iloc[0] + 1
            return df
    c = df.columns[0]
    df.loc[df.index[0], c] = f"{df[c].iloc[0]}x"
    return df


def self_test(out: dict, exp: dict) -> str | None:
    """The checker must reject each expected table with one flipped
    row. None when it does; else the table it let through."""
    for name, want in exp.items():
        if isinstance(want, pd.DataFrame) and len(want):
            if not check(out, {name: flip_one(want)}):
                return name
    return None
