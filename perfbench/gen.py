"""Seeded input generator for the benchmark workloads.

Every property a workload's cost depends on is drawn from the seed:
duplicate-key, orphan-commit and mega-repo shares of the corpus, the
failing-row shares of every validation input, the near-duplicate share
and cluster sizes of the dedup corpus, and the added/changed/removed
shares of the snapshot pair. The same seed writes the same files.

The corpus itself is derived by ``boon_ray.sources.corpus`` from the
``documents`` table, so shares are steered through the doc ids this
module picks: a doc id ``d`` with ``d % 50 == 0`` clones the key triple
of ``d - 1``; an effective id ``e`` with ``e % 10 < 3`` lands in the
mega repo and one with ``e % 37 == 3`` gets an orphan commit. Ids stay
below ``lcm(19, 97, 4, 23)`` so no other key triples collide.

Files are written with several row groups, the way a real corpus
arrives; the program under test reads only these files.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

LANGS = ("en", "zh", "es", "de", "fr")
_ID_CAP = 169_556            # lcm(19, 97, 4, 23): no accidental key clashes
_VOCAB = np.array([
    "key", "agg", "row", "scan", "slow", "fast", "table", "value", "part",
    "hash", "merge", "batch", "window", "spark", "order", "data", "column",
    "join", "small", "line", "customer", "query", "filter", "the", "a",
    "schema", "index", "block", "shard", "actor", "task", "plan", "sort",
    "group", "count", "limit", "range", "vector", "token", "graph",
])

# Sizes are per workload; "tiny" serves the smoke test.
SIZES = {
    "default": {"docs": 6000, "events": 6000, "manifests": 1500,
                "neardup_docs": 1200, "snapshot_docs": 6000},
    "tiny": {"docs": 400, "events": 400, "manifests": 120,
             "neardup_docs": 150, "snapshot_docs": 400},
}


def _write(table: pa.Table, path: str, row_groups: int = 4) -> None:
    rg = max(1, -(-table.num_rows // row_groups))
    pq.write_table(table, path, row_group_size=rg)


# --------------------------------------------------------------- corpus

def _pick_doc_ids(rng: np.random.Generator, n: int, shares: dict):
    """n distinct doc ids whose derived corpus has the given shares."""
    n_pairs = int(round(n * shares["dup"] / 2))
    n_single = n - 2 * n_pairs
    pool = rng.permutation(np.arange(1, _ID_CAP, dtype=np.int64))
    # singles never touch the %50 clone rule (neither d nor d+1 is a
    # multiple of 50), so their effective id is the doc id itself
    single_ok = (pool % 50 != 0) & (pool % 50 != 49)
    mega = pool % 10 < 3
    orphan = pool % 37 == 3
    picked = []
    n_orphan = int(round(n_single * shares["orphan"]))
    n_mega = int(round(n_single * shares["mega"]))
    classes = [
        (single_ok & orphan, n_orphan),
        (single_ok & mega & ~orphan, n_mega),
        (single_ok & ~mega & ~orphan, n_single - n_orphan - n_mega),
    ]
    for mask, k in classes:
        cand = pool[mask]
        if len(cand) < k:
            raise ValueError("corpus too large for the id space")
        picked.append(cand[:k])
    # duplicate pairs: (d, d + 1) with d % 50 == 49 share one key triple
    bases = pool[(pool % 50 == 49) & (pool + 1 < _ID_CAP)][:n_pairs]
    picked += [bases, bases + 1]
    ids = np.concatenate(picked)
    return ids[rng.permutation(len(ids))]


def _texts(rng: np.random.Generator, lengths: np.ndarray) -> list:
    """ASCII word text of (about) the given character lengths."""
    words = rng.choice(_VOCAB, size=int(lengths.sum() // 3) + 64)
    out, pos = [], 0
    for ln in lengths:
        parts, size = [], 0
        while size < ln:
            w = words[pos % len(words)]
            pos += 1
            parts.append(w)
            size += len(w) + 1
        out.append(" ".join(parts)[:ln])
    return out


def corpus_shares(rng: np.random.Generator) -> dict:
    return {
        "dup": float(rng.uniform(0.01, 0.04)),
        "orphan": float(rng.uniform(0.02, 0.05)),
        "mega": float(rng.uniform(0.25, 0.35)),
        "short": float(rng.uniform(0.10, 0.25)),     # < 150 chars
        "fr": float(rng.uniform(0.08, 0.16)),        # enum violations
    }


def documents_table(rng: np.random.Generator, n: int, shares: dict):
    ids = _pick_doc_ids(rng, n, shares)
    n = len(ids)
    p_other = (1.0 - shares["fr"]) / 4
    lang = rng.choice(np.array(LANGS), size=n,
                      p=[p_other] * 4 + [shares["fr"]])
    short = rng.random(n) < shares["short"]
    lengths = np.where(short, rng.integers(40, 150, n),
                       rng.integers(150, 620, n))
    text = _texts(rng, lengths)
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(text, pa.string()),
        "lang": pa.array(lang.tolist(), pa.string()),
        "source": pa.array([f"src{i % 20}" for i in ids], pa.string()),
        "n_chars": pa.array(lengths.astype(np.int64)),
    })


# --------------------------------------------------------------- events

def events_table(rng: np.random.Generator, n: int):
    """``props`` JSON per event; valid iff ``k`` is an integer in
    [0, 80]. The invalid share and its kinds come from the seed."""
    bad_share = float(rng.uniform(0.15, 0.3))
    kinds = rng.choice(5, size=n, p=[1 - bad_share] + [bad_share / 4] * 4)
    k = rng.integers(0, 81, n)
    props = []
    for kind, v in zip(kinds, k):
        if kind == 0:
            props.append(json.dumps({"k": int(v)} if v % 5 else
                                    {"k": float(v)}))   # whole float: valid
        elif kind == 1:
            props.append(json.dumps({"k": int(v) + 81}))
        elif kind == 2:
            props.append(json.dumps({"k": int(v) + 0.5}))
        elif kind == 3:
            props.append(json.dumps({"k": -1 - int(v)}))
        else:
            props.append(json.dumps({"j": int(v)}))
    return pa.table({"event_id": pa.array(np.arange(n, dtype=np.int64)),
                     "props": pa.array(props, pa.string())})


# ------------------------------------------------------------ manifests

# A package manifest schema that exercises $ref/$defs,
# patternProperties, uniqueItems, additionalProperties: false and the
# asserted email/uri/date-time formats (compiled with formats enabled).
MANIFEST_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$defs": {
        "person": {
            "type": "object",
            "required": ["name", "email"],
            "properties": {"name": {"type": "string", "minLength": 1},
                           "email": {"type": "string", "format": "email"}},
            "additionalProperties": False,
        },
        "semver": {"type": "string", "pattern": r"^\d+\.\d+\.\d+$"},
    },
    "type": "object",
    "required": ["name", "homepage", "released", "authors", "tags", "deps"],
    "properties": {
        "name": {"type": "string", "pattern": r"^[a-z][a-z0-9-]{2,31}$"},
        "homepage": {"type": "string", "format": "uri"},
        "released": {"type": "string", "format": "date-time"},
        "authors": {"type": "array", "minItems": 1,
                    "items": {"$ref": "#/$defs/person"}},
        "tags": {"type": "array", "uniqueItems": True,
                 "items": {"type": "string"}},
        "deps": {"type": "object",
                 "patternProperties": {
                     r"^[a-z][a-z0-9-]*$": {"$ref": "#/$defs/semver"}},
                 "additionalProperties": False},
    },
    "additionalProperties": False,
}

# one planted violation per failing manifest; each breaks exactly one
# constraint of MANIFEST_SCHEMA
VIOLATIONS = ("email", "uri", "date-time", "unique-tags", "extra-prop",
              "dep-key", "dep-version", "missing-released", "no-authors")


def _manifest(rng: np.random.Generator, i: int, violation: str | None):
    words = rng.choice(_VOCAB, size=6)
    n_auth = int(rng.integers(1, 4))
    doc = {
        "name": f"{words[0]}-{i}",
        "homepage": f"https://{words[1]}.example.org/{words[2]}/{i}",
        "released": (f"20{rng.integers(10, 25)}-"
                     f"{rng.integers(1, 13):02d}-{rng.integers(1, 29):02d}T"
                     f"{rng.integers(0, 24):02d}:{rng.integers(0, 60):02d}:"
                     f"{rng.integers(0, 60):02d}Z"),
        "authors": [{"name": f"{w} {j}", "email": f"{w}{j}@{words[3]}.io"}
                    for j, w in enumerate(rng.choice(_VOCAB, size=n_auth))],
        "tags": sorted({str(w) for w in words[2:]}),
        "deps": {f"{w}-{j}": f"{rng.integers(0, 9)}.{rng.integers(0, 20)}."
                 f"{rng.integers(0, 50)}"
                 for j, w in enumerate(rng.choice(
                     _VOCAB, size=int(rng.integers(0, 5))))},
    }
    if violation == "email":
        doc["authors"][-1]["email"] = "maintainer-at-example.io"
    elif violation == "uri":
        doc["homepage"] = f"{words[1]}.example.org/{i}"
    elif violation == "date-time":
        doc["released"] = "2024-13-45T25:00:00Z"
    elif violation == "unique-tags":
        doc["tags"] = doc["tags"] + doc["tags"][:1]
    elif violation == "extra-prop":
        doc["license"] = "MIT"
    elif violation == "dep-key":
        doc["deps"]["Bad_Key"] = "1.0.0"
    elif violation == "dep-version":
        doc["deps"]["core"] = "1.2"
    elif violation == "missing-released":
        del doc["released"]
    elif violation == "no-authors":
        doc["authors"] = []
    return doc


def manifests_table(rng: np.random.Generator, n: int):
    """(doc_id, manifest, expected_valid): planted verdicts ride along
    in their own column, which the program never reads."""
    bad_share = float(rng.uniform(0.1, 0.3))
    bad = rng.random(n) < bad_share
    kinds = rng.choice(len(VIOLATIONS), size=n)
    docs = [json.dumps(_manifest(rng, i, VIOLATIONS[kinds[i]]
                                 if bad[i] else None))
            for i in range(n)]
    return pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                     "manifest": pa.array(docs, pa.string()),
                     "expected_valid": pa.array(~bad)})


# ------------------------------------------------------------- neardup

def neardup_table(rng: np.random.Generator, n: int):
    """Unique documents plus planted near-duplicate clusters.

    A seeded share of the rows belongs to clusters: mostly small ones,
    plus two above the 64-member star-pairing threshold. Each
    member rewrites a few percent of its cluster's base words, which
    keeps word 3-gram Jaccard near 0.6-0.9 within a cluster and near 0
    across documents.

    The levels are a synthetic choice, not a measured corpus property:
    the two star clusters alone need over 10% of 1200 rows, small
    clusters bring the share to about a third, and the narrow ranges
    keep the candidate-bucket count (the pairing cost) close across
    seeds."""
    dup_share = float(rng.uniform(0.32, 0.34))
    n_dup = int(n * dup_share)
    sizes = [int(rng.integers(66, 80)) for _ in range(2)]
    while sum(sizes) < n_dup:
        sizes.append(int(rng.integers(3, 7)))
    vocab = np.array([f"w{i}" for i in range(3000)])
    docs = []
    for size in sizes:
        base = rng.choice(vocab, size=int(rng.integers(60, 120)))
        for _ in range(size):
            words = base.copy()
            flip = rng.random(len(words)) < rng.uniform(0.02, 0.03)
            words[flip] = rng.choice(vocab, size=int(flip.sum()))
            docs.append(" ".join(words))
    while len(docs) < n:
        docs.append(" ".join(rng.choice(vocab,
                                        size=int(rng.integers(60, 120)))))
    order = rng.permutation(len(docs))
    ids = rng.choice(np.arange(1, 50 * len(docs), dtype=np.int64),
                     size=len(docs), replace=False)
    table = pa.table({"doc_id": pa.array(ids),
                      "text": pa.array([docs[i] for i in order],
                                       pa.string())})
    return table, {"near_dup_share": round(dup_share, 4),
                   "clusters": len(sizes), "largest_cluster": max(sizes)}


# ------------------------------------------------------------ snapshots

def snapshot_tables(rng: np.random.Generator, n: int):
    """Old and new corpus snapshots with seeded added, changed and
    removed shares. Changed rows grow or shrink their content, which
    flips length verdicts, so a reused stale verdict shows."""
    from boon_ray.sources.corpus import derive_corpus_batch

    docs = documents_table(rng, n, corpus_shares(rng))
    corpus = derive_corpus_batch(docs, keep_meta=True).drop(["is_orphan"])
    delta = {"added": float(rng.uniform(0.03, 0.08)),
             "removed": float(rng.uniform(0.02, 0.06)),
             "changed": float(rng.uniform(0.05, 0.12))}
    m = corpus.num_rows
    role = rng.choice(4, size=m, p=[1 - sum(delta.values()),
                                    delta["added"], delta["removed"],
                                    delta["changed"]])
    old = corpus.filter(pa.array(role != 1))
    grow = rng.integers(20, 260, m)
    new_content = [
        (c + " pad" * int(g // 4) if g % 2 else c[:max(1, len(c) - int(g))])
        if r == 3 else c
        for c, r, g in zip(corpus.column("content").to_pylist(), role, grow)]
    new = corpus.set_column(corpus.schema.get_field_index("content"),
                            "content", pa.array(new_content, pa.string()))
    new = new.filter(pa.array(role != 2))
    return old, new, {k: round(v, 4) for k, v in delta.items()}


# ---------------------------------------------------------------- entry

WORKLOADS = ("validate", "integrity", "neardup", "revalidate")


def generate(workload: str, seed: int, out_dir: str,
             size: str = "default") -> dict:
    """Write ``workload``'s inputs under ``out_dir``; return the record
    of seed, sizes and drawn shares."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(out_dir, exist_ok=True)
    sz = SIZES[size]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    rec = {"seed": seed, "size": size}
    if workload in ("validate", "integrity"):
        shares = corpus_shares(rng)
        docs = documents_table(rng, sz["docs"], shares)
        _write(docs, f"{out_dir}/documents.parquet")
        rec.update(docs=docs.num_rows,
                   shares={k: round(v, 4) for k, v in shares.items()})
    if workload == "validate":
        ev = events_table(rng, sz["events"])
        _write(ev, f"{out_dir}/events.parquet")
        man = manifests_table(rng, sz["manifests"])
        _write(man, f"{out_dir}/manifests.parquet")
        rec.update(events=ev.num_rows, manifests=man.num_rows)
    elif workload == "neardup":
        t, info = neardup_table(rng, sz["neardup_docs"])
        _write(t, f"{out_dir}/neardup.parquet")
        rec.update(docs=t.num_rows, **info)
    elif workload == "revalidate":
        old, new, delta = snapshot_tables(rng, sz["snapshot_docs"])
        _write(old, f"{out_dir}/snapshot_old.parquet")
        _write(new, f"{out_dir}/snapshot_new.parquet")
        rec.update(old_rows=old.num_rows, new_rows=new.num_rows,
                   delta_shares=delta)
    return rec
