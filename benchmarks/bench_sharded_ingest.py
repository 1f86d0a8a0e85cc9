"""Sharded bulk ingestion vs. the per-token reference ingest loop.

The baseline is the ingest loop before any memoisation: one
``add_analyzed`` per document, with the analyzer's unmemoised pipeline
(``Analyzer._pipeline``) re-run on every token. It is built explicitly
here because the analyzer now memoises token analysis itself, which
turned ``InvertedIndex.from_documents`` into a memoised loop; that loop
is reported as its own row. The sharded backend's
``add_documents(docs, workers=N)`` partitions the batch across shards
and ingests the partitions on a worker pool over the same memoised
analyzer.

The acceptance target is **≥ 2× ingestion throughput at 4 workers**
over the per-token reference on a synthetic 50k-document corpus, with
the resulting index byte-identical (statistics and BM25 top-k are
asserted below). As with the service throughput benchmark, the win on
stock CPython is architectural, not GIL-defying: the analysis memo
collapses the per-token normalize/stopword/stem pipeline to one dict
lookup per repeated surface form, and per-shard batches cut per-add
locking overhead. The worker threads themselves only overlap on
free-threaded builds, where the per-shard partitioning is what lets
ingestion scale with cores — ``workers_1_seconds`` is reported
alongside so the two effects stay separable.

Full runs write ``BENCH_sharded_ingest.json`` next to this file
(checked in). ``SHARDED_INGEST_SMOKE=1`` (used by ``scripts/check.sh``)
runs a small corpus with a relaxed floor and leaves the JSON untouched.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.datasets.synthetic import synthetic_corpus
from repro.eval.reporting import Table
from repro.index.inverted import InvertedIndex
from repro.index.searcher import IndexSearcher
from repro.index.sharding import ShardedIndex
from repro.text.tokenizer import token_texts

SMOKE = os.environ.get("SHARDED_INGEST_SMOKE") == "1"
CORPUS_SIZE = 3_000 if SMOKE else 50_000
SHARDS = 4
WORKERS = 4
#: Smoke mode only guards against regressions; the acceptance target is
#: asserted on full runs.
MIN_SPEEDUP = 1.5 if SMOKE else 2.0
QUERY = "virus vaccine hospital market storm"
JSON_PATH = Path(__file__).with_name("BENCH_sharded_ingest.json")


def _timed(builder) -> tuple[float, object]:
    start = time.perf_counter()
    index = builder()
    return time.perf_counter() - start, index


def _per_token_reference(documents) -> InvertedIndex:
    """Ingest with the full unmemoised analyzer pipeline on every token."""
    index = InvertedIndex()
    pipeline = index.analyzer._pipeline
    for document in documents:
        terms = [
            term
            for term in map(pipeline, token_texts(document.body))
            if term is not None
        ]
        index.add_analyzed(document, terms)
    return index


def test_sharded_parallel_ingest_speedup(capsys):
    documents = synthetic_corpus(CORPUS_SIZE, seed=7)

    naive_seconds, naive = _timed(lambda: _per_token_reference(documents))
    memoised_seconds, _ = _timed(
        lambda: InvertedIndex.from_documents(documents)
    )
    serial_seconds, _ = _timed(
        lambda: ShardedIndex.from_documents(documents, SHARDS, workers=None)
    )
    parallel_seconds, sharded = _timed(
        lambda: ShardedIndex.from_documents(documents, SHARDS, workers=WORKERS)
    )

    # The fast path must build the same corpus, byte for byte.
    assert sharded.stats() == naive.stats()
    assert sharded.doc_ids == naive.doc_ids
    assert (
        IndexSearcher(sharded).search(QUERY, 10)
        == IndexSearcher(naive).search(QUERY, 10)
    )

    speedup = naive_seconds / parallel_seconds
    docs_per_second = CORPUS_SIZE / parallel_seconds

    table = Table(
        ["path", "docs", "total s", "docs/s", "speedup"],
        title=(
            f"corpus ingestion: per-token reference vs sharded bulk "
            f"({SHARDS} shards)"
        ),
    )
    table.add(
        "per-token reference loop", CORPUS_SIZE, f"{naive_seconds:.2f}",
        f"{CORPUS_SIZE / naive_seconds:.0f}", "-",
    )
    table.add(
        "memoised per-document loop", CORPUS_SIZE,
        f"{memoised_seconds:.2f}", f"{CORPUS_SIZE / memoised_seconds:.0f}",
        f"{naive_seconds / memoised_seconds:.2f}x",
    )
    table.add(
        "sharded bulk (serial)", CORPUS_SIZE, f"{serial_seconds:.2f}",
        f"{CORPUS_SIZE / serial_seconds:.0f}",
        f"{naive_seconds / serial_seconds:.2f}x",
    )
    table.add(
        f"sharded bulk ({WORKERS} workers)", CORPUS_SIZE,
        f"{parallel_seconds:.2f}", f"{docs_per_second:.0f}",
        f"{speedup:.2f}x",
    )
    with capsys.disabled():
        print()
        print(table.render())

    assert speedup >= MIN_SPEEDUP, (
        f"bulk ingestion speedup {speedup:.2f}x is below the "
        f"{MIN_SPEEDUP}x target"
    )

    if not SMOKE:
        JSON_PATH.write_text(
            json.dumps(
                {
                    "corpus": {
                        "documents": CORPUS_SIZE,
                        "generator": "synthetic_corpus(seed=7)",
                        "total_terms": naive.stats().total_terms,
                        "unique_terms": naive.stats().unique_terms,
                    },
                    "shards": SHARDS,
                    "workers": WORKERS,
                    "naive_add_loop_seconds": round(naive_seconds, 3),
                    "memoised_add_loop_seconds": round(memoised_seconds, 3),
                    "workers_1_seconds": round(serial_seconds, 3),
                    "workers_4_seconds": round(parallel_seconds, 3),
                    "docs_per_second": round(docs_per_second, 1),
                    "speedup": round(speedup, 2),
                    "min_speedup_target": MIN_SPEEDUP,
                    "baseline": "per-token reference: one add_analyzed "
                    "per document, the unmemoised analyzer pipeline on "
                    "every token",
                    "equivalence": "stats, doc order, and BM25 top-10 "
                    "asserted identical to the per-token reference loop",
                    "note": "architectural speedup: the analyzer's "
                    "per-surface-form memo + batched per-shard "
                    "construction; "
                    "worker threads additionally overlap only on "
                    "free-threaded (GIL-less) builds — for GIL-free "
                    "ingest on standard builds see "
                    "BENCH_process_tier.json (executor=\"process\")",
                },
                indent=2,
            )
            + "\n"
        )
