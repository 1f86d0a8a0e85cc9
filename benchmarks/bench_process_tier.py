"""Process tier vs thread tier — escaping the GIL where cores exist.

The thread tier's wins are architectural (result-store hits, overlapped
bookkeeping); on a standard GIL build it cannot scale *compute*. The
process tier exists exactly for that: worker processes attach the v3
packed index via mmap and compute explanations truly in parallel. Two
workloads pin the contract:

* **CPU-bound explain_batch** — distinct (never-cached) requests, so
  throughput is pure compute. Thread tier is expected flat; the process
  tier targets **≥ 2× at 4 workers** — *when 4 cores exist*.
* **Bulk ingest** — a high-vocabulary synthetic corpus (near-zero
  analysis-memo hit rate, so the analysis cost is real), thread workers
  vs ``executor="process"`` offloaded analysis.

**Core-count honesty.** Multi-process speedup is physics, not software:
on a box with one usable core (``len(os.sched_getaffinity(0)) == 1``)
no executor can beat sequential compute, so the scaling floors are
asserted only when ≥ 4 cores are available. Byte-identical results are
asserted unconditionally — correctness never depends on the machine.
The checked-in JSON records the cores the numbers were measured on.

Full runs write ``BENCH_process_tier.json``; ``PROC_SMOKE=1`` (used by
``scripts/check.sh``) shrinks the workload, keeps every equivalence
assertion, and leaves the JSON untouched.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from repro.core.engine import CredenceEngine, EngineConfig
from repro.core.explain import ExplainRequest
from repro.datasets.covid import DEMO_QUERY, covid_corpus
from repro.eval.reporting import Table
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.index.sharding import ShardedIndex

CORES = len(os.sched_getaffinity(0))
SMOKE = os.environ.get("PROC_SMOKE") == "1"
#: Scaling floors only bind where the hardware can express them.
SCALING_EXPECTED = CORES >= 4 and not SMOKE
WORKERS = 4
K = 10
MIN_EXPLAIN_SPEEDUP = 2.0  # process vs thread tier, CPU-bound batch
INGEST_DOCS = 600 if SMOKE else 12_000
JSON_PATH = Path(__file__).with_name("BENCH_process_tier.json")

STRATEGIES = (
    ("document/sentence-removal", {"n": 2}),
    # One explanation per request; each search below runs it once.
    ("document/sentence-removal", {}),
    ("query/augmentation", {"n": 2, "threshold": 2}),
)


def _fresh_engine() -> CredenceEngine:
    return CredenceEngine(covid_corpus(), EngineConfig(ranker="bm25", seed=5))


def _workload() -> list[ExplainRequest]:
    """Distinct CPU-bound requests — no repeats, so the result store
    never answers and the comparison is pure compute."""
    doc_ids = [e.doc_id for e in _fresh_engine().rank(DEMO_QUERY, K)][:6]
    requests = [
        ExplainRequest(
            DEMO_QUERY, doc_id, strategy=strategy, k=K,
            search=search, **knobs,
        )
        for doc_id in doc_ids
        for strategy, knobs in STRATEGIES
        for search in (("exhaustive", "greedy") if not SMOKE else ("greedy",))
    ]
    return requests[: max(4, len(requests) // (1 if not SMOKE else 3))]


def _canonical(responses) -> list[str]:
    items = []
    for response in responses:
        payload = response.to_dict()
        payload.pop("elapsed_seconds", None)
        items.append(json.dumps(payload, sort_keys=True))
    return items


def _update_json(section: str, payload: dict) -> None:
    data = {}
    if JSON_PATH.exists():
        data = json.loads(JSON_PATH.read_text())
    data["cores"] = CORES
    data["note"] = (
        "scaling floors are asserted only when >= 4 cores are available; "
        "byte-identical equivalence with the sequential path is asserted "
        "unconditionally. numbers below were measured on the recorded "
        "core count."
    )
    data[section] = payload
    JSON_PATH.write_text(json.dumps(data, indent=2) + "\n")


def test_process_tier_explain_batch(capsys):
    distinct = _workload()

    sequential_engine = _fresh_engine()
    start = time.perf_counter()
    sequential = sequential_engine.explain_batch(distinct)
    sequential_seconds = time.perf_counter() - start
    reference = _canonical(sequential)

    def timed_tier(executor: str) -> tuple[float, list[str]]:
        engine = _fresh_engine()
        try:
            # Warm: build the pool / fork the workers off the clock.
            engine.explain_batch(distinct[:2], parallel=WORKERS, executor=executor)
            engine.service().store.clear()
            start = time.perf_counter()
            responses = engine.explain_batch(
                distinct, parallel=WORKERS, executor=executor
            )
            seconds = time.perf_counter() - start
        finally:
            engine.service().shutdown()
        return seconds, _canonical(responses)

    thread_seconds, thread_payloads = timed_tier("thread")
    process_seconds, process_payloads = timed_tier("process")

    assert thread_payloads == reference, "thread tier diverged"
    assert process_payloads == reference, "process tier diverged"

    items = len(distinct)
    speedup_vs_thread = thread_seconds / process_seconds
    speedup_vs_sequential = sequential_seconds / process_seconds

    table = Table(
        ["tier", "items", "total s", "items/s", "vs thread"],
        title=(
            f"CPU-bound explain_batch: thread vs process tier "
            f"({WORKERS} workers, {CORES} cores)"
        ),
    )
    table.add("sequential", items, f"{sequential_seconds:.3f}",
              f"{items / sequential_seconds:.1f}", "-")
    table.add(f"thread x{WORKERS}", items, f"{thread_seconds:.3f}",
              f"{items / thread_seconds:.1f}", "1.00x")
    table.add(f"process x{WORKERS}", items, f"{process_seconds:.3f}",
              f"{items / process_seconds:.1f}", f"{speedup_vs_thread:.2f}x")
    with capsys.disabled():
        print()
        print(table.render())

    if SCALING_EXPECTED:
        assert speedup_vs_thread >= MIN_EXPLAIN_SPEEDUP, (
            f"process tier {speedup_vs_thread:.2f}x over threads is below "
            f"the {MIN_EXPLAIN_SPEEDUP}x target with {CORES} cores"
        )
    else:
        # One core cannot scale compute; bound the dispatch overhead so
        # the tier stays usable even where it cannot win.
        assert process_seconds < sequential_seconds * 25, (
            "process-tier overhead is out of hand"
        )

    if not SMOKE:
        _update_json(
            "explain_batch",
            {
                "items": items,
                "strategies": [
                    {"strategy": name, **knobs} for name, knobs in STRATEGIES
                ],
                "search_strategies": ["exhaustive", "greedy"],
                "workers": WORKERS,
                "sequential_seconds": round(sequential_seconds, 4),
                "thread_seconds": round(thread_seconds, 4),
                "process_seconds": round(process_seconds, 4),
                "process_speedup_vs_thread": round(speedup_vs_thread, 2),
                "process_speedup_vs_sequential": round(
                    speedup_vs_sequential, 2
                ),
                "min_speedup_target": MIN_EXPLAIN_SPEEDUP,
                "target_asserted": SCALING_EXPECTED,
                "equivalence": "all three paths byte-identical "
                "(elapsed_seconds excluded)",
            },
        )


def _ingest_corpus(count: int) -> list[Document]:
    """High-vocabulary synthetic corpus: ~4k distinct surface forms,
    bodies effectively unique, so the per-ingest analysis memo cannot
    trivialise the analysis cost the way the covid filler corpus does
    (76 unique terms)."""
    rng = random.Random(11)
    vocab = [f"w{index:05d}" for index in range(4_000)]
    return [
        Document(f"doc-{index:06d}", " ".join(rng.choices(vocab, k=40)))
        for index in range(count)
    ]


def test_process_tier_ingest(capsys):
    documents = _ingest_corpus(INGEST_DOCS)

    def timed(builder) -> tuple[float, object]:
        start = time.perf_counter()
        index = builder()
        return time.perf_counter() - start, index

    thread1_seconds, thread1 = timed(
        lambda: ShardedIndex.from_documents(documents, 4, workers=1)
    )
    process_seconds, processed = timed(
        lambda: ShardedIndex.from_documents(
            documents, 4, workers=WORKERS, executor="process"
        )
    )
    def build_plain() -> InvertedIndex:
        index = InvertedIndex()
        index.add_documents(documents, workers=WORKERS, executor="process")
        return index

    plain_seconds, plain = timed(build_plain)
    assert plain.stats() == thread1.stats()

    # Byte-identical corpora regardless of tier.
    assert processed.stats() == thread1.stats()
    assert processed.doc_ids == thread1.doc_ids
    assert processed.export_snapshot() == thread1.export_snapshot()

    speedup = thread1_seconds / process_seconds
    table = Table(
        ["path", "docs", "total s", "docs/s", "speedup"],
        title=(
            f"high-vocabulary ingest: thread vs process analysis "
            f"({CORES} cores)"
        ),
    )
    table.add("sharded, workers=1 (thread)", INGEST_DOCS,
              f"{thread1_seconds:.2f}",
              f"{INGEST_DOCS / thread1_seconds:.0f}", "-")
    table.add(f"sharded, workers={WORKERS} (process)", INGEST_DOCS,
              f"{process_seconds:.2f}",
              f"{INGEST_DOCS / process_seconds:.0f}", f"{speedup:.2f}x")
    with capsys.disabled():
        print()
        print(table.render())

    if SCALING_EXPECTED:
        assert speedup > 1.0, (
            f"process ingest {speedup:.2f}x must beat one thread worker "
            f"with {CORES} cores on a GIL build"
        )
    else:
        assert process_seconds < thread1_seconds * 10, (
            "process ingest overhead is out of hand"
        )

    if not SMOKE:
        _update_json(
            "ingest",
            {
                "documents": INGEST_DOCS,
                "generator": "bench_process_tier._ingest_corpus(seed=11)",
                "unique_terms": thread1.stats().unique_terms,
                "shards": 4,
                "workers": WORKERS,
                "thread_workers_1_seconds": round(thread1_seconds, 3),
                "process_workers_4_seconds": round(process_seconds, 3),
                "plain_index_process_seconds": round(plain_seconds, 3),
                "speedup_vs_thread_1": round(speedup, 2),
                "target_asserted": SCALING_EXPECTED,
                "equivalence": "stats, doc order, and full export_snapshot "
                "asserted identical across tiers",
            },
        )
