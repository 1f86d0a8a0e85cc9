"""The two closed-loop library workloads: ``demo-neural`` and ``zipf-packed``.

One caller issues ``engine.explain(ExplainRequest(...))`` (and, on the
demo, ``engine.build_counterfactual``) back to back; each call is timed
on its own, between two speed probes, and rescaled to a fast core (see
:func:`perfbench.common.speed_adjusted`). Set-up runs
:data:`SETUP_REPEATS` times and the last engine serves the loop.
"""

from __future__ import annotations

import gc
import itertools
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field

from repro import (
    CredenceEngine,
    EngineConfig,
    ExplainRequest,
    ShardedIndex,
    demo_engine,
)
from repro.core.perturbations import RemoveSentences, RemoveTerm, apply_all
from repro.datasets.covid import covid_training_queries
from repro.datasets.stream import (
    ZipfianVocabulary,
    sample_stream_queries,
    stream_corpus,
    stream_ingest,
)
from repro.errors import ReproError
from repro.eval.fidelity import recheck_explanation
from repro.index.persist import save_v3

from perfbench import inputs
from perfbench.common import (
    WORK_DIR,
    BenchmarkError,
    Outcome,
    SpeedSampler,
    median,
    peak_rss_mb,
    speed_adjusted,
    speed_probe,
    window_percentile,
)
from perfbench.ledger import Ledger

SETUP_REPEATS = 3

#: Explanations re-checked through the engine after each run.
RECHECK_SAMPLE = 24

#: Stream-corpus size and shard count of ``zipf-packed``.
ZIPF_DOCS = 10_000
ZIPF_SHARDS = 4
#: The corpus is one fixed dataset, like the demo corpus: a corpus drawn
#: per seed moved ``cf_yield`` by 4% between seeds.
ZIPF_CORPUS_SEED = 0
#: A fixed query pool: 48 queries x 1 instance x 3 strategies x 4
#: searches is one pass of 576 explains. 48 is more than the 32 entries
#: the explainers' per-query retrieval memo holds before it clears, so
#: every pass retrieves each query afresh inside a timed explain.
ZIPF_QUERIES = 48

#: Requests per block when the traced run alternates tracing on and off.
TRACE_BLOCK = 20


@dataclass
class Loop:
    """What one closed loop measured."""

    latencies: list = field(default_factory=list)
    probes: list = field(default_factory=list)  # speed probe around each request
    explains: int = 0
    with_cf: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    responses: list = field(default_factory=list)
    wall: float = 0.0
    passes: int = 0


def _execute(engine, call, loop: Loop, ledger: Ledger | None = None) -> None:
    """Run one request, timing it and the speed probe around it, and
    record its outcome."""
    kind, fn, check = call
    before = speed_probe()
    started = time.perf_counter()
    try:
        result, error = (fn() if ledger is None else ledger.request(fn)), None
    except ReproError as caught:
        result, error = None, caught
    loop.latencies.append(time.perf_counter() - started)
    loop.probes.append((before + speed_probe()) / 2)
    if error is not None:
        loop.failed += 1
        loop.failures.append(f"{kind}: {type(error).__name__}: {error}")
        return
    problem = check(result)
    if problem:
        loop.failed += 1
        loop.failures.append(f"{kind}: {problem}")
    if kind == "explain":
        loop.explains += 1
        loop.with_cf += bool(result.explanations)
        loop.responses.append(result)


def _explain_call(engine, query: str, doc_id: str, item: inputs.Explain):
    request = ExplainRequest(query, doc_id, strategy=item.strategy, search=item.search)

    def check(response):
        if response.doc_id != doc_id or response.query != query:
            return f"response names {response.query!r}/{response.doc_id!r}"
        return None

    return "explain", lambda: engine.explain(request), check


def _build_call(engine, query: str, doc_id: str, item: inputs.Build):
    perturbations = []
    for op, argument in item.ops:
        if op == "remove_sentences":
            perturbations.append(RemoveSentences(argument))
        else:
            perturbations.append(RemoveTerm(query.split()[argument]))
    expected = apply_all(engine.document(doc_id).body, perturbations)

    def check(result):
        if result.edited_body != expected:
            return "builder edited body differs from the scripted edit"
        if result.is_valid_counterfactual != (result.rank_after > result.k):
            return "builder validity flag disagrees with its rank"
        return None

    return (
        "build",
        lambda: engine.build_counterfactual(query, doc_id, perturbations=perturbations),
        check,
    )


def _recheck(engine, loop: Loop, seed: int) -> tuple[int, list[str]]:
    """Re-apply a seeded sample of the run's explanations through the
    engine; returns how many were checked and the failures."""
    found = [
        explanation
        for response in loop.responses
        for explanation in response.explanations
    ]
    sample = random.Random(seed).sample(found, min(RECHECK_SAMPLE, len(found)))
    problems = []
    for explanation in sample:
        check = recheck_explanation(engine, explanation, k=10)
        if not check.valid:
            problems.append(f"fidelity {check.kind}: {check.detail}")
    return len(sample), problems


def _closed_loop(engine, calls: list, seconds: float) -> Loop:
    """Whole passes over ``calls``, as many as come closest to ``seconds``
    (at least one).

    Every run measures the same multiset of requests, so its figures do
    not depend on which part of the pool a time cut happens to reach.
    """
    loop = Loop()
    started = time.perf_counter()
    while True:
        for call in calls:
            _execute(engine, call, loop)
        loop.passes += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / loop.passes / 2 >= seconds:
            break
    loop.wall = time.perf_counter() - started
    return loop


def _traced_loop(engine, calls, seconds: float):
    """Alternate blocks of untraced and traced requests from one stream.

    Interleaving keeps cache warm-up and input mix identical on both
    sides, so the difference in median latency is the tracing overhead.
    Returns the traced ledger (its counters include the score-cache hits
    and lookups of the traced blocks) and both loops.
    """
    ledger = Ledger()
    plain, traced = Loop(), Loop()
    cache = engine.ranker
    hits = misses = 0
    deadline = time.perf_counter() + seconds
    calls = itertools.cycle(calls)
    while time.perf_counter() < deadline:
        block = [call for _, call in zip(range(2 * TRACE_BLOCK), calls)]
        for call in block[:TRACE_BLOCK]:
            _execute(engine, call, plain)
        before = (getattr(cache, "hits", 0), getattr(cache, "misses", 0))
        ledger.install()
        try:
            for call in block[TRACE_BLOCK:]:
                _execute(engine, call, traced, ledger)
        finally:
            ledger.uninstall()
        hits += getattr(cache, "hits", 0) - before[0]
        misses += getattr(cache, "misses", 0) - before[1]
    ledger.counters["cache_hits"] = hits
    ledger.counters["cache_lookups"] = hits + misses
    return ledger, plain, traced


def _timed_setup(setup):
    """Run ``setup()`` under a speed sampler; returns its result, the raw
    seconds and the seconds rescaled to a fast core."""
    gc.collect()
    with SpeedSampler() as sampler:
        started = time.perf_counter()
        result = setup()
        elapsed = time.perf_counter() - started
    return result, elapsed, sampler.adjust(elapsed)


def _end_to_end(setups, import_s, loop: Loop, tail: float) -> tuple[dict, dict]:
    """The end-to-end metrics, timings rescaled to a fast core: latencies
    request by request (:func:`~perfbench.common.speed_adjusted`), set-up
    by the probes sampled while it ran. ``setups`` holds (raw, rescaled)
    seconds per set-up. The raw figures go to the report."""
    adjusted, slowdown = speed_adjusted(loop.latencies, loop.probes)
    p50, _ = window_percentile(adjusted, 0.5)
    tail_s, beyond = window_percentile(adjusted, tail)
    metrics = {
        "setup_s": (import_s + median([fast for _, fast in setups]), "s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "throughput_per_s": (len(adjusted) / sum(adjusted), "1/s"),
        "cf_yield": (loop.with_cf / max(loop.explains, 1), "ratio"),
        "rss_mb": (peak_rss_mb(), "MB"),
    }
    report = {
        "samples": len(loop.latencies),
        "tail_percentile": tail * 100,
        "samples_beyond_tail": beyond,
        "setup_repeats_s": [round(raw, 4) for raw, _ in setups],
        "import_s": round(import_s, 4),
        "loop_wall_s": round(loop.wall, 3),
        "passes": loop.passes,
        "slowdown": round(slowdown, 4),
        "probe_p5_p50_p95_ms": [
            round(value * 1e3, 4)
            for value in statistics.quantiles(loop.probes, n=20)[::9]
        ],
        "raw": {
            "setup_s": round(import_s + median([raw for raw, _ in setups]), 4),
            "latency_p50_ms": round(window_percentile(loop.latencies, 0.5)[0] * 1e3, 4),
            "latency_tail_ms": round(window_percentile(loop.latencies, tail)[0] * 1e3, 4),
            "throughput_per_s": round(len(loop.latencies) / sum(loop.latencies), 4),
        },
    }
    return metrics, report


def _layer_metrics(ledger: Ledger) -> dict:
    """The per-layer metrics the library ledger measures, per request."""
    requests = max(ledger.requests, 1)
    groups = ledger.groups

    def per_request_ms(group):
        return groups[group][2] * 1e3 / requests if group in groups else 0.0

    def calls(group):
        return groups[group][0] / requests if group in groups else 0.0

    counters = ledger.counters
    evaluated = counters["candidates_evaluated"]
    lookups = counters["cache_lookups"]
    return {
        "text.analyze_calls": (calls("text.analyze"), "count/req"),
        "text.analyze_ms": (per_request_ms("text.analyze"), "ms/req"),
        "index.search_calls": (calls("index.search"), "count/req"),
        "index.search_ms": (per_request_ms("index.search"), "ms/req"),
        "ranking.sessions_opened": (calls("ranking.session_open"), "count/req"),
        "ranking.session_open_ms": (
            groups["ranking.session_open"][1] * 1e3 / requests
            if "ranking.session_open" in groups
            else 0.0,
            "ms/req",
        ),
        "ranking.physical_scorings": (
            counters["physical_scorings"] / requests,
            "count/req",
        ),
        "ranking.score_ms": (per_request_ms("ranking.score"), "ms/req"),
        "ranking.cache_lookups": (lookups / requests, "count/req"),
        "ranking.cache_hit_rate": (
            counters["cache_hits"] / lookups if lookups else 0.0,
            "ratio",
        ),
        "core.search_self_ms": (per_request_ms("core.search"), "ms/req"),
        "core.candidates_generated": (
            counters["candidates_generated"] / requests,
            "count/req",
        ),
        "core.candidates_evaluated": (evaluated / requests, "count/req"),
        "core.cf_per_eval": (
            counters["explanations_found"] / evaluated if evaluated else 0.0,
            "ratio",
        ),
        "core.builder_ms": (per_request_ms("core.builder"), "ms/req"),
        "embeddings.nearest_ms": (per_request_ms("embeddings.nearest"), "ms/req"),
        "obs.unattributed_ms": (per_request_ms("request"), "ms/req"),
    }


def _overhead_pct(plain: Loop, traced: Loop) -> float:
    # Medians: a handful of slow explains would swamp a mean difference.
    adjusted, _ = speed_adjusted(
        plain.latencies + traced.latencies, plain.probes + traced.probes
    )
    split = len(plain.latencies)
    return (median(adjusted[split:]) / median(adjusted[:split]) - 1.0) * 100.0


def _outcome(engine, seed, metrics, loops, report) -> Outcome:
    """Re-check the last loop's explanations and total up the run."""
    checked, problems = _recheck(engine, loops[-1], seed)
    failures = [failure for loop in loops for failure in loop.failures] + problems
    report.update(rechecked=checked, failures=failures[:20])
    return Outcome(
        metrics=metrics,
        attempted=sum(len(loop.latencies) for loop in loops) + checked,
        failed=sum(loop.failed for loop in loops) + len(problems),
        correct=not failures,
        report=report,
    )


# -- demo-neural ---------------------------------------------------------------


def _demo_setup():
    engine = demo_engine()
    engine.doc2vec  # the first Doc2Vec train
    # Warm every lazily built explainer on a query outside the pool.
    doc_id = engine.rank("covid vaccine", 10).doc_ids[0]
    for strategy in inputs.DEMO_STRATEGIES:
        engine.explain(ExplainRequest("covid vaccine", doc_id, strategy=strategy))
    engine.build_counterfactual(
        "covid vaccine", doc_id, perturbations=[RemoveSentences((0,))]
    )
    return engine


def _demo_calls(engine, seed: int):
    queries = covid_training_queries()[: inputs.DEMO_QUERIES]
    tops = [engine.rank(query, inputs.DEMO_DEPTH).doc_ids for query in queries]
    return [
        (_explain_call if isinstance(item, inputs.Explain) else _build_call)(
            engine, queries[item.query], tops[item.query][item.rank], item
        )
        for item in inputs.demo_pool(seed)
    ]


def run_demo(seed: int, seconds: float, trace: bool, import_s: float) -> Outcome:
    if trace:
        setup_ledger = Ledger()
        setup_ledger.install()
        try:
            engine = setup_ledger.request(_demo_setup)
        finally:
            setup_ledger.uninstall()
        ledger, plain, traced = _traced_loop(engine, _demo_calls(engine, seed), seconds)
        metrics = _layer_metrics(ledger)
        train = setup_ledger.groups.get("embeddings.train", [0, 0.0, 0.0])
        metrics["embeddings.train_s"] = (train[1], "s")
        metrics["embeddings.trains"] = (
            setup_ledger.counters["doc2vec_trains"] + ledger.counters["doc2vec_trains"],
            "count",
        )
        metrics["obs.tracing_overhead_pct"] = (_overhead_pct(plain, traced), "%")
        report = {
            "traced_table": ledger.table(),
            "setup_table": setup_ledger.table(),
            "traced_requests": ledger.requests,
            "corpus_docs": len(engine.index),
        }
        return _outcome(engine, seed, metrics, [plain, traced], report)

    setups = []
    for repeat in range(SETUP_REPEATS):
        engine = None
        engine, raw, fast = _timed_setup(_demo_setup)
        setups.append((raw, fast))
    loop = _closed_loop(engine, _demo_calls(engine, seed), seconds)
    metrics, report = _end_to_end(setups, import_s, loop, 0.99)
    report.update(corpus_docs=len(engine.index), explains=loop.explains)
    return _outcome(engine, seed, metrics, [loop], report)


# -- zipf-packed ---------------------------------------------------------------


def _zipf_setup(path, vocabulary, timings: dict):
    """Sequential ingest into a 4-shard index, ``save_v3``, then attach."""
    started = time.perf_counter()
    index = ShardedIndex(ZIPF_SHARDS)
    stream_ingest(index, stream_corpus(ZIPF_DOCS, seed=ZIPF_CORPUS_SEED))
    ingested = time.perf_counter()
    save_v3(index, path)
    saved = time.perf_counter()
    del index
    gc.collect()
    attach_started = time.perf_counter()
    engine = CredenceEngine.load(path, config=EngineConfig(ranker="bm25"))
    attached = time.perf_counter()
    # Warm every lazily built explainer on a head term, which lies
    # outside the mid-frequency band the plan's queries draw from.
    warm_query = vocabulary.terms[5]
    doc_id = engine.rank(warm_query, 10).doc_ids[0]
    for strategy in inputs.LEXICAL_STRATEGIES:
        engine.explain(ExplainRequest(warm_query, doc_id, strategy=strategy))
    timings.update(
        ingest_s=ingested - started,
        save_s=saved - ingested,
        attach_s=attached - attach_started,
    )
    return engine


def _zipf_calls(engine, seed: int, vocabulary):
    """Explain calls over the seeded plan.

    Each query is ranked once to resolve its instance document. A
    query's explains run together, so the first explain of each
    strategy pays for the query's retrieval and the rest reuse the
    explainers' memo, as when a user works through one result.
    """
    queries = sample_stream_queries(ZIPF_QUERIES, vocabulary=vocabulary, seed=0)
    tops = [engine.rank(query, inputs.DEMO_DEPTH).doc_ids for query in queries]
    return [
        _explain_call(
            engine,
            queries[item.query],
            tops[item.query][item.rank % len(tops[item.query])],
            item,
        )
        for item in inputs.zipf_plan(seed, ZIPF_QUERIES)
        if tops[item.query]
    ]


def run_zipf(seed: int, seconds: float, trace: bool, import_s: float) -> Outcome:
    # The vocabulary stream_corpus builds by default.
    vocabulary = ZipfianVocabulary.build(30_000, exponent=1.07)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    engines = []
    setups, timings = [], []
    try:
        for repeat in range(1 if trace else SETUP_REPEATS):
            timing: dict = {}
            path = WORK_DIR / f"zipf-{repeat}" / "corpus.idx"
            engine, raw, fast = _timed_setup(
                lambda: _zipf_setup(path, vocabulary, timing)
            )
            setups.append((raw, fast))
            timings.append(timing)
            if engines:
                engines.pop().index.close()
            engines.append(engine)
        if len(engine.index) != ZIPF_DOCS:
            raise BenchmarkError(
                f"attached {len(engine.index)} of {ZIPF_DOCS} documents"
            )
        calls = _zipf_calls(engine, seed, vocabulary)
        if trace:
            ledger, plain, traced = _traced_loop(engine, calls, seconds)
            metrics = _layer_metrics(ledger)
            timing = timings[-1]
            metrics["index.ingest_docs_per_s"] = (ZIPF_DOCS / timing["ingest_s"], "1/s")
            metrics["index.save_v3_s"] = (timing["save_s"], "s")
            metrics["index.attach_ms"] = (timing["attach_s"] * 1e3, "ms")
            metrics["index.rss_mb_per_kdoc"] = (
                peak_rss_mb() / (ZIPF_DOCS / 1000),
                "MB/kdoc",
            )
            metrics["obs.tracing_overhead_pct"] = (_overhead_pct(plain, traced), "%")
            report = {
                "traced_table": ledger.table(),
                "traced_requests": ledger.requests,
                "corpus_docs": ZIPF_DOCS,
            }
            return _outcome(engine, seed, metrics, [plain, traced], report)
        loop = _closed_loop(engine, calls, seconds)
        metrics, report = _end_to_end(setups, import_s, loop, 0.99)
        report.update(
            corpus_docs=ZIPF_DOCS,
            shards=ZIPF_SHARDS,
            explains=loop.explains,
            setup_phases_s=[
                {key: round(value, 4) for key, value in timing.items()}
                for timing in timings
            ],
        )
        return _outcome(engine, seed, metrics, [loop], report)
    finally:
        for engine in engines:
            engine.index.close()
        shutil.rmtree(WORK_DIR, ignore_errors=True)
