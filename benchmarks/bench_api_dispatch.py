"""API-dispatch overhead — the cost of the unified explanation surface.

The redesign routes every explanation through
``engine.explain(ExplainRequest(...))``: request validation, registry
lookup, the memoised explainer, and the response envelope. This
benchmark quantifies that machinery against calling the underlying
explainer object directly, and measures how ``explain_batch``
amortises shared state across items.

Acceptance target: registry dispatch adds **< 5 %** over direct calls.

The two paths are timed in short interleaved blocks, and the overhead is
the median of the per-repeat ratios of those paired blocks. On a shared
VM, per-path minima of separately timed runs swung from -20 % to +25 %
between runs of unchanged code; the paired median stays within about a
percentage point of its long-run value.

Runs against the BM25 demo engine so the smoke pass in
``scripts/check.sh`` stays fast (no neural training).
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core.explain import ExplainRequest
from repro.datasets.covid import DEMO_QUERY, FAKE_NEWS_DOC_ID
from repro.demo import demo_engine
from repro.eval.reporting import Table

K = 10
#: Calls per timed block, and paired blocks per path. Short blocks timed
#: back to back see the same machine state, so their ratio cancels
#: drift; the median over many pairs ignores the pairs a scheduler
#: hiccup hit.
ROUNDS = 2
REPEATS = 300


@pytest.fixture(scope="module")
def dispatch_engine():
    return demo_engine(ranker="bm25")


def _paired_times(
    first, second, rounds: int = ROUNDS, repeats: int = REPEATS
) -> tuple[list[float], list[float]]:
    """``repeats`` paired timings of ``rounds`` calls of each path.

    The two paths alternate inside every repeat, and which one goes
    first alternates between repeats, so neither path systematically
    runs in a quieter (or warmer) stretch of the machine's time.
    """
    paths = (first, second)
    times: tuple[list[float], list[float]] = ([], [])
    for repeat in range(repeats):
        for which in ((0, 1) if repeat % 2 == 0 else (1, 0)):
            fn = paths[which]
            start = time.perf_counter()
            for _ in range(rounds):
                fn()
            times[which].append(time.perf_counter() - start)
    return times


def _median_ratio(base: list[float], other: list[float]) -> float:
    """Median over repeats of ``other / base`` for paired blocks."""
    return statistics.median(b / a for a, b in zip(base, other))


def test_dispatch_overhead_under_5_percent(dispatch_engine, capsys):
    """`engine.explain` must cost < 5% over the direct explainer call."""
    engine = dispatch_engine
    request = ExplainRequest(
        DEMO_QUERY, FAKE_NEWS_DOC_ID, strategy="document/sentence-removal", k=K
    )
    explainer = engine.document_explainer

    # Warm the score cache and the registry's memoised instance so both
    # paths measure steady-state hot-path cost.
    explainer.explain(DEMO_QUERY, FAKE_NEWS_DOC_ID, n=1, k=K)
    engine.explain(request)

    direct_times, dispatched_times = _paired_times(
        lambda: explainer.explain(DEMO_QUERY, FAKE_NEWS_DOC_ID, n=1, k=K),
        lambda: engine.explain(request),
    )
    overhead = _median_ratio(direct_times, dispatched_times) - 1.0
    direct = statistics.median(direct_times) / ROUNDS
    dispatched = statistics.median(dispatched_times) / ROUNDS

    table = Table(
        ["path", "median per call ms", "overhead"],
        title=(
            f"registry dispatch vs direct call ({REPEATS} interleaved pairs "
            f"of {ROUNDS} calls; overhead = median paired ratio)"
        ),
    )
    table.add("direct explainer.explain()", f"{1000 * direct:.3f}", "-")
    table.add("engine.explain(request)", f"{1000 * dispatched:.3f}",
              f"{100 * overhead:+.2f}%")
    with capsys.disabled():
        print()
        print(table.render())

    assert overhead < 0.05, (
        f"registry dispatch overhead {100 * overhead:.2f}% exceeds the 5% budget"
    )


def test_batch_amortises_versus_single_calls(dispatch_engine, capsys):
    """One batch must not cost more than the same requests issued singly,
    and every item must report its own latency."""
    engine = dispatch_engine
    requests = [
        ExplainRequest(DEMO_QUERY, FAKE_NEWS_DOC_ID,
                       strategy="document/sentence-removal", k=K),
        ExplainRequest(DEMO_QUERY, FAKE_NEWS_DOC_ID,
                       strategy="query/augmentation", n=2, k=K, threshold=2),
        ExplainRequest(DEMO_QUERY, FAKE_NEWS_DOC_ID,
                       strategy="instance/cosine", k=K, samples=30),
    ]
    engine.explain_batch(requests)  # warm caches + memoised explainers

    single_times, batch_times = _paired_times(
        lambda: [engine.explain(r) for r in requests],
        lambda: engine.explain_batch(requests),
        rounds=1,
        repeats=100,
    )
    ratio = _median_ratio(single_times, batch_times)
    single = statistics.median(single_times)
    batch = statistics.median(batch_times)

    responses = engine.explain_batch(requests)
    table = Table(
        ["strategy", "ok", "per-item ms"],
        title="explain_batch per-item latency (warm)",
    )
    for response in responses:
        table.add(response.strategy, response.ok,
                  f"{1000 * response.elapsed_seconds:.3f}")
    table.add("single calls total", "-", f"{1000 * single:.3f}")
    table.add("batch total", "-", f"{1000 * batch:.3f}")
    with capsys.disabled():
        print()
        print(table.render())

    assert all(response.ok for response in responses)
    assert all(response.elapsed_seconds >= 0.0 for response in responses)
    # The batch path may only add bounded overhead over the single path.
    assert ratio <= 1.25, f"batch costs {ratio:.2f}x the single calls"


def test_dispatch_correctness_parity(dispatch_engine):
    """The dispatched result must equal the direct explainer's result."""
    engine = dispatch_engine
    direct = engine.document_explainer.explain(
        DEMO_QUERY, FAKE_NEWS_DOC_ID, n=1, k=K
    )
    dispatched = engine.explain(
        ExplainRequest(DEMO_QUERY, FAKE_NEWS_DOC_ID,
                       strategy="document/sentence-removal", k=K)
    )
    assert [e.to_dict() for e in direct] == [
        e.to_dict() for e in dispatched.result
    ]
