"""Tracing must be invisible: byte-identical explanations on vs off.

The instrumentation sits on the hottest serving paths (admission, the
search kernel, scoring sessions), so the contract is structural: spans
observe, they never participate. This suite runs every explanation
family across every ranker family and every search strategy twice —
once with no trace installed, once under an active trace — and demands
``to_dict()``-identical payloads (minus the wall-clock
``elapsed_seconds``, which is a measurement, not a result).
"""

from __future__ import annotations

import json

import pytest

from repro.core.engine import CredenceEngine, EngineConfig
from repro.core.explain import ExplainRequest
from repro.index.document import Document
from repro.obs import Tracer, span

QUERY = "covid outbreak hospital"

_TOPICS = [
    "covid outbreak strained the hospital wards",
    "the city council debated transit funding",
    "researchers tracked the covid variant spread",
    "the festival drew record crowds downtown",
    "hospital staff reported outbreak fatigue",
    "markets rallied after the earnings report",
]


def _corpus() -> list[Document]:
    documents = []
    for i in range(18):
        body = ". ".join(
            [
                f"{_TOPICS[i % len(_TOPICS)].capitalize()} in district {i}",
                f"{_TOPICS[(i + 2) % len(_TOPICS)].capitalize()} again",
                f"Observers noted item {i} in the evening report",
            ]
        ) + "."
        documents.append(Document(f"doc-{i:02d}", body))
    return documents


RANKERS = ("bm25", "tfidf", "lm")
SEARCHES = ("exhaustive", "greedy", "beam", "anytime")


@pytest.fixture(scope="module")
def engines() -> dict[str, CredenceEngine]:
    return {
        ranker: CredenceEngine(
            _corpus(), EngineConfig(ranker=ranker, seed=5)
        )
        for ranker in RANKERS
    }


def _doc_for(engine: CredenceEngine) -> str:
    return engine.rank(QUERY, k=1)[0].doc_id


def _fingerprint(engine: CredenceEngine, request: ExplainRequest) -> dict:
    payload = engine.explain(request).to_dict()
    payload.pop("elapsed_seconds")
    return payload


def _assert_equivalent(engine: CredenceEngine, request: ExplainRequest):
    baseline = _fingerprint(engine, request)
    tracer = Tracer(ring_capacity=4)
    with tracer.trace("equivalence") as trace:
        traced = _fingerprint(engine, request)
    assert json.dumps(traced, sort_keys=True) == json.dumps(
        baseline, sort_keys=True
    )
    # The traced run must actually have been observed, or the test is
    # vacuous.
    assert any(s.name == "engine/explain" for s in trace.spans)
    # And a control: rerunning without a trace still matches.
    assert _fingerprint(engine, request) == baseline


class TestDocumentFamily:
    @pytest.mark.parametrize("ranker", RANKERS)
    @pytest.mark.parametrize("search", SEARCHES)
    def test_sentence_removal(self, engines, ranker, search):
        engine = engines[ranker]
        _assert_equivalent(
            engine,
            ExplainRequest(
                query=QUERY,
                doc_id=_doc_for(engine),
                strategy="document/sentence-removal",
                n=2,
                k=5,
                search=search,
                budget=200,
            ),
        )

    @pytest.mark.parametrize("ranker", RANKERS)
    def test_greedy(self, engines, ranker):
        engine = engines[ranker]
        _assert_equivalent(
            engine,
            ExplainRequest(
                query=QUERY,
                doc_id=_doc_for(engine),
                n=2,
                k=5,
                search="greedy",
            ),
        )


class TestQueryFamily:
    @pytest.mark.parametrize("ranker", RANKERS)
    def test_augmentation(self, engines, ranker):
        engine = engines[ranker]
        _assert_equivalent(
            engine,
            ExplainRequest(
                query=QUERY,
                doc_id=_doc_for(engine),
                strategy="query/augmentation",
                n=2,
                k=5,
                threshold=3,
            ),
        )


class TestInstanceFamily:
    @pytest.mark.parametrize("ranker", RANKERS)
    def test_cosine(self, engines, ranker):
        engine = engines[ranker]
        _assert_equivalent(
            engine,
            ExplainRequest(
                query=QUERY,
                doc_id=_doc_for(engine),
                strategy="instance/cosine",
                n=2,
                k=5,
                samples=10,
            ),
        )


class TestNestingNeutrality:
    def test_explain_inside_a_foreign_span_is_unaffected(self, engines):
        """An ambient span from unrelated instrumentation must not leak
        into the explanation either."""
        engine = engines["bm25"]
        request = ExplainRequest(
            query=QUERY,
            doc_id=_doc_for(engine),
            strategy="document/sentence-removal",
            n=2,
            k=5,
        )
        baseline = _fingerprint(engine, request)
        tracer = Tracer(ring_capacity=4)
        with tracer.trace("outer"):
            with span("caller/stage"):
                nested = _fingerprint(engine, request)
        assert nested == baseline
