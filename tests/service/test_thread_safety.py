"""Regression tests for concurrent engine use.

Before the service layer, ``ScoreCache``, the index's memoized
``stats()``, the lexical ranker's collection view, and the registry's
lazy explainer memoization were all mutated without locks while
``ApiServer`` is a threading server. These tests hammer those paths
from many threads and require (a) no exceptions and (b) results
identical to a single-threaded reference run.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.engine import CredenceEngine, EngineConfig
from repro.core.explain import ExplainRequest
from repro.core.registry import ExplainerRegistry

THREADS = 8
ROUNDS = 5


def _requests() -> list[ExplainRequest]:
    return [
        ExplainRequest("covid outbreak", "d5", k=5),
        ExplainRequest("covid outbreak", "d5", k=5, search="greedy"),
        ExplainRequest(
            "covid outbreak",
            "d5",
            strategy="query/augmentation",
            n=2,
            k=5,
            threshold=2,
        ),
    ]


def _canonical(response) -> str:
    payload = response.to_dict()
    payload.pop("elapsed_seconds", None)
    return json.dumps(payload, sort_keys=True)


@pytest.fixture()
def engine(tiny_docs) -> CredenceEngine:
    return CredenceEngine(
        tiny_docs, EngineConfig(ranker="bm25", seed=5, cache_scores=True)
    )


class TestConcurrentExplain:
    def test_hammer_explain_from_many_threads(self, engine, tiny_docs):
        """The headline regression: concurrent explain() with the score
        cache enabled must neither crash nor diverge."""
        reference = [
            _canonical(engine.explain(request)) for request in _requests()
        ]
        errors: list[BaseException] = []
        mismatches: list[str] = []
        barrier = threading.Barrier(THREADS, timeout=10)

        def hammer():
            try:
                barrier.wait()  # maximise interleaving
                for _ in range(ROUNDS):
                    for request, expected in zip(_requests(), reference):
                        got = _canonical(engine.explain(request))
                        if got != expected:
                            mismatches.append(request.strategy)
            except BaseException as error:  # noqa: BLE001 - collect, then fail
                errors.append(error)

        threads = [
            threading.Thread(target=hammer) for _ in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert not mismatches

    def test_concurrent_stats_during_mutation(self, tiny_docs):
        """stats()/collection views stay coherent while the corpus mutates."""
        from repro.index.document import Document

        engine = CredenceEngine(
            tiny_docs, EngineConfig(ranker="bm25", seed=5)
        )
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    stats = engine.index.stats()
                    assert stats.document_count >= len(tiny_docs)
                    engine.ranker.inner.collection_view()
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            for round_number in range(20):
                doc_id = f"extra-{round_number}"
                engine.index.add(
                    Document(doc_id, "An extra covid outbreak bulletin.")
                )
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=10)
        assert not errors, errors

    def test_registry_builds_one_explainer_per_strategy(self, engine):
        """Concurrent first requests must construct a single instance."""
        registry = ExplainerRegistry()
        built = []

        @registry.register("test/strategy")
        def _factory(engine_):
            built.append(object())

            def explain(request):
                raise NotImplementedError

            return explain

        barrier = threading.Barrier(THREADS, timeout=10)
        instances = []

        def fetch():
            barrier.wait()
            instances.append(registry.get(engine, "test/strategy"))

        threads = [threading.Thread(target=fetch) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(built) == 1
        assert len(set(map(id, instances))) == 1

    def test_concurrent_service_accessor_builds_one_service(self, engine):
        barrier = threading.Barrier(THREADS, timeout=10)
        services = []

        def fetch():
            barrier.wait()
            services.append(engine.service())

        threads = [threading.Thread(target=fetch) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(set(map(id, services))) == 1
        engine.service().shutdown()
