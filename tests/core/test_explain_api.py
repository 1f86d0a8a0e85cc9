"""Tests for the explanation API: ExplainRequest/Response,
engine.explain, explain_batch and memoization."""

import pytest

from repro.core.explain import DEFAULT_STRATEGY, ExplainRequest
from repro.datasets.covid import FAKE_NEWS_DOC_ID
from repro.errors import (
    ConfigurationError,
    RankingError,
    StrategyUnavailableError,
    UnknownStrategyError,
)

QUERY = "covid outbreak"


class TestExplainRequest:
    def test_defaults(self):
        request = ExplainRequest(QUERY, FAKE_NEWS_DOC_ID)
        assert request.strategy == DEFAULT_STRATEGY
        assert (request.n, request.k, request.threshold, request.samples) == (
            1, 10, 1, 50
        )
        assert dict(request.extra) == {}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"query": ""},
            {"query": "   "},
            {"doc_id": ""},
            {"strategy": " "},
            {"n": 0},
            {"k": -1},
            {"threshold": 0},
            {"samples": 0},
            {"extra": "not-a-mapping"},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        base = {"query": QUERY, "doc_id": FAKE_NEWS_DOC_ID}
        with pytest.raises(ConfigurationError):
            ExplainRequest(**{**base, **kwargs})

    def test_round_trip_dict(self):
        request = ExplainRequest(
            QUERY, FAKE_NEWS_DOC_ID, strategy="instance/cosine",
            n=2, k=5, samples=30, extra={"alpha": 1},
        )
        assert ExplainRequest.from_dict(request.to_dict()) == request

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown request field"):
            ExplainRequest.from_dict(
                {"query": QUERY, "doc_id": FAKE_NEWS_DOC_ID, "shards": 4}
            )

    def test_with_strategy(self):
        request = ExplainRequest(QUERY, FAKE_NEWS_DOC_ID)
        retargeted = request.with_strategy("query/augmentation")
        assert retargeted.strategy == "query/augmentation"
        assert retargeted.query == request.query


class TestEngineExplain:
    @pytest.mark.parametrize(
        "strategy",
        [
            "document/sentence-removal",
            "query/augmentation",
            "instance/doc2vec",
            "instance/cosine",
        ],
    )
    def test_every_family_reachable(self, bm25_engine, strategy):
        response = bm25_engine.explain(
            ExplainRequest(QUERY, FAKE_NEWS_DOC_ID, strategy=strategy, samples=30)
        )
        assert response.strategy == strategy
        assert response.ok
        assert len(response) >= 1
        assert response.elapsed_seconds > 0.0

    def test_keyword_form(self, bm25_engine):
        response = bm25_engine.explain(
            query=QUERY, doc_id=FAKE_NEWS_DOC_ID, strategy="query/augmentation",
            n=2, threshold=2,
        )
        assert len(response) == 2
        assert all(e.new_rank <= 2 for e in response)

    def test_request_and_kwargs_mutually_exclusive(self, bm25_engine):
        with pytest.raises(ConfigurationError):
            bm25_engine.explain(
                ExplainRequest(QUERY, FAKE_NEWS_DOC_ID), n=2
            )

    @pytest.mark.parametrize(
        "strategy", ["magic/crystal", "doc2vec_nearest", "cosine_sampled"]
    )
    def test_unknown_strategy_raises(self, bm25_engine, strategy):
        with pytest.raises(UnknownStrategyError, match="registered:"):
            bm25_engine.explain(
                ExplainRequest(QUERY, FAKE_NEWS_DOC_ID, strategy=strategy)
            )

    def test_ltr_strategy_unavailable_on_lexical_ranker(self, bm25_engine):
        with pytest.raises(StrategyUnavailableError):
            bm25_engine.explain(
                ExplainRequest(QUERY, FAKE_NEWS_DOC_ID, strategy="features/ltr")
            )
        assert "features/ltr" not in bm25_engine.available_strategies()

    def test_ranking_errors_propagate(self, bm25_engine):
        with pytest.raises(RankingError):
            bm25_engine.explain(ExplainRequest(QUERY, "markets-0002"))

    def test_response_envelope_dict(self, bm25_engine):
        payload = bm25_engine.explain(
            ExplainRequest(QUERY, FAKE_NEWS_DOC_ID)
        ).to_dict()
        assert payload["strategy"] == "document/sentence-removal"
        assert payload["query"] == QUERY
        assert payload["doc_id"] == FAKE_NEWS_DOC_ID
        assert payload["elapsed_seconds"] >= 0.0
        assert payload["explanations"]
        assert "error" not in payload


class TestExplainBatch:
    def test_preserves_order_and_isolates_errors(self, bm25_engine):
        requests = [
            ExplainRequest(QUERY, FAKE_NEWS_DOC_ID,
                           strategy="document/sentence-removal"),
            ExplainRequest(QUERY, "ghost-doc", strategy="query/augmentation"),
            ExplainRequest(QUERY, FAKE_NEWS_DOC_ID,
                           strategy="instance/cosine", samples=30),
        ]
        responses = bm25_engine.explain_batch(requests)
        assert [r.strategy for r in responses] == [
            "document/sentence-removal",
            "query/augmentation",
            "instance/cosine",
        ]
        assert responses[0].ok and responses[2].ok
        assert not responses[1].ok
        assert "RankingError" in responses[1].error
        assert responses[1].explanations == []
        assert all(r.elapsed_seconds >= 0.0 for r in responses)

    def test_error_response_dict_carries_error(self, bm25_engine):
        (response,) = bm25_engine.explain_batch(
            [ExplainRequest(QUERY, "ghost-doc")]
        )
        payload = response.to_dict()
        assert "error" in payload and "explanations" not in payload

    def test_unknown_strategy_is_a_per_item_error(self, bm25_engine):
        responses = bm25_engine.explain_batch(
            [
                ExplainRequest(QUERY, FAKE_NEWS_DOC_ID, strategy="nope"),
                ExplainRequest(QUERY, FAKE_NEWS_DOC_ID),
            ]
        )
        assert not responses[0].ok
        assert responses[1].ok

    def test_rejects_non_request_items(self, bm25_engine):
        with pytest.raises(ConfigurationError):
            bm25_engine.explain_batch([{"query": QUERY}])

    def test_empty_batch(self, bm25_engine):
        assert bm25_engine.explain_batch([]) == []


class TestMemoization:
    def test_instance_explainers_reused_across_calls(self, bm25_engine):
        registry = bm25_engine.registry
        first = registry.get(bm25_engine, "instance/cosine")
        bm25_engine.explain(
            ExplainRequest(QUERY, FAKE_NEWS_DOC_ID, strategy="instance/cosine",
                           samples=30)
        )
        second = registry.get(bm25_engine, "instance/cosine")
        assert first is second

    def test_doc2vec_explainer_reused(self, bm25_engine):
        registry = bm25_engine.registry
        first = registry.get(bm25_engine, "instance/doc2vec")
        second = registry.get(bm25_engine, "instance/doc2vec")
        assert first is second
        # and it holds the engine's lazily-trained (cached) model
        assert bm25_engine.doc2vec is bm25_engine.doc2vec
