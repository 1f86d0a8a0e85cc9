"""Integration tests for the explanation routes: ``POST /explanations``,
``POST /explanations/batch`` and ``GET /strategies``."""

import pytest

from repro.api.app import build_router
from repro.api.client import InProcessClient
from repro.datasets.covid import FAKE_NEWS_DOC_ID

QUERY = "covid outbreak"


@pytest.fixture(scope="module")
def module_engine():
    from repro.core.engine import CredenceEngine, EngineConfig
    from repro.datasets.covid import covid_corpus

    return CredenceEngine(covid_corpus(), EngineConfig(ranker="bm25", seed=5))


@pytest.fixture(scope="module")
def client(module_engine):
    return InProcessClient(build_router(module_engine))


class TestStrategiesEndpoint:
    def test_lists_strategies_with_availability(self, client):
        response = client.get("/strategies")
        assert response.status == 200
        records = {
            record["name"]: record
            for record in response.payload["strategies"]
        }
        assert records["document/sentence-removal"]["available"] is True
        assert records["features/ltr"]["available"] is False
        assert records["query/augmentation"]["description"]

    def test_health_reports_available_strategies(self, client):
        payload = client.get("/health").payload
        assert "document/sentence-removal" in payload["strategies"]
        assert "features/ltr" not in payload["strategies"]


class TestUnifiedExplanations:
    @pytest.mark.parametrize(
        "strategy",
        [
            "document/sentence-removal",
            "query/augmentation",
            "instance/doc2vec",
            "instance/cosine",
        ],
    )
    def test_each_strategy_reachable(self, client, strategy):
        response = client.post(
            "/explanations",
            {
                "query": QUERY,
                "doc_id": FAKE_NEWS_DOC_ID,
                "strategy": strategy,
                "samples": 30,
            },
        )
        assert response.status == 200
        payload = response.payload
        assert payload["strategy"] == strategy
        assert payload["explanations"]
        assert payload["elapsed_seconds"] >= 0.0

    def test_default_strategy(self, client):
        response = client.post(
            "/explanations", {"query": QUERY, "doc_id": FAKE_NEWS_DOC_ID}
        )
        assert response.status == 200
        assert response.payload["strategy"] == "document/sentence-removal"

    def test_instance_strategy_attaches_bodies(self, client):
        response = client.post(
            "/explanations",
            {
                "query": QUERY,
                "doc_id": FAKE_NEWS_DOC_ID,
                "strategy": "instance/cosine",
                "n": 2,
                "samples": 30,
            },
        )
        assert response.status == 200
        for explanation in response.payload["explanations"]:
            assert explanation["counterfactual_body"]

    @pytest.mark.parametrize(
        "strategy", ["magic", "doc2vec_nearest", "cosine_sampled"]
    )
    def test_unknown_strategy_400(self, client, strategy):
        response = client.post(
            "/explanations",
            {"query": QUERY, "doc_id": FAKE_NEWS_DOC_ID, "strategy": strategy},
        )
        assert response.status == 400
        assert "unknown explanation strategy" in response.payload["detail"]

    def test_unavailable_strategy_400(self, client):
        response = client.post(
            "/explanations",
            {
                "query": QUERY,
                "doc_id": FAKE_NEWS_DOC_ID,
                "strategy": "features/ltr",
            },
        )
        assert response.status == 400
        assert "unavailable" in response.payload["detail"]

    def test_threshold_beyond_k_400(self, client):
        response = client.post(
            "/explanations",
            {
                "query": QUERY,
                "doc_id": FAKE_NEWS_DOC_ID,
                "strategy": "query/augmentation",
                "k": 5,
                "threshold": 6,
            },
        )
        assert response.status == 400
        assert "threshold" in response.payload["detail"]

    def test_unranked_document_400(self, client):
        response = client.post(
            "/explanations", {"query": QUERY, "doc_id": "markets-0002"}
        )
        assert response.status == 400

    def test_unknown_field_rejected_not_ignored(self, client):
        # A ``method`` field (not ``strategy``) must not silently run
        # the default strategy.
        response = client.post(
            "/explanations",
            {
                "query": QUERY,
                "doc_id": FAKE_NEWS_DOC_ID,
                "method": "cosine_sampled",
            },
        )
        assert response.status == 400
        assert "unknown request field" in response.payload["detail"]
        assert "method" in response.payload["detail"]

    def test_invalid_shapes_400(self, client):
        assert client.post("/explanations", {"query": QUERY}).status == 400
        assert (
            client.post(
                "/explanations",
                {"query": QUERY, "doc_id": FAKE_NEWS_DOC_ID, "strategy": 3},
            ).status
            == 400
        )
        assert (
            client.post(
                "/explanations",
                {"query": QUERY, "doc_id": FAKE_NEWS_DOC_ID, "n": 0},
            ).status
            == 400
        )


class TestBatchEndpoint:
    def test_batch_preserves_order_and_isolates_errors(self, client):
        response = client.post(
            "/explanations/batch",
            {
                "requests": [
                    {"query": QUERY, "doc_id": FAKE_NEWS_DOC_ID},
                    {"query": QUERY, "doc_id": "ghost-doc"},
                    {
                        "query": QUERY,
                        "doc_id": FAKE_NEWS_DOC_ID,
                        "strategy": "instance/cosine",
                        "samples": 30,
                    },
                ]
            },
        )
        assert response.status == 200
        payload = response.payload
        assert payload["count"] == 3
        first, second, third = payload["responses"]
        assert first["strategy"] == "document/sentence-removal"
        assert first["explanations"]
        assert "error" in second and "RankingError" in second["error"]
        assert third["strategy"] == "instance/cosine"
        assert all(
            "counterfactual_body" in e for e in third["explanations"]
        )

    def test_batch_requires_requests(self, client):
        assert client.post("/explanations/batch", {}).status == 400
        assert (
            client.post("/explanations/batch", {"requests": []}).status == 400
        )

    def test_batch_item_cap(self, client):
        item = {"query": QUERY, "doc_id": FAKE_NEWS_DOC_ID}
        response = client.post(
            "/explanations/batch", {"requests": [item] * 101}
        )
        assert response.status == 400


class TestSearchOptions:
    """The search-kernel options thread through the REST surface."""

    def test_beam_search_accepted(self, client):
        response = client.post(
            "/explanations",
            {
                "query": QUERY,
                "doc_id": FAKE_NEWS_DOC_ID,
                "search": "beam",
                "beam_width": 4,
                "budget": 5000,
            },
        )
        assert response.status == 200
        assert response.payload["search_strategy"] == "beam"
        assert response.payload["explanations"]

    def test_anytime_with_deadline(self, client):
        response = client.post(
            "/explanations",
            {
                "query": QUERY,
                "doc_id": FAKE_NEWS_DOC_ID,
                "search": "anytime",
                "deadline_ms": 500,
            },
        )
        assert response.status == 200
        assert response.payload["search_strategy"] == "anytime"

    def test_unknown_search_is_a_clean_400(self, client):
        response = client.post(
            "/explanations",
            {
                "query": QUERY,
                "doc_id": FAKE_NEWS_DOC_ID,
                "search": "simulated-annealing",
            },
        )
        assert response.status == 400
        assert "search" in response.payload["detail"]

    def test_invalid_search_numbers_are_a_clean_400(self, client):
        for body_patch in (
            {"beam_width": 0},
            {"budget": 0},
            {"deadline_ms": -1},
            {"deadline_ms": "fast"},
        ):
            response = client.post(
                "/explanations",
                {"query": QUERY, "doc_id": FAKE_NEWS_DOC_ID, **body_patch},
            )
            assert response.status == 400, body_patch

    def test_batch_items_accept_search_options(self, client):
        response = client.post(
            "/explanations/batch",
            {
                "requests": [
                    {"query": QUERY, "doc_id": FAKE_NEWS_DOC_ID},
                    {
                        "query": QUERY,
                        "doc_id": FAKE_NEWS_DOC_ID,
                        "search": "greedy",
                    },
                ]
            },
        )
        assert response.status == 200
        strategies = [
            item["search_strategy"] for item in response.payload["responses"]
        ]
        assert strategies == ["exhaustive", "greedy"]

    def test_search_options_distinguish_cached_results(self, client):
        """Requests differing only in search options never share a store
        entry — the responses carry their own search strategies."""
        base = {"query": QUERY, "doc_id": FAKE_NEWS_DOC_ID}
        first = client.post("/explanations", base).payload
        second = client.post(
            "/explanations", {**base, "search": "greedy"}
        ).payload
        assert first["search_strategy"] == "exhaustive"
        assert second["search_strategy"] == "greedy"

    def test_oversized_budget_and_deadline_are_a_clean_400(self, client):
        """One request must not pin a worker indefinitely: per-request
        ceilings on the search-kernel bounds."""
        for body_patch in (
            {"budget": 10_000_000},
            {"deadline_ms": 3_600_000},
        ):
            response = client.post(
                "/explanations",
                {"query": QUERY, "doc_id": FAKE_NEWS_DOC_ID, **body_patch},
            )
            assert response.status == 400, body_patch
