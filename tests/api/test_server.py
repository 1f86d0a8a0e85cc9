"""Tests for the live HTTP server (sockets, threading, JSON wire format)."""

import pytest

from repro.api.app import serve
from repro.api.client import HttpClient
from repro.datasets.covid import FAKE_NEWS_DOC_ID

QUERY = "covid outbreak"


@pytest.fixture(scope="module")
def live(module_engine):
    server = serve(module_engine, port=0)  # ephemeral port
    try:
        yield HttpClient(server.url)
    finally:
        server.stop()


@pytest.fixture(scope="module")
def module_engine():
    from repro.core.engine import CredenceEngine, EngineConfig
    from repro.datasets.covid import covid_corpus

    return CredenceEngine(covid_corpus(), EngineConfig(ranker="bm25", seed=5))


class TestLiveServer:
    def test_health_over_http(self, live):
        response = live.get("/health")
        assert response.status == 200
        assert response.payload["status"] == "ok"

    def test_rank_over_http(self, live):
        response = live.post("/rank", {"query": QUERY, "k": 5})
        assert response.status == 200
        assert len(response.payload["ranking"]) == 5

    def test_error_status_over_http(self, live):
        response = live.post("/rank", {"query": ""})
        assert response.status == 400
        assert response.payload["error"] == "BadRequestError"

    def test_not_found_over_http(self, live):
        assert live.get("/missing/route").status == 404
        body = {"query": QUERY, "doc_id": FAKE_NEWS_DOC_ID}
        for family in ("document", "query", "instance"):
            assert live.post(f"/explanations/{family}", body).status == 404

    def test_builder_over_http(self, live):
        response = live.post(
            "/builder/rerank",
            {
                "query": QUERY,
                "doc_id": FAKE_NEWS_DOC_ID,
                "k": 10,
                "perturbations": [{"type": "remove_term", "term": "covid"}],
            },
        )
        assert response.status == 200
        assert "rank_after" in response.payload

    def test_concurrent_requests(self, live):
        import concurrent.futures

        def fetch(_):
            return live.post("/rank", {"query": QUERY, "k": 3}).status

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            statuses = list(pool.map(fetch, range(8)))
        assert statuses == [200] * 8
