"""Integration tests: every REST endpoint through the in-process client."""

import pytest

from repro.api.app import build_router
from repro.api.client import InProcessClient
from repro.datasets.covid import FAKE_NEWS_DOC_ID

QUERY = "covid outbreak"


@pytest.fixture(scope="module")
def client(module_engine):
    return InProcessClient(build_router(module_engine))


@pytest.fixture(scope="module")
def module_engine():
    from repro.core.engine import CredenceEngine, EngineConfig
    from repro.datasets.covid import covid_corpus

    return CredenceEngine(covid_corpus(), EngineConfig(ranker="bm25", seed=5))


class TestHealthAndDocuments:
    def test_health(self, client):
        response = client.get("/health")
        assert response.status == 200
        assert response.payload["status"] == "ok"
        assert response.payload["documents"] > 0

    def test_get_document(self, client):
        response = client.get(f"/documents/{FAKE_NEWS_DOC_ID}")
        assert response.status == 200
        assert response.payload["doc_id"] == FAKE_NEWS_DOC_ID
        assert "5G" in response.payload["body"]

    def test_get_missing_document(self, client):
        assert client.get("/documents/ghost").status == 404


class TestRankEndpoint:
    def test_rank_shape(self, client):
        response = client.post("/rank", {"query": QUERY, "k": 10})
        assert response.status == 200
        ranking = response.payload["ranking"]
        assert len(ranking) == 10
        assert [entry["rank"] for entry in ranking] == list(range(1, 11))

    def test_rank_rejects_bad_payload(self, client):
        assert client.post("/rank", {"k": 10}).status == 400
        assert client.post("/rank", {"query": "x", "k": -1}).status == 400


class TestExplanationEndpoints:
    def test_document_explanations(self, client):
        response = client.post(
            "/explanations",
            {"query": QUERY, "doc_id": FAKE_NEWS_DOC_ID, "n": 1, "k": 10},
        )
        assert response.status == 200
        explanation = response.payload["explanations"][0]
        assert explanation["new_rank"] > 10
        assert explanation["removed_sentences"]

    def test_document_explanations_unranked_doc_400(self, client):
        response = client.post(
            "/explanations",
            {"query": QUERY, "doc_id": "markets-0002", "n": 1, "k": 10},
        )
        assert response.status == 400

    def test_query_explanations(self, client):
        response = client.post(
            "/explanations",
            {
                "query": QUERY,
                "doc_id": FAKE_NEWS_DOC_ID,
                "strategy": "query/augmentation",
                "n": 3,
                "k": 10,
                "threshold": 2,
            },
        )
        assert response.status == 200
        explanations = response.payload["explanations"]
        assert len(explanations) == 3
        assert all(e["new_rank"] <= 2 for e in explanations)

    def test_instance_explanations_cosine(self, client):
        response = client.post(
            "/explanations",
            {
                "query": QUERY,
                "doc_id": FAKE_NEWS_DOC_ID,
                "strategy": "instance/cosine",
                "n": 2,
                "k": 10,
                "samples": 30,
            },
        )
        assert response.status == 200
        explanations = response.payload["explanations"]
        assert len(explanations) == 2
        assert all("counterfactual_body" in e for e in explanations)

    def test_instance_explanations_doc2vec(self, client):
        response = client.post(
            "/explanations",
            {
                "query": QUERY,
                "doc_id": FAKE_NEWS_DOC_ID,
                "strategy": "instance/doc2vec",
                "n": 1,
                "k": 10,
            },
        )
        assert response.status == 200
        assert response.payload["explanations"][0]["method"] == "doc2vec_nearest"


class TestBuilderEndpoint:
    def test_scripted_perturbations(self, client):
        response = client.post(
            "/builder/rerank",
            {
                "query": QUERY,
                "doc_id": FAKE_NEWS_DOC_ID,
                "k": 10,
                "perturbations": [
                    {"type": "replace_term", "term": "covid", "replacement": "flu"},
                    {"type": "remove_term", "term": "outbreak"},
                ],
            },
        )
        assert response.status == 200
        payload = response.payload
        assert payload["is_valid_counterfactual"] is True
        assert payload["rank_after"] == 11
        directions = {m["direction"] for m in payload["movements"]}
        assert "revealed" in directions

    def test_free_text_edit(self, client):
        response = client.post(
            "/builder/rerank",
            {
                "query": QUERY,
                "doc_id": FAKE_NEWS_DOC_ID,
                "k": 10,
                "edited_body": "nothing to see here",
            },
        )
        assert response.status == 200
        assert response.payload["is_valid_counterfactual"] is True

    def test_invalid_payload_rejected(self, client):
        response = client.post(
            "/builder/rerank", {"query": QUERY, "doc_id": FAKE_NEWS_DOC_ID, "k": 10}
        )
        assert response.status == 400


class TestTopicsEndpoint:
    def test_topics(self, client):
        response = client.post("/topics", {"query": QUERY, "k": 10, "num_topics": 3})
        assert response.status == 200
        topics = response.payload["topics"]
        assert len(topics) == 3
        assert all(topic["terms"] for topic in topics)


class TestIndexManagement:
    """GET /index, POST /index/documents, DELETE /index/documents/{id}."""

    @pytest.fixture()
    def fresh_client(self):
        from repro.core.engine import CredenceEngine, EngineConfig
        from repro.datasets.covid import covid_corpus

        engine = CredenceEngine(
            covid_corpus(),
            EngineConfig(ranker="bm25", seed=5),
            shards=2,
        )
        return InProcessClient(build_router(engine)), engine

    def test_index_info_reports_shard_layout(self, fresh_client):
        client, engine = fresh_client
        response = client.get("/index")
        assert response.status == 200
        payload = response.payload
        assert payload["sharded"] is True
        assert payload["shards"] == 2
        assert payload["router"] == "hash"
        assert sum(payload["shard_documents"]) == payload["documents"]
        assert payload["version"] == engine.index.version

    def test_ingest_and_remove_roundtrip(self, fresh_client):
        client, engine = fresh_client
        before = client.get("/index").payload
        response = client.post(
            "/index/documents",
            {
                "documents": [
                    {"doc_id": "ingest-1", "body": "a covid outbreak story"},
                    {"doc_id": "ingest-2", "body": "markets rallied today",
                     "title": "Markets"},
                ],
                "workers": 2,
            },
        )
        assert response.status == 201
        assert response.payload["added"] == 2
        assert response.payload["documents"] == before["documents"] + 2
        assert response.payload["version"] > before["version"]
        assert client.get("/documents/ingest-2").payload["title"] == "Markets"

        removed = client.delete("/index/documents/ingest-1")
        assert removed.status == 200
        assert removed.payload["removed"] == "ingest-1"
        assert removed.payload["documents"] == before["documents"] + 1
        assert client.get("/documents/ingest-1").status == 404

    def test_ingest_duplicate_is_400(self, fresh_client):
        client, _ = fresh_client
        response = client.post(
            "/index/documents",
            {"documents": [{"doc_id": FAKE_NEWS_DOC_ID, "body": "dup"}]},
        )
        assert response.status == 400
        assert "duplicate" in response.payload["detail"]

    def test_ingest_validation(self, fresh_client):
        client, _ = fresh_client
        assert client.post("/index/documents", {"documents": []}).status == 400
        assert (
            client.post("/index/documents", {"documents": [{"body": "x"}]}).status
            == 400
        )
        assert (
            client.post(
                "/index/documents",
                {"documents": [{"doc_id": "a", "body": "x"}], "nope": 1},
            ).status
            == 400
        )
        assert (
            client.post(
                "/index/documents",
                {"documents": [{"doc_id": "a", "body": "x"}], "workers": 0},
            ).status
            == 400
        )

    def test_remove_unknown_is_404(self, fresh_client):
        client, _ = fresh_client
        assert client.delete("/index/documents/ghost").status == 404

    def test_ingest_cap_is_enforced(self):
        from repro.core.engine import CredenceEngine, EngineConfig
        from repro.datasets.covid import covid_corpus

        engine = CredenceEngine(
            covid_corpus(), EngineConfig(ranker="bm25", seed=5)
        )
        client = InProcessClient(build_router(engine, max_ingest_items=1))
        response = client.post(
            "/index/documents",
            {
                "documents": [
                    {"doc_id": "a", "body": "x"},
                    {"doc_id": "b", "body": "y"},
                ]
            },
        )
        assert response.status == 400
        assert "<= 1" in response.payload["detail"]
