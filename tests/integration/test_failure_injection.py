"""Failure injection: corrupt inputs, degenerate corpora, misbehaving rankers.

Production systems meet broken data; these tests pin down that the
library fails loudly (library-typed errors) or degrades gracefully
(empty explanation sets), never silently corrupts results.
"""

import json

import pytest

from repro.core.document_cf import CounterfactualDocumentExplainer
from repro.core.engine import CredenceEngine, EngineConfig
from repro.core.explain import ExplainRequest
from repro.errors import IndexFormatError, IndexStateError, RankingError, ReproError
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.index.searcher import IndexSearcher
from repro.index.storage import load_index, save_index
from repro.ranking.base import Ranker, Ranking
from repro.ranking.bm25 import Bm25Ranker


class TestDegenerateCorpora:
    def test_single_document_corpus(self):
        engine = CredenceEngine(
            [Document("only", "covid outbreak text here.")],
            EngineConfig(ranker="bm25"),
        )
        ranking = engine.rank("covid", k=10)
        assert len(ranking) == 1
        # No k+1 slot exists: a counterfactual can never be valid.
        result = engine.explain(ExplainRequest("covid", "only", n=1, k=1))
        assert len(result) == 0

    def test_empty_body_documents_indexable(self):
        index = InvertedIndex.from_documents(
            [Document("empty", "   "), Document("full", "covid outbreak news.")]
        )
        assert index.document_length("empty") == 0
        hits = IndexSearcher(index).search("covid", k=2)
        assert [h.doc_id for h in hits] == ["full"]

    def test_stopword_only_query(self, tiny_index):
        assert IndexSearcher(tiny_index).search("the of and", k=3) == []

    def test_unicode_heavy_corpus(self):
        index = InvertedIndex.from_documents(
            [
                Document("u1", "Überraschung beim Ausbruch der Grippe — café schließt."),
                Document("u2", "The outbreak of flu closed the café."),
            ]
        )
        hits = IndexSearcher(index).search("café", k=2)
        assert {h.doc_id for h in hits} == {"u1", "u2"}  # accents folded

    def test_identical_documents_rank_deterministically(self):
        documents = [Document(f"copy-{i}", "same covid text.") for i in range(4)]
        ranker = Bm25Ranker(InvertedIndex.from_documents(documents))
        first = ranker.rank("covid", 4).doc_ids
        second = ranker.rank("covid", 4).doc_ids
        assert first == second == [f"copy-{i}" for i in range(4)]


class TestCorruptPersistence:
    def test_truncated_index_file(self, tiny_index, tmp_path):
        path = tmp_path / "index.json"
        save_index(tiny_index, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        # Corruption surfaces as the library-typed IndexFormatError (a
        # ReproError and a ValueError), never a raw JSONDecodeError.
        with pytest.raises(IndexFormatError):
            load_index(path)
        with pytest.raises(ReproError):
            load_index(path)

    def test_missing_required_field(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text(json.dumps({"format_version": 1, "documents": []}))
        with pytest.raises(KeyError):
            load_index(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(tmp_path / "absent.json")


class _ConstantRanker(Ranker):
    """A pathological ranker that scores everything identically."""

    def rank(self, query, k):
        scored = [(doc.doc_id, 0.0) for doc in self.index]
        return Ranking.from_scores(scored).top(min(k, len(scored)))

    def score_text(self, query, body):
        return 0.0


class _NanRanker(Ranker):
    """A broken ranker emitting NaN scores."""

    def rank(self, query, k):
        return self.rank_candidates(query, list(self.index)).top(k)

    def score_text(self, query, body):
        return float("nan")


class TestMisbehavingRankers:
    def test_constant_ranker_yields_no_counterfactual(self, tiny_index):
        """If nothing the explainer does can change ranks, it must return
        empty (search exhausted), not loop or crash."""
        explainer = CounterfactualDocumentExplainer(
            _ConstantRanker(tiny_index), max_evaluations=100
        )
        result = explainer.explain("covid outbreak", "d1", n=1, k=3)
        assert len(result) == 0
        assert result.search_exhausted or result.budget_exhausted

    def test_nan_ranker_still_produces_contiguous_ranking(self, tiny_index):
        ranking = _NanRanker(tiny_index).rank("covid", 3)
        assert [entry.rank for entry in ranking] == [1, 2, 3]

    def test_empty_index_search_raises_typed_error(self):
        with pytest.raises(IndexStateError):
            IndexSearcher(InvertedIndex()).search("anything")

    def test_library_errors_are_catchable_at_base(self, bm25_engine):
        with pytest.raises(ReproError):
            bm25_engine.explain(
                ExplainRequest("covid outbreak", "no-such-doc", n=1, k=10)
            )


class TestApiRobustness:
    @pytest.fixture()
    def client(self, bm25_engine):
        from repro.api.app import build_router
        from repro.api.client import InProcessClient

        return InProcessClient(build_router(bm25_engine))

    def test_null_body(self, client):
        assert client.post("/rank", None).status == 400

    def test_array_body(self, client):
        assert client.post("/rank", [1, 2, 3]).status == 400

    def test_giant_k_handled(self, client):
        response = client.post("/rank", {"query": "covid outbreak", "k": 10_000})
        assert response.status == 200
        assert len(response.payload["ranking"]) <= 100  # capped by corpus

    def test_nonsense_query_returns_empty_ranking(self, client):
        response = client.post("/rank", {"query": "zzzz qqqq xxxx", "k": 5})
        assert response.status == 200
        assert response.payload["ranking"] == []

    def test_explaining_non_relevant_doc_maps_to_400(self, client):
        response = client.post(
            "/explanations",
            {"query": "covid outbreak", "doc_id": "markets-0002", "n": 1, "k": 10},
        )
        assert response.status == 400
        assert "not in the top" in response.payload["detail"]
