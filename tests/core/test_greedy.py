"""Tests for greedy grow-and-prune sentence removal: the
``document/sentence-removal`` strategy with ``search="greedy"``."""

import pytest

from repro.core.document_cf import CounterfactualDocumentExplainer
from repro.datasets.covid import FAKE_NEWS_DOC_ID
from repro.errors import RankingError
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.ranking.bm25 import Bm25Ranker

QUERY = "covid outbreak"


@pytest.fixture(scope="module")
def ranker():
    from repro.datasets.covid import covid_corpus

    return Bm25Ranker(InvertedIndex.from_documents(covid_corpus()))


def _greedy(ranker):
    return CounterfactualDocumentExplainer(ranker, search="greedy")


@pytest.fixture(scope="module")
def greedy(ranker):
    return _greedy(ranker)


class TestGreedyValidity:
    def test_explanation_is_valid(self, greedy, ranker):
        result = greedy.explain(QUERY, FAKE_NEWS_DOC_ID, k=10)
        assert len(result) == 1
        explanation = result[0]
        assert explanation.new_rank > 10
        # Independently verified through the exhaustive explainer's checker.
        exhaustive = CounterfactualDocumentExplainer(ranker)
        assert exhaustive.is_valid(
            QUERY, FAKE_NEWS_DOC_ID, set(explanation.removed_indices), k=10
        )

    def test_prune_makes_result_subset_minimal(self, greedy, ranker):
        explanation = greedy.explain(QUERY, FAKE_NEWS_DOC_ID, k=10)[0]
        exhaustive = CounterfactualDocumentExplainer(ranker)
        removed = set(explanation.removed_indices)
        for index in removed:
            if len(removed) == 1:
                break
            assert not exhaustive.is_valid(
                QUERY, FAKE_NEWS_DOC_ID, removed - {index}, k=10
            ), "a pruned-superset survived: prune phase failed"

    def test_matches_exhaustive_on_demo_instance(self, greedy, ranker):
        found = greedy.explain(QUERY, FAKE_NEWS_DOC_ID, k=10)
        minimum = CounterfactualDocumentExplainer(ranker).explain(
            QUERY, FAKE_NEWS_DOC_ID, n=1, k=10
        )
        assert found.search_strategy == "greedy"
        assert found[0].size == minimum[0].size == 2

    def test_unified_request_matches_explainer(self, greedy, bm25_engine):
        from repro.core.explain import ExplainRequest

        response = bm25_engine.explain(
            ExplainRequest(QUERY, FAKE_NEWS_DOC_ID, k=10, search="greedy")
        )
        assert response.strategy == "document/sentence-removal"
        assert response.result.search_strategy == "greedy"
        assert [e.to_dict() for e in response] == [
            e.to_dict() for e in greedy.explain(QUERY, FAKE_NEWS_DOC_ID, k=10)
        ]

    def test_cost_is_linear_not_combinatorial(self, greedy):
        result = greedy.explain(QUERY, FAKE_NEWS_DOC_ID, k=10)
        sentence_count = 5  # the fake article
        assert result.candidates_evaluated <= 2 * sentence_count


class TestGreedyEdgeCases:
    def test_unranked_document_rejected(self, greedy):
        with pytest.raises(RankingError):
            greedy.explain(QUERY, "markets-0002", k=10)

    def test_no_counterfactual_reports_exhausted(self):
        # Every sentence mentions the query terms and the pool's k+1 slot
        # is lexically close — greedy must terminate empty, not loop.
        documents = [
            Document("target", "covid outbreak one. covid outbreak two."),
            Document("other-1", "covid outbreak elsewhere today."),
            Document("other-2", "covid outbreak report tonight."),
        ]
        ranker = Bm25Ranker(InvertedIndex.from_documents(documents))
        greedy = _greedy(ranker)
        ranking = ranker.rank(QUERY, 2)
        target = ranking.doc_ids[0]
        result = greedy.explain(QUERY, target, k=2)
        # Either a valid demotion exists or the search reports exhaustion.
        assert len(result) == 1 or result.search_exhausted

    def test_single_sentence_document(self):
        documents = [
            Document("short", "covid outbreak here."),
            Document("other", "covid outbreak elsewhere today."),
            Document("third", "unrelated text entirely."),
        ]
        ranker = Bm25Ranker(InvertedIndex.from_documents(documents))
        result = _greedy(ranker).explain(QUERY, "short", k=2)
        assert len(result) == 0
        assert result.search_exhausted
