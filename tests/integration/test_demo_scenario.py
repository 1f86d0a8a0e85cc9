"""End-to-end reproduction of the demonstration plan (§III, Figs. 2–5)
under the neural retrieve-rerank pipeline — the paper's actual setup."""

import pytest

from repro.core.explain import ExplainRequest
from repro.core.perturbations import RemoveTerm, ReplaceTerm
from repro.datasets.covid import DEMO_QUERY, FAKE_NEWS_DOC_ID, NEAR_COPY_DOC_ID

K = 10


class TestScenarioSetup:
    def test_fake_article_is_relevant(self, neural_engine):
        ranking = neural_engine.rank(DEMO_QUERY, k=K)
        rank = ranking.rank_of(FAKE_NEWS_DOC_ID)
        assert rank is not None and rank <= K

    def test_near_copy_is_non_relevant(self, neural_engine):
        ranking = neural_engine.rank(DEMO_QUERY, k=K)
        assert NEAR_COPY_DOC_ID not in ranking

    def test_genuine_coverage_dominates_top_ranks(self, neural_engine):
        ranking = neural_engine.rank(DEMO_QUERY, k=K)
        top_three = ranking.doc_ids[:3]
        genuine = [d for d in top_three if d.startswith("covid-genuine")]
        assert len(genuine) >= 2


class TestFig2DocumentCounterfactual:
    def test_sentence_removal_demotes_beyond_k(self, neural_engine):
        result = neural_engine.explain(
            ExplainRequest(DEMO_QUERY, FAKE_NEWS_DOC_ID, n=1, k=K)
        )
        assert len(result) == 1
        explanation = result[0]
        assert explanation.new_rank == K + 1  # "rank of 11 surpasses k = 10"

    def test_removed_sentences_mention_both_query_terms(self, neural_engine):
        explanation = neural_engine.explain(
            ExplainRequest(DEMO_QUERY, FAKE_NEWS_DOC_ID, n=1, k=K)
        )[0]
        analyzer = neural_engine.index.analyzer
        for sentence in explanation.removed_sentences:
            terms = set(analyzer.analyze(sentence.text))
            assert {"covid", "outbreak"} <= terms

    def test_combined_importance_is_four(self, neural_engine):
        """Both sentences score 2; their combination scores 4 (Fig. 2)."""
        explanation = neural_engine.explain(
            ExplainRequest(DEMO_QUERY, FAKE_NEWS_DOC_ID, n=1, k=K)
        )[0]
        assert explanation.importance == 4.0


class TestFig3QueryCounterfactual:
    def test_seven_explanations_with_threshold_two(self, neural_engine):
        result = neural_engine.explain(
            ExplainRequest(
                DEMO_QUERY, FAKE_NEWS_DOC_ID, strategy="query/augmentation", n=7, k=K,
                threshold=2,
            )
        )
        assert len(result) == 7
        assert all(e.new_rank <= 2 for e in result)

    def test_conspiracy_terms_lead_the_explanations(self, neural_engine):
        result = neural_engine.explain(
            ExplainRequest(
                DEMO_QUERY, FAKE_NEWS_DOC_ID, strategy="query/augmentation", n=7, k=K,
                threshold=2,
            )
        )
        first_terms = set(result[0].added_terms)
        assert first_terms & {"5g", "microchip"}

    def test_augmentations_preserve_original_query(self, neural_engine):
        result = neural_engine.explain(
            ExplainRequest(
                DEMO_QUERY, FAKE_NEWS_DOC_ID, strategy="query/augmentation", n=3, k=K,
                threshold=2,
            )
        )
        assert all(e.augmented_query.startswith(DEMO_QUERY) for e in result)

    def test_rank_one_reachable(self, neural_engine):
        """Fig. 3 reports rank 1/10 for 'covid outbreak 5G microchip'."""
        result = neural_engine.explain(
            ExplainRequest(
                DEMO_QUERY, FAKE_NEWS_DOC_ID, strategy="query/augmentation", n=1, k=K,
                threshold=1,
            )
        )
        assert result[0].new_rank == 1


class TestFig4InstanceCounterfactual:
    def test_doc2vec_nearest_finds_near_copy(self, neural_engine):
        result = neural_engine.explain(
            ExplainRequest(
                DEMO_QUERY, FAKE_NEWS_DOC_ID, strategy="instance/doc2vec", n=1, k=K,
            )
        )
        explanation = result[0]
        assert explanation.counterfactual_doc_id == NEAR_COPY_DOC_ID
        assert explanation.similarity_percent >= 75.0  # paper reports 75%

    def test_cosine_sampled_finds_near_copy_with_full_coverage(self, neural_engine):
        result = neural_engine.explain(
            ExplainRequest(
                DEMO_QUERY, FAKE_NEWS_DOC_ID, strategy="instance/cosine", n=1, k=K,
                samples=500,
            )
        )
        assert result[0].counterfactual_doc_id == NEAR_COPY_DOC_ID

    def test_instance_absent_from_original_ranking(self, neural_engine):
        ranking = neural_engine.rank(DEMO_QUERY, k=K)
        result = neural_engine.explain(
            ExplainRequest(
                DEMO_QUERY, FAKE_NEWS_DOC_ID, strategy="instance/doc2vec", n=3, k=K,
            )
        )
        for explanation in result:
            assert explanation.counterfactual_doc_id not in ranking


class TestFig5Builder:
    FIG5_EDITS = [
        ReplaceTerm("covid-19", "flu"),
        ReplaceTerm("covid", "flu"),
        RemoveTerm("outbreak"),
    ]

    def test_flu_substitution_is_valid_counterfactual(self, neural_engine):
        result = neural_engine.build_counterfactual(
            DEMO_QUERY, FAKE_NEWS_DOC_ID, perturbations=self.FIG5_EDITS, k=K
        )
        assert result.is_valid_counterfactual  # the green check-mark
        assert result.rank_after == K + 1  # "lowered from 3 to 11 (i.e., k+1)"

    def test_revealed_document_flagged(self, neural_engine):
        result = neural_engine.build_counterfactual(
            DEMO_QUERY, FAKE_NEWS_DOC_ID, perturbations=self.FIG5_EDITS, k=K
        )
        assert result.revealed_doc_id is not None  # the orange plus icon

    def test_arrows_cover_every_displayed_document(self, neural_engine):
        result = neural_engine.build_counterfactual(
            DEMO_QUERY, FAKE_NEWS_DOC_ID, perturbations=self.FIG5_EDITS, k=K
        )
        assert len(result.movements) == K + 1
        directions = {m.direction for m in result.movements}
        assert directions <= {"raised", "lowered", "unchanged", "revealed"}


class TestBlackBoxGenerality:
    """The explainers must work unchanged over any ranker (§II-A)."""

    @pytest.mark.parametrize("ranker_name", ["bm25", "tfidf", "lm"])
    def test_document_cf_across_rankers(self, covid_documents, ranker_name):
        from repro.core.engine import CredenceEngine, EngineConfig

        engine = CredenceEngine(
            covid_documents, EngineConfig(ranker=ranker_name, seed=5)
        )
        ranking = engine.rank(DEMO_QUERY, k=K)
        if FAKE_NEWS_DOC_ID not in ranking:
            pytest.skip(f"{ranker_name} does not rank the fake article top-{K}")
        result = engine.explain(ExplainRequest(DEMO_QUERY, FAKE_NEWS_DOC_ID, n=1, k=K))
        assert len(result) == 1
        assert result[0].new_rank > K
