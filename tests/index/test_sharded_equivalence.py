"""Sharded vs. single-shard corpora must be indistinguishable.

The acceptance contract of the sharded backend: ranks, scores, and every
explainer's full ``to_dict()`` payload are **byte-identical** between a
plain single index (``shards=None``), a one-shard sharded index
(``shards=1``), and a four-shard sharded index (``shards=4``) over the
same corpus — across the BM25 / TF-IDF / LM ranker families and the LTR
feature ranker, for all five explanation strategies.
"""

import json

import pytest

from repro.core.engine import CredenceEngine, EngineConfig
from repro.core.explain import ExplainRequest
from repro.index.inverted import InvertedIndex
from repro.index.sharding import ShardedIndex
from repro.ltr.dataset import assign_priors, synthetic_letor_dataset
from repro.ltr.feature_cf import FeatureCounterfactualExplainer
from repro.ltr.models import LinearLtrModel
from repro.ltr.ranker import LtrRanker
from repro.ranking.rerank import candidate_pool
from tests.core.test_search_equivalence import _corpus

QUERY = "covid outbreak hospital"
K = 5

#: The explanation strategies, with knobs exercising each one's
#: non-default paths.
STRATEGIES = (
    ("document/sentence-removal", {"n": 2}),
    ("document/sentence-removal", {"search": "greedy"}),
    ("query/augmentation", {"n": 2, "threshold": 2}),
    ("instance/doc2vec", {"n": 2}),
    ("instance/cosine", {"n": 2, "samples": 30}),
)
STRATEGY_IDS = [
    f"{name}+{knobs['search']}" if "search" in knobs else name
    for name, knobs in STRATEGIES
]

LEXICAL_RANKERS = ("bm25", "tfidf", "lm")


def _engine(ranker: str, shards: int | None) -> CredenceEngine:
    return CredenceEngine(
        _corpus(),
        EngineConfig(ranker=ranker, seed=5),
        shards=shards,
        ingest_workers=2 if shards else None,
    )


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module", params=LEXICAL_RANKERS)
def engine_pair(request):
    """(plain, shards=1, shards=4) engines over the same corpus+ranker."""
    ranker = request.param
    return (
        _engine(ranker, None),
        _engine(ranker, 1),
        _engine(ranker, 4),
    )


class TestRankingEquivalence:
    def test_topk_byte_identical(self, engine_pair):
        plain, one, four = engine_pair
        reference = plain.rank(QUERY, K).to_dicts()
        assert one.rank(QUERY, K).to_dicts() == reference
        assert four.rank(QUERY, K).to_dicts() == reference

    def test_index_types(self, engine_pair):
        plain, one, four = engine_pair
        assert isinstance(plain.index, InvertedIndex)
        assert isinstance(one.index, ShardedIndex) and one.index.shard_count == 1
        assert isinstance(four.index, ShardedIndex) and four.index.shard_count == 4


class TestExplainerEquivalence:
    @pytest.mark.parametrize(
        "strategy,knobs", STRATEGIES, ids=STRATEGY_IDS
    )
    def test_strategy_byte_identical(self, engine_pair, strategy, knobs):
        plain, one, four = engine_pair
        target = plain.rank(QUERY, K).doc_ids[0]
        request = ExplainRequest(QUERY, target, strategy=strategy, k=K, **knobs)
        reference = _canonical(plain.explain(request).result.to_dict())
        assert _canonical(one.explain(request).result.to_dict()) == reference
        assert _canonical(four.explain(request).result.to_dict()) == reference


class TestLtrEquivalence:
    """features/ltr over plain vs. sharded corpora."""

    @pytest.fixture(scope="class")
    def ltr_setup(self):
        corpus = assign_priors(_corpus(), seed=7)
        examples = synthetic_letor_dataset(
            corpus, [QUERY, "markets earnings report"], seed=11
        )
        model = LinearLtrModel.fit(examples)
        return corpus, model

    def _explain(self, index, model):
        ranker = LtrRanker(index, model)
        explainer = FeatureCounterfactualExplainer(ranker)
        target = candidate_pool(ranker, QUERY, K)[0].doc_id
        ranking = ranker.rank(QUERY, K).to_dicts()
        result = explainer.explain(QUERY, target, n=2, k=K)
        return ranking, _canonical(result.to_dict())

    def test_feature_cf_byte_identical(self, ltr_setup):
        corpus, model = ltr_setup
        reference = self._explain(InvertedIndex.from_documents(corpus), model)
        for shards in (1, 4):
            sharded = self._explain(
                ShardedIndex.from_documents(corpus, shards, workers=2), model
            )
            assert sharded == reference


class TestMutatedCorpusEquivalence:
    """Equivalence must survive corpus mutations, not just bulk builds."""

    def test_after_add_and_remove(self):
        documents = _corpus()
        plain = CredenceEngine(documents, EngineConfig(ranker="bm25", seed=5))
        sharded = CredenceEngine(
            documents, EngineConfig(ranker="bm25", seed=5), shards=4
        )
        extra = documents[0].with_body(
            "A brand new covid outbreak overwhelmed the hospital wards."
        )
        extra = type(extra)("doc-new", extra.body)
        for engine in (plain, sharded):
            engine.add_documents([extra])
            engine.remove_document(documents[5].doc_id)
        assert (
            plain.rank(QUERY, K).to_dicts() == sharded.rank(QUERY, K).to_dicts()
        )
        target = plain.rank(QUERY, K).doc_ids[0]
        request = ExplainRequest(
            QUERY, target, strategy="document/sentence-removal", k=K
        )
        assert _canonical(
            plain.explain(request).result.to_dict()
        ) == _canonical(sharded.explain(request).result.to_dict())

    def test_instance_caches_invalidate_on_mutation(self):
        """Doc2Vec and cosine vectors must track corpus mutations.

        A warmed engine that then mutates its corpus must produce the
        same instance explanations as a fresh engine built over the
        final corpus — not answers from a stale embedding space or from
        BM25 vectors computed under the old collection statistics.
        """
        documents = _corpus()
        extra = type(documents[0])(
            "doc-new",
            "Covid outbreak strained the hospital wards in the new district. "
            "Observers noted the evening report again.",
        )
        warmed = CredenceEngine(
            documents, EngineConfig(ranker="bm25", seed=5), shards=4
        )
        for strategy in ("instance/doc2vec", "instance/cosine"):
            warmed.explain(  # warm the model / vector caches
                ExplainRequest(
                    QUERY,
                    warmed.rank(QUERY, K).doc_ids[0],
                    strategy=strategy,
                    k=K,
                )
            )
        warmed.add_documents([extra])
        warmed.remove_document(documents[5].doc_id)

        final_corpus = [d for d in documents if d.doc_id != documents[5].doc_id]
        final_corpus.append(extra)
        fresh = CredenceEngine(
            final_corpus, EngineConfig(ranker="bm25", seed=5), shards=4
        )
        target = fresh.rank(QUERY, K).doc_ids[0]
        for strategy, knobs in (
            ("instance/doc2vec", {"n": 2}),
            ("instance/cosine", {"n": 2, "samples": 30}),
        ):
            request = ExplainRequest(QUERY, target, strategy=strategy, k=K, **knobs)
            warmed_payload = warmed.explain(request).result.to_dict()
            fresh_payload = fresh.explain(request).result.to_dict()
            assert _canonical(warmed_payload) == _canonical(fresh_payload), strategy
