"""Save→load equivalence: persistence must be invisible to results.

The acceptance contract of the persistence subsystem: ranks, scores,
and every explainer's full ``to_dict()`` payload are **byte-identical**
between a live engine and an engine reloaded from disk — across every
on-disk format (v1/v2 JSON, v3 packed attach, v3 hydrated), both corpus
layouts (plain and sharded), the BM25 / TF-IDF / LM ranker families,
and the LTR feature ranker.
"""

import json

import pytest

from repro.core.engine import CredenceEngine, EngineConfig
from repro.core.explain import ExplainRequest
from repro.index.storage import load_index, save_index
from repro.ltr.dataset import assign_priors, synthetic_letor_dataset
from repro.ltr.feature_cf import FeatureCounterfactualExplainer
from repro.ltr.models import LinearLtrModel
from repro.ltr.ranker import LtrRanker
from repro.ranking.rerank import candidate_pool
from tests.core.test_search_equivalence import _corpus
from tests.index.test_sharded_equivalence import (
    K,
    QUERY,
    STRATEGIES,
    STRATEGY_IDS,
    _canonical,
)

LEXICAL_RANKERS = ("bm25", "tfidf", "lm")

#: (shards, save format, load mode) — every persistence path a corpus
#: can round-trip through. ``format=None`` is the legacy default
#: (v1 for plain, v2 for sharded).
ROUND_TRIPS = (
    (None, None, "auto"),
    (4, None, "auto"),
    (None, "v3", "auto"),
    (4, "v3", "auto"),
    (None, "v3", "memory"),
    (4, "v3", "memory"),
)

ROUND_TRIP_IDS = (
    "plain-v1",
    "sharded-v2",
    "plain-v3-attach",
    "sharded-v3-attach",
    "plain-v3-hydrate",
    "sharded-v3-hydrate",
)


def _live_engine(ranker: str, shards: int | None) -> CredenceEngine:
    return CredenceEngine(
        _corpus(),
        EngineConfig(ranker=ranker, seed=5),
        shards=shards,
        ingest_workers=2 if shards else None,
    )


def _reloaded_engine(live: CredenceEngine, tmp_path, format, mode, ranker):
    path = tmp_path / "corpus.idx"
    save_index(live.index, path, format=format)
    return CredenceEngine.load(
        path, config=EngineConfig(ranker=ranker, seed=5), mode=mode
    )


@pytest.fixture(params=ROUND_TRIPS, ids=ROUND_TRIP_IDS)
def engine_pair(request, tmp_path_factory):
    shards, format, mode = request.param
    tmp_path = tmp_path_factory.mktemp("persist-eq")
    live = _live_engine("bm25", shards)
    return live, _reloaded_engine(live, tmp_path, format, mode, "bm25")


class TestRankingEquivalence:
    @pytest.mark.parametrize("ranker", LEXICAL_RANKERS)
    @pytest.mark.parametrize(
        "shards,format,mode", ROUND_TRIPS, ids=ROUND_TRIP_IDS
    )
    def test_topk_byte_identical(
        self, tmp_path, ranker, shards, format, mode
    ):
        live = _live_engine(ranker, shards)
        reloaded = _reloaded_engine(live, tmp_path, format, mode, ranker)
        assert (
            reloaded.rank(QUERY, K).to_dicts()
            == live.rank(QUERY, K).to_dicts()
        )

    def test_full_corpus_scores_identical(self, engine_pair):
        live, reloaded = engine_pair
        k = len(_corpus())
        reference = live.rank(QUERY, k).to_dicts()
        assert reloaded.rank(QUERY, k).to_dicts() == reference


class TestExplainerEquivalence:
    @pytest.mark.parametrize(
        "strategy,knobs", STRATEGIES, ids=STRATEGY_IDS
    )
    def test_strategy_byte_identical(self, engine_pair, strategy, knobs):
        live, reloaded = engine_pair
        target = live.rank(QUERY, K).doc_ids[0]
        request = ExplainRequest(QUERY, target, strategy=strategy, k=K, **knobs)
        reference = _canonical(live.explain(request).result.to_dict())
        assert (
            _canonical(reloaded.explain(request).result.to_dict())
            == reference
        )


class TestLtrEquivalence:
    """The sixth strategy (features/ltr) over live vs. reloaded corpora."""

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

    @pytest.mark.parametrize(
        "shards,format,mode", ROUND_TRIPS, ids=ROUND_TRIP_IDS
    )
    def test_feature_cf_byte_identical(
        self, ltr_setup, tmp_path, shards, format, mode
    ):
        corpus, model = ltr_setup
        live = _live_engine("bm25", shards)
        # LTR priors ride in document metadata, so rebuild the live index
        # over the prior-annotated corpus before persisting it.
        from repro.index.inverted import InvertedIndex
        from repro.index.sharding import ShardedIndex

        if shards:
            index = ShardedIndex.from_documents(corpus, shards, workers=2)
        else:
            index = InvertedIndex.from_documents(corpus)
        path = tmp_path / "ltr.idx"
        save_index(index, path, format=format)
        reloaded = load_index(path, mode=mode)
        assert self._explain(reloaded, model) == self._explain(index, model)


class TestResultStoreKeys:
    """``index.version`` survives save→load, so ResultStore keys do."""

    @pytest.mark.parametrize("shards", [None, 4], ids=["plain", "sharded"])
    def test_version_stable_across_processes(self, tmp_path, shards):
        live = _live_engine("bm25", shards)
        path = tmp_path / "corpus.idx"
        save_index(live.index, path, format="v3")
        first = load_index(path)
        second = load_index(path)
        try:
            # Two independent attaches (≈ two replica processes) agree.
            assert first.version == second.version
        finally:
            first.close()
            second.close()

    def test_cached_explanations_replayable_after_restart(self, tmp_path):
        live = _live_engine("bm25", None)
        path = tmp_path / "corpus.idx"
        save_index(live.index, path, format="v3")
        restarted = CredenceEngine.load(
            path, config=EngineConfig(ranker="bm25", seed=5)
        )
        request = ExplainRequest(
            QUERY,
            live.rank(QUERY, K).doc_ids[0],
            strategy="document/sentence-removal",
            k=K,
        )
        live.service().explain(request)
        before = live.service().metrics_snapshot()
        assert before["store"]["entries"] == 1
        # Same request on the restarted engine: the store key embeds
        # index.version, which the v3 fingerprint keeps stable, so the
        # second call is answered from the restarted engine's store.
        restarted.service().explain(request)
        restarted.service().explain(request)
        after = restarted.service().metrics_snapshot()
        assert after["store"]["hits"] == 1
        assert after["store"]["entries"] == 1
