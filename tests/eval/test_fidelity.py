"""Cross-layer invariant: every explanation's flip is engine-checked.

For any explanation produced by any strategy, re-applying its
counterfactual edit through the engine (naive re-ranking — no sessions,
no search kernel) must actually flip the ranking. Parametrized over all
five explainer strategies (plus greedy sentence removal); a failure here localises session drift or
kernel bookkeeping bugs that per-layer suites cannot see.
"""

import pytest

from repro.core.engine import CredenceEngine
from repro.core.explain import ExplainRequest
from repro.core.types import SentenceRemovalExplanation
from repro.errors import ConfigurationError
from repro.eval.fidelity import FidelityCheck, fidelity_rate, recheck_explanation
from repro.eval.harness import rankable_instances
from repro.index.inverted import InvertedIndex

K = 5
QUERIES = ["covid outbreak", "vaccine trial", "flu season"]

#: (strategy, search) pairs runnable on the shared bm25 engine;
#: features/ltr needs the LTR engine and is exercised separately below.
GENERAL_STRATEGIES = (
    ("document/sentence-removal", None),
    ("document/sentence-removal", "greedy"),
    ("query/augmentation", None),
    ("instance/doc2vec", None),
    ("instance/cosine", None),
)
GENERAL_IDS = [
    name if search is None else f"{name}+{search}"
    for name, search in GENERAL_STRATEGIES
]


@pytest.fixture(scope="module")
def ltr_engine(covid_documents):
    from repro.ltr import (
        LinearLtrModel,
        LtrRanker,
        assign_priors,
        synthetic_letor_dataset,
    )

    docs = assign_priors(covid_documents, seed=5)
    index = InvertedIndex.from_documents(docs)
    examples = synthetic_letor_dataset(docs, QUERIES, seed=5)
    return CredenceEngine.from_index(
        index, ranker=LtrRanker(index, LinearLtrModel.fit(examples))
    )


def _explanations(engine, strategy, search=None):
    instances = rankable_instances(engine, QUERIES, k=K, per_query=2)
    produced = []
    for instance in instances:
        result = engine.explain(
            ExplainRequest(
                instance.query,
                instance.doc_id,
                strategy=strategy,
                k=K,
                threshold=3,
                samples=25,
                search=search,
            )
        ).result
        produced.extend(result.explanations)
    return produced


class TestEngineCheckedFidelity:
    @pytest.mark.parametrize(
        "strategy,search", GENERAL_STRATEGIES, ids=GENERAL_IDS
    )
    def test_reported_flips_are_engine_confirmed(
        self, bm25_engine, strategy, search
    ):
        produced = _explanations(bm25_engine, strategy, search)
        assert produced, f"{strategy} produced no explanations to check"
        for explanation in produced:
            check = recheck_explanation(bm25_engine, explanation, k=K)
            assert check.valid, f"{strategy}: {check.detail}"

    @pytest.mark.parametrize(
        "strategy,search",
        (*GENERAL_STRATEGIES, ("features/ltr", None)),
        ids=[*GENERAL_IDS, "features/ltr"],
    )
    def test_all_six_strategies_on_ltr_engine(
        self, ltr_engine, strategy, search
    ):
        produced = _explanations(ltr_engine, strategy, search)
        assert produced, f"{strategy} produced no explanations to check"
        for explanation in produced:
            check = recheck_explanation(ltr_engine, explanation, k=K)
            assert check.valid, f"{strategy}: {check.detail}"

    def test_fidelity_rate_is_one_for_real_explanations(self, bm25_engine):
        produced = _explanations(bm25_engine, "document/sentence-removal")
        assert fidelity_rate(bm25_engine, produced, k=K) == 1.0


class TestRecheckRejectsForgeries:
    def test_unperturbed_body_fails_recheck(self, bm25_engine):
        # A "counterfactual" that edits nothing cannot flip the ranking:
        # the recheck must not take the record's word for it.
        (real,) = _explanations(bm25_engine, "document/sentence-removal")[:1]
        original = bm25_engine.document(real.doc_id).body
        forged = SentenceRemovalExplanation(
            doc_id=real.doc_id,
            query=real.query,
            k=real.k,
            removed_sentences=real.removed_sentences,
            importance=real.importance,
            original_rank=real.original_rank,
            new_rank=real.new_rank,
            perturbed_body=original,
        )
        check = recheck_explanation(bm25_engine, forged, k=K)
        assert not check.valid
        assert not bool(check)

    def test_unknown_record_type_raises(self, bm25_engine):
        with pytest.raises(ConfigurationError):
            recheck_explanation(bm25_engine, object(), k=K)

    def test_empty_fidelity_rate_is_zero(self, bm25_engine):
        assert fidelity_rate(bm25_engine, [], k=K) == 0.0

    def test_check_is_truthy_dataclass(self):
        assert bool(FidelityCheck("document", True, "ok"))
        assert not bool(FidelityCheck("document", False, "nope"))
