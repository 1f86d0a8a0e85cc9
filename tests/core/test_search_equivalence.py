"""The search kernel must be indistinguishable from the pre-refactor loops.

Each reference function below reproduces one pre-kernel explainer loop
*verbatim* (the code that lived in ``document_cf.explain``,
``greedy.explain``, ``query_cf.explain``, ``instance_cf.explain``, and
``feature_cf.explain`` before the refactor). The kernel-backed
explainers must return byte-identical ``to_dict()`` payloads — same
explanations, same enumeration-order-dependent tie-breaks, same
``candidates_evaluated`` / ``ranker_calls`` / ``physical_scorings`` /
``budget_exhausted`` / ``search_exhausted`` accounting — across every
built-in ranker family.

(The kernel results additionally carry ``search_strategy``, which the
references predate; it is the one field excluded from comparison.)
"""

from __future__ import annotations

import pytest

from repro.core.document_cf import CounterfactualDocumentExplainer
from repro.core.importance import sentence_importance_scores
from repro.core.instance_cf import CosineSampledExplainer, Doc2VecNearestExplainer
from repro.core.query_cf import CounterfactualQueryExplainer
from repro.core.types import (
    ExplanationSet,
    InstanceExplanation,
    QueryAugmentationExplanation,
    SentenceRemovalExplanation,
)
from repro.core.validity import is_non_relevant, meets_threshold
from repro.embeddings.doc2vec import train_doc2vec
from repro.embeddings.similarity import cosine_similarity
from repro.embeddings.vectorizers import Bm25Vectorizer
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.ltr.dataset import assign_priors, synthetic_letor_dataset
from repro.ltr.feature_cf import FeatureCounterfactual, FeatureCounterfactualExplainer
from repro.ltr.models import LinearLtrModel
from repro.ltr.ranker import LtrRanker
from repro.ranking.bm25 import Bm25Ranker
from repro.ranking.cache import ScoreCache
from repro.ranking.lm import DirichletLmRanker
from repro.ranking.rerank import candidate_pool
from repro.ranking.session import IncrementalScoringSession
from repro.ranking.tfidf import TfIdfRanker
from repro.utils.iteration import ordered_subsets
from repro.utils.rng import default_rng

QUERY = "covid outbreak hospital"
K = 5

_TOPICS = [
    "covid outbreak strained the hospital wards",
    "the city council debated transit funding",
    "researchers tracked the covid variant spread",
    "the festival drew record crowds downtown",
    "hospital staff reported outbreak fatigue",
    "markets rallied after the earnings report",
]

_FILLER = [
    "Volunteers repainted the riverside benches.",
    "A bakery introduced a rye sourdough loaf.",
    "The library catalogued donated manuscripts.",
    "Engineers surveyed the old tram bridge.",
    "Gardeners planted drought-resistant shrubs.",
]


def _corpus() -> list[Document]:
    documents = []
    for i in range(24):
        lead = _TOPICS[i % len(_TOPICS)]
        body = ". ".join(
            [
                f"{lead.capitalize()} in district {i}",
                _FILLER[i % len(_FILLER)].rstrip("."),
                f"{_TOPICS[(i + 2) % len(_TOPICS)].capitalize()} again",
                _FILLER[(i + 3) % len(_FILLER)].rstrip("."),
                f"Observers noted item {i} in the evening report",
            ]
        ) + "."
        documents.append(Document(f"doc-{i:02d}", body))
    return documents


@pytest.fixture(scope="module")
def index():
    return InvertedIndex.from_documents(_corpus())


@pytest.fixture(scope="module")
def rankers(index):
    ltr_corpus = assign_priors(_corpus(), seed=7)
    ltr_index = InvertedIndex.from_documents(ltr_corpus)
    examples = synthetic_letor_dataset(
        ltr_corpus, [QUERY, "markets earnings report"], seed=11
    )
    return {
        "bm25": Bm25Ranker(index),
        "tfidf": TfIdfRanker(index),
        "lm": DirichletLmRanker(index),
        "ltr": LtrRanker(ltr_index, LinearLtrModel.fit(examples)),
        "cached": ScoreCache(Bm25Ranker(index)),
    }


RANKER_NAMES = ("bm25", "tfidf", "lm", "ltr", "cached")


def _fingerprint(result: ExplanationSet) -> dict:
    payload = result.to_dict()
    payload.pop("search_strategy")  # the kernel's one new field
    return payload


# -- pre-refactor reference implementations ---------------------------------


def reference_document_cf(
    ranker, query, doc_id, n, k, max_removals=None, max_evaluations=2000
) -> ExplanationSet:
    """The pre-kernel ``CounterfactualDocumentExplainer.explain`` loop."""
    candidates = candidate_pool(ranker, query, k)
    session = ranker.scoring_session(query, candidates)
    original_rank = session.baseline().rank_of(doc_id)
    sentences = session.sentences(doc_id)
    if len(sentences) <= 1:
        return ExplanationSet(
            search_exhausted=True, physical_scorings=session.physical_scorings
        )
    analyzer = ranker.index.analyzer
    importance = sentence_importance_scores(analyzer, query, sentences)
    max_size = min(
        max_removals if max_removals is not None else len(sentences) - 1,
        len(sentences) - 1,
    )
    result: ExplanationSet[SentenceRemovalExplanation] = ExplanationSet()
    try:
        for subset, subset_score in ordered_subsets(
            sentences, importance, max_size=max_size
        ):
            if result.candidates_evaluated >= max_evaluations:
                result.budget_exhausted = True
                return result
            removed_indices = {sentence.index for sentence in subset}
            new_rank = session.rank_without_sentences(doc_id, removed_indices)
            result.candidates_evaluated += 1
            result.ranker_calls += len(candidates)
            if new_rank is not None and is_non_relevant(new_rank, k):
                result.explanations.append(
                    SentenceRemovalExplanation(
                        doc_id=doc_id,
                        query=query,
                        k=k,
                        removed_sentences=tuple(
                            sorted(subset, key=lambda s: s.index)
                        ),
                        importance=subset_score,
                        original_rank=original_rank,
                        new_rank=new_rank,
                        perturbed_body=session.body_without_sentences(
                            doc_id, removed_indices
                        ),
                    )
                )
                if len(result.explanations) >= n:
                    return result
        result.search_exhausted = True
        return result
    finally:
        result.physical_scorings = session.physical_scorings


def reference_greedy(ranker, query, doc_id, k) -> ExplanationSet:
    """The pre-kernel greedy sentence-removal grow/prune loop."""
    pool = candidate_pool(ranker, query, k)
    session = ranker.scoring_session(query, pool)
    original_rank = session.baseline().rank_of(doc_id)
    sentences = session.sentences(doc_id)
    result: ExplanationSet[SentenceRemovalExplanation] = ExplanationSet()
    if len(sentences) <= 1:
        result.search_exhausted = True
        result.physical_scorings = session.physical_scorings
        return result
    importance = sentence_importance_scores(
        ranker.index.analyzer, query, sentences
    )
    order = sorted(range(len(sentences)), key=lambda i: (-importance[i], i))

    def rank_without(removed):
        if len(removed) >= len(sentences):
            return None
        result.candidates_evaluated += 1
        result.ranker_calls += len(pool)
        return session.rank_without_sentences(doc_id, removed)

    removed: set[int] = set()
    final_rank = None
    for position in order:
        if len(removed) >= len(sentences) - 1:
            break
        removed.add(position)
        rank = rank_without(removed)
        if rank is not None and is_non_relevant(rank, k):
            final_rank = rank
            break
    if final_rank is None:
        result.search_exhausted = True
        result.physical_scorings = session.physical_scorings
        return result

    for position in sorted(removed, key=lambda i: importance[i]):
        if len(removed) == 1:
            break
        candidate = removed - {position}
        rank = rank_without(candidate)
        if rank is not None and is_non_relevant(rank, k):
            removed = candidate
            final_rank = rank

    removed_sentences = tuple(
        sentence for sentence in sentences if sentence.index in removed
    )
    result.explanations.append(
        SentenceRemovalExplanation(
            doc_id=doc_id,
            query=query,
            k=k,
            removed_sentences=removed_sentences,
            importance=sum(importance[s.index] for s in removed_sentences),
            original_rank=original_rank,
            new_rank=final_rank,
            perturbed_body=session.body_without_sentences(doc_id, removed),
        )
    )
    result.physical_scorings = session.physical_scorings
    return result


def reference_query_cf(
    explainer: CounterfactualQueryExplainer, query, doc_id, n, k, threshold
) -> ExplanationSet:
    """The pre-kernel ``CounterfactualQueryExplainer.explain`` loop.

    Reuses the live explainer's ``candidate_terms``/retrieval helpers —
    both unchanged by the refactor — so only the search loop differs.
    """
    ranker = explainer.ranker
    ranking, ranked_documents = explainer._original_top_k(query, k)
    original_rank = ranking.rank_of(doc_id)
    instance = ranker.index.document(doc_id)
    candidates = explainer.candidate_terms(query, instance, ranked_documents)
    result: ExplanationSet[QueryAugmentationExplanation] = ExplanationSet()
    if not candidates:
        result.search_exhausted = True
        return result
    terms = [term for term, _ in candidates]
    scores = [score for _, score in candidates]
    for subset, subset_score in ordered_subsets(
        terms, scores, max_size=min(explainer.max_terms, len(terms))
    ):
        if result.candidates_evaluated >= explainer.max_evaluations:
            result.budget_exhausted = True
            return result
        augmented_query = " ".join([query, *subset])
        session = ranker.scoring_session(augmented_query, ranked_documents)
        reranked = session.baseline()
        result.candidates_evaluated += 1
        result.ranker_calls += len(ranked_documents)
        result.physical_scorings += session.physical_scorings
        new_rank = reranked.rank_of(doc_id)
        if new_rank is not None and meets_threshold(new_rank, threshold):
            result.explanations.append(
                QueryAugmentationExplanation(
                    doc_id=doc_id,
                    original_query=query,
                    added_terms=subset,
                    score=subset_score,
                    threshold=threshold,
                    original_rank=original_rank,
                    new_rank=new_rank,
                )
            )
            if len(result.explanations) >= n:
                return result
    result.search_exhausted = True
    return result


def reference_doc2vec(ranker, model, query, doc_id, n, k) -> ExplanationSet:
    """The pre-kernel ``Doc2VecNearestExplainer.explain``."""
    ranking = ranker.rank(query, min(k, len(ranker.index)))
    relevant = set(ranking.doc_ids)
    non_relevant = [d for d in ranker.index.doc_ids if d not in relevant]
    eligible = {cand for cand in non_relevant if cand in model}
    excluded = set(model.doc_ids) - eligible
    neighbours = model.most_similar(doc_id, n=n, exclude=excluded)
    result: ExplanationSet[InstanceExplanation] = ExplanationSet()
    result.explanations = [
        InstanceExplanation(
            doc_id=doc_id,
            counterfactual_doc_id=neighbour_id,
            similarity=similarity,
            method="doc2vec_nearest",
            query=query,
            k=k,
        )
        for neighbour_id, similarity in neighbours
    ]
    result.candidates_evaluated = len(eligible)
    result.search_exhausted = len(result.explanations) < n
    return result


def reference_cosine(
    ranker, vectorizer, seed, query, doc_id, n, k, samples
) -> ExplanationSet:
    """The pre-kernel ``CosineSampledExplainer.explain``."""
    ranking = ranker.rank(query, min(k, len(ranker.index)))
    relevant = set(ranking.doc_ids)
    non_relevant = [d for d in ranker.index.doc_ids if d not in relevant]
    rng = default_rng(seed)
    if len(non_relevant) > samples:
        chosen = rng.choice(len(non_relevant), size=samples, replace=False)
        sampled = [non_relevant[int(i)] for i in sorted(chosen)]
    else:
        sampled = non_relevant
    instance_vector = vectorizer.vector(doc_id)
    scored = [
        (candidate, cosine_similarity(instance_vector, vectorizer.vector(candidate)))
        for candidate in sampled
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    result: ExplanationSet[InstanceExplanation] = ExplanationSet()
    result.explanations = [
        InstanceExplanation(
            doc_id=doc_id,
            counterfactual_doc_id=candidate,
            similarity=similarity,
            method="cosine_sampled",
            query=query,
            k=k,
        )
        for candidate, similarity in scored[:n]
    ]
    result.candidates_evaluated = len(sampled)
    result.search_exhausted = len(result.explanations) < n
    return result


def reference_feature_cf(
    explainer: FeatureCounterfactualExplainer, query, doc_id, n, k
) -> ExplanationSet:
    """The pre-kernel ``FeatureCounterfactualExplainer.explain`` loop.

    Candidate scoring goes through the live ``FeatureChangeGenerator``
    (extracted unchanged from the old ``_candidate_changes``); only the
    enumeration loop is re-stated here.
    """
    from repro.ltr.feature_cf import FeatureChangeGenerator

    ranker = explainer.ranker
    pool = candidate_pool(ranker, query, k)
    by_id = {document.doc_id: document for document in pool}
    instance = by_id[doc_id]
    baseline_vector = ranker.features.extract(query, instance)
    maybe_session = ranker.scoring_session(query, pool)
    session = (
        maybe_session
        if isinstance(maybe_session, IncrementalScoringSession)
        else None
    )
    baseline = explainer._rank_with_vector(
        query, pool, doc_id, baseline_vector, session
    )
    original_rank = baseline.rank_of(doc_id)
    candidates = [
        (candidate.edit, candidate.score)
        for candidate in FeatureChangeGenerator(
            ranker, baseline_vector, explainer.mutable_features, explainer.grid
        ).generate()
    ]
    result: ExplanationSet[FeatureCounterfactual] = ExplanationSet()
    try:
        if not candidates:
            result.search_exhausted = True
            return result
        items = [change for change, _ in candidates]
        scores = [priority for _, priority in candidates]
        max_size = min(
            explainer.max_changes or len(explainer.mutable_features),
            len(explainer.mutable_features),
        )
        for subset, _ in ordered_subsets(items, scores, max_size=max_size):
            touched = [change.feature for change in subset]
            if len(set(touched)) != len(touched):
                continue
            if result.candidates_evaluated >= explainer.max_evaluations:
                result.budget_exhausted = True
                return result
            perturbed = baseline_vector.replace(
                {change.feature: change.new for change in subset}
            )
            ranking = explainer._rank_with_vector(
                query, pool, doc_id, perturbed, session
            )
            result.candidates_evaluated += 1
            result.ranker_calls += len(pool)
            new_rank = ranking.rank_of(doc_id)
            if new_rank is not None and is_non_relevant(new_rank, k):
                result.explanations.append(
                    FeatureCounterfactual(
                        doc_id=doc_id,
                        query=query,
                        k=k,
                        changes=tuple(sorted(subset, key=lambda c: c.feature)),
                        original_rank=original_rank,
                        new_rank=new_rank,
                    )
                )
                if len(result.explanations) >= n:
                    return result
        result.search_exhausted = True
        return result
    finally:
        vector_scorings = 1 + result.candidates_evaluated
        if session is not None:
            result.physical_scorings = session.physical_scorings + vector_scorings
        else:
            result.physical_scorings = vector_scorings * len(pool)


# -- byte-identical comparisons ---------------------------------------------


@pytest.mark.parametrize("name", RANKER_NAMES)
class TestExhaustiveEquivalence:
    def test_document_cf(self, rankers, name):
        ranker = rankers[name]
        target = candidate_pool(ranker, QUERY, K)[0].doc_id
        kernel = CounterfactualDocumentExplainer(
            ranker, max_evaluations=200
        ).explain(QUERY, target, n=2, k=K)
        reference = reference_document_cf(
            ranker, QUERY, target, n=2, k=K, max_evaluations=200
        )
        assert kernel.search_strategy == "exhaustive"
        assert _fingerprint(kernel) == _fingerprint(reference)

    def test_document_cf_budget_stop(self, rankers, name):
        ranker = rankers[name]
        target = candidate_pool(ranker, QUERY, K)[0].doc_id
        kernel = CounterfactualDocumentExplainer(
            ranker, max_evaluations=3
        ).explain(QUERY, target, n=5, k=K)
        reference = reference_document_cf(
            ranker, QUERY, target, n=5, k=K, max_evaluations=3
        )
        assert kernel.budget_exhausted and reference.budget_exhausted
        assert _fingerprint(kernel) == _fingerprint(reference)

    def test_document_cf_max_removals(self, rankers, name):
        ranker = rankers[name]
        target = candidate_pool(ranker, QUERY, K)[0].doc_id
        kernel = CounterfactualDocumentExplainer(
            ranker, max_removals=1
        ).explain(QUERY, target, n=1, k=K)
        reference = reference_document_cf(
            ranker, QUERY, target, n=1, k=K, max_removals=1
        )
        assert _fingerprint(kernel) == _fingerprint(reference)

    def test_greedy(self, rankers, name):
        ranker = rankers[name]
        target = candidate_pool(ranker, QUERY, K)[0].doc_id
        kernel = CounterfactualDocumentExplainer(ranker).explain(
            QUERY, target, k=K, search="greedy"
        )
        reference = reference_greedy(ranker, QUERY, target, k=K)
        assert kernel.search_strategy == "greedy"
        assert _fingerprint(kernel) == _fingerprint(reference)

    def test_query_cf(self, rankers, name):
        ranker = rankers[name]
        target = ranker.rank(QUERY, K).doc_ids[-1]
        explainer = CounterfactualQueryExplainer(ranker, max_evaluations=300)
        kernel = explainer.explain(QUERY, target, n=1, k=K, threshold=1)
        reference = reference_query_cf(
            explainer, QUERY, target, n=1, k=K, threshold=1
        )
        assert _fingerprint(kernel) == _fingerprint(reference)

    def test_query_cf_multiple(self, rankers, name):
        ranker = rankers[name]
        target = ranker.rank(QUERY, K).doc_ids[-1]
        explainer = CounterfactualQueryExplainer(ranker, max_evaluations=300)
        kernel = explainer.explain(QUERY, target, n=3, k=K, threshold=2)
        reference = reference_query_cf(
            explainer, QUERY, target, n=3, k=K, threshold=2
        )
        assert _fingerprint(kernel) == _fingerprint(reference)


class TestInstanceEquivalence:
    @pytest.fixture(scope="class")
    def doc2vec(self, index):
        analyzed = {
            document.doc_id: index.analyzer.analyze(document.body)
            for document in index
        }
        return train_doc2vec(analyzed, dimension=16, epochs=10, seed=5)

    def test_doc2vec_nearest(self, rankers, index, doc2vec):
        ranker = rankers["bm25"]
        target = ranker.rank(QUERY, K).doc_ids[0]
        kernel = Doc2VecNearestExplainer(ranker, doc2vec).explain(
            QUERY, target, n=3, k=K
        )
        reference = reference_doc2vec(ranker, doc2vec, QUERY, target, n=3, k=K)
        assert _fingerprint(kernel) == _fingerprint(reference)

    def test_cosine_sampled(self, rankers, index):
        ranker = rankers["bm25"]
        vectorizer = Bm25Vectorizer(index)
        target = ranker.rank(QUERY, K).doc_ids[0]
        for samples in (7, 500):
            kernel = CosineSampledExplainer(
                ranker, vectorizer, seed=9
            ).explain(QUERY, target, n=3, k=K, samples=samples)
            reference = reference_cosine(
                ranker, vectorizer, 9, QUERY, target, n=3, k=K, samples=samples
            )
            assert _fingerprint(kernel) == _fingerprint(reference)


class TestFeatureEquivalence:
    def test_feature_cf(self, rankers):
        ranker = rankers["ltr"]
        explainer = FeatureCounterfactualExplainer(ranker)
        target = candidate_pool(ranker, QUERY, K)[0].doc_id
        kernel = explainer.explain(QUERY, target, n=2, k=K)
        reference = reference_feature_cf(explainer, QUERY, target, n=2, k=K)
        assert _fingerprint(kernel) == _fingerprint(reference)

    def test_feature_cf_budget_stop(self, rankers):
        ranker = rankers["ltr"]
        explainer = FeatureCounterfactualExplainer(ranker, max_evaluations=2)
        target = candidate_pool(ranker, QUERY, K)[0].doc_id
        kernel = explainer.explain(QUERY, target, n=5, k=K)
        reference = reference_feature_cf(explainer, QUERY, target, n=5, k=K)
        assert _fingerprint(kernel) == _fingerprint(reference)
