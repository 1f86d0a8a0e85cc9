"""Engine-checked explanation fidelity.

Every explainer *reports* that its counterfactual flips the ranking; the
eval harness must not take that report on faith. This module re-applies
each explanation's edit **through the engine** — naive re-ranking, no
scoring sessions, no search kernel — and checks that the flip actually
happens:

* sentence-removal / scripted-edit explanations: substitute the
  perturbed body into the explainer's candidate pool and re-rank — the
  document must fall beyond ``k``;
* query augmentations: re-rank the original top-``k`` under the
  augmented query — the document must reach the requested threshold;
* instance explanations: the counterfactual document must be a real,
  distinct corpus document that the engine ranks as non-relevant;
* feature counterfactuals: re-extract the LETOR vector, apply the
  changes, re-score against the pool — the document must fall beyond
  ``k``.

Because the recheck path shares no code with the incremental sessions or
the search strategies that produced the explanation, a fidelity failure
localises a real cross-layer bug (session drift, stale pool, kernel
bookkeeping) rather than a reporting artefact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import (
    EditSearchExplanation,
    InstanceExplanation,
    QueryAugmentationExplanation,
    SentenceRemovalExplanation,
)
from repro.core.validity import is_non_relevant, meets_threshold
from repro.errors import ConfigurationError
from repro.ranking.base import Ranking
from repro.ranking.rerank import candidate_pool


@dataclass(frozen=True)
class FidelityCheck:
    """Outcome of re-applying one explanation through the engine."""

    kind: str
    valid: bool
    detail: str

    def __bool__(self) -> bool:
        return self.valid


def _naive_pool_ranking(ranker, query: str, documents) -> Ranking:
    """Re-rank ``documents`` for ``query`` by scoring each one afresh.

    Deliberately bypasses scoring sessions: the whole pool goes through
    ``rank_candidates`` (plain per-document scoring; priors-aware for
    feature-based rankers), the way a third-party caller would, so the
    recheck cannot inherit a session-layer bug.
    """
    return ranker.rank_candidates(query, list(documents))


def _recheck_body_substitution(engine, explanation, perturbed_body: str) -> FidelityCheck:
    ranker = engine.ranker.base  # re-score through the model, not the cache
    pool = candidate_pool(ranker, explanation.query, explanation.k)
    substituted = [
        document.with_body(perturbed_body)
        if document.doc_id == explanation.doc_id
        else document
        for document in pool
    ]
    reranked = _naive_pool_ranking(ranker, explanation.query, substituted)
    new_rank = reranked.rank_of(explanation.doc_id)
    valid = new_rank is not None and is_non_relevant(new_rank, explanation.k)
    return FidelityCheck(
        kind="document",
        valid=valid,
        detail=f"re-ranked to {new_rank} with k={explanation.k}",
    )


def _recheck_query_augmentation(engine, explanation, k: int) -> FidelityCheck:
    # Mirror the explainer's §II-D semantics: the *original* top-k pool
    # re-ranked under the augmented query, naively re-scored. The pool
    # size is request state the explanation record does not carry, so
    # callers pass the ``k`` the study ran with.
    baseline = engine.rank(explanation.original_query, k=k)
    pool = [engine.index.document(doc_id) for doc_id in baseline.doc_ids]
    reranked = _naive_pool_ranking(
        engine.ranker.base, explanation.augmented_query, pool
    )
    new_rank = reranked.rank_of(explanation.doc_id)
    valid = new_rank is not None and meets_threshold(
        new_rank, explanation.threshold
    )
    return FidelityCheck(
        kind="query",
        valid=valid,
        detail=(
            f"augmented rank {new_rank} vs threshold {explanation.threshold}"
        ),
    )


def _recheck_instance(engine, explanation) -> FidelityCheck:
    counterfactual = explanation.counterfactual_doc_id
    if counterfactual == explanation.doc_id:
        return FidelityCheck("instance", False, "counterfactual is the instance")
    if counterfactual not in engine.index:
        return FidelityCheck(
            "instance", False, f"{counterfactual!r} is not a corpus document"
        )
    ranking = engine.rank(explanation.query, k=explanation.k)
    rank = ranking.rank_of(counterfactual)
    valid = rank is None or is_non_relevant(rank, explanation.k)
    return FidelityCheck(
        kind="instance",
        valid=valid,
        detail=f"counterfactual ranks {rank} with k={explanation.k}",
    )


def _recheck_feature_changes(engine, explanation) -> FidelityCheck:
    from repro.core.registry import ltr_ranker_of

    ranker = ltr_ranker_of(engine)
    if ranker is None:
        return FidelityCheck(
            "features", False, "engine ranker is not feature-based"
        )
    pool = candidate_pool(ranker, explanation.query, explanation.k)
    vector = ranker.features.extract(
        explanation.query, engine.index.document(explanation.doc_id)
    )
    changed = vector.replace(
        {change.feature: change.new for change in explanation.changes}
    )
    scored = [
        (
            document.doc_id,
            ranker.score_vector(changed)
            if document.doc_id == explanation.doc_id
            else ranker.score_document(explanation.query, document),
        )
        for document in pool
    ]
    new_rank = Ranking.from_scores(scored).rank_of(explanation.doc_id)
    valid = new_rank is not None and is_non_relevant(new_rank, explanation.k)
    return FidelityCheck(
        kind="features",
        valid=valid,
        detail=f"re-scored to rank {new_rank} with k={explanation.k}",
    )


def recheck_explanation(engine, explanation, k: int = 10) -> FidelityCheck:
    """Re-apply ``explanation``'s counterfactual edit through ``engine``.

    Dispatches on the explanation record type; raises
    :class:`~repro.errors.ConfigurationError` for types that carry no
    re-applicable edit. Returns a :class:`FidelityCheck` that is truthy
    iff the engine confirms the reported flip. ``k`` is only consulted
    for query augmentations (whose record carries the threshold but not
    the pool size); every other record carries its own ``k``.
    """
    if isinstance(explanation, SentenceRemovalExplanation):
        return _recheck_body_substitution(
            engine, explanation, explanation.perturbed_body
        )
    if isinstance(explanation, EditSearchExplanation):
        return _recheck_body_substitution(
            engine, explanation, explanation.perturbed_body
        )
    if isinstance(explanation, QueryAugmentationExplanation):
        return _recheck_query_augmentation(engine, explanation, k)
    if isinstance(explanation, InstanceExplanation):
        return _recheck_instance(engine, explanation)
    # FeatureCounterfactual lives in repro.ltr; avoid a hard import cycle.
    if type(explanation).__name__ == "FeatureCounterfactual":
        return _recheck_feature_changes(engine, explanation)
    raise ConfigurationError(
        f"cannot recheck fidelity of {type(explanation).__name__}"
    )


def fidelity_rate(engine, explanations, k: int = 10) -> float:
    """Fraction of ``explanations`` whose flip the engine confirms."""
    items = list(explanations)
    if not items:
        return 0.0
    confirmed = sum(
        1
        for explanation in items
        if recheck_explanation(engine, explanation, k=k).valid
    )
    return confirmed / len(items)
