"""CREDENCE's contribution: counterfactual explanations for rankers.

Four explanation families over a black-box ranker ``M``, unified behind
one request/response surface:

* ``document/sentence-removal`` — minimal sentence removals that push a
  document out of the top-k (§II-C, Fig. 2); ``search="greedy"`` trades
  minimality for linear cost on long documents.
* ``query/augmentation`` — minimal query augmentations that raise a
  document above a rank threshold (§II-D, Fig. 3).
* ``instance/doc2vec`` / ``instance/cosine`` — real non-relevant
  documents similar to the instance (§II-E, Fig. 4).
* ``features/ltr`` — minimal mutable-feature changes for feature-based
  rankers (the paper's future-work extension).
* :class:`CounterfactualBuilder` — interactive build-your-own
  perturbations with substitution re-ranking (§III-C, Fig. 5).

The unified API::

    from repro.core import CredenceEngine, ExplainRequest

    response = engine.explain(
        ExplainRequest("covid outbreak", "covid-fake-5g",
                       strategy="query/augmentation", n=3, threshold=2)
    )
    responses = engine.explain_batch([...])      # shared caches, per-item timing
    engine.available_strategies()                # introspection

Strategies live in :data:`~repro.core.registry.DEFAULT_REGISTRY`; new
ones plug in with ``@DEFAULT_REGISTRY.register("family/name")``.
:class:`CredenceEngine` wires a corpus, ranker, and the registry into
the one object the API layer and examples use.
"""

from repro.core.builder import BuilderResult, CounterfactualBuilder
from repro.core.document_cf import CounterfactualDocumentExplainer
from repro.core.engine import CredenceEngine, EngineConfig
from repro.core.explain import (
    DEFAULT_STRATEGY,
    Explainer,
    ExplainRequest,
    ExplainResponse,
)
from repro.core.importance import (
    TfIdfTermImportance,
    sentence_importance_scores,
)
from repro.core.instance_cf import (
    CosineSampledExplainer,
    Doc2VecNearestExplainer,
)
from repro.core.perturbations import (
    AppendText,
    CompositePerturbation,
    Perturbation,
    RemoveSentences,
    RemoveTerm,
    ReplaceTerm,
)
from repro.core.query_cf import CounterfactualQueryExplainer
from repro.core.registry import (
    DEFAULT_REGISTRY,
    ExplainerRegistry,
    StrategySpec,
    available_strategies,
)
from repro.core.types import (
    ExplanationSet,
    InstanceExplanation,
    QueryAugmentationExplanation,
    SentenceRemovalExplanation,
)
from repro.core.validity import is_non_relevant, meets_threshold

__all__ = [
    "BuilderResult",
    "CounterfactualBuilder",
    "CredenceEngine",
    "EngineConfig",
    "DEFAULT_REGISTRY",
    "DEFAULT_STRATEGY",
    "Explainer",
    "ExplainRequest",
    "ExplainResponse",
    "ExplainerRegistry",
    "StrategySpec",
    "available_strategies",
    "TfIdfTermImportance",
    "sentence_importance_scores",
    "CosineSampledExplainer",
    "Doc2VecNearestExplainer",
    "AppendText",
    "CompositePerturbation",
    "Perturbation",
    "RemoveSentences",
    "RemoveTerm",
    "ReplaceTerm",
    "CounterfactualQueryExplainer",
    "CounterfactualDocumentExplainer",
    "ExplanationSet",
    "InstanceExplanation",
    "QueryAugmentationExplanation",
    "SentenceRemovalExplanation",
    "is_non_relevant",
    "meets_threshold",
]
