"""The unified explanation API: one request/response model for every
explanation family.

The paper frames all of CREDENCE — sentence-removal document
counterfactuals, query augmentations, similar-instance counterfactuals,
and build-your-own perturbations — as *one service* over a black-box
ranker (Fig. 1). This module gives the reproduction the matching
surface:

* :class:`ExplainRequest` — a single validated request shape carrying
  the query, the instance document, the *strategy name* (e.g.
  ``"document/sentence-removal"``), and the per-family knobs
  (``n``/``k``/``threshold``/``samples`` plus an open ``extra``
  mapping for strategy-specific parameters).
* :data:`Explainer` — what every strategy is: a callable
  ``request -> ExplanationSet``.
* :class:`ExplainResponse` — a strategy-tagged envelope around the
  :class:`~repro.core.types.ExplanationSet`, with wall-clock timing so
  batch callers can measure amortised throughput, and an optional
  ``error`` slot so batch execution can report per-item failures
  without aborting the batch.

Strategy names are resolved through
:class:`repro.core.registry.ExplainerRegistry`;
:meth:`repro.core.engine.CredenceEngine.explain` ties the two together.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Mapping

from repro.core.search import DEFAULT_BEAM_WIDTH
from repro.core.types import ExplanationSet
from repro.errors import ConfigurationError
from repro.utils.validation import require, require_positive

#: The strategy used when a request does not name one (the demo's
#: default tab: sentence-removal document counterfactuals, Fig. 2).
DEFAULT_STRATEGY = "document/sentence-removal"


@dataclass(frozen=True)
class ExplainRequest:
    """One explanation request, strategy-agnostic.

    Attributes:
        query: the search query whose ranking is being explained.
        doc_id: the instance document (must rank in the top-``k``).
        strategy: registered strategy name; see
            :func:`repro.core.registry.available_strategies`.
        n: how many explanations to return.
        k: the relevance cutoff (top-``k`` is "relevant").
        threshold: target rank for query-augmentation strategies.
        samples: sample count for sampled instance strategies.
        search: counterfactual search strategy (``"exhaustive"``,
            ``"greedy"``, ``"beam"``, ``"anytime"``); ``None`` keeps
            the explanation family's default. See
            :data:`repro.core.search.SEARCH_STRATEGIES`.
        beam_width: frontier width when ``search="beam"``.
        budget: cap on candidate evaluations (``None`` keeps the
            family's default budget).
        deadline_ms: wall-clock bound on the search in milliseconds.
        extra: open mapping of strategy-specific parameters (reserved
            for plug-in strategies; the built-ins ignore it).
    """

    query: str
    doc_id: str
    strategy: str = DEFAULT_STRATEGY
    n: int = 1
    k: int = 10
    threshold: int = 1
    samples: int = 50
    search: str | None = None
    beam_width: int = DEFAULT_BEAM_WIDTH
    budget: int | None = None
    deadline_ms: float | None = None
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        require(
            isinstance(self.query, str) and bool(self.query.strip()),
            "query must be a non-empty string",
        )
        require(
            isinstance(self.doc_id, str) and bool(self.doc_id.strip()),
            "doc_id must be a non-empty string",
        )
        require(
            isinstance(self.strategy, str) and bool(self.strategy.strip()),
            "strategy must be a non-empty string",
        )
        require_positive(self.n, "n")
        require_positive(self.k, "k")
        require_positive(self.threshold, "threshold")
        require_positive(self.samples, "samples")
        if self.search is not None:
            from repro.core.search import SEARCH_STRATEGIES

            require(
                self.search in SEARCH_STRATEGIES,
                f"search must be one of {SEARCH_STRATEGIES}, got {self.search!r}",
            )
        require_positive(self.beam_width, "beam_width")
        if self.budget is not None:
            require_positive(self.budget, "budget")
        if self.deadline_ms is not None:
            require_positive(self.deadline_ms, "deadline_ms")
        if not isinstance(self.extra, Mapping):
            raise ConfigurationError("extra must be a mapping")

    def with_strategy(self, strategy: str) -> "ExplainRequest":
        """The same request retargeted at another strategy."""
        return replace(self, strategy=strategy)

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "doc_id": self.doc_id,
            "strategy": self.strategy,
            "n": self.n,
            "k": self.k,
            "threshold": self.threshold,
            "samples": self.samples,
            "search": self.search,
            "beam_width": self.beam_width,
            "budget": self.budget,
            "deadline_ms": self.deadline_ms,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExplainRequest":
        """Build a request from a plain mapping (CLI batch files, tests).

        Unknown keys raise :class:`~repro.errors.ConfigurationError` so
        typos do not silently fall back to defaults.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError("request must be a mapping")
        known = {
            "query", "doc_id", "strategy", "n", "k",
            "threshold", "samples", "extra",
            "search", "beam_width", "budget", "deadline_ms",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown request field(s): {', '.join(sorted(unknown))}"
            )
        return cls(**dict(data))


#: What every explanation strategy is: a callable answering one request.
#: The registry builds one lazily per engine (see
#: :class:`repro.core.registry.ExplainerRegistry`) and memoises it, so
#: heavyweight state (a Doc2Vec model, BM25 vectors) is constructed once
#: and reused across requests.
Explainer = Callable[[ExplainRequest], ExplanationSet]


@dataclass
class ExplainResponse:
    """Strategy-tagged envelope around one explanation result.

    Exactly one of :attr:`result` / :attr:`error` is meaningful:
    single-request :meth:`~repro.core.engine.CredenceEngine.explain`
    raises on failure, while
    :meth:`~repro.core.engine.CredenceEngine.explain_batch` captures
    per-item failures here so one bad item cannot abort the batch.
    """

    strategy: str
    query: str
    doc_id: str
    result: ExplanationSet | None = None
    elapsed_seconds: float = 0.0
    error: str | None = None

    @classmethod
    def from_error(
        cls, request: ExplainRequest, error: Exception, elapsed_seconds: float = 0.0
    ) -> "ExplainResponse":
        # An exception may carry a pre-formatted ``error_envelope`` — the
        # process tier uses it to relay the *original* worker-side error
        # text, so remote failures serialize byte-identically to local ones.
        envelope = getattr(error, "error_envelope", None)
        return cls(
            strategy=request.strategy,
            query=request.query,
            doc_id=request.doc_id,
            result=None,
            elapsed_seconds=elapsed_seconds,
            error=envelope if envelope is not None else f"{type(error).__name__}: {error}",
        )

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def explanations(self) -> list:
        return [] if self.result is None else self.result.explanations

    def __iter__(self) -> Iterator:
        return iter(self.explanations)

    def __len__(self) -> int:
        return len(self.explanations)

    def __getitem__(self, position: int):
        return self.explanations[position]

    def to_dict(self) -> dict:
        payload = {
            "strategy": self.strategy,
            "query": self.query,
            "doc_id": self.doc_id,
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.error is not None:
            payload["error"] = self.error
        elif self.result is not None:
            payload.update(self.result.to_dict())
        return payload
