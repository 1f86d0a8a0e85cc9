"""Request validation and perturbation (de)serialisation for the API.

Manual, explicit validation (the FastAPI/pydantic role): every endpoint
parses its body through one of these helpers, which raise
:class:`repro.errors.BadRequestError` with a field-specific message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.explain import DEFAULT_STRATEGY, ExplainRequest
from repro.core.search import DEFAULT_BEAM_WIDTH, SEARCH_STRATEGIES
from repro.core.perturbations import (
    AppendText,
    Perturbation,
    RemoveSentences,
    RemoveTerm,
    ReplaceTerm,
)
from repro.errors import BadRequestError, ConfigurationError
from repro.service.admission import Priority, parse_priority


def _require_mapping(body: Any) -> Mapping[str, Any]:
    if not isinstance(body, Mapping):
        raise BadRequestError("request body must be a JSON object")
    return body


def _string_field(body: Mapping[str, Any], name: str) -> str:
    value = body.get(name)
    if not isinstance(value, str) or not value.strip():
        raise BadRequestError(f"{name!r} must be a non-empty string")
    return value


def _int_field(
    body: Mapping[str, Any],
    name: str,
    default: int | None = None,
    minimum: int = 1,
    maximum: int | None = None,
) -> int:
    value = body.get(name, default)
    if value is None:
        raise BadRequestError(f"{name!r} is required")
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequestError(f"{name!r} must be an integer")
    if value < minimum:
        raise BadRequestError(f"{name!r} must be ≥ {minimum}")
    if maximum is not None and value > maximum:
        raise BadRequestError(f"{name!r} must be ≤ {maximum}")
    return value


def _optional_int_field(
    body: Mapping[str, Any],
    name: str,
    minimum: int = 1,
    maximum: int | None = None,
) -> int | None:
    """An integer field whose absence (or JSON null) means "no value"."""
    if body.get(name) is None:
        return None
    return _int_field(body, name, minimum=minimum, maximum=maximum)


def _optional_number_field(
    body: Mapping[str, Any], name: str, maximum: float | None = None
) -> float | None:
    """A positive int-or-float field; absent/null means "no value"."""
    value = body.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequestError(f"{name!r} must be a number")
    if value <= 0:
        raise BadRequestError(f"{name!r} must be positive")
    if maximum is not None and value > maximum:
        raise BadRequestError(f"{name!r} must be ≤ {maximum:g}")
    return float(value)


#: Per-request ceilings on the search-kernel options. Explainers keep a
#: 2000-evaluation default; a request may raise it, but never beyond
#: these bounds — one HTTP request must not pin a worker indefinitely.
MAX_REQUEST_BUDGET = 1_000_000
MAX_REQUEST_DEADLINE_MS = 60_000.0


@dataclass(frozen=True)
class RankRequest:
    query: str
    k: int

    @classmethod
    def parse(cls, body: Any) -> "RankRequest":
        data = _require_mapping(body)
        return cls(query=_string_field(data, "query"), k=_int_field(data, "k", 10))


def parse_explain_request(body: Any) -> ExplainRequest:
    """Parse the generic ``POST /explanations`` body into an
    :class:`~repro.core.explain.ExplainRequest`.

    The strategy name is validated later against the engine's registry
    (so plug-in strategies work without touching this module); this
    parser only enforces field shapes. The *search* strategy, by
    contrast, is a closed set — unknown names are rejected here with a
    clean 400. Unknown fields are rejected so a typo'd field (e.g.
    ``method`` for ``strategy``) cannot silently fall back to the
    default strategy.
    """
    data = _require_mapping(body)
    known = {
        "query", "doc_id", "strategy", "n", "k", "threshold", "samples",
        "search", "beam_width", "budget", "deadline_ms", "extra", "profile",
    }
    unknown = set(data) - known
    if unknown:
        raise BadRequestError(
            f"unknown request field(s): {', '.join(sorted(unknown))}"
        )
    strategy = data.get("strategy", DEFAULT_STRATEGY)
    if not isinstance(strategy, str) or not strategy.strip():
        raise BadRequestError("'strategy' must be a non-empty string")
    search = data.get("search")
    if search is not None and search not in SEARCH_STRATEGIES:
        raise BadRequestError(
            f"'search' must be one of {SEARCH_STRATEGIES}, got {search!r}"
        )
    extra = data.get("extra", {})
    if not isinstance(extra, Mapping):
        raise BadRequestError("'extra' must be a JSON object")
    return ExplainRequest(
        query=_string_field(data, "query"),
        doc_id=_string_field(data, "doc_id"),
        strategy=strategy,
        n=_int_field(data, "n", 1, maximum=100),
        k=_int_field(data, "k", 10),
        threshold=_int_field(data, "threshold", 1),
        samples=_int_field(data, "samples", 50),
        search=search,
        beam_width=_int_field(data, "beam_width", DEFAULT_BEAM_WIDTH, maximum=64),
        budget=_optional_int_field(data, "budget", maximum=MAX_REQUEST_BUDGET),
        deadline_ms=_optional_number_field(
            data, "deadline_ms", maximum=MAX_REQUEST_DEADLINE_MS
        ),
        extra=dict(extra),
    )


#: Default cap on how many items one ``POST /explanations/batch`` or
#: ``POST /jobs`` may carry; override per deployment via the
#: ``max_batch_items`` parameter of :func:`repro.api.app.serve` /
#: :func:`repro.api.endpoints.register_endpoints`.
MAX_BATCH_ITEMS = 100


def parse_explain_batch(
    body: Any, max_items: int | None = None
) -> list[ExplainRequest]:
    """Parse ``POST /explanations/batch``: ``{"requests": [...]}``.

    ``max_items`` overrides the module default cap; oversized batches
    are a clean 400, not unbounded work.
    """
    cap = MAX_BATCH_ITEMS if max_items is None else max_items
    data = _require_mapping(body)
    raw = data.get("requests")
    if not isinstance(raw, list) or not raw:
        raise BadRequestError("'requests' must be a non-empty list")
    if len(raw) > cap:
        raise BadRequestError(f"'requests' must carry <= {cap} items")
    return [parse_explain_request(item) for item in raw]


def parse_job_submission(
    body: Any, max_items: int | None = None
) -> list[ExplainRequest]:
    """Parse ``POST /jobs``.

    Accepts either the batch shape ``{"requests": [...]}`` or a single
    request object ``{"request": {...}}``; the same item cap applies.
    """
    data = _require_mapping(body)
    if "request" in data and "requests" in data:
        raise BadRequestError(
            "provide exactly one of 'request' or 'requests'"
        )
    if "request" in data:
        return [parse_explain_request(data["request"])]
    return parse_explain_batch(body, max_items=max_items)


def parse_profile_flag(body: Any) -> bool:
    """Parse the optional top-level ``"profile"`` boolean.

    ``POST /explanations`` returns a per-stage ``debug`` block when set.
    The flag is presentation-only — it never reaches the
    :class:`~repro.core.explain.ExplainRequest` (and so never perturbs
    the result-store key or the response itself).
    """
    data = _require_mapping(body)
    raw = data.get("profile", False)
    if not isinstance(raw, bool):
        raise BadRequestError("'profile' must be a boolean")
    return raw


def parse_request_priority(
    body: Any, default: Priority = Priority.BATCH
) -> Priority:
    """Parse an optional top-level ``"priority"`` field (name or int).

    ``POST /jobs`` defaults to batch (the caller is not waiting);
    ``POST /explanations/batch`` defaults to interactive (it is).
    """
    data = _require_mapping(body)
    raw = data.get("priority")
    if raw is None:
        return default
    try:
        return parse_priority(raw)
    except ConfigurationError as error:
        raise BadRequestError(str(error)) from None


#: Default cap on how many documents one ``POST /index/documents`` may
#: carry; override via ``max_ingest_items`` on
#: :func:`repro.api.endpoints.register_endpoints`.
MAX_INGEST_ITEMS = 1000

#: Ceiling on the per-request ingest worker count.
MAX_INGEST_WORKERS = 32


def parse_index_ingest(
    body: Any, max_items: int | None = None
) -> tuple[list, int | None]:
    """Parse ``POST /index/documents``: documents plus optional workers.

    Body shape: ``{"documents": [{"doc_id", "body", "title"?,
    "metadata"?}, ...], "workers"?: N}``. Returns the parsed
    :class:`~repro.index.document.Document` list and the worker count
    (None = serial). Oversized batches and malformed documents are a
    clean 400.
    """
    from repro.index.document import Document

    cap = MAX_INGEST_ITEMS if max_items is None else max_items
    data = _require_mapping(body)
    unknown = set(data) - {"documents", "workers"}
    if unknown:
        raise BadRequestError(
            f"unknown field(s): {', '.join(sorted(unknown))}"
        )
    raw = data.get("documents")
    if not isinstance(raw, list) or not raw:
        raise BadRequestError("'documents' must be a non-empty list")
    if len(raw) > cap:
        raise BadRequestError(f"'documents' must carry <= {cap} items")
    documents = []
    for position, item in enumerate(raw):
        if not isinstance(item, Mapping):
            raise BadRequestError(f"document {position} must be a JSON object")
        doc_id = item.get("doc_id")
        body_text = item.get("body")
        if not isinstance(doc_id, str) or not doc_id.strip():
            raise BadRequestError(
                f"document {position}: 'doc_id' must be a non-empty string"
            )
        if not isinstance(body_text, str) or not body_text.strip():
            raise BadRequestError(
                f"document {position}: 'body' must be a non-empty string"
            )
        documents.append(Document.from_dict(item))
    workers = _optional_int_field(data, "workers", maximum=MAX_INGEST_WORKERS)
    return documents, workers


def parse_index_save(body: Any) -> tuple[str, str]:
    """Parse ``POST /index/save``: target path plus optional format.

    Body shape: ``{"path": "...", "format"?: "v1"|"v2"|"v3"}`` (default
    ``"v3"``, the packed format).
    """
    from repro.index.storage import FORMAT_CHOICES

    data = _require_mapping(body)
    unknown = set(data) - {"path", "format"}
    if unknown:
        raise BadRequestError(
            f"unknown field(s): {', '.join(sorted(unknown))}"
        )
    path = data.get("path")
    if not isinstance(path, str) or not path.strip():
        raise BadRequestError("'path' must be a non-empty string")
    format = data.get("format", "v3")
    if format not in FORMAT_CHOICES:
        raise BadRequestError(
            f"'format' must be one of {FORMAT_CHOICES}, got {format!r}"
        )
    return path, format


def parse_perturbation(raw: Any) -> Perturbation:
    """Deserialise one perturbation operation.

    Supported shapes::

        {"type": "replace_term", "term": "covid", "replacement": "flu"}
        {"type": "remove_term", "term": "outbreak"}
        {"type": "remove_sentences", "indices": [0, 4]}
        {"type": "append_text", "text": "..."}
    """
    data = _require_mapping(raw)
    kind = data.get("type")
    if kind == "replace_term":
        return ReplaceTerm(
            term=_string_field(data, "term"),
            replacement=_string_field(data, "replacement"),
        )
    if kind == "remove_term":
        return RemoveTerm(term=_string_field(data, "term"))
    if kind == "remove_sentences":
        indices = data.get("indices")
        if not isinstance(indices, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) and i >= 0
            for i in indices
        ):
            raise BadRequestError("'indices' must be a list of non-negative ints")
        return RemoveSentences(indices=tuple(indices))
    if kind == "append_text":
        return AppendText(text=_string_field(data, "text"))
    raise BadRequestError(f"unknown perturbation type: {kind!r}")


@dataclass(frozen=True)
class BuilderRequest:
    query: str
    doc_id: str
    k: int
    edited_body: str | None
    perturbations: tuple[Perturbation, ...] | None

    @classmethod
    def parse(cls, body: Any) -> "BuilderRequest":
        data = _require_mapping(body)
        edited_body = data.get("edited_body")
        raw_perturbations = data.get("perturbations")
        if (edited_body is None) == (raw_perturbations is None):
            raise BadRequestError(
                "provide exactly one of 'edited_body' or 'perturbations'"
            )
        perturbations = None
        if raw_perturbations is not None:
            if not isinstance(raw_perturbations, list) or not raw_perturbations:
                raise BadRequestError("'perturbations' must be a non-empty list")
            perturbations = tuple(
                parse_perturbation(raw) for raw in raw_perturbations
            )
        if edited_body is not None and (
            not isinstance(edited_body, str) or not edited_body.strip()
        ):
            raise BadRequestError("'edited_body' must be a non-empty string")
        return cls(
            query=_string_field(data, "query"),
            doc_id=_string_field(data, "doc_id"),
            k=_int_field(data, "k", 10),
            edited_body=edited_body,
            perturbations=perturbations,
        )


@dataclass(frozen=True)
class TopicsRequest:
    query: str
    k: int
    num_topics: int
    terms_per_topic: int

    @classmethod
    def parse(cls, body: Any) -> "TopicsRequest":
        data = _require_mapping(body)
        return cls(
            query=_string_field(data, "query"),
            k=_int_field(data, "k", 10),
            num_topics=_int_field(data, "num_topics", 5, maximum=50),
            terms_per_topic=_int_field(data, "terms_per_topic", 10, maximum=100),
        )
