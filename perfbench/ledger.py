"""Per-layer spans recorded from the benchmark's own files.

:class:`Ledger` wraps public entry points of each library layer (the
methods listed in :data:`LAYER_ENTRY_POINTS`) for the duration of a
traced block and records, per group, the call count, inclusive time and
self time (inclusive minus the time covered by child spans). A request
opened with :meth:`Ledger.request` is the root span: its self time is
the part of the request no wrapped layer covers, reported as
``unattributed_ms``.

A call into the group that is already innermost (``analyze`` calling
``analyze_tokens``, a cached ranker delegating to its inner ranker) is
folded into the open span. The ledger is single-threaded: the library
workloads make one call at a time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

#: (module, class or function, method names, group). A group's layer is
#: the text before its first dot.
LAYER_ENTRY_POINTS = (
    (
        "repro.text.analyzer",
        "Analyzer",
        ("analyze", "analyze_tokens", "analyze_unique"),
        "text.analyze",
    ),
    ("repro.index.sharding", "AnalysisMemo", ("analyze",), "text.analyze"),
    ("repro.index.searcher", "IndexSearcher", ("search",), "index.search"),
    (
        "repro.core.engine",
        "CredenceEngine",
        ("add_documents", "remove_document"),
        "index.write",
    ),
    ("repro.core.engine", None, ("train_neural_ranker",), "ranking.train"),
    ("repro.ranking.base", "Ranker", ("scoring_session",), "ranking.session_open"),
    (
        "repro.ranking.base",
        "Ranker",
        ("rank", "score_text", "rank_candidates"),
        "ranking.score",
    ),
    (
        "repro.ranking.session",
        "ScoringSession",
        (
            "baseline",
            "rank_with_substitution",
            "ranking_with_substitution",
            "rank_without_sentences",
            "rank_with_score",
            "ranking_with_score",
        ),
        "ranking.score",
    ),
    *(
        ("repro.core.search.strategies", name, ("search",), "core.search")
        for name in ("ExhaustiveSearch", "GreedySearch", "BeamSearch", "AnytimeSearch")
    ),
    *(
        ("repro.core.search.candidates", name, ("generate",), "core.candidates")
        for name in (
            "StaticCandidates",
            "SentenceRemovalGenerator",
            "QueryTermGenerator",
            "PerturbationOpsGenerator",
        )
    ),
    (
        "repro.core.builder",
        "CounterfactualBuilder",
        ("apply_and_rerank", "rerank_edited"),
        "core.builder",
    ),
    ("repro.core.engine", None, ("train_doc2vec",), "embeddings.train"),
    (
        "repro.embeddings.doc2vec",
        "Doc2Vec",
        ("most_similar", "infer_vector"),
        "embeddings.nearest",
    ),
    (
        "repro.embeddings.vectorizers",
        "_StatisticVectorizer",
        ("vector", "vector_for_text"),
        "embeddings.nearest",
    ),
)


#: The traced tables' header; the first column names a group or span.
TABLE_HEADER = "{:<22}" + f"{'calls/req':>10}{'incl ms/req':>13}{'self ms/req':>13}"


def _hierarchy(cls):
    """``cls`` and every subclass loaded so far, each once."""
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


class Ledger:
    """Span totals per group, plus counters read from layer results."""

    def __init__(self):
        #: group -> [calls, inclusive seconds, self seconds]
        self.groups: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Counter = Counter()
        self.requests = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------------

    def _run(self, group: str, fn, args, kwargs):
        stack = self._stack
        if stack and stack[-1][0] == group:
            return fn(*args, **kwargs)
        frame = [group, 0.0]
        stack.append(frame)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            totals = self.groups[group]
            totals[0] += 1
            totals[1] += elapsed
            totals[2] += elapsed - frame[1]

    def request(self, fn, *args, **kwargs):
        """Run one benchmark request as the root span."""
        self.requests += 1
        return self._run("request", fn, args, kwargs)

    def _wrap(self, group: str, fn):
        ledger = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = ledger._run(group, fn, args, kwargs)
            if group == "core.search":
                found, trace = result
                ledger.counters["candidates_evaluated"] += trace.candidates_evaluated
                ledger.counters["explanations_found"] += len(found)
                ledger.counters["physical_scorings"] += args[1].physical_scorings
            elif group == "core.candidates":
                ledger.counters["candidates_generated"] += len(result)
            elif group == "embeddings.train":
                ledger.counters["doc2vec_trains"] += 1
            return result

        return traced

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point; :meth:`uninstall` restores them."""
        for module_name, class_name, names, group in LAYER_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owners = (
                [module]
                if class_name is None
                else _hierarchy(getattr(module, class_name))
            )
            for owner in owners:
                for name in names:
                    original = vars(owner).get(name)
                    if callable(original):
                        self._patches.append((owner, name, original))
                        setattr(owner, name, self._wrap(group, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- reading ---------------------------------------------------------------

    def table(self) -> list[str]:
        """The traced table: per group calls, inclusive and self ms per
        request, then the unattributed line."""
        requests = max(self.requests, 1)
        lines = [TABLE_HEADER.format("group")]
        for group in sorted(self.groups):
            if group == "request":
                continue
            calls, incl, self_s = self.groups[group]
            lines.append(
                f"{group:<22}{calls / requests:>10.2f}{incl * 1e3 / requests:>13.4f}"
                f"{self_s * 1e3 / requests:>13.4f}"
            )
        _, wall, unattributed = self.groups["request"]
        lines.append(f"{'unattributed_ms':<45}{unattributed * 1e3 / requests:>13.4f}")
        lines.append(f"{'request wall':<32}{wall * 1e3 / requests:>13.4f}")
        return lines
