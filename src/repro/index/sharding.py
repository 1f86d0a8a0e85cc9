"""Sharded corpus backend: N inverted-index shards behind one surface.

A :class:`ShardedIndex` routes every document to one of N
:class:`~repro.index.inverted.InvertedIndex` shards through a
:class:`ShardRouter` and exposes the *exact* read/write surface of a
single index, so rankers, scoring sessions, the search kernel, and the
explainers work against it unchanged. Correctness hinges on two merged
views:

* :class:`MergedStats` maintains corpus-level statistics (document
  frequency, collection frequency, total terms, document count)
  incrementally on every add/remove. They are integer sums, so BM25 /
  TF-IDF / LM scores computed against a sharded corpus are
  **byte-identical** to the single-shard index.
* Global insertion order is tracked across shards (``doc_ids``,
  ``__iter__``, and ``terms()`` replay it), so every
  order-dependent tie-break — ranked retrieval, ``Ranking.from_scores``,
  Doc2Vec training order — is preserved exactly.

Bulk ingestion (:meth:`ShardedIndex.add_documents`) partitions the batch
by shard and ingests the partitions on a transient per-call thread
pool; the shared analyzer's memo analyses each distinct surface form
once. On CPython with the GIL the win is architectural (the memo plus
batched shard construction); on free-threaded builds the per-shard
workers also scale with cores. Ingestion is all-or-nothing: a failing
batch is rolled back before the error propagates.
"""

from __future__ import annotations

import threading
import zlib
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import ConfigurationError, DocumentNotFoundError
from repro.index.document import Document
from repro.index.inverted import IndexSnapshot, InvertedIndex
from repro.index.postings import Posting, PostingsList
from repro.index.stats import CollectionStats
from repro.text.analyzer import Analyzer, default_analyzer
from repro.utils.validation import require_positive

#: Router names accepted by :func:`build_router` and the v2 index format.
ROUTER_CHOICES = ("hash", "round-robin")


class ShardRouter(ABC):
    """Assigns each document id to a shard at ingestion time.

    Routing happens exactly once per document (the assignment is recorded
    by the :class:`ShardedIndex`), so a stateful router like round-robin
    stays consistent under later lookups, removals, and replacement.
    """

    def __init__(self, shard_count: int):
        require_positive(shard_count, "shard_count")
        self.shard_count = shard_count

    @property
    @abstractmethod
    def name(self) -> str:
        """Stable router name used by persistence (see ROUTER_CHOICES)."""

    @abstractmethod
    def route(self, doc_id: str) -> int:
        """The shard (``0 .. shard_count-1``) that should hold ``doc_id``."""


class HashRouter(ShardRouter):
    """Deterministic content-addressed routing: ``crc32(doc_id) % N``.

    CRC32 rather than Python's ``hash()`` because the latter is salted
    per process — placements must be reproducible across runs and match
    what a persisted index recorded.
    """

    @property
    def name(self) -> str:
        return "hash"

    def route(self, doc_id: str) -> int:
        return zlib.crc32(doc_id.encode("utf-8")) % self.shard_count


class RoundRobinRouter(ShardRouter):
    """Cycles through the shards, balancing counts exactly.

    Stateful: the n-th routed document lands on shard ``n % N``. The
    :class:`ShardedIndex` records each assignment, so reloading a
    persisted index replays recorded placements instead of re-routing.
    """

    def __init__(self, shard_count: int):
        super().__init__(shard_count)
        self._next = 0

    @property
    def name(self) -> str:
        return "round-robin"

    @property
    def cursor(self) -> int:
        """The shard the next routed document will land on.

        Persisted by the v2 index format and restored on load, so a
        reloaded index continues the cycle exactly where the saved one
        left off — a derived value (e.g. surviving-document count) would
        drift after removals.
        """
        return self._next

    @cursor.setter
    def cursor(self, value: int) -> None:
        if not 0 <= value < self.shard_count:
            raise ConfigurationError(
                f"cursor must be in [0, {self.shard_count}), got {value}"
            )
        self._next = value

    def route(self, doc_id: str) -> int:
        shard = self._next
        self._next = (self._next + 1) % self.shard_count
        return shard


def build_router(name: str, shard_count: int) -> ShardRouter:
    """Construct a router by persistable name (see :data:`ROUTER_CHOICES`)."""
    if name == "hash":
        return HashRouter(shard_count)
    if name == "round-robin":
        return RoundRobinRouter(shard_count)
    raise ConfigurationError(
        f"router must be one of {ROUTER_CHOICES}, got {name!r}"
    )


class MergedStats:
    """Corpus-level statistics maintained across shards, incrementally.

    Document frequency and collection frequency are integer sums over
    shards, updated on every add/remove, so reads are O(1) — no fan-out.
    The term dict mirrors a single index's postings-dict ordering
    exactly: a term is inserted when its global df first becomes
    positive, deleted when it returns to zero, and re-appended on
    re-introduction, which keeps ``terms()`` byte-compatible with
    :meth:`InvertedIndex.terms`.
    """

    def __init__(self):
        #: term -> [document_frequency, collection_frequency]
        self._terms: dict[str, list[int]] = {}
        self.document_count = 0
        self.total_terms = 0

    def add_document(self, terms: Sequence[str]) -> None:
        """Account for one added document given its analyzed terms."""
        counts: dict[str, int] = {}
        for term in terms:  # first-occurrence order, like postings creation
            counts[term] = counts.get(term, 0) + 1
        merged = self._terms
        for term, frequency in counts.items():
            entry = merged.get(term)
            if entry is None:
                merged[term] = [1, frequency]
            else:
                entry[0] += 1
                entry[1] += frequency
        self.document_count += 1
        self.total_terms += len(terms)

    def remove_document(self, counts: Mapping[str, int], length: int) -> None:
        """Account for one removed document given its term-frequency vector."""
        merged = self._terms
        for term, frequency in counts.items():
            entry = merged[term]
            entry[0] -= 1
            entry[1] -= frequency
            if entry[0] == 0:
                del merged[term]
        self.document_count -= 1
        self.total_terms -= length

    def document_frequency(self, term: str) -> int:
        entry = self._terms.get(term)
        return entry[0] if entry else 0

    def collection_frequency(self, term: str) -> int:
        entry = self._terms.get(term)
        return entry[1] if entry else 0

    @property
    def unique_terms(self) -> int:
        return len(self._terms)

    def terms(self) -> list[str]:
        return list(self._terms)

    def stats(self) -> CollectionStats:
        return CollectionStats(
            document_count=self.document_count,
            total_terms=self.total_terms,
            unique_terms=len(self._terms),
        )


@dataclass(frozen=True)
class ShardedSnapshot:
    """One atomic read snapshot of a :class:`ShardedIndex`.

    Captured under the sharded index's lock by
    :meth:`ShardedIndex.export_snapshot`: per-shard
    :class:`~repro.index.inverted.IndexSnapshot`\\ s, the global
    placement order, and the merged term statistics in their merged
    insertion order (what :meth:`ShardedIndex.terms` replays), all from
    the same instant.
    """

    shard_snapshots: tuple[IndexSnapshot, ...]
    placements: tuple[tuple[str, int], ...]
    merged_terms: tuple[tuple[str, int, int], ...]
    router: str
    cursor: int | None
    version: int
    document_count: int
    total_terms: int


class AnalysisMemo:
    """The bulk-ingest analysis step: ``analyzer.analyze`` per body.

    The analyzer memoises token analysis per surface form itself, so
    every ingest path shares one memo with the rankers and explainers;
    this class only names the ingest step (profilers and fault-injection
    tests hook :meth:`analyze`).
    """

    def __init__(self, analyzer: Analyzer):
        self.analyzer = analyzer

    def analyze(self, text: str) -> list[str]:
        """``analyzer.analyze(text)``."""
        return self.analyzer.analyze(text)


class MergedPostings:
    """Read-only merged view of one term's postings across shards.

    Duck-types the read surface of
    :class:`~repro.index.postings.PostingsList` (iteration, ``get``,
    df/cf, membership). Iteration yields shard 0's postings first, then
    shard 1's, and so on — callers that need global corpus order
    (phrase/boolean search) already re-sort by ``doc_ids``, and scoring
    accumulates per document, so the inter-shard order is never
    observable in results.
    """

    def __init__(self, term: str, parts: Sequence[PostingsList]):
        self.term = term
        self._parts = tuple(parts)

    def get(self, doc_id: str) -> Posting | None:
        for part in self._parts:
            posting = part.get(doc_id)
            if posting is not None:
                return posting
        return None

    @property
    def document_frequency(self) -> int:
        return sum(len(part) for part in self._parts)

    @property
    def collection_frequency(self) -> int:
        return sum(part.collection_frequency for part in self._parts)

    def __iter__(self) -> Iterator[Posting]:
        for part in self._parts:
            yield from part

    def __len__(self) -> int:
        return self.document_frequency

    def __contains__(self, doc_id: str) -> bool:
        return any(doc_id in part for part in self._parts)


def analyze_in_processes(analyzer, documents, workers: int | None) -> list:
    """Analyze document bodies in worker processes; returns per-document
    term lists in input order.

    The GIL-escape path for bulk ingest: bodies are split into
    contiguous chunks (one per worker) and each worker runs the same
    memoised analyzer pipeline over an analyzer rebuilt from the
    identical configuration — so the output is byte-identical
    to local analysis, only computed on other cores.
    """
    # Lazy, call-scoped import: the process pool lives in the service
    # layer; importing it at module load would cycle the layering.
    from repro.service.process import analysis_pool

    worker_count = max(1, min(workers or 1, len(documents)))
    chunk = -(-len(documents) // worker_count)  # ceil division
    partitions = [
        [document.body for document in documents[start:start + chunk]]
        for start in range(0, len(documents), chunk)
    ]
    with analysis_pool(analyzer, len(partitions)) as pool:
        buckets = pool.analyze_partitions(partitions)
    return [terms for bucket in buckets for terms in bucket]


class ShardedIndex:
    """N inverted-index shards behind the single-index surface.

    Drop-in for :class:`~repro.index.inverted.InvertedIndex` everywhere
    a corpus is read or mutated: rankers, sessions, searchers, storage,
    and the engine accept either. Scores, ranks, and explanation output
    are byte-identical to a single-shard index over the same documents
    (pinned by ``tests/index/test_sharded_equivalence.py``).

    Thread safety matches the single index: a reentrant lock guards the
    assignment table, the merged statistics, and multi-step reads; each
    shard additionally carries its own lock, which is what lets bulk
    ingestion write shards concurrently.
    """

    def __init__(
        self,
        shard_count: int = 2,
        analyzer: Analyzer | None = None,
        router: ShardRouter | None = None,
    ):
        require_positive(shard_count, "shard_count")
        self.analyzer = analyzer or default_analyzer()
        self.shards: tuple[InvertedIndex, ...] = tuple(
            InvertedIndex(self.analyzer) for _ in range(shard_count)
        )
        if router is None:
            router = HashRouter(shard_count)
        elif router.shard_count != shard_count:
            raise ConfigurationError(
                f"router expects {router.shard_count} shards, index has "
                f"{shard_count}"
            )
        self.router = router
        #: doc_id -> shard position, in global insertion order.
        self._assignments: dict[str, int] = {}
        self._merged = MergedStats()
        self._version = 0
        self._lock = threading.RLock()

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_documents(
        cls,
        documents: Iterable[Document],
        shard_count: int = 2,
        analyzer: Analyzer | None = None,
        router: ShardRouter | None = None,
        workers: int | None = None,
        executor: str | None = None,
    ) -> "ShardedIndex":
        index = cls(shard_count, analyzer, router)
        index.add_documents(documents, workers=workers, executor=executor)
        return index

    @classmethod
    def from_placements(
        cls,
        placements: Iterable[tuple[Document, int]],
        shard_count: int,
        analyzer: Analyzer | None = None,
        router: ShardRouter | None = None,
    ) -> "ShardedIndex":
        """Rebuild an index from recorded (document, shard) placements.

        The persistence layer uses this so a reloaded index keeps the
        exact shard layout and global insertion order it was saved with,
        regardless of router statefulness. A restored round-robin router
        defaults to resuming after the replayed documents; callers with
        the saved cursor (the v2 manifest records it) should set
        ``router.cursor`` afterwards, since the replayed count drifts
        from the true cycle position once documents have been removed.
        """
        index = cls(shard_count, analyzer, router)
        memo = AnalysisMemo(index.analyzer)
        count = 0
        with index._lock:
            for document, shard in placements:
                if not 0 <= shard < shard_count:
                    raise ConfigurationError(
                        f"placement shard {shard} out of range for "
                        f"{shard_count} shards"
                    )
                if document.doc_id in index._assignments:
                    raise ValueError(
                        f"duplicate document id: {document.doc_id!r}"
                    )
                index._add_routed(document, memo.analyze(document.body), shard)
                count += 1
            index._version += count
            if isinstance(index.router, RoundRobinRouter):
                index.router.cursor = count % shard_count
        return index

    @classmethod
    def from_analyzed_placements(
        cls,
        placements: Iterable[tuple[Document, list[str], int]],
        shard_count: int,
        analyzer: Analyzer | None = None,
        router: ShardRouter | None = None,
        cursor: int | None = None,
    ) -> "ShardedIndex":
        """Rebuild an index from (document, analyzed terms, shard) triples.

        The attach hook for the packed v3 persistence layer: segments
        already store every document's exact term sequence, so hydration
        rebuilds postings without re-running the analyzer —
        ``terms`` must be exactly ``analyzer.analyze(document.body)``
        for each document, in global insertion order. ``cursor``
        restores a round-robin router's cycle position.
        """
        index = cls(shard_count, analyzer, router)
        count = 0
        with index._lock:
            for document, terms, shard in placements:
                if not 0 <= shard < shard_count:
                    raise ConfigurationError(
                        f"placement shard {shard} out of range for "
                        f"{shard_count} shards"
                    )
                if document.doc_id in index._assignments:
                    raise ValueError(
                        f"duplicate document id: {document.doc_id!r}"
                    )
                index._add_routed(document, terms, shard)
                count += 1
            index._version += count
            if isinstance(index.router, RoundRobinRouter):
                index.router.cursor = (
                    cursor if cursor is not None else count % shard_count
                )
        return index

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_of(self, doc_id: str) -> int:
        """The shard currently holding ``doc_id``; raises if absent."""
        with self._lock:
            shard = self._assignments.get(doc_id)
            if shard is None:
                raise DocumentNotFoundError(doc_id)
            return shard

    # -- mutation -------------------------------------------------------------

    def add(self, document: Document) -> None:
        """Route and index ``document``; raises ``ValueError`` on duplicates."""
        terms = self.analyzer.analyze(document.body)
        with self._lock:
            if document.doc_id in self._assignments:
                raise ValueError(
                    f"duplicate document id: {document.doc_id!r}"
                )
            self._add_routed(document, terms, self.router.route(document.doc_id))
            self._version += 1

    def _add_routed(self, document: Document, terms: list[str], shard: int) -> None:
        """Place an analyzed document on an explicit shard (lock held)."""
        self.shards[shard].add_analyzed(document, terms)
        self._assignments[document.doc_id] = shard
        self._merged.add_document(terms)

    def remove(self, doc_id: str) -> Document:
        """Remove and return a document; raises if absent."""
        with self._lock:
            shard_position = self._assignments.get(doc_id)
            if shard_position is None:
                raise DocumentNotFoundError(doc_id)
            shard = self.shards[shard_position]
            counts = dict(shard.term_frequencies(doc_id))
            length = shard.document_length(doc_id)
            document = shard.remove(doc_id)
            del self._assignments[doc_id]
            self._merged.remove_document(counts, length)
            self._version += 1
            return document

    def replace(self, document: Document) -> Document:
        """Swap a document body in place; returns the previous version.

        The document keeps its current shard (routing happens once, at
        first ingestion), so a stateful router's placements stay stable.
        """
        with self._lock:
            shard = self.shard_of(document.doc_id)
            previous = self.remove(document.doc_id)
            terms = self.analyzer.analyze(document.body)
            self._add_routed(document, terms, shard)
            self._version += 1
            return previous

    def add_documents(
        self,
        documents: Iterable[Document],
        workers: int | None = None,
        executor: str | None = None,
    ) -> int:
        """Bulk-ingest ``documents`` in parallel; returns the number added.

        The batch is partitioned by the router, each shard's partition is
        ingested by one task on a transient thread pool (``workers``
        caps it; None/1 ingests serially), and all tasks share the
        analyzer's memo. Merged statistics and the global insertion
        order are replayed in input order afterwards, so the result is
        byte-identical to adding the documents one at a time.

        ``executor="process"`` routes the analysis step — tokenize,
        stopword, stem; the CPU-bound bulk of ingest — through
        :func:`analyze_in_processes` (``workers`` sizes that pool too),
        escaping the GIL on standard builds; the per-shard posting
        builds then run on the thread tier with the precomputed terms.

        All-or-nothing: duplicate ids fail before anything mutates, and
        an ingest error rolls the already-indexed batch documents back
        out of their shards before propagating.
        """
        if executor not in (None, "thread", "process"):
            raise ValueError(
                f'executor must be "thread" or "process", got {executor!r}'
            )
        documents = list(documents)
        if not documents:
            return 0
        with self._lock:
            seen: set[str] = set()
            for document in documents:
                if document.doc_id in self._assignments or document.doc_id in seen:
                    raise ValueError(
                        f"duplicate document id: {document.doc_id!r}"
                    )
                seen.add(document.doc_id)
            precomputed = (
                analyze_in_processes(self.analyzer, documents, workers)
                if executor == "process"
                else None
            )
            placements = [
                (document, self.router.route(document.doc_id))
                for document in documents
            ]
            partitions: list[list[tuple[int, Document]]] = [
                [] for _ in self.shards
            ]
            for position, (document, shard) in enumerate(placements):
                partitions[shard].append((position, document))
            analyzed: list[list[str] | None] = [None] * len(documents)
            memo = AnalysisMemo(self.analyzer)

            def ingest(shard_position: int) -> None:
                shard = self.shards[shard_position]
                for position, document in partitions[shard_position]:
                    terms = (
                        precomputed[position]
                        if precomputed is not None
                        else memo.analyze(document.body)
                    )
                    shard.add_analyzed(document, terms)
                    analyzed[position] = terms

            errors = self._run_partitions(ingest, workers)
            if errors:
                # Roll the partial batch back out before propagating.
                for position, (document, shard) in enumerate(placements):
                    if analyzed[position] is not None:
                        self.shards[shard].remove(document.doc_id)
                raise errors[0]
            for position, (document, shard) in enumerate(placements):
                self._assignments[document.doc_id] = shard
                self._merged.add_document(analyzed[position])
            self._version += len(documents)
        return len(documents)

    def _run_partitions(
        self, ingest, workers: int | None
    ) -> list[Exception]:
        """Run ``ingest(shard)`` for every shard, optionally in parallel.

        Parallel runs use a transient per-call executor, *deliberately*
        not the engine's live explanation pool: ``add_documents`` holds
        the corpus lock while waiting, and explanation tasks block on
        that same lock — sharing one pool would let queued ingest tasks
        starve behind blocked explanation tasks (a deadlock). A
        transient executor of ≤ shard_count threads costs microseconds
        against a bulk ingest.
        """
        worker_count = min(workers or 1, self.shard_count)
        if worker_count <= 1:
            errors: list[Exception] = []
            for shard_position in range(self.shard_count):
                try:
                    ingest(shard_position)
                except Exception as error:  # noqa: BLE001 - rolled back by caller
                    errors.append(error)
            return errors
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(
            max_workers=worker_count, thread_name_prefix="ingest"
        ) as pool:
            futures = [
                pool.submit(ingest, shard_position)
                for shard_position in range(self.shard_count)
            ]
        return [
            error
            for error in (future.exception() for future in futures)
            if error is not None
        ]

    # -- lookups --------------------------------------------------------------

    def document(self, doc_id: str) -> Document:
        return self.shards[self.shard_of(doc_id)].document(doc_id)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._assignments

    def __len__(self) -> int:
        return len(self._assignments)

    def __iter__(self) -> Iterator[Document]:
        with self._lock:  # snapshot in global insertion order
            return iter(
                [
                    self.shards[shard].document(doc_id)
                    for doc_id, shard in self._assignments.items()
                ]
            )

    @property
    def doc_ids(self) -> list[str]:
        with self._lock:
            return list(self._assignments)

    def postings(self, term: str) -> MergedPostings | None:
        """Merged postings view for an analyzed term, or None if unindexed."""
        parts = [
            postings
            for postings in (shard.postings(term) for shard in self.shards)
            if postings is not None
        ]
        if not parts:
            return None
        return MergedPostings(term, parts)

    def terms(self) -> Iterator[str]:
        with self._lock:  # snapshot, ordered like a single index's postings
            return iter(self._merged.terms())

    # -- statistics -----------------------------------------------------------

    def document_frequency(self, term: str) -> int:
        with self._lock:
            return self._merged.document_frequency(term)

    def collection_frequency(self, term: str) -> int:
        with self._lock:
            return self._merged.collection_frequency(term)

    def term_frequency(self, term: str, doc_id: str) -> int:
        """Occurrences of analyzed ``term`` in document ``doc_id``."""
        return self.shards[self.shard_of(doc_id)].term_frequency(term, doc_id)

    def document_length(self, doc_id: str) -> int:
        return self.shards[self.shard_of(doc_id)].document_length(doc_id)

    def term_vector(self, doc_id: str) -> Counter[str]:
        """The document's analyzed term-frequency vector (a copy)."""
        return self.shards[self.shard_of(doc_id)].term_vector(doc_id)

    def term_frequencies(self, doc_id: str) -> Counter[str]:
        """The document's live term-frequency vector (treat as read-only)."""
        return self.shards[self.shard_of(doc_id)].term_frequencies(doc_id)

    @property
    def version(self) -> int:
        """Mutation counter; caches keyed on it invalidate on any change."""
        return self._version

    def stats(self) -> CollectionStats:
        with self._lock:
            return self._merged.stats()

    @property
    def average_document_length(self) -> float:
        return self.stats().average_document_length

    def shard_sizes(self) -> list[int]:
        """Documents per shard, by shard position."""
        return [len(shard) for shard in self.shards]

    def export_state(
        self,
    ) -> tuple[list[tuple[str, int]], list[list[Document]], int, int | None]:
        """One atomic snapshot for persistence.

        Returns (global-order placements, per-shard documents, mutation
        version, round-robin cursor or None). The persistence layer
        serialises from this snapshot instead of reading placements,
        shard contents, and router state under separate lock
        acquisitions — a save concurrent with mutation must never
        capture a shard file that disagrees with the manifest.
        """
        with self._lock:
            placements = list(self._assignments.items())
            shard_documents = [list(shard) for shard in self.shards]
            cursor = (
                self.router.cursor
                if isinstance(self.router, RoundRobinRouter)
                else None
            )
            return placements, shard_documents, self._version, cursor

    def export_snapshot(self) -> ShardedSnapshot:
        """One atomic copy of the full sharded state for persistence.

        The v3 writer's counterpart to
        :meth:`InvertedIndex.export_snapshot`: per-shard snapshots, the
        global placement order, merged term statistics (in merged
        insertion order), and the router state, captured under one lock
        acquisition so no field can disagree with another.
        """
        with self._lock:
            return ShardedSnapshot(
                shard_snapshots=tuple(
                    shard.export_snapshot() for shard in self.shards
                ),
                placements=tuple(self._assignments.items()),
                merged_terms=tuple(
                    (term, entry[0], entry[1])
                    for term, entry in self._merged._terms.items()
                ),
                router=self.router.name,
                cursor=(
                    self.router.cursor
                    if isinstance(self.router, RoundRobinRouter)
                    else None
                ),
                version=self._version,
                document_count=self._merged.document_count,
                total_terms=self._merged.total_terms,
            )
