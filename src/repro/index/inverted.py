"""The in-memory positional inverted index.

Supports incremental addition and removal of documents, per-document term
vectors, and the collection statistics needed by lexical similarities and
by CREDENCE's TF-IDF term-importance scoring.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import DocumentNotFoundError
from repro.index.document import Document
from repro.index.postings import Posting, PostingsList
from repro.index.stats import CollectionStats
from repro.text.analyzer import Analyzer, default_analyzer


@dataclass(frozen=True)
class IndexSnapshot:
    """One atomic read snapshot of an :class:`InvertedIndex`.

    Produced by :meth:`InvertedIndex.export_snapshot` under the index
    lock, so every field describes the same instant: the persistence
    layer serialises from this instead of making separate locked reads
    that a concurrent mutation could tear apart. All containers are
    copies — the snapshot stays valid while the index keeps mutating.

    Orderings carry the index's observable iteration semantics and must
    be preserved by any format that round-trips through a snapshot:
    ``documents`` is global insertion order, ``postings`` iterates terms
    in first-appearance order with each term's postings in document
    insertion order, and each term-frequency ``Counter`` iterates in
    first-occurrence order within the document.
    """

    documents: tuple[Document, ...]
    doc_lengths: dict[str, int]
    term_freqs: dict[str, Counter]
    postings: dict[str, tuple[Posting, ...]]
    total_terms: int
    version: int


class InvertedIndex:
    """A positional inverted index over :class:`Document` bodies.

    The index owns an :class:`Analyzer`; every component that needs to
    agree with the index on tokenisation (rankers, explainers) should use
    :attr:`analyzer` rather than constructing its own.
    """

    def __init__(self, analyzer: Analyzer | None = None):
        self.analyzer = analyzer or default_analyzer()
        self._documents: dict[str, Document] = {}
        self._postings: dict[str, PostingsList] = {}
        self._doc_lengths: dict[str, int] = {}
        self._doc_term_freqs: dict[str, Counter[str]] = {}
        self._total_terms = 0
        self._version = 0
        self._stats_cache: CollectionStats | None = None
        # Guards mutations, the memoized stats, and the multi-step read
        # accessors: the service layer reads from worker threads while
        # an admin path may add/remove documents. Locked reads can never
        # observe a torn mid-mutation state; a document removed while an
        # explanation is in flight surfaces as DocumentNotFoundError
        # (captured as that item's error), never as an inconsistent
        # lookup. Reentrant because stats() is called from locked
        # sections of consumers holding their own locks.
        self._lock = threading.RLock()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_documents(
        cls, documents: Iterable[Document], analyzer: Analyzer | None = None
    ) -> "InvertedIndex":
        index = cls(analyzer)
        for document in documents:
            index.add(document)
        return index

    def add(self, document: Document) -> None:
        """Index ``document``; raises ``ValueError`` on duplicate ids."""
        self.add_analyzed(document, self.analyzer.analyze(document.body))

    def add_analyzed(self, document: Document, terms: list[str]) -> None:
        """Index ``document`` from an already-analyzed term sequence.

        ``terms`` must be exactly ``self.analyzer.analyze(document.body)``;
        callers that analyze up front (bulk ingestion, the process-tier
        analysis step) use this to avoid re-analyzing inside the index.
        """
        positions: dict[str, list[int]] = {}
        for position, term in enumerate(terms):
            positions.setdefault(term, []).append(position)

        with self._lock:
            if document.doc_id in self._documents:
                raise ValueError(
                    f"duplicate document id: {document.doc_id!r}"
                )
            self._documents[document.doc_id] = document
            self._doc_lengths[document.doc_id] = len(terms)
            self._doc_term_freqs[document.doc_id] = Counter(terms)
            self._total_terms += len(terms)
            self._version += 1
            self._stats_cache = None
            for term, term_positions in positions.items():
                postings = self._postings.get(term)
                if postings is None:
                    postings = self._postings[term] = PostingsList(term)
                postings.add(
                    Posting(
                        document.doc_id,
                        len(term_positions),
                        tuple(term_positions),
                    )
                )

    def remove(self, doc_id: str) -> Document:
        """Remove and return a document; raises if absent."""
        with self._lock:
            document = self._documents.pop(doc_id, None)
            if document is None:
                raise DocumentNotFoundError(doc_id)
            self._total_terms -= self._doc_lengths.pop(doc_id)
            self._version += 1
            self._stats_cache = None
            term_freqs = self._doc_term_freqs.pop(doc_id)
            for term in term_freqs:
                postings = self._postings[term]
                postings.remove(doc_id)
                if len(postings) == 0:
                    del self._postings[term]
            return document

    def replace(self, document: Document) -> Document:
        """Atomically swap a document body; returns the previous version."""
        with self._lock:
            previous = self.remove(document.doc_id)
            self.add(document)
            return previous

    def add_documents(
        self,
        documents: Iterable[Document],
        workers: int | None = None,
        executor: str | None = None,
    ) -> int:
        """Bulk-add ``documents``; returns the number added.

        Interface parity with
        :meth:`~repro.index.sharding.ShardedIndex.add_documents`: a
        single-shard index builds its postings serially (``workers``
        alone cannot help — there is only one shard); the analyzer's
        memo analyses each repeated surface form once.
        ``executor="process"`` offloads the analysis step to ``workers``
        worker processes (byte-identical output, computed off the GIL).
        Duplicate ids (against the index or within the batch) raise
        ``ValueError`` before anything mutates.
        """
        from repro.index.sharding import AnalysisMemo, analyze_in_processes

        if executor not in (None, "thread", "process"):
            raise ValueError(
                f'executor must be "thread" or "process", got {executor!r}'
            )
        documents = list(documents)
        with self._lock:
            seen: set[str] = set()
            for document in documents:
                if document.doc_id in self._documents or document.doc_id in seen:
                    raise ValueError(
                        f"duplicate document id: {document.doc_id!r}"
                    )
                seen.add(document.doc_id)
            if executor == "process" and documents:
                precomputed = analyze_in_processes(
                    self.analyzer, documents, workers
                )
                for document, terms in zip(documents, precomputed):
                    self.add_analyzed(document, terms)
            else:
                memo = AnalysisMemo(self.analyzer)
                for document in documents:
                    self.add_analyzed(document, memo.analyze(document.body))
        return len(documents)

    # -- lookups -------------------------------------------------------------

    def document(self, doc_id: str) -> Document:
        try:
            return self._documents[doc_id]
        except KeyError:
            raise DocumentNotFoundError(doc_id) from None

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._documents

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        with self._lock:  # snapshot: safe to iterate during mutation
            return iter(list(self._documents.values()))

    @property
    def doc_ids(self) -> list[str]:
        with self._lock:
            return list(self._documents)

    def postings(self, term: str) -> PostingsList | None:
        """Postings for an *analyzed* term, or None if unindexed."""
        return self._postings.get(term)

    def terms(self) -> Iterator[str]:
        with self._lock:  # snapshot: safe to iterate during mutation
            return iter(list(self._postings))

    # -- statistics ----------------------------------------------------------

    def document_frequency(self, term: str) -> int:
        postings = self._postings.get(term)
        return postings.document_frequency if postings else 0

    def collection_frequency(self, term: str) -> int:
        postings = self._postings.get(term)
        return postings.collection_frequency if postings else 0

    def term_frequency(self, term: str, doc_id: str) -> int:
        """Occurrences of analyzed ``term`` in document ``doc_id``."""
        with self._lock:
            if doc_id not in self._documents:
                raise DocumentNotFoundError(doc_id)
            return self._doc_term_freqs[doc_id].get(term, 0)

    def document_length(self, doc_id: str) -> int:
        try:
            return self._doc_lengths[doc_id]
        except KeyError:
            raise DocumentNotFoundError(doc_id) from None

    def term_vector(self, doc_id: str) -> Counter[str]:
        """The document's analyzed term-frequency vector (a copy)."""
        with self._lock:
            if doc_id not in self._documents:
                raise DocumentNotFoundError(doc_id)
            return Counter(self._doc_term_freqs[doc_id])

    def term_frequencies(self, doc_id: str) -> Counter[str]:
        """The document's term-frequency vector *without copying*.

        The returned mapping is the index's live internal state: callers
        must treat it as read-only. Scoring sessions use it to score
        indexed documents without re-analyzing their bodies.
        """
        with self._lock:
            if doc_id not in self._documents:
                raise DocumentNotFoundError(doc_id)
            return self._doc_term_freqs[doc_id]

    def export_snapshot(self) -> IndexSnapshot:
        """One atomic copy of the full index state for persistence.

        The v3 packed-segment writer serialises from this snapshot; see
        :class:`IndexSnapshot` for the ordering guarantees it carries.
        """
        with self._lock:
            return IndexSnapshot(
                documents=tuple(self._documents.values()),
                doc_lengths=dict(self._doc_lengths),
                term_freqs={
                    doc_id: Counter(counts)
                    for doc_id, counts in self._doc_term_freqs.items()
                },
                postings={
                    term: tuple(plist)
                    for term, plist in self._postings.items()
                },
                total_terms=self._total_terms,
                version=self._version,
            )

    @property
    def version(self) -> int:
        """Mutation counter: bumped on every add/remove.

        Components that memoize per-collection state (field statistics,
        term statistics, prepared queries) key their caches on this value
        so a corpus mutation invalidates them automatically.
        """
        return self._version

    def stats(self) -> CollectionStats:
        with self._lock:
            if self._stats_cache is None:
                self._stats_cache = CollectionStats(
                    document_count=len(self._documents),
                    total_terms=self._total_terms,
                    unique_terms=len(self._postings),
                )
            return self._stats_cache

    @property
    def average_document_length(self) -> float:
        return self.stats().average_document_length
