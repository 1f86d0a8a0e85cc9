"""Ranker interfaces and ranking containers.

Terminology follows the paper (§II-A): a ranking model ``M`` maps a query
``q`` over an indexed corpus ``D`` to an ordered list ``D_M`` of the top-k
documents; ``R(q, d, D, M)`` is the rank assigned to document ``d``.
Rankers are treated as black boxes by everything in :mod:`repro.core`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.errors import RankingError
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.utils.validation import require_positive

if TYPE_CHECKING:  # session imports base; keep the cycle type-only
    from repro.ranking.session import ScoringSession


@dataclass(frozen=True)
class RankedDocument:
    """A document's position in a ranking (rank is 1-based)."""

    doc_id: str
    score: float
    rank: int


class Ranking:
    """An immutable ordered list of ranked documents.

    Ranks are always the contiguous integers ``1..len(ranking)``; the
    constructor re-derives them from score order given an already-ordered
    sequence, so a ``Ranking`` can never hold duplicate or gapped ranks.
    """

    def __init__(self, entries: Sequence[RankedDocument]):
        expected = list(range(1, len(entries) + 1))
        if [entry.rank for entry in entries] != expected:
            raise RankingError(
                "ranking entries must be ordered with contiguous 1-based ranks"
            )
        seen: set[str] = set()
        for entry in entries:
            if entry.doc_id in seen:
                raise RankingError(f"duplicate document in ranking: {entry.doc_id!r}")
            seen.add(entry.doc_id)
        self._entries = tuple(entries)
        self._rank_by_id = {entry.doc_id: entry.rank for entry in entries}

    @classmethod
    def from_scores(cls, scored: Sequence[tuple[str, float]]) -> "Ranking":
        """Build a ranking from (doc_id, score) pairs.

        Ties are broken by input order so results stay deterministic.
        """
        ordered = sorted(
            enumerate(scored), key=lambda pair: (-pair[1][1], pair[0])
        )
        entries = [
            RankedDocument(doc_id=doc_id, score=score, rank=rank)
            for rank, (_, (doc_id, score)) in enumerate(ordered, start=1)
        ]
        return cls(entries)

    def __iter__(self) -> Iterator[RankedDocument]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, position: int) -> RankedDocument:
        return self._entries[position]

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._rank_by_id

    @property
    def doc_ids(self) -> list[str]:
        return [entry.doc_id for entry in self._entries]

    def rank_of(self, doc_id: str) -> int | None:
        """1-based rank of ``doc_id``, or None if unranked."""
        return self._rank_by_id.get(doc_id)

    def score_of(self, doc_id: str) -> float | None:
        for entry in self._entries:
            if entry.doc_id == doc_id:
                return entry.score
        return None

    def entry(self, doc_id: str) -> RankedDocument:
        rank = self.rank_of(doc_id)
        if rank is None:
            raise RankingError(f"document {doc_id!r} not in ranking")
        return self._entries[rank - 1]

    def top(self, k: int) -> "Ranking":
        require_positive(k, "k")
        return Ranking(self._entries[:k])

    def to_dicts(self) -> list[dict]:
        return [
            {"doc_id": e.doc_id, "score": e.score, "rank": e.rank}
            for e in self._entries
        ]

    def __repr__(self) -> str:
        preview = ", ".join(f"{e.rank}:{e.doc_id}" for e in self._entries[:5])
        suffix = ", ..." if len(self._entries) > 5 else ""
        return f"Ranking([{preview}{suffix}])"


class Ranker(ABC):
    """The ranking model ``M``: a black box over an indexed corpus.

    Concrete rankers share the corpus index (for candidate retrieval and
    collection statistics) but may score however they like. The two
    abstract methods are the *entire* surface the explainers rely on.
    """

    def __init__(self, index: InvertedIndex):
        self.index = index

    @property
    def name(self) -> str:
        return type(self).__name__

    @property
    def base(self) -> "Ranker":
        """The model itself, beneath any score cache (see
        :class:`~repro.ranking.cache.ScoreCache`)."""
        return self

    @abstractmethod
    def rank(self, query: str, k: int) -> Ranking:
        """Return the top-``k`` ranking ``D_M`` for ``query``."""

    @abstractmethod
    def score_text(self, query: str, body: str) -> float:
        """Score arbitrary document text against ``query``.

        Must accept text that is *not* in the index: counterfactual search
        scores perturbed documents without mutating the corpus, mirroring
        how the demo re-ranks edited documents. Collection statistics are
        taken from the unperturbed index.
        """

    def rank_candidates(self, query: str, candidates: Sequence[Document]) -> Ranking:
        """Rank an explicit candidate set by :meth:`score_text`.

        This is the re-ranking primitive behind every counterfactual
        check: candidates may include perturbed documents.
        """
        if not candidates:
            raise RankingError("cannot rank an empty candidate set")
        scored = [
            (document.doc_id, self.score_text(query, document.body))
            for document in candidates
        ]
        return Ranking.from_scores(scored)

    def scoring_session(
        self, query: str, pool: Sequence[Document]
    ) -> "ScoringSession":
        """Open an incremental re-ranking session over a fixed pool.

        The counterfactual explainers drive their inner loops through
        the returned :class:`~repro.ranking.session.ScoringSession` so
        that each candidate perturbation re-scores only the changed
        document. This default returns the generic
        :class:`~repro.ranking.session.NaiveScoringSession`, which
        preserves the exact pre-session behavior (a full
        :meth:`rank_candidates` pass per candidate) for any third-party
        ranker; the built-in rankers override it with O(1-changed-doc)
        implementations.
        """
        from repro.ranking.session import NaiveScoringSession

        return NaiveScoringSession(self, query, pool)


@dataclass
class RankingFunction:
    """The paper's ``R(q, d, D, M)`` with invocation accounting.

    Wraps a ranker and counts how many query–document scorings the
    counterfactual search performs — the cost metric reported by the
    efficiency benchmarks. ``calls`` counts *logical* scorings (one per
    candidate document per evaluation, the paper's metric);
    ``physical_scorings`` counts texts actually pushed through the
    model, which scoring sessions make much smaller.
    """

    ranker: Ranker
    calls: int = 0
    physical_scorings: int = 0
    _last_ranking: Ranking | None = field(default=None, repr=False)

    def rank_within(
        self, query: str, doc_id: str, candidates: Sequence[Document]
    ) -> int:
        """Rank of ``doc_id`` when ``candidates`` are ranked for ``query``."""
        self.calls += len(candidates)
        self.physical_scorings += len(candidates)
        ranking = self.ranker.rank_candidates(query, candidates)
        self._last_ranking = ranking
        rank = ranking.rank_of(doc_id)
        if rank is None:
            raise RankingError(f"{doc_id!r} missing from candidate ranking")
        return rank

    @property
    def last_ranking(self) -> Ranking | None:
        """The full ranking produced by the most recent call."""
        return self._last_ranking

    def reset(self) -> None:
        self.calls = 0
        self.physical_scorings = 0
        self._last_ranking = None
