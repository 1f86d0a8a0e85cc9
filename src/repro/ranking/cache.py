"""Score caching and invocation counting around a black-box ranker.

Counterfactual search re-scores the same (query, text) pairs often — the
unperturbed top-k documents are re-ranked against every candidate
perturbation. :class:`ScoreCache` memoises those scores;
:class:`CountingRanker` counts true ranker invocations, giving the
efficiency benchmarks their cost metric (ranker calls, the dominant cost
when the ranker is a neural model).
"""

from __future__ import annotations

import hashlib
import threading
from typing import Sequence

from repro.index.document import Document
from repro.ranking.base import Ranker, Ranking
from repro.ranking.session import NaiveScoringSession, ScoringSession
from repro.utils.validation import require_positive


def _text_key(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


class CountingRanker(Ranker):
    """Transparent wrapper that counts scoring and ranking calls."""

    def __init__(self, inner: Ranker):
        super().__init__(inner.index)
        self.inner = inner
        self.score_calls = 0
        self.rank_calls = 0

    @property
    def name(self) -> str:
        return f"Counting({self.inner.name})"

    def reset(self) -> None:
        self.score_calls = 0
        self.rank_calls = 0

    def rank(self, query: str, k: int) -> Ranking:
        self.rank_calls += 1
        return self.inner.rank(query, k)

    def score_text(self, query: str, body: str) -> float:
        self.score_calls += 1
        return self.inner.score_text(query, body)

    # scoring_session deliberately stays the base-class naive fallback:
    # CountingRanker exists to measure true black-box invocations, so it
    # opts out of incremental reuse and counts one score_text per pool
    # document per candidate, exactly as before sessions existed.


class ScoreCache(Ranker):
    """Memoises ``score_text`` by (query, sha1(text)).

    The cache is bounded: when ``max_entries`` is exceeded the oldest
    half is discarded (simple segmented eviction — predictable and
    allocation-free compared to per-hit LRU bookkeeping).

    Invalidation: scores embed collection statistics (df, avgdl), so
    the whole cache is dropped when the index's mutation ``version``
    moves — a corpus add/remove through the runtime mutation surface
    must never serve pre-mutation scores. A score whose computation
    straddled a mutation is returned but not cached.

    Thread-safe: the cache dict and hit/miss counters are mutated under
    a lock (the service layer scores from multiple worker threads), but
    the wrapped ranker computes *outside* the lock so concurrent misses
    on different texts don't serialise. Two threads racing the same
    uncached key may both compute it — idempotent, so harmless.
    """

    def __init__(self, inner: Ranker, max_entries: int = 100_000):
        require_positive(max_entries, "max_entries")
        super().__init__(inner.index)
        self.inner = inner
        self.max_entries = max_entries
        self._cache: dict[tuple[str, str], float] = {}
        self._cache_version = inner.index.version
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @property
    def name(self) -> str:
        return f"Cached({self.inner.name})"

    @property
    def base(self) -> Ranker:
        return self.inner.base

    def rank(self, query: str, k: int) -> Ranking:
        return self.inner.rank(query, k)

    def _check_version_locked(self) -> int:
        version = self.index.version
        if version != self._cache_version:
            self._cache.clear()
            self._cache_version = version
        return version

    def score_text(self, query: str, body: str) -> float:
        key = (query, _text_key(body))
        with self._lock:
            version = self._check_version_locked()
            cached = self._cache.get(key)
            if cached is not None:
                self.hits += 1
                return cached
            self.misses += 1
        score = self.inner.score_text(query, body)
        with self._lock:
            if self._check_version_locked() != version:
                return score  # straddled a mutation; correct now, stale later
            if len(self._cache) >= self.max_entries:
                for stale in list(self._cache)[: self.max_entries // 2]:
                    del self._cache[stale]
            self._cache[key] = score
        return score

    def scoring_session(
        self, query: str, pool: Sequence[Document]
    ) -> ScoringSession:
        """Delegate to the wrapped ranker's incremental session.

        An incremental session precomputes exactly the scores the cache
        would have memoised, so layering the cache inside it would only
        add hashing overhead. If the inner ranker has no incremental
        session (a third-party black box on the naive fallback), keep
        the naive session pointed at *this* ranker so every repeated
        pool scoring still goes through the cache.
        """
        session = self.inner.scoring_session(query, pool)
        if type(session) is NaiveScoringSession:
            return NaiveScoringSession(self, query, pool)
        return session

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
