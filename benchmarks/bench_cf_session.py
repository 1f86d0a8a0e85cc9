"""Scoring-session speedup — naive vs incremental counterfactual search.

The pre-session counterfactual loop re-analyzed and re-scored all k+1
pool documents for every candidate perturbation; the
:class:`~repro.ranking.session.ScoringSession` layer re-scores only the
changed document. This benchmark runs the same explanation request down
both paths (the naive one via the generic third-party fallback, which
preserves the old behaviour exactly), verifies the outputs are
identical, reports per-candidate wall-clock, and asserts the ≥5×
acceptance target at k=10 on a synthetic corpus.

Full runs write ``BENCH_cf_session.json`` next to this file (checked
in). ``CF_SESSION_SMOKE=1`` (used by ``scripts/check.sh``) runs one
quick round, keeps a relaxed assertion, and leaves the JSON untouched.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.document_cf import CounterfactualDocumentExplainer
from repro.eval.reporting import Table
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.ranking.base import Ranker
from repro.ranking.bm25 import Bm25Ranker
from repro.ranking.neural import train_neural_ranker

QUERY = "covid outbreak"
K = 10
#: Exhaustive instance: minimal counterfactual of size 3 found after the
#: full size-1/size-2 tiers (79 candidates).
TARGET = "long-target"
#: Greedy instance: 8 spread query-term sentences, so grow-and-prune
#: evaluates 16 candidates — enough to amortize the session's one-time
#: pool precomputation out of the per-candidate figure.
DEEP_TARGET = "deep-target"
SMOKE = os.environ.get("CF_SESSION_SMOKE") == "1"
ROUNDS = 1 if SMOKE else 5
# The acceptance target; smoke mode only guards against regressions so a
# loaded CI box doesn't flake the gate.
MIN_SPEEDUP = 1.5 if SMOKE else 5.0
JSON_PATH = Path(__file__).with_name("BENCH_cf_session.json")

_FILLER = [
    "City crews repaired the bridge lighting over the weekend",
    "A local bakery won the regional pastry award",
    "The library extended its evening opening hours",
    "Transit planners sketched a new tram corridor",
    "Volunteers cleaned the riverside path on Sunday",
    "The museum unveiled a restored mural in the foyer",
    "A startup demonstrated delivery robots downtown",
    "The orchestra announced its spring programme",
    "Farmers reported a strong cherry harvest",
]

# The instance document spreads the query terms over three separated
# sentences of a 12-sentence body, so the minimal counterfactual has
# size 3: exhaustive search wades through every size-1/size-2 candidate
# first — hundreds of substituted re-rankings over a full k+1 pool.
_TARGET_BODY = ". ".join(
    [
        "The covid outbreak dominated the council meeting",
        _FILLER[0],
        _FILLER[1],
        "Officials tied the covid outbreak to travel patterns",
        _FILLER[2],
        _FILLER[3],
        _FILLER[4],
        "Residents asked how the covid outbreak would affect schools",
        _FILLER[5],
        _FILLER[6],
        _FILLER[7],
        _FILLER[8],
    ]
) + "."


def _deep_body() -> str:
    parts = []
    for j in range(8):
        parts.append(f"Ward {j} logged another covid outbreak case")
        parts.append(_FILLER[j % 9])
    return ". ".join(parts) + "."


def _corpus() -> list[Document]:
    documents = [
        Document(TARGET, _TARGET_BODY),
        Document(DEEP_TARGET, _deep_body()),
    ]
    # Eight strong on-topic documents plus one weak on-topic document the
    # instances beat: both targets start inside the top-10, and gutting
    # their covid sentences drops them to rank 11 (> k).
    for i in range(K - 2):
        documents.append(
            Document(
                f"covid-{i:02d}",
                f"The covid outbreak filled hospitals in area {i}. "
                f"Covid outbreak wards expanded. {_FILLER[i % 9]}.",
            )
        )
    documents.append(
        Document(
            "covid-weak",
            f"A covid briefing closed quietly. {_FILLER[0]}. {_FILLER[1]}. "
            f"{_FILLER[2]}. {_FILLER[3]}. {_FILLER[4]}.",
        )
    )
    for i in range(8):
        documents.append(
            Document(
                f"noise-{i:02d}",
                f"{_FILLER[i % 9]}. {_FILLER[(i + 2) % 9]}. "
                f"Markets moved on item {i}.",
            )
        )
    return documents


class OpaqueRanker(Ranker):
    """Hides the inner ranker's session: explainers driving it fall back
    to the generic naive session — the exact pre-session code path."""

    def __init__(self, inner: Ranker):
        super().__init__(inner.index)
        self.inner = inner

    @property
    def name(self) -> str:
        return f"Opaque({self.inner.name})"

    def rank(self, query, k):
        return self.inner.rank(query, k)

    def score_text(self, query, body):
        return self.inner.score_text(query, body)

    def rank_candidates(self, query, candidates):
        return self.inner.rank_candidates(query, candidates)


@pytest.fixture(scope="module")
def index():
    return InvertedIndex.from_documents(_corpus())


@pytest.fixture(scope="module")
def rankers(index):
    rankers = {"bm25": Bm25Ranker(index)}
    if not SMOKE:
        rankers["neural"] = train_neural_ranker(
            index, [QUERY, "library opening hours"], epochs=6, seed=5
        )
    return rankers


def _timed(explainer_factory, ranker, target, rounds=ROUNDS):
    """(best seconds per run, result of the last run)."""
    explainer = explainer_factory(ranker)
    result = None
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        result = explainer.explain(QUERY, target, n=1, k=K)
        best = min(best, time.perf_counter() - start)
    return best, result


def _fingerprint(result):
    payload = result.to_dict()
    payload.pop("physical_scorings")
    return payload


def _compare(explainer_factory, ranker, target, strategy_label, ranker_label):
    session_s, session_result = _timed(explainer_factory, ranker, target)
    naive_s, naive_result = _timed(
        explainer_factory, OpaqueRanker(ranker), target
    )
    # The whole point of the session layer: same outputs, fewer scorings.
    assert _fingerprint(session_result) == _fingerprint(naive_result)
    assert len(session_result) >= 1, "benchmark corpus must yield an explanation"
    candidates = session_result.candidates_evaluated
    return {
        "ranker": ranker_label,
        "strategy": strategy_label,
        "k": K,
        "candidates_evaluated": candidates,
        "explanation_size": session_result[0].size,
        "naive_seconds": round(naive_s, 6),
        "session_seconds": round(session_s, 6),
        "naive_per_candidate_ms": round(1000 * naive_s / candidates, 4),
        "session_per_candidate_ms": round(1000 * session_s / candidates, 4),
        "naive_physical_scorings": naive_result.physical_scorings,
        "session_physical_scorings": session_result.physical_scorings,
        "speedup": round(naive_s / session_s, 2),
    }


def test_session_speedup(rankers, capsys):
    rows = []
    for ranker_label, ranker in rankers.items():
        rows.append(
            _compare(
                lambda r: CounterfactualDocumentExplainer(r, max_evaluations=600),
                ranker,
                TARGET,
                "document_cf/exhaustive",
                ranker_label,
            )
        )
        rows.append(
            _compare(
                lambda r: CounterfactualDocumentExplainer(r, search="greedy"),
                ranker,
                DEEP_TARGET,
                "greedy/grow-prune",
                ranker_label,
            )
        )

    table = Table(
        ["ranker", "strategy", "cands", "naive ms/cand",
         "session ms/cand", "physical naive→session", "speedup"],
        title=f"scoring sessions vs naive re-ranking (k={K}, best of {ROUNDS})",
    )
    for row in rows:
        table.add(
            row["ranker"],
            row["strategy"],
            row["candidates_evaluated"],
            row["naive_per_candidate_ms"],
            row["session_per_candidate_ms"],
            f"{row['naive_physical_scorings']}→{row['session_physical_scorings']}",
            f"{row['speedup']}x",
        )
    with capsys.disabled():
        print()
        print(table.render())

    if not SMOKE:
        JSON_PATH.write_text(
            json.dumps(
                {"query": QUERY, "k": K, "rounds": ROUNDS, "results": rows},
                indent=2,
            )
            + "\n"
        )

    for row in rows:
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{row['ranker']}/{row['strategy']}: speedup {row['speedup']}x "
            f"below the {MIN_SPEEDUP}x target"
        )
