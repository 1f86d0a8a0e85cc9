"""Seeded inputs for every workload.

Each generator is a pure function of ``seed``: the same seed yields the
same list, and the program under test only ever sees the result. Items
name queries and instance documents by position (query ``q`` of the
workload's query list, the document at rank ``d`` of that query's
top-10), so the inputs are fixed before any engine exists and are
resolved against the engine's own ranking at run time.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Any

#: ``search=None`` keeps each family's default search.
SEARCHES: tuple[str | None, ...] = (None, "greedy", "beam", "anytime")

DEMO_STRATEGIES = (
    "document/sentence-removal",
    "query/augmentation",
    "instance/cosine",
    "instance/doc2vec",
)

#: The lexical strategies: no Doc2Vec, so no retrain after a write.
LEXICAL_STRATEGIES = DEMO_STRATEGIES[:3]

#: Demo training queries and top-k depth the demo pool spans.
DEMO_QUERIES = 10
DEMO_DEPTH = 10

#: REST instance documents come from the top-7 of the top-10, so the
#: small statistics shift of a concurrent write cannot push one out.
REST_DEPTH = 7


@dataclass(frozen=True)
class Explain:
    query: int
    rank: int
    strategy: str
    search: str | None


@dataclass(frozen=True)
class Build:
    query: int
    rank: int
    ops: tuple[tuple[str, Any], ...]


@dataclass(frozen=True)
class RestOp:
    """One scheduled REST request: ``kind`` is explain, rank, rerank,
    add or delete; ``ref`` is the template or write-document number."""

    due: float
    kind: str
    ref: Any


def _builder_ops(rng: random.Random) -> tuple[tuple[str, Any], ...]:
    """A scripted edit: remove one or two leading sentences, optionally
    drop the first query term (resolved against the query at run time)."""
    ops: list[tuple[str, Any]] = [
        ("remove_sentences", tuple(sorted(rng.sample(range(3), rng.randint(1, 2)))))
    ]
    if rng.random() < 0.5:
        ops.append(("remove_query_term", 0))
    return tuple(ops)


def demo_pool(seed: int) -> list[Explain | Build]:
    """10 queries x top-10 x 4 strategies x 4 searches, plus one seeded
    scripted builder edit per (query, document).

    The (query, document) pairs come in seeded order; each pair's
    requests run together in a fixed order, as a user working through
    one result's views would, so every seed meets the same warm and cold
    caches.
    """
    rng = random.Random(seed)
    pairs = list(itertools.product(range(DEMO_QUERIES), range(DEMO_DEPTH)))
    rng.shuffle(pairs)
    items: list[Explain | Build] = []
    for query, rank in pairs:
        items += [
            Explain(query, rank, strategy, search)
            for strategy, search in itertools.product(DEMO_STRATEGIES, SEARCHES)
        ]
        items.append(Build(query, rank, _builder_ops(rng)))
    return items


def zipf_plan(seed: int, queries: int) -> list[Explain]:
    """One instance document per stream query, each with its 12 (lexical
    strategy, search) explains in a fixed order, the queries in seeded
    order.

    The instance is a pick from the query's top-10 drawn with a fixed
    seed, so every run explains the same (query, document) pairs and
    ``cf_yield`` does not move with the seed; the seed orders them.
    """
    picks = random.Random(0)
    pairs = [(query, picks.randrange(DEMO_DEPTH)) for query in range(queries)]
    random.Random(seed).shuffle(pairs)
    return [
        Explain(query, rank, strategy, search)
        for query, rank in pairs
        for strategy, search in itertools.product(LEXICAL_STRATEGIES, SEARCHES)
    ]


def rest_templates(seed: int) -> dict[str, list]:
    """The REST template pools, each in a fixed popularity order.

    The order is the same for every seed, so each run's request mix has
    the same Zipf head; the seed picks the scripted builder edits and
    the arrival order.
    """
    rng = random.Random(0)
    edits = random.Random(seed)
    explains = [
        Explain(query, rank, strategy, search)
        for query, rank, strategy, search in itertools.product(
            range(DEMO_QUERIES), range(REST_DEPTH), LEXICAL_STRATEGIES, SEARCHES
        )
    ]
    ranks = list(range(DEMO_QUERIES))
    rerank = [
        Build(query, rank, _builder_ops(edits))
        for query, rank in itertools.product(range(DEMO_QUERIES), range(REST_DEPTH))
    ]
    for pool in (explains, ranks, rerank):
        rng.shuffle(pool)
    return {"explain": explains, "rank": ranks, "rerank": rerank}


#: Zipf exponent of template popularity. An assumption: nothing records
#: how clients use the REST API. An exponent near 1 is the usual model of
#: query popularity. At 1.1, about two fifths of the reference step's
#: explains repeat an earlier one.
ZIPF_EXPONENT = 1.1


def zipf_picks(pool_size: int, count: int, exponent: float = ZIPF_EXPONENT) -> list[int]:
    """``count`` template numbers whose multiplicities follow a Zipf law
    over ``pool_size`` popularity ranks (systematic sampling: no draws,
    so every run gets the same multiset)."""
    cumulative = list(
        itertools.accumulate(1.0 / (rank + 1) ** exponent for rank in range(pool_size))
    )
    total = cumulative[-1]
    return [
        bisect.bisect_left(cumulative, (position + 0.5) / count * total)
        for position in range(count)
    ]


#: Writes are ~5% of requests (add/delete pairs).
WRITE_SHARE = 0.05
#: Reads follow the paper's four-view flow: an analyst ranks a query
#: once (``POST /rank``), opens the document, query and instance views
#: of one result (three ``POST /explanations``) and edits it in the
#: builder view (one ``POST /builder/rerank``). So reads are rank,
#: explain and rerank in the ratio 1 : 3 : 1.
READ_RATIO = {"rank": 1, "explain": 3, "rerank": 1}

#: The seed shuffles reads within blocks of this many. An assumption
#: made for steadiness: small blocks keep every seed's repeat distances,
#: and so its store hits, close to the canonical order's.
SHUFFLE_BLOCK = 4


def rest_schedule(seed: int, steps: list[tuple[float, float]]) -> list[list[RestOp]]:
    """Open-loop schedules, one per (rate, seconds) ladder step.

    Requests are evenly spaced at the step's rate. Each step sends a
    fixed multiset (the mix above; Zipf-repeated templates) in a seeded
    order. Write slots are evenly spaced and alternate between adding a
    fresh generated document and deleting the one added before it, so
    the corpus size stays stationary and every step ends with its
    documents deleted.
    """
    rng = random.Random(seed)
    sizes = {name: len(pool) for name, pool in rest_templates(seed).items()}
    documents = itertools.count()
    schedule = []
    for rate, seconds in steps:
        total = int(round(rate * seconds))
        writes = 2 * round(total * WRITE_SHARE / 2)
        unit = (total - writes) / sum(READ_RATIO.values())
        ranks = round(unit * READ_RATIO["rank"])
        reranks = round(unit * READ_RATIO["rerank"])
        explains = total - writes - ranks - reranks
        reads = (
            [("rank", pick) for pick in zipf_picks(sizes["rank"], ranks)]
            + [("rerank", pick) for pick in zipf_picks(sizes["rerank"], reranks)]
            + [("explain", pick) for pick in zipf_picks(sizes["explain"], explains)]
        )
        # One canonical order for every seed; the seed shuffles reads only
        # within blocks of SHUFFLE_BLOCK, so each run repeats templates at
        # about the same distances and sees about the same store hits.
        random.Random(0).shuffle(reads)
        for start in range(0, len(reads), SHUFFLE_BLOCK):
            block = reads[start:start + SHUFFLE_BLOCK]
            rng.shuffle(block)
            reads[start:start + SHUFFLE_BLOCK] = block
        # Writes sit at even intervals, so every run invalidates the
        # store equally often.
        spacing = total / max(writes, 1)
        write_slots = {int(spacing * (number + 0.5)) for number in range(writes)}
        reads = iter(reads)
        ops, pending = [], None
        for position in range(total):
            due = position / rate
            if position not in write_slots:
                ops.append(RestOp(due, *next(reads)))
            elif pending is None:
                pending = next(documents)
                ops.append(RestOp(due, "add", pending))
            else:
                ops.append(RestOp(due, "delete", pending))
                pending = None
        schedule.append(ops)
    return schedule


_SYLLABLES = ("zor", "vek", "quil", "brax", "tum", "plo", "ghen", "yst", "dra", "mok")


def write_document(seed: int, number: int) -> dict:
    """A generated document for the REST write path.

    Its words are nonsense syllable compounds that no demo query or
    corpus document uses, so adding it shifts collection statistics
    but never enters a pool query's top-10.
    """
    rng = random.Random(f"{seed}:{number}")
    sentences = []
    for _ in range(rng.randint(3, 5)):
        words = [
            "".join(rng.choice(_SYLLABLES) for _ in range(3))
            for _ in range(rng.randint(5, 9))
        ]
        sentences.append(" ".join(words).capitalize() + ".")
    return {"doc_id": f"bench-write-{seed}-{number}", "body": " ".join(sentences)}
