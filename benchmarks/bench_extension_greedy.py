"""Extension bench — greedy vs. exhaustive counterfactual search.

§II-C's exhaustive size-major enumeration guarantees minimality but its
cost is combinatorial in document length. This bench plants a long
document whose counterfactual needs three sentence removals and
compares the exhaustive search against the greedy grow-and-prune
strategy on (a) candidates evaluated and (b) explanation size (the
optimality gap).
"""

from __future__ import annotations

import pytest

from repro.core.document_cf import CounterfactualDocumentExplainer
from repro.eval.reporting import Table
from repro.index.document import Document
from repro.index.inverted import InvertedIndex
from repro.ranking.bm25 import Bm25Ranker

QUERY = "covid outbreak"
K = 3

# The target document spreads the query terms across three separated
# sentences inside a long body, so the minimal counterfactual has size 3
# and exhaustive search must wade through C(12, 1) + C(12, 2) + ...
_FILLER = [
    "City crews repaired the bridge lighting over the weekend.",
    "A local bakery won the regional pastry award.",
    "The library extended its evening opening hours.",
    "Transit planners sketched a new tram corridor.",
    "Volunteers cleaned the riverside path on Sunday.",
    "The museum unveiled a restored mural in the foyer.",
    "A startup demonstrated delivery robots downtown.",
    "The orchestra announced its spring programme.",
    "Farmers reported a strong cherry harvest.",
]

_TARGET_BODY = " ".join(
    [
        "The covid outbreak dominated the council meeting.",
        _FILLER[0],
        _FILLER[1],
        "Officials tied the covid outbreak to travel patterns.",
        _FILLER[2],
        _FILLER[3],
        _FILLER[4],
        "Residents asked how the covid outbreak would affect schools.",
        _FILLER[5],
        _FILLER[6],
        _FILLER[7],
        _FILLER[8],
    ]
)


@pytest.fixture(scope="module")
def ranker():
    documents = [
        Document("long-target", _TARGET_BODY),
        Document("covid-a", "The covid outbreak filled hospitals. Covid outbreak wards expanded."),
        Document("covid-b", "A covid outbreak closed the port. The outbreak disrupted covid testing."),
        Document("cushion", "An influenza outbreak closed two schools this week."),
        Document("noise-1", "Stock markets rallied on earnings."),
        Document("noise-2", "The stadium hosted the championship final."),
    ]
    return Bm25Ranker(InvertedIndex.from_documents(documents))


@pytest.mark.parametrize("strategy", ["exhaustive", "greedy"])
def test_extension_greedy_vs_exhaustive(ranker, strategy, capsys, benchmark):
    if strategy == "exhaustive":
        explainer = CounterfactualDocumentExplainer(ranker, max_evaluations=5000)
        run = lambda: explainer.explain(QUERY, "long-target", n=1, k=K)
    else:
        explainer = CounterfactualDocumentExplainer(ranker, search="greedy")
        run = lambda: explainer.explain(QUERY, "long-target", k=K)

    result = benchmark(run)

    table = Table(
        ["strategy", "found", "size", "candidates evaluated"],
        title="Extension — exhaustive (minimal) vs greedy (scalable) search",
    )
    table.add(
        strategy,
        len(result) > 0,
        result[0].size if len(result) else "-",
        result.candidates_evaluated,
    )
    with capsys.disabled():
        print()
        print(table.render())

    assert len(result) == 1
    explanation = result[0]
    assert explanation.new_rank > K
    # Both strategies should land on the 3-sentence counterfactual here;
    # greedy needs O(m) evaluations, exhaustive needs hundreds.
    assert explanation.size == 3
    # (importance ordering lets exhaustive stop early within the size-3
    # tier, but it still pays the full size-1 and size-2 tiers: C(12,1) +
    # C(12,2) = 78 evaluations before the first size-3 candidate.)
    if strategy == "greedy":
        assert result.candidates_evaluated <= 24
    else:
        assert result.candidates_evaluated >= 78
