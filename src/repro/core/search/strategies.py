"""Search strategies over :class:`~repro.core.search.problem.SearchProblem`.

Four ways to explore one candidate space:

* :class:`ExhaustiveSearch` — the paper's size-major / score-descending
  enumeration (§II-C/§II-D). Guarantees the first valid counterfactual
  found is minimal; byte-identical to the pre-kernel explainer loops.
* :class:`GreedySearch` — grow-then-prune (subset-minimal, one
  explanation, at most ``2·m`` evaluations); works for every family.
* :class:`BeamSearch` — width-``b`` frontier over multi-edit
  combinations, ordered by the problem's ``progress`` signal. Finds
  multi-edit counterfactuals without the combinatorial cost of
  exhaustive enumeration (and without its minimality guarantee).
* :class:`AnytimeSearch` — best-so-far under a deadline/budget: a
  greedy pass secures a quick incumbent, then size-major refinement
  looks for strictly smaller counterfactuals until the budget or
  deadline expires. Never raises on exhaustion by design.

Every strategy returns ``(explanations, SearchTrace)``; explainers fold
the trace into their :class:`~repro.core.types.ExplanationSet`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from typing import Protocol, runtime_checkable

from repro.core.search.budget import (
    UNLIMITED,
    BudgetMeter,
    SearchBudget,
    SearchTrace,
    budget_stop,
)
from repro.core.search.problem import SearchProblem
from repro.core.search.progress import emit_progress
from repro.errors import ConfigurationError
from repro.obs.trace import span as obs_span
from repro.utils.iteration import ordered_subsets
from repro.utils.validation import require_positive

#: Default beam width for :class:`BeamSearch` (the REST/CLI default).
DEFAULT_BEAM_WIDTH = 4


@runtime_checkable
class SearchStrategy(Protocol):
    """What every search strategy implements."""

    name: str

    def search(
        self, problem: SearchProblem, n: int, budget: SearchBudget = UNLIMITED
    ) -> tuple[list, SearchTrace]: ...


def _new_trace(name: str, problem: SearchProblem) -> SearchTrace:
    return SearchTrace(
        strategy=name, candidates_evaluated=problem.generation_evaluations
    )


def _spent(trace: SearchTrace, problem: SearchProblem) -> int:
    """Evaluations the *strategy* has spent so far.

    ``candidates_evaluated`` also carries the problem's
    ``generation_evaluations`` (historical accounting for instance
    selection); those were paid before the search started and must not
    consume the request budget — ``budget=b`` evaluates exactly ``b``
    candidates.
    """
    return trace.candidates_evaluated - problem.generation_evaluations


def _size_major_scan(
    problem: SearchProblem,
    n: int,
    budget: SearchBudget,
    meter: BudgetMeter,
    trace: SearchTrace,
    found: list,
    max_size: int,
    honour_raise: bool = True,
    skip: set[frozenset] | None = None,
    incumbent=None,
) -> bool:
    """The §II-C/§II-D enumeration loop shared by exhaustive and anytime.

    ``skip`` holds combinations already evaluated (and known invalid) by
    an earlier phase — they are passed over without a budget charge.
    ``incumbent`` is anytime's phase-1 best-so-far, reported to any
    installed progress sink while refinement has found nothing smaller.
    Returns True when the enumeration ran to completion, False when it
    stopped early (budget/deadline, or ``n`` explanations found).
    """
    for combo, total_score in ordered_subsets(
        range(len(problem.candidates)), problem.scores, max_size=max_size
    ):
        if not problem.combinable(combo):
            continue
        if skip is not None and frozenset(combo) in skip:
            continue
        reason = meter.exhausted(_spent(trace, problem))
        if reason is not None:
            if honour_raise:
                budget_stop(trace, reason, budget, found, n)
            else:
                trace.stop(reason)
            return False
        rank = problem.evaluate(combo)
        trace.charge(problem)
        if problem.is_valid(rank):
            found.append(problem.explanation(combo, total_score, rank))
            emit_progress(trace, meter, found, spent=_spent(trace, problem))
            if len(found) >= n:
                return False
        else:
            emit_progress(
                trace, meter, found,
                incumbent=incumbent if not found else None,
                spent=_spent(trace, problem),
            )
    return True


def _grow_and_prune(
    problem: SearchProblem,
    budget: SearchBudget,
    meter: BudgetMeter,
    trace: SearchTrace,
    found: list,
    n: int,
    honour_raise: bool = True,
    evaluated: set[frozenset] | None = None,
):
    """Greedy grow-then-prune; returns ``(combo, explanation)`` or None.

    Grow adds candidates in descending score order until the combination
    is valid; prune then tries dropping each grown candidate (ascending
    score) while staying valid. Budget exhaustion before a valid
    combination exists stops with the trace flagged (raising if the
    budget says so); exhaustion mid-prune keeps the current valid
    result — a budget can truncate refinement, not a found answer.
    """
    candidates = problem.candidates
    scores = problem.scores
    order = sorted(range(len(candidates)), key=lambda i: (-scores[i], i))
    grown: list[int] = []
    final_rank: int | None = None
    for position in order:
        if len(grown) >= problem.max_size:
            break
        trial = (*grown, position)
        if not problem.combinable(trial):
            continue
        reason = meter.exhausted(_spent(trace, problem))
        if reason is not None:
            if honour_raise:
                budget_stop(trace, reason, budget, found, n)
            else:
                trace.stop(reason)
            return None
        rank = problem.evaluate(trial)
        trace.charge(problem)
        emit_progress(trace, meter, found, spent=_spent(trace, problem))
        if evaluated is not None:
            evaluated.add(frozenset(trial))
        grown.append(position)
        if problem.is_valid(rank):
            final_rank = rank
            break
    if final_rank is None:
        return None

    for position in sorted(grown, key=lambda i: (scores[i], i)):
        if len(grown) == 1:
            break
        trial = tuple(i for i in grown if i != position)
        if meter.exhausted(_spent(trace, problem)) is not None:
            # The answer below is complete; exhaustion here only cuts
            # its optional minimisation short — no flag (the flags mean
            # the *search* was cut, not its polish).
            break
        rank = problem.evaluate(trial)
        trace.charge(problem)
        emit_progress(trace, meter, found, spent=_spent(trace, problem))
        if evaluated is not None:
            evaluated.add(frozenset(trial))
        if problem.is_valid(rank):
            grown = list(trial)
            final_rank = rank

    combo = tuple(grown)
    return combo, problem.explanation(
        combo, problem.total_score(combo), final_rank
    )


@dataclass(frozen=True)
class ExhaustiveSearch:
    """Size-major / score-descending enumeration — the paper's search.

    The first valid counterfactual found is guaranteed minimal: "all
    perturbations with j removals must be evaluated before those with
    j + 1".
    """

    name = "exhaustive"

    def search(
        self, problem: SearchProblem, n: int, budget: SearchBudget = UNLIMITED
    ) -> tuple[list, SearchTrace]:
        trace = _new_trace(self.name, problem)
        found: list = []
        if not problem.candidates:
            trace.search_exhausted = True
            return found, trace
        meter = budget.meter()
        completed = _size_major_scan(
            problem, n, budget, meter, trace, found, problem.max_size
        )
        if completed:
            trace.search_exhausted = True
        return found, trace


@dataclass(frozen=True)
class GreedySearch:
    """Grow-then-prune: subset-minimal, single explanation, O(m) cost."""

    name = "greedy"

    def search(
        self, problem: SearchProblem, n: int, budget: SearchBudget = UNLIMITED
    ) -> tuple[list, SearchTrace]:
        trace = _new_trace(self.name, problem)
        found: list = []
        if not problem.candidates or problem.max_size == 0:
            trace.search_exhausted = True
            return found, trace
        meter = budget.meter()
        grown = _grow_and_prune(problem, budget, meter, trace, found, n)
        if grown is None:
            if not (trace.budget_exhausted or trace.deadline_exceeded):
                trace.search_exhausted = True
            return found, trace
        _, explanation = grown
        found.append(explanation)
        return found, trace


@dataclass(frozen=True)
class BeamSearch:
    """Width-``b`` beam over multi-edit combinations.

    Each depth extends every frontier combination by one unused
    candidate, evaluates the children, harvests the valid ones, and
    keeps the ``beam_width`` most promising invalid ones — ordered by
    the problem's ``progress`` signal (e.g. how far the document has
    been demoted), then by candidate scores. Reaches multi-edit
    counterfactuals with ``O(depth · b · m)`` evaluations instead of
    exhaustive's ``O(C(m, depth))``, trading away the global-minimality
    guarantee.
    """

    beam_width: int = DEFAULT_BEAM_WIDTH
    name = "beam"

    def __post_init__(self):
        require_positive(self.beam_width, "beam_width")

    def search(
        self, problem: SearchProblem, n: int, budget: SearchBudget = UNLIMITED
    ) -> tuple[list, SearchTrace]:
        trace = _new_trace(self.name, problem)
        found: list = []
        candidates = problem.candidates
        if not candidates or problem.max_size == 0:
            trace.search_exhausted = True
            return found, trace
        meter = budget.meter()
        beam: list[tuple[int, ...]] = [()]
        seen: set[frozenset[int]] = set()
        for _depth in range(1, problem.max_size + 1):
            children: list[tuple[float, float, tuple[int, ...]]] = []
            for state in beam:
                for position in range(len(candidates)):
                    if position in state:
                        continue
                    combo = (*state, position)
                    key = frozenset(combo)
                    if key in seen:
                        continue
                    seen.add(key)
                    if not problem.combinable(combo):
                        continue
                    reason = meter.exhausted(_spent(trace, problem))
                    if reason is not None:
                        budget_stop(trace, reason, budget, found, n)
                        return found, trace
                    rank = problem.evaluate(combo)
                    trace.charge(problem)
                    emit_progress(
                        trace, meter, found, spent=_spent(trace, problem)
                    )
                    if problem.is_valid(rank):
                        found.append(
                            problem.explanation(
                                combo, problem.total_score(combo), rank
                            )
                        )
                        emit_progress(
                            trace, meter, found, spent=_spent(trace, problem)
                        )
                        if len(found) >= n:
                            return found, trace
                        continue  # a valid combination is a result, not frontier
                    children.append(
                        (problem.progress(rank), problem.total_score(combo), combo)
                    )
            if not children:
                break
            children.sort(key=lambda entry: (-entry[0], -entry[1], entry[2]))
            beam = [combo for _, _, combo in children[: self.beam_width]]
        trace.search_exhausted = True
        return found, trace


@dataclass(frozen=True)
class AnytimeSearch:
    """Best-so-far search under a wall-clock deadline or evaluation budget.

    Phase 1 runs grow-and-prune for a fast incumbent; phase 2 runs the
    exhaustive size-major enumeration *below the incumbent's size*,
    replacing it with strictly smaller counterfactuals as they appear.
    Whatever has been found when the budget or deadline expires is
    returned — this strategy never raises
    :class:`~repro.errors.ExplanationBudgetExceeded`, regardless of
    ``raise_on_budget``.
    """

    name = "anytime"

    def search(
        self, problem: SearchProblem, n: int, budget: SearchBudget = UNLIMITED
    ) -> tuple[list, SearchTrace]:
        trace = _new_trace(self.name, problem)
        found: list = []
        if not problem.candidates:
            trace.search_exhausted = True
            return found, trace
        meter = budget.meter()
        # Phase-1 combinations at or below the refinement cap are all
        # invalid (a valid one would have become the incumbent, whose
        # size exceeds the cap) — record them so refinement never
        # re-evaluates, and never double-charges the budget for, a
        # combination greedy already tried.
        evaluated: set[frozenset] = set()
        incumbent = _grow_and_prune(
            problem, budget, meter, trace, found, n,
            honour_raise=False, evaluated=evaluated,
        )
        stopped = trace.budget_exhausted or trace.deadline_exceeded
        if incumbent is not None:
            emit_progress(
                trace, meter, found,
                incumbent=incumbent[1], spent=_spent(trace, problem),
            )
        refine_cap = (
            len(incumbent[0]) - 1
            if incumbent is not None and n == 1
            else problem.max_size
        )
        completed = False
        if not stopped and refine_cap >= 1:
            completed = _size_major_scan(
                problem,
                n,
                budget,
                meter,
                trace,
                found,
                refine_cap,
                honour_raise=False,
                skip=evaluated,
                incumbent=None if incumbent is None else incumbent[1],
            )
        elif not stopped:
            completed = True  # nothing smaller than a 1-edit incumbent exists
        if incumbent is not None and len(found) < n:
            found.append(incumbent[1])
        if completed and len(found) < n:
            trace.search_exhausted = True
        return found, trace


def _traced_search(search):
    """Wrap a strategy's ``search`` in one ``search/run`` span.

    One span per run with end-set attributes — never a span per
    candidate; the kernel's inner loop must stay span-free (see
    :mod:`repro.obs.trace`). A budget overrun raised out of the run
    still closes the span (with an ``error`` attribute). When no trace
    is active the wrapper costs one ``getattr``.
    """

    @wraps(search)
    def traced(self, problem, n, budget=UNLIMITED):
        with obs_span("search/run", strategy=self.name) as span:
            found, trace = search(self, problem, n, budget)
            span.set(
                candidates_evaluated=trace.candidates_evaluated,
                ranker_calls=trace.ranker_calls,
                explanations_found=len(found),
                budget_spent=_spent(trace, problem),
                physical_scorings=problem.physical_scorings,
                budget_exhausted=trace.budget_exhausted,
                deadline_exceeded=trace.deadline_exceeded,
            )
            return found, trace

    return traced


for _strategy in (ExhaustiveSearch, GreedySearch, BeamSearch, AnytimeSearch):
    _strategy.search = _traced_search(_strategy.search)


#: Registered search-strategy names (REST/CLI validation, docs).
SEARCH_STRATEGIES = ("anytime", "beam", "exhaustive", "greedy")


def build_strategy(
    name: str, *, beam_width: int = DEFAULT_BEAM_WIDTH
) -> SearchStrategy:
    """Construct a strategy by registered name.

    Raises :class:`~repro.errors.ConfigurationError` for unknown names
    (the REST layer maps it to 400, the CLI to exit code 2).
    """
    if name == "exhaustive":
        return ExhaustiveSearch()
    if name == "greedy":
        return GreedySearch()
    if name == "beam":
        return BeamSearch(beam_width=beam_width)
    if name == "anytime":
        return AnytimeSearch()
    raise ConfigurationError(
        f"unknown search strategy: {name!r} "
        f"(known: {', '.join(SEARCH_STRATEGIES)})"
    )


def resolve_strategy(
    search,
    *,
    default: SearchStrategy | None = None,
    beam_width: int = DEFAULT_BEAM_WIDTH,
) -> SearchStrategy:
    """Normalise an explainer's ``search`` argument to a strategy.

    Accepts a strategy instance, a registered name, or ``None`` (the
    caller's ``default``, itself defaulting to exhaustive).
    """
    if search is None:
        return default if default is not None else ExhaustiveSearch()
    if isinstance(search, str):
        return build_strategy(search, beam_width=beam_width)
    return search


def search_overrides(request) -> tuple[SearchStrategy | None, SearchBudget | None]:
    """Per-request (strategy, budget) overrides from an
    :class:`~repro.core.explain.ExplainRequest`-shaped object.

    ``None`` in either slot means "keep the explainer's default", so a
    request that names no search options is byte-identical to the
    pre-kernel behaviour.
    """
    search = None
    if request.search is not None:
        search = build_strategy(request.search, beam_width=request.beam_width)
    budget = None
    if request.budget is not None or request.deadline_ms is not None:
        budget = SearchBudget(
            max_evaluations=request.budget, deadline_ms=request.deadline_ms
        )
    return search, budget
