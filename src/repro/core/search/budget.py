"""Shared search budgets and accounting for the counterfactual kernel.

Before the kernel existed every explainer kept its own budget
bookkeeping: ``document_cf`` honoured ``max_evaluations`` +
``raise_on_budget``, ``query_cf`` duplicated that loop, ``feature_cf``
silently ignored ``raise_on_budget``, and nothing bounded wall-clock
time. :class:`SearchBudget` is the single spec all strategies consume,
and :class:`SearchTrace` is the single accounting record they fill —
the explainers copy it verbatim onto their
:class:`~repro.core.types.ExplanationSet`.

Budget semantics (the contract every strategy honours):

* ``max_evaluations`` — cap on candidate perturbations evaluated. The
  check runs *before* each evaluation, so a budget of ``b`` evaluates
  exactly ``b`` candidates before stopping with ``budget_exhausted``.
* ``deadline_ms`` — wall-clock bound, checked at the same point. An
  expired deadline stops the search with ``deadline_exceeded``.
* ``raise_on_budget`` — raise
  :class:`~repro.errors.ExplanationBudgetExceeded` (carrying partial
  results) instead of returning them. Anytime search ignores this flag
  by design: returning the best-so-far at the deadline is its contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import ExplanationBudgetExceeded
from repro.utils.validation import require_positive

#: Exhaustion reasons reported by :meth:`BudgetMeter.exhausted`.
EVALUATIONS = "evaluations"
DEADLINE = "deadline"


@dataclass(frozen=True)
class SearchBudget:
    """Immutable resource bounds for one counterfactual search.

    ``max_evaluations=None`` and ``deadline_ms=None`` both mean
    unbounded; :data:`UNLIMITED` is the shared "no bounds" instance.
    """

    max_evaluations: int | None = None
    deadline_ms: float | None = None
    raise_on_budget: bool = False

    def __post_init__(self):
        if self.max_evaluations is not None:
            require_positive(self.max_evaluations, "max_evaluations")
        if self.deadline_ms is not None:
            require_positive(self.deadline_ms, "deadline_ms")

    def meter(
        self, clock: Callable[[], float] = time.monotonic
    ) -> "BudgetMeter":
        """A running meter for one search (the clock is injectable)."""
        return BudgetMeter(self, clock)

    def with_defaults(
        self, max_evaluations: int | None = None, raise_on_budget: bool = False
    ) -> "SearchBudget":
        """Fill unspecified bounds from an explainer's defaults.

        A request naming only ``deadline_ms`` adds a wall-clock bound
        *on top of* the family's evaluation cap — it must not silently
        lift it; likewise an explainer constructed with
        ``raise_on_budget=True`` keeps raising.
        """
        return SearchBudget(
            max_evaluations=(
                self.max_evaluations
                if self.max_evaluations is not None
                else max_evaluations
            ),
            deadline_ms=self.deadline_ms,
            raise_on_budget=self.raise_on_budget or raise_on_budget,
        )


#: The "no bounds" budget: the strategies' default, and what instance
#: selection runs under.
UNLIMITED = SearchBudget()


class BudgetMeter:
    """Tracks one search's spend against a :class:`SearchBudget`."""

    def __init__(self, budget: SearchBudget, clock: Callable[[], float]):
        self.budget = budget
        self._clock = clock
        self._started = clock()

    def elapsed_ms(self) -> float:
        return (self._clock() - self._started) * 1000.0

    def exhausted(self, evaluations: int) -> str | None:
        """Why the search must stop now, or ``None`` to continue.

        Call with the evaluations already spent *before* evaluating the
        next candidate; returns :data:`EVALUATIONS`, :data:`DEADLINE`,
        or ``None``.
        """
        budget = self.budget
        if (
            budget.max_evaluations is not None
            and evaluations >= budget.max_evaluations
        ):
            return EVALUATIONS
        if (
            budget.deadline_ms is not None
            and self.elapsed_ms() >= budget.deadline_ms
        ):
            return DEADLINE
        return None


@dataclass
class SearchTrace:
    """What one strategy run cost and why it stopped.

    The explainers surface these fields unchanged on their
    :class:`~repro.core.types.ExplanationSet` results, so every family
    reports budget outcomes identically (the contract documented in
    :mod:`repro.core.types`).
    """

    strategy: str = ""
    candidates_evaluated: int = 0
    ranker_calls: int = 0
    budget_exhausted: bool = False
    deadline_exceeded: bool = False
    search_exhausted: bool = False

    def stop(self, reason: str) -> None:
        """Record a budget stop (:data:`EVALUATIONS` or :data:`DEADLINE`)."""
        if reason == DEADLINE:
            self.deadline_exceeded = True
        else:
            self.budget_exhausted = True

    def charge(self, problem) -> None:
        """Account for one candidate evaluation of ``problem``."""
        self.candidates_evaluated += problem.evaluation_units
        self.ranker_calls += problem.logical_cost


def budget_stop(
    trace: SearchTrace,
    reason: str,
    budget: SearchBudget,
    found: list,
    n: int,
) -> None:
    """Shared stop path: mark the trace and raise if the budget says so."""
    trace.stop(reason)
    if budget.raise_on_budget:
        raise ExplanationBudgetExceeded(
            f"evaluated {trace.candidates_evaluated} candidates "
            f"without finding {n} explanations",
            partial_results=found,
        )
