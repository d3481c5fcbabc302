"""Evaluation budgets: the harness's failure detector.

The paper reports engines that "either failed on the majority of these
queries or had to be manually terminated after unexpectedly long
running times" (§7.2).  A budget caps wall-clock time and intermediate
row counts; exceeding either raises
:class:`~repro.errors.EngineBudgetExceeded`, which the experiment
harness records as a failure ("-") instead of hanging the benchmark.

The implementation now lives in :mod:`repro.execution.budget` as
:class:`~repro.execution.budget.ResourceBudget`, which additionally
governs live memory (``max_bytes``) and cooperative cancellation.
:class:`EvaluationBudget` remains as the engine-facing alias so every
existing import and call site keeps working; pass an
:class:`~repro.execution.context.ExecutionContext` anywhere a budget is
accepted to opt into graceful degradation and partial results.
"""

from __future__ import annotations

from repro.execution.budget import CancellationToken, ResourceBudget

__all__ = ["CancellationToken", "EvaluationBudget", "ResourceBudget", "unlimited"]

#: Per-query limits on time and intermediate result size: the
#: engine-facing name of :class:`ResourceBudget` (one type, so an
#: ``ExecutionContext`` is an ``EvaluationBudget`` too).
EvaluationBudget = ResourceBudget


def unlimited() -> ResourceBudget:
    """A budget that effectively never triggers (for tests)."""
    return ResourceBudget(timeout_seconds=float("inf"), max_rows=2**62).start()
