"""Resource governance: the generalised execution budget.

:class:`ResourceBudget` is the process-governance core the engines,
generators, and :class:`~repro.session.Session` all check against at
their natural yield points (frontier levels, binding-table steps,
closure rounds, generation batches, sampler pool refills).  It tracks
four independent limits:

* a **wall-clock deadline** (``timeout_seconds``),
* an **intermediate row cap** (``max_rows``),
* a **live memory cap** (``max_bytes``) charged with the ``nbytes`` of
  the live columns — frontier visited columns, binding-table matrices,
  relation key columns — as they grow, and
* a cooperative :class:`CancellationToken`, polled by every
  :meth:`check_time` so a long evaluation stops at its next yield point
  when the owner cancels.

Budgets auto-arm: the first check (or ``elapsed`` read) on an unarmed
budget starts the clock instead of measuring from the monotonic epoch —
the historical foot-gun where a budget used without ``.start()``
aborted instantly.

The engine-facing name :class:`~repro.engine.budget.EvaluationBudget`
is an alias of this class kept in its old module, so existing engine
code and call sites keep working unchanged.  Degradation-aware subclasses
(:class:`~repro.execution.context.ExecutionContext`) override the
``degrade_plan`` / ``slice_plan`` / ``should_degrade`` hooks, which are
inert here so a plain budget costs nothing beyond the checks
themselves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import EngineBudgetExceeded, ExecutionCancelled
from repro.observability.log import get_logger
from repro.observability.metrics import METRICS
from repro.observability.trace import TRACER

_log = get_logger("execution.budget")
_ABORTS = METRICS.counter("engine.budget_aborts")


def _abort(
    message: str,
    elapsed: float,
    resource: str | None = None,
    amount: int | None = None,
) -> EngineBudgetExceeded:
    """Build (and log) a budget abort with the active span path attached.

    An abort is an outcome the caller handles, not a fault, so it logs
    at INFO; the span path is named only when tracing recorded one.
    """
    span_path = TRACER.span_path()
    _ABORTS.inc()
    if span_path:
        _log.info("budget abort after %.3fs at %s: %s", elapsed, span_path, message)
    else:
        _log.info("budget abort after %.3fs: %s", elapsed, message)
    return EngineBudgetExceeded(
        message,
        elapsed_seconds=elapsed,
        span_path=span_path,
        resource=resource,
        amount=amount,
    )


class CancellationToken:
    """Cooperative cancellation flag shared between owner and workers.

    The owner calls :meth:`cancel`; every budget holding the token
    raises :class:`~repro.errors.ExecutionCancelled` at its next
    :meth:`ResourceBudget.check_time` yield point.  One token may be
    shared across many budgets (e.g. every query of a benchmark batch).
    """

    __slots__ = ("_cancelled", "reason")

    def __init__(self) -> None:
        self._cancelled = False
        self.reason = ""

    def cancel(self, reason: str = "cancelled") -> None:
        self._cancelled = True
        self.reason = reason or "cancelled"

    def reset(self) -> None:
        """Re-arm a token for reuse (tests / pooled workers)."""
        self._cancelled = False
        self.reason = ""

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:
        return f"CancellationToken(cancelled={self._cancelled})"


@dataclass
class ResourceBudget:
    """Per-execution limits on time, rows, live bytes, and cancellation."""

    timeout_seconds: float = 60.0
    max_rows: int = 5_000_000
    max_bytes: int | None = None
    token: CancellationToken | None = None
    _started: float | None = field(default=None, repr=False)
    _peak_bytes: int = field(default=0, repr=False)

    def start(self) -> "ResourceBudget":
        """Arm the clock; returns self for chaining."""
        self._started = time.monotonic()
        return self

    @property
    def armed(self) -> bool:
        return self._started is not None

    @property
    def elapsed(self) -> float:
        started = self._started
        if started is None:
            # Auto-arm on first use: an unarmed budget measures from
            # now, not from the monotonic epoch.
            self._started = started = time.monotonic()
        return time.monotonic() - started

    @property
    def peak_bytes(self) -> int:
        """High-water mark of live bytes charged via :meth:`check_bytes`."""
        return self._peak_bytes

    # -- checks (the yield points call these) -------------------------

    def check_cancelled(self) -> None:
        """Raise when the cooperative cancellation token fired."""
        token = self.token
        if token is not None and token.cancelled:
            raise ExecutionCancelled(
                f"execution cancelled: {token.reason}",
                elapsed_seconds=self.elapsed,
            )

    def check_time(self) -> None:
        """Raise when cancelled or the wall-clock budget is spent."""
        self.check_cancelled()
        elapsed = self.elapsed
        if elapsed > self.timeout_seconds:
            raise _abort(
                f"evaluation exceeded {self.timeout_seconds:.1f}s "
                f"(elapsed {elapsed:.1f}s)",
                elapsed,
                resource="time",
            )

    def check_rows(self, rows: int) -> None:
        """Raise when an intermediate relation outgrows the budget."""
        if rows > self.max_rows:
            raise _abort(
                f"intermediate result of {rows} rows exceeds cap {self.max_rows}",
                self.elapsed,
                resource="rows",
                amount=int(rows),
            )

    def check_bytes(self, nbytes: int) -> None:
        """Charge the live size of a column/table against the memory cap.

        Call sites charge the *current* ``nbytes`` of the structure they
        own (a frontier's visited columns, a binding table's matrix, a
        relation's key column); the budget keeps the high-water mark and
        raises when a cap is configured and exceeded.
        """
        if nbytes > self._peak_bytes:
            self._peak_bytes = int(nbytes)
        if self.max_bytes is not None and nbytes > self.max_bytes:
            raise _abort(
                f"live columns of {nbytes} bytes exceed cap {self.max_bytes}",
                self.elapsed,
                resource="bytes",
                amount=int(nbytes),
            )

    # -- degradation hooks (inert on a plain budget) ------------------

    def degrade_plan(self, total_rows: int) -> int | None:
        """Chunk size for a gather of ``total_rows``, or None (direct)."""
        return None

    def slice_plan(self, nrows: int) -> int | None:
        """Proactive split count for an ``nrows``-row table, or None."""
        return None

    def should_degrade(self, exc: BaseException) -> bool:
        """Whether a caught abort may fall back to chunked execution."""
        return False

    def record_degraded(self, site: str, **info) -> None:
        """Note one degraded (chunked) execution event (no-op here)."""

    def stash_partial(self, result) -> None:
        """Remember partial answers for ``on_budget='partial'`` (no-op)."""

    def partial_result(self, exc: BaseException, arity: int):
        """Partial :class:`ResultSet` for an abort, or None (re-raise)."""
        return None

    @property
    def wants_partial(self) -> bool:
        """True when the budget collects partial answers (context only)."""
        return False
