"""Resource governance for chase runs.

The engine's own ``max_iterations`` / ``max_nulls`` are *correctness*
guards: tripping one means the program is likely outside the
terminating fragment, so the run aborts with a
:class:`~repro.errors.ResourceLimitError`.  A :class:`ResourceGovernor`
is an *operational* budget: callers in production want "give me what
you can derive in 2 seconds / within 100k facts" — and want to know
that the answer was truncated.  In graceful mode (the default) the
engine stops cleanly at the first violated budget and returns the
partial database with ``status == "budget_exceeded"`` plus the
:class:`BudgetExceeded` record; in strict mode the violation raises.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

#: Engine run statuses (mirrored on EvaluationResult.status).
STATUS_FIXPOINT = "fixpoint"
STATUS_BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class BudgetExceeded:
    """One violated budget: which resource, the cap, and the usage seen."""

    resource: str  # "time" | "facts" | "nulls" | "iterations"
    limit: float
    used: float
    scope: str = ""  # e.g. "stratum 2" for iteration caps

    def __str__(self) -> str:
        where = f" in {self.scope}" if self.scope else ""
        return (
            f"{self.resource} budget exceeded{where}: "
            f"used {self.used:g} of {self.limit:g}"
        )


class ResourceGovernor:
    """Budgets for one engine run; all limits optional.

    Parameters
    ----------
    budget_seconds:
        Wall-clock budget measured from :meth:`begin`.
    max_facts:
        Cap on facts derived (not counting the input facts).
    max_nulls:
        Cap on labeled nulls invented by the chase.
    max_stratum_iterations:
        Cap on fixpoint iterations within any single stratum.
    graceful:
        True (default): the engine returns partial results tagged with
        the violation.  False: the violation raises a
        :class:`~repro.errors.ResourceLimitError`.
    clock:
        Injectable time source (tests use a fake clock).
    """

    def __init__(
        self,
        budget_seconds: Optional[float] = None,
        max_facts: Optional[int] = None,
        max_nulls: Optional[int] = None,
        max_stratum_iterations: Optional[int] = None,
        graceful: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if budget_seconds is not None and budget_seconds <= 0:
            raise ValueError("budget_seconds must be positive")
        for name, value in (
            ("max_facts", max_facts),
            ("max_nulls", max_nulls),
            ("max_stratum_iterations", max_stratum_iterations),
        ):
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative")
        self.budget_seconds = budget_seconds
        self.max_facts = max_facts
        self.max_nulls = max_nulls
        self.max_stratum_iterations = max_stratum_iterations
        self.graceful = graceful
        self._clock = clock
        self._start: Optional[float] = None

    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Start (or restart) the wall clock; called by ``Engine.run``."""
        self._start = self._clock()

    def elapsed(self) -> float:
        if self._start is None:
            return 0.0
        return self._clock() - self._start

    # ------------------------------------------------------------------
    def check_time(self) -> Optional[BudgetExceeded]:
        if self.budget_seconds is None or self._start is None:
            return None
        elapsed = self._clock() - self._start
        if elapsed > self.budget_seconds:
            return BudgetExceeded("time", self.budget_seconds, elapsed)
        return None

    def check_facts(self, derived: int) -> Optional[BudgetExceeded]:
        if self.max_facts is not None and derived > self.max_facts:
            return BudgetExceeded("facts", self.max_facts, derived)
        return None

    def check_nulls(self, created: int) -> Optional[BudgetExceeded]:
        if self.max_nulls is not None and created > self.max_nulls:
            return BudgetExceeded("nulls", self.max_nulls, created)
        return None

    def check_iterations(
        self, iterations: int, scope: str = ""
    ) -> Optional[BudgetExceeded]:
        if (
            self.max_stratum_iterations is not None
            and iterations > self.max_stratum_iterations
        ):
            return BudgetExceeded(
                "iterations", self.max_stratum_iterations, iterations, scope
            )
        return None

    def check(self, stats) -> Optional[BudgetExceeded]:
        """First violated budget given the run's EvaluationStats, if any."""
        return (
            self.check_time()
            or self.check_facts(stats.facts_derived)
            or self.check_nulls(stats.nulls_created)
        )

    def __repr__(self) -> str:
        parts = []
        if self.budget_seconds is not None:
            parts.append(f"seconds={self.budget_seconds}")
        if self.max_facts is not None:
            parts.append(f"facts={self.max_facts}")
        if self.max_nulls is not None:
            parts.append(f"nulls={self.max_nulls}")
        if self.max_stratum_iterations is not None:
            parts.append(f"stratum_iterations={self.max_stratum_iterations}")
        mode = "graceful" if self.graceful else "strict"
        return f"ResourceGovernor({', '.join(parts) or 'unlimited'}, {mode})"
