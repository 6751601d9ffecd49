"""Aggregation semantics for the Vadalog substitute.

The paper's programs use multi-tuple expressions such as
``v = sum(w, <z>)`` (Examples 4.1/4.2): within one *group*, ``w`` is
summed over the distinct bindings of the contributor variables ``z``.

Semantics implemented here:

- the *group key* is the binding of every rule variable used in the head
  except the aggregate target (so ``controls(x, y)`` groups by ``(x, y)``);
- within a group, each distinct contributor binding contributes exactly
  once; when several matches share the contributor binding but disagree on
  the value, the collision is resolved *per function* so the choice is
  deterministic **and** consistent with the aggregate's direction of
  monotonicity: ``min``/``mmin`` keeps the smaller value (keeping the
  larger one could report a minimum larger than the data supports), every
  other function keeps the larger value (contributions can only grow
  across chase iterations, preserving the monotonic-aggregation reading
  of Vadalog).  Values of incomparable types (e.g. a string colliding
  with a number) fall back to a deterministic type-name/repr order
  instead of crashing;
- with no contributor list, every distinct whole-body match contributes.

Supported functions: ``sum``/``msum``, ``count``/``mcount``,
``min``/``mmin``, ``max``/``mmax``, ``prod``/``mprod``, ``avg``.

Monotonicity: ``sum`` (over non-negative increments by new contributors),
``count`` and ``max`` only ever grow as the contribution set grows, so
they are safe inside a recursive stratum.  ``prod`` is **not** monotone in
general — multiplying by a factor in ``(0, 1)`` shrinks the product and a
negative factor makes it oscillate — so it is only *conditionally*
admitted in recursion: the explicitly monotonic spelling ``mprod``
asserts non-decreasing use, and the engine validates the assertion at
runtime (every contribution must be ``>= 1``), raising
:class:`~repro.errors.EvaluationError` otherwise.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from repro.errors import EvaluationError

#: Canonical name for each accepted spelling.
CANONICAL = {
    "sum": "sum", "msum": "sum",
    "count": "count", "mcount": "count",
    "min": "min", "mmin": "min",
    "max": "max", "mmax": "max",
    "prod": "prod", "mprod": "prod",
    "avg": "avg",
}

#: Functions that are monotone under growing contribution sets, hence safe
#: inside a recursive stratum (min shrinks, avg oscillates, prod shrinks
#: for factors below one and oscillates for negative factors).
MONOTONIC = {"sum", "count", "max"}

#: Functions admitted in recursion only under a runtime-validated side
#: condition, keyed by the *spelling* that asserts it: ``mprod`` promises
#: non-decreasing use (every contribution >= 1) and the accumulator
#: enforces the promise.
CONDITIONALLY_MONOTONIC = {"mprod"}

#: Sentinel distinguishing "no contribution yet" from a stored ``None``.
_MISSING = object()


def is_monotonic(function: str) -> bool:
    """True when the (canonicalized) aggregate may appear in recursion.

    The *unconditionally* monotone functions.  ``mprod`` is not in this
    set — recursive use is allowed only through the explicit spelling
    (see :data:`CONDITIONALLY_MONOTONIC`) and validated at runtime.
    """
    return CANONICAL.get(function, function) in MONOTONIC


def is_recursion_safe(function: str) -> bool:
    """True when the spelling may appear in a recursive stratum at all."""
    return is_monotonic(function) or function in CONDITIONALLY_MONOTONIC


def _type_order_key(value: Any) -> Tuple[str, str]:
    """A deterministic total order over incomparable values."""
    return (type(value).__name__, repr(value))


def _prefer_larger(value: Any, current: Any) -> Any:
    """The larger of two contribution values, never raising on mixed types."""
    try:
        return value if value > current else current
    except TypeError:
        return (
            value
            if _type_order_key(value) > _type_order_key(current)
            else current
        )


def _prefer_smaller(value: Any, current: Any) -> Any:
    """The smaller of two contribution values, never raising on mixed types."""
    try:
        return value if value < current else current
    except TypeError:
        return (
            value
            if _type_order_key(value) < _type_order_key(current)
            else current
        )


def aggregate(function: str, contributions: Dict[Tuple[Any, ...], Any]) -> Any:
    """Fold the per-contributor values with the requested function."""
    name = CANONICAL.get(function)
    if name is None:
        raise EvaluationError(f"unknown aggregation function {function!r}")
    values: List[Any] = list(contributions.values())
    if name == "count":
        return len(values)
    if not values:
        return None
    if name == "sum":
        return sum(values)
    if name == "min":
        return min(values)
    if name == "max":
        return max(values)
    if name == "avg":
        return sum(values) / len(values)
    if name == "prod":
        result = 1
        for value in values:
            result *= value
        return result
    raise EvaluationError(f"unknown aggregation function {function!r}")


class GroupAccumulator:
    """Accumulates contributor -> value maps per group key.

    One instance is used per aggregate-carrying rule evaluation round.

    ``recursive=True`` marks an accumulator feeding a recursive stratum's
    fixpoint: there, conditionally monotone functions (``mprod``) have
    their side condition validated per contribution — a factor below one
    would let the computed product shrink between iterations, producing
    an oscillating fixpoint the chase would silently commit.
    """

    def __init__(self, function: str, recursive: bool = False):
        self.function = function
        canonical = CANONICAL.get(function)
        # Collisions on the same contributor binding resolve in the
        # aggregate's own direction: min keeps the smaller value (keeping
        # the larger would be anti-monotone for min), everything else
        # keeps the larger (the deterministic, grows-only choice).
        self._resolve = _prefer_smaller if canonical == "min" else _prefer_larger
        self._validate_nondecreasing = recursive and function in CONDITIONALLY_MONOTONIC
        self._groups: Dict[Tuple[Any, ...], Dict[Tuple[Any, ...], Any]] = {}

    def contribute(
        self, group: Tuple[Any, ...], contributor: Tuple[Any, ...], value: Any
    ) -> None:
        """Record one contribution (per-function deterministic collisions)."""
        if self._validate_nondecreasing:
            try:
                shrinks = value < 1
            except TypeError:
                shrinks = True
            if shrinks:
                raise EvaluationError(
                    f"mprod in a recursive stratum requires non-decreasing "
                    f"use: contribution {value!r} is below 1, so the product "
                    f"would not grow monotonically across chase iterations"
                )
        bucket = self._groups.setdefault(group, {})
        current = bucket.get(contributor, _MISSING)
        if current is _MISSING or current is None:
            bucket[contributor] = value
        elif value is not None:
            bucket[contributor] = self._resolve(value, current)

    def state(self) -> Dict[Tuple[Any, ...], Dict[Tuple[Any, ...], Any]]:
        """The raw group -> contributor -> value state."""
        return self._groups

    def results(self) -> Iterable[Tuple[Tuple[Any, ...], Any]]:
        """Yield (group key, aggregated value) pairs."""
        for group, contributions in self._groups.items():
            yield group, aggregate(self.function, contributions)
