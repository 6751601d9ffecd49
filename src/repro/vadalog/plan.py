"""Compiled join plans for the chase engine.

An interpreted matcher (the tests' reference chase) re-derives the
join order for every partial substitution and copies the substitution
dict on every unification attempt.  Its greedy scheduling heuristic,
however, depends only on *which* variables are bound — never on their
values — so the whole literal order can be computed once per rule.  This
module compiles each rule body into a :class:`BodyPlan`:

- a static join order reproducing the interpreter's greedy heuristic (ready
  conditions / assignments / negations first, then the atom with the
  most bound positions, ties broken by body position);
- per atom, the bound positions become one composite-index probe
  (:meth:`repro.vadalog.columnar.ColumnarRelation.lookup_key`), first
  occurrences of novel variables become direct bindings, repeated
  occurrences become equality checks;
- conditions, assignments and negations are attached as filters to the
  earliest step after which they are ready.

:func:`execute_plan` runs a plan with an iterative backtracking loop
that mutates a single substitution dict with undo trails; a dict copy
is made only per *successful* full match (the yielded substitution).
It is the one per-match join loop: the full evaluation of a body that
:func:`execute_plan_vectorized` refuses (conditions, assignments), an
aggregate's pre-body, and every per-base delta run on it.

Per-rule plans are grouped in :class:`RulePlans`, which also holds the
compiled head template (constants / frontier variables / Skolem slots /
existential slots), the cached head-satisfaction plan used by the
restricted chase, the per-occurrence delta plans for semi-naive
evaluation, and the aggregate pre-body plan.

:func:`delta_matches` is the one semi-naive delta join, shared by a
recursive stratum's later rounds and by incremental maintenance, and
:meth:`AggregatePlan.evaluate` the one aggregate evaluator.

A rule fires on one of two paths.  A rule whose
body :func:`execute_plan_vectorized` takes (atom joins, negations) and
whose head has no Skolem term fires on code columns:
:meth:`RulePlans.columns` joins the whole body, or a delta of
:data:`COLUMNAR_MIN_BASES` facts or more that one body atom reads, into a
:class:`ColumnMatches`; an aggregate rule contributes those columns into
its state (:meth:`AggregatePlan.evaluate_columns`); and
:meth:`RulePlans.fire_columns` instantiates the head for every match at
once, the restricted chase's check being one anti-join.  Every other
firing is per match: a substitution dict each, through
:meth:`RulePlans.instantiate_head`.  Both paths enumerate matches in the
same order, so buckets, sums, null numbers and row order agree.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import EvaluationError, ResourceLimitError
from repro.vadalog.aggregates import GroupAccumulator, aggregate
from repro.vadalog.ast import (
    AggregateCall,
    Assignment,
    Atom,
    BinOp,
    Condition,
    Expression,
    FunctionCall,
    NegatedAtom,
    Rule,
    SkolemTerm,
    TermExpr,
)
from repro.vadalog.columnar import _FNV_OFFSET as _FNV_OFFSET_NP
from repro.vadalog.columnar import _FNV_PRIME as _FNV_PRIME_NP
from repro.vadalog.database import Database, Fact
from repro.vadalog.terms import SkolemFunctor, Variable

from functools import partial
from itertools import chain as _chain, count as _count, repeat as _repeat

import numpy as _np

Substitution = Dict[Variable, Any]

#: Builtin tuple-level functions available in expressions.
BUILTIN_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "concat": lambda *parts: "".join(str(p) for p in parts),
    "upper": lambda s: str(s).upper(),
    "lower": lambda s: str(s).lower(),
    "strlen": lambda s: len(str(s)),
    "abs": abs,
    "round": lambda x, digits=0: round(x, int(digits)),
    "floor": lambda x: int(x) if x >= 0 or x == int(x) else int(x) - 1,
    "ceil": lambda x: int(x) if x == int(x) else (int(x) + 1 if x > 0 else int(x)),
    "mod": lambda a, b: a % b,
    "min2": lambda a, b: min(a, b),
    "max2": lambda a, b: max(a, b),
    "tostring": str,
    "tonumber": float,
}


# ---------------------------------------------------------------------------
# Expression evaluation (shared by the interpreter and the plan executor)
# ---------------------------------------------------------------------------


# Re-exported so existing ``from repro.vadalog.plan import values_equal``
# callers keep working; the definition lives in terms.py so the storage
# layer can share it without a circular import.
from repro.vadalog.terms import values_equal  # noqa: E402,F401


def apply_binop(op: str, left: Any, right: Any) -> Any:
    try:
        if op == "+":
            if isinstance(left, str) or isinstance(right, str):
                return str(left) + str(right)
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left / right
        if op == "%":
            return left % right
    except (TypeError, ZeroDivisionError) as exc:
        raise EvaluationError(f"arithmetic error: {left!r} {op} {right!r}: {exc}")
    raise EvaluationError(f"unknown operator {op!r}")


def evaluate_expression(
    expression: Expression,
    substitution: Substitution,
    aggregate_value: Any = None,
) -> Any:
    if isinstance(expression, AggregateCall):
        if aggregate_value is None:
            raise EvaluationError(
                "aggregate call evaluated outside aggregate context"
            )
        return aggregate_value
    if isinstance(expression, TermExpr):
        term = expression.term
        if isinstance(term, Variable):
            if term not in substitution:
                raise EvaluationError(f"unbound variable {term!r} in expression")
            return substitution[term]
        return term
    if isinstance(expression, BinOp):
        left = evaluate_expression(expression.left, substitution, aggregate_value)
        right = evaluate_expression(expression.right, substitution, aggregate_value)
        return apply_binop(expression.op, left, right)
    if isinstance(expression, FunctionCall):
        function = BUILTIN_FUNCTIONS.get(expression.name)
        if function is None:
            raise EvaluationError(f"unknown function {expression.name!r}")
        arguments = [
            evaluate_expression(a, substitution, aggregate_value)
            for a in expression.arguments
        ]
        try:
            return function(*arguments)
        except (TypeError, ValueError, ArithmeticError) as exc:
            shown = ", ".join(map(repr, arguments))
            raise EvaluationError(
                f"function error: {expression.name}({shown}): {exc}"
            )
    raise EvaluationError(f"unsupported expression {expression!r}")


def check_condition(condition: Condition, substitution: Substitution) -> bool:
    left = evaluate_expression(condition.left, substitution)
    right = evaluate_expression(condition.right, substitution)
    op = condition.op
    if op == "==":
        return values_equal(left, right)
    if op == "!=":
        return not values_equal(left, right)
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        return False
    raise EvaluationError(f"unknown comparison operator {op!r}")


def find_aggregate(expression: Expression) -> AggregateCall:
    if isinstance(expression, AggregateCall):
        return expression
    if isinstance(expression, BinOp):
        for side in (expression.left, expression.right):
            try:
                return find_aggregate(side)
            except EvaluationError:
                continue
    if isinstance(expression, FunctionCall):
        for argument in expression.arguments:
            try:
                return find_aggregate(argument)
            except EvaluationError:
                continue
    raise EvaluationError("no aggregate call found in expression")


# ---------------------------------------------------------------------------
# Filters: conditions / assignments / negations as zero-or-one-pass checks
# ---------------------------------------------------------------------------


class CondFilter:
    __slots__ = ("condition",)

    def __init__(self, condition: Condition):
        self.condition = condition

    def apply(self, subst: Substitution, db: Database, bound: List[Variable]) -> bool:
        return check_condition(self.condition, subst)


class AssignFilter:
    """``V = expr``: binds V when statically unbound, checks otherwise."""

    __slots__ = ("target", "expression", "binds")

    def __init__(self, assignment: Assignment, binds: bool):
        self.target = assignment.target
        self.expression = assignment.expression
        self.binds = binds

    def apply(self, subst: Substitution, db: Database, bound: List[Variable]) -> bool:
        value = evaluate_expression(self.expression, subst)
        if self.binds and self.target not in subst:
            subst[self.target] = value
            bound.append(self.target)
            return True
        return values_equal(subst[self.target], value)


class NegFilter:
    """``not p(...)``: fails when any fact matches the bound pattern."""

    __slots__ = ("predicate", "arity", "positions", "key_parts", "verify", "samegroups")

    def __init__(self, atom: Atom, bound_vars: Set[Variable]):
        self.predicate = atom.predicate
        self.arity = len(atom.terms)
        positions: List[int] = []
        key_parts: List[Tuple[bool, Any]] = []
        verify: List[Tuple[int, bool, Any]] = []
        free_positions: Dict[Variable, List[int]] = {}
        for i, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                if term.name == "_":
                    continue
                if term in bound_vars:
                    positions.append(i)
                    key_parts.append((True, term))
                    verify.append((i, True, term))
                else:
                    free_positions.setdefault(term, []).append(i)
            else:
                positions.append(i)
                key_parts.append((False, term))
                verify.append((i, False, term))
        self.positions = tuple(positions)
        self.key_parts = tuple(key_parts)
        self.verify = tuple(verify)
        # A free variable occurring at several positions still constrains
        # the match: the candidate must repeat the same value.
        self.samegroups = tuple(
            tuple(ps) for ps in free_positions.values() if len(ps) > 1
        )

    def apply(self, subst: Substitution, db: Database, bound: List[Variable]) -> bool:
        relation = db.relation(self.predicate)
        if self.positions:
            key = tuple(
                subst[payload] if is_var else payload
                for is_var, payload in self.key_parts
            )
            candidates: Iterable[Fact] = relation.lookup_key(self.positions, key)
        else:
            candidates = relation
        verify = self.verify
        samegroups = self.samegroups
        arity = self.arity
        for fact in candidates:
            if len(fact) != arity:
                continue
            ok = True
            for pos, is_var, payload in verify:
                expected = subst[payload] if is_var else payload
                if not values_equal(fact[pos], expected):
                    ok = False
                    break
            if ok and samegroups:
                for group in samegroups:
                    first = fact[group[0]]
                    if not all(values_equal(fact[p], first) for p in group[1:]):
                        ok = False
                        break
            if ok:
                return False
        return True


# ---------------------------------------------------------------------------
# Atom steps
# ---------------------------------------------------------------------------


class AtomStep:
    """One join step: probe a relation, bind novel variables, run filters."""

    __slots__ = (
        "predicate", "arity", "orig_index", "positions", "key_parts",
        "verify", "bind", "check", "filters",
    )

    def __init__(self, atom: Atom, bound_vars: Set[Variable], orig_index: int):
        self.predicate = atom.predicate
        self.arity = len(atom.terms)
        self.orig_index = orig_index
        positions: List[int] = []
        key_parts: List[Tuple[bool, Any]] = []
        verify: List[Tuple[int, bool, Any]] = []
        bind: List[Tuple[int, Variable]] = []
        check: List[Tuple[int, Variable]] = []
        novel: Set[Variable] = set()
        for i, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                if term.name == "_":
                    continue
                if term in bound_vars:
                    positions.append(i)
                    key_parts.append((True, term))
                    verify.append((i, True, term))
                elif term in novel:
                    check.append((i, term))
                else:
                    novel.add(term)
                    bind.append((i, term))
            else:
                positions.append(i)
                key_parts.append((False, term))
                verify.append((i, False, term))
        self.positions = tuple(positions)
        self.key_parts = tuple(key_parts)
        self.verify = tuple(verify)
        self.bind = tuple(bind)
        self.check = tuple(check)
        self.filters: List[Any] = []

    def novel_variables(self) -> Set[Variable]:
        return {var for _, var in self.bind}

    def candidates(
        self,
        db: Database,
        subst: Substitution,
        excludes: Optional[Dict[int, Set[Fact]]],
    ) -> Iterator[Fact]:
        relation = db.relation(self.predicate)
        if self.positions:
            key = tuple(
                subst[payload] if is_var else payload
                for is_var, payload in self.key_parts
            )
            facts: Iterable[Fact] = relation.lookup_key(self.positions, key)
        else:
            facts = relation
        if excludes is not None:
            excluded = excludes.get(self.orig_index)
            if excluded:
                return (fact for fact in facts if fact not in excluded)
        return iter(facts)

    def try_fact(
        self, fact: Fact, subst: Substitution, db: Database
    ) -> Optional[List[Variable]]:
        """Bind ``fact``; returns the undo list, or None on mismatch."""
        if len(fact) != self.arity:
            return None
        for pos, is_var, payload in self.verify:
            expected = subst[payload] if is_var else payload
            if not values_equal(fact[pos], expected):
                return None
        bound: List[Variable] = []
        for pos, var in self.bind:
            subst[var] = fact[pos]
            bound.append(var)
        for pos, var in self.check:
            if not values_equal(fact[pos], subst[var]):
                for v in bound:
                    del subst[v]
                return None
        for filt in self.filters:
            if not filt.apply(subst, db, bound):
                for v in bound:
                    del subst[v]
                return None
        return bound


class BodyPlan:
    """A compiled body: prefix filters, then the ordered atom steps."""

    __slots__ = ("prefix", "steps", "batch_cache")

    def __init__(self, prefix: List[Any], steps: List[AtomStep]):
        self.prefix = prefix
        self.steps = steps
        # (base variable tuple) -> _BatchProgram, the slot layout built
        # on first use by the vectorized executor and the column head
        # check.
        self.batch_cache: Dict[Tuple[Variable, ...], Any] = {}


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def _make_filter(literal: Any, bound: Set[Variable]) -> Any:
    if isinstance(literal, Condition):
        return CondFilter(literal)
    if isinstance(literal, Assignment):
        return AssignFilter(literal, binds=literal.target not in bound)
    if isinstance(literal, NegatedAtom):
        return NegFilter(literal.atom, bound)
    raise EvaluationError(f"unsupported body literal: {literal!r}")


def _pick_index(
    remaining: List[Tuple[int, Any]], bound: Set[Variable]
) -> int:
    """The engine's greedy heuristic over the static bound-variable set.

    First ready non-atom wins; otherwise the atom with the most bound
    positions (earliest on ties); otherwise the first literal.
    """
    best_atom = None
    best_score = -1
    for i, (_, literal) in enumerate(remaining):
        if isinstance(literal, Assignment):
            if all(v in bound for v in literal.expression.variables()):
                return i
        elif isinstance(literal, Condition):
            if all(v in bound for v in literal.variables()):
                return i
        elif isinstance(literal, NegatedAtom):
            if all(v in bound or v.name == "_" for v in literal.variables()):
                return i
        elif isinstance(literal, Atom):
            score = sum(
                1
                for term in literal.terms
                if not isinstance(term, Variable) or term in bound
            )
            if score > best_score:
                best_score = score
                best_atom = i
    if best_atom is not None:
        return best_atom
    return 0


def compile_body(
    literals: Sequence[Any],
    bound: Iterable[Variable] = (),
    orig_indexes: Optional[Sequence[int]] = None,
) -> BodyPlan:
    """Compile a body conjunction, given the initially-bound variables."""
    if orig_indexes is None:
        orig_indexes = range(len(literals))
    remaining: List[Tuple[int, Any]] = list(zip(orig_indexes, literals))
    bound_vars: Set[Variable] = set(bound)
    prefix: List[Any] = []
    steps: List[AtomStep] = []
    while remaining:
        orig_index, literal = remaining.pop(_pick_index(remaining, bound_vars))
        if isinstance(literal, Atom):
            step = AtomStep(literal, bound_vars, orig_index)
            bound_vars |= step.novel_variables()
            steps.append(step)
        else:
            filt = _make_filter(literal, bound_vars)
            if isinstance(filt, AssignFilter) and filt.binds:
                bound_vars.add(filt.target)
            if steps:
                steps[-1].filters.append(filt)
            else:
                prefix.append(filt)
    return BodyPlan(prefix, steps)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def execute_plan(
    plan: BodyPlan,
    db: Database,
    initial: Optional[Substitution] = None,
    excludes: Optional[Dict[int, Set[Fact]]] = None,
) -> Iterator[Substitution]:
    """All substitutions satisfying the compiled body conjunction.

    ``excludes`` maps original body-literal indexes to fact sets the
    corresponding atom step must skip (the "old facts only" restriction
    of semi-naive evaluation).  Yielded dicts are fresh copies.
    """
    subst: Substitution = dict(initial) if initial else {}
    prefix_bound: List[Variable] = []
    for filt in plan.prefix:
        if not filt.apply(subst, db, prefix_bound):
            return
    steps = plan.steps
    n = len(steps)
    if n == 0:
        yield dict(subst)
        return
    iterators: List[Optional[Iterator[Fact]]] = [None] * n
    undos: List[Optional[List[Variable]]] = [None] * n
    depth = 0
    while True:
        step = steps[depth]
        iterator = iterators[depth]
        if iterator is None:
            iterator = step.candidates(db, subst, excludes)
            iterators[depth] = iterator
        undo: Optional[List[Variable]] = None
        for fact in iterator:
            undo = step.try_fact(fact, subst, db)
            if undo is not None:
                break
        if undo is None:
            iterators[depth] = None
            depth -= 1
            if depth < 0:
                return
            for var in undos[depth]:
                del subst[var]
        else:
            undos[depth] = undo
            if depth == n - 1:
                yield dict(subst)
                for var in undo:
                    del subst[var]
            else:
                depth += 1


# ---------------------------------------------------------------------------
# Register slot layout (the vectorized executor's)
# ---------------------------------------------------------------------------


class _BatchStep:
    """An :class:`AtomStep` lowered onto register slots: the key, bind
    and check positions :func:`execute_plan_vectorized` joins on."""

    __slots__ = (
        "predicate", "arity", "positions",
        "key_ops", "bind_ops", "check_ops", "filters",
    )

    def __init__(self, step: AtomStep, slots: Dict[Variable, int]):
        self.predicate = step.predicate
        self.arity = step.arity
        self.positions = step.positions
        # (is_slot, slot-or-constant) per key position, aligned with
        # ``positions`` (AtomStep builds both in one pass).
        self.key_ops = tuple(
            (True, slots[payload]) if is_var else (False, payload)
            for is_var, payload in step.key_parts
        )
        self.bind_ops = tuple((pos, slots[var]) for pos, var in step.bind)
        self.check_ops = tuple((pos, slots[var]) for pos, var in step.check)
        self.filters = step.filters


class _BatchProgram:
    """A :class:`BodyPlan` laid out on a fixed set of register slots, one
    per variable; :func:`execute_plan_vectorized` holds one code column
    per slot, and :meth:`RulePlans.fire_columns` reads the head check's
    layout to decide whether the check can run on columns."""

    __slots__ = ("slots", "nslots", "base_slots", "prefix", "steps")

    def __init__(self, plan: BodyPlan, base_vars: Tuple[Variable, ...]):
        slots: Dict[Variable, int] = {}
        for var in base_vars:
            slots.setdefault(var, len(slots))

        def register(filters: Iterable[Any]) -> None:
            for filt in filters:
                if isinstance(filt, AssignFilter) and filt.binds:
                    slots.setdefault(filt.target, len(slots))

        register(plan.prefix)
        steps: List[_BatchStep] = []
        for step in plan.steps:
            for _pos, var in step.bind:
                slots.setdefault(var, len(slots))
            # key/check vars reference earlier binds (already registered);
            # filter assign-targets become visible to later steps.
            steps.append(_BatchStep(step, slots))
            register(step.filters)
        self.slots = slots
        self.nslots = len(slots)
        self.base_slots = tuple((var, slots[var]) for var in base_vars)
        self.prefix = tuple(plan.prefix)
        self.steps = tuple(steps)


def _batch_program(plan: BodyPlan, base_vars: Tuple[Variable, ...]) -> _BatchProgram:
    program = plan.batch_cache.get(base_vars)
    if program is None:
        program = _BatchProgram(plan, base_vars)
        plan.batch_cache[base_vars] = program
    return program


# ---------------------------------------------------------------------------
# Vectorized full-plan evaluation (code columns + numpy)
# ---------------------------------------------------------------------------


def execute_plan_vectorized(
    plan: BodyPlan,
    db: Database,
    bases: Optional[Tuple[int, Dict[Variable, Any]]] = None,
) -> Optional[Tuple[int, Dict[Variable, Any], Any]]:
    """Whole-plan sort-merge join over code columns, no per-row Python.

    Handles plans of pure atom joins; negations defer to a post-join
    anti-join.  ``bases`` is ``(count, {variable: exact codes})``, the
    initial bindings of the plan's bound variables (a delta partition, a
    head check's frontier); ``None`` is one empty base.

    Returns ``(n_matches, columns, origin)``: exact codes per variable
    and the base of each match, in the scalar executor's enumeration
    order — by base, then by row at each step, as every step expands
    its frontier stably and sorts each key's candidates stably by row.
    ``None`` when the plan does not qualify (the caller goes per match).

    Matches are exactly the scalar executor's: join keys and repeated
    occurrences compare exact codes (``values_equal``), and NaN-coded
    values never match anything, including themselves.
    """
    interner = db._interner
    count, base_codes = bases if bases is not None else (1, {})
    program = _batch_program(plan, tuple(base_codes))
    steps = program.steps
    if program.prefix or (bases is None and not steps):
        return None
    neg_filters: List[Any] = []
    for bstep in steps:
        for filt in bstep.filters:
            # Negations defer to a post-join anti-join; conditions and
            # assignments keep the scalar path.
            if type(filt) is not NegFilter or not filt.positions:
                return None
            neg_filters.append(filt)
    if not count:
        return (0, {}, None)

    probe_exact = interner.probe
    nan_codes = interner.nan_codes
    nan_arr = (
        _np.fromiter(nan_codes, dtype=_np.int64, count=len(nan_codes))
        if nan_codes
        else None
    )
    nslots = program.nslots
    # One register column per slot, plus the base index of each row.
    slot_cols: List[Optional[Any]] = [None] * nslots + [
        _np.arange(count, dtype=_np.int64)
    ]
    for var, slot in program.base_slots:
        slot_cols[slot] = base_codes[var]
    n = count

    for bstep in steps:
        relation = db.relation(bstep.predicate)
        if relation.arity != bstep.arity:
            return (0, {}, None)
        const_ops: List[Tuple[int, int]] = []
        slot_ops: List[Tuple[int, int]] = []
        for i, (is_slot, payload) in enumerate(bstep.key_ops):
            position = bstep.positions[i]
            if is_slot:
                slot_ops.append((position, payload))
            else:
                code = probe_exact(payload)
                if code is None or payload != payload:
                    return (0, {}, None)  # unseen or NaN constant
                const_ops.append((position, code))
        cols, rows = relation.np_columns()
        if not len(rows):
            return (0, {}, None)

        if slot_ops:
            fcols = []
            for _position, slot in slot_ops:
                arr = slot_cols[slot]
                if arr is None:
                    return None  # key references an unbound slot
                fcols.append(arr)
            if nan_arr is not None:
                fmask = ~_np.isin(fcols[0], nan_arr)
                for arr in fcols[1:]:
                    fmask &= ~_np.isin(arr, nan_arr)
                if not fmask.all():
                    slot_cols = [
                        arr[fmask] if arr is not None else None
                        for arr in slot_cols
                    ]
                    fcols = [arr[fmask] for arr in fcols]
                    n = len(fcols[0])
                    if not n:
                        return (0, {}, None)
            kpos = tuple(position for position, _slot in slot_ops)
            skeys, srows = relation.np_join_key(kpos)
            if len(fcols) == 1:
                fkey = fcols[0]
            else:
                fkey = _np.full(n, _FNV_OFFSET_NP, dtype=_np.uint64)
                prime = _np.uint64(_FNV_PRIME_NP)
                for arr in fcols:
                    fkey = (fkey ^ arr.astype(_np.uint64)) * prime
            left = _np.searchsorted(skeys, fkey, side="left")
            right = _np.searchsorted(skeys, fkey, side="right")
            lens = right - left
            total = int(lens.sum())
            if not total:
                return (0, {}, None)
            fidx = _np.repeat(_np.arange(n), lens)
            cum = _np.concatenate(([0], _np.cumsum(lens)[:-1]))
            sidx = _np.repeat(left - cum, lens) + _np.arange(total)
            rrows = srows[sidx]
            mask: Optional[Any] = None
            if len(fcols) > 1:  # FNV key: verify exact codes per position
                for (position, _slot), arr in zip(slot_ops, fcols):
                    part = cols[position][rrows] == arr[fidx]
                    mask = part if mask is None else mask & part
            for position, code in const_ops:
                part = cols[position][rrows] == code
                mask = part if mask is None else mask & part
            if mask is not None and not mask.all():
                fidx = fidx[mask]
                rrows = rrows[mask]
        else:
            rrows = rows
            for position, code in const_ops:
                rrows = rrows[cols[position][rrows] == code]
            m = len(rrows)
            fidx = _np.repeat(_np.arange(n), m)
            rrows = _np.tile(rrows, n)
        if not len(rrows):
            return (0, {}, None)

        if bstep.check_ops:
            mask = None
            for position, slot in bstep.check_ops:
                arr = slot_cols[slot]
                if arr is None:
                    return None  # check references an unbound slot
                fvals = arr[fidx]
                part = cols[position][rrows] == fvals
                if nan_arr is not None:
                    part &= ~_np.isin(fvals, nan_arr)
                mask = part if mask is None else mask & part
            if mask is not None and not mask.all():
                fidx = fidx[mask]
                rrows = rrows[mask]
                if not len(rrows):
                    return (0, {}, None)

        slot_cols = [
            arr[fidx] if arr is not None else None for arr in slot_cols
        ]
        for position, slot in bstep.bind_ops:
            slot_cols[slot] = cols[position][rrows]
        n = len(rrows)

    for filt in neg_filters:
        # Anti-join: drop frontier rows for which a values_equal match
        # exists in the negated relation.  Deferring every negation to
        # the end of the join changes pruning order, not the match set.
        keep = _vectorized_neg_keep(
            filt, program, slot_cols, n, db, nan_arr
        )
        if keep is None:
            return None  # unbound slot — should not happen; be safe
        if keep is not True:
            if not keep.any():
                return (0, {}, None)
            if not keep.all():
                slot_cols = [
                    arr[keep] if arr is not None else None
                    for arr in slot_cols
                ]
                n = int(keep.sum())

    return (
        n,
        {
            var: slot_cols[slot]
            for var, slot in program.slots.items()
            if slot_cols[slot] is not None
        },
        slot_cols[nslots],
    )


def _vectorized_neg_keep(
    filt: NegFilter,
    program: "_BatchProgram",
    slot_cols: List[Any],
    n: int,
    db: Database,
    nan_arr: Any,
) -> Any:
    """Keep-mask for one deferred :class:`NegFilter` (vectorized).

    Returns ``True`` when every frontier row survives (no mask needed),
    a bool array otherwise, or ``None`` when a referenced slot is
    unbound and the caller must fall back to the scalar executor.

    Match semantics mirror ``NegFilter.apply``: bound positions compare
    with ``values_equal`` (exact codes, NaN never matches), free
    variables are unconstrained except repeated ones (``samegroups``),
    and an arity-mismatched or empty extension never matches.
    """
    relation = db.relation(filt.predicate)
    if relation.arity != filt.arity or not len(relation):
        return True
    cols, rows = relation.np_columns()
    # Candidate rows must repeat the value of any multiply-occurring
    # free variable (and NaN repeats never count as equal).
    for group in filt.samegroups:
        base = cols[group[0]][rows]
        gmask = _np.ones(len(rows), dtype=bool)
        if nan_arr is not None:
            gmask &= ~_np.isin(base, nan_arr)
        for position in group[1:]:
            gmask &= cols[position][rows] == base
        rows = rows[gmask]
        if not len(rows):
            return True
    probe_exact = db._interner.probe
    const_ops: List[Tuple[int, int]] = []
    slot_ops: List[Tuple[int, int]] = []
    for position, (is_var, payload) in zip(filt.positions, filt.key_parts):
        if is_var:
            slot = program.slots.get(payload)
            if slot is None:
                return None
            slot_ops.append((position, slot))
        else:
            code = probe_exact(payload)
            if code is None or payload != payload:
                return True  # unseen or NaN constant: no fact matches
            const_ops.append((position, code))
    for position, code in const_ops:
        rows = rows[cols[position][rows] == code]
        if not len(rows):
            return True
    if not slot_ops:
        # Constants-only pattern with surviving candidates: the negated
        # atom holds for every frontier row.
        return _np.zeros(n, dtype=bool)
    fcols = []
    for _position, slot in slot_ops:
        arr = slot_cols[slot]
        if arr is None:
            return None
        fcols.append(arr)
    # Frontier rows carrying NaN at a bound position can never match.
    matchable = None
    if nan_arr is not None:
        for arr in fcols:
            part = ~_np.isin(arr, nan_arr)
            matchable = part if matchable is None else matchable & part
    # Candidate set untouched by constants/samegroups: reuse the
    # relation's cached sorted join key instead of re-sorting.
    pristine = not const_ops and not filt.samegroups
    if len(slot_ops) == 1:
        # Single bound position: raw exact codes, presence is exact.
        position = slot_ops[0][0]
        if pristine:
            rkeys, _srows = relation.np_join_key((position,))
        else:
            rkeys = _np.sort(cols[position][rows])
        pos = _np.searchsorted(rkeys, fcols[0])
        pos_c = _np.minimum(pos, len(rkeys) - 1)
        found = rkeys[pos_c] == fcols[0]
    else:
        # FNV fold over the bound positions; verify suspects exactly.
        fkey = _np.full(n, _FNV_OFFSET_NP, dtype=_np.uint64)
        prime = _np.uint64(_FNV_PRIME_NP)
        for (_position, _slot), arr in zip(slot_ops, fcols):
            fkey = (fkey ^ arr.astype(_np.uint64)) * prime
        if pristine:
            skeys, srows = relation.np_join_key(
                tuple(position for position, _slot in slot_ops)
            )
        else:
            rkey = _np.full(len(rows), _FNV_OFFSET_NP, dtype=_np.uint64)
            for (position, _slot), arr in zip(slot_ops, fcols):
                rkey = (
                    rkey ^ cols[position][rows].astype(_np.uint64)
                ) * prime
            order = _np.argsort(rkey, kind="stable")
            skeys = rkey[order]
            srows = rows[order]
        left = _np.searchsorted(skeys, fkey, side="left")
        right = _np.searchsorted(skeys, fkey, side="right")
        lens = right - left
        total = int(lens.sum())
        if not total:
            found = _np.zeros(n, dtype=bool)
        else:
            fidx = _np.repeat(_np.arange(n), lens)
            cum = _np.concatenate(([0], _np.cumsum(lens)[:-1]))
            sidx = _np.repeat(left - cum, lens) + _np.arange(total)
            crows = srows[sidx]
            pair_ok = _np.ones(total, dtype=bool)
            for (position, _slot), arr in zip(slot_ops, fcols):
                pair_ok &= cols[position][crows] == arr[fidx]
            found = _np.zeros(n, dtype=bool)
            found[fidx[pair_ok]] = True
    if matchable is not None:
        found &= matchable
    return ~found


class ColumnMatches:
    """The matches of one join as columns, in enumeration order: per
    variable exact codes and/or values.  Given values win (a delta
    fact's ``1.0`` stays ``1.0``, as the per-match path binds it); codes
    decode on first use, and values without codes are probed."""

    __slots__ = ("n", "variables", "_interner", "_codes", "_values")

    def __init__(
        self, interner: Any, n: int, codes: Dict[Variable, Any],
        values: Dict[Variable, List[Any]],
    ):
        self._interner = interner
        self.n = n
        self._codes = codes
        self._values = dict(values)
        self.variables = tuple(dict.fromkeys((*codes, *values))) if n else ()

    def values(self, var: Variable) -> List[Any]:
        column = self._values.get(var)
        if column is None:
            decode = self._interner.values.__getitem__
            column = self._values[var] = list(map(decode, self._codes[var].tolist()))
        return column

    def codes(self, var: Variable) -> Any:
        """int64 exact codes of ``var``, -1 for a value never interned."""
        codes = self._codes.get(var)
        if codes is None:
            codes = self._interner.probe_column(self._values[var])
        return codes.astype(_np.int64, copy=False)

    def substitutions(self) -> Iterator[Substitution]:
        """One substitution dict per match, in order (for per-match
        consumers: the scalar executor's dicts, key for key)."""
        variables = self.variables
        if not variables:
            return iter([{} for _ in range(self.n)])
        rows = zip(*[self.values(var) for var in variables])
        return (dict(zip(variables, row)) for row in rows)


def body_columns(plan: BodyPlan, db: Database) -> Optional[ColumnMatches]:
    """Every match of ``plan`` from one vectorized join, or ``None``
    when the plan does not qualify for :func:`execute_plan_vectorized`."""
    joined = execute_plan_vectorized(plan, db)
    if joined is None:
        return None
    n, columns, _origin = joined
    return ColumnMatches(db._interner, n, columns, {})


# ---------------------------------------------------------------------------
# Delta binding (semi-naive evaluation)
# ---------------------------------------------------------------------------


class DeltaBinder:
    """Binds one delta fact against the distinguished recursive atom."""

    __slots__ = ("arity", "verify", "bind", "check")

    def __init__(self, atom: Atom):
        self.arity = len(atom.terms)
        verify: List[Tuple[int, Any]] = []
        bind: List[Tuple[int, Variable]] = []
        check: List[Tuple[int, Variable]] = []
        novel: Set[Variable] = set()
        for i, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                if term.name == "_":
                    continue
                if term in novel:
                    check.append((i, term))
                else:
                    novel.add(term)
                    bind.append((i, term))
            else:
                verify.append((i, term))
        self.verify = tuple(verify)
        self.bind = tuple(bind)
        self.check = tuple(check)

    def match(self, fact: Fact) -> Optional[Substitution]:
        if len(fact) != self.arity:
            return None
        for pos, value in self.verify:
            if not values_equal(fact[pos], value):
                return None
        subst: Substitution = {}
        for pos, var in self.bind:
            subst[var] = fact[pos]
        for pos, var in self.check:
            if not values_equal(fact[pos], subst[var]):
                return None
        return subst


#: Changed facts per predicate, each set a ``dict`` in row order: a new
#: fact where its relation appended it, a removed one where it was
#: buried, mapped to the grave its relation's ``bury`` returned.  Delta
#: facts are joined in that order, so neither the ordinals of the nulls
#: they mint nor the row order of what they derive depends on the hash
#: seed, and no delta is sorted by value.
Changes = Dict[str, Dict[Fact, Any]]


#: Delta facts from which a semi-naive delta join runs on code columns
#: (:func:`delta_columns`) instead of once per base: below it the
#: vectorized join's fixed numpy cost outweighs the per-match work it
#: saves.  Measured on the control program (DESIGN.md, "Execution
#: paths").
COLUMNAR_MIN_BASES = 16


def _delta_indexes(body: Sequence[Any], delta: Changes) -> List[int]:
    """The body atoms a fact of ``delta`` can match, in body order."""
    return [
        i
        for i, literal in enumerate(body)
        if isinstance(literal, Atom) and delta.get(literal.predicate)
    ]


def _delta_bases(
    binder: DeltaBinder, facts: Sequence[Fact], interner: Any
) -> Optional[Tuple[int, Dict[Variable, Any], Dict[Variable, List[Any]]]]:
    """:meth:`DeltaBinder.match` over ``facts`` on code columns: the
    ``(count, codes, values)`` of the bases that match, per bound
    variable; ``None`` when the facts do not fit the atom or a bound
    value has no code to join on."""
    if len(facts[0]) != binder.arity:
        return None
    columns = list(zip(*facts))
    codes = {
        position: interner.probe_column(columns[position])
        for position, _ in (*binder.verify, *binder.bind, *binder.check)
    }
    keep = _np.ones(len(facts), dtype=bool)
    for position, value in binder.verify:  # -2 matches no code
        code = interner.probe(value) if value == value else None
        keep &= codes[position] == (-2 if code is None else code)
    first = {var: position for position, var in binder.bind}
    for position, var in binder.check:  # NaN never repeats
        keep &= codes[position] == codes[first[var]]
        keep &= ~_np.isin(codes[position], list(interner.nan_codes))
    chosen = keep.nonzero()[0]
    bound = {var: codes[position][chosen] for position, var in binder.bind}
    if any((column < 0).any() for column in bound.values()):
        return None
    picked = chosen.tolist()
    return (len(picked), bound, {
        var: list(map(columns[position].__getitem__, picked))
        for position, var in binder.bind
    })


def delta_columns(
    body: Sequence[Any],
    binder_of: Callable[[int], DeltaBinder],
    plan_of: Callable[[int], BodyPlan],
    db: Database,
    delta: Changes,
) -> Optional[ColumnMatches]:
    """:func:`delta_matches` on code columns: one vectorized join over
    the bound bases.  ``None`` — the caller joins per base — below
    :data:`COLUMNAR_MIN_BASES` delta facts, when several
    body atoms read the delta (their partitions would need the row ids
    of old facts), or when the rest plan does not qualify for
    :func:`execute_plan_vectorized`."""
    if sum(map(len, delta.values())) < COLUMNAR_MIN_BASES:
        return None
    changed = _delta_indexes(body, delta)
    if len(changed) != 1:
        return None
    (index,) = changed
    facts = list(delta[body[index].predicate])
    if len(facts) < COLUMNAR_MIN_BASES:
        return None
    bases = _delta_bases(binder_of(index), facts, db._interner)
    joined = bases and execute_plan_vectorized(plan_of(index), db, bases[:2])
    if joined is None:
        return None
    n, columns, origin = joined
    picked = origin.tolist() if n else []
    return ColumnMatches(db._interner, n, columns, {
        var: list(map(column.__getitem__, picked))
        for var, column in bases[2].items()
    })


def delta_matches(
    body: Sequence[Any],
    binder_of: Callable[[int], DeltaBinder],
    plan_of: Callable[[int], BodyPlan],
    db: Database,
    delta: Changes,
) -> Iterator[Substitution]:
    """Matches of ``body`` that use at least one fact of ``delta``.

    The semi-naive partition over the changed predicates (a recursive
    stratum's last round, or an update's net changes): for the k-th
    changed body occurrence chosen as the delta atom, earlier changed
    occurrences are restricted to old facts and later ones see the full
    relation — an exact partition of the new matches, with no dedup
    bookkeeping.  ``binder_of`` and ``plan_of`` give the delta binder
    and the rest-of-body plan of one occurrence.  A delta of
    :data:`COLUMNAR_MIN_BASES` facts or more that one body atom reads
    joins on code columns (:func:`delta_columns`); otherwise the rest
    plan runs once per base.
    """
    columns = delta_columns(body, binder_of, plan_of, db, delta)
    if columns is not None:
        yield from columns.substitutions()
        return
    delta_indexes = _delta_indexes(body, delta)
    for k, index in enumerate(delta_indexes):
        rest_plan = plan_of(index)
        excludes = {
            earlier: delta[body[earlier].predicate]
            for earlier in delta_indexes[:k]
        } or None
        for base in map(binder_of(index).match, delta[body[index].predicate]):
            if base is not None:
                yield from execute_plan(rest_plan, db, base, excludes)


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


def _hashable(value: Any) -> Any:
    """Make lists/dicts usable in group keys (rare, but defensive)."""
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    return value


def expression_vars_outside_aggregate(expression: Any) -> Set[Variable]:
    """Variables an expression needs besides the aggregate's own value."""
    if isinstance(expression, AggregateCall):
        return set()
    if isinstance(expression, BinOp):
        return expression_vars_outside_aggregate(
            expression.left
        ) | expression_vars_outside_aggregate(expression.right)
    if isinstance(expression, FunctionCall):
        out: Set[Variable] = set()
        for argument in expression.arguments:
            out |= expression_vars_outside_aggregate(argument)
        return out
    if isinstance(expression, TermExpr):
        return set(expression.variables())
    return set(expression.variables()) if hasattr(expression, "variables") else set()


class AggregateState:
    """What evaluating one aggregate rule accumulates: the contributor
    values per group, and per group the first match's binding of the
    plan's ``witness_vars``.  A stratum evaluation builds it and a
    retained run keeps it, for :func:`~repro.vadalog.incremental.apply_delta`
    to maintain."""

    __slots__ = ("accumulator", "witnesses")

    def __init__(self, function: str, recursive: bool = False):
        self.accumulator = GroupAccumulator(function, recursive=recursive)
        self.witnesses: Dict[Tuple[Any, ...], Substitution] = {}


class AggregatePlan:
    """Compiled aggregate rule: pre-body plan, grouping metadata, and the
    one evaluator of its contributions and emissions.

    A stratum evaluation contributes the whole pre-body into a fresh
    :class:`AggregateState` in its first round and only the matches of
    each later round's new facts afterwards; an update contributes the
    matches of its net changes.  Contributor-keyed collisions resolve
    per function, so the buckets equal the naive recomputation's.
    """

    __slots__ = (
        "assignment", "call", "target", "pre", "pre_plan", "post", "group_vars",
        "witness_vars", "_pre_delta", "_pre_binders", "_group",
    )

    def __init__(self, rule: Rule):
        self.assignment = next(a for a in rule.assignments() if a.is_aggregate)
        self.call = find_aggregate(self.assignment.expression)
        self.target = self.assignment.target
        pre: List[Any] = []
        post: List[Condition] = []
        for literal in rule.body:
            if literal is self.assignment:
                continue
            if isinstance(literal, Condition) and self.target in literal.variables():
                post.append(literal)
            elif isinstance(literal, Assignment) and self.target in literal.expression.variables():
                raise EvaluationError(
                    f"assignment depending on aggregate target in {rule}"
                )
            else:
                pre.append(literal)
        self.pre = tuple(pre)
        self.pre_plan = compile_body(pre)
        self.post = tuple(post)
        self.group_vars = tuple(sorted(
            (v for v in rule.head_variables()
             if v != self.target and v.name != "_"
             and v not in rule.existential_variables()),
            key=lambda v: v.name,
        ))
        # What an emission reads of a group's first match: the group,
        # plus what the assignment reads besides the aggregate (the
        # post-conditions see only the group and the target).
        extra = expression_vars_outside_aggregate(self.assignment.expression)
        self.witness_vars = self.group_vars + tuple(
            sorted(extra - set(self.group_vars), key=lambda v: v.name)
        )
        self._pre_delta: Dict[int, BodyPlan] = {}
        self._pre_binders: Dict[int, DeltaBinder] = {}
        self._group: Optional[BodyPlan] = None

    def group_of(self, substitution: Substitution) -> Tuple[Any, ...]:
        return tuple(_hashable(substitution.get(v)) for v in self.group_vars)

    def contribution(
        self, substitution: Substitution
    ) -> Tuple[Tuple[Any, ...], Tuple[Any, ...], Any]:
        """``(group, contributor, value)`` of one contribution-body match."""
        call = self.call
        if call.contributors:
            contributor = tuple(
                _hashable(substitution.get(v)) for v in call.contributors
            )
        else:
            contributor = tuple(
                sorted(
                    ((v.name, _hashable(value)) for v, value in substitution.items()),
                    key=lambda item: item[0],
                )
            )
        return (
            self.group_of(substitution),
            contributor,
            evaluate_expression(call.value, substitution),
        )

    def emission(
        self, state: AggregateState, group: Tuple[Any, ...]
    ) -> Optional[Substitution]:
        """The head substitution of ``group`` when the value its bucket
        holds passes the post-conditions, else ``None``."""
        accumulator = state.accumulator
        bucket = accumulator.state().get(group)
        if not bucket:
            return None
        base = state.witnesses[group]
        substitution = {v: base[v] for v in self.group_vars if v in base}
        try:
            value = aggregate(accumulator.function, bucket)
        except TypeError:
            offending = next(
                (v for v in bucket.values() if not isinstance(v, (int, float))),
                None,
            )
            raise EvaluationError(
                f"{accumulator.function} over group {group!r}: contribution "
                f"{offending!r} is not a number"
            ) from None
        expression = self.assignment.expression
        substitution[self.target] = (
            value if expression is self.call and value is not None
            else evaluate_expression(expression, base, aggregate_value=value)
        )
        for condition in self.post:
            if not check_condition(condition, substitution):
                return None
        return substitution

    def evaluate(
        self, state: AggregateState, matches: Iterable[Substitution]
    ) -> Iterator[Substitution]:
        """Contribute ``matches`` into ``state``, then yield the emission
        of every group they touched, in first-touch order (a group no
        match touched has nothing new to emit)."""
        accumulator = state.accumulator
        witnesses = state.witnesses
        touched: Dict[Tuple[Any, ...], None] = {}
        for substitution in matches:
            group, contributor, value = self.contribution(substitution)
            accumulator.contribute(group, contributor, value)
            if group not in witnesses:
                witnesses[group] = {
                    v: substitution[v]
                    for v in self.witness_vars
                    if v in substitution
                }
            touched[group] = None
        for group in touched:
            emitted = self.emission(state, group)
            if emitted is not None:
                yield emitted

    def evaluate_columns(
        self, state: AggregateState, matches: ColumnMatches
    ) -> Optional[ColumnMatches]:
        """:meth:`evaluate` over columns: the same contributions in match
        order, and the touched groups' emissions as columns.  ``None``,
        contributing nothing, when the body leaves the value unbound."""
        n = matches.n
        variables = matches.variables
        term = self.call.value.term
        if isinstance(term, Variable):
            if n and term not in variables:
                return None
            values: Iterable[Any] = matches.values(term) if n else ()
        else:
            values = _repeat(term, n)

        def rows(names: Sequence[Variable]) -> Iterable[Tuple[Any, ...]]:
            columns = [
                matches.values(v) if v in variables else _repeat(None, n)
                for v in names
            ]
            return zip(*columns) if columns else _repeat((), n)

        if self.call.contributors:
            contributors = rows(self.call.contributors)
        else:
            named = sorted(variables, key=lambda v: v.name)
            contributors = (
                zip(*[zip(_repeat(v.name), matches.values(v)) for v in named])
                if named else _repeat((), n)
            )
        contribute = state.accumulator.contribute
        witnesses = state.witnesses
        touched: Dict[Tuple[Any, ...], None] = {}
        first: Dict[Tuple[Any, ...], int] = {}
        try:
            for i, group, contributor, value in zip(
                _count(), rows(self.group_vars), contributors, values
            ):
                contribute(group, contributor, value)
                if group not in touched:
                    touched[group] = None
                    if group not in witnesses:
                        first[group] = i
        finally:
            kept = [v for v in self.witness_vars if v in variables]
            for group, i in first.items():
                witnesses[group] = {v: matches.values(v)[i] for v in kept}
        emitted = [
            substitution
            for substitution in map(partial(self.emission, state), touched)
            if substitution is not None
        ]
        heads = tuple(emitted[0]) if emitted else ()
        return ColumnMatches(matches._interner, len(emitted), {}, {
            var: [substitution[var] for substitution in emitted]
            for var in heads
        })

    def delta_matches(self, db: Database, delta: Changes) -> Iterator[Substitution]:
        """Contribution-body matches that use a fact of ``delta``."""
        return delta_matches(
            self.pre, self.pre_delta_binder, self.pre_delta_plan, db, delta
        )

    def group_plan(self) -> BodyPlan:
        """Pre-body plan with the group variables bound: the matches
        that contribute to one group, for rebuilding its bucket after
        a retraction."""
        if self._group is None:
            self._group = compile_body(self.pre, self.group_vars)
        return self._group

    def pre_delta_binder(self, index: int) -> DeltaBinder:
        """Delta binder for the ``index``-th pre-body literal (an Atom)."""
        binder = self._pre_binders.get(index)
        if binder is None:
            binder = DeltaBinder(self.pre[index])
            self._pre_binders[index] = binder
        return binder

    def pre_delta_plan(self, index: int) -> BodyPlan:
        """Rest-of-pre plan with the ``index``-th atom's variables bound.

        Each delta fact of one pre occurrence is joined against the rest
        of the aggregate's contribution body — mirroring
        :meth:`RulePlans.delta_plan` but scoped to the pre body (the rule
        body proper contains the aggregate assignment, which must never
        appear in a join plan).
        """
        plan = self._pre_delta.get(index)
        if plan is None:
            atom = self.pre[index]
            bound = {v for v in atom.variables() if v.name != "_"}
            rest = [literal for i, literal in enumerate(self.pre) if i != index]
            indexes = [i for i in range(len(self.pre)) if i != index]
            plan = compile_body(rest, bound, indexes)
            self._pre_delta[index] = plan
        return plan


# ---------------------------------------------------------------------------
# Head templates and per-rule plan bundles
# ---------------------------------------------------------------------------

_K_CONST, _K_VAR, _K_EXIST, _K_SKOLEM = 0, 1, 2, 3


class RulePlans:
    """All compiled artifacts of one rule; pieces build lazily."""

    __slots__ = (
        "rule", "is_aggregate", "head_ops", "placeholders", "head_bound_vars",
        "existentials", "_body", "_delta", "_binders", "_aggregate", "_head_check",
        "_rederive",
    )

    def __init__(self, rule: Rule):
        self.rule = rule
        self.is_aggregate = rule.has_aggregate()
        self._body: Optional[BodyPlan] = None
        # By atom index; by (index, whole) for a negated literal.
        self._delta: Dict[Any, BodyPlan] = {}
        self._binders: Dict[int, DeltaBinder] = {}
        self._aggregate: Optional[AggregatePlan] = None
        self._head_check: Optional[BodyPlan] = None
        self._rederive: Dict[Optional[int], BodyPlan] = {}

        body_vars = rule.body_variables()
        head_ops: List[Tuple[str, Tuple[Tuple[int, Any], ...]]] = []
        placeholders: List[Tuple[Variable, str, Tuple[Tuple[bool, Any], ...]]] = []
        head_bound: Set[Variable] = set()
        existentials: Set[Variable] = set()
        for atom in rule.head:
            slots: List[Tuple[int, Any]] = []
            for term in atom.terms:
                if isinstance(term, SkolemTerm):
                    placeholder = Variable(f"$sk{len(placeholders)}")
                    arg_ops = tuple(
                        (isinstance(a, Variable), a) for a in term.arguments
                    )
                    placeholders.append((placeholder, term.functor, arg_ops))
                    slots.append((_K_SKOLEM, placeholder))
                elif isinstance(term, Variable):
                    if term in body_vars:
                        head_bound.add(term)
                        slots.append((_K_VAR, term))
                    else:
                        existentials.add(term)
                        slots.append((_K_EXIST, term))
                else:
                    slots.append((_K_CONST, term))
            head_ops.append((atom.predicate, tuple(slots)))
        self.head_ops = tuple(head_ops)
        self.placeholders = tuple(placeholders)
        self.head_bound_vars = tuple(head_bound)
        self.existentials = tuple(sorted(existentials, key=lambda v: v.name))

    # -- lazy pieces ----------------------------------------------------
    def body_plan(self) -> BodyPlan:
        if self._body is None:
            self._body = compile_body(self.rule.body)
        return self._body

    def delta_binder(self, index: int) -> DeltaBinder:
        """Binder for the ``index``-th body literal, an atom or a
        negated one (a changed fact of the negated predicate then binds
        the key the negation is evaluated for)."""
        binder = self._binders.get(index)
        if binder is None:
            literal = self.rule.body[index]
            binder = DeltaBinder(
                literal.atom if isinstance(literal, NegatedAtom) else literal
            )
            self._binders[index] = binder
        return binder

    def delta_plan(self, index: int) -> BodyPlan:
        plan = self._delta.get(index)
        if plan is None:
            body = self.rule.body
            atom = body[index]
            bound = {v for v in atom.variables() if v.name != "_"}
            rest = [literal for i, literal in enumerate(body) if i != index]
            indexes = [i for i in range(len(body)) if i != index]
            plan = compile_body(rest, bound, indexes)
            self._delta[index] = plan
        return plan

    def delta_matches(self, db: Database, delta: Changes) -> Iterator[Substitution]:
        """Body matches that use a fact of ``delta``."""
        return delta_matches(
            self.rule.body, self.delta_binder, self.delta_plan, db, delta
        )

    def negation_plan(self, index: int, whole: bool) -> BodyPlan:
        """Body plan with the variables of the negated atom at ``index``
        bound by a changed fact of its predicate.

        ``whole`` keeps every literal, the negated one included: run on
        the new database it decides whether the body holds for that key
        (``not p(X, _)`` stays false while another ``p(x, _)`` is left).
        Otherwise every negated literal is dropped, which gives a
        superset of the matches the body had before the change whatever
        the negated predicates hold now.
        """
        plan = self._delta.get((index, whole))
        if plan is None:
            body = self.rule.body
            bound = {v for v in body[index].atom.variables() if v.name != "_"}
            kept = [
                i for i, literal in enumerate(body)
                if whole or not isinstance(literal, NegatedAtom)
            ]
            plan = compile_body([body[i] for i in kept], bound, kept)
            self._delta[(index, whole)] = plan
        return plan

    def aggregate_plan(self) -> AggregatePlan:
        if self._aggregate is None:
            self._aggregate = AggregatePlan(self.rule)
        return self._aggregate

    def rederive_bound_vars(
        self, head_index: Optional[int] = None
    ) -> Tuple[Variable, ...]:
        """Body variables recoverable from a ground fact of head ``head_index``
        (``None``: from the facts of all head atoms, one whole firing):
        the frontier variables plus the Skolem argument variables."""
        heads = (
            self.head_ops if head_index is None else (self.head_ops[head_index],)
        )
        placeholders = {ph: arg_ops for ph, _, arg_ops in self.placeholders}
        bound: Set[Variable] = set()
        for _, slots in heads:
            for kind, payload in slots:
                if kind == _K_VAR:
                    bound.add(payload)
                elif kind == _K_SKOLEM:
                    for is_var, argument in placeholders[payload]:
                        if is_var and argument.name != "_":
                            bound.add(argument)
        return tuple(sorted(bound, key=lambda v: v.name))

    def rederive_plan(self, head_index: Optional[int] = None) -> BodyPlan:
        """Goal-directed body plan for re-deriving one head fact, or
        (``None``) one firing from the pattern of all its head facts.

        Compiled with the recoverable head variables *pre-bound*, because
        :func:`execute_plan` must not be handed initial bindings a plan
        was not compiled for — ``AtomStep.bind`` overwrites variables it
        believes are novel, silently clobbering the goal bindings.
        """
        plan = self._rederive.get(head_index)
        if plan is None:
            plan = compile_body(
                self.rule.body, self.rederive_bound_vars(head_index)
            )
            self._rederive[head_index] = plan
        return plan

    def head_check_plan(self) -> BodyPlan:
        """Conjunctive-match plan over the head, for the restricted chase."""
        if self._head_check is None:
            atoms: List[Atom] = []
            for (predicate, slots), atom in zip(self.head_ops, self.rule.head):
                terms: List[Any] = []
                for kind, payload in slots:
                    terms.append(payload)  # placeholders stand in for Skolems
                atoms.append(Atom(predicate, tuple(terms)))
            bound = set(self.head_bound_vars)
            bound.update(ph for ph, _, _ in self.placeholders)
            self._head_check = compile_body(atoms, bound)
        return self._head_check

    # -- the chase step -------------------------------------------------
    def columns(
        self,
        db: Database,
        delta: Optional[Changes],
        state: Optional[AggregateState] = None,
    ) -> Optional[ColumnMatches]:
        """The matches this rule fires for — the body's, or those using
        a fact of ``delta`` — on code columns; an aggregate rule's
        emissions, once they are contributed into ``state``.  ``None``
        when the rule fires per match (a Skolem head always does)."""
        if self.placeholders:
            return None
        if not self.is_aggregate:
            if delta is None:
                return body_columns(self.body_plan(), db)
            return delta_columns(
                self.rule.body, self.delta_binder, self.delta_plan, db, delta
            )
        plan = self.aggregate_plan()
        if not isinstance(plan.call.value, TermExpr):
            return None  # a value expression is evaluated per match
        if delta is None:
            contributions = body_columns(plan.pre_plan, db)
        else:
            contributions = delta_columns(
                plan.pre, plan.pre_delta_binder, plan.pre_delta_plan, db, delta
            )
        if contributions is None:
            return None
        return plan.evaluate_columns(state, contributions)

    def fire_columns(
        self,
        matches: ColumnMatches,
        db: Database,
        stats: Any,
        nulls: Any,
        max_nulls: int,
    ) -> Optional[List[Tuple[str, Fact]]]:
        """:meth:`instantiate_head` for every match at once, the facts in
        its order; ``None`` when the head must fire per match.  The
        restricted chase's check is one anti-join of the frontier codes
        against the committed facts; the matches it leaves take nulls in
        match order, up to the firing where the null budget runs out."""
        n = matches.n
        frontier = self.head_bound_vars
        if n and any(v not in matches.variables for v in frontier):
            return None
        fire: Optional[List[int]] = None  # None: every match fires
        nulls_of: Dict[Variable, List[Any]] = {}
        if self.existentials and n:
            check = self.head_check_plan()
            steps = _batch_program(check, frontier).steps
            if not all(any(is_slot for is_slot, _ in s.key_ops) for s in steps):
                return None  # a head atom the frontier does not key
            joined = execute_plan_vectorized(
                check, db, (n, {v: matches.codes(v) for v in frontier})
            )
            if joined is None:
                return None
            satisfied = _np.zeros(n, dtype=bool)
            if joined[0]:
                satisfied[joined[2]] = True
            fire = (~satisfied).nonzero()[0].tolist()
            width = len(self.existentials)
            allowed = max(0, (max_nulls - stats.nulls_created) // width)
            failing = fire[allowed] if len(fire) > allowed else None
            fire = fire[:allowed]

            def patterns() -> Iterator[List[Tuple[str, List[Any]]]]:
                for i in fire:
                    yield [
                        (predicate, [
                            matches.values(payload)[i] if kind == _K_VAR
                            else payload
                            for kind, payload in slots
                        ])
                        for predicate, slots in self.head_ops
                    ]

            nulls_of = nulls.assign_columns(
                patterns(), self.existentials, len(fire)
            )
            stats.nulls_created += width * len(fire)
            if failing is not None:
                stats.rule_firings += failing + 1
                stats.columnar_firings += failing + 1
                raise ResourceLimitError(
                    f"null budget exceeded ({max_nulls}); the program "
                    "likely falls outside the terminating fragment",
                    resource="nulls",
                    limit=max_nulls,
                    stats=stats,
                )
        stats.rule_firings += n
        stats.columnar_firings += n
        m = n if fire is None else len(fire)
        if not m:
            return []

        def column(kind: int, payload: Any) -> Iterable[Any]:
            if kind == _K_CONST:
                return _repeat(payload, m)
            if kind == _K_EXIST:
                return nulls_of[payload]
            values = matches.values(payload)
            return values if fire is None else map(values.__getitem__, fire)

        atoms = [
            zip(_repeat(predicate), (
                zip(*[column(kind, payload) for kind, payload in slots])
                if slots else _repeat((), m)
            ))
            for predicate, slots in self.head_ops
        ]
        return list(_chain.from_iterable(zip(*atoms)))

    def resolve_head(
        self, substitution: Substitution, skolems: Dict[str, SkolemFunctor]
    ) -> Tuple[List[Tuple[str, List[Any]]], Dict[Variable, Any]]:
        """The head atoms under ``substitution`` with existential
        variables left in place, and the Skolem values by placeholder."""
        skolem_values: Dict[Variable, Any] = {}
        for placeholder, functor_name, arg_ops in self.placeholders:
            functor = skolems.get(functor_name)
            if functor is None:
                functor = SkolemFunctor(functor_name)
                skolems[functor_name] = functor
            arguments = []
            for is_var, argument in arg_ops:
                if is_var:
                    if argument not in substitution:
                        raise EvaluationError(
                            f"Skolem argument {argument!r} unbound in {self.rule}"
                        )
                    arguments.append(substitution[argument])
                else:
                    arguments.append(argument)
            skolem_values[placeholder] = functor(*arguments)

        resolved: List[Tuple[str, List[Any]]] = []
        for predicate, slots in self.head_ops:
            terms: List[Any] = []
            for kind, payload in slots:
                if kind == _K_CONST:
                    terms.append(payload)
                elif kind == _K_VAR:
                    terms.append(substitution[payload])
                elif kind == _K_SKOLEM:
                    terms.append(skolem_values[payload])
                else:  # _K_EXIST — left for the caller
                    terms.append(payload)
            resolved.append((predicate, terms))
        return resolved, skolem_values

    def instantiate_head(
        self,
        substitution: Substitution,
        db: Database,
        stats: Any,
        nulls: Any,
        skolems: Dict[str, SkolemFunctor],
        max_nulls: int,
    ) -> Iterator[Tuple[str, Fact]]:
        """Resolve the head under ``substitution`` (the chase step)."""
        resolved, skolem_values = self.resolve_head(substitution, skolems)

        if self.existentials:
            # Restricted chase: skip when the head conjunction is already
            # satisfied by some assignment of the existential variables.
            initial: Substitution = {
                v: substitution[v] for v in self.head_bound_vars
            }
            initial.update(skolem_values)
            for _ in execute_plan(self.head_check_plan(), db, initial):
                return
            if stats.nulls_created + len(self.existentials) > max_nulls:
                raise ResourceLimitError(
                    f"null budget exceeded ({max_nulls}); the program "
                    "likely falls outside the terminating fragment",
                    resource="nulls",
                    limit=max_nulls,
                    stats=stats,
                )
            assignment = nulls.assign(resolved, self.existentials)
            stats.nulls_created += len(assignment)
            for predicate, terms in resolved:
                yield predicate, tuple(
                    assignment.get(t, t) if isinstance(t, Variable) else t
                    for t in terms
                )
            return

        for predicate, terms in resolved:
            yield predicate, tuple(terms)
