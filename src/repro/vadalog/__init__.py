"""Vadalog substitute: a warded Datalog± engine with chase semantics.

The paper's intensional components run on the (proprietary) Vadalog
System; this package is the from-scratch replacement described in
DESIGN.md.  Public surface:

- :func:`parse_program` — parse the ASCII concrete syntax;
- :class:`Engine` / :class:`EvaluationResult` — chase-based evaluation;
- :class:`Database` — fact storage;
- :func:`check_warded` / :func:`check_piecewise_linear` — static analysis;
- :func:`stratify` — the evaluation schedule.
"""

from repro.vadalog.ast import (
    AggregateCall,
    Annotation,
    Assignment,
    Atom,
    BinOp,
    Condition,
    FunctionCall,
    NegatedAtom,
    Program,
    Rule,
    SkolemTerm,
    TermExpr,
)
from repro.vadalog.columnar import ColumnarRelation, SpillStore, ValueInterner
from repro.vadalog.database import Database, Relation
from repro.vadalog.engine import Engine, EvaluationResult, EvaluationStats
from repro.vadalog.magic import (
    GoalDirectedEvaluator,
    MagicProgram,
    Query,
    QueryAnswer,
    magic_rewrite,
    parse_query,
)
from repro.vadalog.parser import parse_program, parse_rule
from repro.vadalog.stratify import Stratum, stratify
from repro.vadalog.terms import (
    ANONYMOUS,
    Null,
    NullFactory,
    SkolemFunctor,
    SkolemValue,
    Variable,
)
from repro.vadalog.warded import check_piecewise_linear, check_warded
from repro.vadalog.annotations import Source, resolve_inputs

__all__ = [
    "AggregateCall",
    "Annotation",
    "Assignment",
    "Atom",
    "BinOp",
    "Condition",
    "FunctionCall",
    "NegatedAtom",
    "Program",
    "Rule",
    "SkolemTerm",
    "TermExpr",
    "Database",
    "Relation",
    "ColumnarRelation",
    "SpillStore",
    "ValueInterner",
    "Engine",
    "EvaluationResult",
    "EvaluationStats",
    "GoalDirectedEvaluator",
    "MagicProgram",
    "Query",
    "QueryAnswer",
    "magic_rewrite",
    "parse_query",
    "parse_program",
    "parse_rule",
    "Stratum",
    "stratify",
    "ANONYMOUS",
    "Null",
    "NullFactory",
    "SkolemFunctor",
    "SkolemValue",
    "Variable",
    "check_piecewise_linear",
    "check_warded",
    "Source",
    "resolve_inputs",
]
