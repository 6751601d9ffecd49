"""Parser for the Vadalog concrete syntax.

The paper presents Vadalog in mathematical notation (Example 4.2); this
module defines the faithful ASCII grammar the library accepts:

.. code-block:: none

    program     := (rule | fact | annotation)*
    rule        := body "->" head "."
    fact        := atom "."
    body        := literal ("," literal)*
    literal     := "not" atom | atom | assignment | condition
    head        := atom ("," atom)*
    atom        := predicate "(" [term ("," term)*] ")"
    term        := VAR | constant | skolem
    skolem      := "#" IDENT "(" [term ("," term)*] ")"     (heads only)
    assignment  := VAR "=" expression
    condition   := expression cmp expression                 cmp in == != < <= > >=
    expression  := arithmetic over terms, functions, aggregates
    aggregate   := AGG "(" expression ["," "<" VAR ("," VAR)* ">"] ")"
    annotation  := "@" IDENT "(" [const ("," const)*] ")" "."

Identifier convention (standard Datalog): a leading uppercase letter or
underscore makes a variable; lowercase identifiers are symbol constants in
term positions and predicate names in atom positions.  ``true``/``false``
are Boolean constants.  Example:

.. code-block:: none

    company(X) -> controls(X, X).
    controls(X, Z), own(Z, Y, W), V = msum(W, <Z>), V > 0.5
        -> controls(X, Y).
    @output("controls").
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.errors import ParseError
from repro.lexing import TokenStream
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
    TermExpr as _TermExpr,
)
from repro.vadalog.terms import ANONYMOUS, Variable

#: Recognized aggregation function names (m-prefixed = monotonic variants).
AGGREGATE_FUNCTIONS = {
    "sum", "msum", "count", "mcount", "min", "mmin", "max", "mmax",
    "prod", "mprod", "avg",
}

_COMPARISONS = {"==", "!=", "<", "<=", ">", ">="}


def parse_program(text: str) -> Program:
    """Parse a full Vadalog program from text."""
    return _Parser(TokenStream.from_text(text)).program()


def parse_rule(text: str) -> Rule:
    """Parse a single rule (convenience for tests and examples)."""
    program = parse_program(text)
    if len(program.rules) != 1:
        raise ParseError(f"expected exactly one rule, found {len(program.rules)}")
    return program.rules[0]


def parse_atom(text: str) -> Atom:
    """Parse a single atom as a rule body would hold it (no Skolem
    terms): the syntax of a query."""
    stream = TokenStream.from_text(text)
    atom = _Parser(stream).atom(allow_skolem=False)
    if not stream.at_eof():
        raise stream.error("expected a single atom")
    return atom


class _Parser:
    def __init__(self, stream: TokenStream):
        self.stream = stream

    # ------------------------------------------------------------------
    def program(self) -> Program:
        program = Program()
        while not self.stream.at_eof():
            if self.stream.at_punct("@"):
                program.annotations.append(self.annotation())
            else:
                program.rules.append(self.rule_or_fact())
        return program

    def annotation(self) -> Annotation:
        self.stream.expect_punct("@")
        name = self.stream.expect("IDENT").value
        arguments: List[Any] = []
        self.stream.expect_punct("(")
        if not self.stream.at_punct(")"):
            arguments.append(self._annotation_argument())
            while self.stream.accept_punct(","):
                arguments.append(self._annotation_argument())
        self.stream.expect_punct(")")
        self.stream.expect_punct(".")
        return Annotation(str(name), tuple(arguments))

    def _annotation_argument(self) -> Any:
        token = self.stream.current
        if token.kind in ("STRING", "NUMBER"):
            self.stream.advance()
            return token.value
        if token.kind == "IDENT":
            self.stream.advance()
            return token.value
        raise self.stream.error("annotation arguments must be constants")

    def rule_or_fact(self) -> Rule:
        body = [self.body_literal()]
        while self.stream.accept_punct(","):
            body.append(self.body_literal())
        if self.stream.accept_punct("->"):
            head = [self.head_atom()]
            while self.stream.accept_punct(","):
                head.append(self.head_atom())
            self.stream.expect_punct(".")
            return Rule(tuple(body), tuple(head))
        # A bare atom followed by "." is a fact: an empty-body rule.
        self.stream.expect_punct(".")
        if len(body) != 1 or not isinstance(body[0], Atom):
            raise self.stream.error("fact must be a single atom")
        return Rule((), (body[0],))

    # ------------------------------------------------------------------
    # Body
    # ------------------------------------------------------------------
    def body_literal(self):
        if self.stream.at_ident("not"):
            self.stream.advance()
            return NegatedAtom(self.atom(allow_skolem=False))
        # Assignment:  VAR = expression   (but VAR == x is a condition)
        if (
            self.stream.at("IDENT")
            and _is_variable_name(self.stream.current.value)
            and self.stream.peek().kind == "PUNCT"
            and self.stream.peek().value == "="
        ):
            target = Variable(self.stream.advance().value)
            self.stream.expect_punct("=")
            return Assignment(target, self.expression())
        # Atom: IDENT followed by "(" with no comparison after the closing
        # paren would also match a function-call condition; try atom first.
        checkpoint = self.stream.save()
        if self.stream.at("IDENT") and self.stream.peek().value == "(":
            try:
                atom = self.atom(allow_skolem=False)
            except ParseError:
                self.stream.restore(checkpoint)
            else:
                if not (
                    self.stream.at("PUNCT")
                    and self.stream.current.value in _COMPARISONS
                ):
                    return atom
                self.stream.restore(checkpoint)
        # Otherwise: a comparison condition.
        left = self.expression()
        token = self.stream.current
        if token.kind == "PUNCT" and token.value in _COMPARISONS:
            op = self.stream.advance().value
            right = self.expression()
            return Condition(str(op), left, right)
        raise self.stream.error("expected atom, assignment, or condition")

    # ------------------------------------------------------------------
    # Atoms and terms
    # ------------------------------------------------------------------
    def atom(self, allow_skolem: bool) -> Atom:
        predicate = self.stream.expect("IDENT").value
        self.stream.expect_punct("(")
        terms: List[Any] = []
        if not self.stream.at_punct(")"):
            terms.append(self.term(allow_skolem))
            while self.stream.accept_punct(","):
                terms.append(self.term(allow_skolem))
        self.stream.expect_punct(")")
        return Atom(str(predicate), tuple(terms))

    def head_atom(self) -> Atom:
        return self.atom(allow_skolem=True)

    def term(self, allow_skolem: bool) -> Any:
        token = self.stream.current
        if token.kind in ("STRING", "NUMBER"):
            self.stream.advance()
            return token.value
        if token.kind == "PUNCT" and token.value == "-":
            self.stream.advance()
            number = self.stream.expect("NUMBER")
            return -number.value
        if token.kind == "PUNCT" and token.value == "#":
            if not allow_skolem:
                raise self.stream.error("Skolem terms are only allowed in rule heads")
            return self.skolem_term()
        if token.kind == "IDENT":
            self.stream.advance()
            name = str(token.value)
            if name == "true":
                return True
            if name == "false":
                return False
            if name == "_":
                return ANONYMOUS
            if _is_variable_name(name):
                return Variable(name)
            return name  # lowercase identifier: a symbol constant
        raise self.stream.error(f"expected a term, found {token.value!r}")

    def skolem_term(self) -> SkolemTerm:
        self.stream.expect_punct("#")
        functor = self.stream.expect("IDENT").value
        self.stream.expect_punct("(")
        arguments: List[Any] = []
        if not self.stream.at_punct(")"):
            arguments.append(self.term(allow_skolem=False))
            while self.stream.accept_punct(","):
                arguments.append(self.term(allow_skolem=False))
        self.stream.expect_punct(")")
        return SkolemTerm(str(functor), tuple(arguments))

    # ------------------------------------------------------------------
    # Expressions: standard precedence  (* / %) over (+ -)
    # ------------------------------------------------------------------
    def expression(self):
        left = self.mul_expression()
        while self.stream.at("PUNCT") and self.stream.current.value in ("+", "-"):
            op = self.stream.advance().value
            right = self.mul_expression()
            left = BinOp(str(op), left, right)
        return left

    def mul_expression(self):
        left = self.unary_expression()
        while self.stream.at("PUNCT") and self.stream.current.value in ("*", "/", "%"):
            op = self.stream.advance().value
            right = self.unary_expression()
            left = BinOp(str(op), left, right)
        return left

    def unary_expression(self):
        if self.stream.accept_punct("-"):
            operand = self.unary_expression()
            return BinOp("-", TermExpr(0), operand)
        return self.primary_expression()

    def primary_expression(self):
        token = self.stream.current
        if token.kind == "PUNCT" and token.value == "(":
            self.stream.advance()
            inner = self.expression()
            self.stream.expect_punct(")")
            return inner
        if token.kind in ("STRING", "NUMBER"):
            self.stream.advance()
            return TermExpr(token.value)
        if token.kind == "IDENT":
            name = str(token.value)
            # Function or aggregate call
            if self.stream.peek().kind == "PUNCT" and self.stream.peek().value == "(":
                self.stream.advance()
                if name in AGGREGATE_FUNCTIONS:
                    return self.aggregate_call(name)
                return self.function_call(name)
            self.stream.advance()
            if name == "true":
                return TermExpr(True)
            if name == "false":
                return TermExpr(False)
            if _is_variable_name(name):
                return TermExpr(Variable(name))
            return TermExpr(name)
        raise self.stream.error(f"expected an expression, found {token.value!r}")

    def function_call(self, name: str) -> FunctionCall:
        self.stream.expect_punct("(")
        arguments: List[Any] = []
        if not self.stream.at_punct(")"):
            arguments.append(self.expression())
            while self.stream.accept_punct(","):
                arguments.append(self.expression())
        self.stream.expect_punct(")")
        return FunctionCall(name, tuple(arguments))

    def aggregate_call(self, name: str) -> AggregateCall:
        self.stream.expect_punct("(")
        value = self.expression()
        contributors: Tuple[Variable, ...] = ()
        if self.stream.accept_punct(","):
            self.stream.expect_punct("<")
            names = [self._contributor_name(name)]
            while self.stream.accept_punct(","):
                names.append(self._contributor_name(name))
            self.stream.expect_punct(">")
            contributors = tuple(Variable(n) for n in names)
        self.stream.expect_punct(")")
        return AggregateCall(name, value, contributors)

    def _contributor_name(self, aggregate: str) -> str:
        """One contributor in ``<z, ...>`` — must name a variable.

        A lowercase identifier here would otherwise be silently coerced
        into a fresh variable that binds nothing, making every body match
        contribute under the same key — a data-dependent wrong answer
        rather than an error.
        """
        token = self.stream.expect("IDENT")
        name = str(token.value)
        if not _is_variable_name(name):
            raise self.stream.error(
                f"contributor {name!r} in {aggregate}(...) is not a variable "
                f"(variables start with an uppercase letter or underscore)"
            )
        return name


def _is_variable_name(name: str) -> bool:
    """Datalog convention: leading uppercase or underscore = variable."""
    return bool(name) and (name[0].isupper() or name[0] == "_")
