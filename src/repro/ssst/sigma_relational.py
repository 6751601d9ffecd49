"""Translating the intensional component for relational targets.

Algorithm 1 returns, besides the target schema S', "(ii) a new version
of the intensional component that can be applied to S' instances".  For
the relational model this module produces that version: the MetaLog
rules, written against the super-schema's node/edge types, are rewritten
into Vadalog over the *translated tables* — member tables joined along
the generalization chain, foreign-key columns for many-to-one edges,
bridge tables for many-to-many (and intensional) edges.

:func:`reason_over_relational` then closes the loop of Section 6 without
going through the super-model dictionary at all: facts are extracted
from the deployed :class:`~repro.deploy.relational_engine.RelationalEngine`,
the chase runs, and the derived rows are inserted back into the
intensional bridge tables.

Scope (documented): entities must have single-attribute identifiers (as
in the Company KG); body path patterns must be simple edges (programs
with Kleene star or alternation go through Algorithm 2 instead); head
patterns must be edges whose relational form is a bridge table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.schema import SuperSchema
from repro.core.supermodel import SMEdge, SMNode
from repro.deploy.relational_rows import edge_fk_owner
from repro.errors import TranslationError
from repro.metalog.ast import (
    GraphPattern,
    MetaProgram,
    NegatedPattern,
    NodeAtom,
    PathEdge,
)
from repro.models.relational import RelationalSchema, Table
from repro.vadalog.ast import Atom, Condition, NegatedAtom, Program, Rule, TermExpr
from repro.vadalog.database import Database
from repro.vadalog.engine import Engine
from repro.vadalog.terms import ANONYMOUS, Variable, fact_sort_key


@dataclass
class CompiledRelationalSigma:
    """Result of :func:`translate_sigma_for_relational`."""

    program: Program
    #: Tables read by the program (to be extracted from the engine).
    input_tables: Set[str] = field(default_factory=set)
    #: Derived bridge tables: label -> table name.
    derived_tables: Dict[str, str] = field(default_factory=dict)


class _SigmaCompiler:
    def __init__(self, schema: SuperSchema, relational: RelationalSchema):
        self.schema = schema
        self.relational = relational
        self._fresh = 0
        self.input_tables: Set[str] = set()
        self.derived_tables: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def fresh_variable(self, hint: str = "k") -> Variable:
        self._fresh += 1
        return Variable(f"_{hint}{self._fresh}")

    def _table(self, name: str) -> Table:
        if name not in self.relational.tables:
            raise TranslationError(
                f"type {name!r} has no table in the translated schema"
            )
        return self.relational.tables[name]

    def _key_attr(self, node: SMNode) -> str:
        identifier = self.schema.identifier_of(node)
        if len(identifier) != 1:
            raise TranslationError(
                f"type {node.type_name!r} needs a single-attribute identifier "
                "for the relational sigma translation"
            )
        return identifier[0].name

    def _column_index(self, table: Table, column: str) -> int:
        for i, col in enumerate(table.columns):
            if col.name == column:
                return i
        raise TranslationError(
            f"table {table.name!r} has no column {column!r}"
        )

    def _table_atom(self, table: Table, bindings: Dict[str, Any]) -> Atom:
        """An atom over a table with the given column bindings."""
        self.input_tables.add(table.name)
        terms: List[Any] = [ANONYMOUS] * len(table.columns)
        for column, term in bindings.items():
            terms[self._column_index(table, column)] = term
        return Atom(table.name, tuple(terms))

    def _pk_column(self, node: SMNode) -> str:
        key = self._key_attr(node)
        if self.schema.parents_of(node):
            return f"isA_{node.type_name}_{key}"
        return key

    # ------------------------------------------------------------------
    def _node_atoms(self, atom: NodeAtom, key_var: Variable) -> List[Atom]:
        """Membership + attribute access for one node atom."""
        if atom.label is None:
            return []  # bare re-reference
        node = self.schema.get_node(atom.label)
        chain = [node] + self.schema.ancestors_of(node)
        by_declaring: Dict[str, Dict[str, Any]] = {node.type_name: {}}
        for name, term in atom.attributes:
            declaring = None
            for member in chain:
                if any(a.name == name for a in member.attributes):
                    declaring = member
                    break
            if declaring is None:
                raise TranslationError(
                    f"type {atom.label!r} has no attribute {name!r}"
                )
            by_declaring.setdefault(declaring.type_name, {})[name] = term
        atoms: List[Atom] = []
        for member in chain:
            bindings = by_declaring.get(member.type_name)
            if bindings is None:
                continue
            bindings = dict(bindings)
            bindings[self._pk_column(member)] = key_var
            atoms.append(self._table_atom(self._table(member.type_name), bindings))
        return atoms

    def _edge_atoms(
        self,
        edge: SMEdge,
        edge_atom,
        source_key: Variable,
        target_key: Variable,
    ) -> Tuple[List[Atom], List[Condition]]:
        """Body literals realizing one edge traversal."""
        attributes = dict(edge_atom.attributes)
        owner = edge_fk_owner(self.schema, edge)
        if owner is None:
            # Many-to-many: the bridge table.
            table = self._table(edge.type_name)
            src_key_name = self._key_attr(edge.source)
            tgt_key_name = self._key_attr(edge.target)
            bindings: Dict[str, Any] = {
                f"{edge.type_name}_src_{src_key_name}": source_key,
                f"{edge.type_name}_tgt_{tgt_key_name}": target_key,
            }
            bindings.update(attributes)
            return [self._table_atom(table, bindings)], []
        holder, referenced = owner
        holder_key = source_key if holder is edge.source else target_key
        referenced_key = target_key if holder is edge.source else source_key
        table = self._table(holder.type_name)
        bindings = {self._pk_column(holder): holder_key}
        bindings[f"{edge.type_name}_{self._key_attr(referenced)}"] = referenced_key
        bindings.update(attributes)
        conditions = [
            Condition("!=", TermExpr(referenced_key), TermExpr(None))
        ]
        return [self._table_atom(table, bindings)], conditions

    # ------------------------------------------------------------------
    def compile_program(self, sigma: MetaProgram) -> Program:
        program = Program()
        for rule in sigma.rules:
            program.rules.append(self.compile_rule(rule))
        return program

    def compile_rule(self, rule) -> Rule:
        key_vars: Dict[int, Variable] = {}

        def key_var(atom: NodeAtom) -> Variable:
            if atom.variable is not None and atom.variable.name != "_":
                return atom.variable
            return key_vars.setdefault(id(atom), self.fresh_variable())

        body: List[Any] = []
        for element in rule.body:
            if isinstance(element, GraphPattern):
                body.extend(self._compile_pattern(element, key_var))
            elif isinstance(element, NegatedPattern):
                literals = self._compile_pattern(element.pattern, key_var)
                atoms = [lit for lit in literals if isinstance(lit, Atom)]
                if len(atoms) != 1:
                    raise TranslationError(
                        "negated patterns must translate to a single table "
                        f"atom: {element}"
                    )
                body.append(NegatedAtom(atoms[0]))
            else:
                body.append(element)

        head: List[Atom] = []
        for pattern in rule.head:
            head.extend(self._compile_head(pattern, key_var))
        return Rule(tuple(body), tuple(head))

    def _compile_pattern(self, pattern: GraphPattern, key_var) -> List[Any]:
        literals: List[Any] = []
        for atom in pattern.node_atoms:
            literals.extend(self._node_atoms(atom, key_var(atom)))
        for source, path, target in pattern.hops():
            if not isinstance(path, PathEdge):
                raise TranslationError(
                    "path expressions beyond simple edges are not supported "
                    "by the relational sigma translation; use Algorithm 2"
                )
            edge_atom = path.edge
            if edge_atom.label is None:
                raise TranslationError(f"edge atom needs a label: {pattern}")
            edge = self.schema.get_edge(edge_atom.label)
            src, tgt = key_var(source), key_var(target)
            if edge_atom.inverted:
                src, tgt = tgt, src
            atoms, conditions = self._edge_atoms(edge, edge_atom, src, tgt)
            literals.extend(atoms)
            literals.extend(conditions)
        return literals

    def _compile_head(self, pattern: GraphPattern, key_var) -> List[Atom]:
        atoms: List[Atom] = []
        for atom in pattern.node_atoms:
            if atom.label is not None and atom.attributes:
                raise TranslationError(
                    "head node updates are not supported by the relational "
                    "sigma translation; use Algorithm 2 for attribute heads"
                )
        for source, path, target in pattern.hops():
            if not isinstance(path, PathEdge) or path.edge.label is None:
                raise TranslationError(f"head paths must be labeled edges: {pattern}")
            edge = self.schema.get_edge(path.edge.label)
            if edge_fk_owner(self.schema, edge) is not None:
                raise TranslationError(
                    f"derived edge {edge.type_name!r} must be many-to-many "
                    "(a bridge table) in the relational target"
                )
            table = self._table(edge.type_name)
            src, tgt = key_var(source), key_var(target)
            if path.edge.inverted:
                src, tgt = tgt, src
            bindings: Dict[str, Any] = {
                f"{edge.type_name}_src_{self._key_attr(edge.source)}": src,
                f"{edge.type_name}_tgt_{self._key_attr(edge.target)}": tgt,
            }
            bindings.update(dict(path.edge.attributes))
            terms: List[Any] = [None] * len(table.columns)
            for column, term in bindings.items():
                terms[self._column_index(table, column)] = term
            atoms.append(Atom(table.name, tuple(terms)))
            self.derived_tables[edge.type_name] = table.name
        return atoms


def translate_sigma_for_relational(
    sigma: MetaProgram,
    schema: SuperSchema,
    relational: RelationalSchema,
) -> CompiledRelationalSigma:
    """Rewrite a MetaLog intensional component against the S' tables."""
    compiler = _SigmaCompiler(schema, relational)
    program = compiler.compile_program(sigma)
    inputs = compiler.input_tables - set(compiler.derived_tables.values())
    return CompiledRelationalSigma(
        program=program,
        input_tables=compiler.input_tables,
        derived_tables=compiler.derived_tables,
    )


def reason_over_relational(
    sigma: MetaProgram,
    schema: SuperSchema,
    relational: RelationalSchema,
    engine_db,
    reasoner: Optional[Engine] = None,
    insert: bool = True,
    policy=None,
    quarantine=None,
    batch_size: int = 200,
) -> Dict[str, List[Dict[str, Any]]]:
    """Apply Sigma directly to a deployed relational instance.

    ``engine_db`` is a :class:`~repro.deploy.relational_engine.RelationalEngine`
    with the translated schema deployed and the instance loaded.  Returns
    the newly derived rows per table; when ``insert`` is true they are
    also written back in transactional batches: each batch commits under
    a store savepoint, transient failures are retried per row under
    ``policy`` (a :class:`~repro.deploy.resilience.RetryPolicy`), and a
    permanent failure mid-batch rolls that batch back — re-running the
    function replays idempotently because already-inserted rows are
    filtered out up front.
    """
    compiled = translate_sigma_for_relational(sigma, schema, relational)
    database = Database()
    for table_name in sorted(compiled.input_tables):
        header = [c.name for c in relational.table(table_name).columns]
        rows = engine_db.rows(table_name)
        database.add_columns(table_name, [[row.get(c) for row in rows] for c in header])

    reasoner = reasoner or Engine()
    result = reasoner.run(compiled.program, database=database)

    from repro.deploy.resilience import no_retry
    from repro.deploy.transactions import transaction
    from repro.errors import IntegrityError

    policy = policy if policy is not None else no_retry()
    tracer = getattr(engine_db, "tracer", None)

    derived: Dict[str, List[Dict[str, Any]]] = {}
    for table_name in sorted(set(compiled.derived_tables.values())):
        header = [c.name for c in relational.table(table_name).columns]
        existing = {
            tuple(row.get(c) for c in header) for row in engine_db.rows(table_name)
        }
        fresh_rows: List[Dict[str, Any]] = []
        for fact in sorted(result.facts(table_name), key=fact_sort_key):
            if fact in existing:
                continue
            fresh_rows.append(dict(zip(header, fact)))
        if insert and fresh_rows:
            # Rows violating the target's constraints are quarantined
            # rather than inserted: e.g. the control program's self-seed
            # CONTROLS(p, p) for a person that is not a Business fails
            # the bridge's target-side foreign key.  The graph world has
            # no such constraint; the relational one rightly enforces it.
            kept: List[Dict[str, Any]] = []
            for start in range(0, len(fresh_rows), batch_size):
                batch = fresh_rows[start : start + batch_size]
                batch_kept: List[Dict[str, Any]] = []
                with transaction(engine_db):
                    for row in batch:
                        values = {k: v for k, v in row.items() if v is not None}
                        try:
                            policy.call(
                                lambda t=table_name, v=values: engine_db.insert(
                                    t, **v
                                ),
                                tracer=tracer,
                            )
                        except IntegrityError as exc:
                            if quarantine is not None:
                                quarantine.reject("row", row, str(exc))
                            if tracer is not None:
                                tracer.count("deploy.quarantined", 1)
                            continue
                        batch_kept.append(row)
                kept.extend(batch_kept)
            fresh_rows = kept
        derived[table_name] = fresh_rows
    return derived
