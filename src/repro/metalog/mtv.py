"""MTV — the MetaLog to Vadalog Translator.

Implements the three-phase translation of Section 4:

1. **PG-to-relational mapping.**  ``L``-labeled nodes become facts
   ``L(oid, v1, ..., vn)`` (one position per catalog property);
   ``Le``-labeled edges become ``Le(oid, src, tgt, v1, ..., vm)``.
   :func:`graph_to_database` performs this extraction a label at a
   time, straight into the chase's one fact store (code columns over
   the source graph's value dictionary, when it has one), and the
   compiler emits the paper's ``@input`` annotations documenting it
   (Example 4.4).  :func:`materialize_into_graph` is the way back, a
   label at a time too; neither takes an argument that selects another
   path (the per-object loops they replace are the tests' reference).
2. **PG node atoms to relational atoms.**  ``(x: L; K)`` becomes
   ``L(x, ...)`` with named terms placed at their catalog positions and
   anonymous variables elsewhere.
3. **Resolution of path patterns**, inductively on the regular expression
   (Section 4): edge atoms become edge-relation atoms; concatenation
   threads fresh intermediate node variables; alternation introduces a
   fresh ``alpha`` predicate with one defining rule per branch (carrying
   the exported variables, the paper's ``z`` tuple); the inverse operator
   swaps endpoints; Kleene star introduces a fresh ``beta`` predicate
   with the two recursive rules of Example 4.4 (so ``*`` means
   one-or-more, exactly as in the paper's own translation).

Existential head variables compile to Vadalog existentials; linker Skolem
bindings compile to :class:`~repro.vadalog.ast.SkolemTerm` applications.

:func:`run_on_graph` packages the full pipeline: extract the input facts
from a :class:`~repro.graph.property_graph.PropertyGraph`, run the chase,
and materialize the derived nodes/edges back into the graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import MetaLogError, TranslationError
from repro.graph.property_graph import PropertyGraph
from repro.obs.tracer import NullTracer, Tracer
from repro.metalog.analysis import GraphCatalog, validate
from repro.metalog.ast import (
    EdgeAtom,
    GraphPattern,
    MetaProgram,
    MetaRule,
    NegatedPattern,
    NodeAtom,
    PathAlt,
    PathEdge,
    PathExpr,
    PathInverse,
    PathSeq,
    PathStar,
)
from repro.vadalog.ast import Annotation, Atom, NegatedAtom, Program, Rule, SkolemTerm
from repro.vadalog.database import Database
from repro.vadalog.engine import Engine, EvaluationResult
from repro.vadalog.terms import ANONYMOUS, Variable, fact_sort_key, is_variable


@dataclass
class CompiledMetaLog:
    """Result of :func:`compile_metalog`."""

    program: Program
    catalog: GraphCatalog
    input_node_labels: Set[str] = field(default_factory=set)
    input_edge_labels: Set[str] = field(default_factory=set)
    derived_node_labels: Set[str] = field(default_factory=set)
    derived_edge_labels: Set[str] = field(default_factory=set)
    auxiliary_predicates: Set[str] = field(default_factory=set)
    #: Per-label property names some head atom actually mentions.  The
    #: write-back uses this to tell a *derived* ``None`` (the program
    #: mentioned the attribute — clear any stale value) from a merely
    #: *absent* one (the compiler's positional placeholder — leave the
    #: existing property alone).
    head_properties: Dict[str, Set[str]] = field(default_factory=dict)


def invert_path(path: PathExpr) -> PathExpr:
    """Structural inverse of a path expression (pushes ``-`` down)."""
    if isinstance(path, PathEdge):
        return PathEdge(path.edge.invert())
    if isinstance(path, PathSeq):
        return PathSeq(tuple(invert_path(p) for p in reversed(path.parts)))
    if isinstance(path, PathAlt):
        return PathAlt(tuple(invert_path(o) for o in path.options))
    if isinstance(path, PathStar):
        return PathStar(invert_path(path.inner))
    if isinstance(path, PathInverse):
        return path.inner
    raise TranslationError(f"unsupported path expression {path!r}")


class _Compiler:
    """Compiles one MetaLog program; collects generated alpha/beta rules."""

    def __init__(self, catalog: GraphCatalog):
        self.catalog = catalog
        self._fresh_vars = itertools.count(1)
        self._fresh_preds = itertools.count(1)
        self.extra_rules: List[Rule] = []
        self.auxiliary: Set[str] = set()
        # label -> property names mentioned by some head atom (see
        # CompiledMetaLog.head_properties).
        self.head_properties: Dict[str, Set[str]] = {}

    def fresh_variable(self, hint: str = "v") -> Variable:
        return Variable(f"_{hint}{next(self._fresh_vars)}")

    def fresh_predicate(self, hint: str) -> str:
        return f"{hint}_{next(self._fresh_preds)}"

    # ------------------------------------------------------------------
    def compile_rule(self, rule: MetaRule) -> Rule:
        node_vars: Dict[int, Variable] = {}

        def node_var(atom: NodeAtom) -> Variable:
            if atom.variable is not None and atom.variable.name != "_":
                return atom.variable
            key = id(atom)
            if key not in node_vars:
                node_vars[key] = self.fresh_variable("n")
            return node_vars[key]

        # Leaf variable sets: each top-level path is one leaf, every other
        # rule element another.  For a path p, its "outside" variables are
        # those appearing in any other leaf — they must be exported by the
        # alpha predicates generated under p.
        leaves: List[Tuple[int, Set[Variable]]] = []
        for element in rule.body:
            if isinstance(element, GraphPattern):
                for atom in element.node_atoms:
                    leaves.append((id(atom), atom.variables() | {node_var(atom)}))
                for _, path, _ in element.hops():
                    leaves.append((id(path), path.variables()))
            else:
                leaves.append((id(element), element.variables()))
        for pattern in rule.head:
            leaves.append((id(pattern), pattern.variables()))

        def outside_of(path: PathExpr) -> Set[Variable]:
            result: Set[Variable] = set()
            for key, variables in leaves:
                if key != id(path):
                    result |= variables
            return result

        body: List[Any] = []
        for element in rule.body:
            if isinstance(element, GraphPattern):
                for atom in element.node_atoms:
                    literal = self._node_atom_literal(atom, node_var(atom))
                    if literal is not None:
                        body.append(literal)
                for source, path, target in element.hops():
                    body.extend(
                        self._compile_path(
                            path, node_var(source), node_var(target),
                            outside_of(path),
                        )
                    )
            elif isinstance(element, NegatedPattern):
                body.append(self._compile_negated(element, node_var))
            else:
                body.append(element)  # conditions/assignments pass through

        skolem_bindings = {
            binding.variable: SkolemTerm(binding.functor, tuple(binding.arguments))
            for binding in rule.existentials
            if binding.functor is not None
        }

        head: List[Atom] = []
        for pattern in rule.head:
            head.extend(
                self._compile_head_pattern(pattern, node_var, skolem_bindings)
            )
        return Rule(tuple(body), tuple(head), label=rule.label)

    def _compile_negated(self, negated: NegatedPattern, node_var) -> NegatedAtom:
        """Compile ``not <pattern>`` into a single negated atom.

        A negated conjunction is not one literal, so the pattern must be
        either a single labeled node atom or a single edge atom between
        bare (re-referencing) node atoms.
        """
        pattern = negated.pattern
        elements = pattern.elements
        if len(elements) == 1:
            atom = elements[0]
            literal = self._node_atom_literal(atom, node_var(atom))
            if literal is None:
                raise MetaLogError(
                    f"negated node atom must carry a label: {negated}"
                )
            return NegatedAtom(literal)
        if len(elements) == 3 and isinstance(elements[1], PathEdge):
            source, path, target = elements
            if source.label is not None or target.label is not None:
                raise MetaLogError(
                    "negated edge patterns must use bare endpoints bound "
                    f"by positive patterns: {negated}"
                )
            return NegatedAtom(
                self._edge_atom_literal(
                    path.edge, node_var(source), node_var(target)
                )
            )
        raise MetaLogError(
            "a negated pattern must be a single node atom or a single "
            f"edge between bound nodes: {negated}"
        )

    # ------------------------------------------------------------------
    # Atoms (phase 2)
    # ------------------------------------------------------------------
    def _node_atom_literal(self, atom: NodeAtom, oid: Variable) -> Optional[Atom]:
        if atom.label is None:
            if atom.attributes:
                raise MetaLogError(f"node atom {atom} has attributes but no label")
            return None  # bare (x): a pure re-reference, no relational atom
        names = self.catalog.node_properties.get(atom.label, [])
        terms: List[Any] = [oid] + [ANONYMOUS] * len(names)
        for name, term in atom.attributes:
            terms[self.catalog.node_position(atom.label, name)] = term
        return Atom(atom.label, tuple(terms))

    def _edge_atom_literal(
        self, edge: EdgeAtom, source: Variable, target: Variable
    ) -> Atom:
        if edge.label is None:
            raise MetaLogError(f"edge atom {edge} must carry a label")
        if edge.inverted:
            source, target = target, source
        names = self.catalog.edge_properties.get(edge.label, [])
        oid = (
            edge.variable
            if edge.variable is not None and edge.variable.name != "_"
            else ANONYMOUS
        )
        terms: List[Any] = [oid, source, target] + [ANONYMOUS] * len(names)
        for name, term in edge.attributes:
            terms[self.catalog.edge_position(edge.label, name)] = term
        return Atom(edge.label, tuple(terms))

    # ------------------------------------------------------------------
    # Path resolution (phase 3)
    # ------------------------------------------------------------------
    def _compile_path(
        self,
        path: PathExpr,
        source: Variable,
        target: Variable,
        outside: Set[Variable],
    ) -> List[Atom]:
        if isinstance(path, PathEdge):
            return [self._edge_atom_literal(path.edge, source, target)]
        if isinstance(path, PathInverse):
            return self._compile_path(invert_path(path.inner), source, target, outside)
        if isinstance(path, PathSeq):
            literals: List[Atom] = []
            current = source
            for i, part in enumerate(path.parts):
                nxt = target if i == len(path.parts) - 1 else self.fresh_variable("q")
                sibling_vars: Set[Variable] = set()
                for j, other in enumerate(path.parts):
                    if j != i:
                        sibling_vars |= other.variables()
                literals.extend(
                    self._compile_path(part, current, nxt, outside | sibling_vars)
                )
                current = nxt
            return literals
        if isinstance(path, PathAlt):
            return [self._compile_alternation(path, source, target, outside)]
        if isinstance(path, PathStar):
            return [self._compile_star(path, source, target, outside)]
        raise TranslationError(f"unsupported path expression {path!r}")

    def _compile_alternation(
        self,
        path: PathAlt,
        source: Variable,
        target: Variable,
        outside: Set[Variable],
    ) -> Atom:
        # The paper's z tuple: body variables of the branches, except the
        # endpoints, that the rest of the rule needs.
        exported = sorted(path.variables() & outside, key=lambda v: v.name)
        predicate = self.fresh_predicate("alpha")
        self.auxiliary.add(predicate)
        for option in path.options:
            missing = set(exported) - option.variables()
            if missing:
                raise MetaLogError(
                    "alternation branches must bind the same exported "
                    f"variables; branch {option} does not bind "
                    f"{sorted(v.name for v in missing)}"
                )
            h = self.fresh_variable("h")
            q = self.fresh_variable("q")
            body = self._compile_path(option, h, q, outside | {h, q})
            head = Atom(predicate, (h, q) + tuple(exported))
            self.extra_rules.append(Rule(tuple(body), (head,)))
        return Atom(predicate, (source, target) + tuple(exported))

    def _compile_star(
        self,
        path: PathStar,
        source: Variable,
        target: Variable,
        outside: Set[Variable],
    ) -> Atom:
        exported = path.inner.variables() & outside
        if exported:
            raise MetaLogError(
                "variables bound under a Kleene star cannot be used outside "
                f"it: {sorted(v.name for v in exported)}"
            )
        predicate = self.fresh_predicate("beta")
        self.auxiliary.add(predicate)
        # (i)  tau(S_hq)              -> beta(h, q)
        h = self.fresh_variable("h")
        q = self.fresh_variable("q")
        base_body = self._compile_path(path.inner, h, q, set())
        self.extra_rules.append(Rule(tuple(base_body), (Atom(predicate, (h, q)),)))
        # (ii) beta(v, h), tau(S_hq)  -> beta(v, q)
        v = self.fresh_variable("s")
        h2 = self.fresh_variable("h")
        q2 = self.fresh_variable("q")
        step_body = [Atom(predicate, (v, h2))] + self._compile_path(
            path.inner, h2, q2, set()
        )
        self.extra_rules.append(Rule(tuple(step_body), (Atom(predicate, (v, q2)),)))
        return Atom(predicate, (source, target))

    # ------------------------------------------------------------------
    # Head (phase 2 applied to head atoms, plus existentials)
    # ------------------------------------------------------------------
    def _compile_head_pattern(
        self,
        pattern: GraphPattern,
        node_var,
        skolem_bindings: Dict[Variable, SkolemTerm],
    ) -> List[Atom]:
        atoms: List[Atom] = []

        def resolve(term: Any) -> Any:
            if is_variable(term) and term in skolem_bindings:
                return skolem_bindings[term]
            return term

        for atom in pattern.node_atoms:
            if atom.label is None:
                continue  # bare (x) in the head only situates an edge
            names = self.catalog.node_properties.get(atom.label, [])
            terms: List[Any] = [resolve(node_var(atom))] + [None] * len(names)
            if atom.attributes:
                mentioned = self.head_properties.setdefault(atom.label, set())
                for name, term in atom.attributes:
                    terms[self.catalog.node_position(atom.label, name)] = resolve(term)
                    mentioned.add(name)
            atoms.append(Atom(atom.label, tuple(terms)))
        for source, path, target in pattern.hops():
            if not isinstance(path, PathEdge):
                raise MetaLogError(f"head paths must be simple edges: {pattern}")
            edge = path.edge
            src, tgt = node_var(source), node_var(target)
            if edge.inverted:
                src, tgt = tgt, src
            names = self.catalog.edge_properties.get(edge.label, [])
            oid: Any
            if edge.variable is not None and edge.variable.name != "_":
                oid = resolve(edge.variable)
            else:
                oid = self.fresh_variable("e")  # implicit existential OID
            terms = [oid, resolve(src), resolve(tgt)] + [None] * len(names)
            if edge.attributes:
                mentioned = self.head_properties.setdefault(edge.label, set())
                for name, term in edge.attributes:
                    terms[self.catalog.edge_position(edge.label, name)] = resolve(term)
                    mentioned.add(name)
            atoms.append(Atom(edge.label, tuple(terms)))
        return atoms


# ---------------------------------------------------------------------------
# Public compilation entry point
# ---------------------------------------------------------------------------


def compile_metalog(
    program: MetaProgram,
    catalog: Optional[GraphCatalog] = None,
    tracer: Optional[Tracer] = None,
) -> CompiledMetaLog:
    """Compile a MetaLog program into an executable Vadalog program.

    When a tracer is given, each translation phase gets a span:
    ``mtv.analyze`` (validation + catalog extension), ``mtv.compile``
    (phases 2-3: atom mapping and path resolution), and ``mtv.annotate``
    (the ``@input``/``@output`` emission of phase 1's contract).
    """
    tracer = tracer or NullTracer()
    with tracer.span("mtv.analyze", rules=len(program.rules)):
        validate(program)
        catalog = catalog or GraphCatalog()
        catalog.extend_from_program(program)
    compiler = _Compiler(catalog)

    derived_nodes: Set[str] = set()
    derived_edges: Set[str] = set()
    body_nodes: Set[str] = set()
    body_edges: Set[str] = set()
    rules: List[Rule] = []
    with tracer.span("mtv.compile") as compile_span:
        for rule in program.rules:
            rules.append(compiler.compile_rule(rule))
            derived_nodes |= rule.head_node_labels()
            derived_edges |= rule.head_edge_labels()
            body_nodes |= rule.body_node_labels()
            body_edges |= rule.body_edge_labels()
        compile_span.set(
            compiled_rules=len(rules),
            auxiliary_rules=len(compiler.extra_rules),
            auxiliary_predicates=sorted(compiler.auxiliary),
        )

    vadalog_program = Program(rules=rules + compiler.extra_rules)

    # Emit the paper's @input annotations for the base (non-derived)
    # labels, with Cypher-style extraction queries as in Example 4.4.
    with tracer.span("mtv.annotate"):
        for label in sorted(body_nodes - derived_nodes):
            vadalog_program.annotations.append(
                Annotation("input", (label, f"(n:{label}) return n"))
            )
        for label in sorted(body_edges - derived_edges):
            vadalog_program.annotations.append(
                Annotation("input", (label, f"(a)-[e:{label}]->(b) return (e, a, b)"))
            )
        for label in sorted(derived_nodes | derived_edges):
            vadalog_program.annotations.append(Annotation("output", (label,)))

    return CompiledMetaLog(
        program=vadalog_program,
        catalog=catalog,
        input_node_labels=body_nodes,
        input_edge_labels=body_edges,
        derived_node_labels=derived_nodes,
        derived_edge_labels=derived_edges,
        auxiliary_predicates=compiler.auxiliary,
        head_properties=compiler.head_properties,
    )


# ---------------------------------------------------------------------------
# Phase 1: PG-to-relational extraction, and the way back
# ---------------------------------------------------------------------------


def graph_to_database(
    graph: PropertyGraph,
    catalog: GraphCatalog,
    node_labels: Optional[Iterable[str]] = None,
    edge_labels: Optional[Iterable[str]] = None,
) -> Database:
    """Extract a relational instance from a property graph (phase 1),
    straight into the chase's dictionary-encoded fact store.

    Labels are processed in sorted order (relation creation order — and
    with it interner code assignment — used to follow nondeterministic
    ``set`` iteration), and rows within a label follow the graph's node/
    edge insertion order; the whole extraction is reproducible across
    runs.

    Whole labels move at a time: one
    :meth:`~repro.graph.property_graph.PropertyGraph.nodes_table` /
    ``edges_table`` call per label feeds the store's column-wise
    insert, so the hot path never builds a per-node property tuple in
    Python.  The tests hold it to a per-object loop
    (``tests/reference.py``).

    A columnar source graph shares its value dictionary with the
    extraction database (both sides are append-only), so OIDs and
    property values are interned once instead of twice; an object graph
    extracts into a fresh one.
    """
    database = Database(interner=getattr(graph, "interner", None))
    node_labels = (
        list(node_labels) if node_labels is not None
        else list(catalog.node_properties)
    )
    edge_labels = (
        list(edge_labels) if edge_labels is not None
        else list(catalog.edge_properties)
    )
    for label in sorted(node_labels):
        names = catalog.node_properties.get(label, [])
        relation = database.relation(label)
        relation.arity = 1 + len(names)
        ids, columns = graph.nodes_table(label, names)
        if ids:
            database.add_columns(label, [ids, *columns])
    for label in sorted(edge_labels):
        names = catalog.edge_properties.get(label, [])
        relation = database.relation(label)
        relation.arity = 3 + len(names)
        ids, sources, targets, columns = graph.edges_table(label, names)
        if ids:
            database.add_columns(label, [ids, sources, targets, *columns])
    return database


@dataclass
class MaterializationOutcome:
    """Result of :func:`run_on_graph`."""

    graph: PropertyGraph
    result: EvaluationResult
    compiled: CompiledMetaLog
    new_nodes: int = 0
    new_edges: int = 0


def _apply_node_update(
    graph: PropertyGraph,
    oid: Any,
    names: List[str],
    values: Tuple[Any, ...],
    clearable: Iterable[str],
) -> None:
    """Fold one derived node fact into an existing node's properties.

    Non-``None`` values overwrite; a ``None`` at a *head-mentioned*
    position clears the property (the program derived "no value", so a
    stale value from a prior materialization must not survive), while a
    ``None`` at an unmentioned position is merely the compiler's
    placeholder and leaves the property untouched.
    """
    properties = graph.node(oid).properties
    for name, value in zip(names, values):
        if value is not None:
            properties[name] = value
        elif name in clearable:
            properties.pop(name, None)


def _apply_edge_update(
    graph: PropertyGraph,
    oid: Any,
    names: List[str],
    values: Tuple[Any, ...],
    clearable: Iterable[str],
) -> None:
    """Edge twin of :func:`_apply_node_update`."""
    properties = graph.edge(oid).properties
    for name, value in zip(names, values):
        if value is not None:
            properties[name] = value
        elif name in clearable:
            properties.pop(name, None)


def materialize_into_graph(
    result: EvaluationResult,
    compiled: CompiledMetaLog,
    graph: PropertyGraph,
) -> Tuple[int, int]:
    """Write the derived node/edge facts back into ``graph``.

    Returns ``(new_nodes, new_edges)``.  Facts whose OID already exists
    in the graph update its properties instead of duplicating it —
    including existing *edges*, which earlier versions skipped outright.
    Updates distinguish a derived ``None`` from an absent property via
    ``compiled.head_properties`` (see :func:`_apply_node_update`).

    Facts are applied in :func:`~repro.vadalog.terms.fact_sort_key`
    order, which is identical across storage backends.  Each label's
    facts split into fresh-OID creations (one column-wise
    ``add_nodes_bulk``/``add_edges_bulk`` per label, no per-fact
    ``has_node`` probes) and the rare updates, which take the per-object
    path.  That equals applying every fact one at a time (the tests'
    per-object reference, ``tests/reference.py``): updates only ever
    touch their own OID.
    """
    new_nodes = 0
    new_edges = 0
    catalog = compiled.catalog
    head_properties = compiled.head_properties
    for label in sorted(compiled.derived_node_labels):
        names = catalog.node_properties.get(label, [])
        facts = sorted(result.facts(label), key=fact_sort_key)
        if not facts:
            continue
        clearable = head_properties.get(label, ())
        existing = graph.existing_node_ids([fact[0] for fact in facts])
        fresh: List[Tuple[Any, ...]] = []
        updates: List[Tuple[Any, ...]] = []
        if existing:
            seen: Set[Any] = set()
            for fact in facts:
                oid = fact[0]
                if oid in existing or oid in seen:
                    updates.append(fact)
                else:
                    seen.add(oid)
                    fresh.append(fact)
        else:
            # All OIDs are new; only intra-batch duplicates update.
            seen = set()
            for fact in facts:
                if fact[0] in seen:
                    updates.append(fact)
                else:
                    seen.add(fact[0])
                    fresh.append(fact)
        if fresh:
            columns = list(zip(*fresh))
            graph.add_nodes_bulk(
                label, list(columns[0]), tuple(names),
                [list(col) for col in columns[1:]],
            )
            new_nodes += len(fresh)
        for fact in updates:
            _apply_node_update(graph, fact[0], names, fact[1:], clearable)
    for label in sorted(compiled.derived_edge_labels):
        names = catalog.edge_properties.get(label, [])
        facts = sorted(result.facts(label), key=fact_sort_key)
        if not facts:
            continue
        clearable = head_properties.get(label, ())
        existing = graph.existing_edge_ids([fact[0] for fact in facts])
        fresh = []
        updates = []
        seen = set()
        for fact in facts:
            oid = fact[0]
            if oid in existing or oid in seen:
                updates.append(fact)
            else:
                seen.add(oid)
                fresh.append(fact)
        if fresh:
            endpoints = {f[1] for f in fresh} | {f[2] for f in fresh}
            present = graph.existing_node_ids(endpoints)
            if len(present) != len(endpoints):
                fresh = [
                    f for f in fresh if f[1] in present and f[2] in present
                ]
            if fresh:
                columns = list(zip(*fresh))
                graph.add_edges_bulk(
                    label, list(columns[0]), list(columns[1]),
                    list(columns[2]), tuple(names),
                    [list(col) for col in columns[3:]],
                )
                new_edges += len(fresh)
        for fact in updates:
            oid = fact[0]
            if graph.has_edge(oid):
                _apply_edge_update(graph, oid, names, fact[3:], clearable)
            elif graph.has_node(fact[1]) and graph.has_node(fact[2]):
                # Its first occurrence was dropped as dangling but this
                # duplicate-OID fact has valid endpoints: create it, as
                # the sequential per-object loop would have.
                properties = {
                    n: v for n, v in zip(names, fact[3:]) if v is not None
                }
                graph.add_edge(
                    fact[1], fact[2], label, edge_id=oid, **properties
                )
                new_edges += 1
    return new_nodes, new_edges


def run_on_graph(
    program: MetaProgram,
    graph: PropertyGraph,
    catalog: Optional[GraphCatalog] = None,
    engine: Optional[Engine] = None,
    inplace: bool = False,
    tracer: Optional[Tracer] = None,
) -> MaterializationOutcome:
    """Run a MetaLog program over a property graph, end to end.

    Extracts the input facts (phase 1), compiles the program via MTV,
    runs the chase, and materializes the derived components back into the
    graph (a copy unless ``inplace``).

    A tracer covers the whole pipeline: ``mtv.*`` compilation spans,
    ``mtv.extract`` for the PG-to-relational mapping, the engine's own
    ``engine.*`` spans (when no explicit engine is given, one is built
    around the same tracer), and ``mtv.materialize`` for the write-back.
    When an engine carrying a tracer is supplied and no explicit tracer
    is, the pipeline joins the engine's trace.
    """
    catalog = catalog or GraphCatalog.from_graph(graph)
    if tracer is None and engine is not None:
        tracer = engine.tracer
    obs = tracer or NullTracer()
    if engine is None:
        engine = Engine(tracer=tracer)
    compiled = compile_metalog(program, catalog, tracer=tracer)
    with obs.span("mtv.extract") as extract_span:
        database = graph_to_database(
            graph,
            compiled.catalog,
            node_labels=compiled.input_node_labels,
            edge_labels=compiled.input_edge_labels,
        )
        extract_span.set(relations=len(database.predicates()))
    result = engine.run(compiled.program, database=database)
    with obs.span("mtv.materialize") as mat_span:
        target = graph if inplace else graph.copy()
        new_nodes, new_edges = materialize_into_graph(result, compiled, target)
        mat_span.set(new_nodes=new_nodes, new_edges=new_edges)
    return MaterializationOutcome(
        graph=target,
        result=result,
        compiled=compiled,
        new_nodes=new_nodes,
        new_edges=new_edges,
    )
