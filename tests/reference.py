"""The references the tests hold production to.

The reference Algorithm 2: V_I, Sigma and V_O over ``I_SM_*``.
Production compiles the views into column maps
(:mod:`repro.ssst.materializer`); this module keeps the pipeline they
replace — the registry encoded into ``I_SM_*`` staging relations, the
V_I view program, Sigma, the V_O view program, and the flush semantics
of V_O's relations (:func:`instance_facts`) — as the oracle the tests
hold production to, element for element and in order.

The reference relation: :class:`Relation`, a tuple set with positional
indexes, is the storage semantics the relation-level differentials hold
:class:`~repro.vadalog.columnar.ColumnarRelation` to (adds, removals,
probes, 1 / 1.0 / ``True``).  No database holds one.

The reference chases: :class:`InterpretedEngine` (the interpreted rule
matcher), :class:`NaiveEngine` (every round whole) and their
combination :class:`NaiveInterpretedEngine`, subclasses of the one
production :class:`~repro.vadalog.engine.Engine`.

The reference graph boundary: the per-object extraction and write-back
(:func:`extract_per_object`, :func:`materialize_per_object`) that
:func:`~repro.metalog.mtv.graph_to_database` and
:func:`~repro.metalog.mtv.materialize_into_graph` do label by label,
and :func:`object_graph` / :func:`object_graph_store`, which put the
object :class:`~repro.graph.property_graph.PropertyGraph` where
production builds the columnar graph.

The reference relational deploy: :class:`ImageDiffRelationalTarget`,
which diffs the row images of two whole instances
(:func:`collect_relational_rows`) where production applies the rows of
a flush delta's records.

No module under ``src/`` imports this one.
"""

from collections import Counter
from typing import (
    Any, Callable, Collection, Dict, Iterable, Iterator, List, Mapping, Optional,
    Sequence, Set, Tuple, Union,
)

from repro.core.instances import (
    INSTANCE_EDGE_PROPERTIES,
    INSTANCE_LABELS,
    CodedSource,
    Columns,
    ColumnSource,
    Fact,
    coded,
    decode_instance,
    encode_instance,
    schema_constructs,
)
from repro.core.schema import SuperSchema
from repro.core.supermodel import SMEdge, SMNode
from repro.deploy.graph_store import GraphStore
from repro.deploy.transactions import transaction
from repro.errors import DeploymentError, EvaluationError, ResourceLimitError
from repro.graph.property_graph import PropertyGraph
from repro.metalog.analysis import GraphCatalog
from repro.metalog.mtv import (
    CompiledMetaLog,
    _apply_edge_update,
    _apply_node_update,
    compile_metalog,
)
from repro.ssst.views import catalog_from_super_schema, input_views, output_views
from repro.vadalog.ast import (
    Assignment,
    Atom,
    Condition,
    NegatedAtom,
    Rule,
    SkolemTerm,
)
from repro.vadalog.columnar import ValueInterner, refuse_write
from repro.vadalog.database import Database
from repro.vadalog.engine import Engine, EvaluationResult, EvaluationStats
from repro.vadalog.plan import (
    AggregatePlan,
    AggregateState,
    Changes,
    _hashable,
    check_condition,
    evaluate_expression,
)
from repro.vadalog.terms import (
    NullFactory,
    SkolemFunctor,
    Variable,
    fact_sort_key,
    is_variable,
    values_equal,
)

#: Which facts of a relation were loaded (encoded from the source data)
#: rather than derived: the first ``n`` rows, or the facts in a set.
LoadedMark = Union[int, Collection[Fact]]


def _eq_codes(interner: ValueInterner, oids: List[Any]) -> set:
    """The eq codes of those of ``oids`` whose ``==`` class is interned."""
    if not {0, 1}.isdisjoint(oids):  # 0 or 1 may be interned by another type
        return {code for code in map(interner.probe_eq, oids) if code is not None}
    codes = interner.probe_column(oids)
    return set(interner.eq_array()[codes[codes >= 0]].tolist())


def _rows(values: List[Any], columns: List[Any]) -> List[Fact]:
    """The value tuples of code columns."""
    return list(zip(*[map(values.__getitem__, c.tolist()) for c in columns]))


def _settle(
    source: CodedSource,
    loaded: Mapping[str, LoadedMark],
    schema: SuperSchema,
) -> Tuple[Dict[str, List[Any]], int, int]:
    """:func:`instance_facts` on code columns: OIDs compare by eq code
    (Python ``==``, so ``True`` is ``1``), values are decoded only to
    tell loaded facts by a set mark and to order contested rows."""
    interner = source.interner
    values = interner.values
    eq = interner.eq_array()
    held: Dict[str, List[Any]] = {}
    added = dropped = 0
    present = _eq_codes(
        interner, list(set().union(*schema_constructs(schema)))
    )
    for label in INSTANCE_LABELS:
        columns = source.columns(label)
        if columns is None:
            continue
        size = len(columns[0])
        mark = loaded.get(label, 0)
        if isinstance(mark, int):
            n_loaded, is_loaded = mark, None
        else:
            # A set marks facts the source need not hold all of, so it
            # is counted over the rows that are there.
            is_loaded = list(map(mark.__contains__, _rows(values, columns)))
            n_loaded = sum(is_loaded)
        keys = eq[columns[0]].tolist()
        is_link = label in INSTANCE_EDGE_PROPERTIES
        contested = size > n_loaded and (
            len(set(keys)) != size
            or (is_link and len(set(eq[columns[1]].tolist())) != size)
        )
        ends = [eq[column].tolist() for column in columns[1:3]] if is_link else []
        dangling = is_link and not (
            present.issuperset(ends[0]) and present.issuperset(ends[1])
        )
        if contested or dangling:
            # The loaded rows first, as stored, then the derived ones in
            # fact_sort_key order — the same in every process, whatever
            # order the chase derived in; per OID the first row wins.
            order: Iterable[int] = range(size)
            if contested:
                if is_loaded is None:
                    is_loaded = [True] * n_loaded + [False] * (size - n_loaded)
                rows = _rows(values, columns)
                order = [i for i in order if is_loaded[i]] + sorted(
                    (i for i in order if not is_loaded[i]),
                    key=lambda i: fact_sort_key(rows[i]),
                )
            kept: List[int] = []
            seen = set()
            for i in order:
                if keys[i] in seen:
                    continue
                if dangling and not (ends[0][i] in present and ends[1][i] in present):
                    dropped += 1
                    continue
                seen.add(keys[i])
                kept.append(i)
            if not kept:
                continue
            columns = [column[kept] for column in columns]
            keys = [keys[i] for i in kept]
        if not is_link:
            present.update(keys)
        held[label] = columns
        added += len(columns[0]) - n_loaded
    return held, added, dropped


def instance_facts(
    source: Union[ColumnSource, CodedSource],
    loaded: Mapping[str, LoadedMark],
    schema: SuperSchema,
) -> Tuple[Dict[str, Columns], int, int]:
    """Settle which ``I_SM_*`` facts of a chase database make up the
    instance: their value columns per relation, how many of them are
    derived, and how many link facts were dropped.

    Per OID a loaded fact wins over a derived one (V_O emits
    ``I_SM_Node(c, ioid, None)`` for every fact Sigma derives about an
    existing node ``c``), otherwise the first derived fact in
    ``fact_sort_key`` order; a link whose source or target is neither an
    instance construct nor a construct of ``schema`` is dropped and
    counted.  Rows compete only where an OID (or, for the decoder's
    first/last-link-wins maps, a link source) repeats, so a relation
    without repeats is passed through in stored order and ``loaded`` is
    not consulted for it.
    """
    source = coded(source)
    held, added, dropped = _settle(source, loaded, schema)
    values = source.interner.values
    return {
        label: [list(map(values.__getitem__, c.tolist())) for c in columns]
        for label, columns in held.items()
    }, added, dropped


def reference_materialize(schema, data, sigma, instance_oid, engine=None):
    """Algorithm 2 as three chases over the ``I_SM_*`` instance
    constructs: the registry encoded into a staging database, V_I,
    Sigma, V_O, and the decode of the ``I_SM_*`` relations.  Returns
    ``(instance, dropped link facts)``: what production's column maps
    must reproduce, element for element and in order."""
    engine = engine or Engine()
    schema.ensure_attribute_oids()
    catalog = catalog_from_super_schema(schema)
    compiled = compile_metalog(sigma, catalog)
    views = [
        make(schema, nodes, edges, instance_oid, catalog)
        for make, nodes, edges in (
            (input_views, compiled.input_node_labels, compiled.input_edge_labels),
            (output_views, compiled.derived_node_labels, compiled.derived_edge_labels),
        )
    ]
    staging = Database(interner=getattr(data, "interner", None))
    encode_instance(schema, instance_oid, data, staging.add_columns)
    for program in (views[0], compiled.program):
        staging = engine.run(program, database=staging, copy_database=False).database
    loaded = {label: staging.count(label) for label in INSTANCE_LABELS}
    flushed = engine.run(views[1], database=staging, copy_database=False).database
    source = CodedSource(flushed.interner, flushed.code_columns)
    held, _added, dropped = _settle(source, loaded, schema)
    instance = decode_instance(
        schema, instance_oid, CodedSource(source.interner, held.get), "reference"
    )
    return instance, dropped


# ---------------------------------------------------------------------------
# The reference chases
# ---------------------------------------------------------------------------

Substitution = Dict[Variable, Any]
_UNBOUND = object()


class InterpretedEngine(Engine):
    """The tuple-at-a-time interpreter the compiled plans replaced.

    Each rule body is matched by greedy backtracking over the database's
    decoded facts, one substitution dict per candidate; a semi-naive
    round requires one recursive body atom to match a delta fact; an
    aggregate rule rebuilds its state from its whole pre-body every
    round; a head is instantiated under the restricted chase.  It
    reuses the engine's stratum loop, commit and governor checks; its
    rounds compile no plan.  On a retained run, ``apply_delta``'s delta
    passes run the engine's plans and a recomputed stratum runs this
    matcher.
    """

    def _fire_rules(
        self,
        rules: List[Rule],
        db: Database,
        stats: EvaluationStats,
        nulls: NullFactory,
        skolems: Dict[str, SkolemFunctor],
        aggregates: Dict[Rule, AggregateState],
        delta: Optional[Changes],
        recursive_predicates: Optional[Set[str]] = None,
    ) -> Changes:
        new_facts: Changes = {}
        pending: List[Tuple[str, Fact]] = []
        for rule in rules:
            if rule.has_aggregate():
                in_recursion = bool(
                    recursive_predicates
                    and rule.body_predicates() & recursive_predicates
                )
                matches = self._aggregate_matches(
                    rule, db, aggregates, recursive=in_recursion
                )
            elif delta is not None and recursive_predicates:
                matches = self._semi_naive_matches(
                    rule, db, delta, recursive_predicates
                )
            else:
                matches = self._match_body(list(rule.body), db, {})
            for substitution in matches:
                stats.rule_firings += 1
                pending.extend(self._instantiate_head(
                    rule, substitution, db, stats, nulls, skolems
                ))
            self._check_rule_budget(pending, db, stats, new_facts)
        self._commit_pending(pending, db, stats, new_facts)
        return new_facts

    def _semi_naive_matches(
        self,
        rule: Rule,
        db: Database,
        delta: Changes,
        recursive_predicates: Set[str],
    ) -> Iterator[Substitution]:
        """Require at least one recursive body atom to match a delta fact."""
        body = list(rule.body)
        recursive_atom_indexes = [
            i
            for i, literal in enumerate(body)
            if isinstance(literal, Atom) and literal.predicate in recursive_predicates
        ]
        if not recursive_atom_indexes:
            # The rule does not read the stratum's own predicates: firing it
            # once in the first round was enough; nothing new can match.
            return
        seen: Set[Tuple[Tuple[Variable, Any], ...]] = set()
        for delta_index in recursive_atom_indexes:
            atom = body[delta_index]
            delta_facts = delta.get(atom.predicate)
            if not delta_facts:
                continue
            for fact in delta_facts:
                base = self._unify_atom(atom, fact, {})
                if base is None:
                    continue
                rest = body[:delta_index] + body[delta_index + 1:]
                for substitution in self._match_body(rest, db, base):
                    key = tuple(sorted(
                        ((v, _hashable(substitution[v])) for v in substitution),
                        key=lambda item: item[0].name,
                    ))
                    if key in seen:
                        continue
                    seen.add(key)
                    yield substitution

    def _match_body(
        self,
        literals: List[Any],
        db: Database,
        substitution: Substitution,
    ) -> Iterator[Substitution]:
        """Yield all substitutions satisfying the body conjunction.

        Literals are scheduled greedily: ready assignments and conditions
        run as soon as their variables are bound; otherwise the atom with
        the most bound positions is joined next.
        """
        remaining = list(literals)
        return self._match_rec(remaining, db, dict(substitution))

    def _match_rec(
        self, remaining: List[Any], db: Database, substitution: Substitution
    ) -> Iterator[Substitution]:
        if not remaining:
            yield substitution
            return
        index = self._pick_next(remaining, substitution)
        literal = remaining[index]
        rest = remaining[:index] + remaining[index + 1:]

        if isinstance(literal, Atom):
            relation = db.relation(literal.predicate)
            bound: List[Tuple[int, Any]] = []
            for i, term in enumerate(literal.terms):
                if not is_variable(term):
                    bound.append((i, term))
                elif term.name != "_" and term in substitution:
                    bound.append((i, substitution[term]))
            for fact in list(relation.lookup(bound)):
                extended = self._unify_atom(literal, fact, substitution)
                if extended is not None:
                    yield from self._match_rec(rest, db, extended)
            return

        if isinstance(literal, NegatedAtom):
            if self._atom_has_match(literal.atom, db, substitution):
                return
            yield from self._match_rec(rest, db, substitution)
            return

        if isinstance(literal, Condition):
            if check_condition(literal, substitution):
                yield from self._match_rec(rest, db, substitution)
            return

        if isinstance(literal, Assignment):
            value = evaluate_expression(literal.expression, substitution)
            current = substitution.get(literal.target)
            if literal.target in substitution:
                if values_equal(current, value):
                    yield from self._match_rec(rest, db, substitution)
                return
            extended = dict(substitution)
            extended[literal.target] = value
            yield from self._match_rec(rest, db, extended)
            return

        raise EvaluationError(f"unsupported body literal: {literal!r}")

    def _pick_next(self, remaining: List[Any], substitution: Substitution) -> int:
        """Greedy scheduling: ready non-atoms first, then best-bound atom."""
        best_atom = None
        best_score = -1
        for i, literal in enumerate(remaining):
            if isinstance(literal, Assignment):
                needed = literal.expression.variables()
                if all(v in substitution for v in needed):
                    return i
            elif isinstance(literal, Condition):
                if all(v in substitution for v in literal.variables()):
                    return i
            elif isinstance(literal, NegatedAtom):
                if all(
                    v in substitution or v.name == "_"
                    for v in literal.variables()
                ):
                    return i
            elif isinstance(literal, Atom):
                score = sum(
                    1
                    for term in literal.terms
                    if not is_variable(term) or term in substitution
                )
                if score > best_score:
                    best_score = score
                    best_atom = i
        if best_atom is not None:
            return best_atom
        # Nothing ready: fall back to the first literal; matching will fail
        # with a clear error if variables stay unbound.
        return 0

    def _unify_atom(
        self, atom: Atom, fact: Fact, substitution: Substitution
    ) -> Optional[Substitution]:
        if len(fact) != len(atom.terms):
            return None
        extended = dict(substitution)
        for term, value in zip(atom.terms, fact):
            if is_variable(term):
                if term.name == "_":
                    continue
                current = extended.get(term, _UNBOUND)
                if current is _UNBOUND:
                    extended[term] = value
                elif not values_equal(current, value):
                    return None
            elif not values_equal(term, value):
                return None
        return extended

    def _atom_has_match(
        self, atom: Atom, db: Database, substitution: Substitution
    ) -> bool:
        relation = db.relation(atom.predicate)
        bound: List[Tuple[int, Any]] = []
        for i, term in enumerate(atom.terms):
            if not is_variable(term):
                bound.append((i, term))
            elif term.name != "_" and term in substitution:
                bound.append((i, substitution[term]))
        for fact in relation.lookup(bound):
            if self._unify_atom(atom, fact, substitution) is not None:
                return True
        return False

    def _aggregate_matches(
        self,
        rule: Rule,
        db: Database,
        aggregates: Dict[Rule, AggregateState],
        recursive: bool = False,
    ) -> Iterator[Substitution]:
        """The naive aggregate: every round contributes the whole
        pre-body, matched by the interpreter, into a fresh state."""
        plan = AggregatePlan(rule)
        state = aggregates[rule] = AggregateState(
            plan.call.function, recursive=recursive
        )
        return plan.evaluate(state, self._match_body(list(plan.pre), db, {}))

    def _instantiate_head(
        self,
        rule: Rule,
        substitution: Substitution,
        db: Database,
        stats: EvaluationStats,
        nulls: NullFactory,
        skolems: Dict[str, SkolemFunctor],
    ) -> Iterator[Tuple[str, Fact]]:
        existential = {
            v for v in rule.existential_variables() if v not in substitution
        }
        # Resolve Skolem terms first: they are deterministic, so they never
        # trigger the restricted-chase check.
        resolved_heads: List[Tuple[str, List[Any]]] = []
        for atom in rule.head:
            terms: List[Any] = []
            for term in atom.terms:
                if isinstance(term, SkolemTerm):
                    functor = skolems.get(term.functor)
                    if functor is None:
                        functor = SkolemFunctor(term.functor)
                        skolems[term.functor] = functor
                    arguments = []
                    for argument in term.arguments:
                        if is_variable(argument):
                            if argument not in substitution:
                                raise EvaluationError(
                                    f"Skolem argument {argument!r} unbound in {rule}"
                                )
                            arguments.append(substitution[argument])
                        else:
                            arguments.append(argument)
                    terms.append(functor(*arguments))
                elif is_variable(term):
                    if term in substitution:
                        terms.append(substitution[term])
                    else:
                        terms.append(term)  # existential, resolved below
                else:
                    terms.append(term)
            resolved_heads.append((atom.predicate, terms))

        remaining_existential = {
            term
            for _, terms in resolved_heads
            for term in terms
            if is_variable(term)
        }
        if remaining_existential:
            # Restricted chase: skip when the head conjunction is already
            # satisfied by some assignment of the existential variables.
            if self._head_satisfied(resolved_heads, db):
                return
            if stats.nulls_created + len(remaining_existential) > self.max_nulls:
                raise ResourceLimitError(
                    f"null budget exceeded ({self.max_nulls}); the program "
                    "likely falls outside the terminating fragment",
                    resource="nulls",
                    limit=self.max_nulls,
                    stats=stats,
                )
            assignment = nulls.assign(resolved_heads, remaining_existential)
            stats.nulls_created += len(assignment)
            for predicate, terms in resolved_heads:
                yield predicate, tuple(
                    assignment.get(t, t) if is_variable(t) else t for t in terms
                )
            return

        for predicate, terms in resolved_heads:
            yield predicate, tuple(terms)

    def _head_satisfied(
        self, resolved_heads: List[Tuple[str, List[Any]]], db: Database
    ) -> bool:
        """Conjunctive-match check used by the restricted chase."""
        atoms = [
            Atom(predicate, tuple(terms)) for predicate, terms in resolved_heads
        ]
        for _ in self._match_body(list(atoms), db, {}):
            return True
        return False


class NaiveEngine(Engine):
    """The naive chase: every round of a recursive stratum joins every
    rule's whole body again, and an aggregate rule rebuilds its state."""

    def _fire_rules(
        self,
        rules: List[Rule],
        db: Database,
        stats: EvaluationStats,
        nulls: NullFactory,
        skolems: Dict[str, SkolemFunctor],
        aggregates: Dict[Rule, AggregateState],
        delta: Optional[Changes],
        recursive_predicates: Optional[Set[str]] = None,
    ) -> Changes:
        return super()._fire_rules(
            rules, db, stats, nulls, skolems, aggregates, None,
            recursive_predicates,
        )


class NaiveInterpretedEngine(NaiveEngine, InterpretedEngine):
    """The naive chase over the interpreter."""


# ---------------------------------------------------------------------------
# The reference graph boundary
# ---------------------------------------------------------------------------


def extract_per_object(
    graph: Any,
    catalog: GraphCatalog,
    node_labels: Optional[Iterable[str]] = None,
    edge_labels: Optional[Iterable[str]] = None,
) -> Database:
    """:func:`~repro.metalog.mtv.graph_to_database` one node and one
    edge at a time: the same relations, in the same order, over the
    same interner."""
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
        relation.add_many(
            (node.id, *(node.properties.get(n) for n in names))
            for node in graph.nodes(label)
        )
    for label in sorted(edge_labels):
        names = catalog.edge_properties.get(label, [])
        relation = database.relation(label)
        relation.arity = 3 + len(names)
        relation.add_many(
            (edge.id, edge.source, edge.target,
             *(edge.properties.get(n) for n in names))
            for edge in graph.edges(label)
        )
    return database


def materialize_per_object(
    result: EvaluationResult,
    compiled: CompiledMetaLog,
    graph: Any,
) -> Tuple[int, int]:
    """:func:`~repro.metalog.mtv.materialize_into_graph` one fact at a
    time, in :func:`~repro.vadalog.terms.fact_sort_key` order: a fact
    whose OID exists updates it, a fresh one is added, an edge with an
    endpoint not in the graph is dropped.  Returns ``(new_nodes,
    new_edges)``."""
    new_nodes = 0
    new_edges = 0
    catalog = compiled.catalog
    head_properties = compiled.head_properties
    for label in sorted(compiled.derived_node_labels):
        names = catalog.node_properties.get(label, [])
        clearable = head_properties.get(label, ())
        for fact in sorted(result.facts(label), key=fact_sort_key):
            oid = fact[0]
            if graph.has_node(oid):
                _apply_node_update(graph, oid, names, fact[1:], clearable)
            else:
                properties = {
                    n: v for n, v in zip(names, fact[1:]) if v is not None
                }
                graph.add_node(oid, label, **properties)
                new_nodes += 1
    for label in sorted(compiled.derived_edge_labels):
        names = catalog.edge_properties.get(label, [])
        clearable = head_properties.get(label, ())
        for fact in sorted(result.facts(label), key=fact_sort_key):
            oid, source, target = fact[0], fact[1], fact[2]
            if graph.has_edge(oid):
                _apply_edge_update(graph, oid, names, fact[3:], clearable)
                continue
            if not graph.has_node(source) or not graph.has_node(target):
                continue  # dangling derivation; endpoints not loaded
            properties = {
                n: v for n, v in zip(names, fact[3:]) if v is not None
            }
            graph.add_edge(source, target, label, edge_id=oid, **properties)
            new_edges += 1
    return new_nodes, new_edges


def object_graph(graph: Any) -> PropertyGraph:
    """``graph`` replayed into the object store: its nodes, then its
    edges with their OIDs, each in the graph's order."""
    replay = PropertyGraph(graph.name)
    for node in graph.nodes():
        replay.add_node(node.id, node.label, **node.properties)
    for edge in graph.edges():
        replay.add_edge(
            edge.source, edge.target, edge.label, edge_id=edge.id,
            **edge.properties,
        )
    return replay


def object_graph_store(**kwargs: Any) -> GraphStore:
    """A :class:`~repro.deploy.graph_store.GraphStore` over the object
    graph: the store a deploy differential holds the columnar one to."""
    store = GraphStore(**kwargs)
    store.graph = PropertyGraph(store.graph.name)
    return store


def _hierarchy_chain(schema: SuperSchema, node: SMNode) -> List[SMNode]:
    """The node and its ancestors, most specific first."""
    return [node] + schema.ancestors_of(node)


def _entity_key(schema: SuperSchema, node: SMNode, properties: Dict[str, Any]):
    identifier = schema.identifier_of(node)
    if not identifier:
        raise DeploymentError(
            f"type {node.type_name!r} has no identifier; cannot deploy "
            "relationally"
        )
    return tuple(properties.get(a.name) for a in identifier)


def _edge_fk_owner(schema: SuperSchema, edge: SMEdge) -> Optional[Tuple[SMNode, SMNode]]:
    """(fk-holder declared type, referenced declared type) for non-M:N
    edges, following the normalization of the relational mapping."""
    if edge.is_many_to_many:
        return None
    if edge.is_fun1:  # many-to-one (or 1:1): FK on the source
        return edge.source, edge.target
    return edge.target, edge.source  # one-to-many: flipped


def collect_relational_rows(
    schema: SuperSchema,
    data: PropertyGraph,
) -> Dict[str, List[Dict[str, Any]]]:
    """The complete relational row image of a plain typed instance graph.

    The layout :func:`~repro.ssst.inverse.graph_instance_to_relational`
    writes — one row per hierarchy member, FK patches, bridge tables —
    written apart from :class:`~repro.deploy.relational_rows.RowLayout`,
    so a layout mistake there shows against it.  Edge FK patches mutate
    entity rows in place, so the edge pass must complete before the rows
    are read — which is why this returns only once everything is merged.
    :class:`ImageDiffRelationalTarget` diffs two of these images (as
    per-table row multisets) to maintain a deployed engine.
    """
    # Collect per-entity rows first: one row per hierarchy member.
    rows: Dict[str, List[Dict[str, Any]]] = {}
    fk_patches: Dict[Tuple[str, Any], Dict[str, Any]] = {}
    key_of_node: Dict[Any, Tuple[Any, ...]] = {}
    type_of_node: Dict[Any, SMNode] = {}

    for node in data.nodes():
        if node.label is None or not schema.has_node(node.label):
            continue
        sm_node = schema.get_node(node.label)
        key = _entity_key(schema, sm_node, node.properties)
        key_of_node[node.id] = key
        type_of_node[node.id] = sm_node
        chain = _hierarchy_chain(schema, sm_node)
        id_names = [a.name for a in schema.identifier_of(sm_node)]
        for member in chain:
            row: Dict[str, Any] = {}
            for attribute in member.attributes:
                if attribute.name in node.properties:
                    row[attribute.name] = node.properties[attribute.name]
            if schema.parents_of(member):
                for name, value in zip(id_names, key):
                    row[f"isA_{member.type_name}_{name}"] = value
            else:
                for name, value in zip(id_names, key):
                    row.setdefault(name, value)
            rows.setdefault(member.type_name, []).append(row)
            fk_patches[(member.type_name, key)] = row

    # Edges: FK columns on entity rows, or bridge-table rows.
    bridge_rows: Dict[str, List[Dict[str, Any]]] = {}
    for edge in data.edges():
        if edge.label is None or not schema.has_edge(edge.label):
            continue
        sm_edge = schema.get_edge(edge.label)
        source_key = key_of_node.get(edge.source)
        target_key = key_of_node.get(edge.target)
        if source_key is None or target_key is None:
            continue
        owner = _edge_fk_owner(schema, sm_edge)
        if owner is not None:
            holder_type, referenced_type = owner
            holder_key = source_key if holder_type is sm_edge.source else target_key
            referenced_key = target_key if holder_type is sm_edge.source else source_key
            row = fk_patches.get((holder_type.type_name, holder_key))
            if row is None:
                continue
            id_names = [a.name for a in schema.identifier_of(referenced_type)]
            for name, value in zip(id_names, referenced_key):
                row[f"{sm_edge.type_name}_{name}"] = value
            for attribute in sm_edge.attributes:
                if attribute.name in edge.properties:
                    row[attribute.name] = edge.properties[attribute.name]
        else:
            source_ids = [a.name for a in schema.identifier_of(sm_edge.source)]
            target_ids = [a.name for a in schema.identifier_of(sm_edge.target)]
            row = {}
            for name, value in zip(source_ids, source_key):
                row[f"{sm_edge.type_name}_src_{name}"] = value
            for name, value in zip(target_ids, target_key):
                row[f"{sm_edge.type_name}_tgt_{name}"] = value
            for attribute in sm_edge.attributes:
                if attribute.name in edge.properties:
                    row[attribute.name] = edge.properties[attribute.name]
            bridge_rows.setdefault(sm_edge.type_name, []).append(row)

    for table_name, table_rows in bridge_rows.items():
        rows.setdefault(table_name, []).extend(table_rows)
    return rows


class ImageDiffRelationalTarget:
    """A relational engine kept current by diffing whole row images:
    per batch, the row image of the whole enriched instance
    (:func:`collect_relational_rows`) as a
    multiset per table, against the previous one; a row whose count
    changed is deleted (every copy) and inserted again as often as the
    new image holds it, under one savepoint with the foreign keys checked
    at its end.  The stream target's protocol (``load_full`` /
    ``apply``), the whole instance after a batch written by ``written()``;
    the reference the per-record
    :meth:`~repro.deploy.relational_engine.RelationalEngine.apply_flush_delta`
    is held to."""

    def __init__(self, engine: Any, schema: Any, written: Callable[[], Any]):
        self.engine = engine
        self.schema = schema
        self.written = written
        self._image: Counter = Counter()

    def _compute_image(self, enriched: Any) -> Counter:
        image: Counter = Counter()
        for table, rows in collect_relational_rows(self.schema, enriched).items():
            names = [c.name for c in self.engine.table_schema(table).columns]
            image.update((table, tuple(row.get(n) for n in names)) for row in rows)
        return image

    def _write(self, image: Counter) -> None:
        changed = [key for key in self._image | image if self._image[key] != image[key]]
        with transaction(self.engine), self.engine.deferred():
            for table, values in changed:
                if self._image[(table, values)]:
                    self.engine.delete(table, **self._row(table, values))
            for table, values in changed:
                for _ in range(image[(table, values)]):
                    self.engine.insert(table, **self._row(table, values))
        self._image = image

    def _row(self, table: str, values: Tuple[Any, ...]) -> Dict[str, Any]:
        return dict(zip((c.name for c in self.engine.table_schema(table).columns), values))

    def load_full(self, enriched: Any) -> None:
        self._write(self._compute_image(enriched))

    def apply(self, update: Any) -> None:
        self._write(self._compute_image(self.written()))


# ---------------------------------------------------------------------------
# The reference relation
# ---------------------------------------------------------------------------

#: Shared empty candidate set for missed index probes.
_EMPTY: Tuple[Fact, ...] = ()


class Relation:
    """The extension of a single predicate, with positional indexes.

    Facts and index buckets are insertion-ordered (``dict`` as an
    ordered set), so a join enumerates candidates in the order they were
    added — never in an order the hash seed picks.
    """

    __slots__ = ("name", "arity", "_facts", "_indexes", "_composite")

    def __init__(self, name: str, arity: Optional[int] = None):
        self.name = name
        self.arity = arity
        self._facts: Dict[Fact, None] = {}
        # position -> value -> facts; built lazily per position.
        self._indexes: Dict[int, Dict[Any, Dict[Fact, None]]] = {}
        # (positions...) -> value tuple -> facts; built lazily per
        # position combination (the access paths of compiled join plans).
        self._composite: Dict[Tuple[int, ...], Dict[Tuple[Any, ...], Dict[Fact, None]]] = {}

    def freeze(self) -> "Relation":
        """Make this relation read-only, for good; returns it (the
        contract of :meth:`ColumnarRelation.freeze`)."""
        self.__class__ = _FrozenRelation
        return self

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def add(self, fact: Fact) -> bool:
        """Insert a fact; returns True when it is new."""
        if self.arity is None:
            self.arity = len(fact)
        elif len(fact) != self.arity:
            raise EvaluationError(
                f"arity mismatch for {self.name!r}: expected {self.arity}, "
                f"got {len(fact)}"
            )
        if fact in self._facts:
            return False
        self._facts[fact] = None
        for position, index in self._indexes.items():
            index.setdefault(fact[position], {})[fact] = None
        for positions, index2 in self._composite.items():
            key = tuple(fact[p] for p in positions)
            index2.setdefault(key, {})[fact] = None
        return True

    def add_many(self, facts: Iterable[Iterable[Any]]) -> int:
        """Insert many facts; returns the number of new ones.

        When no index has been built yet (the common bulk-load case) the
        facts go straight into the backing dict with a single arity check
        per fact and no per-fact index maintenance.
        """
        if self._indexes or self._composite:
            added = 0
            for fact in facts:
                if self.add(tuple(fact)):
                    added += 1
            return added
        backing = self._facts
        before = len(backing)
        arity = self.arity
        for fact in facts:
            tup = tuple(fact)
            if arity is None:
                arity = self.arity = len(tup)
            elif len(tup) != arity:
                raise EvaluationError(
                    f"arity mismatch for {self.name!r}: expected {arity}, "
                    f"got {len(tup)}"
                )
            backing[tup] = None
        return len(backing) - before

    def add_columns(self, cols: Sequence[Sequence[Any]]) -> int:
        """Insert facts given as parallel value columns; returns #new.

        The tuple backend has no columnar fast path, so this is just
        :meth:`add_many` over the transposed rows — it exists so the
        graph/dictionary extraction layer can stay backend-agnostic.
        """
        if not cols:
            return 0
        return self.add_many(zip(*cols))

    def remove(self, fact: Fact) -> bool:
        """Delete a fact; returns True when it was present.

        Both index kinds are maintained in place (emptied buckets are
        dropped), so a relation stays probe-consistent across the
        delete/re-derive passes of incremental maintenance.
        """
        fact = tuple(fact)
        if fact not in self._facts:
            return False
        del self._facts[fact]
        for position, index in self._indexes.items():
            bucket = index.get(fact[position])
            if bucket is not None:
                bucket.pop(fact, None)
                if not bucket:
                    del index[fact[position]]
        for positions, index2 in self._composite.items():
            key = tuple(fact[p] for p in positions)
            bucket = index2.get(key)
            if bucket is not None:
                bucket.pop(fact, None)
                if not bucket:
                    del index2[key]
        return True

    def bury(self, fact: Fact) -> None:
        """:meth:`remove`: no row to revive here, so no grave."""
        self.remove(fact)

    def reset(self, facts: Iterable[Iterable[Any]]) -> None:
        """Replace the whole extension; indexes rebuild lazily."""
        self._facts = dict.fromkeys(tuple(fact) for fact in facts)
        self._indexes = {}
        self._composite = {}

    def copy(self) -> "Relation":
        """A fresh relation with the same facts; indexes rebuild lazily."""
        clone = Relation(self.name, self.arity)
        clone._facts = dict(self._facts)
        return clone

    def _ensure_index(self, position: int) -> Dict[Any, Dict[Fact, None]]:
        index = self._indexes.get(position)
        if index is None:
            index = {}
            for fact in self._facts:
                index.setdefault(fact[position], {})[fact] = None
            self._indexes[position] = index
        return index

    def _ensure_composite(
        self, positions: Tuple[int, ...]
    ) -> Dict[Tuple[Any, ...], Dict[Fact, None]]:
        index = self._composite.get(positions)
        if index is None:
            index = {}
            for fact in self._facts:
                key = tuple(fact[p] for p in positions)
                index.setdefault(key, {})[fact] = None
            self._composite[positions] = index
        return index

    def lookup_key(
        self, positions: Tuple[int, ...], key: Tuple[Any, ...]
    ) -> Iterable[Fact]:
        """Exact-match candidates for values ``key`` at ``positions``.

        Unlike :meth:`lookup` this uses one composite index over all the
        bound positions, so the result needs no per-fact filtering beyond
        the caller's semantic equality check (hash buckets equate 1 with
        1.0 and True, which the chase distinguishes).
        """
        if len(positions) == 1:
            return self._ensure_index(positions[0]).get(key[0], _EMPTY)
        return self._ensure_composite(positions).get(key, _EMPTY)

    def lookup(self, bound: Sequence[Tuple[int, Any]]) -> Iterator[Fact]:
        """Iterate facts matching the given (position, value) constraints.

        The most selective indexed position is used as the access path and
        the remaining constraints are verified per fact with the chase's
        type-aware equality (a plain ``==`` filter would equate 1, 1.0
        and True, which ``lookup_key`` documents the chase distinguishes).
        """
        if not bound:
            yield from self._facts
            return
        # Pick the constraint with the smallest candidate set.
        best_candidates: Optional[Dict[Fact, None]] = None
        for position, value in bound:
            index = self._ensure_index(position)
            candidates = index.get(value)
            if candidates is None:
                return
            if best_candidates is None or len(candidates) < len(best_candidates):
                best_candidates = candidates
        for fact in best_candidates or ():
            if all(values_equal(fact[position], value) for position, value in bound):
                yield fact


class _FrozenRelation(Relation):
    __slots__ = ()
    add = add_many = remove = reset = refuse_write
