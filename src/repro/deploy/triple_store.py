"""A small in-memory triple store with RDFS semantics.

Deployment target for the RDF model (Section 5 mentions rendering
schemas "as RDF-S documents, to be validated by dedicated tools" — here
the store itself is the dedicated tool).  It materializes the standard
RDFS entailments needed for validation and querying:

- ``rdfs:subClassOf`` transitivity and type inheritance (rdfs9/rdfs11);
- ``rdfs:domain`` / ``rdfs:range`` typing of subjects/objects
  (rdfs2/rdfs3).

Validation mode rejects statements whose predicate is not declared by
the deployed schema, or whose inferred subject/object classes are not
subsumed by the declared domain/range.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.deploy.transactions import SavepointMixin, UndoLog, transaction
from repro.errors import DeploymentError, IntegrityError
from repro.models.rdf import RDFSchema
from repro.obs.tracer import Tracer

Triple = Tuple[Any, str, Any]

RDF_TYPE = "rdf:type"
RDFS_SUBCLASS = "rdfs:subClassOf"


class TripleLayout:
    """How a node of a super-schema instance becomes triples, on the
    full load and on the delta alike: its type triple, plus one triple
    per attribute its type declares (inherited ones included) and it
    holds a value for, each label's declared set read off ``schema``
    once (a label the schema lacks declares none).  An edge is the one
    triple ``(source, label, target)``: RDF reification is out of scope,
    so its set attributes are dropped, and counted (:meth:`dropped`)."""

    def __init__(self, schema: Any):
        self.schema = schema
        self._declared: Dict[str, Set[str]] = {}

    def node_triples(self, node_id: Any, label: str, properties: Dict[str, Any]) -> List[Triple]:
        declared = self._declared.get(label)
        if declared is None:
            schema = self.schema
            declared = self._declared[label] = {
                a.name for a in schema.inherited_attributes(schema.get_node(label))
            } if schema.has_node(label) else set()
        return [(node_id, RDF_TYPE, label), *(
            (node_id, name, value) for name, value in properties.items()
            if value is not None and name in declared
        )]

    @staticmethod
    def dropped(properties: Dict[str, Any]) -> int:
        """How many set attributes an edge's one triple leaves out."""
        return sum(value is not None for value in properties.values())


class TripleStore(SavepointMixin):
    """An RDFS-aware triple store."""

    def __init__(self, name: str = "triple-store", tracer: Optional[Tracer] = None):
        self.name = name
        self.tracer = tracer
        self._triples: Set[Triple] = set()
        #: Per subject, the objects of its ``rdf:type`` triples: kept in
        #: step with ``_triples`` by :meth:`_insert` / :meth:`_discard`.
        self._types: Dict[Any, Set[Any]] = {}
        self._undo = UndoLog()
        self._schema: Optional[RDFSchema] = None
        self._superclasses: Dict[str, Set[str]] = {}
        self._domains: Dict[str, str] = {}
        self._ranges: Dict[str, str] = {}
        self._datatype_properties: Set[str] = set()

    # ------------------------------------------------------------------
    def deploy(self, schema: RDFSchema) -> None:
        """Load the translated RDF-S schema (classes, properties, axioms)."""
        if self._schema is not None:
            raise DeploymentError("a schema is already deployed")
        self._schema = schema
        for child, parent in schema.subclass_of:
            self._triples.add((child, RDFS_SUBCLASS, parent))
        for prop in schema.object_properties:
            self._domains[prop.name] = prop.domain
            self._ranges[prop.name] = prop.range
        for prop in schema.datatype_properties:
            self._domains[prop.name] = prop.domain
            self._datatype_properties.add(prop.name)
        # Reflexive-transitive closure of subClassOf.
        closure: Dict[str, Set[str]] = {
            c.name: {c.name} for c in schema.classes
        }
        changed = True
        while changed:
            changed = False
            for child, parent in schema.subclass_of:
                before = len(closure.setdefault(child, {child}))
                closure[child] |= closure.get(parent, {parent})
                if len(closure[child]) != before:
                    changed = True
        self._superclasses = closure

    def superclasses_of(self, class_name: str) -> Set[str]:
        """Reflexive-transitive superclasses of a class."""
        return set(self._superclasses.get(class_name, {class_name}))

    # ------------------------------------------------------------------
    def add(self, subject: Any, predicate: str, obj: Any, validate: bool = True) -> None:
        """Assert a triple, applying RDFS entailment (and validation)."""
        if validate and self._schema is not None:
            self._validate(subject, predicate, obj)
        self._assert((subject, predicate, obj))
        # rdfs9/rdfs11: propagate types along the subclass hierarchy.
        if predicate == RDF_TYPE:
            for ancestor in self.superclasses_of(obj):
                self._assert((subject, RDF_TYPE, ancestor))
        # rdfs2/rdfs3: domain/range typing.
        domain = self._domains.get(predicate)
        if domain is not None:
            self.add(subject, RDF_TYPE, domain, validate=False)
        range_ = self._ranges.get(predicate)
        if range_ is not None and predicate not in self._datatype_properties:
            self.add(obj, RDF_TYPE, range_, validate=False)

    def _assert(self, triple: Triple) -> None:
        """Insert a triple, counting only genuinely new assertions.

        ``add`` recurses for RDFS entailment, so the write counter lives
        here — behind a membership test — rather than in ``add`` itself.
        """
        if triple in self._triples:
            return
        self._insert(triple)
        if self._undo.active:
            self._undo.record(lambda t=triple: self._discard(t))
        if self.tracer is not None:
            self.tracer.count("deploy.triples_written", 1)

    def _insert(self, triple: Triple) -> None:
        self._triples.add(triple)
        if triple[1] == RDF_TYPE:
            self._types.setdefault(triple[0], set()).add(triple[2])

    def _discard(self, triple: Triple) -> None:
        self._triples.discard(triple)
        if triple[1] == RDF_TYPE:
            types = self._types.get(triple[0])
            types.discard(triple[2])
            if not types:
                del self._types[triple[0]]

    def _validate(self, subject: Any, predicate: str, obj: Any) -> None:
        if predicate in (RDF_TYPE, RDFS_SUBCLASS):
            if predicate == RDF_TYPE and self._schema is not None:
                if obj not in self._superclasses:
                    raise IntegrityError(f"unknown class {obj!r}")
            return
        if predicate not in self._domains:
            raise IntegrityError(f"undeclared predicate {predicate!r}")
        declared_types = self._types.get(subject, ())
        domain = self._domains[predicate]
        if declared_types and domain not in declared_types:
            # Allow when some declared type is a subclass of the domain.
            if not any(domain in self.superclasses_of(t) for t in declared_types):
                raise IntegrityError(
                    f"subject {subject!r} of {predicate!r} is not a "
                    f"{domain!r} (types: {sorted(map(str, declared_types))})"
                )

    def retract(self, subject: Any, predicate: str, obj: Any) -> bool:
        """Retract one asserted triple; returns False when absent.

        Entailed triples are *not* withdrawn: a type asserted via
        rdfs9/rdfs2/rdfs3 for this statement may also be supported by
        other statements, and the store keeps no provenance to decide.
        Callers that need exact semantics retract the base triples of an
        element and re-assert what remains (the delta-flush path does).
        Retraction is undo-logged, so it participates in savepoints.
        """
        triple = (subject, predicate, obj)
        if triple not in self._triples:
            return False
        self._discard(triple)
        if self._undo.active:
            self._undo.record(lambda t=triple: self._insert(t))
        if self.tracer is not None:
            self.tracer.count("deploy.triples_removed", 1)
        return True

    def apply_flush_delta(self, delta, schema: Any, instance: Any):
        """Apply a :class:`~repro.deploy.delta.FlushDelta` transactionally.

        A record maps to triples as the full loader maps its element (a
        :class:`TripleLayout` of ``schema``, a super-schema); removed and
        updated records carry their old values, so the exact triples
        asserted can be retracted; an added edge's set attributes are
        counted in ``edge_attributes_dropped``.  A node removal also
        retracts the subject's *entailed* supertype triples (rdfs9): the
        delta lists every edge the node takes along, so no surviving
        statement supports them.  Triples are a set: an edge's triple is
        retracted only when ``instance``, the instance the delta leads to,
        holds no other edge of its label between the same ends.
        Assertions and retractions are undo-logged, so the whole delta
        applies under one savepoint: any exception rolls everything back.
        """
        from repro.deploy.delta import DeltaFlushReport

        layout = TripleLayout(schema)

        def held(source: Any, label: str, target: Any) -> bool:
            return instance.has_node(source) and any(
                edge.target == target for edge in instance.out_edges(source, label)
            )

        report = DeltaFlushReport()
        with transaction(self):
            for node_id, label, properties in delta.removed_nodes:
                triples = layout.node_triples(node_id, label, properties) + [
                    (node_id, RDF_TYPE, ancestor) for ancestor in self.superclasses_of(label)
                ]
                if sum(self.retract(*triple) for triple in triples):
                    report.nodes_removed += 1
                else:
                    report.skipped += 1
            for _eid, source, target, label, _props in delta.removed_edges:
                if held(source, label, target) or self.retract(source, label, target):
                    report.edges_removed += 1
                else:
                    report.skipped += 1
            for node_id, label, new, old in delta.updated_nodes:
                for triple in layout.node_triples(node_id, label, old):
                    self.retract(*triple)
                for triple in layout.node_triples(node_id, label, new):
                    self.add(*triple)
                report.nodes_updated += 1
            for node_id, label, properties in delta.added_nodes:
                for triple in layout.node_triples(node_id, label, properties):
                    self.add(*triple)
                report.nodes_added += 1
            for _eid, source, target, label, properties in delta.added_edges:
                self.add(source, label, target)
                report.edges_added += 1
                report.edge_attributes_dropped += layout.dropped(properties)
        if self.tracer is not None:
            self.tracer.count("incr.flushed_delta", report.applied)
            self.tracer.count(
                "deploy.edge_attributes_dropped", report.edge_attributes_dropped
            )
        return report

    # ------------------------------------------------------------------
    def triples(
        self,
        subject: Any = None,
        predicate: Optional[str] = None,
        obj: Any = None,
    ) -> Iterator[Triple]:
        """Pattern-match triples (None is a wildcard)."""
        for triple in self._triples:
            if subject is not None and triple[0] != subject:
                continue
            if predicate is not None and triple[1] != predicate:
                continue
            if obj is not None and triple[2] != obj:
                continue
            yield triple

    def has(self, subject: Any, predicate: str, obj: Any) -> bool:
        """O(1) membership test (used for idempotent replay detection)."""
        return (subject, predicate, obj) in self._triples

    def instances_of(self, class_name: str) -> Set[Any]:
        """Subjects typed (directly or by inference) with the class."""
        return {s for s, p, o in self._triples if p == RDF_TYPE and o == class_name}

    def count(self) -> int:
        return len(self._triples)

    def extract(self, query: str) -> Iterator[Tuple[Any, ...]]:
        """Source protocol: ``extract("predicate")`` yields (s, o) pairs;
        ``extract("rdf:type ClassName")`` yields the instances."""
        query = query.strip()
        if query.startswith(RDF_TYPE):
            class_name = query[len(RDF_TYPE):].strip()
            for subject in sorted(self.instances_of(class_name), key=str):
                yield (subject,)
            return
        for subject, _, obj in sorted(
            self.triples(predicate=query), key=lambda t: (str(t[0]), str(t[2]))
        ):
            yield (subject, obj)

    def __repr__(self) -> str:
        return f"TripleStore({self.name!r}, {len(self._triples)} triples)"
