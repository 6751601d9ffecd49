"""Construction of the input/output views of Algorithm 2 (Section 6).

"The views are automatically generated by KGModel from a static analysis
of Sigma.  For each body node (edge), an input-node (edge) view is
created; for each head node (edge), an output-node (edge) view is
created.  For a given PG node atom of Sigma, an input-view generates the
corresponding facts by reading from I_SM_Node and aggregating all the
related I_SM_Attributes ...  The output views perform the inverse
transformation, de-normalizing higher-level atoms into the super-schema
instance constructs."

Implementation notes (documented deviations):

- Instead of the paper's generic ``pack``/``unpack`` multi-tuple
  operators, the views join each attribute explicitly — the static
  analysis knows the full attribute list of every type, so the generated
  rules are equivalent and run on plain stratified Datalog.  Optional
  attributes are handled with a negation-based default (a ``None``
  constant) so elements missing an optional attribute are not dropped.
- The input view of a node label also accepts instances of its
  descendants in the generalization hierarchy (an instance labeled
  ``PublicListedCompany`` satisfies a ``(x: Business)`` atom), which is
  the model-aware reading of the super-schema.
- ``SM_REFERENCES`` targets are compile-time constants (the schema
  construct OIDs), so no join on ``SM_Type`` names is needed.

The views are plain Vadalog :class:`~repro.vadalog.ast.Rule` objects,
built against the instance-construct fact layout fixed by
:mod:`repro.core.dictionary` (``I_SM_Node(oid, instanceOID, sourceOID)``,
``I_SM_Attribute(oid, instanceOID, value)``, and arity-4 link facts
``label(oid, src, tgt, instanceOID)``).  They are the reference:
production runs the same static analysis compiled one level further,
into column maps between the registry's label tables and Sigma's
relations (:class:`~repro.ssst.materializer.ColumnMaps`), and the tests
hold it to these programs.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence

from repro.core.schema import SuperSchema
from repro.metalog.analysis import GraphCatalog
from repro.vadalog.ast import (
    Atom,
    Condition,
    NegatedAtom,
    Program,
    Rule,
    SkolemTerm,
    TermExpr,
)
from repro.vadalog.terms import ANONYMOUS, Variable


def catalog_from_super_schema(schema: SuperSchema) -> GraphCatalog:
    """The catalog a MetaLog program over this schema compiles against.

    Node labels expose their full (inherited) attribute list; edge labels
    their own attributes; order is alphabetical for stability.
    """
    catalog = GraphCatalog()
    for node in schema.nodes:
        names = sorted(a.name for a in schema.inherited_attributes(node))
        catalog.extend_node(node.type_name, names)
    for edge in schema.edges:
        names = sorted(a.name for a in edge.attributes)
        catalog.extend_edge(edge.type_name, names)
    return catalog


def _v(name: str) -> Variable:
    return Variable(name)


# Fact-layout helpers (see module docstring).
def _b_inode(iid, inst) -> Atom:
    return Atom("I_SM_Node", (iid, inst, ANONYMOUS))


def _b_iedge(iid, inst) -> Atom:
    return Atom("I_SM_Edge", (iid, inst, ANONYMOUS))


def _b_iattr(iid, inst, value) -> Atom:
    return Atom("I_SM_Attribute", (iid, inst, value))


def _b_link(label: str, source, target, inst) -> Atom:
    return Atom(label, (ANONYMOUS, source, target, inst))


def input_views(
    schema: SuperSchema,
    node_labels: Iterable[str],
    edge_labels: Iterable[str],
    instance_oid: Any,
    catalog: GraphCatalog,
) -> Program:
    """Generate V_I: I_SM_* constructs -> type-level facts."""
    program = Program()
    for label in sorted(set(node_labels)):
        if schema.has_node(label):
            _node_input_view(program, schema, label, instance_oid, catalog)
    for label in sorted(set(edge_labels)):
        if schema.has_edge(label):
            _edge_input_view(program, schema, label, instance_oid, catalog)
    return program


def _attribute_value_rules(
    program: Program,
    base_atom: Atom,
    key_var: Variable,
    link_label: str,
    attribute,
    val_pred: str,
    has_pred: str,
    instance_oid: Any,
) -> None:
    """The present-value / negation-default rule pair for one attribute."""
    value = _v("V")
    attr_iid = _v("Ia")
    if attribute is not None:
        joined = (
            base_atom,
            _b_link(link_label, key_var, attr_iid, instance_oid),
            _b_iattr(attr_iid, instance_oid, value),
            _b_link("SM_REFERENCES", attr_iid, attribute.oid, instance_oid),
        )
        # The "has" marker gets its own rule so that it lands in a
        # strictly lower stratum than the negation-based default below.
        program.rules.append(Rule(joined, (Atom(val_pred, (key_var, value)),)))
        program.rules.append(Rule(joined, (Atom(has_pred, (key_var,)),)))
    program.rules.append(
        Rule(
            (base_atom, NegatedAtom(Atom(has_pred, (key_var,)))),
            (Atom(val_pred, (key_var, None)),),
        )
    )


def _node_input_view(
    program: Program,
    schema: SuperSchema,
    label: str,
    instance_oid: Any,
    catalog: GraphCatalog,
) -> None:
    node = schema.get_node(label)
    members = [node] + schema.descendants_of(node)
    base = f"vI_base_{label}"
    iid = _v("Iid")

    # Base: one rule per hierarchy member referencing its construct OID.
    for member in members:
        program.rules.append(
            Rule(
                (
                    _b_inode(iid, instance_oid),
                    _b_link("SM_REFERENCES", iid, member.oid, instance_oid),
                ),
                (Atom(base, (iid,)),),
            )
        )

    attribute_by_name = {a.name: a for a in schema.inherited_attributes(node)}
    names = catalog.node_properties.get(label, [])
    for name in names:
        _attribute_value_rules(
            program,
            Atom(base, (iid,)),
            iid,
            "I_SM_HAS_NODE_PROPERTY",
            attribute_by_name.get(name),
            f"vI_val_{label}_{name}",
            f"vI_has_{label}_{name}",
            instance_oid,
        )

    value_vars = [_v(f"A_{name}") for name in names]
    body: List[Any] = [Atom(base, (iid,))]
    for name, var in zip(names, value_vars):
        body.append(Atom(f"vI_val_{label}_{name}", (iid, var)))
    program.rules.append(Rule(tuple(body), (Atom(label, (iid, *value_vars)),)))


def _edge_input_view(
    program: Program,
    schema: SuperSchema,
    label: str,
    instance_oid: Any,
    catalog: GraphCatalog,
) -> None:
    edge = schema.get_edge(label)
    base = f"vI_base_{label}"
    iid, src, tgt = _v("Ie"), _v("Isrc"), _v("Itgt")
    program.rules.append(
        Rule(
            (
                _b_iedge(iid, instance_oid),
                _b_link("SM_REFERENCES", iid, edge.oid, instance_oid),
                _b_link("I_SM_FROM", iid, src, instance_oid),
                _b_link("I_SM_TO", iid, tgt, instance_oid),
            ),
            (Atom(base, (iid, src, tgt)),),
        )
    )
    attribute_by_name = {a.name: a for a in edge.attributes}
    names = catalog.edge_properties.get(label, [])
    for name in names:
        _attribute_value_rules(
            program,
            Atom(base, (iid, src, tgt)),
            iid,
            "I_SM_HAS_EDGE_PROPERTY",
            attribute_by_name.get(name),
            f"vI_eval_{label}_{name}",
            f"vI_ehas_{label}_{name}",
            instance_oid,
        )

    value_vars = [_v(f"A_{name}") for name in names]
    body: List[Any] = [Atom(base, (iid, src, tgt))]
    for name, var in zip(names, value_vars):
        body.append(Atom(f"vI_eval_{label}_{name}", (iid, var)))
    program.rules.append(
        Rule(tuple(body), (Atom(label, (iid, src, tgt, *value_vars)),))
    )


def output_views(
    schema: SuperSchema,
    node_labels: Iterable[str],
    edge_labels: Iterable[str],
    instance_oid: Any,
    catalog: GraphCatalog,
) -> Program:
    """Generate V_O: type-level facts -> I_SM_* constructs."""
    program = Program()
    for label in sorted(set(node_labels)):
        if schema.has_node(label):
            _node_output_view(program, schema, label, instance_oid, catalog)
    for label in sorted(set(edge_labels)):
        if schema.has_edge(label):
            _edge_output_view(program, schema, label, instance_oid, catalog)
    return program


def _attribute_output_rules(
    program: Program,
    fact: Atom,
    oid: Variable,
    label: str,
    names: Sequence[str],
    value_vars: Sequence[Variable],
    attribute_by_name,
    link_label: str,
    instance_oid: Any,
) -> None:
    for name, var in zip(names, value_vars):
        attribute = attribute_by_name.get(name)
        if attribute is None:
            continue
        attr_skolem = SkolemTerm(f"skOattr_{label}_{name}", (oid,))
        program.rules.append(
            Rule(
                (fact, Condition("!=", TermExpr(var), TermExpr(None))),
                (
                    _b_iattr(attr_skolem, instance_oid, var),
                    Atom(
                        "SM_REFERENCES",
                        (SkolemTerm(f"skOaref_{label}_{name}", (oid,)),
                         attr_skolem, attribute.oid, instance_oid),
                    ),
                    Atom(
                        link_label,
                        (SkolemTerm(f"skOhas_{label}_{name}", (oid,)),
                         oid, attr_skolem, instance_oid),
                    ),
                ),
            )
        )


def _node_output_view(
    program: Program,
    schema: SuperSchema,
    label: str,
    instance_oid: Any,
    catalog: GraphCatalog,
) -> None:
    node = schema.get_node(label)
    names = catalog.node_properties.get(label, [])
    attribute_by_name = {a.name: a for a in schema.inherited_attributes(node)}
    oid = _v("C")
    value_vars = [_v(f"A_{name}") for name in names]
    fact = Atom(label, (oid, *value_vars))
    program.rules.append(
        Rule(
            (fact,),
            (
                Atom("I_SM_Node", (oid, instance_oid, None)),
                Atom(
                    "SM_REFERENCES",
                    (SkolemTerm(f"skOref_{label}", (oid,)), oid, node.oid,
                     instance_oid),
                ),
            ),
        )
    )
    _attribute_output_rules(
        program, fact, oid, label, names, value_vars, attribute_by_name,
        "I_SM_HAS_NODE_PROPERTY", instance_oid,
    )


def _edge_output_view(
    program: Program,
    schema: SuperSchema,
    label: str,
    instance_oid: Any,
    catalog: GraphCatalog,
) -> None:
    edge = schema.get_edge(label)
    names = catalog.edge_properties.get(label, [])
    attribute_by_name = {a.name: a for a in edge.attributes}
    oid, src, tgt = _v("C"), _v("S"), _v("T")
    value_vars = [_v(f"A_{name}") for name in names]
    fact = Atom(label, (oid, src, tgt, *value_vars))
    program.rules.append(
        Rule(
            (fact,),
            (
                Atom("I_SM_Edge", (oid, instance_oid, None)),
                Atom(
                    "SM_REFERENCES",
                    (SkolemTerm(f"skOref_{label}", (oid,)), oid, edge.oid,
                     instance_oid),
                ),
                Atom(
                    "I_SM_FROM",
                    (SkolemTerm(f"skOfrom_{label}", (oid,)), oid, src,
                     instance_oid),
                ),
                Atom(
                    "I_SM_TO",
                    (SkolemTerm(f"skOto_{label}", (oid,)), oid, tgt,
                     instance_oid),
                ),
            ),
        )
    )
    _attribute_output_rules(
        program, fact, oid, label, names, value_vars, attribute_by_name,
        "I_SM_HAS_EDGE_PROPERTY", instance_oid,
    )
