"""The reference Algorithm 2: V_I, Sigma and V_O over ``I_SM_*``.

Production compiles the views into column maps
(:mod:`repro.ssst.materializer`); this module keeps the pipeline they
replace — the registry encoded into ``I_SM_*`` staging relations, the
V_I view program, Sigma, the V_O view program, and the flush semantics
of V_O's relations (:func:`instance_facts`) — as the oracle the tests
hold production to, element for element and in order.
"""

from typing import Any, Collection, Dict, List, Mapping, Tuple, Union

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
from repro.metalog.mtv import compile_metalog
from repro.ssst.views import catalog_from_super_schema, input_views, output_views
from repro.vadalog.columnar import ValueInterner
from repro.vadalog.database import Database
from repro.vadalog.engine import Engine
from repro.vadalog.terms import fact_sort_key

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
    staging = Database(
        columnar=engine.columnar, interner=getattr(data, "interner", None)
    )
    encode_instance(schema, instance_oid, data, staging.add_columns)
    for program in (views[0], compiled.program):
        staging = engine.run(program, database=staging, copy_database=False).database
    loaded = {
        label: staging.count(label) if staging.columnar else staging.facts(label)
        for label in INSTANCE_LABELS
    }
    flushed = engine.run(views[1], database=staging, copy_database=False).database
    source = coded(
        CodedSource(flushed.interner, flushed.code_columns) if flushed.columnar
        else flushed.columns
    )
    held, _added, dropped = _settle(source, loaded, schema)
    instance = decode_instance(
        schema, instance_oid, CodedSource(source.interner, held.get), "reference"
    )
    return instance, dropped
