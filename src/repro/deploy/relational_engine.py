"""A small in-memory relational engine used as a deployment target.

Section 5: "for relational systems, [schemas] can be rendered as DDL
statements, which include the respective constraints such as keys,
foreign keys, domain constraints, and so on".  This engine *enforces*
what the SSST generates: primary keys, NOT NULL and foreign keys
(RESTRICT on delete), plus loose domain checking on the declared column
types (the relational model declares no UNIQUE column).  A deployed
engine follows an enriched instance by the rows of a flush delta's
records (:meth:`RelationalEngine.apply_flush_delta`).

It also implements the :class:`repro.vadalog.annotations.Source`
protocol, so ``@input`` annotations can pull facts straight out of a
deployed database (``extract("Business")`` yields the rows of the
``Business`` table in column order).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.deploy.delta import DeltaFlushReport, FlushDelta
from repro.deploy.relational_rows import RowLayout
from repro.deploy.transactions import SavepointMixin, UndoLog, transaction
from repro.errors import DeploymentError, IntegrityError
from repro.models.relational import ForeignKey, RelationalSchema, Table
from repro.obs.tracer import Tracer

#: Loose domain checks per declared column type.
_TYPE_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "date": lambda v: isinstance(v, str),
}


@dataclass
class _StoredTable:
    table: Table
    #: Rows by row id, in insertion order: deleted in place, appended.
    rows: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: The row ids of each primary key (one) or, in a table without one,
    #: of each whole row (one per copy).
    index: Dict[Tuple[Any, ...], List[int]] = field(default_factory=dict)
    #: Per tuple of columns a foreign key points from, the row ids
    #: holding each tuple of values in them.
    referencing: Dict[Tuple[str, ...], Dict[Tuple[Any, ...], Dict[int, None]]] = field(
        default_factory=dict)

    def key(self, row: Dict[str, Any]) -> Tuple[Any, ...]:
        pk_columns = self.table.primary_key()
        return tuple(row[c] for c in pk_columns) if pk_columns else tuple(row.values())

    def refer(self, columns: Tuple[str, ...]) -> None:
        """Index the rows by the values of ``columns`` from now on."""
        if columns not in self.referencing:
            self.referencing[columns] = {}
            for row_id, row in self.rows.items():
                self._reference(row_id, row, True)

    def _reference(self, row_id: int, row: Dict[str, Any], held: bool) -> None:
        for columns, index in self.referencing.items():
            values = tuple(row.get(c) for c in columns)
            if held:
                index.setdefault(values, {})[row_id] = None
            else:
                del index[values][row_id]
                if not index[values]:
                    del index[values]

    def add(self, row_id: int, row: Dict[str, Any]) -> None:
        self.rows[row_id] = row
        self.index.setdefault(self.key(row), []).append(row_id)
        self._reference(row_id, row, True)

    def drop(self, row_id: int) -> Dict[str, Any]:
        row = self.rows.pop(row_id)
        ids = self.index[self.key(row)]
        ids.remove(row_id)
        if not ids:
            del self.index[self.key(row)]
        self._reference(row_id, row, False)
        return row

    def replace(self, row_id: int, row: Dict[str, Any]) -> None:
        """Put ``row`` where the row ``row_id`` is, under the same key."""
        self._reference(row_id, self.rows[row_id], False)
        self.rows[row_id] = row
        self._reference(row_id, row, True)


class RelationalEngine(SavepointMixin):
    """An in-memory RDBMS enforcing the translated schema."""

    def __init__(self, name: str = "rdbms", tracer: Optional[Tracer] = None):
        self.name = name
        self.tracer = tracer
        self._tables: Dict[str, _StoredTable] = {}
        self._foreign_keys: List[ForeignKey] = []
        self._row_ids = count()
        # Inside deferred(): the rows written (by identity, until deleted
        # or replaced) and the rows deleted, per table, checked at its end.
        self._written: Optional[Dict[int, Tuple[str, Dict[str, Any]]]] = None
        self._emptied: Dict[str, List[Dict[str, Any]]] = {}
        self._undo = UndoLog()

    # ------------------------------------------------------------------
    # Schema deployment
    # ------------------------------------------------------------------
    def deploy(self, schema: RelationalSchema) -> None:
        """Create every table and register the foreign keys."""
        for table in schema.tables.values():
            self.create_table(table)
        for foreign_key in schema.foreign_keys:
            self.add_foreign_key(foreign_key)

    def create_table(self, table: Table) -> None:
        if table.name in self._tables:
            raise DeploymentError(f"table {table.name!r} already exists")
        self._tables[table.name] = _StoredTable(table)

    def add_foreign_key(self, foreign_key: ForeignKey) -> None:
        for table_name in (foreign_key.source_table, foreign_key.target_table):
            if table_name not in self._tables:
                raise DeploymentError(
                    f"foreign key {foreign_key.name!r} references unknown "
                    f"table {table_name!r}"
                )
        self._foreign_keys.append(foreign_key)
        self._tables[foreign_key.source_table].refer(
            tuple(foreign_key.source_columns)
        )

    def tables(self) -> List[str]:
        return sorted(self._tables)

    def table_schema(self, name: str) -> Table:
        return self._stored(name).table

    # ------------------------------------------------------------------
    # Data manipulation
    # ------------------------------------------------------------------
    def insert(self, table_name: str, **values: Any) -> None:
        """Insert one row, enforcing every declared constraint."""
        stored = self._stored(table_name)
        row = self._checked_row(table_name, stored.table, values)
        pk_key = self._key_of(table_name, row)
        if pk_key is not None and pk_key in stored.index:
            raise IntegrityError(
                f"{table_name}: duplicate primary key {pk_key!r}"
            )
        self._wrote(table_name, row)
        row_id = next(self._row_ids)
        stored.add(row_id, row)
        if self._undo.active:
            self._undo.record(partial(stored.drop, row_id))
        if self.tracer is not None:
            self.tracer.count("deploy.rows_written", 1)

    @staticmethod
    def _checked_row(
        table_name: str, table: Table, values: Dict[str, Any]
    ) -> Dict[str, Any]:
        """``values`` as a whole row in column order (an absent column is
        NULL), each column's NOT NULL and domain checked."""
        known = {c.name for c in table.columns}
        for column_name in values:
            if column_name not in known:
                raise IntegrityError(
                    f"{table_name}: unknown column {column_name!r}"
                )
        row: Dict[str, Any] = {}
        for column in table.columns:
            value = values.get(column.name)
            if value is None:
                if column.is_pk or not column.optional:
                    raise IntegrityError(
                        f"{table_name}.{column.name}: NULL violates "
                        f"{'PRIMARY KEY' if column.is_pk else 'NOT NULL'}"
                    )
            else:
                check = _TYPE_CHECKS.get(column.data_type)
                if check is not None and not check(value):
                    raise IntegrityError(
                        f"{table_name}.{column.name}: value {value!r} "
                        f"violates domain {column.data_type!r}"
                    )
            row[column.name] = value
        return row

    def _key_of(
        self, table_name: str, row: Dict[str, Any]
    ) -> Optional[Tuple[Any, ...]]:
        """The row's primary-key values; None for a table without one."""
        pk_columns = self._stored(table_name).table.primary_key()
        return tuple(row[c] for c in pk_columns) if pk_columns else None

    def insert_many(self, table_name: str, rows: Iterable[Dict[str, Any]]) -> int:
        count = 0
        for row in rows:
            self.insert(table_name, **row)
            count += 1
        return count

    def update(
        self, table_name: str, key: Sequence[Any], values: Dict[str, Any]
    ) -> None:
        """Set ``values`` on the row whose primary key is ``key``, the new
        row checked as :meth:`insert` checks one.  A key — the primary
        key, or columns a foreign key targets — cannot change (that is a
        delete and an insert), so no reference is orphaned.  Undo-logged.
        """
        stored = self._stored(table_name)
        if not stored.table.primary_key() or tuple(key) not in stored.index:
            raise IntegrityError(f"{table_name}: no row with primary key {key!r}")
        row_id = stored.index[tuple(key)][0]
        old = stored.rows[row_id]
        row = self._checked_row(table_name, stored.table, {**old, **values})
        keys = set(stored.table.primary_key()).union(*(
            fk.target_columns for fk in self._foreign_keys
            if fk.target_table == table_name
        ))
        if any(row[c] != old[c] for c in keys):
            raise IntegrityError(
                f"{table_name}: an update cannot change the key of {key!r}"
            )
        self._wrote(table_name, row)
        if self._written is not None:
            self._written.pop(id(old), None)
        stored.replace(row_id, row)
        if self._undo.active:
            self._undo.record(partial(stored.replace, row_id, old))
        if self.tracer is not None:
            self.tracer.count("deploy.rows_updated", 1)

    def delete(self, table_name: str, **values: Any) -> int:
        """Delete every row matching the given column values exactly —
        found through the primary-key index when they hold the key, by a
        scan otherwise.

        A row left referencing a deleted one through a foreign key raises
        :class:`~repro.errors.IntegrityError` (RESTRICT semantics), so a
        delta cannot silently orphan references.  Deletions are
        undo-logged — inside a savepoint a rollback restores the rows.
        Returns the number of rows removed.
        """
        stored = self._stored(table_name)
        pk_columns = stored.table.primary_key()
        candidates = stored.rows.keys()
        if pk_columns and all(c in values for c in pk_columns):
            candidates = stored.index.get(tuple(values[c] for c in pk_columns), ())
        row_ids = [
            row_id for row_id in candidates
            if all(stored.rows[row_id].get(k) == v for k, v in values.items())
        ]
        if row_ids:
            self._remove(table_name, stored, row_ids)
        return len(row_ids)

    def delete_row(self, table_name: str, row: Dict[str, Any]) -> None:
        """Delete one row equal to ``row`` (an absent column is NULL): one
        copy of a row a table without a primary key holds several times,
        found through the table's index, not by a scan.  Checked and
        undo-logged as :meth:`delete`; a row the table does not hold
        raises :class:`~repro.errors.IntegrityError`."""
        stored = self._stored(table_name)
        whole = {c.name: row.get(c.name) for c in stored.table.columns}
        ids = stored.index.get(stored.key(whole), ())
        if not ids or stored.rows[ids[-1]] != whole:
            raise IntegrityError(f"{table_name}: no row {whole!r} to delete")
        self._remove(table_name, stored, [ids[-1]])

    def _remove(self, table_name: str, stored: _StoredTable, row_ids: List[int]) -> None:
        removed = [(row_id, stored.drop(row_id)) for row_id in row_ids]
        restore = partial(self._undo_delete, stored, removed)
        if self._written is not None:
            for _row_id, row in removed:
                self._written.pop(id(row), None)
            self._emptied.setdefault(table_name, []).extend(row for _, row in removed)
        else:
            try:
                self._check_referencing(table_name, [row for _, row in removed])
            except IntegrityError:
                restore()
                raise
        if self._undo.active:
            self._undo.record(restore)
        if self.tracer is not None:
            self.tracer.count("deploy.rows_removed", len(removed))

    @staticmethod
    def _undo_delete(stored: _StoredTable, removed: List[Tuple[int, Dict[str, Any]]]) -> None:
        """Put deleted rows back where they were: row ids grow in
        insertion order, so a row going back before the last one held
        re-sorts the table."""
        last = next(reversed(stored.rows), -1)
        for row_id, row in removed:
            stored.add(row_id, row)
        if removed[0][0] < last:
            stored.rows = dict(sorted(stored.rows.items()))

    def apply_flush_delta(
        self, delta: FlushDelta, schema: Any, instance: Any
    ) -> DeltaFlushReport:
        """Bring the engine up to date with a
        :class:`~repro.deploy.delta.FlushDelta` by the rows of its records.

        ``schema`` lays the rows out (:mod:`repro.deploy.relational_rows`);
        ``instance``, the instance the delta leads to (a graph, or an
        update's records), keys an edge end the delta does not carry, by
        one lookup.  A bridge row goes
        one copy at a time; a changed property is an update of its node's
        rows; a functional edge added or removed rebuilds its holder's
        foreign-key columns from the holder's edges of that type left in
        ``instance``, folded in order as a full load folds them; a node
        re-typed or re-keyed is deleted and inserted again.  The delta
        lists every edge a re-typed node takes along; a re-keyed node is
        an update, whose unchanged edges the delta does not list, so the
        rows of those (``carried``) are written again.  One savepoint,
        foreign keys checked at its end.
        """
        layout = RowLayout(schema)
        old = {r[0]: r[1:3] for r in delta.removed_nodes}
        old.update((r[0], (r[1], r[3])) for r in delta.updated_nodes)
        new = {r[0]: r[1:3] for r in (*delta.added_nodes, *delta.updated_nodes)}

        def key(node_id: Any, held: Dict[Any, Any]) -> Optional[Tuple[Any, ...]]:
            if node_id in held:
                return layout.node_key(*held[node_id])
            node = instance.node(node_id)
            return layout.node_key(node.label, node.properties)

        rekeyed = [r[0] for r in delta.updated_nodes if key(r[0], old) != key(r[0], new)]
        leaving = [*(r[0] for r in delta.removed_nodes), *rekeyed]
        arriving = {*(r[0] for r in delta.added_nodes), *rekeyed}
        # A re-keyed node takes the rows of the edges reaching it along:
        # write those the delta does not list again.
        listed = {r[0] for r in (*delta.removed_edges, *delta.added_edges)}
        carried = {
            edge.id: (edge.id, edge.source, edge.target, edge.label, edge.properties)
            for node_id in rekeyed
            for edge in (*instance.out_edges(node_id), *instance.in_edges(node_id))
            if edge.id not in listed
        }
        deleted = {
            (table, self._key_of(table, row)): None
            for node_id in leaving for table, row in layout.node_rows(*old[node_id])
        }
        bridges: Tuple[List[Any], List[Any]] = ([], [])  # (gone, new)
        holders: Dict[Tuple[Any, str], None] = {}  # (node, functional edge type)
        for adding, records, held in (
            (False, (*delta.removed_edges, *carried.values()), old),
            (True, (*delta.added_edges, *carried.values()), new),
        ):
            for _edge_id, source, target, label, properties in records:
                edge_layout = layout.edge_layout(label)
                if edge_layout is not None and edge_layout[0] is not None:
                    holders[(source if edge_layout[0] else target, label)] = None
                    continue
                written = layout.edge_row(
                    label, properties, key(source, held), key(target, held))
                if written is not None:
                    bridges[adding].append((written[0], written[2]))
        patches: Dict[Tuple[str, Any], Dict[str, Any]] = {}  # holder -> columns
        for node_id, label in holders:
            holder_key = key(node_id, new) if instance.has_node(node_id) else None
            if holder_key is None:
                continue  # gone, or of no type the schema has
            holder_is_source, table, columns, _, attributes = layout.edge_layout(label)
            held_columns = dict.fromkeys([*columns, *attributes])
            ends = instance.out_edges if holder_is_source else instance.in_edges
            for edge in ends(node_id, label):
                written = layout.edge_row(
                    label, edge.properties, key(edge.source, new), key(edge.target, new))
                if written is not None:
                    held_columns.update(written[2])
            holder = (table, self._key_of(table, layout.key_columns(table, holder_key)))
            patches.setdefault(holder, {}).update(held_columns)

        with transaction(self), self.deferred():
            for table, row in bridges[False]:
                self.delete_row(table, row)
            for table, pk_key in deleted:
                self.delete(table, **dict(zip(self.table_schema(table).primary_key(), pk_key)))
            for node_id, (label, properties) in new.items():
                for table, row in layout.node_rows(label, properties):
                    pk_key = self._key_of(table, row)
                    row.update(patches.pop((table, pk_key), {}))
                    if node_id in arriving:
                        self.insert(table, **row)
                    else:
                        self.update(table, pk_key, row)
            for (table, pk_key), columns in patches.items():
                if pk_key in self._stored(table).index:
                    self.update(table, pk_key, columns)
            for table, row in bridges[True]:
                self.insert(table, **row)
        report = DeltaFlushReport(*map(len, (
            delta.added_nodes, delta.updated_nodes, delta.removed_nodes,
            delta.added_edges, delta.removed_edges)))
        if self.tracer is not None:
            self.tracer.count("incr.flushed_delta", report.applied)
        return report

    @contextmanager
    def deferred(self) -> Iterator["RelationalEngine"]:
        """Defer the foreign-key checks of the block to its end (cyclic
        references, bulk loads, deltas): then every row it wrote and kept
        must find its references, and so must every row that references a
        table it deleted from.  A nested block joins the outermost one."""
        if self._written is not None:
            yield self
            return
        written, emptied = self._written, self._emptied = {}, {}
        try:
            yield self
        finally:
            self._written = None
        for table_name, row in written.values():
            self._check_row_references(table_name, row)
        for table_name, removed in emptied.items():
            self._check_referencing(table_name, removed)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def _wrote(self, table_name: str, row: Dict[str, Any]) -> None:
        """Check a row about to be stored for its references — now, or at
        the end of the deferred block."""
        if self._written is None:
            self._check_row_references(table_name, row)
        else:
            self._written[id(row)] = (table_name, row)

    def _check_row_references(self, table_name: str, row: Dict[str, Any]) -> None:
        for foreign_key in self._foreign_keys:
            if foreign_key.source_table != table_name:
                continue
            self._check_reference(foreign_key, row)

    def _check_reference(self, foreign_key: ForeignKey, row: Dict[str, Any]) -> None:
        values = tuple(row.get(c) for c in foreign_key.source_columns)
        if not values or any(v is None for v in values):
            return  # NULL references are permitted (optional edges)
        if not self._matched(foreign_key, values):
            raise IntegrityError(
                f"{foreign_key.source_table}: foreign key {foreign_key.name!r} "
                f"value {values!r} has no match in {foreign_key.target_table!r}"
            )

    def _matched(self, foreign_key: ForeignKey, values: Tuple[Any, ...]) -> bool:
        """Whether the target table holds a row of ``values`` in the
        columns ``foreign_key`` targets."""
        target = self._stored(foreign_key.target_table)
        if target.table.primary_key() == foreign_key.target_columns and target.index:
            return values in target.index
        return any(
            tuple(candidate.get(c) for c in foreign_key.target_columns) == values
            for candidate in target.rows.values()
        )

    def _check_referencing(self, table_name: str, removed: List[Dict[str, Any]]) -> None:
        """RESTRICT after ``table_name`` lost the ``removed`` rows: the
        first row a foreign key points from at a key they held that the
        table holds no more raises — found through the referencing
        table's index of those values, no row read when every such key
        is back or nothing points at it."""
        for foreign_key in self._foreign_keys:
            if foreign_key.target_table != table_name:
                continue
            source = self._stored(foreign_key.source_table)
            referencing = source.referencing[tuple(foreign_key.source_columns)]
            held = [
                row_id for values in {
                    tuple(row.get(c) for c in foreign_key.target_columns)
                    for row in removed
                } if None not in values and values in referencing
                and not self._matched(foreign_key, values)
                for row_id in referencing[values]
            ]
            if held:
                self._check_reference(foreign_key, source.rows[min(held)])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def rows(self, table_name: str) -> List[Dict[str, Any]]:
        return [dict(r) for r in self._stored(table_name).rows.values()]

    def count(self, table_name: str) -> int:
        return len(self._stored(table_name).rows)

    def select(
        self, table_name: str, **equals: Any
    ) -> Iterator[Dict[str, Any]]:
        for row in self._stored(table_name).rows.values():
            if all(row.get(k) == v for k, v in equals.items()):
                yield dict(row)

    def extract(self, query: str) -> Iterator[Tuple[Any, ...]]:
        """Source protocol: ``extract("Table")`` or
        ``extract("Table(col1, col2)")`` yields tuples."""
        query = query.strip()
        if "(" in query:
            name, _, rest = query.partition("(")
            columns = [c.strip() for c in rest.rstrip(")").split(",") if c.strip()]
        else:
            name = query
            columns = None
        stored = self._stored(name.strip())
        if columns is None:
            columns = [c.name for c in stored.table.columns]
        for row in stored.rows.values():
            yield tuple(row.get(c) for c in columns)

    def _stored(self, table_name: str) -> _StoredTable:
        stored = self._tables.get(table_name)
        if stored is None:
            raise DeploymentError(f"unknown table {table_name!r}")
        return stored

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}:{len(t.rows)}" for n, t in sorted(self._tables.items()))
        return f"RelationalEngine({self.name!r}, {parts})"
