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
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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
    rows: List[Dict[str, Any]] = field(default_factory=list)
    pk_index: Dict[Tuple[Any, ...], int] = field(default_factory=dict)


class RelationalEngine(SavepointMixin):
    """An in-memory RDBMS enforcing the translated schema."""

    def __init__(self, name: str = "rdbms", tracer: Optional[Tracer] = None):
        self.name = name
        self.tracer = tracer
        self._tables: Dict[str, _StoredTable] = {}
        self._foreign_keys: List[ForeignKey] = []
        # Inside deferred(): the rows written (by identity, until deleted
        # or replaced) and the tables deleted from, checked at its end.
        self._written: Optional[Dict[int, Tuple[str, Dict[str, Any]]]] = None
        self._emptied: Set[str] = set()
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
        if pk_key is not None and pk_key in stored.pk_index:
            raise IntegrityError(
                f"{table_name}: duplicate primary key {pk_key!r}"
            )
        self._wrote(table_name, row)
        stored.rows.append(row)
        if pk_key is not None:
            stored.pk_index[pk_key] = len(stored.rows) - 1
        if self._undo.active:
            self._undo.record(
                lambda s=stored, r=row, k=pk_key: self._undo_insert(s, r, k)
            )
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

    @staticmethod
    def _undo_insert(
        stored: _StoredTable, row: Dict[str, Any], pk_key: Optional[Tuple[Any, ...]]
    ) -> None:
        # Undo entries run newest-first, so the row is the table's last.
        if stored.rows and stored.rows[-1] is row:
            stored.rows.pop()
        else:  # pragma: no cover - defensive, reverse order guarantees tail
            stored.rows.remove(row)
        if pk_key is not None:
            stored.pk_index.pop(pk_key, None)

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
        position = stored.pk_index.get(tuple(key))
        if position is None:
            raise IntegrityError(f"{table_name}: no row with primary key {key!r}")
        old = stored.rows[position]
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
        stored.rows[position] = row
        if self._undo.active:
            self._undo.record(
                lambda s=stored, p=position, r=old: s.rows.__setitem__(p, r)
            )
        if self.tracer is not None:
            self.tracer.count("deploy.rows_updated", 1)

    def delete(self, table_name: str, **values: Any) -> int:
        """Delete every row matching the given column values exactly.

        A row left referencing a deleted one through a foreign key raises
        :class:`~repro.errors.IntegrityError` (RESTRICT semantics), so a
        delta cannot silently orphan references.  Deletions are
        undo-logged — inside a savepoint a rollback restores the rows —
        and the positional primary-key index is rebuilt after each
        change.  Returns the number of rows removed.
        """
        stored = self._stored(table_name)
        survivors: List[Dict[str, Any]] = []
        removed: List[Dict[str, Any]] = []
        for row in stored.rows:
            if all(row.get(k) == v for k, v in values.items()):
                removed.append(row)
            else:
                survivors.append(row)
        if removed:
            self._remove(table_name, stored, survivors, removed)
        return len(removed)

    def delete_row(self, table_name: str, row: Dict[str, Any]) -> None:
        """Delete one row equal to ``row`` (an absent column is NULL): one
        copy of a row a table without a primary key holds several times.
        Checked and undo-logged as :meth:`delete`; a row the table does
        not hold raises :class:`~repro.errors.IntegrityError`."""
        stored = self._stored(table_name)
        whole = {c.name: row.get(c.name) for c in stored.table.columns}
        rows = stored.rows
        try:
            position = rows.index(whole)
        except ValueError:
            raise IntegrityError(f"{table_name}: no row {whole!r} to delete") from None
        self._remove(
            table_name, stored, rows[:position] + rows[position + 1:], [rows[position]]
        )

    def _remove(self, table_name: str, stored: _StoredTable,
                survivors: List[Dict[str, Any]], removed: List[Dict[str, Any]]) -> None:
        previous = stored.rows
        stored.rows = survivors
        # Reference checks resolve targets through the pk index, so it
        # must reflect the removal before RESTRICT is evaluated.
        self._reindex(stored)
        if self._written is not None:
            for row in removed:
                self._written.pop(id(row), None)
            self._emptied.add(table_name)
        else:
            try:
                self._check_referencing(table_name)
            except IntegrityError:
                stored.rows = previous
                self._reindex(stored)
                raise
        if self._undo.active:
            self._undo.record(
                lambda s=stored, rows=previous: self._undo_delete(s, rows)
            )
        if self.tracer is not None:
            self.tracer.count("deploy.rows_removed", len(removed))

    def _undo_delete(
        self, stored: _StoredTable, rows: List[Dict[str, Any]]
    ) -> None:
        stored.rows = rows
        self._reindex(stored)

    @staticmethod
    def _reindex(stored: _StoredTable) -> None:
        """Rebuild the positional primary-key index after a deletion."""
        pk_columns = stored.table.primary_key()
        stored.pk_index = (
            {
                tuple(row[c] for c in pk_columns): position
                for position, row in enumerate(stored.rows)
            }
            if pk_columns
            else {}
        )

    def apply_flush_delta(
        self, delta: FlushDelta, schema: Any, instance: Any
    ) -> DeltaFlushReport:
        """Bring the engine up to date with a
        :class:`~repro.deploy.delta.FlushDelta` by the rows of its records.

        ``schema`` lays the rows out (:mod:`repro.deploy.relational_rows`);
        ``instance``, the enriched graph the delta leads to, keys an edge
        end the delta does not carry, by one lookup.  A bridge row goes
        one copy at a time; a changed property is an update of its node's
        rows; a functional edge added or removed rebuilds its holder's
        foreign-key columns from the holder's edges of that type left in
        ``instance``, folded in order as a full load folds them; a node
        re-typed or re-keyed is deleted and inserted again, with the
        edges that reach it.  One savepoint, foreign keys checked at its
        end.
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
        # A node that leaves and arrives (re-typed, re-keyed) takes the
        # rows of the edges reaching it along: write those again.
        listed = {r[0] for r in (*delta.removed_edges, *delta.added_edges)}
        carried = {
            edge.id: (edge.id, edge.source, edge.target, edge.label, edge.properties)
            for node_id in new if node_id in arriving and node_id in old
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
                if pk_key in self._stored(table).pk_index:
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
        written, emptied = self._written, self._emptied = {}, set()
        try:
            yield self
        finally:
            self._written = None
        for table_name, row in written.values():
            self._check_row_references(table_name, row)
        for table_name in emptied:
            self._check_referencing(table_name)

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
        target = self._stored(foreign_key.target_table)
        pk_columns = target.table.primary_key()
        if pk_columns == foreign_key.target_columns and target.pk_index:
            if values in target.pk_index:
                return
        else:
            for candidate in target.rows:
                if tuple(candidate.get(c) for c in foreign_key.target_columns) == values:
                    return
        raise IntegrityError(
            f"{foreign_key.source_table}: foreign key {foreign_key.name!r} "
            f"value {values!r} has no match in {foreign_key.target_table!r}"
        )

    def _check_referencing(self, table_name: str) -> None:
        """RESTRICT after ``table_name`` lost rows: every row a foreign
        key points from it at still finds its match."""
        for foreign_key in self._foreign_keys:
            if foreign_key.target_table == table_name:
                for row in self._stored(foreign_key.source_table).rows:
                    self._check_reference(foreign_key, row)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def rows(self, table_name: str) -> List[Dict[str, Any]]:
        return [dict(r) for r in self._stored(table_name).rows]

    def count(self, table_name: str) -> int:
        return len(self._stored(table_name).rows)

    def select(
        self, table_name: str, **equals: Any
    ) -> Iterator[Dict[str, Any]]:
        for row in self._stored(table_name).rows:
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
        for row in stored.rows:
            yield tuple(row.get(c) for c in columns)

    def _stored(self, table_name: str) -> _StoredTable:
        stored = self._tables.get(table_name)
        if stored is None:
            raise DeploymentError(f"unknown table {table_name!r}")
        return stored

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}:{len(t.rows)}" for n, t in sorted(self._tables.items()))
        return f"RelationalEngine({self.name!r}, {parts})"
