"""A small in-memory relational engine used as a deployment target.

Section 5: "for relational systems, [schemas] can be rendered as DDL
statements, which include the respective constraints such as keys,
foreign keys, domain constraints, and so on".  This engine *enforces*
what the SSST generates: primary keys, NOT NULL, UNIQUE, and foreign
keys, plus loose domain checking on the declared column types.

It also implements the :class:`repro.vadalog.annotations.Source`
protocol, so ``@input`` annotations can pull facts straight out of a
deployed database (``extract("Business")`` yields the rows of the
``Business`` table in column order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.deploy.transactions import SavepointMixin, UndoLog, transaction
from repro.errors import DeploymentError, IntegrityError
from repro.models.relational import Column, ForeignKey, RelationalSchema, Table
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
    unique_indexes: Dict[str, Dict[Any, int]] = field(default_factory=dict)


class RelationalEngine(SavepointMixin):
    """An in-memory RDBMS enforcing the translated schema."""

    def __init__(self, name: str = "rdbms", tracer: Optional[Tracer] = None):
        self.name = name
        self.tracer = tracer
        self._tables: Dict[str, _StoredTable] = {}
        self._foreign_keys: List[ForeignKey] = []
        self._deferred: bool = False
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

    def foreign_keys(self) -> List[ForeignKey]:
        """The deployed foreign keys (delta appliers order deletes by
        them: referencing tables must empty out before referenced ones)."""
        return list(self._foreign_keys)

    def table_schema(self, name: str) -> Table:
        return self._stored(name).table

    # ------------------------------------------------------------------
    # Data manipulation
    # ------------------------------------------------------------------
    def insert(self, table_name: str, **values: Any) -> None:
        """Insert one row, enforcing every declared constraint."""
        stored = self._stored(table_name)
        table = stored.table
        row: Dict[str, Any] = {}
        known = {c.name for c in table.columns}
        for column_name in values:
            if column_name not in known:
                raise IntegrityError(
                    f"{table_name}: unknown column {column_name!r}"
                )
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
        pk_columns = table.primary_key()
        if pk_columns:
            key = tuple(row[c] for c in pk_columns)
            if key in stored.pk_index:
                raise IntegrityError(
                    f"{table_name}: duplicate primary key {key!r}"
                )
        if not self._deferred:
            self._check_row_references(table_name, row)
        stored.rows.append(row)
        pk_key = tuple(row[c] for c in pk_columns) if pk_columns else None
        if pk_columns:
            stored.pk_index[pk_key] = len(stored.rows) - 1
        if self._undo.active:
            self._undo.record(
                lambda s=stored, r=row, k=pk_key: self._undo_insert(s, r, k)
            )
        if self.tracer is not None:
            self.tracer.count("deploy.rows_written", 1)

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

    def delete(self, table_name: str, **values: Any) -> int:
        """Delete every row matching the given column values exactly.

        Rows referenced by a foreign key from a remaining row raise
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
        if not removed:
            return 0
        previous = stored.rows
        stored.rows = survivors
        # Reference checks resolve targets through the pk index, so it
        # must reflect the removal before RESTRICT is evaluated.
        self._reindex(stored)
        try:
            for foreign_key in self._foreign_keys:
                if foreign_key.target_table != table_name:
                    continue
                source = self._stored(foreign_key.source_table)
                for row in source.rows:
                    self._check_reference(foreign_key, row)
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
        return len(removed)

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
        self,
        added: Optional[Dict[str, List[Dict[str, Any]]]] = None,
        removed: Optional[Dict[str, List[Dict[str, Any]]]] = None,
    ) -> Dict[str, int]:
        """Apply a row-level delta (table name -> rows) transactionally.

        Removals run first (so a changed row expressed as remove+insert
        does not trip its own primary key), then the inserts — all under
        one savepoint: both mutation kinds are undo-logged, so any
        exception rolls the whole delta back.  Returns
        ``{"inserted": n, "deleted": m}``.
        """
        counts = {"inserted": 0, "deleted": 0}
        with transaction(self):
            for table_name, rows in (removed or {}).items():
                for row in rows:
                    counts["deleted"] += self.delete(table_name, **row)
            for table_name, rows in (added or {}).items():
                for row in rows:
                    self.insert(table_name, **row)
                    counts["inserted"] += 1
        if self.tracer is not None:
            self.tracer.count(
                "incr.flushed_delta", counts["inserted"] + counts["deleted"]
            )
        return counts

    class _DeferredConstraints:
        def __init__(self, engine: "RelationalEngine"):
            self.engine = engine

        def __enter__(self):
            self.engine._deferred = True
            return self.engine

        def __exit__(self, exc_type, exc, tb):
            self.engine._deferred = False
            if exc_type is None:
                self.engine.check_integrity()
            return False

    def deferred(self) -> "_DeferredConstraints":
        """Context manager deferring FK checks to the end of the block
        (needed for cyclic references and bulk loads)."""
        return RelationalEngine._DeferredConstraints(self)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
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

    def check_integrity(self) -> None:
        """Re-validate every foreign key (used after deferred loads)."""
        for foreign_key in self._foreign_keys:
            stored = self._stored(foreign_key.source_table)
            for row in stored.rows:
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
