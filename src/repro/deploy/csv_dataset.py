"""A CSV dataset target: serialize instances as plain CSV files.

Deployment target for the CSV model: one in-memory "file" per translated
``CSVFile`` with its declared header; rows are validated against the
header (extra keys rejected, everything else is stringly-typed — that is
the point of the CSV model).  Rendering produces standard RFC-4180-ish
text via :mod:`csv`; parsing reads it back; ``extract`` implements the
:class:`~repro.vadalog.annotations.Source` protocol.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import DeploymentError, IntegrityError
from repro.models.csvmodel import CSVSchema


class CSVDataset:
    """An in-memory collection of CSV files conforming to a CSV schema."""

    def __init__(self, name: str = "csv-dataset"):
        self.name = name
        self._schema: Optional[CSVSchema] = None
        self._rows: Dict[str, List[List[Any]]] = {}

    def deploy(self, schema: CSVSchema) -> None:
        if self._schema is not None:
            raise DeploymentError("a schema is already deployed")
        self._schema = schema
        for file_name in schema.files:
            self._rows[file_name] = []

    def _header(self, file_name: str) -> List[str]:
        if self._schema is None:
            raise DeploymentError("no schema deployed")
        return self._schema.file(file_name).header()

    # ------------------------------------------------------------------
    def append(self, file_name: str, **values: Any) -> None:
        """Add one row; unknown columns are rejected, missing ones empty."""
        header = self._header(file_name)
        unknown = set(values) - set(header)
        if unknown:
            raise IntegrityError(
                f"{file_name}: unknown columns {sorted(unknown)}"
            )
        self._rows[file_name].append([values.get(c) for c in header])

    def count(self, file_name: str) -> int:
        self._header(file_name)
        return len(self._rows[file_name])

    def rows(self, file_name: str) -> List[Dict[str, Any]]:
        header = self._header(file_name)
        return [dict(zip(header, row)) for row in self._rows[file_name]]

    # ------------------------------------------------------------------
    # Text rendering / parsing
    # ------------------------------------------------------------------
    def render(self, file_name: str) -> str:
        """The CSV text of one file, header first."""
        header = self._header(file_name)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for row in self._rows[file_name]:
            writer.writerow(["" if v is None else v for v in row])
        return buffer.getvalue()

    def load_text(self, file_name: str, text: str) -> int:
        """Parse CSV text into a file; the header must match the schema."""
        header = self._header(file_name)
        reader = csv.reader(io.StringIO(text))
        rows = list(reader)
        if not rows:
            return 0
        if rows[0] != header:
            raise IntegrityError(
                f"{file_name}: header {rows[0]} does not match schema "
                f"{header}"
            )
        added = 0
        for row in rows[1:]:
            if len(row) != len(header):
                raise IntegrityError(
                    f"{file_name}: row width {len(row)} != {len(header)}"
                )
            self._rows[file_name].append(
                [None if cell == "" else cell for cell in row]
            )
            added += 1
        return added

    # ------------------------------------------------------------------
    def extract(self, query: str) -> Iterator[Tuple[Any, ...]]:
        """Source protocol: ``extract("File")`` yields row tuples."""
        file_name = query.strip()
        self._header(file_name)
        for row in self._rows[file_name]:
            yield tuple(row)

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}:{len(r)}" for n, r in sorted(self._rows.items()))
        return f"CSVDataset({self.name!r}, {parts})"
