"""The relational Copy layout, one graph element at a time: each element
maps to its own rows, as the Copy phase is "invertible by construction"
(PAPER.md, Section 6).  :class:`RowLayout` gives a node's row per
generalization member and a functional edge's foreign-key columns on its
holder's row or an M:N edge's bridge row, for
:meth:`~repro.deploy.relational_engine.RelationalEngine.apply_flush_delta`
to write.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import DeploymentError


def edge_fk_owner(schema: Any, edge: Any) -> Optional[Tuple[Any, Any]]:
    """(fk-holder declared type, referenced declared type) for non-M:N
    edges, following the normalization of the relational mapping."""
    if edge.is_many_to_many:
        return None
    if edge.is_fun1:  # many-to-one (or 1:1): FK on the source
        return edge.source, edge.target
    return edge.target, edge.source  # one-to-many: flipped


def key_column_names(schema: Any, member: Any) -> List[str]:
    """The columns of the member's table that hold a node's key: the
    identifier's own at the root, ``isA_<member>_<id>`` below it."""
    names = [a.name for a in schema.identifier_of(member)]
    if schema.parents_of(member):
        return [f"isA_{member.type_name}_{name}" for name in names]
    return names


class RowLayout:
    """The rows of a super-schema's elements, each type's layout read off
    the schema on first use (make one per load or delta)."""

    def __init__(self, schema: Any):
        self.schema = schema
        self._nodes: Dict[Optional[str], Any] = {}
        self._edges: Dict[Optional[str], Any] = {}

    def _node(self, label: Optional[str]) -> Any:
        """``(identifier, [(table, attributes, key columns)] per member,
        most specific first)``; None for a type the schema lacks."""
        if label not in self._nodes:
            schema, layout = self.schema, None
            if label is not None and schema.has_node(label):
                sm_node = schema.get_node(label)
                identifier = [a.name for a in schema.identifier_of(sm_node)]
                if not identifier:
                    raise DeploymentError(
                        f"type {label!r} has no identifier; cannot deploy "
                        "relationally"
                    )
                layout = identifier, [
                    (member.type_name, [a.name for a in member.attributes],
                     key_column_names(schema, member))
                    for member in [sm_node, *schema.ancestors_of(sm_node)]
                ]
            self._nodes[label] = layout
        return self._nodes[label]

    def node_key(
        self, label: Optional[str], properties: Mapping[str, Any]
    ) -> Optional[Tuple[Any, ...]]:
        """A node's identifier values; None for a type the schema lacks."""
        layout = self._node(label)
        return None if layout is None else tuple(properties.get(n) for n in layout[0])

    def node_rows(
        self, label: Optional[str], properties: Mapping[str, Any]
    ) -> List[Tuple[str, Dict[str, Any]]]:
        """``(table, row)`` per hierarchy member of the node's type, most
        specific first: the member's attributes (None where the node sets
        none), and its key — as ``isA_<member>_<id>`` columns below the
        root."""
        layout = self._node(label)
        if layout is None:
            return []
        key = tuple(properties.get(n) for n in layout[0])
        rows = []
        for table, attributes, key_columns in layout[1]:
            row = {n: properties.get(n) for n in attributes}
            for name, value in zip(key_columns, key):
                row.setdefault(name, value)
            rows.append((table, row))
        return rows

    def key_columns(self, table: str, key: Tuple[Any, ...]) -> Dict[str, Any]:
        """``key`` in the columns of node type ``table``'s own table."""
        _identifier, members = self._node(table)
        return dict(zip(members[0][2], key))

    def edge_row(
        self,
        label: Optional[str],
        properties: Mapping[str, Any],
        source_key: Optional[Tuple[Any, ...]],
        target_key: Optional[Tuple[Any, ...]],
    ) -> Optional[Tuple[str, Optional[Tuple[Any, ...]], Dict[str, Any]]]:
        """``(table, holder_key, columns)``: a functional edge's referenced
        key (and attributes) as columns of the row of ``table`` keyed
        ``holder_key``, or (``holder_key`` None) an M:N edge's bridge row.
        None when the schema has no such edge type or an end has no
        rows."""
        layout = self.edge_layout(label)
        if layout is None or source_key is None or target_key is None:
            return None
        holder_is_source, table, columns, target_columns, attributes = layout
        if holder_is_source is None:
            holder_key = None
            row = dict(zip(columns, source_key))
            row.update(zip(target_columns, target_key))
        else:
            holder_key, referenced_key = (
                (source_key, target_key) if holder_is_source
                else (target_key, source_key)
            )
            row = dict(zip(columns, referenced_key))
        row.update((n, properties[n]) for n in attributes if n in properties)
        return table, holder_key, row

    def edge_layout(self, label: Optional[str]) -> Any:
        """``(holder is the source, table, columns, target columns,
        attributes)``: the holder's table and the referenced key's columns,
        or (holder None) the bridge table and its two ends' key columns;
        None for a type the schema lacks."""
        schema = self.schema
        if label in self._edges or label is None or not schema.has_edge(label):
            return self._edges.get(label)
        edge = schema.get_edge(label)
        name, attributes = edge.type_name, [a.name for a in edge.attributes]
        owner = edge_fk_owner(schema, edge)
        if owner is not None:
            holder, referenced = owner
            columns = [f"{name}_{a.name}" for a in schema.identifier_of(referenced)]
            layout = holder is edge.source, holder.type_name, columns, None, attributes
        else:
            source, target = (
                [f"{name}_{end}_{a.name}" for a in schema.identifier_of(declared)]
                for end, declared in (("src", edge.source), ("tgt", edge.target))
            )
            layout = None, name, source, target, attributes
        self._edges[label] = layout
        return layout
