"""Property-graph substrate: storage, algorithms, and statistics.

Two interchangeable backing stores implement the same graph API:

* :class:`PropertyGraph` — one frozen ``Node``/``Edge`` dataclass per
  element (the original implementation, kept as the differential
  oracle, mirroring ``Engine(columnar=False)``);
* :class:`ColumnarPropertyGraph` — interned code columns + int-indexed
  adjacency with lazy views (the production store at registry scale).

:func:`make_graph` builds the columnar store; only differential tests
pass ``columnar=False`` to get the oracle.
"""

from typing import Union

from repro.graph.property_graph import Edge, Node, PropertyGraph
from repro.graph.columnar_graph import ColumnarPropertyGraph, EdgeView, NodeView
from repro.graph.statistics import GraphStatistics, PAPER_STATISTICS, summarize
from repro.graph.powerlaw import PowerLawFit, fit_power_law

#: Either backing store (they are duck-type equivalent, no common base).
AnyPropertyGraph = Union[PropertyGraph, ColumnarPropertyGraph]


def make_graph(name: str = "graph", columnar: bool = True) -> AnyPropertyGraph:
    """Construct a property graph: columnar in production, the object
    store (``columnar=False``) as the differential tests' oracle."""
    if columnar:
        return ColumnarPropertyGraph(name)
    return PropertyGraph(name)


__all__ = [
    "Edge",
    "Node",
    "NodeView",
    "EdgeView",
    "PropertyGraph",
    "ColumnarPropertyGraph",
    "AnyPropertyGraph",
    "make_graph",
    "GraphStatistics",
    "PAPER_STATISTICS",
    "summarize",
    "PowerLawFit",
    "fit_power_law",
]
