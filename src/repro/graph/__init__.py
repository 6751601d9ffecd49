"""Property-graph substrate: storage, algorithms, and statistics.

Two backing stores implement the same graph API:

* :class:`ColumnarPropertyGraph` — interned code columns + int-indexed
  adjacency with lazy views: the production store, the one
  :func:`make_graph` builds;
* :class:`PropertyGraph` — one ``Node``/``Edge`` object per element:
  the reference the differential tests hold the columnar store to, and
  the type the public API's signatures name (the inverse translations
  and the checkpoint build their graphs with :func:`make_graph`).
"""

from repro.graph.property_graph import Edge, Node, PropertyGraph
from repro.graph.columnar_graph import ColumnarPropertyGraph, EdgeView, NodeView
from repro.graph.statistics import GraphStatistics, PAPER_STATISTICS, summarize
from repro.graph.powerlaw import PowerLawFit, fit_power_law


def make_graph(name: str = "graph") -> ColumnarPropertyGraph:
    """Construct the production property graph."""
    return ColumnarPropertyGraph(name)


__all__ = [
    "Edge",
    "Node",
    "NodeView",
    "EdgeView",
    "PropertyGraph",
    "ColumnarPropertyGraph",
    "make_graph",
    "GraphStatistics",
    "PAPER_STATISTICS",
    "summarize",
    "PowerLawFit",
    "fit_power_law",
]
