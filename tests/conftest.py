"""Shared fixtures for the KGModel reproduction test suite."""

from __future__ import annotations

import pytest

from repro.finkg.company_schema import company_super_schema
from repro.finkg.generator import ShareholdingConfig, generate_company_kg
from repro.graph.property_graph import PropertyGraph


@pytest.fixture()
def company_schema():
    """A fresh Figure 4 Company KG super-schema (OID 123)."""
    return company_super_schema()


@pytest.fixture()
def tiny_instance():
    """A minimal typed instance: one person, three businesses, shares.

    The ownership structure realizes the canonical joint-control case:
    B1 owns 60% of B2; B1 and B2 each own 30% of B3, so B1 controls B2
    directly and B3 jointly.
    """
    data = PropertyGraph("tiny")
    data.add_node(
        "p1", "PhysicalPerson",
        fiscalCode="FCp1", name="Ada Rossi", surname="Rossi", gender="female",
    )
    for business in ("B1", "B2", "B3"):
        data.add_node(
            business, "Business",
            fiscalCode=f"FC{business}", businessName=f"{business} SpA",
            legalNature="spa", shareholdingCapital=1000.0,
        )
    stakes = [
        ("p1", "B1", 0.8, "S0"),
        ("B1", "B2", 0.6, "S1"),
        ("B2", "B3", 0.3, "S2"),
        ("B1", "B3", 0.3, "S3"),
    ]
    for owner, company, pct, share_id in stakes:
        data.add_node(share_id, "Share", shareId=share_id, percentage=pct)
        data.add_edge(owner, share_id, "HOLDS", right="ownership")
        data.add_edge(share_id, company, "BELONGS_TO")
    return data


@pytest.fixture()
def owns_instance():
    """A typed instance with direct OWNS edges (skipping Share reification)."""
    data = PropertyGraph("owns")
    for business in ("B1", "B2", "B3"):
        data.add_node(
            business, "Business",
            fiscalCode=f"FC{business}", businessName=f"{business} SpA",
            legalNature="spa", shareholdingCapital=1000.0,
        )
    data.add_edge("B1", "B2", "OWNS", percentage=0.6)
    data.add_edge("B2", "B3", "OWNS", percentage=0.3)
    data.add_edge("B1", "B3", "OWNS", percentage=0.3)
    return data


@pytest.fixture(scope="session")
def small_kg():
    """A small synthetic Company KG (deterministic)."""
    return generate_company_kg(ShareholdingConfig(companies=60, seed=11))


@pytest.fixture()
def simple_digraph():
    """Two cycles and a tail: the go-to graph for SCC/WCC assertions."""
    graph = PropertyGraph("digraph")
    for node in "abcdefg":
        graph.add_node(node, "N")
    # cycle a-b-c, cycle d-e, tail f->g, c->d bridge
    for source, target in [
        ("a", "b"), ("b", "c"), ("c", "a"),
        ("d", "e"), ("e", "d"),
        ("c", "d"), ("f", "g"),
    ]:
        graph.add_edge(source, target, "E")
    return graph


# ----------------------------------------------------------------------
# update(): the whole-instance diff is the oracle
# ----------------------------------------------------------------------
FLUSH_DELTA_LISTS = (
    "added_nodes", "added_edges", "updated_nodes", "removed_nodes",
    "removed_edges",
)


def flush_delta_records(delta):
    """A ``FlushDelta`` as per-list sorted records (property order and
    record order do not count)."""
    def canon(record):
        return repr(tuple(
            sorted(part.items()) if isinstance(part, dict) else part
            for part in record
        ))

    return {
        name: sorted(canon(record) for record in getattr(delta, name))
        for name in FLUSH_DELTA_LISTS
    }


def diff_is_the_oracle(materializer):
    """Hold every later ``materializer.update()`` against the oracle.

    Before the call and after it the whole instance is written afresh
    from the registry and Sigma's retained state (``write_instance``).
    The emitted ``FlushDelta`` must equal ``FlushDelta.diff(before,
    whole)`` record for record, and patch ``before`` into the whole
    instance.  During the call itself no whole relation of Sigma's
    database may be read, ``FlushDelta.diff`` may not run, and no
    instance may be written: ``write_instance`` may not be called and
    no ``ColumnarPropertyGraph`` constructed.  Returns ``materializer``.
    """
    from unittest import mock

    from repro.deploy.delta import FlushDelta
    from repro.graph import ColumnarPropertyGraph
    from repro.ssst import materializer as materializer_module
    from repro.ssst.materializer import write_instance
    from repro.vadalog.columnar import ColumnarRelation
    from repro.vadalog.database import Database

    real_update = materializer.update
    real_columns = {
        name: getattr(Database, name) for name in ("columns", "code_columns")
    }
    real_relation = {
        name: getattr(ColumnarRelation, name)
        for name in ("value_columns", "code_columns")
    }

    def checked_update(delta):
        retained = materializer.retained
        if retained is None:
            return real_update(delta)
        sigma_db = retained.result.database
        before = retained.instance().data

        def database_read(name):
            def read(self, predicate):
                assert self is not sigma_db, f"whole read of {predicate}"
                return real_columns[name](self, predicate)
            return read

        def relation_read(name):
            def read(self):
                assert not any(
                    self is held for held in sigma_db._relations.values()
                ), f"whole read of {self.name}"
                return real_relation[name](self)
            return read

        def no_diff(*_args, **_kwargs):
            raise AssertionError("FlushDelta.diff called by update()")

        def no_write(*_args, **_kwargs):
            raise AssertionError("update() wrote an instance")

        with mock.patch.multiple(
            Database, **{name: database_read(name) for name in real_columns}
        ), mock.patch.multiple(
            ColumnarRelation, **{name: relation_read(name) for name in real_relation}
        ), mock.patch.object(FlushDelta, "diff", no_diff), mock.patch.object(
            materializer_module, "write_instance", no_write
        ), mock.patch.object(ColumnarPropertyGraph, "__init__", no_write):
            report = real_update(delta)
        whole = ColumnarPropertyGraph("whole", interner=sigma_db.interner)
        write_instance(retained.maps, retained.instance_oid, retained.data,
                       sigma_db, whole)
        assert flush_delta_records(report.flush_delta) == flush_delta_records(
            FlushDelta.diff(before, whole)
        )
        report.flush_delta.apply_to(before)
        assert not FlushDelta.diff(before, whole).changed()
        return report

    materializer.update = checked_update
    return materializer


def reads_as_written(instance, whole, ids):
    """``instance``, an update's new-instance records, answers the four
    reads a store makes of the instance a ``FlushDelta`` leads to —
    ``has_node``, ``node``, ``out_edges`` and ``in_edges``, the last two
    with and without a label — as ``whole``, the instance written
    afresh, does: for each node id of ``ids``, values and order exact."""
    def shown(element, *ends):
        return repr((element.id, *ends, element.label, sorted(element.properties.items())))

    def edges(found):
        return [shown(edge, edge.source, edge.target) for edge in found]

    for node_id in ids:
        assert instance.has_node(node_id) == whole.has_node(node_id), node_id
        if not whole.has_node(node_id):
            continue
        assert shown(instance.node(node_id)) == shown(whole.node(node_id))
        for read in ("out_edges", "in_edges"):
            for label in (None, *whole.edge_labels()):
                assert edges(getattr(instance, read)(node_id, label)) == edges(
                    getattr(whole, read)(node_id, label)), (node_id, read, label)
