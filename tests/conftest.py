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

    Before the call the enriched graph is copied; after it the whole
    instance is decoded from the flush relations.  The emitted
    ``FlushDelta`` must equal ``FlushDelta.diff(copy, whole)`` record
    for record, and the patched enriched graph must equal the whole
    decode.  During the call itself no whole relation of the flush
    database may be read and ``FlushDelta.diff`` may not run.
    Returns ``materializer``.
    """
    from unittest import mock

    from repro.core.instances import decode_relations
    from repro.deploy.delta import FlushDelta
    from repro.vadalog.columnar import ColumnarRelation
    from repro.vadalog.database import Database

    real_update = materializer.update
    real_columns = Database.columns
    real_value_columns = ColumnarRelation.value_columns

    def checked_update(delta):
        retained = materializer.retained
        if retained is None:
            return real_update(delta)
        flush_db = retained.result_flush.database
        before = retained.enriched.copy()

        def columns(self, predicate):
            assert self is not flush_db, f"whole read of {predicate}"
            return real_columns(self, predicate)

        def value_columns(self):
            assert not any(
                self is held for held in flush_db._relations.values()
            ), f"whole read of {self.name}"
            return real_value_columns(self)

        def no_diff(*_args, **_kwargs):
            raise AssertionError("FlushDelta.diff called by update()")

        with mock.patch.object(Database, "columns", columns), \
                mock.patch.object(ColumnarRelation, "value_columns",
                                  value_columns), \
                mock.patch.object(FlushDelta, "diff", no_diff):
            report = real_update(delta)
        assert report.instance.data is retained.enriched
        whole, _, _ = decode_relations(
            retained.schema, retained.instance_oid, flush_db.columns,
            retained.result_flush.state.edb, "whole",
        )
        assert flush_delta_records(report.flush_delta) == flush_delta_records(
            FlushDelta.diff(before, whole.data)
        )
        assert not FlushDelta.diff(retained.enriched, whole.data).changed()
        return report

    materializer.update = checked_update
    return materializer
