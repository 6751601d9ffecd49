"""Crash-safe streaming ingestion: feed parsing and fault injection, the
durable delta log (CRC frames, torn-tail recovery, compaction), window
coalescing, both sinks, backpressure, and the crash/resume differential
battery (a resumed stream must be bit-identical, on every deployed
backend, to a clean batch run over the final registry)."""

import io
import json
import os

import pytest

from repro.deploy import FaultInjector, QuarantineReport, RetryPolicy
from repro.deploy.graph_store import GraphStore
from repro.deploy.loaders import load_graph_store, load_triple_store
from repro.deploy.relational_engine import RelationalEngine
from repro.deploy.resilience import CrashFault, graph_store_state
from repro.deploy.triple_store import TripleStore
from repro.errors import ResourceLimitError, SchemaError, StreamError
from repro.finkg import programs
from repro.finkg.company_schema import company_super_schema
from repro.graph.property_graph import PropertyGraph
from repro.metalog import parse_metalog
from repro.obs.governor import ResourceGovernor
from repro.obs.tracer import RecordingTracer
from repro.ssst import SSST, IntensionalMaterializer
from repro.ssst.inverse import graph_instance_to_relational
from repro.stream import (
    DeltaCoalescer,
    DeltaLog,
    DeltaStream,
    FeedFaultInjector,
    GeneratorFeed,
    JsonlFeed,
    MaterializerSink,
    ServeStateSink,
    StreamCheckpoint,
    parse_record,
)

from tests.conftest import diff_is_the_oracle

TC_PROGRAM = "e(X, Y) -> tc(X, Y).\ntc(X, Y), e(Y, Z) -> tc(X, Z)."


# ---------------------------------------------------------------------------
# Feed parsing and sources
# ---------------------------------------------------------------------------


class TestParseRecord:
    def test_registry_record(self):
        record = parse_record(json.dumps({
            "seq": 3, "op": "add_edge", "id": "o1", "source": "a",
            "target": "b", "type": "OWNS", "properties": {"percentage": 0.5},
        }))
        assert record.op == "add_edge"
        assert record.key == ("edge", "o1")
        assert record.seq == 3
        assert record.is_addition

    def test_fact_record_key_includes_terms(self):
        record = parse_record(
            '{"seq": 1, "op": "retract", "predicate": "e", "fact": ["a", "b"]}'
        )
        assert record.key == ("fact", "e", ("a", "b"))
        assert not record.is_addition

    def test_seq_is_optional(self):
        record = parse_record(
            '{"op": "assert", "predicate": "e", "fact": ["a"]}'
        )
        assert record.seq is None

    @pytest.mark.parametrize("text", [
        "not json at all",
        '[1, 2, 3]',
        '{"seq": true, "op": "add_node", "id": "x", "type": "T"}',
        '{"seq": 1, "op": "explode", "id": "x"}',
        '{"seq": 1, "op": "add_node", "type": "T"}',
        '{"seq": 1, "op": "add_node", "id": "x"}',
        '{"seq": 1, "op": "add_edge", "id": "e", "type": "T", "source": "a"}',
        '{"seq": 1, "op": "assert", "predicate": "", "fact": ["a"]}',
        '{"seq": 1, "op": "assert", "predicate": "p", "fact": []}',
        '{"seq": 1, "op": "assert", "predicate": "p", "fact": [["nested"]]}',
        '{"seq": 1, "op": "add_node", "id": "x", "type": "T",'
        ' "properties": {"p": {"nested": 1}}}',
    ])
    def test_malformed_records_raise(self, text):
        with pytest.raises(StreamError):
            parse_record(text)


class TestGeneratorFeed:
    def records(self):
        return [
            {"seq": i, "op": "assert", "predicate": "e", "fact": [f"v{i}"]}
            for i in range(5)
        ]

    def test_poll_serializes_and_positions(self):
        feed = GeneratorFeed(self.records())
        raws = feed.poll()
        assert len(raws) == 5
        assert [r.position for r in raws] == [1, 2, 3, 4, 5]
        assert feed.eof
        assert parse_record(raws[0].text).seq == 0

    def test_seek_on_list_backed_feed(self):
        feed = GeneratorFeed(self.records())
        feed.poll()
        feed.seek(3)
        raws = feed.poll()
        assert [parse_record(r.text).seq for r in raws] == [3, 4]

    def test_max_records_bounds_a_poll(self):
        feed = GeneratorFeed(self.records())
        assert len(feed.poll(max_records=2)) == 2
        assert not feed.eof


class TestJsonlFeed:
    def write(self, path, lines):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

    def test_missing_file_is_an_empty_feed(self, tmp_path):
        feed = JsonlFeed(str(tmp_path / "nope.jsonl"))
        assert feed.poll() == []

    def test_partial_tail_line_waits_for_its_newline(self, tmp_path):
        path = str(tmp_path / "feed.jsonl")
        full = '{"seq": 1, "op": "assert", "predicate": "p", "fact": ["a"]}'
        self.write(path, [full])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "op": "assert", "pre')  # no newline yet
        feed = JsonlFeed(path)
        assert len(feed.poll()) == 1
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('dicate": "p", "fact": ["b"]}\n')
        raws = feed.poll()
        assert len(raws) == 1
        assert parse_record(raws[0].text).seq == 2

    def test_positions_are_byte_offsets_and_seekable(self, tmp_path):
        path = str(tmp_path / "feed.jsonl")
        self.write(path, [
            json.dumps({"seq": i, "op": "assert", "predicate": "p",
                        "fact": [f"v{i}"]})
            for i in range(3)
        ])
        feed = JsonlFeed(path)
        raws = feed.poll()
        assert raws[-1].position == os.path.getsize(path)
        fresh = JsonlFeed(path)
        fresh.seek(raws[0].position)
        assert [parse_record(r.text).seq for r in fresh.poll()] == [1, 2]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "feed.jsonl")
        self.write(path, [
            '{"seq": 1, "op": "assert", "predicate": "p", "fact": ["a"]}',
            "",
            '{"seq": 2, "op": "assert", "predicate": "p", "fact": ["b"]}',
        ])
        assert len(JsonlFeed(path).poll()) == 2


class TestFeedFaultInjector:
    def feed(self):
        return GeneratorFeed([
            {"seq": i, "op": "assert", "predicate": "p", "fact": [f"v{i}"]}
            for i in range(20)
        ])

    def test_torn_records_truncate_text(self):
        injector = FeedFaultInjector(self.feed(), seed=1, torn_rate=0.99)
        raws = injector.poll()
        assert injector.torn > 0
        torn = [r for r in raws if len(r.text) < 40]
        assert torn
        with pytest.raises(StreamError):
            parse_record(torn[0].text)

    def test_duplicates_reemit_the_same_record(self):
        injector = FeedFaultInjector(self.feed(), seed=2, duplicate_rate=0.5)
        raws = injector.poll()
        assert injector.duplicated > 0
        assert len(raws) == 20 + injector.duplicated
        seqs = [parse_record(r.text).seq for r in raws]
        assert len(seqs) != len(set(seqs))

    def test_reorder_swaps_neighbours(self):
        injector = FeedFaultInjector(self.feed(), seed=3, reorder_rate=0.9)
        raws = injector.poll()
        assert injector.reordered > 0
        seqs = [parse_record(r.text).seq for r in raws]
        assert seqs != sorted(seqs)
        assert sorted(seqs) == list(range(20))

    def test_same_seed_replays_the_same_faults(self):
        def run(seed):
            injector = FeedFaultInjector(
                self.feed(), seed=seed, torn_rate=0.2, duplicate_rate=0.2,
                reorder_rate=0.2,
            )
            return [r.text for r in injector.poll()]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FeedFaultInjector(self.feed(), torn_rate=1.5)


# ---------------------------------------------------------------------------
# Durable log + checkpoint
# ---------------------------------------------------------------------------


class TestDeltaLog:
    def test_append_assigns_dense_offsets_and_replays(self, tmp_path):
        log = DeltaLog(str(tmp_path), fsync=False)
        for i in range(5):
            entry = log.append(i + 1, f"record-{i}")
            assert entry.offset == i
        log.close()
        reopened = DeltaLog(str(tmp_path), fsync=False)
        assert reopened.next_offset == 5
        assert [r.text for r in reopened.replay()] == [
            f"record-{i}" for i in range(5)
        ]
        assert [r.text for r in reopened.replay(after=2)] == [
            "record-3", "record-4"
        ]

    def test_torn_tail_is_truncated_on_recovery(self, tmp_path):
        log = DeltaLog(str(tmp_path), fsync=False)
        for i in range(3):
            log.append(i + 1, f"record-{i}")
        log.close()
        [segment] = [f for f in os.listdir(str(tmp_path)) if f.endswith(".log")]
        path = os.path.join(str(tmp_path), segment)
        with open(path, "rb") as handle:
            content = handle.read()
        with open(path, "wb") as handle:
            handle.write(content[:-7])  # tear the last frame
        recovered = DeltaLog(str(tmp_path), fsync=False)
        assert recovered.next_offset == 2
        assert [r.text for r in recovered.replay()] == ["record-0", "record-1"]
        # The log stays appendable after truncating the torn frame.
        recovered.append(3, "record-2b")
        assert [r.offset for r in recovered.replay()] == [0, 1, 2]

    def test_mid_file_corruption_refuses_to_open(self, tmp_path):
        log = DeltaLog(str(tmp_path), fsync=False)
        for i in range(4):
            log.append(i + 1, f"record-{i}")
        log.close()
        [segment] = [f for f in os.listdir(str(tmp_path)) if f.endswith(".log")]
        path = os.path.join(str(tmp_path), segment)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[1] = lines[1].replace("record-1", "tampered!")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(StreamError):
            DeltaLog(str(tmp_path), fsync=False)

    def test_segment_rotation_compaction_and_reopen(self, tmp_path):
        log = DeltaLog(str(tmp_path), segment_records=2, fsync=False)
        for i in range(7):
            log.append(i + 1, f"record-{i}")
        segments = [f for f in os.listdir(str(tmp_path)) if f.endswith(".log")]
        assert len(segments) == 4
        log.compact(acked=3)  # first two segments fully acknowledged
        remaining = [f for f in os.listdir(str(tmp_path)) if f.endswith(".log")]
        assert len(remaining) == 2
        assert [r.text for r in log.replay(after=3)] == [
            "record-4", "record-5", "record-6"
        ]
        log.close()
        # Recovery must accept a compacted log (offsets start past zero).
        reopened = DeltaLog(str(tmp_path), segment_records=2, fsync=False)
        assert reopened.next_offset == 7
        reopened.append(8, "record-7")
        assert [r.offset for r in reopened.replay(after=5)] == [6, 7]

    def test_replay_after_respects_actual_segment_boundaries(self, tmp_path):
        log = DeltaLog(str(tmp_path), segment_records=2, fsync=False)
        for i in range(6):
            log.append(i + 1, f"record-{i}")
        log.close()
        # Reopen with a different configured size: replay must skip by
        # the on-disk segment names, not the configured size.
        reopened = DeltaLog(str(tmp_path), segment_records=100, fsync=False)
        assert [r.offset for r in reopened.replay(after=3)] == [4, 5]


class TestStreamCheckpoint:
    def test_round_trip(self, tmp_path):
        checkpoint = StreamCheckpoint(str(tmp_path))
        assert not checkpoint.exists()
        checkpoint.save(
            fingerprint="fp", acked_offset=9, source_position=123,
            last_seq=40, batches_applied=3, state={"k": [1, 2]},
        )
        payload = checkpoint.load("fp")
        assert payload["acked_offset"] == 9
        assert payload["source_position"] == 123
        assert payload["state"] == {"k": [1, 2]}
        # ``json.dumps`` (the C encoder) writes what ``json.dump`` wrote.
        streamed = io.StringIO()
        json.dump(payload, streamed)
        with open(checkpoint.path, encoding="utf-8") as handle:
            assert handle.read() == streamed.getvalue()

    def test_fingerprint_mismatch_raises(self, tmp_path):
        checkpoint = StreamCheckpoint(str(tmp_path))
        checkpoint.save(
            fingerprint="fp", acked_offset=0, source_position=0,
            last_seq=0, batches_applied=1, state={},
        )
        with pytest.raises(StreamError):
            checkpoint.load("other-inputs")

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(StreamError):
            StreamCheckpoint(str(tmp_path)).load("fp")


# ---------------------------------------------------------------------------
# Group commit: one fsync per poll, still log before apply
# ---------------------------------------------------------------------------

class SmallPolls(GeneratorFeed):
    """A feed that hands over at most ``size`` records per poll."""

    def __init__(self, records, size):
        super().__init__(records)
        self.size = size

    def poll(self, max_records=256):
        return super().poll(min(max_records, self.size))


class Crash(Exception):
    pass


def segment_files(directory):
    return sorted(
        os.path.join(str(directory), name)
        for name in os.listdir(str(directory)) if name.endswith(".log")
    )


class TestGroupCommit:
    @pytest.fixture()
    def fsyncs(self, monkeypatch):
        """Every ``os.fsync`` the log module issues, as ``(inode, size)``
        of the file at that moment (checkpoints sync through it too)."""
        import repro.stream.log as log_module

        calls = []

        def fsync(fd):
            status = os.fstat(fd)
            calls.append((status.st_ino, status.st_size))

        monkeypatch.setattr(log_module.os, "fsync", fsync)
        return calls

    def test_a_backlog_syncs_once_per_poll_and_before_every_apply(
        self, tmp_path, fsyncs, monkeypatch
    ):
        log_dir = tmp_path / "log"
        sink = serve_sink()
        feed = fact_feed(
            [(i + 1, "assert", "e", (f"n{i}", f"n{i + 1}")) for i in range(512)]
        )
        events = []
        real_append, real_poll, real_apply = (
            DeltaLog.append, feed.poll, sink.apply
        )

        def append(self, *args, **kwargs):
            before = len(fsyncs)
            entry = real_append(self, *args, **kwargs)
            events.append(("append", len(fsyncs) - before))
            return entry

        def poll(*args, **kwargs):
            raws = real_poll(*args, **kwargs)
            if raws:
                events.append(("poll", len(raws)))
            return raws

        def apply(batch, quarantine):
            events.append(("apply", 0))
            return real_apply(batch, quarantine)

        monkeypatch.setattr(DeltaLog, "append", append)
        feed.poll, sink.apply = poll, apply
        report = DeltaStream(feed, sink, str(log_dir), batch_window=64).run()
        assert report.batches_applied == 8 and report.records_seen == 512

        polls = [count for kind, count in events if kind == "poll"]
        synced = [count for kind, count in events if kind == "append"]
        assert len(synced) == 512 and sum(synced) == len(polls) == 2
        # Nothing is applied while a written frame is still unsynced.
        unsynced = 0
        for kind, count in events:
            if kind == "append":
                unsynced = 0 if count else unsynced + 1
            elif kind == "apply":
                assert unsynced == 0
        # Every log sync saw the whole group in the file.
        (segment,) = segment_files(log_dir)
        inode = os.stat(segment).st_ino
        sizes = [size for ino, size in fsyncs if ino == inode]
        assert len(sizes) == 2 and sizes[-1] == os.path.getsize(segment)

    def test_fsync_false_still_means_none(self, tmp_path, fsyncs):
        log = DeltaLog(str(tmp_path), segment_records=3, fsync=False)
        for i in range(8):
            log.append(i + 1, f"record-{i}", sync=i == 7)
        log.close()
        assert fsyncs == []
        assert DeltaLog(str(tmp_path), fsync=False).next_offset == 8

    def test_a_rotation_inside_a_group_syncs_the_segment_it_closes(
        self, tmp_path, fsyncs
    ):
        log = DeltaLog(str(tmp_path), segment_records=3)
        for i in range(8):  # one poll of 8: only the last append syncs
            log.append(i + 1, f"record-{i}", sync=i == 7)
        log.close()
        segments = segment_files(tmp_path)
        assert len(segments) == 3
        # In segment order, each once, each with all its frames written.
        assert fsyncs == [
            (os.stat(path).st_ino, os.path.getsize(path)) for path in segments
        ]
        reopened = DeltaLog(str(tmp_path), segment_records=3)
        assert reopened.next_offset == 8 and reopened.last_position == 8
        assert [r.offset for r in reopened.replay()] == list(range(8))

    def test_a_group_cut_in_the_middle_recovers_to_its_last_whole_frame(
        self, tmp_path
    ):
        log = DeltaLog(str(tmp_path), fsync=False)
        log.append(1, "record-0")
        for i in range(1, 6):
            log.append(i + 1, f"record-{i}", sync=i == 5)
        log.close()
        (path,) = segment_files(tmp_path)
        with open(path, "rb") as handle:
            frames = handle.read().splitlines(keepends=True)
        with open(path, "wb") as handle:  # frames 0-2 and half of frame 3
            handle.write(b"".join(frames[:3]) + frames[3][: len(frames[3]) // 2])
        recovered = DeltaLog(str(tmp_path), fsync=False)
        assert recovered.next_offset == 3 and recovered.last_position == 3
        assert [r.text for r in recovered.replay()] == [
            "record-0", "record-1", "record-2"
        ]
        recovered.append(4, "record-3b")
        assert [r.offset for r in recovered.replay()] == [0, 1, 2, 3]

    @pytest.mark.parametrize("written", [0, 1])
    def test_crash_between_the_writes_and_the_sync_resumes_bit_identical(
        self, tmp_path, monkeypatch, written
    ):
        """The second poll dies after ``written`` of its two writes and
        before its sync: none of it was applied, resume re-reads what the
        log does not hold, and every record is applied exactly once."""
        log_dir = str(tmp_path / "log")
        crashed_sink, _ = make_registry_sink()
        real_append = DeltaLog.append
        appends = []

        def append(self, position, text, **kwargs):
            if len(appends) == 4 + written:
                raise Crash("between a group's writes and its sync")
            appends.append(position)
            return real_append(self, position, text, **kwargs)

        monkeypatch.setattr(DeltaLog, "append", append)
        stream = DeltaStream(
            SmallPolls(REGISTRY_CHANGES, 4), crashed_sink, log_dir,
            batch_window=2, fsync=False, checkpoint_every=1,
        )
        with pytest.raises(Crash):
            stream.run()
        assert stream.report.batches_applied == 2  # the first poll, whole
        monkeypatch.setattr(DeltaLog, "append", real_append)

        resumed_sink, targets = make_registry_sink()
        applied = []
        real_apply = resumed_sink.apply

        def apply(batch, quarantine):
            applied.extend(key for _net, key, _payload in batch.operations)
            return real_apply(batch, quarantine)

        resumed_sink.apply = apply
        report = DeltaStream(
            SmallPolls(REGISTRY_CHANGES, 4), resumed_sink, log_dir,
            batch_window=2, fsync=False,
        ).run(resume=True)
        # The written, unsynced frame survived the crash here (a prefix
        # of what was written): replayed, not re-read.
        assert report.replayed_records == written
        assert report.records_seen == 2 - written
        assert len(applied) == len(set(applied)) == 2
        assert backend_states(*targets) == reference_states()


# ---------------------------------------------------------------------------
# Coalescing
# ---------------------------------------------------------------------------


def fact_record(seq, op, value, predicate="p"):
    return parse_record(json.dumps(
        {"seq": seq, "op": op, "predicate": predicate, "fact": [value]}
    ))


def registry_record(seq, op, **payload):
    return parse_record(json.dumps({"seq": seq, "op": op, **payload}))


class TestCoalescer:
    def drain(self, records, exists=lambda key: False, strict=True):
        coalescer = DeltaCoalescer(exists, strict=strict)
        for record in records:
            coalescer.push(record)
        return coalescer.drain()

    def test_add_then_remove_cancels(self):
        batch = self.drain([
            fact_record(1, "assert", "a"),
            fact_record(2, "retract", "a"),
        ])
        assert batch.operations == []
        assert batch.stats.cancelled == 2
        assert batch.empty

    def test_remove_then_add_becomes_replace(self):
        batch = self.drain(
            [fact_record(1, "retract", "a"), fact_record(2, "assert", "a")],
            exists=lambda key: True,
        )
        [(net, _key, _payload)] = batch.operations
        assert net == "replace"

    def test_duplicate_add_rejected_in_strict_mode(self):
        batch = self.drain([
            fact_record(1, "assert", "a"),
            fact_record(2, "assert", "a"),
        ])
        assert len(batch.operations) == 1
        assert len(batch.rejections) == 1
        assert "duplicate" in batch.rejections[0][1]

    def test_duplicate_add_tolerated_in_fact_mode(self):
        batch = self.drain(
            [fact_record(1, "assert", "a"), fact_record(2, "assert", "a")],
            strict=False,
        )
        assert len(batch.operations) == 1
        assert batch.rejections == []
        assert batch.stats.duplicates == 1

    def test_remove_of_nonexistent_rejected(self):
        batch = self.drain([fact_record(1, "retract", "ghost")])
        assert batch.operations == []
        assert "does not exist" in batch.rejections[0][1]

    def test_node_removal_cancels_pending_incident_edge(self):
        batch = self.drain([
            registry_record(1, "add_node", id="n1", type="T", properties={}),
            registry_record(
                2, "add_edge", id="e1", source="n1", target="n2",
                type="R", properties={},
            ),
            registry_record(3, "remove_node", id="n1"),
        ])
        # All three net out: the node add cancels, and the pending edge
        # referencing the now-absent node cancels with it.
        assert batch.operations == []

    def test_base_node_removal_cancels_pending_incident_edge(self):
        exists = lambda key: key == ("node", "n1")  # noqa: E731
        batch = self.drain([
            registry_record(
                1, "add_edge", id="e1", source="n1", target="n2",
                type="R", properties={},
            ),
            registry_record(2, "remove_node", id="n1"),
        ], exists=exists)
        assert batch.operations == [("remove", ("node", "n1"), None)]

    def test_coalesce_ratio(self):
        batch = self.drain([
            fact_record(1, "assert", "a"),
            fact_record(2, "retract", "a"),
            fact_record(3, "assert", "b"),
        ])
        assert batch.stats.records == 3
        assert batch.stats.operations == 1
        assert batch.stats.ratio == pytest.approx(1 / 3)


# ---------------------------------------------------------------------------
# Pipeline over the serve sink (fact mode)
# ---------------------------------------------------------------------------


def fact_feed(entries):
    return GeneratorFeed([
        {"seq": seq, "op": op, "predicate": pred, "fact": list(fact)}
        for seq, op, pred, fact in entries
    ])


def serve_sink():
    return ServeStateSink(program=TC_PROGRAM, inputs={"e": [("a", "b")]})


class TestServeStreaming:
    def test_exists_probes_the_current_epochs_edb(self):
        sink = ServeStateSink(
            program=TC_PROGRAM, inputs={"e": [("a", "b"), (1, "one")]}
        )
        sink.bootstrap()
        assert sink.exists(("fact", "e", ("a", "b")))
        assert sink.exists(("fact", "e", ["a", "b"]))
        assert not sink.exists(("fact", "e", ("b", "a")))
        assert not sink.exists(("fact", "e", ("a", "never-seen")))
        assert not sink.exists(("fact", "nope", ("a", "b")))
        assert not sink.exists(("fact", "tc", ("a", "b")))  # derived
        # ``==``-level membership, as the set of tuples it replaces.
        assert sink.exists(("fact", "e", (1.0, "one")))
        assert sink.exists(("fact", "e", (True, "one")))
        sink.state.apply_delta(
            added={"e": [("b", "c")]}, removed={"e": [("a", "b")]}
        )
        assert sink.exists(("fact", "e", ("b", "c")))
        assert not sink.exists(("fact", "e", ("a", "b")))

    def test_epoch_advances_once_per_batch(self, tmp_path):
        sink = serve_sink()
        feed = fact_feed([
            (1, "assert", "e", ("b", "c")),
            (2, "assert", "e", ("c", "d")),
            (3, "assert", "e", ("d", "x")),
            (4, "assert", "e", ("x", "y")),
        ])
        report = DeltaStream(
            feed, sink, str(tmp_path / "log"), batch_window=2, fsync=False,
        ).run()
        assert report.batches_applied == 2
        assert sink.state.snapshot.epoch == 2
        assert ("a", "y") in sink.state.snapshot.facts["tc"]

    def test_cancelled_window_skips_the_engine(self, tmp_path):
        sink = serve_sink()
        feed = fact_feed([
            (1, "assert", "e", ("d", "x")),
            (2, "retract", "e", ("d", "x")),
        ])
        report = DeltaStream(
            feed, sink, str(tmp_path / "log"), batch_window=2, fsync=False,
        ).run()
        assert report.batches_applied == 1
        assert report.records_cancelled == 2
        assert sink.state.snapshot.epoch == 0  # nothing reached the engine
        assert ("d", "x") not in sink.state.snapshot.facts["e"]

    def test_seq_duplicates_are_dropped(self, tmp_path):
        sink = serve_sink()
        feed = fact_feed([
            (1, "assert", "e", ("b", "c")),
            (1, "assert", "e", ("b", "c")),
            (2, "assert", "e", ("c", "d")),
        ])
        report = DeltaStream(
            feed, sink, str(tmp_path / "log"), batch_window=10, fsync=False,
        ).run()
        assert report.duplicates_skipped == 1
        assert report.records_seen == 3

    def test_seqless_records_are_not_deduplicated(self, tmp_path):
        sink = serve_sink()
        feed = GeneratorFeed([
            {"op": "assert", "predicate": "e", "fact": ["b", "c"]},
            {"op": "assert", "predicate": "e", "fact": ["c", "d"]},
        ])
        report = DeltaStream(
            feed, sink, str(tmp_path / "log"), batch_window=10, fsync=False,
        ).run()
        assert report.duplicates_skipped == 0
        assert sink.state.snapshot.count("e") == 3

    def test_validation_quarantines_bad_facts(self, tmp_path):
        quarantine = QuarantineReport()
        sink = serve_sink()
        feed = fact_feed([
            (1, "assert", "tc", ("a", "b")),      # derived predicate
            (2, "assert", "e", ("a", "b", "c")),  # arity mismatch
            (3, "assert", "e", ("b", "c")),       # fine
        ])
        report = DeltaStream(
            feed, sink, str(tmp_path / "log"), batch_window=10, fsync=False,
            quarantine=quarantine,
        ).run()
        assert report.records_quarantined == 2
        reasons = [r.reason for r in quarantine.rejections]
        assert any("derived" in reason for reason in reasons)
        assert any("arity mismatch" in reason for reason in reasons)
        assert ("b", "c") in sink.state.snapshot.facts["e"]

    def test_malformed_feed_lines_are_quarantined(self, tmp_path):
        path = str(tmp_path / "feed.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("this is garbage\n")
            handle.write(
                '{"seq": 1, "op": "assert", "predicate": "e",'
                ' "fact": ["b", "c"]}\n'
            )
        sink = serve_sink()
        quarantine = QuarantineReport()
        report = DeltaStream(
            JsonlFeed(path), sink, str(tmp_path / "log"), fsync=False,
            quarantine=quarantine,
        ).run()
        assert report.records_quarantined == 1
        assert quarantine.rejections[0].kind == "feed"
        assert report.batches_applied == 1

    def test_crash_resume_matches_uninterrupted_run(self, tmp_path):
        entries = [
            (i, "assert", "e", (f"n{i}", f"n{i+1}")) for i in range(12)
        ]
        log_dir = str(tmp_path / "log")

        crashed = serve_sink()
        DeltaStream(
            fact_feed(entries), crashed, log_dir, batch_window=3,
            fsync=False, checkpoint_every=1, max_batches=2,
        ).run()
        resumed_sink = serve_sink()
        report = DeltaStream(
            fact_feed(entries), resumed_sink, log_dir, batch_window=3,
            fsync=False,
        ).run(resume=True)
        assert report.replayed_records > 0

        straight_sink = serve_sink()
        DeltaStream(
            fact_feed(entries), straight_sink, str(tmp_path / "log2"),
            batch_window=3, fsync=False,
        ).run()

        resumed = resumed_sink.state.snapshot
        straight = straight_sink.state.snapshot
        assert set(resumed.facts) == set(straight.facts)
        for predicate in straight.facts:
            assert resumed.facts[predicate] == straight.facts[predicate]

    def test_crash_before_first_checkpoint_interval_still_resumes(
        self, tmp_path
    ):
        """The pristine bootstrap checkpoint covers a crash in batch 1."""
        log_dir = str(tmp_path / "log")
        entries = [
            (1, "assert", "e", ("b", "c")),
            (2, "assert", "e", ("c", "d")),
        ]
        sink = serve_sink()
        stream = DeltaStream(
            fact_feed(entries), sink, log_dir, batch_window=2, fsync=False,
            checkpoint_every=100,
        )
        original = sink.apply

        def crashing(batch, quarantine):
            raise RuntimeError("killed mid-batch")

        sink.apply = crashing
        with pytest.raises(RuntimeError):
            stream.run()

        resumed_sink = serve_sink()
        report = DeltaStream(
            fact_feed(entries), resumed_sink, log_dir, fsync=False,
        ).run(resume=True)
        assert report.replayed_records == 2
        assert ("a", "d") in resumed_sink.state.snapshot.facts["tc"]

    def test_fresh_run_on_dirty_log_dir_refuses(self, tmp_path):
        log_dir = str(tmp_path / "log")
        DeltaStream(
            fact_feed([(1, "assert", "e", ("b", "c"))]), serve_sink(),
            log_dir, fsync=False,
        ).run()
        with pytest.raises(StreamError):
            DeltaStream(fact_feed([]), serve_sink(), log_dir, fsync=False).run()

    def test_checkpoint_refuses_a_different_program(self, tmp_path):
        log_dir = str(tmp_path / "log")
        DeltaStream(
            fact_feed([(1, "assert", "e", ("b", "c"))]), serve_sink(),
            log_dir, fsync=False,
        ).run()
        other = ServeStateSink(program="p(X) -> q(X).", inputs={})
        with pytest.raises(StreamError):
            DeltaStream(fact_feed([]), other, log_dir, fsync=False).run(
                resume=True
            )

    def test_live_state_restore_reconciles_in_place(self, tmp_path):
        from repro.serve.state import ServeState

        log_dir = str(tmp_path / "log")
        entries = [
            (1, "assert", "e", ("b", "c")),
            (2, "assert", "e", ("c", "d")),
        ]
        DeltaStream(
            fact_feed(entries), serve_sink(), log_dir, fsync=False,
        ).run()

        # A restarted server already handed its live ServeState to the
        # HTTP handlers; restore must reconcile it, not replace it.
        live = ServeState(TC_PROGRAM, inputs={"e": [("a", "b")]})
        sink = ServeStateSink(state=live)
        DeltaStream(fact_feed(entries), sink, log_dir, fsync=False).run(
            resume=True
        )
        assert sink.state is live
        assert ("a", "d") in live.snapshot.facts["tc"]

    def test_feed_faults_converge_with_exact_accounting(self, tmp_path):
        entries = [
            (i, "assert", "e", (f"n{i}", f"n{i+1}")) for i in range(30)
        ]
        faulty = FeedFaultInjector(
            fact_feed(entries), seed=5, torn_rate=0.15, duplicate_rate=0.15,
            reorder_rate=0.15,
        )
        sink = serve_sink()
        report = DeltaStream(
            faulty, sink, str(tmp_path / "log"), batch_window=4, fsync=False,
        ).run()
        assert faulty.torn > 0 and faulty.duplicated > 0 and faulty.reordered > 0
        # Every injected fault is accounted for: torn records (and their
        # duplicates) quarantine, surviving duplicates dedup by seq,
        # reordered records apply normally.
        assert (
            report.records_quarantined + report.duplicates_skipped
            == faulty.torn + faulty.duplicated
        )
        assert report.records_quarantined >= faulty.torn
        # A fact survives iff its record was not torn at delivery.
        assert sink.state.snapshot.count("e") == 31 - faulty.torn


class TestBackpressure:
    def make_clock(self):
        state = {"now": 0.0}
        return state, (lambda: state["now"])

    def slow_sink(self, state, cost):
        sink = serve_sink()
        original = sink.apply

        def apply(batch, quarantine):
            state["now"] += cost
            return original(batch, quarantine)

        sink.apply = apply
        return sink

    def test_graceful_governor_widens_the_window(self, tmp_path):
        state, clock = self.make_clock()
        sink = self.slow_sink(state, cost=5.0)
        governor = ResourceGovernor(
            budget_seconds=1.0, graceful=True, clock=clock,
        )
        entries = [(i, "assert", "e", (f"a{i}", f"b{i}")) for i in range(16)]
        report = DeltaStream(
            fact_feed(entries), sink, str(tmp_path / "log"), governor=governor,
            batch_window=2, max_window=8, fsync=False, clock=clock,
        ).run()
        assert report.backpressure_widenings > 0
        assert report.window > 2
        assert sink.state.snapshot.count("e") == 17  # nothing lost

    def test_strict_governor_raises(self, tmp_path):
        state, clock = self.make_clock()
        sink = self.slow_sink(state, cost=5.0)
        governor = ResourceGovernor(
            budget_seconds=1.0, graceful=False, clock=clock,
        )
        entries = [(i, "assert", "e", (f"a{i}", f"b{i}")) for i in range(4)]
        with pytest.raises(ResourceLimitError):
            DeltaStream(
                fact_feed(entries), sink, str(tmp_path / "log"),
                governor=governor, batch_window=2, fsync=False, clock=clock,
            ).run()

    def test_fast_batches_decay_the_window_back(self, tmp_path):
        state, clock = self.make_clock()
        sink = self.slow_sink(state, cost=0.0)
        entries = [(i, "assert", "e", (f"a{i}", f"b{i}")) for i in range(8)]
        stream = DeltaStream(
            fact_feed(entries), sink, str(tmp_path / "log"),
            governor=ResourceGovernor(
                budget_seconds=100.0, graceful=True, clock=clock,
            ),
            batch_window=2, fsync=False, clock=clock,
        )
        stream._window = 8.0  # as if pressure had widened it earlier
        report = stream.run()
        assert report.window < 8

    def test_staleness_and_metrics_recorded(self, tmp_path):
        tracer = RecordingTracer()
        sink = serve_sink()
        entries = [(i, "assert", "e", (f"a{i}", f"b{i}")) for i in range(6)]
        report = DeltaStream(
            fact_feed(entries), sink, str(tmp_path / "log"), batch_window=2,
            fsync=False, tracer=tracer,
        ).run()
        assert len(report.staleness_samples) == 6
        assert report.staleness_p99() >= report.staleness_p50() >= 0.0
        flat = json.dumps(tracer.metrics.snapshot())
        for metric in (
            "stream.staleness_seconds", "stream.apply_seconds",
            "stream.coalesce_ratio", "stream.batch_records",
        ):
            assert metric in flat
        summary = report.to_json()
        assert summary["batches_applied"] == 3
        assert summary["staleness_samples"] == 6


# ---------------------------------------------------------------------------
# Registry sink: the full SSST path with deployed targets
# ---------------------------------------------------------------------------


def company_registry(n=5):
    graph = PropertyGraph("registry")
    for i in range(n):
        graph.add_node(
            f"p{i}", "PhysicalPerson",
            fiscalCode=f"FC-P{i}", name=f"N{i}", gender="female",
        )
        graph.add_node(
            f"c{i}", "Business",
            fiscalCode=f"FC-C{i}", businessName=f"C{i} SpA",
            legalNature="spa", shareholdingCapital=1000.0,
        )
    k = 0
    for i in range(n):
        graph.add_edge(
            f"p{i}", f"c{i}", "OWNS", edge_id=f"stake-{k}", percentage=0.6,
        )
        k += 1
        graph.add_edge(
            f"p{i}", f"c{(i + 1) % n}", "OWNS",
            edge_id=f"stake-{k}", percentage=0.4,
        )
        k += 1
    return graph


REGISTRY_CHANGES = [
    {"seq": 1, "op": "add_node", "id": "p-new", "type": "PhysicalPerson",
     "properties": {"fiscalCode": "FC-NEW", "name": "N", "gender": "male"}},
    {"seq": 2, "op": "add_edge", "id": "stake-new", "source": "p-new",
     "target": "c1", "type": "OWNS", "properties": {"percentage": 0.8}},
    {"seq": 3, "op": "remove_edge", "id": "stake-0"},
    {"seq": 4, "op": "remove_node", "id": "c2"},
    {"seq": 5, "op": "add_node", "id": "p9", "type": "PhysicalPerson",
     "properties": {"fiscalCode": "FC-P9X", "name": "Z", "gender": "female"}},
    {"seq": 6, "op": "add_edge", "id": "stake-z", "source": "p9",
     "target": "c3", "type": "OWNS", "properties": {"percentage": 0.55}},
]


def final_registry():
    graph = company_registry()
    graph.add_node(
        "p-new", "PhysicalPerson",
        fiscalCode="FC-NEW", name="N", gender="male",
    )
    graph.add_edge("p-new", "c1", "OWNS", edge_id="stake-new", percentage=0.8)
    graph.remove_edge("stake-0")
    for edge in list(graph.edges()):
        if edge.source == "c2" or edge.target == "c2":
            graph.remove_edge(edge.id)
    graph.remove_node("c2")
    graph.add_node(
        "p9", "PhysicalPerson",
        fiscalCode="FC-P9X", name="Z", gender="female",
    )
    graph.add_edge("p9", "c3", "OWNS", edge_id="stake-z", percentage=0.55)
    return graph


def make_targets():
    graph_store = GraphStore()
    graph_store.deploy(
        SSST().translate(company_super_schema(), "property-graph").target_schema
    )
    triple_store = TripleStore()
    triple_store.deploy(
        SSST().translate(company_super_schema(), "rdf").target_schema
    )
    engine = RelationalEngine()
    engine.deploy(
        SSST().translate(company_super_schema(), "relational").target_schema
    )
    return graph_store, triple_store, engine


def make_registry_sink():
    sink = MaterializerSink(
        company_super_schema(),
        parse_metalog(programs.CONTROL_PROGRAM),
        company_registry(),
        instance_oid=9,
        materializer=diff_is_the_oracle(IntensionalMaterializer()),
        retry=RetryPolicy(max_attempts=4, sleep=lambda _s: None),
    )
    targets = make_targets()
    sink.attach_graph_store(targets[0])
    sink.attach_triple_store(targets[1])
    sink.attach_relational_engine(targets[2])
    return sink, targets


def backend_states(graph_store, triple_store, engine):
    rows = {
        table: sorted(
            map(repr, (tuple(sorted(r.items())) for r in engine.rows(table)))
        )
        for table in engine.tables()
    }
    return (
        graph_store_state(graph_store),
        frozenset(triple_store.triples()),
        rows,
    )


def reference_states():
    """A clean batch run over the final registry, fully loaded."""
    report = IntensionalMaterializer().materialize(
        company_super_schema(), final_registry(),
        parse_metalog(programs.CONTROL_PROGRAM), instance_oid=9, retain=True,
    )
    graph_store, triple_store, engine = make_targets()
    load_graph_store(company_super_schema(), report.instance.data, graph_store)
    load_triple_store(
        company_super_schema(), report.instance.data, triple_store
    )
    graph_instance_to_relational(
        company_super_schema(), report.instance.data, engine
    )
    return backend_states(graph_store, triple_store, engine)


class TestRegistryStreaming:
    def test_straight_run_matches_batch_on_all_backends(self, tmp_path):
        sink, targets = make_registry_sink()
        DeltaStream(
            GeneratorFeed(REGISTRY_CHANGES), sink, str(tmp_path / "log"),
            batch_window=2, fsync=False,
        ).run()
        assert backend_states(*targets) == reference_states()

    def test_crash_resume_is_bit_identical_on_all_backends(self, tmp_path):
        log_dir = str(tmp_path / "log")
        crashed_sink, _ = make_registry_sink()
        DeltaStream(
            GeneratorFeed(REGISTRY_CHANGES), crashed_sink, log_dir,
            batch_window=2, fsync=False, checkpoint_every=1, max_batches=1,
        ).run()

        resumed_sink, targets = make_registry_sink()
        report = DeltaStream(
            GeneratorFeed(REGISTRY_CHANGES), resumed_sink, log_dir,
            batch_window=2, fsync=False,
        ).run(resume=True)
        assert report.replayed_records > 0
        assert backend_states(*targets) == reference_states()

    def test_crash_fault_mid_stream_then_resume(self, tmp_path):
        """A store-level CrashFault kills the run mid-batch; resuming
        from the durable log reaches the exact reference state."""
        log_dir = str(tmp_path / "log")
        sink = MaterializerSink(
            company_super_schema(),
            parse_metalog(programs.CONTROL_PROGRAM),
            company_registry(),
            instance_oid=9,
            materializer=diff_is_the_oracle(IntensionalMaterializer()),
        )
        store = GraphStore()
        store.deploy(
            SSST().translate(
                company_super_schema(), "property-graph"
            ).target_schema
        )
        injector = FaultInjector(store, seed=1)
        sink.attach_graph_store(injector)
        stream = DeltaStream(
            GeneratorFeed(REGISTRY_CHANGES), sink, log_dir,
            batch_window=2, fsync=False, checkpoint_every=1,
        )
        # Arm after bootstrap: the next target mutation is the first
        # batch's flush, which crashes it mid-apply.
        original = sink.apply

        def crashing_apply(batch, quarantine):
            injector.crash_after = injector.mutations_applied
            return original(batch, quarantine)

        sink.apply = crashing_apply
        with pytest.raises(CrashFault):
            stream.run()

        resumed_sink, targets = make_registry_sink()
        DeltaStream(
            GeneratorFeed(REGISTRY_CHANGES), resumed_sink, log_dir,
            batch_window=2, fsync=False,
        ).run(resume=True)
        assert backend_states(*targets) == reference_states()

    def test_transient_store_faults_are_retried_through(self, tmp_path):
        sink = MaterializerSink(
            company_super_schema(),
            parse_metalog(programs.CONTROL_PROGRAM),
            company_registry(),
            instance_oid=9,
            materializer=diff_is_the_oracle(IntensionalMaterializer()),
            retry=RetryPolicy(max_attempts=8, seed=3, sleep=lambda _s: None),
        )
        store = GraphStore()
        store.deploy(
            SSST().translate(
                company_super_schema(), "property-graph"
            ).target_schema
        )
        injector = FaultInjector(store, seed=3)
        sink.attach_graph_store(injector)
        # Start injecting only after bootstrap (a retried full load is
        # not idempotent; per-batch flushes are all-or-nothing).
        original = sink.apply

        def arming_apply(batch, quarantine):
            injector.fault_rate = 0.5
            return original(batch, quarantine)

        sink.apply = arming_apply
        DeltaStream(
            GeneratorFeed(REGISTRY_CHANGES), sink, str(tmp_path / "log"),
            batch_window=2, fsync=False,
        ).run()
        assert injector.faults_injected > 0
        reference_graph = reference_states()[0]
        assert graph_store_state(store) == reference_graph

    def test_rejected_batch_is_quarantined_whole_and_acked(self, tmp_path):
        sink, _targets = make_registry_sink()
        original = sink.apply
        state = {"failed": False}

        def flaky(batch, quarantine):
            if not state["failed"]:
                state["failed"] = True
                raise SchemaError("registry diverged")
            return original(batch, quarantine)

        sink.apply = flaky
        quarantine = QuarantineReport()
        report = DeltaStream(
            GeneratorFeed(REGISTRY_CHANGES), sink, str(tmp_path / "log"),
            batch_window=2, fsync=False, quarantine=quarantine,
        ).run()
        # The stream does not wedge: the bad batch quarantines whole,
        # is acknowledged, and the remaining batches apply.
        assert report.batches_applied == 3
        assert report.operations_dropped == 2
        assert any(
            "batch rejected" in r.reason for r in quarantine.rejections
        )

    def test_strict_mode_quarantines_existing_node_add(self, tmp_path):
        quarantine = QuarantineReport()
        sink, _targets = make_registry_sink()
        records = [
            {"seq": 1, "op": "add_node", "id": "p0",  # already exists
             "type": "PhysicalPerson",
             "properties": {"fiscalCode": "FC-DUP", "name": "D",
                            "gender": "male"}},
            {"seq": 2, "op": "add_node", "id": "fresh",
             "type": "PhysicalPerson",
             "properties": {"fiscalCode": "FC-F", "name": "F",
                            "gender": "male"}},
        ]
        report = DeltaStream(
            GeneratorFeed(records), sink, str(tmp_path / "log"),
            batch_window=2, fsync=False, quarantine=quarantine,
        ).run()
        assert report.records_quarantined == 1
        assert "already exists" in quarantine.rejections[0].reason
        assert sink.data.has_node("fresh")

    def test_unknown_type_quarantined_before_logging(self, tmp_path):
        quarantine = QuarantineReport()
        sink, _targets = make_registry_sink()
        records = [
            {"seq": 1, "op": "add_node", "id": "x", "type": "Spaceship",
             "properties": {}},
        ]
        report = DeltaStream(
            GeneratorFeed(records), sink, str(tmp_path / "log"),
            fsync=False, quarantine=quarantine,
        ).run()
        assert report.records_quarantined == 1
        assert "unknown node type" in quarantine.rejections[0].reason
        assert report.batches_applied == 0

    def test_edge_replace_in_one_window(self, tmp_path):
        sink, _targets = make_registry_sink()
        records = [
            {"seq": 1, "op": "remove_edge", "id": "stake-0"},
            {"seq": 2, "op": "add_edge", "id": "stake-0", "source": "p0",
             "target": "c0", "type": "OWNS",
             "properties": {"percentage": 0.9}},
        ]
        report = DeltaStream(
            GeneratorFeed(records), sink, str(tmp_path / "log"),
            batch_window=2, fsync=False,
        ).run()
        assert report.records_quarantined == 0
        assert sink.data.edge("stake-0").get("percentage") == 0.9
