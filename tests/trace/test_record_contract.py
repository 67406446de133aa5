"""Contracts of the tracer's record path and of :class:`TraceEvent`.

The record path is tuned for speed (a cached counter key and histogram
per span kind, a fast path for flat args, a compact event record).
These tests pin what callers may rely on regardless of how an event is
stored: events are immutable values, a cleared tracer feeds its fresh
registry, the ring buffer bounds memory and counts drops, args are
coerced when recorded, and the compact exporter writes exactly what
``json.dumps(..., sort_keys=True)`` would.
"""

import json

import pytest

from repro.trace import (MetricsRegistry, TraceEvent, Tracer, chrome_trace,
                         dumps_chrome_trace)

FIELDS = dict(phase="X", category="hw", name="VMGEXIT", ts=100, dur=250,
              vcpu=1, vmpl=3, pid=7, seq=4, args=(("op", "io"),))

#: A different value for every field, to show each one takes part in
#: equality.
OTHER = dict(phase="i", category="hv", name="NPF", ts=101, dur=0,
             vcpu=0, vmpl=0, pid=-1, seq=5, args=())


class FakeLedger:
    def __init__(self):
        self.total = 0


class TestTraceEvent:
    def test_fields_are_read_only(self):
        event = TraceEvent(**FIELDS)
        for field, value in OTHER.items():
            with pytest.raises(AttributeError):
                setattr(event, field, value)
        with pytest.raises(AttributeError):
            event.extra = 1
        assert event == TraceEvent(**FIELDS)

    def test_equality_and_hash_follow_the_fields(self):
        event = TraceEvent(**FIELDS)
        twin = TraceEvent(**FIELDS)
        assert event == twin and not event != twin
        assert hash(event) == hash(twin)
        assert len({event, twin}) == 1
        for field, value in OTHER.items():
            changed = TraceEvent(**{**FIELDS, field: value})
            assert changed != event, field
            assert not changed == event, field

    def test_fields_end_and_args_dict(self):
        event = TraceEvent(**FIELDS)
        for field, value in FIELDS.items():
            assert getattr(event, field) == value
        assert event.end == 350
        assert event.args_dict() == {"op": "io"}
        assert event.args_dict() is not event.args_dict()

    def test_record_has_no_instance_dict(self):
        event = TraceEvent(**FIELDS)
        assert not hasattr(event, "__dict__")

    def test_args_default_to_empty(self):
        fields = {k: v for k, v in FIELDS.items() if k != "args"}
        event = TraceEvent(**fields)
        assert event.args == ()
        assert event.args_dict() == {}


def _span(tracer, ledger, category, name, cycles, **kwargs):
    with tracer.span(category, name, **kwargs):
        ledger.total += cycles


class TestRegistryCache:
    def test_span_after_clear_feeds_the_fresh_registry(self):
        ledger = FakeLedger()
        tracer = Tracer()
        tracer.attach_ledger(ledger)
        _span(tracer, ledger, "syscall", "open", 100)
        tracer.instant("audit", "append")
        old = tracer.metrics
        tracer.clear()
        assert tracer.metrics is not old
        _span(tracer, ledger, "syscall", "open", 300)
        tracer.instant("audit", "append")

        fresh = tracer.metrics
        assert fresh.counter("span", "syscall:open") == 1
        assert fresh.counter("event", "audit:append") == 1
        hist = fresh.histogram("cycles", "syscall:open")
        assert (hist.count, hist.total, hist.min, hist.max) == \
            (1, 300, 300, 300)
        # The old registry saw only the spans before the clear.
        assert old.counter("span", "syscall:open") == 1
        assert old.histogram("cycles", "syscall:open").total == 100

    def test_a_new_registry_starts_empty_and_is_fed(self):
        ledger = FakeLedger()
        tracer = Tracer()
        tracer.attach_ledger(ledger)
        _span(tracer, ledger, "hv", "VMGEXIT", 40)
        old = tracer.metrics
        tracer.metrics = MetricsRegistry()
        _span(tracer, ledger, "hv", "VMGEXIT", 60)
        assert tracer.metrics.counter("span", "hv:VMGEXIT") == 1
        assert tracer.metrics.histogram("cycles", "hv:VMGEXIT").total == 60
        assert old.histogram("cycles", "hv:VMGEXIT").total == 40

    def test_span_shares_a_histogram_observed_directly(self):
        ledger = FakeLedger()
        tracer = Tracer()
        tracer.attach_ledger(ledger)
        tracer.metrics.observe("cycles", "core:switch", 5)
        _span(tracer, ledger, "core", "switch", 7)
        hist = tracer.metrics.histogram("cycles", "core:switch")
        assert (hist.count, hist.total) == (2, 12)

    def test_same_name_in_two_phases_keeps_separate_counters(self):
        ledger = FakeLedger()
        tracer = Tracer()
        tracer.attach_ledger(ledger)
        _span(tracer, ledger, "kernel", "audit", 9)
        tracer.instant("kernel", "audit")
        tracer.instant("kernel", "audit")
        assert tracer.metrics.counter("span", "kernel:audit") == 1
        assert tracer.metrics.counter("event", "kernel:audit") == 2
        assert tracer.metrics.histogram("cycles", "kernel:audit").count == 1


class TestClock:
    def test_a_fleet_clock_is_read_live_and_never_steps_back(self):
        from repro.cluster.fleet import FleetClock

        old, peer, fresh = FakeLedger(), FakeLedger(), FakeLedger()
        clock = FleetClock([old, peer])
        tracer = Tracer()
        tracer.attach_ledger(clock)
        old.total, peer.total = 100, 20
        assert tracer.now() == 120
        with tracer.span("cluster", "reboot"):
            clock.replace(old, fresh)       # the sum drops to 20
            peer.total = 50                 # ... and climbs to 50
        (event,) = tracer.events
        assert (event.ts, event.dur) == (120, 0)
        fresh.total = 200
        assert tracer.now() == 250


class TestCapacity:
    def test_ring_drops_oldest_and_metrics_stay_lossless(self):
        ledger = FakeLedger()
        tracer = Tracer(capacity=3)
        tracer.attach_ledger(ledger)
        for i in range(5):
            _span(tracer, ledger, "hw", "op", 10 + i)
        tracer.instant("hw", "npf")
        tracer.instant("hw", "npf")
        assert len(tracer.events) == 3
        assert tracer.recorded == 7
        assert tracer.dropped == 4
        assert [e.seq for e in tracer.events] == [5, 6, 7]
        assert [e.phase for e in tracer.events] == ["X", "i", "i"]
        assert tracer.metrics.counter("span", "hw:op") == 5
        assert tracer.metrics.counter("event", "hw:npf") == 2
        assert tracer.metrics.histogram("cycles", "hw:op").total == 60
        other = json.loads(dumps_chrome_trace(tracer))["otherData"]
        assert (other["dropped_events"], other["recorded_events"]) == (4, 7)


class TestArgsAtRecordTime:
    def test_non_json_arg_is_coerced_when_recorded(self):
        calls = []

        class Opaque:
            def __repr__(self):
                calls.append(1)
                return "<opaque>"

        tracer = Tracer()
        tracer.instant("hw", "weird", args={"obj": Opaque(), 3: b"\x01"})
        assert len(calls) == 1            # coerced at the span, not later
        (event,) = tracer.events
        assert event.args == (("3", "01"), ("obj", "<opaque>"))
        dumps_chrome_trace(tracer)
        assert len(calls) == 1

    def test_flat_args_freeze_to_the_sorted_items(self):
        args = {"z": 1, "a": "s", "m": True, "f": 1.5, "n": None}
        tracer = Tracer()
        tracer.instant("hw", "flat", args=args)
        (event,) = tracer.events
        assert event.args == tuple(sorted(args.items()))

    def test_subclass_values_still_go_through_coercion(self):
        import enum

        class Level(enum.IntEnum):
            LOW = 1

        tracer = Tracer()
        tracer.instant("hw", "enum", args={"level": Level.LOW,
                                           "tag": "x"})
        (event,) = tracer.events
        assert event.args_dict() == {"level": 1, "tag": "x"}
        assert '"level":1' in dumps_chrome_trace(tracer)

    def test_str_subclass_keys_are_converted_with_str(self):
        class Key(str):
            def __str__(self):
                return "renamed"

        tracer = Tracer()
        tracer.instant("hw", "key", args={Key("orig"): 1})
        (event,) = tracer.events
        assert event.args == (("renamed", 1),)
        assert type(event.args[0][0]) is str


class TestCompactExport:
    def test_export_equals_sorted_json_of_the_trace_object(self):
        ledger = FakeLedger()
        tracer = Tracer()
        tracer.attach_ledger(ledger)
        nested = {"zeta": {"b": 1, "a": [{"y": 2, "x": 1}]}, "alpha": 0}
        _span(tracer, ledger, "hw", "nested", 3, vcpu=0, vmpl=3, pid=4,
              args=nested)
        _span(tracer, ledger, "hw", "above", 3, pid=5,
              args={"queue": 1, "a": 2})
        _span(tracer, ledger, "hw", "below", 3, pid=6,
              args={"op": "x", "name": "y"})
        tracer.instant("hw", "own-pid", pid=8, args={"pid": 1, "z": 2})
        tracer.instant("hw", "bare", vcpu=1)
        tracer.instant("hw", "float", args={"ratio": 0.1, "big": 10**20})
        expected = json.dumps(chrome_trace(tracer), sort_keys=True,
                              separators=(",", ":"))
        assert dumps_chrome_trace(tracer) == expected


class TestJsonChunks:
    def test_chunks_join_to_sorted_json_across_batches(self, monkeypatch):
        from repro.trace import export

        monkeypatch.setattr(export, "EXPORT_BATCH", 2)
        data = {"zzz": {"b": 1, "a": [{"d": 1, "c": 2}]}, "aaa": 1}
        for count in (0, 1, 2, 3, 5):
            events = [{"a": i, "b": {"c": i}} for i in range(count)]
            text = "".join(export.json_chunks(data, iter(events)))
            assert text == json.dumps(
                {"displayTimeUnit": "ns", "otherData": data,
                 "traceEvents": events},
                sort_keys=True, separators=(",", ":"))

    def test_writers_match_dumps(self, tmp_path):
        ledger = FakeLedger()
        tracer = Tracer()
        tracer.attach_ledger(ledger)
        for i in range(7):
            _span(tracer, ledger, "hw", "op", i, vcpu=i % 2, pid=i)
        from repro.trace import write_chrome_trace

        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, path)
        assert path.read_text(encoding="utf-8") == \
            dumps_chrome_trace(tracer) + "\n"
