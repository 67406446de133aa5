"""Merged fleet exporter: one Perfetto timeline for the whole fleet.

The per-machine exporter (:func:`repro.trace.export.chrome_trace`)
already merges every CVM's spans onto the fleet clock — all machines
share one tracer.  This module layers the *cross-machine* story on top:

* ``pid 90 fleet:requests`` — one async span (``ph`` ``b``/``e``, the
  Chrome format's cross-thread span) per logical request, ``id``-ed by
  its ``trace_id``, with retry instants inline;
* ``pid 91 fleet:fabric`` — an instant per fabric hop, carrying the
  peeked trace context so a request's crossings are searchable by id;
* ``pid 92 fleet:chaos`` — fault instants: drop/corrupt/delay/dup from
  the chaotic fabric plus the crash/restart/quarantine instants lifted
  from the shared tracer, so every injected misbehavior sits inline on
  the same timeline as the requests it disturbed.

Everything inherits the determinism contract: the merged export of two
identical runs is byte-identical.
"""

from __future__ import annotations

import json
import typing

from ..trace.export import event_dicts, json_chunks, other_data, write_chunks

if typing.TYPE_CHECKING:
    from collections.abc import Iterator

    from .collector import FleetScope

#: Synthetic process ids for the fleet-level tracks (the per-machine
#: tracks use vcpu indices and 99 for unattributed; these sit above).
REQUESTS_TRACK = 90
FABRIC_TRACK = 91
CHAOS_TRACK = 92

#: Tracer instants re-emitted onto the chaos track: every ``chaos``
#: category instant, plus the front end's quarantine marker.
_LIFTED_CLUSTER_INSTANTS = ("replica_quarantined", "reattest_failed")


def _track_metadata() -> "Iterator[dict]":
    """Name the three fleet-level tracks."""
    for pid, name in ((REQUESTS_TRACK, "fleet:requests"),
                      (FABRIC_TRACK, "fleet:fabric"),
                      (CHAOS_TRACK, "fleet:chaos")):
        yield {"args": {"name": name}, "name": "process_name",
               "ph": "M", "pid": pid, "tid": 0}
        yield {"args": {"name": name}, "name": "thread_name",
               "ph": "M", "pid": pid, "tid": 0}


def _request_events(scope: "FleetScope") -> "Iterator[dict]":
    """Async begin/end pair + retry instants per request record."""
    for record in scope.records:
        trace_id = record.trace_id
        ident = str(trace_id)
        name = f"request:{record.klass}"
        yield {
            "args": {"class": record.klass, "trace_id": trace_id},
            "cat": "fleet", "id": ident, "name": name, "ph": "b",
            "pid": REQUESTS_TRACK, "tid": 0, "ts": record.arrival}
        for ts, replica, reason in record.retries:
            yield {
                "args": {"reason": reason, "trace_id": trace_id},
                "cat": "fleet", "name": f"retry:{replica}", "ph": "i",
                "pid": REQUESTS_TRACK, "s": "t", "tid": 0, "ts": ts}
        yield {
            "args": {"attempts": record.attempts,
                     "latency": record.latency,
                     "queue_wait": record.queue_wait,
                     "replica": record.replica,
                     "service_cycles": record.service_cycles,
                     "status": record.status,
                     "trace_id": trace_id},
            "cat": "fleet", "id": ident, "name": name, "ph": "e",
            "pid": REQUESTS_TRACK, "tid": 0, "ts": record.end}


def _hop_events(scope: "FleetScope") -> "Iterator[dict]":
    """One instant per fabric crossing."""
    for hop in scope.hops:
        if hop.trace_id is None:
            args = {"bytes": hop.nbytes}
        else:
            args = {"bytes": hop.nbytes, "span_id": hop.span_id,
                    "trace_id": hop.trace_id}
        yield {
            "args": args, "cat": "fleet", "name": f"{hop.src}->{hop.dst}",
            "ph": "i", "pid": FABRIC_TRACK, "s": "t", "tid": 0,
            "ts": hop.ts}


def _fault_events(scope: "FleetScope", tracer) -> "Iterator[dict]":
    """Scope-recorded faults + chaos instants lifted from the tracer."""
    for fault in scope.faults:
        if fault.detail:
            args = {"detail": fault.detail, "subject": fault.subject}
        else:
            args = {"subject": fault.subject}
        yield {
            "args": args, "cat": "fleet", "name": f"fault:{fault.kind}",
            "ph": "i", "pid": CHAOS_TRACK, "s": "t", "tid": 0,
            "ts": fault.ts}
    for event in tracer.events:
        if event.phase != "i":
            continue
        if event.category != "chaos" and not (
                event.category == "cluster" and
                event.name in _LIFTED_CLUSTER_INSTANTS):
            continue
        yield {
            "args": event.args_dict(), "cat": "fleet",
            "name": f"fault:{event.name}", "ph": "i", "pid": CHAOS_TRACK,
            "s": "t", "tid": 0, "ts": event.ts}


def scope_snapshot(scope: "FleetScope") -> dict:
    """Deterministic JSON snapshot of everything the scope collected."""
    return {
        "requests": [record.as_dict() for record in scope.records],
        "max_in_flight": scope.max_in_flight,
        "hops": len(scope.hops),
        "faults": [{"ts": f.ts, "kind": f.kind, "subject": f.subject,
                    "detail": f.detail} for f in scope.faults],
        "metrics": scope.metrics.dump(),
    }


def _merged_events(tracer, scope: "FleetScope") -> "Iterator[dict]":
    """The per-machine events, then the fleet-level tracks."""
    yield from event_dicts(tracer)
    yield from _track_metadata()
    yield from _request_events(scope)
    yield from _hop_events(scope)
    yield from _fault_events(scope, tracer)


def _merged_other_data(tracer, scope: "FleetScope") -> dict:
    """The per-machine ``otherData`` plus the scope snapshot."""
    data = other_data(tracer)
    data["scope"] = scope_snapshot(scope)
    return data


def merged_chrome_trace(tracer, scope: "FleetScope") -> dict:
    """The per-machine trace plus the fleet-level tracks, one object."""
    return {
        "displayTimeUnit": "ns",
        "otherData": _merged_other_data(tracer, scope),
        "traceEvents": list(_merged_events(tracer, scope)),
    }


def dumps_merged_trace(tracer, scope: "FleetScope") -> str:
    """Serialize deterministically (sorted keys, no whitespace)."""
    return "".join(json_chunks(_merged_other_data(tracer, scope),
                               _merged_events(tracer, scope)))


def write_merged_trace(tracer, scope: "FleetScope", path) -> None:
    """Write the merged fleet Chrome trace-event JSON to ``path``.

    The event dicts are built and written a batch at a time
    (:func:`~repro.trace.export.json_chunks`).
    """
    write_chunks(json_chunks(_merged_other_data(tracer, scope),
                             _merged_events(tracer, scope)), path)


def write_scope_json(scope: "FleetScope", path) -> None:
    """Write the scope snapshot (metrics + records) to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scope_snapshot(scope), fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_scope_summary(scope: "FleetScope") -> str:
    """Human-readable fleet telemetry report."""
    lines = ["veil-scope fleet telemetry"]
    ok = [r for r in scope.records if r.status == "ok"]
    failed = [r for r in scope.records if r.status == "failed"]
    retried = sum(len(r.retries) for r in scope.records)
    lines.append(f"  requests: {len(ok):,} served, {len(failed):,} "
                 f"failed, {retried:,} retried attempts, "
                 f"{len(scope.hops):,} fabric hops")

    latencies = scope.metrics.latencies_named("latency")
    if latencies:
        lines.append("")
        lines.append(f"  {'class':<10} {'count':>7} {'p50 cyc':>12} "
                     f"{'p95 cyc':>12} {'p99 cyc':>12} {'max cyc':>12}")
        for klass in sorted(latencies):
            hist = latencies[klass]
            pct = hist.percentiles()
            lines.append(
                f"  {klass:<10} {hist.count:>7,} {pct['p50']:>12,} "
                f"{pct['p95']:>12,} {pct['p99']:>12,} {hist.max:>12,}")

    waits = scope.metrics.latencies_named("queue_wait")
    if waits:
        lines.append("")
        lines.append(f"  {'queue wait':<10} {'count':>7} {'p50 cyc':>12} "
                     f"{'p95 cyc':>12} {'p99 cyc':>12} {'max cyc':>12}")
        for klass in sorted(waits):
            hist = waits[klass]
            pct = hist.percentiles()
            lines.append(
                f"  {klass:<10} {hist.count:>7,} {pct['p50']:>12,} "
                f"{pct['p95']:>12,} {pct['p99']:>12,} {hist.max:>12,}")

    layers = scope.metrics.counters_named("layer_cycles")
    if layers:
        total = sum(layers.values())
        lines.append("")
        lines.append(f"  {'layer (served attempts)':<24} "
                     f"{'cycles':>14} {'share':>8}")
        for category, cycles in sorted(layers.items(),
                                       key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"  {category:<24} {cycles:>14,} "
                         f"{cycles / total:>8.1%}")

    served = scope.metrics.counters_named("served_by")
    if served:
        lines.append("")
        lines.append("  served by: " + ", ".join(
            f"{name}={served[name]:,}" for name in sorted(served)))

    faults = scope.metrics.counters_named("faults")
    if faults:
        lines.append("  faults: " + ", ".join(
            f"{kind}={faults[kind]:,}" for kind in sorted(faults)))
    return "\n".join(lines)
