"""Exporters: Chrome trace-event JSON, validator, and text summary.

The JSON exporter emits the Chrome trace-event format (the "JSON Object
Format" with a top-level ``traceEvents`` array) that both Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing`` load directly.  Track
layout mirrors the simulator's attribution model: one *process* per
virtual CPU and one *thread* per VMPL, so a domain switch reads as
activity hopping between the DomUNT / DomMON / DomSER / DomENC tracks
of the same core.

Timestamps: the format's ``ts``/``dur`` unit is nominally microseconds;
we write raw virtual **cycles** (1 "us" == 1 cycle).  Durations shown in
the viewer are therefore cycle counts — exactly the quantity the paper's
evaluation reports — and remain integers, which keeps exports
byte-identical across runs.
"""

from __future__ import annotations

import json
import typing
from itertools import islice
from operator import attrgetter

from .tracer import PHASE_SPAN, Tracer

if typing.TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

#: Display names for the VMPL tracks (Veil's domain naming).
VMPL_TRACK_NAMES = {
    0: "VMPL0 DomMON",
    1: "VMPL1 DomSER",
    2: "VMPL2 DomENC",
    3: "VMPL3 DomUNT",
}

#: pid/tid used for events with no core / VMPL attribution.
UNATTRIBUTED_TRACK = 99

#: Reads an event's ``(vcpu, vmpl)`` attribution pair in C.
_vcpu_vmpl = attrgetter("vcpu", "vmpl")

#: Event dicts per encoder call.  Exports build and encode the event
#: array a batch at a time, so no export holds every event dict (or,
#: when writing a file, all of the event text) at once; a small batch
#: also stays in cache (256 wrote the flagship trace faster than 4096).
EXPORT_BATCH = 256

#: Encodes event batches.  Event dicts are built in sorted key order
#: and fresh from immutable events, so they need neither ``sort_keys``
#: nor the encoder's per-container cycle check.
_IN_ORDER = json.JSONEncoder(separators=(",", ":"), check_circular=False)

#: Encodes ``otherData``; the output is sorted by key at every level.
_SORTED = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _track(value: int) -> int:
    """Map an attribution value onto a non-negative pid/tid."""
    return UNATTRIBUTED_TRACK if value < 0 else value


def _args_with_pid(args: tuple, pid: int) -> dict:
    """An attributed event's args dict with ``pid`` folded in, in order.

    ``args`` is the event's sorted ``(key, value)`` tuple, and every
    dict inside its values was sorted when recorded, so only ``pid``
    can land out of sorted key order.
    """
    out = dict(args)
    out["pid"] = pid
    if args and args[-1][0] > "pid":
        out = dict(sorted(out.items()))
    return out


def event_dicts(tracer: Tracer) -> "Iterator[dict]":
    """The tracer's ring as Chrome trace-event dicts, track names first.

    Every dict is built in sorted key order, as :func:`json_chunks`
    requires.
    """
    tracks = {(_track(vcpu), _track(vmpl)) for vcpu, vmpl in
              set(map(_vcpu_vmpl, tracer.events))}

    # Metadata events first: name each (vcpu, VMPL) track.
    for vcpu in sorted({pid for pid, _ in tracks}):
        name = ("unattributed" if vcpu == UNATTRIBUTED_TRACK
                else f"vcpu{vcpu}")
        yield {"args": {"name": name}, "name": "process_name",
               "ph": "M", "pid": vcpu, "tid": 0}
    for vcpu, vmpl in sorted(tracks):
        name = VMPL_TRACK_NAMES.get(vmpl, "unattributed")
        yield {"args": {"name": name}, "name": "thread_name",
               "ph": "M", "pid": vcpu, "tid": vmpl}

    unattributed = UNATTRIBUTED_TRACK
    # Per event: its core is the Chrome pid, its domain the tid.
    for phase, cat, name, ts, dur, core, domain, pid, _seq, args in \
            tracer.events:
        args = dict(args) if pid < 0 else _args_with_pid(args, pid)
        if core < 0:
            core = unattributed
        if domain < 0:
            domain = unattributed
        if phase == PHASE_SPAN:
            yield {"args": args, "cat": cat, "dur": dur, "name": name,
                   "ph": phase, "pid": core, "tid": domain, "ts": ts}
        else:                                  # thread-scoped instant
            yield {"args": args, "cat": cat, "name": name, "ph": phase,
                   "pid": core, "s": "t", "tid": domain, "ts": ts}


def other_data(tracer: Tracer) -> dict:
    """The trace's ``otherData``: clock, ring counts and the metrics."""
    return {
        "clock": "virtual-cycles",
        "dropped_events": tracer.dropped,
        "metrics": tracer.metrics.dump(),
        "recorded_events": tracer.recorded,
    }


def chrome_trace(tracer: Tracer) -> dict:
    """Render the tracer's ring buffer as a Chrome trace-event object."""
    return {
        "displayTimeUnit": "ns",
        "otherData": other_data(tracer),
        "traceEvents": list(event_dicts(tracer)),
    }


def json_chunks(data: dict, events: "Iterable[dict]") -> "Iterator[str]":
    """A trace object's JSON text, in pieces.

    The pieces join to ``json.dumps({"displayTimeUnit": "ns",
    "otherData": data, "traceEvents": list(events)}, sort_keys=True,
    separators=(",", ":"))``.  ``data`` is key-sorted at every level.
    The event dicts, the bulk of the bytes, are written as built, a
    batch of :data:`EXPORT_BATCH` per encoder call: each must already
    be in sorted key order, as :func:`event_dicts` and the fleet
    exporter build them.
    """
    yield '{"displayTimeUnit":"ns","otherData":'
    yield _SORTED.encode(data)
    yield ',"traceEvents":['
    events = iter(events)
    separator = ""
    while batch := list(islice(events, EXPORT_BATCH)):
        yield separator + _IN_ORDER.encode(batch)[1:-1]
        separator = ","
    yield "]}"


def write_chunks(chunks: "Iterable[str]", path) -> None:
    """Write a trace's JSON pieces, then a newline, to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
        fh.write("\n")


def dumps_chrome_trace(tracer: Tracer) -> str:
    """Serialize deterministically (sorted keys, no whitespace)."""
    return "".join(json_chunks(other_data(tracer), event_dicts(tracer)))


def write_chrome_trace(tracer: Tracer, path) -> None:
    """Write the Chrome trace-event JSON for ``tracer`` to ``path``."""
    write_chunks(json_chunks(other_data(tracer), event_dicts(tracer)),
                 path)


def validate_chrome_trace(obj) -> list[str]:
    """Check ``obj`` against the Chrome trace-event schema.

    Returns a list of problems (empty when valid).  This is the subset
    of the format the exporter produces — object form with
    ``traceEvents``, each event carrying well-typed ``ph``/``name``/
    ``pid``/``tid``/``ts`` and a ``dur`` on complete events.
    """
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if not isinstance(phase, str) or not phase:
            problems.append(f"{where}: missing 'ph'")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing string 'name'")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: missing integer '{field}'")
        if phase == "M":
            continue                   # metadata carries no timestamp
        if not isinstance(event.get("ts"), int):
            problems.append(f"{where}: missing integer 'ts'")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, int) or dur < 0:
                problems.append(
                    f"{where}: complete event needs integer 'dur' >= 0")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: 'args' must be an object")
    return problems


def render_summary(tracer: Tracer, top: int = 10) -> str:
    """Human-readable per-operation summary (top-N by total cycles)."""
    rows = []
    for key in tracer.metrics.histograms:
        name, _, op = key.partition("/")
        if name != "cycles":
            continue
        hist = tracer.metrics.histograms[key]
        rows.append((hist.total, op, hist))
    rows.sort(key=lambda r: (-r[0], r[1]))

    lines = [
        "veil-trace summary",
        f"  events recorded: {tracer.recorded:,} "
        f"(buffered {len(tracer.events):,}, dropped {tracer.dropped:,})",
        "",
        f"  {'span':<28} {'count':>8} {'total cyc':>14} "
        f"{'mean cyc':>12} {'max cyc':>10}",
    ]
    for total, op, hist in rows[:top]:
        lines.append(f"  {op:<28} {hist.count:>8,} {total:>14,} "
                     f"{hist.mean:>12,.1f} {hist.max:>10,}")
    if len(rows) > top:
        lines.append(f"  ... and {len(rows) - top} more span kinds")

    switches = tracer.metrics.counters_named("switch")
    if switches:
        lines.append("")
        lines.append(f"  {'domain switch':<28} {'count':>8}")
        for pair in sorted(switches):
            lines.append(f"  {pair:<28} {switches[pair]:>8,}")

    # Software-TLB counters (veil-turbo), present when the machine
    # published them after the run (the CLI does this post-export so the
    # Chrome trace stays identical across VEIL_TLB modes).
    tlb = tracer.metrics.counters_named("tlb")
    if tlb:
        lines.append("")
        lines.append(f"  {'software TLB':<28} {'count':>8}")
        for name in sorted(tlb):
            lines.append(f"  {name:<28} {tlb[name]:>8,}")
        hits, misses = tlb.get("hits", 0), tlb.get("misses", 0)
        if hits + misses:
            lines.append(f"  {'(translation hit rate)':<28} "
                         f"{hits / (hits + misses):>8.1%}")
        rhits = tlb.get("rmp_hits", 0)
        rmisses = tlb.get("rmp_misses", 0)
        if rhits + rmisses:
            lines.append(f"  {'(rmp verdict hit rate)':<28} "
                         f"{rhits / (rhits + rmisses):>8.1%}")
    return "\n".join(lines)
