"""Per-layer attribution for one traced run.

A :class:`SpanRecorder` wraps the boundary functions listed in
:data:`BOUNDARIES`.  Each wrapped call records one span -- name, start,
end, parent span and the request id in effect -- into flat in-memory
arrays, and the spans are written out once the run is over.  A layer is
the ``repro`` subpackage that defines the wrapped function.

Self time is computed while the spans close: a span's self time is its
duration minus the durations of its direct child spans, and a layer's
self time is the sum over its spans.  Time spent in the standard library
or in unwrapped helpers therefore counts toward the innermost wrapped
call.  The sum of all self times equals the summed duration of the root
spans, so ``traced_s - sum(self times)`` is exactly the time no wrapped
call covered (the workload code itself).
"""

from __future__ import annotations

import importlib
import json
import math
import time
from array import array
from dataclasses import dataclass

from lens.patching import Patcher

#: Layers reported, in table order.
LAYERS = ("hw", "hv", "kernel", "core", "crypto", "enclave", "cluster",
          "surge", "scope", "trace", "chaos")

#: Chaos-plan event kinds that are injected faults (the rest record
#: restarts, failed requests and the end-of-schedule flush).
FAULT_KINDS = frozenset({"drop", "corrupt", "duplicate", "delay", "crash",
                         "spurious_exit", "byzantine_attest"})


def percentile(sorted_values: list, p: float):
    """Nearest-rank percentile of an already sorted list (0 if empty)."""
    if not sorted_values:
        return 0
    rank = max(1, math.ceil(round(p * len(sorted_values), 9)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _nbytes_arg(index: int):
    """Measure: ``len`` of positional argument ``index``."""
    return lambda args, kwargs, result: len(args[index])


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _sealed_len(args, kwargs, result) -> int:
    return len(result) if isinstance(result, (bytes, bytearray)) else \
        len(args[1])


def _succeeded(args, kwargs, result) -> int:
    return 0 if result is None else 1


def _event_ran(args, kwargs, result) -> int:
    return 1 if result else 0


def _is_fault(args, kwargs, result) -> int:
    return 1 if args[1] in FAULT_KINDS else 0


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point.

    ``target`` is ``"module:Qualname"``.  ``tag`` groups boundaries into
    the per-layer counters below.  ``measure(args, kwargs, result)``
    adds to the tag's ``extra`` counter after a successful call.
    ``outer_only`` counts the call only when it is not nested directly
    in a call of the same layer (hw copies call hw copies).  ``keep``
    stores ``self`` of a wrapped ``__init__`` for end-of-run counters.
    """

    target: str
    tag: str = ""
    measure: object = None
    outer_only: bool = False
    keep: bool = False


B = Boundary
BOUNDARIES: tuple[Boundary, ...] = (
    # -- hw: guest memory accesses, exits, SNP instructions ------------
    B("repro.hw.platform:SevSnpMachine.__init__", "hw.machine", keep=True),
    B("repro.hw.vcpu:VirtualCpu.read", "hw.mem", _result_len, True),
    B("repro.hw.vcpu:VirtualCpu.fetch", "hw.mem", _result_len, True),
    B("repro.hw.vcpu:VirtualCpu.read_phys", "hw.mem", _result_len, True),
    B("repro.hw.vcpu:VirtualCpu.write", "hw.mem", _nbytes_arg(2), True),
    B("repro.hw.vcpu:VirtualCpu.write_phys", "hw.mem", _nbytes_arg(2),
      True),
    B("repro.hw.memory:PhysicalMemory.read", "hw.mem", _result_len, True),
    B("repro.hw.memory:PhysicalMemory.write", "hw.mem", _nbytes_arg(2),
      True),
    B("repro.hw.memory:PhysicalMemory.page_bytes", "hw.mem", _result_len,
      True),
    B("repro.hw.memory:PhysicalMemory.page_write", "hw.mem",
      _nbytes_arg(3), True),
    B("repro.hw.vcpu:VirtualCpu.vmgexit"),
    B("repro.hw.vcpu:VirtualCpu.automatic_exit"),
    B("repro.hw.vcpu:VirtualCpu.rmpadjust"),
    B("repro.hw.vcpu:VirtualCpu.pvalidate"),
    B("repro.hw.vcpu:VirtualCpu.wbinvd"),
    B("repro.hw.rmp:Rmp.bulk_rmpadjust"),
    B("repro.hw.rmp:Rmp.bulk_assign_validate"),
    B("repro.hw.ghcb:Ghcb.write_message"),
    B("repro.hw.ghcb:Ghcb.read_message"),
    # -- hv: VMGEXIT servicing, launch, attestation reports ------------
    B("repro.hv.hypervisor:Hypervisor.handle_vmgexit", "hv.vmgexit"),
    B("repro.hv.hypervisor:Hypervisor.handle_automatic_exit"),
    B("repro.hv.hypervisor:Hypervisor._op_domain_switch", "core.switch"),
    B("repro.hv.hypervisor:Hypervisor.launch"),
    B("repro.hv.hypervisor:Hypervisor.host_read"),
    B("repro.hv.hypervisor:Hypervisor.host_write"),
    B("repro.hv.attestation:SecureProcessor.attestation_report"),
    # -- kernel: syscalls, audit records, in-CVM sockets ---------------
    B("repro.kernel.syscalls:SyscallTable.dispatch", "kernel.syscall"),
    B("repro.kernel.audit:InMemoryAuditSink.append", "kernel.audit"),
    B("repro.kernel.net:Socket.send"),
    B("repro.kernel.net:Socket.recv"),
    B("repro.kernel.kernel:Kernel.create_process"),
    # -- core: boot, gateway round trips, IDCB, VeilS-LOG --------------
    B("repro.core.boot:boot_veil_system", "core.boot"),
    B("repro.core.boot:boot_native_system", "core.boot"),
    B("repro.core.switch:MonitorGateway.call_monitor"),
    B("repro.core.switch:MonitorGateway.call_service"),
    B("repro.core.veilmon:VeilMon.on_entry"),
    B("repro.core.veilmon:VeilMon.on_ser_entry"),
    B("repro.core.veilmon:VeilMon.ser_call_monitor"),
    B("repro.core.idcb:Idcb.write_request", "core.idcb"),
    B("repro.core.idcb:Idcb.write_reply", "core.idcb"),
    B("repro.core.idcb:Idcb.read_request"),
    B("repro.core.idcb:Idcb.read_reply"),
    B("repro.core.services.log:VeilSLog.append", "core.log"),
    B("repro.core.services.log:VeilLogSink.append", "kernel.audit"),
    # -- crypto: channel records and public-key operations -------------
    B("repro.crypto.channel:SecureChannel.send", "crypto.seal",
      _sealed_len),
    B("repro.crypto.channel:SecureChannel.receive", "crypto.seal",
      _nbytes_arg(1)),
    B("repro.crypto.rsa:RsaKeyPair.sign", "crypto.pk"),
    B("repro.crypto.rsa:RsaPublicKey.verify", "crypto.pk"),
    B("repro.crypto.rsa:generate_keypair", "crypto.pk"),
    B("repro.crypto.dh:DhKeyPair.__init__", "crypto.pk"),
    B("repro.crypto.dh:DhKeyPair.shared_key", "crypto.pk"),
    # -- enclave: ENC runtime, redirect path, sanitizer ----------------
    B("repro.enclave.runtime:EnclaveRuntime.__init__", "enclave.runtime",
      keep=True),
    B("repro.enclave.runtime:EnclaveRuntime.enter"),
    B("repro.enclave.runtime:EnclaveRuntime.exit_to_untrusted"),
    B("repro.enclave.runtime:EnclaveRuntime.syscall"),
    B("repro.enclave.runtime:EnclaveRuntime.service_request"),
    B("repro.enclave.runtime:EnclaveRuntime.enclave_read"),
    B("repro.enclave.runtime:EnclaveRuntime.enclave_write"),
    B("repro.enclave.runtime:EnclaveRuntime.shared_read"),
    B("repro.enclave.runtime:EnclaveRuntime.shared_write"),
    B("repro.enclave.runtime:EnclaveRuntime.stage_in"),
    B("repro.enclave.runtime:EnclaveRuntime.stage_out"),
    B("repro.enclave.runtime:EnclaveRuntime.compute"),
    B("repro.enclave.sanitizer:SyscallSanitizer.marshal"),
    B("repro.enclave.sanitizer:SyscallSanitizer.finish"),
    B("repro.enclave.host:EnclaveHost.launch"),
    # -- cluster: fleet set-up, front end, fabric, attestation ---------
    B("repro.cluster.fleet:ClusterFleet.__init__", "cluster.fleet",
      keep=True),
    B("repro.cluster.fleet:ClusterFleet.attest_all"),
    B("repro.cluster.fleet:ClusterFleet.audit_all"),
    B("repro.cluster.frontend:FrontEnd.allocate_request_id",
      "cluster.request"),
    B("repro.cluster.frontend:FrontEnd.request"),
    B("repro.cluster.frontend:FrontEnd.open_loop_attempt"),
    B("repro.cluster.frontend:FrontEnd._attempt", "cluster.attempt",
      _succeeded),
    B("repro.cluster.frontend:FrontEnd.heal_quarantined"),
    B("repro.cluster.net:InterHostNetwork.send", "cluster.fabric",
      _nbytes_arg(3)),
    B("repro.cluster.net:InterHostNetwork.recv"),
    B("repro.cluster.attest:FleetVerifier.establish", "cluster.attest"),
    B("repro.cluster.replica:ClusterReplica.pump"),
    B("repro.cluster.auditor:FleetAuditor.sweep"),
    # -- surge: open-loop scheduler ------------------------------------
    B("repro.surge.runner:SurgeRun.__init__", "surge.run", keep=True),
    B("repro.surge.runner:SurgeRun.run"),
    B("repro.surge.sched:DiscreteEventScheduler.step", "surge.step",
      _event_ran),
    B("repro.surge.sched:DiscreteEventScheduler.at"),
    B("repro.surge.arrivals:ArrivalPlan.schedule"),
    # -- scope: FleetScope request telemetry ---------------------------
    B("repro.scope.collector:FleetScope.__init__", "scope.new", keep=True),
    B("repro.scope.collector:FleetScope.request_begin", "scope.call"),
    B("repro.scope.collector:FleetScope.request_end", "scope.call"),
    B("repro.scope.collector:FleetScope.request_failed", "scope.call"),
    B("repro.scope.collector:FleetScope.retry", "scope.call"),
    B("repro.scope.collector:FleetScope.on_message", "scope.call"),
    B("repro.scope.collector:FleetScope.on_fault", "scope.call"),
    # -- trace: the program's own span tracer and its exporters --------
    B("repro.trace.tracer:Tracer.span"),
    B("repro.trace.tracer:Tracer.instant"),
    B("repro.trace.tracer:_Span.__exit__", "trace.span"),
    B("repro.trace.export:write_chrome_trace", "trace.export"),
    B("repro.scope.export:write_merged_trace", "trace.export"),
    # -- chaos: fault schedule, faulty fabric, invariant sweep ---------
    B("repro.chaos.runner:run_chaos_cluster"),
    B("repro.chaos.plan:FaultPlan.fate"),
    B("repro.chaos.plan:FaultPlan.record", "chaos.event", _is_fault),
    B("repro.chaos.net:ChaoticNetwork.send"),
    B("repro.chaos.net:ChaoticNetwork.flush_held"),
    B("repro.chaos.invariants:InvariantChecker.check", "chaos.invariant"),
)


def resolve(target: str):
    """``"pkg.mod:Class.attr"`` -> (owner, attribute name, object)."""
    mod_name, _, qual = target.partition(":")
    owner = importlib.import_module(mod_name)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def layer_of(fn) -> str:
    """The ``repro`` subpackage that defines ``fn``."""
    parts = fn.__module__.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


class SpanRecorder:
    """Span wrappers plus the counters and self times they feed.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        #: Id of the request in effect (-1 outside requests); the
        #: benchmark's operation probe sets it.
        self.request_id = -1
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.name_tag: list[str] = []
        self.calls: list[int] = []
        self.extra: list[int] = []
        self.self_ns: list[int] = []
        self.incl_ns: list[int] = []
        self.kept: dict[str, list] = {}
        # One row per span: name id, start, end, parent row, request id.
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_request = array("q")
        self._stack: list[list] = []

    def _name_id(self, name: str, layer: str, tag: str) -> int:
        self.names.append(name)
        self.name_layer.append(LAYERS.index(layer)
                               if layer in LAYERS else -1)
        self.name_tag.append(tag)
        for column in (self.calls, self.extra, self.self_ns,
                       self.incl_ns):
            column.append(0)
        return len(self.names) - 1

    def wrapper_factory(self, name: str, layer: str,
                        boundary: Boundary):
        """``make_wrapper(fn)`` for :class:`Patcher`."""
        nid = self._name_id(name, layer, boundary.tag)
        lid = self.name_layer[nid]
        measure, outer_only = boundary.measure, boundary.outer_only
        kept = self.kept.setdefault(boundary.tag, []) \
            if boundary.keep else None
        rec = self
        stack = self._stack
        clock = self.clock
        span_name, span_start, span_end = \
            self.span_name, self.span_start, self.span_end
        span_parent, span_request = self.span_parent, self.span_request
        calls, extra = self.calls, self.extra
        self_ns, incl_ns = self.self_ns, self.incl_ns

        def make(fn):
            def wrapper(*args, **kwargs):
                parent = stack[-1] if stack else None
                row = len(span_start)
                span_name.append(nid)
                span_parent.append(parent[2] if parent else -1)
                span_request.append(rec.request_id)
                frame = [lid, 0, row]
                stack.append(frame)
                ok = False
                start = clock()
                span_start.append(start)
                span_end.append(start)
                try:
                    result = fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    end = clock()
                    stack.pop()
                    span_end[row] = end
                    dur = end - start
                    self_ns[nid] += dur - frame[1]
                    incl_ns[nid] += dur
                    if parent is not None:
                        parent[1] += dur
                    if not outer_only or parent is None or \
                            parent[0] != lid:
                        calls[nid] += 1
                        if ok and measure is not None:
                            extra[nid] += measure(args, kwargs, result)
                    if ok and kept is not None:
                        kept.append(args[0])
            wrapper.__name__ = getattr(fn, "__name__", name)
            wrapper.__doc__ = getattr(fn, "__doc__", None)
            return wrapper
        return make

    def install(self, patcher: Patcher) -> None:
        """Wrap every boundary in :data:`BOUNDARIES` through ``patcher``."""
        # Resolve (and so import) every target before wrapping any: a
        # module imported mid-install would bind an installed wrapper by
        # name and keep it after restore.
        resolved = [(b, *resolve(b.target)) for b in BOUNDARIES]
        for boundary, owner, attr, obj in resolved:
            fn = getattr(obj, "__func__", obj)
            name = boundary.target.partition(":")[2]
            make = self.wrapper_factory(name, layer_of(fn), boundary)
            if isinstance(owner, type):
                patcher.wrap_method(owner, attr, make)
            else:
                patcher.wrap_function(obj, make)

    # -- results -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        """Spans recorded so far."""
        return len(self.span_start)

    def tag_sum(self, tag: str, column: str) -> int:
        """Sum one counter column over every boundary carrying ``tag``."""
        values = getattr(self, column)
        return sum(v for v, t in zip(values, self.name_tag) if t == tag)

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer, in seconds."""
        totals = dict.fromkeys(LAYERS, 0)
        for nid, ns in enumerate(self.self_ns):
            lid = self.name_layer[nid]
            if lid >= 0:
                totals[LAYERS[lid]] += ns
        return {layer: ns / 1e9 for layer, ns in totals.items()}

    def write_spans(self, path, meta: dict) -> None:
        """Write the span table as one JSON document."""
        rows = zip(self.span_name, self.span_start, self.span_end,
                   self.span_parent, self.span_request)
        origin = self.span_start[0] if self.span_count else 0
        doc = dict(meta)
        doc["columns"] = ["name", "start_ns", "end_ns", "parent",
                          "request"]
        doc["names"] = self.names
        doc["layers"] = [LAYERS[lid] if lid >= 0 else ""
                         for lid in self.name_layer]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc)[:-1])
            fh.write(', "spans": [')
            for index, (nid, start, end, parent, req) in enumerate(rows):
                if index:
                    fh.write(",")
                fh.write(f"[{nid},{start - origin},{end - origin},"
                         f"{parent},{req}]")
            fh.write("]}\n")


def _ratio(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """The per-layer table (``<layer>.<metric>``) from one traced run."""
    self_s = rec.layer_self_s()
    tag = rec.tag_sum
    by_tag_self = lambda t: tag(t, "self_ns") / 1e9  # noqa: E731
    machines = rec.kept.get("hw.machine", [])
    tlb = [core.tlb.stats for m in machines for core in m.cores]
    runtimes = rec.kept.get("enclave.runtime", [])
    scopes = rec.kept.get("scope.new", [])
    surges = rec.kept.get("surge.run", [])
    queue_waits = sorted(r.queue_wait for run in surges
                         for r in run.scope.records if r.status == "ok")
    fleets = rec.kept.get("cluster.fleet", [])
    attempts = tag("cluster.attempt", "calls")
    return {
        "hw.mem_calls": tag("hw.mem", "calls"),
        "hw.mem_bytes": tag("hw.mem", "extra"),
        "hw.self_s": self_s["hw"],
        "hw.tlb_hit_ratio": _ratio(sum(s.hits for s in tlb),
                                   sum(s.misses for s in tlb)),
        "hw.rmp_hit_ratio": _ratio(sum(s.rmp_hits for s in tlb),
                                   sum(s.rmp_misses for s in tlb)),
        "hv.vmgexits": tag("hv.vmgexit", "calls"),
        "hv.self_s": self_s["hv"],
        "kernel.syscalls": tag("kernel.syscall", "calls"),
        "kernel.audit_records": tag("kernel.audit", "calls"),
        "kernel.self_s": self_s["kernel"],
        "core.domain_switches": tag("core.switch", "calls"),
        "core.log_appends": tag("core.log", "calls"),
        "core.idcb_msgs": tag("core.idcb", "calls"),
        "core.self_s": self_s["core"],
        "core.boot_s": tag("core.boot", "incl_ns") / 1e9,
        "crypto.seal_calls": tag("crypto.seal", "calls"),
        "crypto.sealed_bytes": tag("crypto.seal", "extra"),
        "crypto.seal_s": by_tag_self("crypto.seal"),
        "crypto.pk_ops": tag("crypto.pk", "calls"),
        "crypto.pk_s": by_tag_self("crypto.pk"),
        "crypto.self_s": self_s["crypto"],
        "enclave.exits": sum(rt.enclave_exits for rt in runtimes),
        "enclave.redirect_bytes": sum(rt.redirect_bytes
                                      for rt in runtimes),
        "enclave.self_s": self_s["enclave"],
        "cluster.requests": tag("cluster.request", "calls"),
        "cluster.attempts": attempts,
        "cluster.useful_ratio": (tag("cluster.attempt", "extra") /
                                 attempts if attempts else 0.0),
        "cluster.fabric_msgs": tag("cluster.fabric", "calls"),
        "cluster.fabric_bytes": tag("cluster.fabric", "extra"),
        "cluster.handshakes": tag("cluster.attest", "calls"),
        "cluster.attest_s": tag("cluster.attest", "incl_ns") / 1e9,
        "cluster.self_s": self_s["cluster"],
        "surge.events": tag("surge.step", "extra"),
        "surge.self_s": self_s["surge"],
        "surge.max_in_flight": max((run.max_in_flight for run in surges),
                                   default=0),
        "surge.queue_wait_p99_cyc": percentile(queue_waits, 0.99),
        "scope.calls": tag("scope.call", "calls"),
        "scope.records": sum(len(s.records) for s in scopes),
        "scope.self_s": self_s["scope"],
        "trace.spans": tag("trace.span", "calls"),
        "trace.self_s": self_s["trace"],
        "trace.export_s": tag("trace.export", "incl_ns") / 1e9,
        "chaos.faults": tag("chaos.event", "extra"),
        "chaos.reattestations": sum(h.reattested for f in fleets
                                    for h in f.frontend.health.values()),
        "chaos.invariant_s": tag("chaos.invariant", "incl_ns") / 1e9,
        "chaos.self_s": self_s["chaos"],
    }
