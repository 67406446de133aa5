"""The benchmark's workloads, timed from outside the program.

Each workload runs one fixed amount of simulated work in the current
process and returns an :class:`Outcome`: host wall-clock split into
set-up and run, one host-time sample per operation, the modeled outputs
(ledger cycles and run summary) with their digest, and every violation
the post-run checks found.

Timing and checks go through light probes installed with
:class:`~patching.Patcher` on the program's public entry points, so the
program itself is unchanged.  Modeled cycles are results here, checked
against a recorded digest; host time is what is measured.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import itertools
import json
import os
import random
import resource
import time
import types
from array import array
from dataclasses import dataclass, field

from lens.patching import Patcher

#: Workload name -> the seed its recorded digest was taken at; ``None``
#: marks a workload whose inputs do not depend on the seed, whose digest
#: must then match for every seed.
DEFAULT_SEEDS = {"surge-flagship": 1, "surge-traced": 1,
                 "paper-figs": None, "chaos-mayhem": 3}
WORKLOADS = tuple(DEFAULT_SEEDS)

#: Requests of one ``chaos-mayhem`` repetition.
CHAOS_REQUESTS = 800

#: Seed of the two process-wide RSA keys.  The program draws them from
#: fresh entropy; the length of what they sign moves where a chaos
#: bit-flip lands, so ``chaos-mayhem`` only replays across processes
#: with the keys fixed.
KEY_SEED = 0

#: Program modules the workloads and checks import.
_PROGRAM_MODULES = ("repro.bench.harness", "repro.chaos.invariants",
                    "repro.chaos.runner", "repro.cluster.replica",
                    "repro.scope.export", "repro.surge.runner",
                    "repro.trace.tracer")

#: Violation messages kept per run (the count is always exact).
MAX_REPORTED = 10


@dataclass
class Outcome:
    """What one repetition of a workload produced."""

    workload: str
    seed: int
    setup_s: float = 0.0
    run_s: float = 0.0
    setup_raw_s: float = 0.0
    run_raw_s: float = 0.0
    total_s: float = 0.0
    op_ns: list = field(default_factory=list)
    slices: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    violations: list = field(default_factory=list)
    violation_count: int = 0
    modeled: dict = field(default_factory=dict)
    digest: str = ""
    peak_rss_mb: float = 0.0

    def as_doc(self, traced: bool) -> dict:
        """The JSON-ready record ``rep.py`` prints."""
        return {
            "workload": self.workload, "seed": self.seed, "traced": traced,
            "setup_s": self.setup_s, "run_s": self.run_s,
            "setup_raw_s": self.setup_raw_s, "run_raw_s": self.run_raw_s,
            "total_s": self.total_s, "op_ns": self.op_ns,
            "slices": self.slices,
            "attempted": self.attempted, "failed": self.failed,
            "violations": self.violations,
            "violation_count": self.violation_count,
            "digest": self.digest, "peak_rss_mb": self.peak_rss_mb,
        }

    def violate(self, message: str, ops: int = 1) -> None:
        """Record one failed check that fails ``ops`` operations."""
        self.violation_count += 1
        self.failed += ops
        if len(self.violations) < MAX_REPORTED:
            self.violations.append(message)


def digest_of(modeled: dict) -> str:
    """Stable SHA-256 of the modeled outputs."""
    blob = json.dumps(modeled, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _ledger(ledger) -> dict:
    return {"total": ledger.total,
            "by_category": dict(sorted(ledger.by_category.items()))}


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Probes:
    """Set-up timer, per-operation timer and fabric scan for one run.

    ``recorder`` (a :class:`~layers.SpanRecorder`, traced runs only) is
    told the id of the request in effect so its spans carry it.
    ``gauge`` (a :class:`~gauge.HostGauge`, untraced runs only) times
    its reference slice at operation and set-up boundaries, outside
    every timed operation; ``setup_slice_ns`` is the slice time that
    fell inside the set-up intervals, and ``op_slices[i]`` the number
    of run slices timed when operation ``i`` started.
    """

    def __init__(self, recorder=None, gauge=None,
                 clock=time.perf_counter_ns,
                 op_clock=time.thread_time_ns):
        self.clock = clock
        #: Operations are timed in thread CPU time: on a shared host the
        #: vCPU is sometimes descheduled for milliseconds, and wall-clock
        #: per-operation tails would measure that instead of the program.
        self.op_clock = op_clock
        self.recorder = recorder
        self.gauge = gauge
        self.setup_ns = 0
        self.setup_slice_ns = 0
        self.op_slices = array("q")
        self.op_ns = array("q")
        self.fleets: list = []
        self.systems: list = []
        #: (request payload, reply) per successful open-loop attempt.
        self.replies: list = []
        #: (src, dst, marker) for every fabric message carrying one.
        self.plaintext: list = []
        self._setup_depth = 0
        self._op_depth = 0

    def _setup_timer(self, keep):
        probes = self

        def make(fn):
            def wrapper(*args, **kwargs):
                gauge = probes.gauge
                if probes._setup_depth:
                    if gauge is not None:
                        gauge.tick("setup")
                    return fn(*args, **kwargs)
                if probes._op_depth or probes.op_ns:
                    # Reboots and re-attestations after the first
                    # operation are part of the run.
                    if gauge is not None and not probes._op_depth:
                        gauge.tick("run")
                    result = fn(*args, **kwargs)
                    keep(args, result)
                    return result
                if gauge is not None:
                    gauge.tick("setup", force=True)
                    spent = gauge.spent_ns
                probes._setup_depth += 1
                start = probes.clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    probes.setup_ns += probes.clock() - start
                    probes._setup_depth -= 1
                    if gauge is not None:
                        probes.setup_slice_ns += gauge.spent_ns - spent
                        gauge.tick("setup", force=True)
                keep(args, result)
                return result
            return wrapper
        return make

    def _op_timer(self, request_id, on_result=None):
        probes = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if probes._op_depth:
                    return fn(*args, **kwargs)
                if probes.gauge is not None:
                    # The run phase opens with a slice.
                    probes.gauge.tick("run", force=not probes.op_ns)
                    probes.op_slices.append(
                        len(probes.gauge.slices["run"]))
                probes._op_depth += 1
                rec = probes.recorder
                if rec is not None:
                    rec.request_id = request_id(args)
                start = probes.op_clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    probes.op_ns.append(probes.op_clock() - start)
                    probes._op_depth -= 1
                    if rec is not None:
                        rec.request_id = -1
                if on_result is not None:
                    on_result(args, result)
                return result
            return wrapper
        return make

    def _fabric_scan(self, markers):
        probes = self

        def make(fn):
            def wrapper(net, src, dst, payload):
                for marker in markers:
                    if marker in payload:
                        probes.plaintext.append((src, dst, marker))
                        break
                return fn(net, src, dst, payload)
            return wrapper
        return make

    def install(self, patcher: Patcher, fleet: bool,
                closed_loop: bool = False) -> None:
        """Wrap set-up calls, the operation entry point, the fabric.

        A fleet's operation is one ``FrontEnd.request`` when
        ``closed_loop`` and one ``FrontEnd.open_loop_attempt`` otherwise.
        """
        from repro.core import boot
        from repro.kernel.syscalls import SyscallTable

        def keep_system(args, result):
            self.systems.append(result)

        patcher.wrap_function(boot.boot_veil_system,
                              self._setup_timer(keep_system))
        patcher.wrap_function(boot.boot_native_system,
                              self._setup_timer(keep_system))
        if not fleet:
            ops = iter(range(1 << 62))
            patcher.wrap_method(SyscallTable, "dispatch", self._op_timer(
                lambda args: next(ops)))
            return
        from repro.chaos.invariants import PLAINTEXT_MARKERS
        from repro.cluster.fleet import ClusterFleet
        from repro.cluster.frontend import FrontEnd
        from repro.cluster.net import InterHostNetwork

        def keep_fleet(args, result):
            self.fleets.append(args[0])

        patcher.wrap_method(ClusterFleet, "__init__",
                            self._setup_timer(keep_fleet))
        patcher.wrap_method(ClusterFleet, "attest_all",
                            self._setup_timer(lambda args, result: None))
        if closed_loop:
            requests = itertools.count()
            patcher.wrap_method(FrontEnd, "request", self._op_timer(
                lambda args: next(requests),
                lambda args, result: self.replies.append((args[1],
                                                          result))))
        else:
            def keep_reply(args, result):
                if result is not None:
                    self.replies.append((args[2], result[0]))
            patcher.wrap_method(FrontEnd, "open_loop_attempt",
                                self._op_timer(lambda args: args[3],
                                               keep_reply))
        patcher.wrap_method(InterHostNetwork, "send",
                            self._fabric_scan(PLAINTEXT_MARKERS))


# -- workloads ---------------------------------------------------------------

def _surge(outcome: Outcome, *, program_tracer: bool,
           out_dir: str) -> object:
    """Open-loop surge: SurgeConfig defaults at ``seed``."""
    from repro.scope.export import write_merged_trace
    from repro.surge import SurgeConfig
    from repro.surge.runner import SurgeRun
    from repro.trace.tracer import Tracer

    config = SurgeConfig(seed=outcome.seed)
    outcome.attempted = config.requests
    tracer = Tracer() if program_tracer else None
    result = SurgeRun(config, tracer=tracer).run()
    if tracer is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_merged_trace(tracer, result.scope, os.path.join(
            out_dir, f"{outcome.workload}-seed{outcome.seed}"
                     ".perfetto.json"))
    return result


def _surge_modeled(result) -> dict:
    return {"hosts": _fleet_hosts(result.fleet),
            "summary": result.summary_dict()}


def _chaos(outcome: Outcome) -> object:
    """Closed loop under the ``mayhem`` fault profile, 3 replicas."""
    from repro.chaos.runner import ChaosConfig, run_chaos_cluster

    config = ChaosConfig(seed=outcome.seed, profile="mayhem", replicas=3,
                         requests=CHAOS_REQUESTS)
    outcome.attempted = config.requests
    return run_chaos_cluster(config)


def _fleet_hosts(fleet) -> dict:
    hosts = {name: _ledger(replica.ledger)
             for name, replica in sorted(fleet.replicas.items())}
    hosts["frontend"] = _ledger(fleet.frontend.ledger)
    hosts["auditor"] = _ledger(fleet.auditor.ledger)
    return hosts


def _chaos_modeled(result, fleet) -> dict:
    return {"hosts": _fleet_hosts(fleet),
            "summary": {"completed": result.completed,
                        "failed": result.failed,
                        "retries": result.retries,
                        "crashes": result.crashes,
                        "quarantines": result.quarantines,
                        "reattestations": result.reattestations,
                        "invariants": result.invariants.violations,
                        "scanned": result.invariants.messages_scanned,
                        "routed": result.cluster.routed_by_replica,
                        "makespan": result.cluster.makespan_cycles},
            "events": result.events}


def _check_fleet(outcome: Outcome, probes: Probes) -> None:
    """Security and reply checks, run after the timed phase."""
    from repro.cluster.replica import MEMCACHED_VALUE_BYTES
    from repro.errors import SecurityViolation

    for fleet in probes.fleets:
        try:
            audit = fleet.audit_all()
        except SecurityViolation as refused:
            outcome.violate(f"audit sweep refused: {refused}")
        else:
            if not audit.all_verified:
                outcome.violate("audit chain did not verify")
        admitted = fleet.frontend.ever_admitted
        for name, replica in sorted(fleet.replicas.items()):
            if replica.requests_served and name not in admitted:
                outcome.violate(f"unattested {name} served "
                                f"{replica.requests_served} requests",
                                replica.requests_served)
    for src, dst, marker in probes.plaintext:
        outcome.violate(f"plaintext {marker!r} crossed {src}->{dst}")
    for payload, reply in probes.replies:
        expected = {"status": "ok", "op": payload["op"],
                    "key": payload["key"], "bytes": MEMCACHED_VALUE_BYTES}
        if reply != expected:
            outcome.violate(f"reply {reply!r} to {payload!r}")


def _paper_figs() -> dict:
    """Figs. 4-6 and the domain-switch microbenchmark, one CVM each."""
    from repro.bench.harness import (run_fig4, run_fig5, run_fig6,
                                     run_micro_switch)

    return {"fig4": run_fig4(), "fig5": run_fig5(), "fig6": run_fig6(),
            "switch": run_micro_switch()}


def _figs_modeled(rows: dict, probes: Probes) -> dict:
    modeled = {name: ([dataclasses.asdict(r) for r in value]
                      if isinstance(value, list)
                      else dataclasses.asdict(value))
               for name, value in rows.items()}
    modeled["hosts"] = [_ledger(system.machine.ledger)
                        for system in probes.systems]
    return modeled


def _fixed_keys() -> None:
    """Make the two process-wide RSA keys from :data:`KEY_SEED`.

    They are made before the clock starts, so their random prime-search
    time falls outside every measurement.
    """
    from repro.core.boot import module_signing_key
    from repro.crypto import rsa
    from repro.hv.attestation import platform_signing_key

    seeded = random.Random(KEY_SEED)
    entropy = rsa.secrets
    rsa.secrets = types.SimpleNamespace(randbits=seeded.getrandbits,
                                        randbelow=seeded.randrange)
    try:
        module_signing_key()
        platform_signing_key()
    finally:
        rsa.secrets = entropy


def run_workload(workload: str, seed: int, *, recorder=None, gauge=None,
                 expected_digest: str | None = None,
                 out_dir: str = ".lens_out") -> Outcome:
    """Run one repetition of ``workload`` and check it.

    With ``recorder`` the layer spans are installed for the run and
    removed before the checks.  With ``gauge`` the set-up, run and
    operation times are scaled to its reference host speed; without
    it they are as measured.  ``expected_digest`` fails every
    operation on mismatch.  ``out_dir`` receives the Perfetto file of
    ``surge-traced``.
    """
    if workload not in DEFAULT_SEEDS:
        raise ValueError(f"unknown workload {workload!r}")
    fleet = workload != "paper-figs"
    chaos = workload == "chaos-mayhem"
    outcome = Outcome(workload=workload, seed=seed)
    # Import the workload's modules before any wrapper exists, so no
    # ``from ... import name`` binds a wrapper that restore cannot see.
    for module in _PROGRAM_MODULES:
        importlib.import_module(module)
    _fixed_keys()
    patcher = Patcher()
    probes = Probes(recorder=recorder, gauge=gauge)
    if recorder is not None:
        recorder.install(patcher)
    probes.install(patcher, fleet=fleet, closed_loop=chaos)
    clock = probes.clock
    try:
        start = clock()
        if chaos:
            result = _chaos(outcome)
        elif fleet:
            result = _surge(outcome,
                            program_tracer=workload == "surge-traced",
                            out_dir=out_dir)
        else:
            result = _paper_figs()
        elapsed = clock() - start
    finally:
        patcher.restore()
    outcome.peak_rss_mb = peak_rss_mb()
    outcome.total_s = elapsed / 1e9
    setup_ns = probes.setup_ns - probes.setup_slice_ns
    run_ns = elapsed - probes.setup_ns
    if gauge is not None:
        run_ns -= gauge.spent_ns - probes.setup_slice_ns
    outcome.setup_raw_s = setup_ns / 1e9
    outcome.run_raw_s = run_ns / 1e9
    outcome.setup_s = outcome.setup_raw_s
    outcome.run_s = outcome.run_raw_s
    if gauge is not None:
        outcome.setup_s *= gauge.scale("setup")
        outcome.run_s *= gauge.scale("run")
        outcome.slices = {phase: {"slices": len(timed),
                                  "speed": gauge.scale(phase)}
                          for phase, timed in gauge.slices.items()}
        outcome.op_ns = gauge.scale_ops(probes.op_ns, probes.op_slices)
    else:
        outcome.op_ns = list(probes.op_ns)
    if chaos:
        outcome.modeled = _chaos_modeled(result, probes.fleets[0])
        # Requests that exhaust their retries are failed operations the
        # fault profile causes by design; they are counted, not errors.
        outcome.failed += result.failed
        for violation in result.invariants.violations:
            outcome.violate(f"chaos invariant: {violation}")
    elif fleet:
        outcome.modeled = _surge_modeled(result)
        outcome.failed += result.shed + result.failed
    else:
        outcome.attempted = len(probes.op_ns)
        outcome.modeled = _figs_modeled(result, probes)
    outcome.digest = digest_of(outcome.modeled)
    if fleet:
        _check_fleet(outcome, probes)
    if expected_digest is not None and outcome.digest != expected_digest:
        outcome.violate(f"modeled-output digest {outcome.digest} "
                        f"!= recorded {expected_digest}",
                        outcome.attempted)
    outcome.failed = min(outcome.failed, outcome.attempted)
    return outcome
