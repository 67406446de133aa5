"""Tests for the benchmark's own machinery.

Run with ``python3 -m pytest lens/tests -q`` from the repository root.
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

from lens import gauge as gauge_module
from lens import run, workloads
from lens.gauge import HostGauge
from lens.layers import (BOUNDARIES, Boundary, SpanRecorder, layer_metrics,
                         resolve)
from lens.patching import Patcher, leftover_wrappers
from lens.workloads import Probes, run_workload

#: A fleet small enough for a unit test (2 replicas, 40 requests).
SMALL = {"replicas": 2, "requests": 40}


@pytest.fixture
def small(monkeypatch):
    """Shrink the fleet workloads to unit-test size."""
    import repro.surge
    monkeypatch.setattr(repro.surge, "SurgeConfig", functools.partial(
        repro.surge.SurgeConfig, **SMALL))
    monkeypatch.setattr(workloads, "CHAOS_REQUESTS", SMALL["requests"])


class FakeClock:
    """Integer clock the test advances by hand."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def work(self, ns: int) -> None:
        self.now += ns


def _layered(rec: SpanRecorder, clock: FakeClock):
    """enclave -> kernel -> core -> hv -> kernel (re-entered)."""
    def wrap(layer, fn):
        make = rec.wrapper_factory(f"{layer}.{fn.__name__}", layer,
                                   Boundary(f"x:{fn.__name__}"))
        return make(fn)

    def kernel_fn(depth):
        clock.work(7)
        if depth == 0:
            core()
        clock.work(1)

    def core_fn():
        clock.work(2)
        hv()
        clock.work(4)

    def hv_fn():
        clock.work(6)
        kernel(1)
        clock.work(2)

    def enclave_fn():
        clock.work(5)
        kernel(0)
        clock.work(3)

    kernel = wrap("kernel", kernel_fn)
    core = wrap("core", core_fn)
    hv = wrap("hv", hv_fn)
    return wrap("enclave", enclave_fn)


def test_self_time_is_duration_minus_children_across_reentry():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    enclave = _layered(rec, clock)
    rec.request_id = 42
    enclave()
    ns = {layer: round(s * 1e9) for layer, s in rec.layer_self_s().items()}
    assert ns["enclave"] == 5 + 3
    assert ns["kernel"] == (7 + 1) + (7 + 1)    # outer + re-entered call
    assert ns["core"] == 2 + 4
    assert ns["hv"] == 6 + 2
    # Self times add up to the root span's duration.
    assert sum(ns.values()) == clock.now == 38
    # Spans: enclave(0) <- kernel(1) <- core(2) <- hv(3) <- kernel(4).
    assert list(rec.span_parent) == [-1, 0, 1, 2, 3]
    assert list(rec.span_request) == [42] * 5
    durations = [e - s for s, e in zip(rec.span_start, rec.span_end)]
    assert durations == [38, 30, 22, 16, 8]


def test_exception_still_closes_the_span():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def boom():
        clock.work(9)
        raise ValueError("boom")

    wrapped = rec.wrapper_factory("hw.boom", "hw", Boundary("x:boom"))(boom)
    try:
        wrapped()
    except ValueError:
        pass
    assert rec.layer_self_s()["hw"] * 1e9 == 9
    assert not rec._stack


def test_set_up_time_stops_at_the_first_operation():
    clock = FakeClock()
    probes = Probes(clock=clock, op_clock=clock)
    boot = probes._setup_timer(lambda args, result: None)(
        lambda: clock.work(5))
    operation = probes._op_timer(lambda args: 0)(lambda: clock.work(3))
    boot()
    boot()
    operation()
    boot()          # a mid-run reboot belongs to the run
    assert probes.setup_ns == 10
    assert list(probes.op_ns) == [3]


def test_gauge_slices_stay_out_of_set_up_and_operation_times(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(gauge_module, "reference_slice",
                        lambda: clock.work(500))
    gauge = HostGauge(clock=clock, cpu_clock=clock, interval_ns=0)
    probes = Probes(gauge=gauge, clock=clock, op_clock=clock)
    keep = probes._setup_timer(lambda args, result: None)
    inner = keep(lambda: clock.work(5))
    outer = keep(lambda: (clock.work(2), inner()))
    operation = probes._op_timer(lambda args: 0)(lambda: clock.work(3))
    outer()
    operation()
    # Forced slices around the outer call, one at the nested call.
    assert [len(gauge.slices[p]) for p in ("setup", "run")] == [3, 1]
    assert probes.setup_ns - probes.setup_slice_ns == 2 + 5
    assert list(probes.op_ns) == [3]
    assert list(probes.op_slices) == [1]
    assert gauge.spent_ns == 4 * 500
    assert gauge.scale("run") == gauge_module.NOMINAL_NS / 500


def test_gauge_scale_leaves_out_the_slowest_slices():
    gauge = HostGauge()
    gauge.slices["run"] = [(200, 100)] * 19 + [(10_000, 100)]
    assert gauge.scale("run") == gauge_module.NOMINAL_NS / 200
    assert gauge.scale("run", cpu=True) == gauge_module.NOMINAL_NS / 100


def test_operations_are_scaled_by_the_slices_around_them():
    nominal = gauge_module.NOMINAL_NS
    gauge = HostGauge()
    gauge.slices["run"] = [(0, nominal), (0, nominal), (0, 4 * nominal),
                           (0, 4 * nominal), (0, 4 * nominal)]
    # Slices 0-1, 0-2, 1-3 and 3-4 are averaged for these operations.
    scaled = gauge.scale_ops([600, 600, 600, 600], [1, 2, 3, 5])
    assert scaled == [600.0, 300.0, 200.0, 150.0]


def test_wrappers_are_gone_after_a_traced_run(small):
    before = {b.target: resolve(b.target)[2] for b in BOUNDARIES}
    rec = SpanRecorder()
    traced = run_workload("surge-flagship", 5, recorder=rec)
    assert rec.span_count > 0
    assert leftover_wrappers() == []
    after = {b.target: resolve(b.target)[2] for b in BOUNDARIES}
    assert all(after[t] is before[t] for t in before)
    # The wrappers perturbed no ledger: an untraced run agrees.
    plain = run_workload("surge-flagship", 5)
    assert traced.digest == plain.digest
    assert traced.failed == plain.failed == 0


def test_chaos_replays_under_tracing_and_counts_its_faults(small):
    rec = SpanRecorder()
    traced = run_workload("chaos-mayhem", 3, recorder=rec)
    plain = run_workload("chaos-mayhem", 3)
    assert leftover_wrappers() == []
    assert traced.digest == plain.digest
    assert traced.violations == plain.violations == []
    layers = layer_metrics(rec)
    assert layers["chaos.faults"] > 0
    assert layers["chaos.self_s"] > 0
    assert layers["crypto.pk_ops"] > 0
    assert layers["enclave.exits"] == 0


def test_planted_wrong_reply_is_counted_in_failed_frac(small):
    from repro.cluster.frontend import FrontEnd

    def plant(fn):
        calls = iter(range(1 << 30))

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if next(calls) == 5 and out is not None:
                out[0]["bytes"] = 0
            return out
        return wrapper

    planted = Patcher()
    planted.wrap_method(FrontEnd, "open_loop_attempt", plant)
    try:
        outcome = run_workload("surge-flagship", 5, gauge=HostGauge())
    finally:
        planted.restore()
    assert outcome.failed == 1
    assert "reply" in outcome.violations[0]
    summary = run.summarize([_rep_doc(outcome)], trace=False)
    assert summary["failed_frac"] == 1 / SMALL["requests"]
    assert summary["correct"] is False


def test_flipped_ledger_digest_fails_every_operation(small):
    honest = run_workload("surge-flagship", 5)
    flipped = ("0" if honest.digest[0] != "0" else "1") + honest.digest[1:]
    outcome = run_workload("surge-flagship", 5, gauge=HostGauge(),
                           expected_digest=flipped)
    assert outcome.failed == outcome.attempted == SMALL["requests"]
    summary = run.summarize([_rep_doc(outcome)], trace=False)
    assert summary["failed_frac"] == 1.0
    assert summary["correct"] is False


def test_same_seed_repetitions_that_disagree_fail_the_run(small):
    first = _rep_doc(run_workload("surge-flagship", 5, gauge=HostGauge()))
    second = dict(first, digest="f" * 64)
    summary = run.summarize([first, second], trace=False)
    assert summary["failed"] == summary["attempted"]
    assert summary["correct"] is False


def test_operation_percentiles_are_taken_over_per_operation_medians(small):
    doc = _rep_doc(run_workload("surge-flagship", 5, gauge=HostGauge()))
    times = ([10_000, 90_000], [50_000, 20_000], [30_000, 40_000])
    summary = run.summarize([dict(doc, op_ns=list(t)) for t in times],
                            trace=False)
    # Per-operation medians are 30 and 40 us; the medians of each
    # repetition's own percentiles would be 20 and 50 us.
    assert summary["metrics"]["op_us.p50"] == 30.0
    assert summary["metrics"]["op_us.p95"] == 40.0
    assert summary["correct"] is True
    # A repetition that ran other operations fails the run.
    short = run.summarize([doc, dict(doc, op_ns=doc["op_ns"][1:])],
                          trace=False)
    assert short["correct"] is False


def test_result_line_carries_every_end_to_end_metric(small):
    doc = _rep_doc(run_workload("surge-flagship", 5, gauge=HostGauge()))
    line = run.result_line(run.summarize([doc], trace=False), trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert line["correct"] is True and line["failed"] == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "lens",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "lens/run.py", "--workload", "paper-figs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{")
                   for line in proc.stdout.splitlines())


def _rep_doc(outcome) -> dict:
    """What ``rep.py`` would print for ``outcome`` (untraced)."""
    return json.loads(json.dumps(dict(outcome.as_doc(False), knobs={})))
