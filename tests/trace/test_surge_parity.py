"""Replay parity: one surge seed, byte-identical everything.

The veil-surge acceptance bar: two runs of the same ``SurgeConfig``
must produce byte-identical cycle ledgers, merged Chrome traces,
FleetScope records, and summary JSON.  Arrival timing, routing,
admission, autoscaling, and the event heap are all deterministic
functions of the config -- any wall-clock or iteration-order leak
shows up here as a byte diff.
"""

import json

from repro.scope import FleetScope, dumps_merged_trace, scope_snapshot
from repro.surge import SurgeConfig, run_surge
from repro.trace import Tracer, dumps_chrome_trace


def _surge_run(config: SurgeConfig) -> dict:
    tracer = Tracer()
    scope = FleetScope()
    result = run_surge(config, tracer=tracer, scope=scope)
    return {
        "summary": json.dumps(result.summary_dict(), sort_keys=True),
        "ledgers": {
            name: dict(replica.ledger.by_category)
            for name, replica in sorted(result.fleet.replicas.items())
        },
        "frontend_ledger": dict(
            result.fleet.frontend.ledger.by_category),
        "chrome": dumps_chrome_trace(tracer),
        "merged": dumps_merged_trace(tracer, scope),
        "scope_json": json.dumps(scope_snapshot(scope), sort_keys=True),
        "records": [r.as_dict() for r in scope.records],
    }


CONFIG = SurgeConfig(seed=5, replicas=4, requests=250, load=2.0,
                     min_active=2, admit_limit=200)


def test_surge_replays_byte_identically():
    first = _surge_run(CONFIG)
    second = _surge_run(CONFIG)
    for key in first:
        assert first[key] == second[key], f"{key} diverged on replay"


def test_surge_every_shape_replays():
    for arrivals in ("poisson", "bursty", "diurnal"):
        config = SurgeConfig(seed=9, arrivals=arrivals, replicas=2,
                             requests=80)
        assert _surge_run(config)["summary"] == \
            _surge_run(config)["summary"], arrivals


def test_different_seed_diverges():
    """The counterpart: the seed really is the only entropy source,
    and it genuinely reshuffles the run."""
    base = _surge_run(CONFIG)
    other = _surge_run(SurgeConfig(seed=6, replicas=4, requests=250,
                                   load=2.0, min_active=2,
                                   admit_limit=200))
    assert base["summary"] != other["summary"]


def test_surge_scope_records_are_complete():
    run = _surge_run(CONFIG)
    assert len(run["records"]) == CONFIG.requests
    statuses = {r["status"] for r in run["records"]}
    assert statuses <= {"ok", "failed"}       # nothing left open


def _ledgers_and_summary(tracer) -> dict:
    result = run_surge(CONFIG, tracer=tracer)
    return {
        "summary": json.dumps(result.summary_dict(), sort_keys=True),
        "ledgers": {
            name: dict(replica.ledger.by_category)
            for name, replica in sorted(result.fleet.replicas.items())
        },
        "frontend_ledger": dict(
            result.fleet.frontend.ledger.by_category),
    }


def test_tracer_on_off_parity_at_fleet_scale():
    """Tracing is an instrument, not a workload: the same surge run with
    the span tracer on and off gives identical per-replica and front-end
    ledgers and an identical summary.  This pins every tracing-off guard
    on the audited-syscall path (a guard that skipped a charge, or a
    traced branch that made one, would show up here)."""
    traced = _ledgers_and_summary(Tracer())
    untraced = _ledgers_and_summary(None)
    assert traced["ledgers"] and traced["frontend_ledger"]
    for key in traced:
        assert traced[key] == untraced[key], f"{key} diverged with tracing"
