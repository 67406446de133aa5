"""Golden pins: the exact bytes the trace exporters produce.

The replay tests compare one run with a second run of the same code,
so a refactor that changes the exported bytes the same way both times
still passes them.  These constants were recorded from the exporters
before the record and export paths were rewritten for speed; any change
to a span, an arg, a key order, a metric or the JSON layout changes a
hash.  A deliberate format change must re-record them and say why.
"""

import hashlib
import json

from repro.scope import FleetScope, dumps_merged_trace
from repro.surge import run_surge
from repro.trace import Tracer, dumps_chrome_trace
from repro.workloads.trace_demo import TRACE_WORKLOADS

from .test_surge_parity import CONFIG

#: SHA-256 of ``dumps_merged_trace`` for the ``CONFIG`` surge run.
MERGED_SURGE_SHA256 = (
    "f74326531cd3cdab569ecee0d1e149cc585c1bc14a5ed0b4c0f7776072f682ca")

#: SHA-256 of ``dumps_chrome_trace`` for the ``syscalls`` trace demo.
CHROME_SYSCALLS_SHA256 = (
    "5139fad03e11f0c1fe26467904d52b65266875eae7007801f21ae99ab14ccbf4")

#: SHA-256 of ``tracer.metrics.dump()`` (sorted keys, compact) for the
#: same ``syscalls`` run.
METRICS_SYSCALLS_SHA256 = (
    "3e0e00f9b5f60392ce76a27dec2060a3198124c166bd157bc76c19d1119bdf55")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_merged_surge_trace_bytes_are_pinned():
    tracer = Tracer()
    scope = FleetScope()
    run_surge(CONFIG, tracer=tracer, scope=scope)
    assert _sha256(dumps_merged_trace(tracer, scope)) == \
        MERGED_SURGE_SHA256


def test_syscalls_chrome_trace_and_metrics_are_pinned():
    runner, _desc = TRACE_WORKLOADS["syscalls"]
    tracer = Tracer()
    runner(tracer)
    assert _sha256(dumps_chrome_trace(tracer)) == CHROME_SYSCALLS_SHA256
    dump = json.dumps(tracer.metrics.dump(), sort_keys=True,
                      separators=(",", ":"))
    assert _sha256(dump) == METRICS_SYSCALLS_SHA256
