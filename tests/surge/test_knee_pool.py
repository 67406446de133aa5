"""The pooled knee sweep reproduces the serial sweep point for point."""

from repro.bench.surge import _sweep_point, run_surge_bench
from repro.surge import ARRIVALS

SMALL = dict(seed=2, replicas=2)
LOADS = (0.5, 2.0)
KNEE_REQUESTS = 40


def test_pooled_sweep_equals_serial_loop_in_order():
    pooled = run_surge_bench(requests=40, knee_requests=KNEE_REQUESTS,
                             loads=LOADS, **SMALL)
    serial = tuple(
        _sweep_point(arrivals, load, requests=KNEE_REQUESTS, **SMALL)
        for arrivals in sorted(ARRIVALS) for load in LOADS)
    assert len(pooled.knee) == len(ARRIVALS) * len(LOADS)
    assert pooled.knee == serial
