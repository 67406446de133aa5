"""Host-speed gauge: a fixed reference slice timed between operations.

On a shared host the speed at which one process runs changes by tens of
percent within seconds, and its average over a minute moves as much
(see "Noise on a shared host" in lens/README.md).  A median over
repetitions removes the first kind of change but not the second, and a
reference loop timed before and after a whole repetition is too far
from the work to follow either.

So the gauge times a small fixed slice of pure-Python work *during* the
repetition: at most every :data:`INTERVAL_NS`, between two operations
and around every set-up call, outside the timed operations.  The slice
shares the moment, the CPU and the interpreter with the workload, so
its time moves with the workload's.  A time metric is the measured
time, with the slices' own time taken out, times
``NOMINAL_NS / mean slice time`` of the same phase: the seconds the
work would take on a host where one slice takes :data:`NOMINAL_NS`.
The mean leaves out the slowest :data:`TRIM` of the phase's slices, so
that a slice that lost the CPU for a few milliseconds does not move the
scale; the median followed the workload less closely.  An
operation's time is scaled by the speed of the slices just around it
instead (:meth:`HostGauge.scale_ops`), which follows changes that last
only tens of milliseconds.  The slice is the benchmark's code, not the
program's, so a change to the program does not move it.
"""

from __future__ import annotations

import time

#: Iterations of one reference slice (0.17-0.3 ms on the x86 Xeon VM
#: that lens/README.md reports from).
SLICE_LOOPS = 2000
#: Slice time that defines host speed 1.0.
NOMINAL_NS = 250_000
#: Least wall-clock between two slices that are not forced.
INTERVAL_NS = 8_000_000
#: Share of a phase's slowest slices left out of its mean.
TRIM = 0.05
#: The phases a slice is charged to.
PHASES = ("setup", "run")


def reference_slice() -> int:
    """The fixed work the gauge times: small-dict stores and loads."""
    table = {}
    total = 0
    for i in range(SLICE_LOOPS):
        table[i & 255] = i
        total += table[i & 255]
    return total


class HostGauge:
    """Times reference slices while a workload runs, per phase.

    ``spent_ns`` is the wall-clock all slices took; callers take it out
    of the intervals they time.  ``slices[phase]`` holds one
    ``(wall-clock ns, thread CPU ns)`` pair per slice of that phase.
    """

    def __init__(self, clock=time.perf_counter_ns,
                 cpu_clock=time.thread_time_ns,
                 interval_ns: int = INTERVAL_NS):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.interval_ns = interval_ns
        self.spent_ns = 0
        self.slices = {phase: [] for phase in PHASES}
        self._last = None

    def tick(self, phase: str, force: bool = False) -> None:
        """Time one slice, unless one ran less than the interval ago."""
        now = self.clock()
        if not force and self._last is not None and \
                now - self._last < self.interval_ns:
            return
        cpu = self.cpu_clock()
        reference_slice()
        cpu = self.cpu_clock() - cpu
        end = self.clock()
        self.slices[phase].append((end - now, cpu))
        self.spent_ns += end - now
        self._last = end

    def scale(self, phase: str, cpu: bool = False) -> float:
        """``NOMINAL_NS`` over the phase's trimmed mean slice time.

        ``cpu`` uses thread CPU time, for figures timed in it.  Set-up
        calls and the first operation force a slice, so a phase that ran
        has one.
        """
        times = sorted(pair[int(cpu)] for pair in self.slices[phase])
        kept = times[:len(times) - int(len(times) * TRIM)]
        return NOMINAL_NS * len(kept) / sum(kept)

    def scale_ops(self, op_ns, op_slices) -> list:
        """Operation times in thread CPU time, scaled one by one.

        ``op_slices[i]`` is how many run slices had been timed when
        operation ``i`` started, at least one since the first operation
        forces a slice.  Its scale is ``NOMINAL_NS`` over the
        mean CPU time of the last slice before it, the one before that
        and the first one after it.
        """
        cpu = [pair[1] for pair in self.slices["run"]]
        local = []
        for i in range(len(cpu)):
            window = cpu[max(0, i - 1):i + 2]
            local.append(NOMINAL_NS * len(window) / sum(window))
        return [ns * local[count - 1]
                for ns, count in zip(op_ns, op_slices)]
