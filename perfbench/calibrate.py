"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a shared host whose speed drifts: a fixed CPU
loop can take 1.0 ms in one second and 1.8 ms a few seconds later, and
CPU time drifts with wall time, so neither longer runs nor CPU clocks
remove it. The harness therefore times a fixed reference computation
between operations and expresses every timing in reference units: a
duration measured while the reference took `ref` seconds is reported as
`duration * NOMINAL_REF_S / ref`, i.e. as it would read on a host where
one reference pass takes exactly NOMINAL_REF_S.

The reference is plain Python in this file and calls nothing in the
library, so a change to the library moves the reported timings and a
change in host speed largely cancels out. It is integer arithmetic,
XOR and popcount, the work the library does on bit-packed GF(2) words.
The host switches between a fast state and one about 1.8 times slower,
and the slow state hurts code that allocates more than code that does
not. Timed side by side with three library calls (a distance, a search
and a serve), the library's time grew as the 0.91 to 0.96 power of this
reference's time; against a reference that also built tuples, updated a
dict and sorted a list it grew as the 0.75 to 0.77 power, which left
the slow state reading 8% faster than the fast one.

Samples come from two places. Between operations the harness takes one
whenever BETWEEN_OPS_EVERY_S has passed since the last. Inside a timed interval
(between `begin` and `end`) a profiling timer signal takes one after
every IN_OP_EVERY_S of CPU time, so an operation of seconds is scaled by
the host speed during it rather than only around it; the time those
samples take is left out of the interval's duration.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

# Reported timings read as on a host where one reference pass takes this
# long: about what a 2.1 GHz Xeon vCPU running Python 3.11 takes in its
# fast state, so that the reported times are close to that host's wall
# times when it is quiet.
NOMINAL_REF_S = 0.5e-3
_REF_ITERATIONS = 2500
# Samples taken on each side of an interval to estimate the host speed
# during it.
_SIDE = 4
# Least wall time between two samples taken between operations.
BETWEEN_OPS_EVERY_S = 0.025
# CPU time between two samples inside a timed interval.
IN_OP_EVERY_S = 0.02


def reference() -> int:
    """One pass of the fixed reference computation."""
    x = 0x9E3779B9
    acc = 0
    for _ in range(_REF_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        acc ^= x
        acc += (x & 0xFFFF).bit_count()
    return acc


class Calibration:
    """Reference samples over a run and the scale they give each interval.

    With `in_op` false no samples are taken inside timed intervals, which
    the traced run needs so that span times hold library work only.
    """

    def __init__(self, in_op: bool = True):
        self.in_op = in_op
        # (end, duration) of every sample, in order; one list, so that a
        # guard signal arriving mid-sample cannot leave two out of step.
        self.samples: list[tuple[float, float]] = []
        # Wall time spent in samples since the last begin().
        self.paused = 0.0
        for _ in range(20):  # let the interpreter specialise the loop
            reference()
        signal.signal(signal.SIGPROF, self._on_prof)

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = perf_counter()
            reference()
            end = perf_counter()
            self.samples.append((end, end - start))

    def maybe_sample(self) -> None:
        if perf_counter() - self.samples[-1][0] >= BETWEEN_OPS_EVERY_S:
            self.sample()

    def _on_prof(self, signum, frame) -> None:
        start = perf_counter()
        self.sample()
        self.paused += perf_counter() - start

    def begin(self) -> float:
        """Start a timed interval; returns its start."""
        self.paused = 0.0
        if self.in_op:
            signal.setitimer(signal.ITIMER_PROF, IN_OP_EVERY_S, IN_OP_EVERY_S)
        return perf_counter()

    def end(self) -> tuple[float, float]:
        """End the interval begun last; returns its end and the time its
        samples took."""
        end = perf_counter()
        if self.in_op:
            signal.setitimer(signal.ITIMER_PROF, 0)
        return end, self.paused

    def scale(self, start: float, end: float) -> float:
        """The factor that converts a duration measured over [start, end]
        to reference units: NOMINAL_REF_S over the median of the samples
        taken inside the interval, the _SIDE before it and the _SIDE
        after it."""
        lo = bisect.bisect_left(self.samples, start, key=_end)
        hi = bisect.bisect_right(self.samples, end, key=_end)
        near = self.samples[max(0, lo - _SIDE):hi + _SIDE]
        return NOMINAL_REF_S / statistics.median(d for _, d in near)

    def normalize(self, start: float, end: float, paused: float) -> float:
        """The interval's duration, less `paused`, in reference units."""
        return (end - start - paused) * self.scale(start, end)


def _end(sample: tuple[float, float]) -> float:
    return sample[0]
