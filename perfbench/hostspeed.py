"""Host-speed calibration: scale measured times to a reference host speed.

On a shared virtual machine the same single-threaded job can take twice
as long from one minute to the next, in CPU time as well as wall time,
because the host's own load changes.  Such swings dwarf the changes the
benchmark must resolve.  So the benchmark times a fixed pure-Python
kernel before and after each measured interval, and every SAMPLE_EVERY
seconds inside it, and scales the interval by
REFERENCE_S / (median kernel time), taken over at least WINDOW kernel
times nearest to the interval.  A scaled time is the time the
interval would have taken on a host where the kernel takes REFERENCE_S.
The kernel imports nothing from germkit, so no change to the program can
move it.

The kernel mixes the operations germkit spends its time on: integer
arithmetic, tuple and dict building, lookups.  On a 2-vCPU Intel Xeon
whose speed swung by 1.8x over a few minutes, the ratio of an oracle
call's time to the kernel's time stayed within about 7% of its median.
"""

from __future__ import annotations

import signal
import statistics
import time

# The kernel's time on the reference host: about its time on a 2-vCPU
# Intel Xeon in its usual state.  Only the ratio to it matters.
REFERENCE_S = 0.002
SAMPLE_EVERY = 0.05
WINDOW = 20  # kernel times behind each factor, at least
_REPEATS = 3
_spent = 0.0  # time this process spent in Sampler ticks


def kernel(rounds: int = 2400) -> int:
    table: dict = {}
    total = 0
    for i in range(rounds):
        key = (i * 7919) % 1021, i & 7
        table[key] = table.get(key, 0) + i
        total += sum(divmod(i * i, 97)) + len(str(i))
    return total + len(table)


def probe() -> float:
    """The kernel's time now: the median of a few runs, so a single stall drops out."""
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factors(intervals: list[list[float]], least: int = WINDOW) -> list[float]:
    """One factor per interval, from the kernel times taken in it (in run order).

    An interval with fewer than `least` times borrows the nearest times of
    the intervals around it, alternately before and after, so that a short
    job's factor rests on as many times as a long one's and does not hang
    on two probes.  Returns REFERENCE_S / median of each window.
    """
    out = []
    for i, own in enumerate(intervals):
        window = list(own)
        left, right = [], []  # the neighbours' times, nearest first
        for j in range(i - 1, -1, -1):
            left.extend(reversed(intervals[j]))
            if len(left) >= least:
                break
        for j in range(i + 1, len(intervals)):
            right.extend(intervals[j])
            if len(right) >= least:
                break
        for k in range(max(len(left), len(right))):
            if len(window) >= least:
                break
            window.extend(side[k] for side in (left, right) if k < len(side))
        out.append(REFERENCE_S / statistics.median(window) if window else 1.0)  # 1.0: every job died
    return out


def now() -> float:
    """perf_counter without the time spent in Sampler ticks: time jobs with this."""
    return time.perf_counter() - _spent


class Sampler:
    """Times the kernel every SAMPLE_EVERY seconds, from a timer signal, while
    the code in the `with` block runs, so that a long job's factor follows
    the host's speed through the job and not only at its ends.

    The ticks run in this process between the block's own bytecodes, never
    alongside them; `now()` leaves their time out.  Main thread only, and
    the block must not wait for a child process, which would run while
    this process ticks.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        global _spent
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        _spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def measured(fn, *args):
    """Run fn(*args) between two probes and under a Sampler.

    Returns (its result, its time without the ticks, the kernel times taken).
    """
    before = probe()
    with Sampler() as sampler:
        t0 = now()
        result = fn(*args)
        dt = now() - t0
    return result, dt, [before, *sampler.samples, probe()]
