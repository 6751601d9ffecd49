"""How fast the host is right now, from a control loop beside the run.

The shared two-core box this benchmark was written on does not hold its
speed: a virtual CPU flips between a fast and a slow mode every few tens
of milliseconds, and the share of slow slices drifts over seconds and
minutes.  The same pure-Python loop, alone on the box, takes 0.7x to 1.5x
its usual time; over 20 s windows its mean differs by 15% between
quartiles, and so do wall-clock medians of any two runs of the same code
(``acceptance/raw.txt``).  No statistic of one run's wall-clock times
removes that, so the run carries a control: a child process executes a
fixed pure-Python loop ten times a second for as long as the workload
runs, noting its own CPU time and the CPU's steal counter, and the three
end-to-end times are reported in *reference* milliseconds and seconds
(``op_p50_ms`` in ``ref_ms``, ``throughput_per_s`` in ``1/ref_s``, and
``setup_s``, whose unit the benchmark contract fixes as ``s``): the wall
time of each CPU-bound operation divided by :meth:`HostSpeed.factor` over
its interval.  A reference second is a
second on a host where the loop takes :attr:`HostSpeed.REFERENCE` of CPU
time, about what this box does at its usual speed; on another machine or
Python build the constant rescales every value alike, so results compare
between commits on one machine, not between machines.  Everything else
(every per-layer time, the stream transport with its ``fsync``s) is
wall-clock time as measured, and ``host.speed_factor`` says how slow the
host was.

The loop only sees the speed of the CPU it runs on, and the two virtual
CPUs' speeds wander apart, so :func:`confine` puts every process of a run
on one CPU.  Nothing in these workloads waits for anything but that CPU
(the serve clients talk to the child over loopback) except ``fsync``,
which is why dividing by CPU speed is sound and where it is not done.
The loop costs the system under test about 5% of the CPU, the same on
every commit.
"""

import bisect
import os
import statistics
import subprocess
import sys
import tempfile

from kgbench import OUT

_LOOP = """
import os, sys, time
parent = os.getppid()
cpus = {f"cpu{n}" for n in os.sched_getaffinity(0)}
tick = os.sysconf("SC_CLK_TCK")

def stolen():  # seconds the hypervisor kept this process's CPUs from it
    with open("/proc/stat") as stat:
        return sum(
            int(line.split()[8]) for line in stat if line.split()[0] in cpus
        ) / tick

while os.getppid() == parent:  # an orphan stops by itself
    start = time.perf_counter()
    cpu = time.process_time()  # not the wall: time off the CPU is not speed
    table = {}
    for index in range(10000):
        table[(index, str(index))] = index * 3 % 11
    sum(value for key, value in sorted(table.items()) if key[0] % 3)
    spent = time.process_time() - cpu
    sys.stdout.write(f"{start!r} {spent!r} {stolen()!r}\\n")
    sys.stdout.flush()
    time.sleep(0.1)
"""


def confine():
    """Keep this process, and every child it starts from now on, on the
    last CPU it may use (the first takes most of the interrupts)."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class HostSpeed:
    #: CPU seconds the loop takes on the reference host (factor 1.0).
    REFERENCE = 0.005
    #: How far around an interval samples still speak for it, seconds.
    REACH = 1.0

    def __init__(self):
        self._child = None
        self._starts = []
        self._seconds = []
        self._stolen = []

    def start(self):
        os.makedirs(OUT, exist_ok=True)
        handle, self._path = tempfile.mkstemp(prefix="speed-", dir=OUT)
        self._child = subprocess.Popen(
            [sys.executable, "-c", _LOOP], stdout=handle
        )
        os.close(handle)

    def refresh(self):
        """Take in the samples the child has written so far.  Both
        processes read ``CLOCK_MONOTONIC``, so the times compare."""
        if self._child is None:
            return
        self._starts, self._seconds, self._stolen = [], [], []
        with open(self._path, encoding="ascii") as handle:
            for line in handle:
                if line.endswith("\n"):  # the last line may be half written
                    start, seconds, stolen = line.split()
                    self._starts.append(float(start))
                    self._seconds.append(float(seconds))
                    self._stolen.append(float(stolen))

    def stop(self):
        if self._child is None:
            return
        self._child.terminate()
        self._child.wait()
        self.refresh()
        self._child = None
        os.remove(self._path)

    def factor(self, start, end):
        """How much slower than the reference host the CPU was around
        ``[start, end]`` (above 1: slower); 1 when nothing was sampled.

        Two things slow a process here, and the guest kernel keeps them
        apart: the CPU executes more slowly, which the loop's CPU time
        shows (its mean, not its median: what slows an operation is the
        share of slow slices it met), and the hypervisor takes the CPU
        away, which the kernel leaves out of a task's CPU time and
        counts as steal in ``/proc/stat``."""
        if not self._starts:
            return 1.0
        low = bisect.bisect_left(self._starts, start - self.REACH)
        high = bisect.bisect_right(self._starts, end + self.REACH)
        if low == high:  # nothing that close: the samples either side
            low, high = max(0, low - 1), low + 1
        slowdown = statistics.fmean(self._seconds[low:high]) / self.REFERENCE
        wall = self._starts[high - 1] - self._starts[low]
        stolen = self._stolen[high - 1] - self._stolen[low]
        running = 1.0 - min(stolen / wall, 0.9) if wall > 0 else 1.0
        return slowdown / running

    def at_reference(self, intervals):
        """Seconds of each ``(start, end)`` at the reference speed."""
        self.refresh()
        return [
            (end - start) / self.factor(start, end) for start, end in intervals
        ]
