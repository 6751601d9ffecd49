"""The metrics ``BENCHMARK.json`` declares, and the numbers a run reports.

``BENCHMARK.json`` at the repository root is the one place that names the
metrics, their units and bounds and the seconds a run measures;
:func:`declared` reads it.  Every workload reports every metric: a layer
a workload never enters reads 0 there, which is the prediction "an
optimisation of that layer leaves this workload alone".  All times are
wall-clock.
"""

import functools
import json
import os
import platform
import statistics
import subprocess

from kgbench import ROOT


@functools.cache
def declared():
    """``BENCHMARK.json``, parsed.  ``end_to_end`` rows carry ``name``,
    ``unit``, ``better`` and ``bound``; ``per_layer`` rows the first
    three, grouped by layer = ``src/repro/<package>``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


MIN_COVERAGE = 0.90
MAX_OVERHEAD = 0.10


def median(samples):
    return statistics.median(samples) if samples else 0.0


def percentile(samples, share):
    """Nearest-rank percentile; 0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def peak_rss_mb(pid="self"):
    """``VmHWM`` of a process: the most memory it ever held resident."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def fingerprint():
    """Where and on what a result was measured."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # an exported checkout is not a git repository
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
    }
