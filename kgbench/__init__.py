"""kgbench — one harness for the KGModel pipeline.

Four workloads (batch materialization, single-stake updates, a mixed
query/delta service load, a change-feed drain), one protocol, end-to-end
metrics from an untraced run and per-layer metrics from a traced run
whose spans are recorded by wrappers this package installs around the
public callables of each ``src/repro/`` package.  See ``README.md``.
"""

import os
import sys

#: Repository checkout holding ``src/repro`` (the system under test).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Everything a run leaves behind (traces, detail files, stream logs,
#: serve inputs) goes here; the root ``.gitignore`` names it.
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def require_source() -> None:
    """Put ``src/`` on the path, or exit non-zero when it is not there.

    The benchmark measures the program in its own checkout, never an
    installed copy found elsewhere on the path.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(
            f"kgbench: no system under test at {SRC}/repro; run from a "
            "checkout of the repository\n"
        )
        raise SystemExit(3)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
