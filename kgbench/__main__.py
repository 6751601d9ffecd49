"""``python -m kgbench``: the whole suite, or one run of one workload.

With ``--workload`` this is one measured run in this process, ending in
the one-line JSON result the benchmark contract prescribes (the form
``BENCHMARK.json``'s ``command`` is called in).  Without it, every
workload runs in a fresh child process of that form — timed, and with
``--traced`` traced as well — and the results land in one file.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

from kgbench import OUT, ROOT
from kgbench.metrics import MAX_OVERHEAD, MIN_COVERAGE, declared

SMOKE_SECONDS = 1.0


def detail_path(workload, traced):
    return os.path.join(OUT, f"{workload}.{'traced' if traced else 'timed'}.json")


def run_one(args):
    from kgbench.run import contract_line, execute, report_lines
    from kgbench.speed import confine

    # A terminated run still unwinds, so its child processes are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    confine()
    result = execute(
        args.workload, args.seed, args.seconds, args.trace, smoke=args.smoke
    )
    os.makedirs(OUT, exist_ok=True)
    with open(detail_path(args.workload, args.trace), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    print("\n".join(report_lines(result)))
    print(contract_line(result), flush=True)
    return 0


def run_suite(args):
    from kgbench.workloads import WORKLOADS

    seconds = args.seconds
    runs = []
    problems = []
    for repeat in range(args.runs):
        seed = args.seed + repeat
        for name in WORKLOADS:
            for traced in (False, True) if args.traced else (False,):
                command = [
                    sys.executable, "-m", "kgbench", "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(int(traced)),
                ] + (["--smoke"] if args.smoke else [])
                code = subprocess.run(command, cwd=ROOT).returncode
                if code != 0:
                    problems.append(f"{name} seed {seed}: exit code {code}")
                    continue
                with open(detail_path(name, traced), encoding="utf-8") as handle:
                    result = json.load(handle)
                runs.append(result)
                problems.extend(
                    f"{name} seed {seed}: {problem}"
                    for problem in gate(result)
                )
    out = args.out or os.path.join(OUT, "results.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(
            {"seed": args.seed, "smoke": args.smoke, "seconds": seconds,
             "runs": runs},
            handle, indent=1,
        )
        handle.write("\n")
    print(f"wrote {out}: {len(runs)} run(s)")
    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0


def gate(result):
    """Why a run does not count: a wrong output, or a trace that does
    not account for the time it claims to explain."""
    problems = []
    if not result["correct"]:
        problems.append(
            f"oracle mismatch ({result['failed']} of {result['attempted']})"
        )
    if result["traced"]:
        coverage = result["metrics"]["trace.coverage"]["value"]
        overhead = result["metrics"]["trace.overhead_share"]["value"]
        if coverage < MIN_COVERAGE:
            problems.append(f"trace.coverage {coverage:.3f} < {MIN_COVERAGE}")
        # A smoke run's operations take microseconds; its overhead
        # share is noise and gates nothing.
        if overhead > MAX_OVERHEAD and not result["smoke"]:
            problems.append(f"trace.overhead_share {overhead:.3f} > {MAX_OVERHEAD}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m kgbench", description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds each run measures (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="200 companies, one set-up, about a second per run")
    one = parser.add_argument_group("one run (the BENCHMARK.json command)")
    one.add_argument("--workload", help="run this workload in this process")
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    suite = parser.add_argument_group("the suite")
    suite.add_argument("--traced", action="store_true",
                       help="repeat each workload with spans recorded")
    suite.add_argument("--runs", type=int, default=1,
                       help="runs per workload, on seeds seed, seed+1, ...")
    suite.add_argument("--out", help="results file (default kgbench/out/results.json)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = (
            SMOKE_SECONDS if args.smoke else declared()["run_seconds"]
        )
    return run_one(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
