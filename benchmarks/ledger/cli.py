"""Command line of the ledger.

    python -m benchmarks.ledger --seed 7                     all workloads
    python -m benchmarks.ledger --seed 7 --workload serve-warm
    python -m benchmarks.ledger --seed 7 --traced            + per-layer pass
    python -m benchmarks.ledger --seed 7 --smoke             small sizes
    python -m benchmarks.ledger compare DIR_A DIR_B

With ``--workload`` the run happens in this process and the last line of
standard output is the result object the ``BENCHMARK.json`` contract
asks for.  Without it, every workload runs in its own fresh child
process, ``--runs`` times with seeds ``seed, seed+1, ...``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from benchmarks.ledger import workloads as W

DEFAULT_SECONDS = 12.0
SMOKE_SECONDS = 1.5


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run "
                             f"(default {DEFAULT_SECONDS:g}; smoke "
                             f"{SMOKE_SECONDS:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced pass (per-layer metrics)")
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1; without --workload, run "
                             "the end-to-end pass and then the traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes: all five workloads in < 25 s")
    parser.add_argument("--runs", type=int, default=1,
                        help="without --workload: runs per workload")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="result directory "
                             "(default bench_results/ledger)")
    return parser


def main(argv: list[str] | None = None, started: float | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from benchmarks.ledger.compare import compare

        if len(argv) != 3:
            raise SystemExit("usage: compare DIR_A DIR_B")
        return compare(argv[1], argv[2])
    args = _parser().parse_args(argv)
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS)
    traced = bool(args.trace or args.traced)
    if args.workload:
        return _run_here(args, seconds, traced, started)
    return _run_children(args, seconds, traced)


def _run_here(args, seconds: float, traced: bool, started) -> int:
    from benchmarks.ledger import runner

    document = runner.run_workload(
        args.workload, args.seed, seconds, traced, smoke=args.smoke,
        started=started, out_dir=_out_dir(args))
    runner.print_report(document)
    print(runner.result_line(document), flush=True)
    return 0 if document["correct"] else 1


def _out_dir(args) -> str:
    from benchmarks.ledger import runner

    return os.path.abspath(args.out) if args.out else runner.RESULTS_DIR


def _run_children(args, seconds: float, traced: bool) -> int:
    """Each workload in its own fresh process, so peak RSS and the
    package's memo caches are per workload and the same every time."""
    from benchmarks.ledger import runner

    worst = 0
    out_dir = _out_dir(args)
    for number in range(args.runs):
        seed = args.seed + number
        for workload in W.WORKLOADS:
            for trace in ((0, 1) if traced else (0,)):
                command = [
                    sys.executable, "-m", "benchmarks.ledger",
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace),
                    "--out", out_dir,
                ]
                if args.smoke:
                    command.append("--smoke")
                done = subprocess.run(command, cwd=runner.ROOT, timeout=900)
                worst = max(worst, done.returncode)
            if traced and worst == 0:
                _print_overhead(workload, *(
                    runner.result_path(out_dir, workload, seed, bool(trace))
                    for trace in (0, 1)))
    return worst


def _print_overhead(workload: str, plain_path: str, traced_path: str) -> None:
    """Tracing overhead: how much the workload's own end-to-end rates
    drop when the same phases run under spans."""
    with open(plain_path, encoding="utf-8") as handle:
        plain = json.load(handle)["metrics"]
    with open(traced_path, encoding="utf-8") as handle:
        under = json.load(handle)["end_to_end_under_tracing"]
    drops = []
    for metric in W.END_TO_END:
        if metric.home == workload and metric.name in under:
            ratio = under[metric.name] / plain[metric.name]["value"]
            drops.append(1 - ratio if metric.better == "higher" else ratio - 1)
    if drops:
        print(f"  tracing overhead on {workload}: "
              f"{100 * sum(drops) / len(drops):+.1f} % "
              f"(mean change of its home metrics, traced vs untraced)",
              flush=True)
