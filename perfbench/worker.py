"""One benchmark iteration in a fresh process: import regimpute.cli, then
run a workload's user commands in-process through cli.main.

Usage (run.py starts it; PYTHONPATH must point at the checkout's src):
    python3 perfbench/worker.py --workload NAME --inputs DIR --out DIR --trace 0|1

The commands write to --out; the timings, exit codes and peak resident
memory go to <out>.json beside it. With --trace 1 the commands run under
tracing, the JSON also holds the per-layer metrics and the spans go to
spans.tsv beside --out.
"""

import time

import regimpute.cli as cli

IMPORTED_AT = time.monotonic()  # setup_s sample: run.py took the start time

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_commands(argvs, tracer=None):
    seconds, codes = [], []
    for argv in argvs:
        t0 = time.perf_counter()
        try:
            code = tracer.call(tracing.CLI, "main", cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        seconds.append(time.perf_counter() - t0)
        codes.append(code)
    return seconds, codes


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True)
    argvs = workloads.commands(workloads.WORKLOADS[args.workload], Path(args.inputs), out)
    result = {"regimpute_file": cli.__file__, "imported_at": IMPORTED_AT, "traced": bool(args.trace)}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        result["seconds"], result["exit_codes"] = run_commands(argvs, tracer)
        result["layers"] = tracing.layer_metrics(tracer, sum(result["seconds"]))
        tracing.write_spans(tracer, out.parent / "spans.tsv")
    else:
        result["seconds"], result["exit_codes"] = run_commands(argvs)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(out.parent / f"{out.name}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
