"""The process that does a workload's work; started by ``run.py``.

Protocol on stdin/stdout, one line each way:

1. The worker sets up (imports, op list from the seed, warm-up) and prints
   ``READY``.  ``run.py`` times launch-to-``READY`` as the set-up time.
2. It then reads one command:
   ``exit``          leave (a set-up-only launch),
   ``run DECKS``     run the seed's first DECKS decks; traced when the worker
                     was started with ``--trace-out``.
3. It prints one JSON line with the results and exits.

A traced run uses two fresh workers, one traced and one not, with the same
set-up and the same decks, so both passes start from the same cache state.
``--cli-in-process`` makes ``cli_jobs`` replay its jobs through
``darboux.cli.main(argv)``; both workers of a traced run use it.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cases  # noqa: E402
import ops  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

IN_PROCESS_WORKLOADS = ("grid_states", "spectra_certify")


def _label(op):
    if op["kind"] in ("golden", "user"):
        return op["name"]
    if op["kind"] == "state":
        return f"{op['case'][0]}/{op['case'][2]}"
    if op["kind"] == "spectrum":
        return f"spectrum/{op['family']}/{op['scheme']}"
    if op["kind"] == "building_block":
        return f"building_block/{op['case'][0]}"
    return f"{op['kind']}/{op['space']['family']}"


class Runner:
    def __init__(self, workload, seed, tmp, in_process_cli=False):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.in_process_cli = in_process_cli

    def one(self, index, op):
        """Run one op; returns its record (latency, ok, checked values)."""
        t0 = time.perf_counter()
        try:
            if op["kind"] in ("golden", "user"):
                out = self.tmp / f"{index}-{op['name']}"
                if self.in_process_cli:
                    code, data = ops.run_cli_inprocess(op, out)
                else:
                    code, data = ops.run_cli_subprocess(op, ROOT, out)
                checked = ops.check_cli_output(op, ROOT, code, data)
                out.unlink(missing_ok=True)
            else:
                checked = ops.IN_PROCESS[op["kind"]](op)
            ok, detail = True, checked
        except Exception as exc:  # an op that fails is counted, not fatal
            ok, detail = False, f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, ops.CheckFailed):
                traceback.print_exc(file=sys.stderr)
        return {"op": _label(op), "latency_s": time.perf_counter() - t0, "ok": ok,
                "detail": detail}

    def run_decks(self, count, tracer=None):
        """The seed's first ``count`` decks; returns (records, wall seconds)."""
        records, t_start = [], time.perf_counter()
        for deck_no, deck in enumerate(cases.first_decks(self.workload, self.seed, count)):
            for op in deck:
                i = len(records)
                if tracer is not None:
                    tracer.begin_op(i, _label(op))
                rec = self.one(i, op)
                if tracer is not None:
                    tracer.end_op()
                rec["deck"] = deck_no
                records.append(rec)
        return records, time.perf_counter() - t_start


def _peak_rss_mib(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli_jobs" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def _versions():
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def traced_run(runner, decks, trace_out, layer_metrics):
    tracer = Tracer()
    tracer.install()
    try:
        records, wall = runner.run_decks(decks, tracer)
    finally:
        tracer.uninstall()
    trace_out.write_text(json.dumps(tracer.dump()) + "\n")
    return {"records": records, "wall_s": wall,
            "layers": {m: tracer.layer_value(m) for m in layer_metrics}}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--cli-in-process", action="store_true")
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--layer-metrics", default="")
    args = ap.parse_args()

    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        serve(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def serve(args, tmp):
    if args.workload in IN_PROCESS_WORKLOADS or args.cli_in_process:
        import darboux
        for layer in LAYERS:
            __import__(f"darboux.{layer}")
        if Path(darboux.__file__).resolve().parent != ROOT / "src" / "darboux":
            raise SystemExit(f"imported darboux from {darboux.__file__}, not from the checkout")
    runner = Runner(args.workload, args.seed, tmp, in_process_cli=args.cli_in_process)
    if args.workload in IN_PROCESS_WORKLOADS or not args.cli_in_process:
        ops.warm_up(args.workload, ROOT, tmp)
    print("READY", flush=True)

    command = sys.stdin.readline().split()
    if not command or command[0] == "exit":
        return
    if command[0] != "run":
        raise SystemExit(f"unknown command {command!r}")
    decks = int(command[1])
    if args.trace_out is not None:
        result = traced_run(runner, decks, Path(args.trace_out),
                            [m for m in args.layer_metrics.split(",") if m])
    else:
        records, wall = runner.run_decks(decks)
        result = {"records": records, "wall_s": wall}
    result["peak_rss_mib"] = _peak_rss_mib(args.workload)
    result["versions"] = _versions()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
