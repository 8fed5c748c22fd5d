"""Benchmark of the darboux package: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload cli_jobs --seed 1 --seconds 40 --trace 0

Run from the root of a checkout (it needs ``src/`` and ``tests/``).  With
``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` a separate traced run prints the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  A full record (provenance, every op's latency and
checked values, the tail percentile and its sample count) is written under
``perfbench/results/``.  The exit code is 0 only if every op passed its
check.

Each workload runs in a fresh worker process (``worker.py``) with one
caller and one thread.  Set-up is timed from launching the worker until it
is ready for its first op; the worker is launched ``SETUPS`` times and the
median is reported, the last launch doing the measured work.  That launch
runs a fixed number of whole decks, ``cases.deck_count(workload, seconds)``,
which takes about ``--seconds`` on a 2-vCPU VM.  A traced run launches two
workers on the same decks, one traced and one not, and reports the
difference of their wall times as ``trace.overhead_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUPS = 3
# Thread settings for run.py and every child alike, applied before numpy loads.
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# How many decks the traced run replays, per workload.
TRACE_DECKS = {"cli_jobs": 1, "grid_states": 1, "spectra_certify": 3}
# Per-layer metrics measured here rather than inside the traced worker.
OUTSIDE_TRACE = ("cli.python_start_s", "cli.import_s", "trace.overhead_s")
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
import cases  # noqa: E402


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def tail_latency(latencies):
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, n); with ten samples or fewer, the maximum.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def _git(*argv):
    if not (ROOT / ".git").exists():
        return None  # not a git checkout; do not report an enclosing repository
    try:
        r = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def provenance(args):
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {k: os.environ.get(k) for k in ("DARBOUX_THREADS", *THREAD_VARS)},
        "src_lines": _src_lines(),
    }


class Worker:
    """One launch of worker.py; times launch to READY."""

    def __init__(self, args, extra, deadline):
        self.deadline = deadline
        self.tmp = RESULTS / f"tmp-{os.getpid()}-{time.monotonic_ns()}"
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--tmp", str(self.tmp), *extra],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        line = self._readline()
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            self.close()
            fail(f"worker did not start: {line!r}")

    def _readline(self):
        left = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(left, 0.0))
        if not ready:
            self.close()
            fail("worker did not answer before the deadline")
        return self.proc.stdout.readline()

    def command(self, text):
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        if text == "exit":
            self.close()
            return None
        line = self._readline()
        self.close()
        if not line.strip():
            fail(f"worker exited with code {self.proc.returncode} and no result")
        return json.loads(line)

    def close(self):
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def median_subprocess_s(argv, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=child_env(), check=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(args, deadline):
    setups = []
    for i in range(SETUPS):
        w = Worker(args, [], deadline)
        setups.append(w.setup_s)
        if i < SETUPS - 1:
            w.command("exit")
    out = w.command(f"run {cases.deck_count(args.workload, args.seconds)}")
    records = out["records"]
    ok = sum(r["ok"] for r in records)
    lat = [r["latency_s"] for r in records]
    tail, pct, n = tail_latency(lat)
    metrics = {
        "ops_per_s": ok / out["wall_s"],
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": out["peak_rss_mib"],
    }
    extra = {"setup_runs_s": setups, "wall_s": out["wall_s"], "decks": records[-1]["deck"] + 1,
             "tail_percentile": pct, "latency_samples": n,
             "failed_frac": (len(records) - ok) / len(records), "versions": out["versions"]}
    return records, metrics, extra


def traced(args, deadline, layer_names):
    python = [sys.executable, "-c"]
    start = median_subprocess_s(python + ["pass"])
    imported = median_subprocess_s(python + ["import darboux.cli"])
    trace_out = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
    inside = [m for m in layer_names if m not in OUTSIDE_TRACE]
    replay = ["--cli-in-process"] if args.workload == "cli_jobs" else []
    run = f"run {TRACE_DECKS[args.workload]}"
    traced_out = Worker(args, [*replay, "--trace-out", str(trace_out),
                               "--layer-metrics", ",".join(inside)], deadline).command(run)
    plain_out = Worker(args, replay, deadline).command(run)
    metrics = dict(traced_out["layers"])
    metrics["cli.python_start_s"] = start
    metrics["cli.import_s"] = imported - start
    metrics["trace.overhead_s"] = traced_out["wall_s"] - plain_out["wall_s"]
    extra = {"wall_traced_s": traced_out["wall_s"], "wall_untraced_s": plain_out["wall_s"],
             "trace_file": str(trace_out.relative_to(ROOT)), "versions": traced_out["versions"]}
    return traced_out["records"] + plain_out["records"], metrics, extra


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    os.environ.update(THREAD_VARS)
    os.environ.pop("DARBOUX_THREADS", None)

    for need in ("BENCHMARK.json", "src/darboux/__init__.py", "tests/test_cli.py",
                 "tests/test_acceptance.py"):
        if not (ROOT / need).is_file():
            fail(f"{need} not found: run from the root of a darboux checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    drift = cases.mirror_drift(ROOT)
    if drift:
        fail("; ".join(drift))
    RESULTS.mkdir(exist_ok=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        records, values, extra = traced(args, deadline, [m["name"] for m in declared])
    else:
        records, values, extra = end_to_end(args, deadline)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed = sum(not r["ok"] for r in records)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}

    record = {"provenance": provenance(args), **extra, "result": result, "ops": records}
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for r in records:
        if not r["ok"]:
            print(f"FAILED {r['op']}: {r['detail']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
