"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Case tables: ``cases.GATES`` equals ``tests/test_acceptance.GATES`` and
   ``cases.GOLDEN_JOBS`` equals ``tests/test_cli.JOBS`` (imported read-only).
2. Documentation: ``layers.json`` documents every workload of ``cases.py``
   and every per-layer metric of ``BENCHMARK.json``, and nothing else; the
   workloads it marks ``by_hand`` are exactly those ``BENCHMARK.json`` leaves
   out.
3. Determinism, for every workload: seed ``SEED`` gives the same op list
   twice, and two traced runs with it report identical counts.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import cases  # noqa: E402

COUNT_UNITS = ("count", "bytes")
SEED = 1


def check(ok, label, failures):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}", flush=True)
    if not ok:
        failures.append(label)


def traced_counts(workload, seed):
    r = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(r.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in COUNT_UNITS}


def main():
    failures = []

    drift = cases.mirror_drift(ROOT)
    check(not drift, "case tables mirror the tests" + (f": {drift}" if drift else ""), failures)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    docs = json.loads((HERE / "layers.json").read_text())
    by_hand = sorted(w for w, d in docs["workloads"].items() if "by_hand" in d)
    gated = sorted(w["name"] for w in spec["workloads"])
    check(sorted(docs["workloads"]) == sorted(cases.WORKLOADS) == sorted(gated + by_hand),
          "workloads documented", failures)
    documented = [m for group in docs["per_layer"] for m in group["metrics"]]
    check(sorted(documented) == sorted(m["name"] for m in spec["per_layer"]),
          "every per-layer metric documented once", failures)

    for workload in cases.WORKLOADS:
        a = json.dumps(cases.first_decks(workload, SEED, 3))
        b = json.dumps(cases.first_decks(workload, SEED, 3))
        check(a == b, f"{workload}: seed {SEED} gives the same op list twice", failures)
        first, second = traced_counts(workload, SEED), traced_counts(workload, SEED)
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        check(first and not diff, f"{workload}: traced counts repeat for seed {SEED}"
              + (f": {diff}" if diff else f" ({len(first)} counts)"), failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
