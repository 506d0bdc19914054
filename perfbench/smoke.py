#!/usr/bin/env python3
"""Small-size self-test of the benchmark.  Run from the repository root:

    python3 perfbench/smoke.py

1. Every workload, end-to-end and traced, at ``--scale smoke``: the last
   stdout line must carry exactly the metrics BENCHMARK.json names, each
   with its unit, and an exit code that agrees with ``correct``.
2. Tampered ``predictions.csv`` files (a held-out row dropped, a row doubled,
   a label nobody trained) must fail the output check.

Smoke inputs are too small for the criterion-9 accuracy floor, so ``correct``
may be false here; the full-size runs are what BENCHMARK.json measures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SEED = 5


def check_command(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
                   "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert proc.returncode == (0 if result["correct"] else 1), (workload, trace, proc.returncode)
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            print(f"ok   {workload} trace={trace}: {len(got)} metrics with units, correct={result['correct']}")


def check_tampering() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    work = ROOT / ".bench_work" / "smoke-tamper"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workloads.setup_batch(work, SEED, workloads.SCALES["smoke"])
        config = workloads.pipeline.parse_config_text(workloads.SVM_CONFIG)
        _, manifest, held, _, _ = workloads._run_pass(work / "data0", config, work / "out", None, "smoke")
        pred = work / "out" / "predictions.csv"
        workloads.check_predictions(pred, held, manifest.labels)  # untouched: passes
        lines = pred.read_text().splitlines()
        path, _, score = lines[1].rsplit(",", 2)
        tampered = {
            "dropped row": lines[:1] + lines[2:],
            "doubled row": lines + lines[1:2],
            "unknown label": lines[:1] + [f"{path},Kitchen,{score}"] + lines[2:],
        }
        for what, rows in tampered.items():
            pred.write_text("\n".join(rows) + "\n")
            try:
                workloads.check_predictions(pred, held, manifest.labels)
            except workloads.CheckFailed as exc:
                print(f"ok   tampered predictions.csv ({what}) fails: {exc}")
            else:
                raise AssertionError(f"tampered predictions.csv ({what}) passed the output check")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_command(spec)
    check_tampering()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
