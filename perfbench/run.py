#!/usr/bin/env python3
"""placevision benchmark: one workload run, end-to-end or traced.

    python3 perfbench/run.py --workload batch-96 --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports ``placevision`` from
``src/`` and writes only under ``.bench_work/`` (scratch, removed at exit) and
``.bench_runs/`` (run records, traces and the artifact-digest registry).

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
the workload untraced and then traced for the same number of requests, and
prints the per-layer metrics plus ``trace.overhead_frac``.  Set-up and every
measured run are separate child processes (``perfbench/workloads.py``), each
with one BLAS/OpenMP thread.  The last line of standard output is one JSON
object; the exit code is 0 when every output check passed, 1 when one failed
and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Per workload: set-up repetitions (setup_s is their median).  A run makes at
# least one round (one pass per dataset or config seed) and measures for at
# least --seconds; gallery-nn's cold set-up takes ~7 s, so it is repeated
# twice rather than three times to keep a run near a minute.
SETUP_REPS = {"batch-96": 3, "gallery-nn": 2}

END_TO_END = [
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p75", "ms"),
    ("accuracy", "ratio"),
    ("f_measure", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
]

PER_LAYER_UNITS = {"_s": "s", "_frac": "ratio", "_bytes": "bytes"}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_DEADLINE_S = 170  # a run, all its children included, must end within 180 s


class RunError(Exception):
    """The run could not be made (not an output check)."""


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path):
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return top[1] if len(top) == 2 and Path(top[0]).resolve() == root.resolve() else None


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in THREAD_VARS:
        env[var] = "1"  # one client, one compute thread
    return env


def run_child(root: Path, args, deadline: float) -> dict:
    """Run workloads.py; subprocess.run kills and reaps it at the deadline."""
    cmd = [sys.executable, str(HERE / "workloads.py")] + [str(a) for a in args]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{args[0]} passed the {RUN_DEADLINE_S}s run deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def percentiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[1], q[2]


def check_digests(registry: Path, key: str, digests: dict, checks: list) -> None:
    """Flag artifacts that differ from an earlier run of the same code and inputs."""
    known = json.loads(registry.read_text()) if registry.exists() else {}
    for name, value in digests.items():
        seen = known.setdefault(f"{key}|{name}", value)
        if seen != value:
            checks.append(f"{name}: sha256 differs from an earlier run of the same code and seed")
    tmp = registry.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(registry)


def flatten_digests(result: dict) -> dict:
    return {f"{group}/{name}": v for group, files in result["digests"].items() for name, v in files.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(SETUP_REPS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--scale", default="full", choices=["full", "smoke"], help="smoke: tiny inputs, for perfbench/smoke.py")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "placevision" / "__init__.py").is_file():
        print(f"error: {root} holds no placevision source tree (src/placevision)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    runs = root / ".bench_runs"
    runs.mkdir(exist_ok=True)
    work = root / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", args.seed, "--scale", args.scale]
    checks = []
    try:
        setups = []
        for rep in range(SETUP_REPS[args.workload]):
            setups.append(run_child(root, ["setup", *common, "--work", work / f"setup{rep}"], deadline))
            if rep:
                shutil.rmtree(work / f"setup{rep}")
                if setups[rep]["digests"] != setups[0]["digests"]:
                    checks.append(f"set-up {rep} built different artifacts than set-up 0")
        data = work / "setup0"

        def measure(seconds, min_loops, trace_out=None):
            extra = ["--trace-out", trace_out] if trace_out else []
            return run_child(root, ["measure", *common, "--work", data, "--seconds", seconds,
                                    "--min-loops", min_loops, *extra], deadline)

        if args.trace:
            plain = measure(args.seconds / 2, 1)
            trace_file = runs / f"trace-{args.workload}-seed{args.seed}.json.gz"
            traced = measure(0, plain["loops"], trace_file)
            measured = [plain, traced]
        else:
            measured = [measure(args.seconds, 1)]
    except (RunError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    nproc = len(os.sched_getaffinity(0))
    digest = src_digest(root)
    for result in measured:
        checks.extend(result["checks"])
        if result["threads"] > nproc:
            checks.append(f"measured process ran {result['threads']} threads on {nproc} cpus")
        check_digests(
            runs / "digests.json", f"{args.workload}|{args.scale}|seed{args.seed}|{digest}",
            {**flatten_digests(result), **{f"setup/{k}": v for k, v in setups[0]["digests"].items()}},
            checks,
        )
    attempted = sum(r["attempted"] for r in measured)
    failed = sum(r["failed"] for r in measured)

    if args.trace:
        plain, traced = measured
        base = statistics.median(plain["requests"])
        metrics = {name: (value, layer_unit(name)) for name, value in traced["layers"].items()}
        metrics["trace.overhead_frac"] = ((statistics.median(traced["requests"]) - base) / base, "ratio")
    else:
        (result,) = measured
        passes = result["requests"]
        p50, p75 = percentiles(passes)
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "pipeline_s": sum(passes) / len(passes),
            "query_ms_p50": 1000.0 * p50,
            "query_ms_p75": 1000.0 * p75,
            "accuracy": result["accuracy"],
            "f_measure": result["f_measure"],
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}

    correct = not checks
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "correct": correct,
        "checks": checks,
        "failures": [f for r in measured for f in r["failures"]],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": {
            "setup_s": [s["setup_s"] for s in setups],
            "request_unit": measured[-1]["request_unit"],
            "requests_s": [r["requests"] for r in measured],
            "held_out_rows": [r["held_out_rows"] for r in measured],
        },
        "digests": [flatten_digests(r) for r in measured],
        "provenance": {
            "commit": git_commit(root),
            "src_sha256": digest,
            "nproc": nproc,
            "threads": [r["threads"] for r in measured],
            "thread_env": {v: child_env(root)[v] for v in THREAD_VARS},
            "python": platform.python_version(),
            "numpy": measured[-1]["numpy"],
            "blas": measured[-1]["blas"],
            "machine": platform.machine(),
            "finished_unix": time.time(),
        },
    }
    (runs / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for line in record["failures"]:
        print(f"failed request: {line}", file=sys.stderr)
    for line in checks:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    counts = ", ".join(f"{len(r['requests'])} requests" for r in measured)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {counts} (one request = one {measured[-1]['request_unit']})")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
