"""Set-up and measurement of one benchmark workload, run as a child process.

``perfbench/run.py`` starts this file once per set-up and once per measured
run, so each measured run has its own process: its peak RSS, its imports and
the ``ScaleSpace`` gradient caches belong to that run alone.  The child prints
one JSON object as the last line of its standard output.

    python3 perfbench/workloads.py setup   --workload W --seed N --work DIR --scale S
    python3 perfbench/workloads.py measure --workload W --seed N --work DIR --scale S
                                           --seconds T --min-loops K [--trace-out FILE]

Every workload runs the criterion-9 composite configuration in one process at
``--jobs 1`` with a single closed-loop client: the next request starts when
the previous one has returned.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from placevision import evaluate, pipeline, synth
from placevision.classify import UNKNOWN

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer  # noqa: E402

# The criterion-9 composite configuration (README "Configuration").
SVM_CONFIG = """\
features.parts = rgb,hsv,bovw
rgb.bins = 10x10x10
rgb.measure = jeffrey
hsv.bins = 18x10x10
hsv.measure = bhattacharyya
bovw.feature = sift
bovw.k = 100
bovw.measure = minkowski:1
vocab.max_iter = 40
classifier.kind = svm
classifier.kernel = rbf
classifier.c = 10
classifier.rbf_sigma = auto
seed = 7
"""
NN_CONFIG = SVM_CONFIG.replace("classifier.kind = svm", "classifier.kind = nn\nga.enabled = 1")

TRAIN_SEQUENCES = [1, 3]
HELD_OUT = [2]
CLASSES = 9
ACCURACY_FLOOR = 0.90  # criterion 9, checked on batch-96
FLOOR_Z = 3.29  # two-sided 99.9% Wilson interval

# Sizes per scale.  "full" is what BENCHMARK.json runs; "smoke" keeps the same
# code paths small enough for perfbench/smoke.py.
SCALES = {
    "full": {
        # batch-96: distinct synthetic datasets, one cold pass over each per
        # round; the accuracy floor is judged on their pooled held-out rows.
        "batch_datasets": 3,
        "batch_per_class": 9,
        # gallery-nn: a cached gallery re-run warm under many config seeds per
        # round; the GA's thresholds, and so the accuracy, swing widely from
        # one seed to the next, so the round pools 24 of them.  Eight training
        # images per room keep the GA's validation split from taking every
        # example of a room (a clean data error of run_train) on any seed.
        "gallery_per_class": 12,
        "gallery_config_seeds": 24,
    },
    "smoke": {
        "batch_datasets": 1,
        "batch_per_class": 3,
        "gallery_per_class": 3,
        "gallery_config_seeds": 1,
    },
}

QUIET = lambda msg: None  # noqa: E731


class CheckFailed(Exception):
    """An output check failed: the program's answer is wrong or unstable."""


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_predictions(pred_path, held_out: pipeline.Manifest, labels, reported=frozenset()) -> None:
    """Every held-out row gets exactly one prediction, a known label or UNKNOWN.

    Rows in ``reported`` are ones the program warned it could not use (an
    unreadable image, or one without descriptors); they count as failed
    requests, not as silently wrong answers, so they may lack a prediction.
    """
    lines = Path(pred_path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "path,predicted,score":
        raise CheckFailed(f"{pred_path}: missing predictions header")
    allowed = set(labels) | {UNKNOWN}
    seen = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.rsplit(",", 2)
        if len(parts) != 3:
            raise CheckFailed(f"{pred_path}: malformed row {line!r}")
        path, label, score = parts
        if label not in allowed:
            raise CheckFailed(f"{pred_path}: {path}: unknown label {label!r}")
        try:
            float(score)
        except ValueError as exc:
            raise CheckFailed(f"{pred_path}: {path}: bad score {score!r}") from exc
        seen[path] = seen.get(path, 0) + 1
    expected = {r.path for r in held_out.rows}
    doubled = sorted(p for p, n in seen.items() if n != 1)
    missing = sorted(expected - set(seen) - set(reported))
    extra = sorted(set(seen) - expected)
    if doubled or missing or extra:
        raise CheckFailed(
            f"{pred_path}: {len(missing)} held-out rows without a prediction, "
            f"{len(doubled)} with several, {len(extra)} not held out"
        )


def accuracy_upper_bound(accuracy: float, n: int, z: float = FLOOR_Z) -> float:
    """Upper end of the Wilson score interval for an accuracy measured on n rows.

    The floor fails a run only when its accuracy is below the floor by more
    than sampling error explains.  On one round's 81 held-out rows the
    unchanged program makes 1 to 13 errors depending on the seed (about 6%
    on average, clustered in a few room pairs), so a literal 0.90 floor
    fails about one seed in ten; here a run fails at 17 or more errors.
    """
    centre = (accuracy + z * z / (2 * n)) / (1 + z * z / n)
    half = z * ((accuracy * (1 - accuracy) / n + z * z / (4 * n * n)) ** 0.5) / (1 + z * z / n)
    return centre + half


def read_predictions(pred_path):
    rows = Path(pred_path).read_text(encoding="utf-8").splitlines()[1:]
    return [tuple(line.rsplit(",", 2)) for line in rows if line.strip()]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def thread_count() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 1


# ---------------------------------------------------------------------------
# batch-96 and gallery-nn: passes through the pipeline stages
# ---------------------------------------------------------------------------

def _stages(data_dir: Path, config, out: Path, log):
    manifest = pipeline.read_manifest(data_dir / "manifest.tsv")
    train = manifest.select(TRAIN_SEQUENCES)
    held = manifest.select(HELD_OUT)
    return manifest, held, [
        ("features", lambda: pipeline.run_features(manifest, config, out, jobs=1, log=log)),
        ("vocab", lambda: pipeline.run_vocab(train, config, out, log=log)),
        ("encode", lambda: pipeline.run_encode(manifest, config, out, log=log)),
        ("train", lambda: pipeline.run_train(train, config, out, log=log)),
        ("predict", lambda: pipeline.run_predict(held, config, out, log=log)),
        ("evaluate", lambda: pipeline.run_evaluate(out / "predictions.csv", held, out / "report", log=log)),
    ]


def _run_pass(data_dir, config, out, tracer, tag):
    """One timed pass.

    Returns (seconds, manifest, held-out manifest, ok rows, held-out rows
    the program warned about).
    """
    messages = []
    manifest, held, stages = _stages(data_dir, config, out, messages.append)
    ok = None
    started = time.perf_counter()
    for name, stage in stages:
        if tracer is not None:
            tracer.request = f"{tag}:{name}"
        result = stage()
        if name == "features":
            ok = result
    elapsed = time.perf_counter() - started
    warnings = [m for m in messages if m.startswith("warning:")]
    reported = {r.path for r in held.rows if any(f" {r.path}:" in m for m in warnings)}
    return elapsed, manifest, held, ok, reported


def tree_sha256(root: Path) -> str:
    """One digest over every file under ``root``: relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def setup_batch(work: Path, seed: int, sizes) -> None:
    for j in range(sizes["batch_datasets"]):
        synth.generate_dataset(work / f"data{j}", CLASSES, sizes["batch_per_class"], 96, seed * 1000 + j)


def setup_gallery(work: Path, seed: int, sizes) -> None:
    config = pipeline.parse_config_text(NN_CONFIG)
    synth.generate_dataset(work / "data0", CLASSES, sizes["gallery_per_class"], 96, seed * 1000)
    manifest = pipeline.read_manifest(work / "data0" / "manifest.tsv")
    ok = pipeline.run_features(manifest, config, work / "out0", jobs=1, log=QUIET)
    if len(ok) != len(manifest.rows):
        raise CheckFailed(f"cold features skipped {len(manifest.rows) - len(ok)} images")


EXTRACTED = (".hash", ".desc", ".rgb.csv", ".hsv.csv")  # what run_features writes per image


def _feature_stamps(out: Path):
    return {p.name: p.stat().st_mtime_ns for p in (out / "features").iterdir() if p.name.endswith(EXTRACTED)}


def _variants(workload, sizes):
    """(key, dataset, config) of every pass in one round."""
    if workload == "batch-96":
        config = pipeline.parse_config_text(SVM_CONFIG)
        return [(f"data{j}", j, config) for j in range(sizes["batch_datasets"])]
    base = pipeline.parse_config_text(NN_CONFIG)
    out = []
    for k in range(sizes["gallery_config_seeds"]):
        seed = base.seed + k  # moves the k-means start, the GA's split and its search
        config = dataclasses.replace(base, seed=seed, ga=dataclasses.replace(base.ga, seed=seed))
        out.append((f"seed{seed}", 0, config))
    return out


def measure_passes(workload, work: Path, sizes, seconds, min_loops, tracer):
    """Closed loop of pipeline passes, one per dataset (and config seed) in turn.

    A round is one pass over every variant; a run makes at least
    ``min_loops`` rounds and stops after the pass that reaches ``seconds``.
    A pass is a request.  An untimed, untraced warm-up pass over the first
    variant comes first; its artifacts must equal those of the first timed
    pass.  batch-96 passes are cold (a fresh artifact directory each time):
    one train-and-score job on one dataset.  gallery-nn passes re-use the
    features set-up extracted.  Accuracy pools the held-out rows of one pass
    per variant.
    """
    cold = workload == "batch-96"
    variants = _variants(workload, sizes)
    pass_s, attempted, failures = [], 0, []
    digests, pooled, checks = {}, {}, []
    i = -1  # the warm-up pass
    while i < min_loops * len(variants) or time.perf_counter() - started < seconds:
        if i == 0:
            if tracer is not None:
                tracer.install()
            started = time.perf_counter()
        key, j, config = variants[max(i, 0) % len(variants)]
        out = work / (f"pass{i}" if cold else "out0")
        stamps = None if cold else _feature_stamps(out)
        dt, manifest, held, ok, reported = _run_pass(work / f"data{j}", config, out, tracer, f"pass{i}")
        if i >= 0:
            pass_s.append(dt)
        if stamps is not None and _feature_stamps(out) != stamps:
            checks.append(f"pass {i}: features stage rewrote cached artifacts")
        try:
            check_predictions(out / "predictions.csv", held, manifest.labels, reported)
        except CheckFailed as exc:
            checks.append(f"pass {i}: {exc}")
        preds = read_predictions(out / "predictions.csv")
        attempted += len(manifest.rows) + len(held.rows)
        skipped = sorted({r.path for r in manifest.rows} - set(ok))
        unanswered = sorted({r.path for r in held.rows} - {p for p, _, _ in preds})
        failures += [f"pass {i}: {key}: features skipped {p}" for p in skipped]
        failures += [f"pass {i}: {key}: no prediction for {p}" for p in unanswered]
        run_digests = {f: sha256_file(out / f) for f in ("vocab.bin", "model.bin", "predictions.csv")}
        if digests.setdefault(key, run_digests) != run_digests:
            checks.append(f"pass {i}: artifacts of {key} differ from an earlier pass")
        if key not in pooled:
            truth = {r.path: r.label for r in held.rows}
            pooled[key] = (manifest.labels, [(truth[p], lb, float(s)) for p, lb, s in preds if p in truth])
        if cold:
            shutil.rmtree(out)
        i += 1
    if tracer is not None:
        tracer.uninstall()
    labels = sorted({lb for lbs, _ in pooled.values() for lb in lbs})
    triples = [t for _, ts in pooled.values() for t in ts]
    report = evaluate.build_report(
        [p for _, p, _ in triples], [t for t, _, _ in triples], scores=[s for _, _, s in triples], labels=labels
    )
    if cold and accuracy_upper_bound(report.accuracy, len(triples)) < ACCURACY_FLOOR:
        checks.append(
            f"held-out accuracy {report.accuracy:.4f} over {len(triples)} rows is significantly "
            f"below the criterion-9 floor {ACCURACY_FLOOR}"
        )
    return {
        "requests": pass_s,
        "loops": len(pass_s) // len(variants),
        "request_unit": "pass",
        "accuracy": report.accuracy,
        "f_measure": report.aggregate[2],
        "unknown_frac": sum(p == UNKNOWN for _, p, _ in triples) / len(triples),
        "held_out_rows": len(triples),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digests": digests,
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run
# ---------------------------------------------------------------------------

TIMED_LAYERS = [
    "pipeline.features", "pipeline.vocab", "pipeline.encode", "pipeline.train",
    "pipeline.predict", "pipeline.evaluate",
    "sift.scale_space", "sift.dog", "sift.extrema", "sift.refine", "sift.orientation",
    "sift.descriptor", "sift.desc_io", "image.gaussian_blur",
    "histograms.compute", "histograms.csv_write", "histograms.csv_read", "image.load_pnm",
    "bovw.kmeans", "bovw.encode", "distances.pairwise",
    "classify.nn_distances", "classify.ga", "classify.svm_train",
    "modelio.io", "evaluate.report",
]
PER_REQUEST_COUNTS = [
    "sift.candidates", "sift.desc_bytes", "bovw.kmeans_iters", "distances.pairwise_cells",
    "classify.support_vectors", "modelio.model_bytes",
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_requests: int, result: dict) -> dict:
    """Per-layer numbers, each per request (one pass)."""
    self_s = tracer.self_times()
    c = tracer.counts
    out = {f"{name}_s": self_s.get(name, 0.0) / n_requests for name in TIMED_LAYERS}
    for name in PER_REQUEST_COUNTS:
        out[name] = c.get(name, 0) / n_requests
    out["pipeline.cache_hit_frac"] = 1.0 - _ratio(c.get("image.load_pnm_calls", 0), c.get("pipeline.rows", 0))
    out["sift.refine_accept_frac"] = _ratio(c.get("sift.refine_accepted", 0), c.get("sift.refine_calls", 0))
    out["sift.orientations_per_kp"] = _ratio(c.get("sift.oriented_keypoints", 0), c.get("sift.orientation_calls", 0))
    out["sift.descriptor_keep_frac"] = _ratio(c.get("sift.descriptor_kept", 0), c.get("sift.descriptor_calls", 0))
    kps = tracer.samples.get("sift.keypoints_per_image", [])
    out["sift.keypoints_per_image_p50"] = float(statistics.median(kps)) if kps else 0.0
    out["classify.unknown_frac"] = result["unknown_frac"]
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

SETUP = {"batch-96": setup_batch, "gallery-nn": setup_gallery}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("phase", choices=["setup", "measure"])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--scale", default="full", choices=sorted(SCALES))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-loops", type=int, default=1)
    ap.add_argument("--trace-out", type=Path, default=None, help="trace here (spans written as gzip JSON)")
    args = ap.parse_args(argv)
    sizes = SCALES[args.scale]

    if args.phase == "setup":
        started = time.perf_counter()
        SETUP[args.workload](args.work, args.seed, sizes)
        setup_s = time.perf_counter() - started
        print(json.dumps({"setup_s": setup_s, "digests": {"tree": tree_sha256(args.work)}}))
        return 0

    tracer = Tracer() if args.trace_out else None
    result = measure_passes(args.workload, args.work, sizes, args.seconds, args.min_loops, tracer)
    result["peak_rss_mb"] = peak_rss_mb()
    result["threads"] = thread_count()
    result["numpy"] = np.__version__
    result["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, len(result["requests"]), result)
        tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
