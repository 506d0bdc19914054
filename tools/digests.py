#!/usr/bin/env python3
"""Whole-tree sha256 of every run of the byte-identity matrix.

    OPENBLAS_NUM_THREADS=1 python3 tools/digests.py --jobs 1 > digests.json
    OPENBLAS_NUM_THREADS=1 python3 tools/digests.py --jobs 1 --src OTHER/src > other.json
    diff digests.json other.json

Each run goes through the CLI stages on a small synthetic dataset (9 rooms x
9 images, 96 px, k = 30): features, then vocab and train on sequences 1 and 3,
encode, then predict and evaluate on sequence 2.  Across the runs every
choice of every configuration key appears at least once, where it is used
(``tests/test_digests.py`` checks this against ``pipeline._CONFIG_KEYS``).
The gallery-nn benchmark configuration follows on its dataset seed 1000 at
config seeds 7-30.  The script prints one JSON object: run name ->
``{"tree": sha256 over the run's artifact directory (relative paths, byte
counts and bytes), "files": {relative path: sha256 of the file}}``, so a
diff of two outputs shows which files of a run differ.

``--src`` names the ``src`` directory whose ``placevision`` runs (default:
this checkout's), so one copy of this script digests any checkout.  Artifact
bytes depend on the BLAS thread count, so compare digests made under one
``OPENBLAS_NUM_THREADS`` setting.  The runs of a group share a dataset and a
feature configuration: its features are extracted once and copied into each
run's directory, whose features stage then finds every image cached.
Stdlib only, apart from the ``placevision`` it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

CRITERION_10 = "features.parts = rgb,hsv,bovw\nbovw.k = 30\nvocab.max_iter = 20\nseed = 11\n"

# perfbench/workloads.py NN_CONFIG (a test keeps the two equal)
GALLERY_NN = """\
features.parts = rgb,hsv,bovw
rgb.bins = 10x10x10
rgb.measure = jeffrey
hsv.bins = 18x10x10
hsv.measure = bhattacharyya
bovw.feature = sift
bovw.k = 100
bovw.measure = minkowski:1
vocab.max_iter = 40
classifier.kind = nn
ga.enabled = 1
classifier.kernel = rbf
classifier.c = 10
classifier.rbf_sigma = auto
seed = 7
"""

NN_GA = "classifier.kind = nn\nga.enabled = 1\n"

# group -> ((images per room, dataset seed), feature configuration,
#           {run: configuration lines added to the group's})
# A run's lines leave the group's features record alone, so its cache
# holds.  No run takes kl, bhattacharyya, match or emd as vocab.distance,
# which the configuration refuses: they compare only rows of one total mass,
# and k-means clusters raw descriptors.
GROUPS = {
    "sift": ((9, 11), CRITERION_10, {
        "criterion10-svm": "classifier.kind = svm\n",
        "svm-linear-cap1500": "classifier.kernel = linear\nvocab.distance = minkowski:3\n"
                              "vocab.sample_cap = 1500\n",
        "nn-ga": NN_GA,
        "nn-ga-incremental-minkowski1": NN_GA + "vocab.builder = incremental\n"
                                        "vocab.distance = minkowski:1\nvocab.threshold = 0.45\n",
    }),
    "sift-euclidean-kl-chi2": ((9, 11), CRITERION_10 + "rgb.measure = euclidean\n"
                               "hsv.measure = kl\nbovw.measure = chi2\n", {
        "nn-kmeans-chi2": "classifier.kind = nn\nvocab.distance = chi2\n",
        "svm-chi2-incremental-chi2sym": "classifier.kernel = chi2\nvocab.builder = incremental\n"
                                        "vocab.distance = chi2sym\nvocab.threshold = 0.3\n",
    }),
    "sift-chi2sym-emd-minkowski3": ((9, 11), CRITERION_10 + "rgb.measure = chi2sym\n"
                                    "hsv.measure = emd\nbovw.measure = minkowski:3\n", {
        "nn-ga-incremental-jeffrey": NN_GA + "vocab.builder = incremental\n"
                                     "vocab.distance = jeffrey\nvocab.threshold = 0.1\n",
        "nn-kmeans-chi2sym": "classifier.kind = nn\nvocab.distance = chi2sym\n",
    }),
    "rgbsift-match": ((9, 11), CRITERION_10 + "bovw.feature = rgbsift\nrgb.measure = match\n", {
        "nn-ga-kmeans-jeffrey": NN_GA + "vocab.distance = jeffrey\n",
        "svm-kmeans": "classifier.kind = svm\n",
    }),
    "asift": ((9, 11), CRITERION_10 + "bovw.feature = asift\n", {
        "nn-kmeans": "classifier.kind = nn\n",
        "svm-linear-kmeans-minkowski1": "classifier.kernel = linear\nvocab.distance = minkowski:1\n",
    }),
    "gallery-nn": ((12, 1000), GALLERY_NN, {f"seed{s}": f"seed = {s}\n" for s in range(7, 31)}),
}


def runs():
    """(group, run name, full configuration text) of every run, in order."""
    return [
        (group, f"{group}/{name}", base + extra)
        for group, (_, base, variants) in GROUPS.items()
        for name, extra in variants.items()
    ]


def tree_sha256(root: Path) -> str:
    """One digest over every file under ``root``: relative path, NUL, byte
    count, NUL and bytes, so no content can pass for a path."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root)}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def file_sha256s(root: Path) -> dict:
    """Relative path -> sha256 of every file under ``root``, in path order."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(p for p in root.rglob("*") if p.is_file())}


def _import_placevision(src: Path):
    sys.path.insert(0, str(src))
    from placevision import cli

    found = Path(cli.__file__).resolve().parents[1]
    if found != src.resolve():
        raise SystemExit(f"placevision was imported from {found}, not from {src}")
    return cli


def _stage(cli, args):
    log = io.StringIO()
    with contextlib.redirect_stderr(log):
        rc = cli.main([str(a) for a in args])
    if rc != 0:
        raise SystemExit(f"placevision {' '.join(map(str, args))} exited {rc}:\n{log.getvalue()}")


def _pipeline(cli, data: Path, cfg: Path, out: Path, jobs: int) -> None:
    common = ["--manifest", data / "manifest.tsv", "--out", out]
    for stage, *extra in (
        ["features", "--jobs", jobs],
        ["vocab", "--sequences", "1,3"],
        ["encode"],
        ["train", "--sequences", "1,3"],
        ["predict", "--sequences", "2"],
    ):
        _stage(cli, [stage, *common, "--config", cfg, *extra])
    _stage(cli, ["evaluate", *common, "--sequences", "2"])


def digests(src: Path, work: Path, jobs: int, only=()) -> dict:
    cli = _import_placevision(src)
    work.mkdir(parents=True, exist_ok=True)
    result = {}
    for group, name, text in runs():
        if only and name not in only:
            continue
        (per_class, seed), base, _ = GROUPS[group]
        data = work / f"data-{per_class}-{seed}"
        if not data.exists():
            _stage(cli, ["synth-dataset", "--out", data, "--classes", 9,
                         "--per-class", per_class, "--size", 96, "--seed", seed])
        cached = work / "features" / group
        if not cached.exists():
            (work / f"{group}.cfg").write_text(base)
            _stage(cli, ["features", "--manifest", data / "manifest.tsv", "--config",
                         work / f"{group}.cfg", "--out", cached, "--jobs", jobs])
        out = work / "runs" / name
        shutil.copytree(cached / "features", out / "features")
        cfg = out.parent / f"{out.name}.cfg"
        cfg.write_text(text)
        _pipeline(cli, data, cfg, out, jobs)
        result[name] = {"tree": tree_sha256(out), "files": file_sha256s(out)}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="src directory of the checkout to run (default: this one)")
    parser.add_argument("--jobs", type=int, default=1, help="--jobs of the features stage")
    parser.add_argument("--work", type=Path, default=None,
                        help="empty scratch directory, kept (default: a temporary one, removed)")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        work = args.work or Path(stack.enter_context(tempfile.TemporaryDirectory()))
        print(json.dumps(digests(args.src, work, args.jobs), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
