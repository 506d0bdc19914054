"""Batch pipeline: manifests, configuration, artifact persistence.

A manifest is a TSV of (image path, class label, sequence id).  The
configuration is a flat key-value text file (`section.key = value`)
selecting which feature parts to extract, how to compare them, the
vocabulary parameters and the classifier.  Every stage writes
deterministic artifacts into an output directory and skips work whose
inputs have not changed (content hashing).
"""

from __future__ import annotations

import csv
import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bovw as bovw_mod
from .asift import extract_asift
from .classify import (
    CompositeFeature,
    CompositePart,
    GaParams,
    KernelSpec,
    ThresholdSet,
    ga_optimize_thresholds,
    median_heuristic_sigma,
    nn_decide,
    nn_distances,
    ova_train,
)
from .distances import parse_measure
from .evaluate import build_report, write_report
from .histograms import (
    hsv_histogram,
    normalize_l1,
    read_histogram_csv,
    rgb_histogram,
    write_histogram_csv,
)
from .image import load_pnm, to_grayscale
from .modelio import ClassifierModel, load_model, save_model
from .sift import SiftParams, extract_rgb_sift, extract_sift, read_descriptors, write_descriptors


class DataError(Exception):
    """Bad input data: unreadable manifests, mismatched artifacts."""


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManifestRow:
    path: str
    label: str
    sequence: int


@dataclass
class Manifest:
    rows: List[ManifestRow]
    base_dir: Path

    @property
    def labels(self) -> List[str]:
        return sorted({r.label for r in self.rows})

    def select(self, sequences: Optional[Sequence[int]]) -> "Manifest":
        if sequences is None:
            return self
        keep = set(sequences)
        rows = [r for r in self.rows if r.sequence in keep]
        if not rows:
            raise DataError(f"no manifest rows match sequences {sorted(keep)}")
        return Manifest(rows, self.base_dir)

    def resolve(self, row: ManifestRow) -> Path:
        p = Path(row.path)
        return p if p.is_absolute() else self.base_dir / p


def read_manifest(path) -> Manifest:
    p = Path(path)
    try:
        lines = p.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot read manifest {p}: {exc}") from exc
    if not lines or lines[0].split("\t") != ["path", "label", "sequence"]:
        raise DataError(f"{p}: manifest must start with 'path\\tlabel\\tsequence'")
    rows = []
    seen = set()
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3 or not parts[0] or not parts[1]:
            raise DataError(f"{p}:{ln}: malformed manifest row {line!r}")
        if parts[0] in seen:
            raise DataError(f"{p}:{ln}: duplicate path {parts[0]!r}")
        seen.add(parts[0])
        try:
            seq = int(parts[2])
        except ValueError as exc:
            raise DataError(f"{p}:{ln}: bad sequence id {parts[2]!r}") from exc
        rows.append(ManifestRow(parts[0], parts[1], seq))
    if not rows:
        raise DataError(f"{p}: empty manifest")
    return Manifest(rows, p.parent)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_DEFAULT_MEASURES = {"rgb": "jeffrey", "hsv": "bhattacharyya", "bovw": "minkowski:1"}


@dataclass(frozen=True)
class PartConfig:
    name: str  # rgb | hsv | bovw
    measure_id: str
    weight: float
    bins: Tuple[int, int, int] = (0, 0, 0)  # rgb/hsv grids
    k: int = 100  # bovw vocabulary size
    feature: str = "sift"  # bovw source: sift | asift | rgbsift


@dataclass(frozen=True)
class PipelineConfig:
    parts: Tuple[PartConfig, ...]
    vocab_distance: str = "euclidean"
    vocab_builder: str = "kmeans"
    vocab_threshold: float = 0.5  # incremental builder only
    vocab_max_iter: int = 40
    vocab_sample_cap: int = 200_000
    sift: SiftParams = SiftParams()
    classifier: str = "svm"  # svm | nn
    kernel: str = "rbf"
    kernel_sigma: Optional[float] = None  # None = median heuristic
    svm_c: float = 10.0
    ga_enabled: bool = False
    ga: GaParams = GaParams()
    ga_validation_fraction: float = 0.3
    seed: int = 7

    def part(self, name: str) -> Optional[PartConfig]:
        for p in self.parts:
            if p.name == name:
                return p
        return None

    def config_id(self) -> str:
        bits = []
        for p in self.parts:
            if p.name == "bovw":
                dim = p.k
                extra = f":{p.feature}"
            else:
                dim = p.bins[0] * p.bins[1] * p.bins[2]
                extra = ""
            bits.append(f"{p.name}{extra}:{dim}:{p.measure_id}:{p.weight:.6g}")
        return "|".join(bits)


def _parse_bins(text: str) -> Tuple[int, int, int]:
    parts = [int(v) for v in text.lower().split("x")]
    if len(parts) != 3 or min(parts) < 1:
        raise DataError(f"bad bin grid {text!r}")
    return tuple(parts)


def parse_config_text(text: str) -> PipelineConfig:
    kv: Dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(f"config line {ln}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        kv[key.strip().lower()] = value.strip()

    part_names = [p.strip() for p in kv.get("features.parts", "rgb,hsv,bovw").split(",") if p.strip()]
    if not part_names:
        raise DataError("features.parts must list at least one part")
    weights = []
    for name in part_names:
        if name not in ("rgb", "hsv", "bovw"):
            raise DataError(f"unknown feature part {name!r}")
        weights.append(float(kv.get(f"{name}.weight", 1.0 / len(part_names))))
    total = sum(weights)
    if total <= 0:
        raise DataError("part weights must sum to a positive value")
    weights = [w / total for w in weights]

    parts = []
    for name, weight in zip(part_names, weights):
        measure = kv.get(f"{name}.measure", _DEFAULT_MEASURES[name])
        try:
            parse_measure(measure)
        except ValueError as exc:
            raise DataError(f"{name}.measure: {exc}") from exc
        if name == "rgb":
            parts.append(PartConfig(name, measure, weight, bins=_parse_bins(kv.get("rgb.bins", "10x10x10"))))
        elif name == "hsv":
            parts.append(PartConfig(name, measure, weight, bins=_parse_bins(kv.get("hsv.bins", "18x10x10"))))
        else:
            parts.append(
                PartConfig(
                    name,
                    measure,
                    weight,
                    k=int(kv.get("bovw.k", "100")),
                    feature=kv.get("bovw.feature", "sift"),
                )
            )

    sift = SiftParams(
        octaves=int(kv.get("sift.octaves", "4")),
        scales_per_octave=int(kv.get("sift.scales_per_octave", "2")),
        sigma0=float(kv.get("sift.sigma0", "1.6")),
        contrast_threshold=float(kv.get("sift.contrast_threshold", "0.03")),
        edge_ratio=float(kv.get("sift.edge_ratio", "10")),
        orientation_sigma_factor=float(kv.get("sift.orientation_sigma_factor", "1.5")),
    )
    seed = int(kv.get("seed", "7"))
    sigma_text = kv.get("classifier.rbf_sigma", "auto")
    ga = GaParams(
        population=int(kv.get("ga.population", "200")),
        mutation_rate=float(kv.get("ga.mutation_rate", "0.15")),
        crossover_rate=float(kv.get("ga.crossover_rate", "0.7")),
        generations=int(kv.get("ga.generations", "1000")),
        seed=seed,
    )
    return PipelineConfig(
        parts=tuple(parts),
        vocab_distance=kv.get("vocab.distance", "euclidean"),
        vocab_builder=kv.get("vocab.builder", "kmeans"),
        vocab_threshold=float(kv.get("vocab.threshold", "0.5")),
        vocab_max_iter=int(kv.get("vocab.max_iter", "40")),
        vocab_sample_cap=int(kv.get("vocab.sample_cap", "200000")),
        sift=sift,
        classifier=kv.get("classifier.kind", "svm"),
        kernel=kv.get("classifier.kernel", "rbf"),
        kernel_sigma=None if sigma_text == "auto" else float(sigma_text),
        svm_c=float(kv.get("classifier.c", "10")),
        ga_enabled=kv.get("ga.enabled", "0") in ("1", "true", "yes"),
        ga=ga,
        ga_validation_fraction=float(kv.get("ga.validation_fraction", "0.3")),
        seed=seed,
    )


def read_config(path) -> PipelineConfig:
    try:
        return parse_config_text(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# per-image feature artifacts
# ---------------------------------------------------------------------------

def artifact_stem(image_path: str) -> str:
    digest = hashlib.sha256(image_path.encode("utf-8")).hexdigest()[:12]
    return f"{digest}_{Path(image_path).stem}"


def _feature_fingerprint(image_bytes: bytes, config: PipelineConfig) -> str:
    h = hashlib.sha256()
    h.update(image_bytes)
    h.update(config.config_id().encode())
    h.update(repr(config.sift).encode())
    return h.hexdigest()


def _extract_one(args) -> Tuple[str, Optional[str]]:
    """Worker: compute the feature artifacts for one manifest row.

    Returns (path, None) on success or (path, warning) on failure.
    """
    image_path, resolved, out_dir, config = args
    out = Path(out_dir)
    stem = artifact_stem(image_path)
    try:
        blob = Path(resolved).read_bytes()
        fingerprint = _feature_fingerprint(blob, config)
        hash_file = out / f"{stem}.hash"
        if hash_file.exists() and hash_file.read_text() == fingerprint:
            return image_path, None  # cached, inputs unchanged
        img = load_pnm(resolved)
        for part in config.parts:
            if part.name == "rgb":
                h = normalize_l1(rgb_histogram(img, *part.bins))
                write_histogram_csv(h, out / f"{stem}.rgb.csv")
            elif part.name == "hsv":
                h = normalize_l1(hsv_histogram(img, *part.bins))
                write_histogram_csv(h, out / f"{stem}.hsv.csv")
            elif part.name == "bovw":
                if part.feature == "sift":
                    feats = extract_sift(to_grayscale(img), config.sift)
                elif part.feature == "asift":
                    feats = extract_asift(to_grayscale(img), config.sift)
                elif part.feature == "rgbsift":
                    feats = extract_rgb_sift(img, config.sift)
                else:
                    raise DataError(f"unknown bovw feature {part.feature!r}")
                write_descriptors(feats, out / f"{stem}.desc")
        hash_file.write_text(fingerprint)
        return image_path, None
    except Exception as exc:  # per-image failures degrade to warnings
        return image_path, f"{type(exc).__name__}: {exc}"


def run_features(
    manifest: Manifest,
    config: PipelineConfig,
    out_dir,
    jobs: int = 1,
    log=print,
) -> List[str]:
    """Extract configured parts for every manifest row.

    Unreadable images are skipped with a warning; it is an error when no
    image succeeds.  Returns the image paths that produced artifacts.
    """
    started = time.perf_counter()
    out = Path(out_dir) / "features"
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_id.txt").write_text(config.config_id() + "\n")
    tasks = [(r.path, str(manifest.resolve(r)), str(out), config) for r in manifest.rows]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_extract_one, tasks))
    else:
        results = [_extract_one(t) for t in tasks]
    ok = []
    for path, warning in results:
        if warning is None:
            ok.append(path)
        else:
            log(f"warning: skipping {path}: {warning}")
    if not ok:
        raise DataError("feature extraction failed for every manifest row")
    log(f"features: {len(ok)}/{len(tasks)} images in {time.perf_counter() - started:.1f}s")
    return ok


def check_features_config(out_dir, config: PipelineConfig) -> None:
    marker = Path(out_dir) / "features" / "config_id.txt"
    if not marker.exists():
        raise DataError(f"no feature artifacts under {out_dir} (run the features stage first)")
    found = marker.read_text().strip()
    if found != config.config_id():
        raise DataError(
            f"feature configuration mismatch: artifacts built with {found!r}, "
            f"requested {config.config_id()!r}"
        )


# ---------------------------------------------------------------------------
# vocabulary and encoding
# ---------------------------------------------------------------------------

def run_vocab(manifest: Manifest, config: PipelineConfig, out_dir, log=print) -> Path:
    """Build the visual vocabulary from the stored descriptors.

    Wall-clock time is logged for vocabulary-size studies, never asserted.
    """
    started = time.perf_counter()
    part = config.part("bovw")
    if part is None:
        raise DataError("configuration has no bovw part; nothing to cluster")
    check_features_config(out_dir, config)
    feat_dir = Path(out_dir) / "features"
    stacks = []
    for row in manifest.rows:
        desc_file = feat_dir / f"{artifact_stem(row.path)}.desc"
        if not desc_file.exists():
            continue
        items = read_descriptors(desc_file)
        if items:
            stacks.append(np.stack([d.values for _, d in items]))
    if not stacks:
        raise DataError("no descriptors found; did the features stage run?")
    descriptors = np.vstack(stacks)
    if descriptors.shape[0] > config.vocab_sample_cap:
        rng = np.random.default_rng(config.seed)
        idx = rng.choice(descriptors.shape[0], size=config.vocab_sample_cap, replace=False)
        descriptors = descriptors[np.sort(idx)]
    if config.vocab_builder == "kmeans":
        vocab = bovw_mod.kmeans(
            descriptors, part.k, config.vocab_distance, config.seed, config.vocab_max_iter
        )
    elif config.vocab_builder == "incremental":
        vocab = bovw_mod.incremental_vocab(descriptors, config.vocab_threshold, config.vocab_distance)
    else:
        raise DataError(f"unknown vocabulary builder {config.vocab_builder!r}")
    path = Path(out_dir) / "vocab.bin"
    bovw_mod.write_vocabulary(vocab, path)
    log(
        f"vocabulary: {vocab.k} words over {descriptors.shape[0]} descriptors "
        f"in {time.perf_counter() - started:.1f}s"
    )
    return path


def run_encode(manifest: Manifest, config: PipelineConfig, out_dir, log=print) -> int:
    """Quantize stored descriptors into normalized word histograms."""
    check_features_config(out_dir, config)
    vocab_path = Path(out_dir) / "vocab.bin"
    if not vocab_path.exists():
        raise DataError(f"missing vocabulary {vocab_path} (run the vocab stage first)")
    vocab = bovw_mod.read_vocabulary(vocab_path)
    feat_dir = Path(out_dir) / "features"
    encoded = 0
    for row in manifest.rows:
        stem = artifact_stem(row.path)
        desc_file = feat_dir / f"{stem}.desc"
        if not desc_file.exists():
            continue
        items = read_descriptors(desc_file)
        if not items:
            log(f"warning: {row.path}: no descriptors, image has no bovw part")
            continue
        vec = bovw_mod.encode_image(np.stack([d.values for _, d in items]), vocab)
        write_histogram_csv(vec.as_histogram(), feat_dir / f"{stem}.bovw.csv")
        encoded += 1
    if encoded == 0:
        raise DataError("no image could be encoded against the vocabulary")
    return encoded


# ---------------------------------------------------------------------------
# composite assembly, training, prediction, evaluation
# ---------------------------------------------------------------------------

def load_composite(row: ManifestRow, config: PipelineConfig, out_dir) -> CompositeFeature:
    feat_dir = Path(out_dir) / "features"
    stem = artifact_stem(row.path)
    parts = []
    for part in config.parts:
        name = part.name
        path = feat_dir / f"{stem}.{name}.csv"
        if not path.exists():
            raise DataError(f"missing {name} artifact for {row.path}: {path}")
        hist = read_histogram_csv(path)
        parts.append(CompositePart(name, hist.bins, part.measure_id, part.weight))
    return CompositeFeature(tuple(parts))


def load_labeled_features(
    manifest: Manifest, config: PipelineConfig, out_dir, log=print
) -> List[Tuple[ManifestRow, CompositeFeature]]:
    """Composite features of the rows that have every part's artifact; each
    row without one (unreadable image, no descriptors) is logged as a warning."""
    out = []
    for row in manifest.rows:
        try:
            out.append((row, load_composite(row, config, out_dir)))
        except DataError as exc:
            log(f"warning: {exc}")
    if not out:
        raise DataError("no feature artifacts available for the selected rows")
    return out


def _resolve_kernel(config: PipelineConfig, vectors: np.ndarray) -> KernelSpec:
    if config.kernel == "rbf":
        sigma = config.kernel_sigma
        if sigma is None:
            sigma = median_heuristic_sigma(vectors, seed=config.seed)
        return KernelSpec("rbf", sigma=sigma)
    if config.kernel == "linear":
        return KernelSpec("linear")
    if config.kernel == "chi2":
        return KernelSpec("chi2")
    raise DataError(f"unknown kernel {config.kernel!r}")


def run_train(manifest: Manifest, config: PipelineConfig, out_dir, log=print) -> Path:
    """Train the configured classifier and write the model file."""
    started = time.perf_counter()
    check_features_config(out_dir, config)
    labeled = load_labeled_features(manifest, config, out_dir, log)
    labels = [row.label for row, _ in labeled]
    if len(set(labels)) < 2:
        raise DataError("training needs at least two classes")
    config_id = config.config_id()

    if config.classifier == "svm":
        vectors = np.stack([feat.concatenated() for _, feat in labeled])
        spec = _resolve_kernel(config, vectors)
        svm = ova_train(vectors, labels, spec, config.svm_c)
        model = ClassifierModel("svm", config_id, svm.labels, svm=svm)
    elif config.classifier == "nn":
        gallery = [(row.label, feat) for (row, feat) in labeled]
        class_labels = sorted(set(labels))
        if config.ga_enabled:
            rng = np.random.default_rng(config.seed)
            order = rng.permutation(len(gallery))
            n_val = max(1, int(round(config.ga_validation_fraction * len(gallery))))
            val_idx = set(order[:n_val].tolist())
            val = [gallery[i] for i in sorted(val_idx)]
            train_rows = [gallery[i] for i in range(len(gallery)) if i not in val_idx]
            if not train_rows or {lb for lb, _ in val} - {lb for lb, _ in train_rows}:
                raise DataError("GA split left a class without gallery examples")
            result = ga_optimize_thresholds(train_rows, val, config.ga)
            thresholds = result.thresholds
            gallery = train_rows + val
            log(f"GA thresholds tuned: best F={result.best_fitness:.4f}")
        else:
            thresholds = ThresholdSet.permissive(class_labels)
        model = ClassifierModel("nn", config_id, class_labels, gallery=gallery, thresholds=thresholds)
    else:
        raise DataError(f"unknown classifier kind {config.classifier!r}")

    path = Path(out_dir) / "model.bin"
    save_model(model, path)
    log(
        f"model: {config.classifier} over {len(labeled)} examples, "
        f"{len(set(labels))} classes in {time.perf_counter() - started:.1f}s"
    )
    return path


def run_predict(
    manifest: Manifest, config: PipelineConfig, out_dir, model_path=None, log=print
) -> Path:
    """Predict labels for the manifest rows; writes predictions.csv.

    Output rows are (path, predicted label or UNKNOWN, score); score is
    oriented so that larger means more confident.
    """
    check_features_config(out_dir, config)
    model_path = Path(model_path) if model_path else Path(out_dir) / "model.bin"
    if not model_path.exists():
        raise DataError(f"missing model file {model_path}")
    model = load_model(model_path)
    if model.config_id != config.config_id():
        raise DataError(
            f"model was trained on configuration {model.config_id!r}, "
            f"features use {config.config_id()!r}"
        )
    labeled = load_labeled_features(manifest, config, out_dir, log)

    if model.kind == "svm":
        scores = model.svm.scores(np.stack([feat.concatenated() for _, feat in labeled]))
        best = scores.argmax(axis=1)
        predicted = [model.labels[int(b)] for b in best]
        confidence = scores[np.arange(len(best)), best]
    else:
        dists, gallery_labels = nn_distances([f for _, f in labeled], model.gallery)
        predicted, nearest = nn_decide(dists, gallery_labels, model.thresholds)
        confidence = -nearest
    path = Path(out_dir) / "predictions.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["path", "predicted", "score"])
        for (row, _), label, score in zip(labeled, predicted, confidence):
            writer.writerow([row.path, label, f"{score:.10g}"])
    log(f"predictions: {len(labeled)} rows -> {path}")
    return path


def run_evaluate(predictions_path, manifest: Manifest, report_dir, log=print):
    """Join predictions with manifest truth labels and emit report CSVs."""
    pred_file = Path(predictions_path)
    if not pred_file.exists():
        raise DataError(f"missing predictions file {pred_file}")
    with open(pred_file, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["path", "predicted", "score"]:
        raise DataError(f"{pred_file}: not a predictions file")
    truth = {r.path: r.label for r in manifest.rows}
    preds, truths, scores = [], [], []
    for row in rows[1:]:
        if not row:
            continue
        path, predicted, score = row
        if path not in truth:
            raise DataError(f"{pred_file}: prediction for unknown path {path!r}")
        preds.append(predicted)
        truths.append(truth[path])
        scores.append(float(score))
    if not preds:
        raise DataError(f"{pred_file}: no prediction rows")
    report = build_report(preds, truths, scores=scores, labels=manifest.labels)
    paths = write_report(report, report_dir)
    p, r, f, er = report.aggregate
    log(
        f"evaluation: accuracy={report.accuracy:.4f} P={p:.4f} R={r:.4f} "
        f"F={f:.4f} ER={er:.4f}"
    )
    return report, paths
