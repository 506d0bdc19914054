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
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bovw as bovw_mod
from .asift import extract_asift
from .binfile import write_atomic
from .classify import (
    Composite,
    GA_RULES,
    GaParams,
    KernelSpec,
    ThresholdSet,
    ga_optimize_thresholds,
    median_heuristic_sigma,
    nn_decide,
    nn_distances,
    ova_train,
)
from .distances import ONE_MASS, parse_measure
from .evaluate import UNKNOWN, build_report, write_csv, write_report
from .histograms import (
    DEFAULT_HSV_BINS,
    DEFAULT_RGB_BINS,
    hsv_histogram,
    normalize_l1,
    read_histogram_csv,
    rgb_histogram,
    write_histogram_csv,
)
from .image import load_pnm, to_grayscale
from .modelio import ClassifierModel, load_model, save_model
from .rules import COUNT, FINITE, NON_NEGATIVE, POSITIVE, SEED, Rule
from .sift import (
    SIFT_RULES,
    SiftParams,
    extract_rgb_sift,
    extract_sift,
    read_descriptor_shape,
    read_descriptors,
    write_descriptors,
)


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
    except (OSError, UnicodeDecodeError) as exc:
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
        if parts[1] == UNKNOWN:
            raise DataError(f"{p}:{ln}: label {UNKNOWN} is reserved for rejected answers")
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

# The default measure and bin grid of each feature part, in the default
# order of features.parts; a bovw part has no grid.
_PARTS = {
    "rgb": {"measure": "jeffrey", "bins": DEFAULT_RGB_BINS},
    "hsv": {"measure": "bhattacharyya", "bins": DEFAULT_HSV_BINS},
    "bovw": {"measure": "minkowski:1"},
}


def _part_names(text: str) -> Tuple[str, ...]:
    names = tuple(n.strip() for n in text.split(",") if n.strip())
    if not names:
        raise ValueError("no part listed")
    for i, name in enumerate(names):
        if name not in _PARTS:
            raise ValueError(f"unknown feature part {name!r}")
        if name in names[:i]:
            raise ValueError(f"part {name!r} listed twice")
    return names


def _bin_grid(text: str) -> Tuple[int, int, int]:
    try:
        bins = tuple(int(v) for v in text.lower().split("x"))
    except ValueError:
        bins = ()
    if len(bins) != 3 or min(bins) < 1:
        raise ValueError(f"bad bin grid {text!r}")
    return bins


def _measure(text: str) -> str:
    parse_measure(text)  # ValueError for an unknown id or a bad order
    return text.lower()


def _vocab_distance(text: str) -> str:
    measure = _measure(text)
    if measure in ONE_MASS:
        raise ValueError(f"{measure} compares only rows of one total mass, which descriptors lack")
    return measure


# Every config key, by the stage that reads it: what the key accepts, and
# when the stage reads it.  A key accepts a Rule, a tuple of choices (a dict
# when each choice stands for a value), or a function from the text to the
# value that raises ValueError; a sift.* or ga.* key takes the rule of its
# SiftParams or GaParams field.  A stage reads a key whenever it runs (None)
# or only while another key it reads has one value; a key of a part (sift.*
# is bovw's) only while the part is listed.
_KMEANS = ("vocab.builder", "kmeans")
_NN = ("classifier.kind", "nn")
_SVM = ("classifier.kind", "svm")
_GA = ("ga.enabled", True)
_STAGE_KEYS = {
    "features": {
        "features.parts": (_part_names, None),
        "rgb.bins": (_bin_grid, None),
        "hsv.bins": (_bin_grid, None),
        "bovw.feature": (("sift", "asift", "rgbsift"), None),
        **{f"sift.{name}": (rule, None) for name, rule in SIFT_RULES.items()},
    },
    "vocab": {
        "vocab.distance": (_vocab_distance, None),
        "vocab.builder": (("kmeans", "incremental"), None),
        "vocab.sample_cap": (COUNT, None),
        "bovw.k": (COUNT, _KMEANS),
        "vocab.max_iter": (COUNT, _KMEANS),
        "vocab.threshold": (NON_NEGATIVE, ("vocab.builder", "incremental")),
        "seed": (SEED, _KMEANS),
    },
    "train": {
        "classifier.kind": (("svm", "nn"), None),
        "rgb.weight": (NON_NEGATIVE, None),
        "hsv.weight": (NON_NEGATIVE, None),
        "bovw.weight": (NON_NEGATIVE, None),
        "seed": (SEED, _GA),
        "rgb.measure": (_measure, _NN),
        "hsv.measure": (_measure, _NN),
        "bovw.measure": (_measure, _NN),
        "classifier.kernel": (("linear", "rbf", "chi2"), _SVM),
        "classifier.c": (POSITIVE, _SVM),
        "classifier.rbf_sigma": (POSITIVE, ("classifier.kernel", "rbf")),  # or auto
        "ga.enabled": ({"0": False, "1": True, "true": True, "false": False, "yes": True, "no": False}, _NN),
        "ga.validation_fraction": (Rule(float, "a number in (0, 1)", lambda v: 0 < v < 1), _GA),
        **{f"ga.{name}": (GA_RULES[name], _GA)
           for name in ("population", "mutation_rate", "crossover_rate", "generations")},
    },
}
_CONFIG_KEYS = {key: accepts for keys in _STAGE_KEYS.values() for key, (accepts, _) in keys.items()}

# The PipelineConfig field each top-level key sets; every other key sets the
# PartConfig, SiftParams or GaParams field named after its dot.
_FIELDS = {
    "features.parts": "parts",
    "vocab.distance": "vocab_distance",
    "vocab.builder": "vocab_builder",
    "vocab.threshold": "vocab_threshold",
    "vocab.max_iter": "vocab_max_iter",
    "vocab.sample_cap": "vocab_sample_cap",
    "classifier.kind": "classifier",
    "classifier.kernel": "kernel",
    "classifier.rbf_sigma": "kernel_sigma",
    "classifier.c": "svm_c",
    "ga.enabled": "ga_enabled",
    "ga.validation_fraction": "ga_validation_fraction",
    "seed": "seed",
}


def _check_choice(key: str, value) -> None:
    choices = _CONFIG_KEYS[key]
    if value not in choices:
        raise DataError(f"{key} must be one of {' | '.join(choices)}, got {value!r}")


@dataclass(frozen=True)
class PartConfig:
    name: str  # a key of _PARTS
    measure: str
    weight: float
    bins: Tuple[int, int, int] = (0, 0, 0)  # rgb/hsv grids
    k: int = bovw_mod.DEFAULT_K  # bovw vocabulary size
    feature: str = "sift"  # bovw descriptor source

    def __post_init__(self):
        if self.name not in _PARTS:
            raise DataError(f"unknown feature part {self.name!r}")
        _check_choice("bovw.feature", self.feature)


@dataclass(frozen=True)
class PipelineConfig:
    parts: Tuple[PartConfig, ...]
    vocab_distance: str = "euclidean"
    vocab_builder: str = "kmeans"
    vocab_threshold: float = 0.5  # incremental builder only
    vocab_max_iter: int = 40
    vocab_sample_cap: int = 200_000
    sift: SiftParams = SiftParams()
    classifier: str = "svm"
    kernel: str = "rbf"
    kernel_sigma: Optional[float] = None  # None = median heuristic
    svm_c: float = 10.0
    ga_enabled: bool = False
    ga: GaParams = GaParams()
    ga_validation_fraction: float = 0.3
    seed: int = 7

    def __post_init__(self):
        for key, field in _FIELDS.items():
            if isinstance(_CONFIG_KEYS[key], tuple):
                _check_choice(key, getattr(self, field))
        # the GA draws from the config seed, however the config was built
        object.__setattr__(self, "ga", replace(self.ga, seed=self.seed))

    def part(self, name: str) -> Optional[PartConfig]:
        for p in self.parts:
            if p.name == name:
                return p
        return None


def _value(key: str, text: str):
    """The value of config key ``key`` set to ``text``; DataError names the key."""
    accepts = _CONFIG_KEYS[key]
    if isinstance(accepts, (tuple, dict)):
        _check_choice(key, text)
        return accepts[text] if isinstance(accepts, dict) else text
    if key == "classifier.rbf_sigma" and text == "auto":
        return None
    if isinstance(accepts, Rule):
        try:
            return accepts.parse(text)
        except ValueError:
            what = ("auto or " if key == "classifier.rbf_sigma" else "") + accepts.text
            raise DataError(f"{key} must be {what}, got {text!r}") from None
    try:
        return accepts(text)
    except ValueError as exc:
        raise DataError(f"{key}: {exc}") from None


def parse_config_text(text: str) -> PipelineConfig:
    """The configuration of ``text``; each key that is set goes to its field,
    and every other field keeps its dataclass (or ``_PARTS``) default."""
    fields: Dict[str, dict] = {section: {} for section in ("", *_PARTS, "sift", "ga")}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(f"config line {ln}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key not in _CONFIG_KEYS:
            raise DataError(f"config line {ln}: unknown key {key!r}")
        try:
            value = _value(key, value)
        except DataError as exc:
            raise DataError(f"config line {ln}: {exc}") from None
        section, _, field = _FIELDS.get(key, key).rpartition(".")
        fields[section][field] = value

    top = fields.pop("")
    names = top.pop("parts", tuple(_PARTS))
    weights = [fields[name].pop("weight", 1.0 / len(names)) for name in names]
    total = sum(weights)
    if total <= 0:
        raise DataError("part weights must sum to a positive value")
    parts = tuple(
        PartConfig(name, weight=w / total, **{**_PARTS[name], **fields[name]})
        for name, w in zip(names, weights)
    )
    ga = GaParams(**fields["ga"])
    try:
        ga.check()  # the population must also hold the elite
    except ValueError as exc:
        raise DataError(f"ga.{exc}") from None
    return PipelineConfig(parts, sift=SiftParams(**fields["sift"]), ga=ga, **top)


def read_config(path) -> PipelineConfig:
    try:
        return parse_config_text(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# stage records
# ---------------------------------------------------------------------------

def _key_value(config: PipelineConfig, key: str):
    if key == "features.parts":
        return ",".join(p.name for p in config.parts)
    section, _, field = _FIELDS.get(key, key).rpartition(".")
    owner = config.part(section) if section in _PARTS else getattr(config, section) if section else config
    return getattr(owner, field)


def _reads(config: PipelineConfig, stage: str, key: str) -> bool:
    """Whether ``stage`` reads ``key`` under the choices of ``config``."""
    part = "bovw" if key.startswith("sift.") else key.partition(".")[0]
    if part in _PARTS and config.part(part) is None:
        return False
    when = _STAGE_KEYS[stage][key][1]
    return when is None or (_reads(config, stage, when[0]) and _key_value(config, when[0]) == when[1])


def stage_record(config: PipelineConfig, stage: str, *consumed: Dict[str, str]) -> Dict[str, str]:
    """What an artifact of ``stage`` depends on: the records of the artifacts
    the stage consumed, then the text of each key it reads under ``config``."""
    record = {key: value for earlier in consumed for key, value in earlier.items()}
    for key in _STAGE_KEYS[stage]:
        if _reads(config, stage, key):
            record[key] = str(_key_value(config, key))
    return record


def _record_text(record: Dict[str, str]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in record.items())


def _parse_record(text: str) -> Dict[str, str]:
    return dict(line.partition(" = ")[::2] for line in text.splitlines())


def check_record(path, recorded: Dict[str, str], wanted: Dict[str, str], stage: str) -> None:
    """DataError unless the artifact at ``path`` records exactly ``wanted``;
    it names the file, the first key that differs (a key on one side only
    differs too) and the stage that rebuilds the artifact."""
    for key in [*wanted, *recorded]:
        if recorded.get(key) != wanted.get(key):
            built, asked = (f"{key} {r[key]}" if key in r else f"no {key}" for r in (recorded, wanted))
            raise DataError(
                f"{path} was built with {built}, the configuration asks for {asked}; "
                f"rerun the {stage} stage"
            )


def _read_record(path: Path, missing: str) -> Dict[str, str]:
    """The record in the marker file ``path``; DataError ``missing`` without one."""
    if not path.exists():
        raise DataError(missing)
    try:
        return _parse_record(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _read_artifact(read, path, stage: str):
    """``read(path)``; a file it cannot read, such as one of an older format,
    is a DataError naming the stage that rewrites it."""
    try:
        return read(path)
    except ValueError as exc:
        raise DataError(f"{exc}; rerun the {stage} stage") from None


def _features_record(out_dir, config: PipelineConfig) -> Dict[str, str]:
    """The features record, checked against features/config_id.txt."""
    marker = Path(out_dir) / "features" / "config_id.txt"
    recorded = _read_record(marker, f"no feature artifacts under {out_dir} (run the features stage first)")
    record = stage_record(config, "features")
    check_record(marker, recorded, record, "features")
    return record


def _consumed_records(out_dir, config: PipelineConfig) -> List[Dict[str, str]]:
    """The records of what train and predict read, each checked: the features
    record and, with a bovw part, the record of the vocabulary that
    features/vocab_id.txt says the word histograms were encoded against."""
    features = _features_record(out_dir, config)
    if config.part("bovw") is None:
        return [features]
    marker = Path(out_dir) / "features" / "vocab_id.txt"
    encoded = _read_record(marker, f"no word histograms under {out_dir} (run the encode stage first)")
    check_record(marker, encoded, stage_record(config, "vocab", features), "encode")
    return [features, encoded]


# ---------------------------------------------------------------------------
# per-image feature artifacts
# ---------------------------------------------------------------------------

def artifact_stem(image_path: str) -> str:
    digest = hashlib.sha256(image_path.encode("utf-8")).hexdigest()[:12]
    return f"{digest}_{Path(image_path).stem}"


_EXTRACTION_FORMAT = 1  # raise it when extraction writes other bytes for the same inputs


def _feature_fingerprint(image_bytes: bytes) -> str:
    h = hashlib.sha256()
    h.update(image_bytes)
    h.update(f"extraction format {_EXTRACTION_FORMAT}\n".encode())
    return h.hexdigest()


# Per-row artifact suffixes under features/; the .hash marks them current.
_ROW_ARTIFACTS = (".hash", ".rgb.csv", ".hsv.csv", ".desc", ".bovw.csv")


def _extract_one(args) -> Tuple[str, Optional[str]]:
    """Worker: compute the feature artifacts for one manifest row.

    Returns (path, None) on success or (path, warning) on failure; a
    failure removes the row's artifacts from earlier runs, so no later
    stage serves features of an image that no longer extracts.  A
    re-extraction also removes the row's word histogram, which only the
    encode stage rebuilds from the new descriptors.
    """
    image_path, resolved, out_dir, config = args
    out = Path(out_dir)
    stem = artifact_stem(image_path)
    try:
        blob = Path(resolved).read_bytes()
        fingerprint = _feature_fingerprint(blob)
        hash_file = out / f"{stem}.hash"
        if hash_file.exists() and hash_file.read_text() == fingerprint:
            return image_path, None  # cached, inputs unchanged
        (out / f"{stem}.bovw.csv").unlink(missing_ok=True)
        img = load_pnm(resolved)
        for part in config.parts:
            if part.name == "bovw":
                if part.feature == "rgbsift":
                    feats = extract_rgb_sift(img, config.sift)
                else:
                    extract = extract_sift if part.feature == "sift" else extract_asift
                    feats = extract(to_grayscale(img), config.sift)
                write_descriptors(feats, out / f"{stem}.desc")
            else:
                histogram = rgb_histogram if part.name == "rgb" else hsv_histogram
                h = normalize_l1(histogram(img, *part.bins))
                write_histogram_csv(h, out / f"{stem}.{part.name}.csv")
        hash_file.write_text(fingerprint)
        return image_path, None
    except Exception as exc:  # per-image failures degrade to warnings
        for suffix in _ROW_ARTIFACTS:
            (out / f"{stem}{suffix}").unlink(missing_ok=True)
        return image_path, f"{type(exc).__name__}: {exc}"


def run_features(
    manifest: Manifest,
    config: PipelineConfig,
    out_dir,
    jobs: int = 1,
    log=print,
) -> List[str]:
    """Extract configured parts for every manifest row into features/, which
    holds one features record: a run under another, or with no config_id.txt,
    first empties it and writes the record to config_id.pending, which it
    replaces with config_id.txt once every row is done.  A run that finds
    only a pending record of its own configuration resumes: each row's
    .hash decides whether it is extracted again.  Unreadable images are
    skipped with a warning; it is an error when no image succeeds.  Returns
    the image paths that produced artifacts."""
    started = time.perf_counter()
    out = Path(out_dir) / "features"
    marker, pending = out / "config_id.txt", out / "config_id.pending"
    record = _record_text(stage_record(config, "features")).encode()
    if marker.exists():
        current = marker.read_bytes() == record
    elif pending.exists() and pending.read_bytes() == record:
        log(f"features: {pending} holds this configuration; resuming the unfinished run")
        current = True
    else:
        current = False
    if not current:
        if out.exists():
            log(f"features: no {marker} of this configuration; emptying {out}")
            shutil.rmtree(out)
        out.mkdir(parents=True)
        write_atomic(pending, [record])
    tasks = [(r.path, str(manifest.resolve(r)), str(out), config) for r in manifest.rows]
    # the pool forks every worker up front, so start no more than there are rows
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    write_atomic(marker, [record])
    pending.unlink(missing_ok=True)
    log(f"features: {len(ok)}/{len(tasks)} images in {time.perf_counter() - started:.1f}s")
    return ok


# ---------------------------------------------------------------------------
# vocabulary and encoding
# ---------------------------------------------------------------------------

def run_vocab(manifest: Manifest, config: PipelineConfig, out_dir, log=print) -> Path:
    """Build the visual vocabulary from the stored descriptors: all of them,
    or over vocab.sample_cap the evenly spaced rows ``np.arange(cap) * total
    // cap``.  A row without descriptors is skipped with a warning.
    Wall-clock time is logged for vocabulary-size studies, never asserted."""
    started = time.perf_counter()
    part = config.part("bovw")
    if part is None:
        raise DataError("configuration has no bovw part; nothing to cluster")
    features = _features_record(out_dir, config)
    feat_dir = Path(out_dir) / "features"
    files, counts, dim = [], [], None
    for row in manifest.rows:
        desc_file = feat_dir / f"{artifact_stem(row.path)}.desc"
        if not desc_file.exists():
            log(f"warning: missing descriptors for {row.path}: {desc_file}")
            continue
        count, file_dim = read_descriptor_shape(desc_file)
        if not count:
            log(f"warning: no descriptors for {row.path}: {desc_file}")
            continue
        if files and file_dim != dim:
            raise DataError(
                f"{desc_file} holds {file_dim}-dim descriptors, {files[0]} {dim}-dim; "
                "rerun the features stage"
            )
        files.append(desc_file)
        counts.append(count)
        dim = file_dim
    if not files:
        raise DataError("no descriptors found; did the features stage run?")
    # the one matrix held while clustering: every row, or the kept rows; each
    # file's rows go straight in
    total, cap = sum(counts), config.vocab_sample_cap
    keep = np.arange(cap) * total // cap if total > cap else None
    descriptors = np.empty((total if keep is None else keep.size, dim))
    start = filled = 0
    for desc_file, count in zip(files, counts):
        _, values = read_descriptors(desc_file)
        if values.shape != (count, dim):
            raise DataError(f"{desc_file} changed while the vocab stage read it")
        if keep is not None:
            lo, hi = np.searchsorted(keep, (start, start + count))
            values = values[keep[lo:hi] - start]
        descriptors[filled : filled + len(values)] = values
        start += count
        filled += len(values)
    if config.vocab_builder == "kmeans":
        vocab = bovw_mod.kmeans(
            descriptors, part.k, config.vocab_distance, config.seed, config.vocab_max_iter
        )
    else:
        vocab = bovw_mod.incremental_vocab(descriptors, config.vocab_threshold, config.vocab_distance)
    record = stage_record(config, "vocab", features)
    path = Path(out_dir) / "vocab.bin"
    bovw_mod.write_vocabulary(replace(vocab, record=_record_text(record)), path)
    costs = vocab.cost_history  # empty for the incremental builder
    lloyd = f", {len(costs)} Lloyd iterations, final cost {costs[-1]:.6g}" if costs else ""
    log(
        f"vocabulary: {vocab.k} words over {descriptors.shape[0]} descriptors{lloyd} "
        f"in {time.perf_counter() - started:.1f}s"
    )
    return path


def run_encode(manifest: Manifest, config: PipelineConfig, out_dir, log=print) -> int:
    """Quantize stored descriptors into normalized word histograms, and
    record in features/vocab_id.txt the vocabulary they were encoded against."""
    features = _features_record(out_dir, config)
    vocab_path = Path(out_dir) / "vocab.bin"
    if not vocab_path.exists():
        raise DataError(f"missing vocabulary {vocab_path} (run the vocab stage first)")
    vocab = _read_artifact(bovw_mod.read_vocabulary, vocab_path, "vocab")
    check_record(vocab_path, _parse_record(vocab.record), stage_record(config, "vocab", features), "vocab")
    feat_dir = Path(out_dir) / "features"
    marker = feat_dir / "vocab_id.txt"
    marker.unlink(missing_ok=True)  # until every histogram is rewritten
    encoded = 0
    for row in manifest.rows:
        stem = artifact_stem(row.path)
        desc_file = feat_dir / f"{stem}.desc"
        if not desc_file.exists():
            log(f"warning: missing descriptors for {row.path}: {desc_file}")
            continue
        _, values = read_descriptors(desc_file)
        if not len(values):
            log(f"warning: no descriptors for {row.path}: {desc_file}")
            continue
        if values.shape[1] != vocab.dim:
            raise DataError(
                f"{vocab_path} holds {vocab.dim}-dim words, {desc_file} {values.shape[1]}-dim "
                "descriptors; rerun the vocab stage"
            )
        write_histogram_csv(bovw_mod.encode_image(values, vocab), feat_dir / f"{stem}.bovw.csv")
        encoded += 1
    if encoded == 0:
        raise DataError("no image could be encoded against the vocabulary")
    marker.write_text(vocab.record)
    return encoded


# ---------------------------------------------------------------------------
# composite assembly, training, prediction, evaluation
# ---------------------------------------------------------------------------

def load_labeled_features(
    manifest: Manifest, config: PipelineConfig, out_dir, log=print
) -> Tuple[List[ManifestRow], Composite]:
    """The rows that have every part's artifact, and their features as one
    Composite; each row without one (unreadable image, no descriptors) is
    logged as a warning."""
    feat_dir = Path(out_dir) / "features"
    rows, bins = [], []
    first = {}  # part name -> bin count and path of the first file read
    for row in manifest.rows:
        stem = artifact_stem(row.path)
        row_bins = []
        for part in config.parts:
            path = feat_dir / f"{stem}.{part.name}.csv"
            if not path.exists():
                log(f"warning: missing {part.name} artifact for {row.path}: {path}")
                break
            h = read_histogram_csv(path).bins
            width, first_path = first.setdefault(part.name, (h.size, path))
            if h.size != width:
                raise DataError(f"{path}: {h.size} bins, but {first_path} has {width}")
            row_bins.append(h)
        else:
            rows.append(row)
            bins.append(row_bins)
    if not rows:
        raise DataError("no feature artifacts available for the selected rows")
    parts = [(p.name, p.measure, p.weight) for p in config.parts]
    return rows, Composite(parts, [np.stack(column) for column in zip(*bins)])


def _resolve_kernel(config: PipelineConfig, vectors: np.ndarray) -> KernelSpec:
    if config.kernel != "rbf":
        return KernelSpec(config.kernel)
    sigma = config.kernel_sigma
    if sigma is None:
        sigma = median_heuristic_sigma(vectors)
    return KernelSpec("rbf", sigma=sigma)


def run_train(manifest: Manifest, config: PipelineConfig, out_dir, log=print) -> Path:
    """Train the configured classifier and write the model file."""
    started = time.perf_counter()
    record = _record_text(stage_record(config, "train", *_consumed_records(out_dir, config)))
    rows, items = load_labeled_features(manifest, config, out_dir, log)
    labels = [row.label for row in rows]
    if len(set(labels)) < 2:
        raise DataError("training needs at least two classes")

    if config.classifier == "svm":
        vectors = items.concatenated()
        spec = _resolve_kernel(config, vectors)
        svm = ova_train(vectors, labels, spec, config.svm_c)
        model = ClassifierModel("svm", record, svm.labels, svm=svm)
    else:
        gallery = (labels, items)
        class_labels = sorted(set(labels))
        if config.ga_enabled:
            rng = np.random.default_rng(config.seed)
            order = rng.permutation(len(rows))
            n_val = max(1, int(round(config.ga_validation_fraction * len(rows))))
            train_idx, val_idx = np.sort(order[n_val:]), np.sort(order[:n_val])
            train = [labels[i] for i in train_idx], items.take(train_idx)
            val = [labels[i] for i in val_idx], items.take(val_idx)
            if not len(train_idx) or set(val[0]) - set(train[0]):
                raise DataError("GA split left a class without gallery examples")
            result = ga_optimize_thresholds(train, val, config.ga)
            thresholds = result.thresholds
            keep = np.concatenate([train_idx, val_idx])  # training rows, then validation rows
            gallery = [labels[i] for i in keep], items.take(keep)
            if result.best_fitness >= result.ceiling:
                stop = f"ceiling reached at generation {result.generations_run} of {config.ga.generations}"
            else:
                stop = f"below the ceiling F={result.ceiling:.4f} after all {config.ga.generations} generations"
            log(f"GA thresholds tuned: best F={result.best_fitness:.4f}, {stop}")
        else:
            thresholds = ThresholdSet.permissive(class_labels)
        model = ClassifierModel("nn", record, class_labels, gallery=gallery, thresholds=thresholds)

    path = Path(out_dir) / "model.bin"
    save_model(model, path)
    log(
        f"model: {config.classifier} over {len(rows)} examples, "
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
    consumed = _consumed_records(out_dir, config)
    model_path = Path(model_path) if model_path else Path(out_dir) / "model.bin"
    if not model_path.exists():
        raise DataError(f"missing model file {model_path}")
    model = _read_artifact(load_model, model_path, "train")
    check_record(model_path, _parse_record(model.record), stage_record(config, "train", *consumed), "train")
    kept, items = load_labeled_features(manifest, config, out_dir, log)

    if model.kind == "svm":
        svm = model.svm
        predicted, confidence = svm.decide(svm.scores(items.concatenated()))
    else:
        dists, gallery_labels = nn_distances(items, model.gallery)
        predicted, nearest = nn_decide(dists, gallery_labels, model.thresholds)
        confidence = -nearest
    answers = {row.path: (label, score) for row, label, score in zip(kept, predicted, confidence)}
    # an extracted image that lacks a part (one without descriptors has no
    # bovw histogram) was warned about above; it is answered UNKNOWN with the
    # file's lowest score.  An image that failed extraction gets no row.
    feat_dir = Path(out_dir) / "features"
    fallback = (UNKNOWN, np.min(confidence))
    rows = []
    for row in manifest.rows:
        if row.path in answers or (feat_dir / f"{artifact_stem(row.path)}.hash").exists():
            label, score = answers.get(row.path, fallback)
            rows.append([row.path, label, f"{score:.10g}"])
    path = write_csv(Path(out_dir) / "predictions.csv", [["path", "predicted", "score"], *rows])
    log(f"predictions: {len(rows)} rows, {len(rows) - len(kept)} of them UNKNOWN for lack of features -> {path}")
    return path


def run_evaluate(predictions_path, manifest: Manifest, report_dir, log=print):
    """Join predictions with manifest truth labels and emit report CSVs."""
    pred_file = Path(predictions_path)
    if not pred_file.exists():
        raise DataError(f"missing predictions file {pred_file}")
    try:
        with open(pred_file, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read predictions {pred_file}: {exc}") from None
    if not rows or rows[0] != ["path", "predicted", "score"]:
        raise DataError(f"{pred_file}: not a predictions file")
    truth = {r.path: r.label for r in manifest.rows}
    seen = set()
    preds, truths, scores = [], [], []
    for ln, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise DataError(f"{pred_file}:{ln}: expected path, predicted, score; got {row!r}")
        path, predicted, score = row
        if path not in truth:
            raise DataError(f"{pred_file}:{ln}: prediction for unknown path {path!r}")
        if path in seen:
            raise DataError(f"{pred_file}:{ln}: second prediction for path {path!r}")
        seen.add(path)
        try:
            scores.append(FINITE.parse(score))
        except ValueError:
            raise DataError(f"{pred_file}:{ln}: score must be {FINITE.text}, got {score!r}") from None
        preds.append(predicted)
        truths.append(truth[path])
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
