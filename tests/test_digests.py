"""`tools/digests.py` is the byte-identity matrix: small pipeline runs whose
whole-tree digests two checkouts must share.  These tests keep it complete:
every choice of every configuration key is used by some run."""

import hashlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from placevision import distances, pipeline
from placevision.bovw import kmeans

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def digests():
    return _load("tools_digests", ROOT / "tools" / "digests.py")


def _measure_name(measure_id):
    return measure_id.partition(":")[0]  # minkowski:3 -> minkowski


def _accepts(rule, text):
    try:
        rule(text)
    except ValueError:
        return False
    return True


def choices(accepts):
    """Every choice a config key accepts; empty for numbers and bin grids."""
    if isinstance(accepts, dict):
        return set(accepts.values())
    if isinstance(accepts, tuple):
        return set(accepts)
    if accepts in (pipeline._measure, pipeline._vocab_distance):
        return {m for m in set(distances._BLOCKS) | {"minkowski"} if _accepts(accepts, m)}
    if accepts is pipeline._part_names:
        return set(pipeline._PARTS)
    return set()


def exercised(config):
    """(key, choice) pairs a run's configuration uses where they matter: the
    part measures (pooled as "part.measure") and the GA only under the NN
    classifier, the kernel only under the SVM, vocab.* and bovw.feature only
    with a bovw part."""
    used = {("features.parts", p.name) for p in config.parts} | {("classifier.kind", config.classifier)}
    if config.classifier == "nn":
        used.add(("ga.enabled", config.ga_enabled))
        used |= {("part.measure", _measure_name(p.measure)) for p in config.parts}
    else:
        used.add(("classifier.kernel", config.kernel))
    bovw = config.part("bovw")
    if bovw is not None:
        used |= {("bovw.feature", bovw.feature), ("vocab.builder", config.vocab_builder),
                 ("vocab.distance", _measure_name(config.vocab_distance))}
    return used


def test_every_choice_of_every_config_key_is_in_some_run(digests):
    required = {
        ("part.measure" if accepts is pipeline._measure else key, choice)
        for key, accepts in pipeline._CONFIG_KEYS.items()
        for choice in choices(accepts)
    }
    covered = set().union(*(exercised(pipeline.parse_config_text(text)) for _, _, text in digests.runs()))
    assert sorted(required - covered, key=str) == []


def test_runs_of_a_group_share_its_feature_configuration(digests):
    for group, name, text in digests.runs():
        base = digests.GROUPS[group][1]
        features = pipeline.stage_record(pipeline.parse_config_text(text), "features")
        assert features == pipeline.stage_record(pipeline.parse_config_text(base), "features"), name
    cap = pipeline.parse_config_text(dict((n, t) for _, n, t in digests.runs())["sift/svm-linear-cap1500"])
    assert cap.vocab_sample_cap == 1500


def test_gallery_runs_are_the_benchmark_configuration(digests):
    workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    assert digests.GALLERY_NN == workloads.NN_CONFIG
    assert digests.GROUPS["gallery-nn"][0] == (workloads.SCALES["full"]["gallery_per_class"], 1000)
    seeds = [pipeline.parse_config_text(t).seed for g, _, t in digests.runs() if g == "gallery-nn"]
    assert seeds == list(range(7, 31))


# emd would take raw descriptors through a transportation problem per
# descriptor-word pair, far too slow to run
@pytest.mark.parametrize("measure_id", sorted(set(distances.ONE_MASS) - {"emd"}))
def test_measures_left_out_as_vocab_distance_refuse_raw_descriptors(measure_id):
    x = np.random.default_rng(3).random((60, 8))  # positive rows, L1 norms about 4
    with pytest.raises(ValueError):
        kmeans(x, k=4, distance_id=measure_id, seed=1)


def test_one_run_prints_its_tree_digest(digests, tmp_path):
    got = digests.digests(ROOT / "src", tmp_path, jobs=1, only=["sift/criterion10-svm"])
    tree = got["sift/criterion10-svm"]["tree"]
    assert list(got) == ["sift/criterion10-svm"] and re.fullmatch(r"[0-9a-f]{64}", tree)
    out = tmp_path / "runs" / "sift" / "criterion10-svm"
    assert tree == digests.tree_sha256(out)
    assert {"vocab.bin", "model.bin", "predictions.csv"} <= {p.name for p in out.iterdir()}


def test_files_lists_the_sha256_of_every_file_of_a_run(digests, tmp_path):
    got = digests.digests(ROOT / "src", tmp_path, jobs=1, only=["sift/nn-ga"])
    out = tmp_path / "runs" / "sift" / "nn-ga"
    assert list(got) == ["sift/nn-ga"] and got["sift/nn-ga"]["tree"] == digests.tree_sha256(out)
    listed = got["sift/nn-ga"]["files"]
    on_disk = {p.relative_to(out).as_posix(): p for p in out.rglob("*") if p.is_file()}
    assert sorted(listed) == sorted(on_disk) and "report/confusion.csv" in listed
    for name, path in on_disk.items():
        assert listed[name] == hashlib.sha256(path.read_bytes()).hexdigest(), name
