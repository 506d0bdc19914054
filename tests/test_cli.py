import argparse
import csv
import hashlib
import inspect
import re
import shutil
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from placevision import pipeline, synth
from placevision.cli import build_parser, main
from placevision.classify import Composite
from placevision.image import Image, load_pnm, write_pnm
from placevision.modelio import load_model, save_model
from placevision.pipeline import artifact_stem, parse_config_text, read_manifest
from tests.test_modelio import _first_row_index_offset

CONFIG = """
features.parts = rgb,hsv,bovw
bovw.k = 12
vocab.max_iter = 15
classifier.kind = svm
classifier.kernel = rbf
seed = 5
"""


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    rc = main(
        ["synth-dataset", "--out", str(root), "--classes", "3", "--per-class", "6",
         "--size", "96", "--seed", "5"]
    )
    assert rc == 0
    cfg = root / "pipeline.cfg"
    cfg.write_text(CONFIG)
    return root


def run_stage(args):
    return main([str(a) for a in args])


def test_synth_dataset_layout(dataset):
    manifest = read_manifest(dataset / "manifest.tsv")
    assert len(manifest.rows) == 18
    assert manifest.labels == ["Corridor", "ElevatorArea", "LoungeArea"]
    assert {r.sequence for r in manifest.rows} == {1, 2, 3}
    img = load_pnm(manifest.resolve(manifest.rows[0]))
    assert (img.width, img.height) == (96, 96)


def test_full_pipeline_stages_and_artifacts(dataset, tmp_path):
    out = tmp_path / "out"
    man = dataset / "manifest.tsv"
    cfg = dataset / "pipeline.cfg"
    assert run_stage(["features", "--manifest", man, "--config", cfg, "--out", out]) == 0
    stem = artifact_stem(read_manifest(man).rows[0].path)
    assert (out / "features" / f"{stem}.rgb.csv").exists()
    assert (out / "features" / f"{stem}.hsv.csv").exists()
    assert (out / "features" / f"{stem}.desc").exists()

    assert run_stage(["vocab", "--manifest", man, "--config", cfg, "--out", out,
                      "--sequences", "1,3"]) == 0
    assert (out / "vocab.bin").exists()
    assert run_stage(["encode", "--manifest", man, "--config", cfg, "--out", out]) == 0
    assert (out / "features" / f"{stem}.bovw.csv").exists()
    assert run_stage(["train", "--manifest", man, "--config", cfg, "--out", out,
                      "--sequences", "1,3"]) == 0
    assert (out / "model.bin").exists()
    assert run_stage(["predict", "--manifest", man, "--config", cfg, "--out", out,
                      "--sequences", "2"]) == 0
    pred_lines = (out / "predictions.csv").read_text().splitlines()
    assert pred_lines[0] == "path,predicted,score"
    assert len(pred_lines) == 1 + 6  # three classes, two seq-2 images each
    assert run_stage(["evaluate", "--manifest", man, "--out", out,
                      "--sequences", "2"]) == 0
    for name in ("confusion.csv", "pr_curve.csv", "summary.csv"):
        assert (out / "report" / name).exists()


def test_feature_rerun_is_cached_noop(dataset, tmp_path):
    out = tmp_path / "out"
    man = dataset / "manifest.tsv"
    cfg = dataset / "pipeline.cfg"
    assert run_stage(["features", "--manifest", man, "--config", cfg, "--out", out]) == 0
    stem = artifact_stem(read_manifest(man).rows[0].path)
    target = out / "features" / f"{stem}.rgb.csv"
    before = target.read_bytes()
    mtime = target.stat().st_mtime_ns
    assert run_stage(["features", "--manifest", man, "--config", cfg, "--out", out]) == 0
    assert target.read_bytes() == before
    assert target.stat().st_mtime_ns == mtime  # skipped, not rewritten


def test_corrupt_image_warns_but_succeeds(dataset, tmp_path, capsys):
    out = tmp_path / "out"
    data = tmp_path / "data"
    data.mkdir()
    (data / "images").mkdir()
    # copy a couple of valid rows, then poison one file
    manifest = read_manifest(dataset / "manifest.tsv")
    rows = manifest.rows[:3]
    lines = ["path\tlabel\tsequence"]
    for r in rows:
        blob = (dataset / r.path).read_bytes()
        (data / r.path).write_bytes(blob)
        lines.append(f"{r.path}\t{r.label}\t{r.sequence}")
    (data / rows[0].path).write_bytes(b"P6\n96 96\n255\nshort")
    (data / "manifest.tsv").write_text("\n".join(lines) + "\n")
    cfg = dataset / "pipeline.cfg"
    rc = run_stage(["features", "--manifest", data / "manifest.tsv", "--config", cfg, "--out", out])
    assert rc == 0
    err = capsys.readouterr().err
    assert "warning: skipping" in err
    assert "truncated payload" in err


def test_all_images_corrupt_is_data_error(tmp_path, dataset):
    data = tmp_path / "data"
    (data / "images").mkdir(parents=True)
    (data / "images" / "x.ppm").write_bytes(b"garbage")
    (data / "manifest.tsv").write_text("path\tlabel\tsequence\nimages/x.ppm\ta\t1\n")
    rc = run_stage(["features", "--manifest", data / "manifest.tsv",
                    "--config", dataset / "pipeline.cfg", "--out", tmp_path / "out"])
    assert rc == 2


def test_usage_error_exit_code():
    assert main(["features", "--manifest"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["features", "--manifest", "m.tsv", "--config", "c", "--out", "o",
                 "--sequences", "x,y"]) == 1


def test_missing_manifest_is_data_error(dataset, tmp_path):
    rc = run_stage(["features", "--manifest", tmp_path / "nope.tsv",
                    "--config", dataset / "pipeline.cfg", "--out", tmp_path / "out"])
    assert rc == 2


def test_config_id_mismatch_is_hard_error(dataset, tmp_path, capsys):
    out = tmp_path / "out"
    man = dataset / "manifest.tsv"
    cfg = dataset / "pipeline.cfg"
    other_cfg = tmp_path / "other.cfg"
    other_cfg.write_text("features.parts = rgb\nclassifier.kind = nn\nseed = 5\n")
    assert run_stage(["features", "--manifest", man, "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    # vocab/train against a different feature configuration must refuse
    rc = run_stage(["train", "--manifest", man, "--config", other_cfg, "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert (f"{out / 'features' / 'config_id.txt'} was built with features.parts rgb,hsv,bovw, "
            "the configuration asks for features.parts rgb; rerun the features stage") in err


def test_predict_with_mismatched_model_refused(dataset, tmp_path, capsys):
    man = dataset / "manifest.tsv"
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg_a = dataset / "pipeline.cfg"
    cfg_b = tmp_path / "b.cfg"
    cfg_b.write_text("features.parts = rgb\nclassifier.kind = nn\nseed = 5\n")
    for cfg, out in ((cfg_a, out_a), (cfg_b, out_b)):
        assert run_stage(["features", "--manifest", man, "--config", cfg, "--out", out]) == 0
    assert run_stage(["vocab", "--manifest", man, "--config", cfg_a, "--out", out_a]) == 0
    assert run_stage(["encode", "--manifest", man, "--config", cfg_a, "--out", out_a]) == 0
    assert run_stage(["train", "--manifest", man, "--config", cfg_a, "--out", out_a]) == 0
    assert run_stage(["train", "--manifest", man, "--config", cfg_b, "--out", out_b]) == 0
    capsys.readouterr()
    # model from configuration A against features/config B
    rc = run_stage(["predict", "--manifest", man, "--config", cfg_b, "--out", out_b,
                    "--model", out_a / "model.bin"])
    assert rc == 2
    err = capsys.readouterr().err
    assert (f"{out_a / 'model.bin'} was built with features.parts rgb,hsv,bovw, "
            "the configuration asks for features.parts rgb; rerun the train stage") in err


def test_nn_self_prediction_is_perfect(dataset, tmp_path):
    out = tmp_path / "out"
    man = dataset / "manifest.tsv"
    cfg = tmp_path / "nn.cfg"
    cfg.write_text("features.parts = rgb,hsv\nclassifier.kind = nn\nseed = 5\n")
    for stage in (["features"], ["train"], ["predict"]):
        assert run_stage(stage + ["--manifest", man, "--config", cfg, "--out", out]) == 0
    rc = run_stage(["evaluate", "--manifest", man, "--out", out])
    assert rc == 0
    summary = (out / "report" / "summary.csv").read_text().splitlines()
    aggregate = summary[-1].split(",")
    assert float(aggregate[1]) == 1.0  # precision
    assert float(aggregate[2]) == 1.0  # recall


def test_jobs_parallelism_gives_identical_artifacts(dataset, tmp_path):
    man = dataset / "manifest.tsv"
    cfg = dataset / "pipeline.cfg"
    digests = []
    for jobs, name in ((1, "j1"), (2, "j2")):
        out = tmp_path / name
        assert run_stage(["features", "--manifest", man, "--config", cfg, "--out", out,
                          "--jobs", jobs]) == 0
        assert run_stage(["vocab", "--manifest", man, "--config", cfg, "--out", out]) == 0
        blob = b"".join(
            f.read_bytes() for f in sorted((out / "features").glob("*")) if f.is_file()
        ) + (out / "vocab.bin").read_bytes()
        digests.append(hashlib.sha256(blob).hexdigest())
    assert digests[0] == digests[1]


@pytest.mark.parametrize("measure", ["minkowski:0.5", "minkowski:x"])
def test_bad_measure_id_is_config_error(dataset, tmp_path, capsys, measure):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG + f"bovw.measure = {measure}\n")
    rc = run_stage(["train", "--manifest", dataset / "manifest.tsv", "--config", cfg,
                    "--out", tmp_path / "out"])
    assert rc == 2
    assert "bovw.measure" in capsys.readouterr().err


def test_bad_vocab_distance_fails_before_features(dataset, tmp_path, capsys):
    # a bad order, and each measure of one total mass: raw descriptors have none
    for measure in ("minkowski:0.5", "kl", "bhattacharyya", "match", "emd"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG + f"vocab.distance = {measure}\n")
        out = tmp_path / "out"
        rc = run_stage(["features", "--manifest", dataset / "manifest.tsv", "--config", cfg,
                        "--out", out])
        assert rc == 2, measure
        assert "vocab.distance" in capsys.readouterr().err, measure
        assert not out.exists(), measure


def test_truncated_descriptor_file_is_data_error(dataset, tmp_path, capsys):
    man = dataset / "manifest.tsv"
    cfg = dataset / "pipeline.cfg"
    out = tmp_path / "out"
    assert run_stage(["features", "--manifest", man, "--config", cfg, "--out", out]) == 0
    stem = artifact_stem(read_manifest(man).rows[0].path)
    # inside the tag and version, then inside the count and dim
    for head in (b"PVSD\x01\x00", b"PVSD\x01\x00\x00\x00\x05\x00\x00"):
        (out / "features" / f"{stem}.desc").write_bytes(head)
        assert run_stage(["vocab", "--manifest", man, "--config", cfg, "--out", out]) == 2
        assert "truncated descriptor file" in capsys.readouterr().err


def _copy_dataset(dataset, dest, relabel=lambda label: label):
    """Copy the fixture images under dest with a manifest; returns the manifest path."""
    (dest / "images").mkdir(parents=True)
    lines = ["path\tlabel\tsequence"]
    for r in read_manifest(dataset / "manifest.tsv").rows:
        (dest / r.path).write_bytes((dataset / r.path).read_bytes())
        lines.append(f"{r.path}\t{relabel(r.label)}\t{r.sequence}")
    man = dest / "manifest.tsv"
    man.write_text("\n".join(lines) + "\n")
    return man


def test_predict_warns_for_each_row_it_cannot_classify(dataset, tmp_path, capsys):
    data = tmp_path / "data"
    man = _copy_dataset(dataset, data)
    # a flat image has no SIFT keypoints, so it never gets a bovw histogram
    write_pnm(Image(np.full((96, 96, 3), 0.5)), data / "images" / "flat.ppm")
    with man.open("a") as fh:
        fh.write("images/flat.ppm\tCorridor\t2\n")
    out = tmp_path / "out"
    cfg = dataset / "pipeline.cfg"
    for stage in (["features"], ["vocab", "--sequences", "1,3"], ["encode"],
                  ["train", "--sequences", "1,3"]):
        assert run_stage([stage[0], "--manifest", man, "--config", cfg, "--out", out]
                         + stage[1:]) == 0
    capsys.readouterr()
    assert run_stage(["predict", "--manifest", man, "--config", cfg, "--out", out,
                      "--sequences", "2"]) == 0
    warnings = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
    assert len(warnings) == 1
    assert "images/flat.ppm" in warnings[0] and "bovw" in warnings[0]
    with (out / "predictions.csv").open(newline="") as fh:
        preds = list(csv.reader(fh))
    assert len(preds) == 1 + 7
    # the featureless row is answered UNKNOWN, in manifest order, with the
    # lowest score in the file
    assert preds[-1][:2] == ["images/flat.ppm", "UNKNOWN"]
    assert float(preds[-1][2]) == min(float(score) for _, _, score in preds[1:])
    assert run_stage(["evaluate", "--manifest", man, "--out", out, "--sequences", "2"]) == 0


def test_label_with_comma_round_trips_through_predictions(dataset, tmp_path):
    label = "Office, 2nd floor"
    man = _copy_dataset(dataset, tmp_path / "data",
                        lambda lb: label if lb == "Corridor" else lb)
    out = tmp_path / "out"
    cfg = tmp_path / "nn.cfg"
    cfg.write_text("features.parts = rgb\nclassifier.kind = nn\nseed = 5\n")
    for stage in ("features", "train", "predict"):
        assert run_stage([stage, "--manifest", man, "--config", cfg, "--out", out]) == 0
    with (out / "predictions.csv").open(newline="") as fh:
        assert label in {row[1] for row in csv.reader(fh)}
    assert run_stage(["evaluate", "--manifest", man, "--out", out]) == 0
    aggregate = (out / "report" / "summary.csv").read_text().splitlines()[-1].split(",")
    assert float(aggregate[1]) == 1.0  # precision
    assert float(aggregate[2]) == 1.0  # recall


def test_failed_reextraction_leaves_no_stale_features(dataset, tmp_path, capsys):
    data = tmp_path / "data"
    man = _copy_dataset(dataset, data)
    out = tmp_path / "out"
    cfg = dataset / "pipeline.cfg"
    for stage in (["features"], ["vocab", "--sequences", "1,3"], ["encode"],
                  ["train", "--sequences", "1,3"]):
        assert run_stage([stage[0], "--manifest", man, "--config", cfg, "--out", out]
                         + stage[1:]) == 0
    victim = next(r for r in read_manifest(man).rows if r.sequence == 2)
    (data / victim.path).write_bytes(b"P6\n96 96\n255\nshort")
    assert run_stage(["features", "--manifest", man, "--config", cfg, "--out", out]) == 0
    assert not list((out / "features").glob(f"{artifact_stem(victim.path)}.*"))
    capsys.readouterr()
    assert run_stage(["predict", "--manifest", man, "--config", cfg, "--out", out,
                      "--sequences", "2"]) == 0
    warnings = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
    assert len(warnings) == 1 and victim.path in warnings[0]
    preds = (out / "predictions.csv").read_text().splitlines()
    assert len(preds) == 1 + 5
    assert not any(victim.path in ln for ln in preds)


def test_reextracted_row_keeps_no_stale_word_histogram(dataset, tmp_path, capsys):
    data = tmp_path / "data"
    man = _copy_dataset(dataset, data)
    out = tmp_path / "out"
    cfg = dataset / "pipeline.cfg"
    stages = ["features", "vocab", "encode"]
    for stage in stages:
        assert run_stage([stage, "--manifest", man, "--config", cfg, "--out", out]) == 0
    victim = read_manifest(man).rows[0]
    # a flat image still extracts, but has no SIFT keypoints to encode
    write_pnm(Image(np.full((96, 96, 3), 0.5)), data / victim.path)
    capsys.readouterr()
    for stage in stages + ["train"]:
        assert run_stage([stage, "--manifest", man, "--config", cfg, "--out", out]) == 0
    assert not (out / "features" / f"{artifact_stem(victim.path)}.bovw.csv").exists()
    err = capsys.readouterr().err
    assert f"warning: missing bovw artifact for {victim.path}" in err
    assert "over 17 examples" in err
    assert run_stage(["predict", "--manifest", man, "--config", cfg, "--out", out]) == 0
    with (out / "predictions.csv").open(newline="") as fh:
        answers = {path: label for path, label, _ in list(csv.reader(fh))[1:]}
    assert len(answers) == 18 and answers[victim.path] == "UNKNOWN"


@pytest.mark.parametrize("line, named", [
    ("classifer.kind = nn", "unknown key 'classifer.kind'"),
    ("classifier.kind = knn", "classifier.kind"),
    ("classifier.kernel = poly", "classifier.kernel"),
    ("bovw.feature = surf", "bovw.feature"),
    ("vocab.builder = kmedoids", "vocab.builder"),
    ("ga.enabled = on", "ga.enabled"),
])
def test_unknown_config_key_or_choice_fails_before_features(dataset, tmp_path, capsys, line, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG.lstrip("\n") + line + "\n")
    out = tmp_path / "out"
    rc = run_stage(["features", "--manifest", dataset / "manifest.tsv", "--config", cfg,
                    "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config line 7" in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("sift.sigma0", "-1"),
    ("sift.sigma0", "nan"),
    ("sift.octaves", "0"),
    ("sift.octaves", "2.5"),
    ("sift.scales_per_octave", "0"),
    ("sift.orientation_sigma_factor", "0"),
    ("sift.contrast_threshold", "-0.1"),
    ("sift.edge_ratio", "inf"),
])
def test_bad_sift_value_fails_before_features(dataset, tmp_path, capsys, key, value):
    with pytest.raises(pipeline.DataError, match=f"{key} must be"):
        parse_config_text(f"{key} = {value}\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG + f"{key} = {value}\n")
    out = tmp_path / "out"
    rc = run_stage(["features", "--manifest", dataset / "manifest.tsv", "--config", cfg,
                    "--out", out])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("bovw.k", "0"),
    ("bovw.k", "x"),
    ("vocab.max_iter", "0"),
    ("vocab.sample_cap", "-5"),
    ("vocab.threshold", "inf"),
    ("rgb.weight", "nan"),
    ("hsv.weight", "-0.5"),
    ("classifier.c", "-1"),
    ("classifier.rbf_sigma", "0"),
    ("ga.population", "0"),
    ("ga.population", "1"),
    ("ga.generations", "0"),
    ("ga.mutation_rate", "2"),
    ("ga.crossover_rate", "-0.1"),
    ("ga.validation_fraction", "1"),
    ("seed", "1.5"),
    ("seed", "-1"),
    ("rgb.bins", "10x10xa"),
])
def test_bad_numeric_value_fails_before_features(dataset, tmp_path, capsys, key, value):
    with pytest.raises(pipeline.DataError, match=re.escape(key)):
        parse_config_text(f"{key} = {value}\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG + f"{key} = {value}\n")
    out = tmp_path / "out"
    rc = run_stage(["features", "--manifest", dataset / "manifest.tsv", "--config", cfg,
                    "--out", out])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_config_keys_and_parameter_fields_share_one_rule():
    from placevision.classify import GA_RULES
    from placevision.sift import SIFT_RULES

    for name, rule in SIFT_RULES.items():
        assert pipeline._CONFIG_KEYS[f"sift.{name}"] is rule
    for name in ("population", "mutation_rate", "crossover_rate", "generations"):
        assert pipeline._CONFIG_KEYS[f"ga.{name}"] is GA_RULES[name]
    config = parse_config_text("classifier.rbf_sigma = auto\nseed = 0\nga.population = 2\n")
    assert config.kernel_sigma is None and config.ga.seed == 0 and config.ga.population == 2


def test_empty_config_is_the_dataclass_defaults():
    from placevision.classify import GaParams
    from placevision.histograms import DEFAULT_HSV_BINS, DEFAULT_RGB_BINS
    from placevision.pipeline import PartConfig, PipelineConfig

    third = 1.0 / 3.0
    parts = (
        PartConfig("rgb", "jeffrey", third, bins=DEFAULT_RGB_BINS),
        PartConfig("hsv", "bhattacharyya", third, bins=DEFAULT_HSV_BINS),
        PartConfig("bovw", "minkowski:1", third),
    )
    # the GA draws from the config seed
    assert parse_config_text("") == PipelineConfig(parts, ga=GaParams(seed=PipelineConfig.seed))


def _fields(config):
    """Every leaf value of a config, keyed by where it lives."""
    flat = {"features.parts": tuple(p.name for p in config.parts)}
    for p in config.parts:
        flat.update({f"{p.name}.{k}": v for k, v in asdict(p).items()})
    for name, value in asdict(config).items():
        if isinstance(value, dict):
            flat.update({f"{name}.{k}": v for k, v in value.items()})
        elif name != "parts":
            flat[name] = value
    return flat


# A value other than the default for every config key.
NON_DEFAULT = {
    "features.parts": "bovw,hsv,rgb",
    "rgb.bins": "4x4x4",
    "hsv.bins": "8x4x4",
    "rgb.measure": "chi2",
    "hsv.measure": "kl",
    "bovw.measure": "euclidean",
    "rgb.weight": "2",
    "hsv.weight": "2",
    "bovw.weight": "2",
    "bovw.k": "12",
    "bovw.feature": "asift",
    "vocab.distance": "minkowski:1",
    "vocab.builder": "incremental",
    "vocab.threshold": "0.25",
    "vocab.max_iter": "7",
    "vocab.sample_cap": "1000",
    "classifier.kind": "nn",
    "classifier.kernel": "chi2",
    "classifier.c": "2.5",
    "classifier.rbf_sigma": "0.5",
    "ga.enabled": "yes",
    "ga.validation_fraction": "0.5",
    "ga.population": "20",
    "ga.mutation_rate": "0.5",
    "ga.crossover_rate": "0.5",
    "ga.generations": "9",
    "seed": "3",
    "sift.octaves": "3",
    "sift.scales_per_octave": "3",
    "sift.sigma0": "1.2",
    "sift.contrast_threshold": "0.05",
    "sift.edge_ratio": "12",
    "sift.orientation_sigma_factor": "1.6",
}


def test_each_config_key_sets_exactly_one_field_of_its_own():
    assert set(NON_DEFAULT) == set(pipeline._CONFIG_KEYS)
    base = _fields(parse_config_text(""))
    owner = {}
    for key, text in NON_DEFAULT.items():
        changed = _fields(parse_config_text(f"{key} = {text}\n"))
        assert changed.keys() == base.keys()
        diff = {name for name in base if changed[name] != base[name]}
        if key.endswith(".weight"):  # weights are renormalized to sum 1
            assert diff == {"rgb.weight", "hsv.weight", "bovw.weight"}
        elif key == "seed":  # the GA draws from the config seed
            assert diff == {"seed", "ga.seed"}
        else:
            assert len(diff) == 1, (key, diff)
            owner.setdefault(diff.pop(), []).append(key)
    assert {field: keys for field, keys in owner.items() if len(keys) > 1} == {}


@pytest.mark.parametrize("build, named", [
    (lambda c: pipeline.PipelineConfig(c.parts, vocab_builder="kmedoids"), "vocab.builder must be one of"),
    (lambda c: replace(c, classifier="knn"), "classifier.kind must be one of"),
    (lambda c: replace(c, kernel="poly"), "classifier.kernel must be one of"),
    (lambda c: replace(c.parts[2], feature="surf"), "bovw.feature must be one of"),
    (lambda c: replace(c.parts[0], name="gist"), "unknown feature part 'gist'"),
])
def test_hand_built_config_with_unknown_choice_is_data_error(build, named):
    with pytest.raises(pipeline.DataError, match=named):
        build(parse_config_text(""))


def test_repeated_part_is_data_error():
    with pytest.raises(pipeline.DataError, match="config line 1: features.parts: part 'rgb' listed twice"):
        parse_config_text("features.parts = rgb,hsv,rgb\n")


@pytest.mark.parametrize("line", ["hsv.measure = bogus", "hsv.bins = 1x2", "bovw.k = 0"])
def test_every_set_key_is_checked_whether_or_not_its_part_is_listed(line):
    key = line.split(" ")[0]
    with pytest.raises(pipeline.DataError, match=f"config line 2: {re.escape(key)}"):
        parse_config_text(f"features.parts = rgb\n{line}\n")


def test_measure_ids_are_stored_as_the_measure_reads_them():
    config = parse_config_text("features.parts = rgb,bovw\nrgb.measure = Jeffrey\nbovw.measure = MINKOWSKI:1\n"
                               "vocab.distance = Euclidean\n")
    assert config == parse_config_text("features.parts = rgb,bovw\n")
    assert config.vocab_distance == "euclidean"


# A value other than the default for every config key, and the configurations
# under which each is read: NN with the GA over k-means words, and an RBF SVM
# over incremental words.
OTHER_VALUE = {
    "features.parts": "rgb,bovw", "rgb.bins": "4x4x4", "hsv.bins": "4x4x4", "bovw.feature": "asift",
    "sift.octaves": "3", "sift.scales_per_octave": "3", "sift.sigma0": "1.5", "sift.contrast_threshold": "0.05",
    "sift.edge_ratio": "8", "sift.orientation_sigma_factor": "2",
    "vocab.distance": "minkowski:1", "vocab.builder": "incremental", "vocab.sample_cap": "100",
    "bovw.k": "10", "vocab.max_iter": "10", "vocab.threshold": "0.4", "seed": "12",
    "classifier.kind": "svm", "rgb.weight": "3", "hsv.weight": "3", "bovw.weight": "3",
    "rgb.measure": "euclidean", "hsv.measure": "euclidean", "bovw.measure": "euclidean",
    "classifier.kernel": "linear", "classifier.c": "3", "classifier.rbf_sigma": "0.5",
    "ga.enabled": "0", "ga.validation_fraction": "0.5", "ga.population": "50", "ga.mutation_rate": "0.2",
    "ga.crossover_rate": "0.5", "ga.generations": "10",
}
RECORD_BASES = ("classifier.kind = nn\nga.enabled = 1\n", "vocab.builder = incremental\n")


def _first_stage(key):
    """Index of the first stage that reads ``key``: features, vocab or train."""
    if key in ("features.parts", "rgb.bins", "hsv.bins", "bovw.feature") or key.startswith("sift."):
        return 0
    return 1 if key in ("bovw.k", "seed") or key.startswith("vocab.") else 2


def _stage_records(config):
    features = pipeline.stage_record(config, "features")
    vocab = pipeline.stage_record(config, "vocab", features)
    return features, vocab, pipeline.stage_record(config, "train", features, vocab)


@pytest.mark.parametrize("key", sorted(pipeline._CONFIG_KEYS))
def test_a_key_changes_the_record_of_its_stage_and_every_later_one_only(key):
    first, tried = _first_stage(key), 0
    for text in RECORD_BASES:
        base, changed = (parse_config_text(text + extra) for extra in ("", f"{key} = {OTHER_VALUE[key]}\n"))
        before, after = _stage_records(base), _stage_records(changed)
        if changed == base or key not in before[first]:
            continue  # its stage does not read it under this configuration
        assert before[:first] == after[:first], (text, key)
        assert all(b != a for b, a in zip(before[first:], after[first:])), (text, key)
        tried += 1
    assert tried, key


@pytest.mark.parametrize("which", ["config", "manifest"])
def test_non_utf8_config_or_manifest_is_data_error_naming_the_file(dataset, tmp_path, capsys, which):
    files = {"config": dataset / "pipeline.cfg", "manifest": dataset / "manifest.tsv"}
    bad = tmp_path / f"bad.{which}"
    bad.write_bytes(files[which].read_bytes() + b"\xff\n")
    files[which] = bad
    out = tmp_path / "out"
    rc = run_stage(["features", "--manifest", files["manifest"], "--config", files["config"], "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"cannot read {which} {bad}" in err and "utf-8" in err
    assert not out.exists()


@pytest.mark.parametrize("extra, stop", [
    ("ga.generations = 1000\n", r"ceiling reached at generation (\d+) of 1000"),
    ("ga.population = 2\nga.generations = 1\n", r"below the ceiling F=1\.0000 after all 1 generations"),
])
def test_train_log_says_where_the_ga_stopped(dataset, trained, tmp_path, capsys, extra, stop):
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    cfg = tmp_path / "nn.cfg"
    cfg.write_text(CONFIG.replace("classifier.kind = svm", "classifier.kind = nn\nga.enabled = 1") + extra)
    capsys.readouterr()
    assert run_stage(["train", "--manifest", dataset / "manifest.tsv", "--config", cfg,
                      "--out", out, "--sequences", "1,3"]) == 0
    line = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("GA thresholds")]
    assert len(line) == 1
    match = re.fullmatch(r"GA thresholds tuned: best F=(\d\.\d{4}), " + stop, line[0])
    assert match, line[0]
    if match.groups()[1:]:
        assert match[1] == "1.0000" and 1 <= int(match[2]) < 1000


def test_readme_configuration_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    config = parse_config_text(block)
    assert [p.name for p in config.parts] == ["rgb", "hsv", "bovw"]
    assert config.part("bovw").feature == "sift"
    assert config.classifier == "svm" and config.kernel == "rbf"
    assert config.kernel_sigma is None  # auto
    assert not config.ga_enabled and config.seed == 7


def test_readme_configuration_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration", 1)[1].split("\n## ", 1)[0]
    assert [key for key in pipeline._CONFIG_KEYS if f"`{key}`" not in section] == []
    table = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    default = parse_config_text("")
    for key_cell, _, default_cell in table:
        keys, defaults = re.findall(r"`([^`]*)`", key_cell), re.findall(r"`([^`]*)`", default_cell)
        assert len(defaults) in (0, len(keys)), key_cell  # no default stated: the part weights
        for key, text in zip(keys, defaults):
            assert parse_config_text(f"{key} = {text}\n") == default, key


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    """An artifact directory after features, vocab, encode and train."""
    out = tmp_path_factory.mktemp("trained") / "out"
    man = dataset / "manifest.tsv"
    for stage in (["features"], ["vocab", "--sequences", "1,3"], ["encode"],
                  ["train", "--sequences", "1,3"]):
        assert run_stage([stage[0], "--manifest", man, "--config", dataset / "pipeline.cfg",
                          "--out", out] + stage[1:]) == 0
    return out


@pytest.mark.parametrize("stage, artifact, size", [
    ("predict", "model.bin", 40),
    ("encode", "vocab.bin", 10),
])
def test_truncated_binary_artifact_is_data_error(dataset, trained, tmp_path, capsys, stage,
                                                 artifact, size):
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    path = out / artifact
    path.write_bytes(path.read_bytes()[:size])
    capsys.readouterr()
    rc = run_stage([stage, "--manifest", dataset / "manifest.tsv",
                    "--config", dataset / "pipeline.cfg", "--out", out])
    assert rc == 2
    assert f"{path}: truncated" in capsys.readouterr().err


def test_descriptor_file_with_corrupt_count_is_data_error(dataset, trained, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    path = sorted((out / "features").glob("*.desc"))[0]
    data = bytearray(path.read_bytes())
    count = int.from_bytes(data[8:12], "little")
    data[8:12] = (count - 1).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    capsys.readouterr()
    rc = run_stage(["vocab", "--manifest", dataset / "manifest.tsv",
                    "--config", dataset / "pipeline.cfg", "--out", out, "--sequences", "1,2,3"])
    assert rc == 2
    assert f"{path}: trailing bytes in descriptor file" in capsys.readouterr().err


def test_vocab_log_reports_lloyd_iterations_and_cost(dataset, trained, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    capsys.readouterr()
    assert run_stage(["vocab", "--manifest", dataset / "manifest.tsv",
                      "--config", dataset / "pipeline.cfg", "--out", out,
                      "--sequences", "1,3"]) == 0
    line = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("vocabulary:")]
    assert len(line) == 1
    assert re.fullmatch(
        r"vocabulary: 12 words over \d+ descriptors, \d+ Lloyd iterations, "
        r"final cost \S+ in \d+\.\ds", line[0]), line[0]


def test_descriptor_file_with_non_finite_value_is_data_error(dataset, trained, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    path = sorted((out / "features").glob("*.desc"))[0]
    data = bytearray(path.read_bytes())
    data[-4:] = np.array([np.nan], dtype="<f4").tobytes()  # the last descriptor value
    path.write_bytes(bytes(data))
    capsys.readouterr()
    rc = run_stage(["encode", "--manifest", dataset / "manifest.tsv",
                    "--config", dataset / "pipeline.cfg", "--out", out])
    assert rc == 2
    assert f"{path}: non-finite value in descriptor file" in capsys.readouterr().err


def test_predict_on_a_non_finite_gallery_is_data_error_naming_the_model(dataset, tmp_path, capsys):
    out = tmp_path / "out"
    man = dataset / "manifest.tsv"
    cfg = tmp_path / "nn.cfg"
    cfg.write_text("features.parts = rgb\nclassifier.kind = nn\nseed = 5\n")
    for stage in ("features", "train"):
        assert run_stage([stage, "--manifest", man, "--config", cfg, "--out", out]) == 0
    path = out / "model.bin"
    model = load_model(path)
    labels, items = model.gallery
    rows = items.matrices[0].copy()
    rows[0, 0] = np.nan
    save_model(replace(model, gallery=(labels, Composite(items.parts, (rows,)))), path)
    capsys.readouterr()
    assert run_stage(["predict", "--manifest", man, "--config", cfg, "--out", out]) == 2
    assert f"{path}: non-finite value in model file" in capsys.readouterr().err


def test_predict_on_an_out_of_range_support_vector_row_is_data_error_naming_the_model(
        dataset, trained, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    path = out / "model.bin"
    model = load_model(path)
    n_rows = len(model.svm.store)
    data = bytearray(path.read_bytes())
    at = _first_row_index_offset(model, data)
    data[at : at + 4] = n_rows.to_bytes(4, "little")
    path.write_bytes(bytes(data))
    capsys.readouterr()
    assert run_stage(["predict", "--manifest", dataset / "manifest.tsv",
                      "--config", dataset / "pipeline.cfg", "--out", out]) == 2
    assert f"{path}: support vector row index {n_rows} out of range" in capsys.readouterr().err


INCREMENTAL = "vocab.builder = incremental\n"


@pytest.mark.parametrize("built, asked, differs", [
    ("bovw.k = 10\n", "", "bovw.k 10, the configuration asks for bovw.k 12"),
    ("vocab.distance = minkowski:1\n", "",
     "vocab.distance minkowski:1, the configuration asks for vocab.distance euclidean"),
    (INCREMENTAL, "", "vocab.builder incremental, the configuration asks for vocab.builder kmeans"),
    (INCREMENTAL + "bovw.k = 10\n", INCREMENTAL, None),  # any k
    ("", "vocab.max_iter = 10\n", "vocab.max_iter 15, the configuration asks for vocab.max_iter 10"),
    ("", "vocab.sample_cap = 100\n", "vocab.sample_cap 200000, the configuration asks for vocab.sample_cap 100"),
    (INCREMENTAL, INCREMENTAL + "vocab.threshold = 0.4\n",
     "vocab.threshold 0.5, the configuration asks for vocab.threshold 0.4"),
    # a sample of 100 evenly spaced descriptors draws nothing from the seed
    (INCREMENTAL + "vocab.sample_cap = 100\nseed = 12\n", INCREMENTAL + "vocab.sample_cap = 100\n", None),
], ids=["k", "distance", "builder", "incremental-any-k", "max_iter", "sample_cap", "threshold",
        "sampled-incremental-seed"])
def test_stale_vocabulary_is_data_error_naming_it(dataset, trained, tmp_path, capsys, built, asked, differs):
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    man = dataset / "manifest.tsv"
    for name, lines in (("built", built), ("asked", asked)):
        (tmp_path / f"{name}.cfg").write_text(CONFIG + lines)
    assert run_stage(["vocab", "--manifest", man, "--config", tmp_path / "built.cfg", "--out", out,
                      "--sequences", "1,3"]) == 0
    capsys.readouterr()
    assert run_stage(["encode", "--manifest", man, "--config", tmp_path / "asked.cfg",
                      "--out", out]) == (2 if differs else 0)
    if differs:
        assert f"{out / 'vocab.bin'} was built with {differs}; rerun the vocab stage" in capsys.readouterr().err


def test_vocabulary_of_another_descriptor_dimension_is_data_error(dataset, trained, tmp_path, capsys):
    from placevision.bovw import read_vocabulary, write_vocabulary

    out = tmp_path / "out"
    shutil.copytree(trained, out)
    path = out / "vocab.bin"
    vocab = read_vocabulary(path)
    write_vocabulary(replace(vocab, centers=np.eye(vocab.k, 384)), path)  # rgbsift words, sift descriptors
    capsys.readouterr()
    assert run_stage(["encode", "--manifest", dataset / "manifest.tsv", "--config",
                      dataset / "pipeline.cfg", "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"{path} holds 384-dim words, " in err and ".desc 128-dim descriptors" in err


def test_kmeans_vocabulary_of_another_seed_is_data_error_naming_it(dataset, trained, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    man, cfg = dataset / "manifest.tsv", dataset / "pipeline.cfg"
    assert run_stage(["vocab", "--manifest", man, "--config", cfg, "--out", out,
                      "--sequences", "1,3", "--seed", "12"]) == 0
    capsys.readouterr()
    assert run_stage(["encode", "--manifest", man, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"{out / 'vocab.bin'} was built with seed 12, the configuration asks for seed 5" in err
    assert "rerun the vocab stage" in err


def test_incremental_vocabulary_of_any_seed_is_accepted(dataset, trained, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(CONFIG + INCREMENTAL)
    args = ["--manifest", dataset / "manifest.tsv", "--config", cfg, "--out", out]
    # every descriptor is kept, so the builder draws nothing from the seed
    assert run_stage(["vocab", *args, "--seed", "12"]) == 0
    assert run_stage(["encode", *args]) == 0


@pytest.mark.parametrize("rerun, then, seed, artifact, differs, stage", [
    (["vocab", "encode"], "predict", 5, "features/vocab_id.txt", "seed 12, the configuration asks for seed 5",
     "encode"),
    (["vocab", "encode"], "predict", 12, "model.bin", "seed 5, the configuration asks for seed 12", "train"),
    (["vocab"], "train", 12, "features/vocab_id.txt", "seed 5, the configuration asks for seed 12", "encode"),
], ids=["old-model-at-old-seed", "old-model-at-new-seed", "train-before-encode"])
def test_stage_after_a_new_vocabulary_refuses_what_was_not_rebuilt(dataset, trained, tmp_path, capsys,
                                                                  rerun, then, seed, artifact, differs, stage):
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    args = ["--manifest", dataset / "manifest.tsv", "--config", dataset / "pipeline.cfg", "--out", out]
    for name in rerun:
        assert run_stage([name, *args, "--seed", 12]) == 0
    capsys.readouterr()
    assert run_stage([then, *args, "--seed", seed]) == 2
    assert f"{out / artifact} was built with {differs}; rerun the {stage} stage" in capsys.readouterr().err


def test_vocab_after_a_sift_change_asks_for_the_features_stage(dataset, trained, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(CONFIG + "sift.contrast_threshold = 0.2\n")
    capsys.readouterr()
    assert run_stage(["vocab", "--manifest", dataset / "manifest.tsv", "--config", cfg, "--out", out]) == 2
    assert (f"{out / 'features' / 'config_id.txt'} was built with sift.contrast_threshold 0.03, the "
            "configuration asks for sift.contrast_threshold 0.2; rerun the features stage") in capsys.readouterr().err


@pytest.mark.parametrize("line", ["bovw.k = 10", "rgb.measure = euclidean", "hsv.weight = 3", "seed = 12"])
def test_a_key_extraction_does_not_read_needs_no_features_rerun(dataset, trained, tmp_path, line):
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(CONFIG + line + "\n")
    stamps = {p: p.stat().st_mtime_ns for p in (out / "features").glob("*.desc")}
    args = ["--manifest", dataset / "manifest.tsv", "--config", cfg, "--out", out]
    for stage, *extra in (["vocab", "--sequences", "1,3"], ["encode"], ["train", "--sequences", "1,3"],
                          ["predict", "--sequences", "2"], ["features"]):
        assert run_stage([stage, *args, *extra]) == 0, stage
    assert {p: p.stat().st_mtime_ns for p in stamps} == stamps


@pytest.mark.parametrize("artifact, stage, message", [
    ("vocab.bin", "encode", "{path}: not a vocabulary file of this format version; rerun the vocab stage"),
    ("model.bin", "predict", "{path}: not a model file of this format version; rerun the train stage"),
    ("features/config_id.txt", "vocab", "{path} was built with no features.parts, the configuration asks for "
                                        "features.parts rgb,hsv,bovw; rerun the features stage"),
], ids=["vocab", "model", "features"])
def test_artifact_of_an_older_format_is_data_error_naming_the_stage(dataset, trained, tmp_path, capsys,
                                                                    artifact, stage, message):
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    path = out / artifact
    data = path.read_bytes()
    if path.suffix == ".bin":
        path.write_bytes(data[:4] + (1).to_bytes(4, "little") + data[8:])  # format version 1
    else:  # the configuration id that extraction wrote before it wrote records
        path.write_text("rgb:1000:jeffrey:0.333333|hsv:1800:bhattacharyya:0.333333|bovw:sift:12:minkowski:1:0.333333\n")
    capsys.readouterr()
    assert run_stage([stage, "--manifest", dataset / "manifest.tsv", "--config", dataset / "pipeline.cfg",
                      "--out", out]) == 2
    assert capsys.readouterr().err == f"data error: {message.format(path=path)}\n"


def test_histogram_of_another_width_is_data_error_naming_both_files(dataset, trained, tmp_path, capsys):
    from placevision.histograms import FeatureHistogram, normalize_l1, write_histogram_csv

    out = tmp_path / "out"
    shutil.copytree(trained, out)
    rows = read_manifest(dataset / "manifest.tsv").rows
    first, odd = (out / "features" / f"{artifact_stem(r.path)}.rgb.csv" for r in (rows[0], rows[-1]))
    write_histogram_csv(normalize_l1(FeatureHistogram(np.ones(64), "4x4x4")), odd)
    capsys.readouterr()
    assert run_stage(["predict", "--manifest", dataset / "manifest.tsv", "--config",
                      dataset / "pipeline.cfg", "--out", out]) == 2
    assert f"{odd}: 64 bins, but {first} has 1000" in capsys.readouterr().err


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs the
    tasks in this process, so no worker is ever started."""

    def __init__(self, started, max_workers):
        started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs, sequences, workers", [
    (8, "1", [6]),  # 6 rows: 6 workers, not 8
    (2, "1,2,3", [2]),
    (1, "1,2,3", []),
])
def test_features_start_at_most_one_worker_per_row(dataset, tmp_path, monkeypatch, jobs,
                                                   sequences, workers):
    started = []
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(started, max_workers))
    assert run_stage(["features", "--manifest", dataset / "manifest.tsv", "--config",
                      dataset / "pipeline.cfg", "--out", tmp_path / "out", "--jobs", jobs,
                      "--sequences", sequences]) == 0
    assert started == workers


@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_below_one_is_usage_error(dataset, tmp_path, monkeypatch, capsys, jobs):
    started = []
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(started, max_workers))
    rc = run_stage(["features", "--manifest", dataset / "manifest.tsv", "--config",
                    dataset / "pipeline.cfg", "--out", tmp_path / "out", "--jobs", jobs])
    assert rc == 1
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert started == [] and not (tmp_path / "out").exists()


def test_negative_seed_override_is_usage_error(dataset, tmp_path, capsys):
    rc = run_stage(["features", "--manifest", dataset / "manifest.tsv", "--config",
                    dataset / "pipeline.cfg", "--out", tmp_path / "out", "--seed", "-1"])
    assert rc == 1
    assert "--seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# The flags that set each parameter of a stage function; any other parameter
# is set by the flag of its own name.
FLAGS_OF_PARAMETER = {
    "manifest": {"--manifest", "--sequences"},
    "config": {"--config", "--seed"},
    "out_dir": {"--out"},
    "model_path": {"--model"},
    "predictions_path": {"--predictions", "--out"},
    "report_dir": {"--report", "--out"},
    "log": set(),
}


def test_each_subcommand_takes_exactly_the_flags_its_stage_reads(dataset, tmp_path, capsys):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        stage = synth.generate_dataset if name == "synth-dataset" else getattr(pipeline, f"run_{name}")
        reads = set().union(*(FLAGS_OF_PARAMETER.get(p, {"--" + p.replace("_", "-")})
                              for p in inspect.signature(stage).parameters))
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert flags - {"-h", "--help"} == reads, name
    common = ["--manifest", dataset / "manifest.tsv", "--out", tmp_path / "out"]
    for args in (["vocab", "--config", dataset / "pipeline.cfg", "--jobs", "2"],
                 ["evaluate", "--seed", "3"]):
        assert run_stage(args + common) == 1, args
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    write_pnm(synth.render_room_image(0, 1, 0, size=320), tmp_path / "room.ppm")
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(code, "README.md", "exec"), names)
    assert capsys.readouterr().out.strip() == "0.0"  # a histogram's distance to itself
    assert names["labels"] == ["Office"] and names["nearest"].tolist() == [0.0]
    import placevision

    assert [n for n in placevision.__all__ if not hasattr(placevision, n)] == []
    assert "pairwise_distances" in placevision.__all__ and "get_measure" not in placevision.__all__


def test_ga_seed_follows_the_config_seed_however_the_config_is_built():
    from placevision.pipeline import PartConfig, PipelineConfig

    hand = PipelineConfig((PartConfig("rgb", "jeffrey", 1.0, bins=(4, 4, 4)),),
                          classifier="nn", ga_enabled=True)
    assert hand.ga.seed == hand.seed == 7
    assert replace(hand, seed=3).ga.seed == 3
    parsed = parse_config_text("classifier.kind = nn\nga.enabled = 1\nseed = 5\n")
    assert parsed.ga.seed == 5
    # the form that replaces both seeds by hand gives the same config
    assert replace(parsed, seed=9, ga=replace(parsed.ga, seed=9)) == replace(parsed, seed=9)


def test_non_utf8_feature_marker_is_data_error_naming_the_file(dataset, trained, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    marker = out / "features" / "config_id.txt"
    marker.write_bytes(b"\xff" + marker.read_bytes())
    capsys.readouterr()
    rc = run_stage(["train", "--manifest", dataset / "manifest.tsv", "--config",
                    dataset / "pipeline.cfg", "--out", out, "--sequences", "1,3"])
    assert rc == 2
    assert f"cannot read {marker}" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda row: row + b"\xff", "cannot read predictions {path}"),
    (lambda row: row.rsplit(b",", 1)[0], "{path}:2: expected path, predicted, score"),
    (lambda row: row.rsplit(b",", 1)[0] + b",x", "{path}:2: score must be a finite number, got 'x'"),
    (lambda row: row.rsplit(b",", 1)[0] + b",nan", "{path}:2: score must be a finite number, got 'nan'"),
], ids=["non-utf8", "two-fields", "score-x", "score-nan"])
def test_bad_predictions_file_is_data_error_naming_the_file(dataset, trained, tmp_path, capsys,
                                                            edit, message):
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    args = ["--manifest", dataset / "manifest.tsv", "--out", out, "--sequences", "2"]
    assert run_stage(["predict", "--config", dataset / "pipeline.cfg", *args]) == 0
    path = out / "predictions.csv"
    lines = path.read_bytes().split(b"\n")
    lines[1] = edit(lines[1])
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert run_stage(["evaluate", *args]) == 2
    assert message.format(path=path) in capsys.readouterr().err


@pytest.mark.parametrize("value", ["x", "-1", "inf"])
def test_bad_histogram_bin_is_data_error_naming_file_and_line(dataset, trained, tmp_path, capsys, value):
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    path = sorted((out / "features").glob("*.rgb.csv"))[0]
    lines = path.read_text().split("\n")
    lines[2] = value  # the second bin, on line 3
    path.write_text("\n".join(lines))
    capsys.readouterr()
    rc = run_stage(["predict", "--manifest", dataset / "manifest.tsv", "--config",
                    dataset / "pipeline.cfg", "--out", out])
    assert rc == 2
    assert f"{path}:3: bin must be a finite number >= 0, got {value!r}" in capsys.readouterr().err


def _evaluate(tmp_path, manifest_rows, prediction_rows, *flags):
    """Exit code of `evaluate` on a written manifest and predictions.csv."""
    man = tmp_path / "manifest.tsv"
    man.write_text("".join(f"{line}\n" for line in ["path\tlabel\tsequence", *manifest_rows]))
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    (out / "predictions.csv").write_text(
        "".join(f"{line}\n" for line in ["path,predicted,score", *prediction_rows]))
    return run_stage(["evaluate", "--manifest", man, "--out", out, *flags])


def test_evaluate_reports_a_class_answered_but_absent_from_the_held_out_rows(tmp_path):
    manifest = ["a1.ppm\tA\t2", "a2.ppm\tA\t2", "b1.ppm\tB\t1"]
    assert _evaluate(tmp_path, manifest, ["a1.ppm,A,1", "a2.ppm,B,1"], "--sequences", "2") == 0
    report = tmp_path / "out" / "report"
    assert (report / "confusion.csv").read_text().splitlines() == [
        "true\\predicted,A,B,UNKNOWN", "A,1,1,0", "B,0,0,0"]
    summary = (report / "summary.csv").read_text().splitlines()
    assert summary[1:] == ["A,1.000000,0.500000,0.666667,0.500000", "B,0.000000,0.000000,0.000000,0.000000",
                           "__aggregate__,0.500000,0.500000,0.500000,0.500000"]


def test_repeated_prediction_path_is_data_error_naming_file_and_line(tmp_path, capsys):
    manifest = ["p1.ppm\tA\t1", "p2.ppm\tB\t1", "p3.ppm\tB\t1"]
    rows = ["p1.ppm,A,1", "p2.ppm,B,1", "p3.ppm,A,1"]
    assert _evaluate(tmp_path, manifest, rows) == 0
    assert "accuracy=0.6667" in capsys.readouterr().err
    assert _evaluate(tmp_path, manifest, rows + ["p1.ppm,A,1", "p1.ppm,A,1"]) == 2
    path = tmp_path / "out" / "predictions.csv"
    assert f"{path}:5: second prediction for path 'p1.ppm'" in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["features", "evaluate"])
def test_manifest_label_unknown_is_data_error_before_any_stage_runs(tmp_path, capsys, stage):
    man = tmp_path / "manifest.tsv"
    man.write_text("path\tlabel\tsequence\na.ppm\tA\t1\nb.ppm\tUNKNOWN\t1\n")
    out = tmp_path / "out"
    args = ["--config", tmp_path / "empty.cfg"] if stage == "features" else []
    (tmp_path / "empty.cfg").write_text("")
    assert run_stage([stage, "--manifest", man, "--out", out, *args]) == 2
    assert f"{man}:3: label UNKNOWN is reserved for rejected answers" in capsys.readouterr().err
    assert not out.exists()


SUBSET_CONFIG = "features.parts = rgb,hsv,bovw\nbovw.k = 10\n"


def test_features_under_a_new_record_leave_no_row_of_the_old_one(dataset, tmp_path, capsys):
    man = dataset / "manifest.tsv"
    old, new = tmp_path / "old.cfg", tmp_path / "new.cfg"
    old.write_text(SUBSET_CONFIG + "sift.contrast_threshold = 0.03\n")
    new.write_text(SUBSET_CONFIG + "sift.contrast_threshold = 0.06\n")
    out = tmp_path / "out"
    args = ["--manifest", man, "--config", new, "--out", out]
    assert run_stage(["features", "--manifest", man, "--config", old, "--out", out]) == 0
    capsys.readouterr()
    assert run_stage(["features", *args, "--sequences", "1"]) == 0
    assert f"emptying {out / 'features'}" in capsys.readouterr().err
    later = [r for r in read_manifest(man).rows if r.sequence != 1]
    assert not [r for r in later if list((out / "features").glob(f"{artifact_stem(r.path)}.*"))]
    skipped = [f"warning: missing descriptors for {r.path}: {out / 'features' / artifact_stem(r.path)}.desc"
               for r in later]
    for stage in ("vocab", "encode"):  # each names every row it skips
        assert run_stage([stage, *args]) == 0
        assert [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")] == skipped, stage
    assert run_stage(["train", *args, "--sequences", "1"]) == 0
    assert run_stage(["predict", *args, "--sequences", "2"]) == 2
    assert "no feature artifacts available for the selected rows" in capsys.readouterr().err


def test_interrupted_features_run_under_a_new_record_is_refused_by_vocab(dataset, trained, tmp_path, monkeypatch,
                                                                         capsys):
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(CONFIG + "sift.contrast_threshold = 0.06\n")
    extract, calls = pipeline.extract_sift, []

    def extract_then_interrupt(*args):
        calls.append(args)
        if len(calls) > 1:
            raise KeyboardInterrupt
        return extract(*args)

    monkeypatch.setattr(pipeline, "extract_sift", extract_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        pipeline.run_features(read_manifest(dataset / "manifest.tsv"), pipeline.read_config(cfg), out,
                              log=lambda msg: None)
    assert len(list((out / "features").glob("*.desc"))) == 1
    monkeypatch.undo()
    capsys.readouterr()
    assert run_stage(["vocab", "--manifest", dataset / "manifest.tsv", "--config", cfg, "--out", out]) == 2
    assert "(run the features stage first)" in capsys.readouterr().err


def _interrupt_sift_at(monkeypatch, call=None):
    """Count the calls of extract_sift, raising KeyboardInterrupt on the
    ``call``-th if one is given; returns the list of calls."""
    extract, calls = pipeline.extract_sift, []

    def extract_then_interrupt(*args):
        calls.append(args)
        if len(calls) == call:
            raise KeyboardInterrupt
        return extract(*args)

    monkeypatch.setattr(pipeline, "extract_sift", extract_then_interrupt)
    return calls


def test_interrupted_features_run_resumes_under_its_own_record_only(dataset, tmp_path, monkeypatch, capsys):
    manifest = read_manifest(dataset / "manifest.tsv")
    config = pipeline.read_config(dataset / "pipeline.cfg")
    out = tmp_path / "out"
    features = out / "features"
    _interrupt_sift_at(monkeypatch, 3)
    with pytest.raises(KeyboardInterrupt):
        pipeline.run_features(manifest, config, out, log=lambda msg: None)
    done = sorted(features.glob("*.desc"))
    assert len(done) == 2 and not (features / "config_id.txt").exists()
    mtimes = [p.stat().st_mtime_ns for p in done]
    interrupted = tmp_path / "interrupted"
    shutil.copytree(out, interrupted)

    calls = _interrupt_sift_at(monkeypatch)
    logged = []
    pipeline.run_features(manifest, config, out, log=logged.append)
    assert len(calls) == len(manifest.rows) - 2  # only the rows without a .hash
    assert [p.stat().st_mtime_ns for p in done] == mtimes
    assert sum("resuming the unfinished run" in line for line in logged) == 1
    assert sorted(p.name for p in features.glob("config_id.*")) == ["config_id.txt"]
    monkeypatch.undo()
    assert run_stage(["vocab", "--manifest", dataset / "manifest.tsv", "--config", dataset / "pipeline.cfg",
                      "--out", out]) == 0

    # under another record, the pending run is not resumed but emptied
    other = pipeline.parse_config_text(CONFIG + "sift.contrast_threshold = 0.06\n")
    _interrupt_sift_at(monkeypatch, 1)
    with pytest.raises(KeyboardInterrupt):
        pipeline.run_features(manifest, other, interrupted, log=lambda msg: None)
    assert not list((interrupted / "features").glob("*.desc"))


COLOUR = "features.parts = rgb,hsv\n"


@pytest.fixture(scope="module")
def colour_features(dataset, tmp_path_factory):
    """An artifact directory after features over rgb,hsv."""
    out = tmp_path_factory.mktemp("colour") / "out"
    cfg = out.parent / "colour.cfg"
    cfg.write_text(COLOUR)
    assert run_stage(["features", "--manifest", dataset / "manifest.tsv", "--config", cfg, "--out", out]) == 0
    return out


@pytest.mark.parametrize("lines, differs", [
    (COLOUR + "classifier.kind = svm\nclassifier.kernel = linear\n", None),
    (COLOUR + "classifier.kind = svm\nclassifier.kernel = rbf\nclassifier.rbf_sigma = auto\n", None),
    (COLOUR + "classifier.kind = nn\n", None),
    (COLOUR + "classifier.kind = nn\nga.enabled = 1\n", "model.bin"),
    ("features.parts = rgb,hsv,bovw\nbovw.k = 10\nclassifier.kind = svm\nclassifier.kernel = linear\n",
     "features/vocab_id.txt"),
], ids=["svm-linear", "svm-rbf-auto", "nn", "nn-ga", "svm-kmeans-bovw"])
def test_a_model_is_refused_at_another_seed_only_when_it_read_the_seed(dataset, colour_features, tmp_path, capsys,
                                                                      lines, differs):
    out = tmp_path / "out"
    words = "bovw" in lines
    if not words:
        shutil.copytree(colour_features, out)
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(lines + "seed = 11\n")
    args = ["--manifest", dataset / "manifest.tsv", "--config", cfg, "--out", out]
    stages = [["features"], ["vocab", "--sequences", "1,3"], ["encode"], ["train", "--sequences", "1,3"]]
    for stage in stages if words else stages[::3]:
        assert run_stage([*stage[:1], *args, *stage[1:]]) == 0, stage
    capsys.readouterr()
    assert run_stage(["predict", *args, "--sequences", "2", "--seed", "12"]) == (2 if differs else 0)
    if differs:
        assert (f"{out / differs} was built with seed 11, the configuration asks for seed 12"
                in capsys.readouterr().err)
