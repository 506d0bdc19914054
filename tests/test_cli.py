import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest

from placevision.cli import main
from placevision.image import Image, load_pnm, write_pnm
from placevision.pipeline import artifact_stem, read_manifest

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


def test_config_id_mismatch_is_hard_error(dataset, tmp_path):
    out = tmp_path / "out"
    man = dataset / "manifest.tsv"
    cfg = dataset / "pipeline.cfg"
    other_cfg = tmp_path / "other.cfg"
    other_cfg.write_text("features.parts = rgb\nclassifier.kind = nn\nseed = 5\n")
    assert run_stage(["features", "--manifest", man, "--config", cfg, "--out", out]) == 0
    # vocab/train against a different feature configuration must refuse
    rc = run_stage(["train", "--manifest", man, "--config", other_cfg, "--out", out])
    assert rc == 2


def test_predict_with_mismatched_model_refused(dataset, tmp_path):
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
    # model from configuration A against features/config B
    rc = run_stage(["predict", "--manifest", man, "--config", cfg_b, "--out", out_b,
                    "--model", out_a / "model.bin"])
    assert rc == 2


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
    preds = (out / "predictions.csv").read_text().splitlines()
    assert len(preds) == 1 + 6
    assert not any("flat.ppm" in ln for ln in preds)


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
