"""The benchmark's outside-in tracer (``perfbench/tracing.py``) wraps public
placevision functions by module and name.  A renamed or deleted function
breaks every traced benchmark run, and a stage that stops calling a wrapped
function hides its time; these tests catch both."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from placevision import pipeline, synth
from placevision.image import write_pnm

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves(tracing):
    assert tracing.WRAPPED
    missing = [
        f"placevision.{module}.{func}"
        for module, func, _, _ in tracing.WRAPPED
        if not callable(getattr(importlib.import_module(f"placevision.{module}"), func, None))
    ]
    assert not missing


def test_feature_extraction_runs_through_the_traced_layers(tracing, tmp_path):
    image = tmp_path / "room.ppm"
    write_pnm(synth.render_room_image(2, 1, 0, size=96, seed=3), image)
    config = pipeline.parse_config_text("features.parts = rgb,hsv,bovw\n")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, warning = pipeline._extract_one(("room.ppm", str(image), str(tmp_path), config))
    finally:
        tracer.uninstall()
    assert warning is None
    assert {span[0] for span in tracer.spans} >= {
        "image.load_pnm",
        "image.gaussian_blur",
        "sift.extract",
        "sift.scale_space",
        "sift.dog",
        "sift.extrema",
        "sift.desc_io",
        "histograms.compute",
        "histograms.csv_write",
    }
