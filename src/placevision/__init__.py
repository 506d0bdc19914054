"""Visual place classification toolkit.

Color histograms and SIFT-family local features feed a bag-of-visual-
words model; histogram dissimilarity measures, a thresholded nearest-
neighbor classifier with an UNKNOWN option, and one-vs-all kernel SVMs
do the room recognition.  The `placevision` CLI batches the full
pipeline over image manifests.
"""

from .image import GrayImage, Image, PnmError, load_pnm, to_grayscale, write_pnm
from .histograms import FeatureHistogram, hsv_histogram, normalize_l1, rgb_histogram
from .distances import emd, pairwise_distances
from .sift import SiftParams, extract_rgb_sift, extract_sift
from .asift import AffineView, asift_views, extract_asift
from .bovw import Vocabulary, encode_image, incremental_vocab, kmeans, quantize
from .classify import (
    Composite,
    GaParams,
    KernelSpec,
    SvmModel,
    ThresholdSet,
    ga_optimize_thresholds,
    nn_decide,
    nn_distances,
    ova_train,
    svm_train,
)
from .evaluate import UNKNOWN, EvalReport, build_report, confusion_matrix, metrics, pr_curve, write_report

__version__ = "0.1.0"

__all__ = [
    "AffineView",
    "Composite",
    "EvalReport",
    "FeatureHistogram",
    "GaParams",
    "GrayImage",
    "Image",
    "KernelSpec",
    "PnmError",
    "SiftParams",
    "SvmModel",
    "ThresholdSet",
    "UNKNOWN",
    "Vocabulary",
    "asift_views",
    "build_report",
    "confusion_matrix",
    "emd",
    "encode_image",
    "extract_asift",
    "extract_rgb_sift",
    "extract_sift",
    "ga_optimize_thresholds",
    "hsv_histogram",
    "incremental_vocab",
    "kmeans",
    "load_pnm",
    "metrics",
    "nn_decide",
    "nn_distances",
    "normalize_l1",
    "ova_train",
    "pairwise_distances",
    "pr_curve",
    "quantize",
    "rgb_histogram",
    "svm_train",
    "to_grayscale",
    "write_pnm",
    "write_report",
]
