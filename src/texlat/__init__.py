"""Texture statistics, hierarchical codes and feature-matching synthesis.

The pipeline: decompose an image with a frequency-domain steerable
pyramid, summarize it as a ten-group statistic vector (1784 dimensions
at the default parameters), compress vectors with a two-stage grouped
PPCA into a short texture code, and synthesize images back from codes
by L-BFGS on the statistic distance. A sliding-patch maximum
cosine similarity scores how well a synthesized texture matches its
source.
"""

from .image import FormatError, load_image, normalize, resize_box, save_image
from .pyramid import Pyramid, build_pyramid, collapse
from .pss import NumericError, PssParams, PssVector, column_names, extract_pss, pss_dim
from .ppca import (PpcaModel, choose_dim, cumulative_contribution, decode as
                   ppca_decode, encode as ppca_encode, fit as ppca_fit)
from .hppca import HppcaModel, decode, encode, fit_hierarchy, reduction_rate
from .synthesis import (SynthesisConfig, TssReport, default_weights, pss_distance,
                        pss_gradient, sample_grid_tss, synthesize, tss)
from .archive import FeatureArchive, load_archive, load_model, save_archive, save_model

__version__ = "0.1.0"

__all__ = [
    "FormatError", "load_image", "save_image", "normalize", "resize_box",
    "Pyramid", "build_pyramid", "collapse",
    "PssParams", "PssVector", "NumericError", "pss_dim",
    "extract_pss", "column_names",
    "PpcaModel", "ppca_fit", "ppca_encode", "ppca_decode",
    "cumulative_contribution", "choose_dim",
    "HppcaModel", "fit_hierarchy", "encode", "decode", "reduction_rate",
    "save_model", "load_model",
    "SynthesisConfig", "TssReport", "default_weights",
    "pss_distance", "pss_gradient", "synthesize", "tss", "sample_grid_tss",
    "FeatureArchive", "save_archive", "load_archive",
    "__version__",
]
