"""Imputation toolkit for georeferenced enterprise-registration records.

Two tracks: category imputation by short-text classification over hashed
name features, and location imputation (postcode, administrative division,
geocoding) against a postcode gazetteer, plus evaluation and spatial
concentration analysis.
"""

from .categories import CATEGORIES, normalize_category
from .records import GroundTruth, IngestResult, MissingnessReport, ingest, missingness
from .segmenter import Lexicon, Token, segment
from .synth import SynthConfig, synth, synth_labeled_points, synth_world
from .vectorizer import DEFAULT_DIM, build_labeled, hash_rows

__version__ = "0.1.0"

__all__ = [
    "CATEGORIES",
    "DEFAULT_DIM",
    "GroundTruth",
    "IngestResult",
    "Lexicon",
    "MissingnessReport",
    "SynthConfig",
    "Token",
    "build_labeled",
    "hash_rows",
    "ingest",
    "missingness",
    "normalize_category",
    "segment",
    "synth",
    "synth_labeled_points",
    "synth_world",
]
