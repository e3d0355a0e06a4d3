"""Imputation toolkit for georeferenced enterprise-registration records.

Two tracks: category imputation by short-text classification over hashed
name features, and location imputation (postcode, administrative division,
geocoding) against a postcode gazetteer, plus evaluation and spatial
concentration analysis.
"""

from .categories import CATEGORIES, normalize_category
from .records import (
    EnterpriseRecord,
    GroundTruth,
    IngestResult,
    MissingnessReport,
    ingest,
    missingness,
    write_records,
)
from .segmenter import Lexicon, Token, address_nouns, feature_words, segment
from .synth import SynthConfig, synth, synth_labeled_points, synth_world
from .vectorizer import DEFAULT_DIM, build_labeled, hash_rows

__version__ = "0.1.0"

__all__ = [
    "CATEGORIES",
    "DEFAULT_DIM",
    "EnterpriseRecord",
    "GroundTruth",
    "IngestResult",
    "Lexicon",
    "MissingnessReport",
    "SynthConfig",
    "Token",
    "address_nouns",
    "build_labeled",
    "feature_words",
    "hash_rows",
    "ingest",
    "missingness",
    "normalize_category",
    "segment",
    "synth",
    "synth_labeled_points",
    "synth_world",
    "write_records",
]
