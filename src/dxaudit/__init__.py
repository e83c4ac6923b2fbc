"""Detect diagnoses documented in a record but missing from its discharge
list, and estimate the DRG cost impact of recovering them."""

import os

# One BLAS thread unless the operator set a count: the models' products are
# small, and numpy's thread pool stalls some of them for milliseconds. This
# runs before the package imports numpy; a caller that imported it first
# keeps the pool numpy started with.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .core import (
    CcLevel,
    DrgAssignment,
    IcdEntry,
    IcdIndex,
    Lexicon,
    LexiconKind,
    MedicalRecord,
    Tier,
    load_corpus,
    load_icd_table,
    load_lexicon,
    make_lexicon,
    normalize_disease_name,
    save_corpus,
)
from .features import ContextSample, FeatureLexicons, assemble_features
from .pipeline import (
    Models,
    PipelineLexicons,
    WriteMissingFinding,
    batch_detect,
    detect_write_missing,
)
from .recall import DiseaseMention, build_context_window, build_matcher, find_mentions

__version__ = "0.1.0"

__all__ = [
    "CcLevel", "ContextSample", "DiseaseMention", "DrgAssignment",
    "FeatureLexicons", "IcdEntry", "IcdIndex", "Lexicon", "LexiconKind",
    "MedicalRecord", "Models", "PipelineLexicons", "Tier",
    "WriteMissingFinding", "assemble_features", "batch_detect",
    "build_context_window", "build_matcher", "detect_write_missing",
    "find_mentions", "load_corpus", "load_icd_table", "load_lexicon",
    "make_lexicon", "normalize_disease_name", "save_corpus",
]
