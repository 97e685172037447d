"""Capacity probes for classifiers via labeling distributions over holdout sets."""

from .classifiers import ClassifierSpec, fit, ldm_spec, parse_spec
from .dataset import (
    HoldoutSplit,
    LabeledDataset,
    builtin_iris,
    load_csv,
    permute_labels,
    random_labels,
    split_train_holdout,
)
from .dirichlet import (
    FitReport,
    digamma,
    dirichlet_entropy,
    fit_dirichlet,
    fit_report_json,
    inverse_digamma,
    lgamma,
    sample_dirichlet,
)
from .errors import (
    CapacityLimitError,
    CsvParseError,
    FitNumericalError,
    InvalidDatasetError,
    MemoryLimitError,
)
from .heatmap import render_pgm
from .ldm import (
    LDMatrix,
    build_ldm,
    index_to_labeling,
    labeling_to_index,
    ldm_column,
    simplex_vector,
    write_ldm_csv,
)
from .recorder import CapacityEstimate, chance_baseline, estimate_capacity, record_trial

__version__ = "0.1.0"

__all__ = [
    "CapacityEstimate",
    "CapacityLimitError",
    "ClassifierSpec",
    "CsvParseError",
    "FitNumericalError",
    "FitReport",
    "HoldoutSplit",
    "InvalidDatasetError",
    "LDMatrix",
    "LabeledDataset",
    "MemoryLimitError",
    "build_ldm",
    "builtin_iris",
    "chance_baseline",
    "digamma",
    "dirichlet_entropy",
    "estimate_capacity",
    "fit",
    "fit_dirichlet",
    "fit_report_json",
    "index_to_labeling",
    "inverse_digamma",
    "labeling_to_index",
    "ldm_column",
    "ldm_spec",
    "lgamma",
    "load_csv",
    "parse_spec",
    "permute_labels",
    "random_labels",
    "record_trial",
    "render_pgm",
    "sample_dirichlet",
    "simplex_vector",
    "split_train_holdout",
    "write_ldm_csv",
]
