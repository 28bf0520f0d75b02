"""Distance geometry toolkit: Euclidean embeddability of finite metric
spaces and sampled scanners for embeddability of rescaled limit spaces at
a marked point."""

import importlib
import types

from .determinants import (
    CMValue,
    PsdReport,
    cm_determinant,
    cm_value,
    psd_check,
    sch_determinant,
    sch_value,
)
from .embeddability import (
    EmbedVerdict,
    MinDimResult,
    Realization,
    Witness,
    blumenthal_basis_search,
    menger_check,
    min_embedding_dimension,
    realize_coordinates,
    schoenberg_check,
)
from .metric import FiniteMetricSpace, load_space, scale_metric, submatrix, validate_metric

#: Names of the scan layer, resolved on first access (PEP 562) so that the
#: finite commands never import ``pretangent`` or ``spaces``.
_LAZY = {
    **dict.fromkeys((
        "BlumenthalReport",
        "NormalizingSequence",
        "PseudometricMatrix",
        "QuotientSpace",
        "ScanReport",
        "StabilityVerdict",
        "TransferReport",
        "blumenthal_sequence_scan",
        "build_probe_battery",
        "constant_sequence",
        "delta_scale",
        "epsilon_scale",
        "liminf_scan",
        "marked_family",
        "metric_identification",
        "mutual_stability",
        "pseudometric_matrix",
        "s_functional",
        "scale_ladder",
        "theta",
        "transfer_check",
    ), "pretangent"),
    **dict.fromkeys((
        "CurveSpec",
        "MarkedSpace",
        "as_marked",
        "freeze",
        "make_euclidean_subset",
        "make_snowflake",
        "make_ultrametric",
        "marked_space_from_config",
        "perturbed_euclidean_space",
    ), "spaces"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

#: The eager names above and the lazy ones, in one sorted list.
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)] + list(_LAZY))
