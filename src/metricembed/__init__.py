"""Distance geometry toolkit: Euclidean embeddability of finite metric
spaces and sampled scanners for embeddability of rescaled limit spaces at
a marked point."""

#: Every public name and the module that defines it. Each is resolved on
#: first access (PEP 562), so importing the package, or one command's
#: layers, loads no other module.
_LAZY = {
    **dict.fromkeys((
        "CMValue",
        "PsdReport",
        "cm_determinant",
        "cm_value",
        "psd_check",
        "sch_determinant",
        "sch_value",
    ), "determinants"),
    **dict.fromkeys((
        "EmbedVerdict",
        "MinDimResult",
        "Realization",
        "Witness",
        "blumenthal_basis_search",
        "menger_check",
        "min_embedding_dimension",
        "realize_coordinates",
        "schoenberg_check",
    ), "embeddability"),
    "scale_ladder": "errors",
    **dict.fromkeys((
        "FiniteMetricSpace",
        "load_space",
        "scale_metric",
        "submatrix",
        "validate_metric",
    ), "metric"),
    **dict.fromkeys((
        "ScanReport",
        "TransferReport",
        "delta_scale",
        "epsilon_scale",
        "liminf_scan",
        "s_functional",
        "theta",
        "transfer_check",
    ), "pretangent"),
    **dict.fromkeys((
        "BlumenthalReport",
        "NormalizingSequence",
        "PseudometricMatrix",
        "QuotientSpace",
        "StabilityVerdict",
        "blumenthal_sequence_scan",
        "build_probe_battery",
        "constant_sequence",
        "marked_family",
        "metric_identification",
        "mutual_stability",
        "pseudometric_matrix",
    ), "sequences"),
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
    # __import__, unlike importlib.import_module, shows in -X importtime
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = sorted(_LAZY)
