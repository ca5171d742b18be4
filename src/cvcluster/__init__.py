"""Simulation of measurement-based Gaussian logic gates on a four-mode
linear optical cluster state.

The package tracks every quadrature as an exact linear form in independent
Gaussian seeds (:mod:`cvcluster.algebra`), builds the cluster and certifies
its entanglement (:mod:`cvcluster.cluster`), applies the displacement,
squeezing and controlled-X gates and evaluates each mode's moments
(:mod:`cvcluster.gates`), evaluates Wigner functions and the reference
datasets (:mod:`cvcluster.analysis`), and certifies the closed forms by
Monte-Carlo sampling (:mod:`cvcluster.oracle`).

Submodules load on first attribute access (PEP 562), so ``import
cvcluster`` costs nothing until a name is used, and numpy loads only with
the code that needs it (``analysis``, ``oracle`` and the datasets of ``io``).
"""

import importlib

__version__ = "0.1.0"

#: Public names by defining submodule.
_EXPORTS = {
    "algebra": (
        "Axis", "ModePair", "PRUNE_TOL", "QuadExpr", "SeedKind", "SeedVar", "beamsplitter",
        "input_mode", "rotate_quadrature", "squeezed_mode", "squeezed_variance",
    ),
    "analysis": (
        "fig3_dataset", "fig4_dataset", "fig5_dataset", "fig6_dataset", "fig8_dataset",
        "wigner",
    ),
    "cluster": (
        "INSEPARABILITY_BOUND", "ClusterState", "InseparabilityReport", "build_cluster",
        "inseparability_check", "inseparability_threshold", "nullifier_variances",
        "nullifiers",
    ),
    "gates": (
        "CRITERION_SIGMAS", "CxParams", "DisplacementParams", "GateResult", "ModeStats",
        "SqueezerParams", "controlled_x_gate", "cx_output_moments", "displacement_gate",
        "displacement_output_variance", "fidelity_from_variances", "identity_fidelity",
        "min_distinguishable_displacement", "mode_moments", "optimal_detection_angle",
        "optimal_displacement_variance", "optimal_gain", "rotated_output_variance",
        "rotated_output_variances", "squeezer_gate", "squeezing_threshold",
    ),
    "io": ("CurveDataset", "dataset_to_csv", "dataset_to_json", "format_float",
           "write_dataset"),
    "oracle": (
        "CertifyResult", "SampleEstimate", "certify", "sample_expr", "sample_exprs",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
