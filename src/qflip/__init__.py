"""Average bit-flip noise of a multi-qubit device: characterize the
per-layer error rates and SPAM from identity-circuit counts, predict
noisy outputs at arbitrary depth, and mitigate measured distributions.

``import qflip`` loads no submodule: each public name is imported from
its submodule on first access (PEP 562), so a program pays only for the
stages it uses."""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines; the one list of qflip's API
_EXPORTS = {
    "transforms": ("fwht", "fwht_inverse", "xor_permute", "simplex_project"),
    "channel": (
        "eigenvalues_from_rates",
        "gate_error_matrix",
        "spam_matrix",
        "InputChannel",
        "NoiseModel",
        "predict_distribution",
        "MitigationMatrix",
        "mitigation_matrix",
        "pool_rates",
        "model_to_json",
        "model_from_json",
        "read_model",
        "write_model",
    ),
    "records": ("Dataset", "index_to_bits"),
    "simulator": (
        "GroundTruth",
        "iid_bitflip",
        "depolarizing",
        "correlated_pair",
        "spam_only",
        "build_preset",
        "ground_truth_from_profile",
        "exact_distribution",
        "exact_distributions",
        "generate_dataset",
        "generate_circuits",
        "true_noise_model",
    ),
    "estimation": (
        "DepthAverage",
        "FitResult",
        "RbResult",
        "aggregate",
        "spectralize",
        "fit_decay",
        "exact_averages",
        "estimate_model",
        "estimate_model_from_averages",
        "rb_series_from_dataset",
        "rb_fit",
        "write_diagnostics",
    ),
    "mitigation": ("jsd", "mitigate", "build_mem_matrix", "MitigationReport", "evaluate_mitigation"),
    "errors": ("QflipError", "ConfigError", "CoverageError", "NumericError"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
