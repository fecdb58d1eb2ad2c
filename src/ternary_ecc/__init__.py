"""Channel coding toolkit for the non-symmetric ternary channel and its q-ary relatives.

The namespace is lazy (PEP 562): ``import ternary_ecc`` loads no submodule,
and a name below loads its module on first access, so a command-line call
imports only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_PUBLIC = {
    "bounds": (
        "correction_capability",
        "pmax",
        "sphere_packing_bound",
        "sphere_volume_exact",
        "sphere_volume_min",
    ),
    "channel": (
        "CapacityResult",
        "ChannelSpec",
        "capacity",
        "capacity_sweep",
        "mutual_information",
        "transition_matrix",
        "transition_prob",
        "transmit",
    ),
    "codec": ("BlockTrace", "DecodeTrace", "MessageStream", "StreamCodec", "strip_padding"),
    "construct": ("ConstructionPlan", "build_code", "construction_size"),
    "core": (
        "Code",
        "CodeFormatError",
        "ErasureDecodeError",
        "WeightEnumerator",
        "Word",
        "all_words",
        "hamming_distance",
        "hamming_weight",
        "load_code",
        "save_code",
        "weight_enumerator",
    ),
    "decode": ("DecodeResult", "SimReport", "decode_da", "decode_ml", "simulate"),
    "metric": (
        "INF",
        "AgreementProfile",
        "LikelihoodBounds",
        "agreement_profile",
        "dist_a",
        "dist_b",
        "dist_ml",
        "likelihood_bounds",
        "min_dist_b",
    ),
    "search": (
        "BudgetExceededError",
        "CliqueResult",
        "SearchGraph",
        "build_restricted_graph",
        "build_unrestricted_graph",
        "exact_clique",
        "greedy_clique",
        "optimal_binary_code",
        "optimal_binary_code_size",
        "search_code",
    ),
}
# Public name -> its submodule.
_EXPORTS = {name: module for module, names in _PUBLIC.items() for name in names}
# Submodules reachable as attributes; cli stays out, so that running it with
# `python -m ternary_ecc.cli` never finds it imported already.
_SUBMODULES = frozenset(_PUBLIC) | {"library"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
