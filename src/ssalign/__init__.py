"""Signal-space alignment for MIMO multiway relaying with pairwise exchange.

The package builds joint user/relay beamforming in which bundles of spatial
streams ("units") are aligned so that physical-layer network coding can
decode one combination per user pair, verifies decodability end to end on
sampled channels, and evaluates every closed-form degrees-of-freedom curve
in exact rational arithmetic.

Importing the package loads no submodule: each exported name is resolved on
first read (PEP 562) from the module that defines it.  The ``dof`` names
load only the pure-Python ``dof``, so ``import ssalign``, ``ssalign.dof``
and the ``curve`` command never import numpy, nor ``dataclasses`` and so
``inspect``.  Any other name loads numpy and the whole numeric stack
(``linalg``, ``channel``, ``units``, ``relay``, ``pipeline``, ``lemmas``) at
once, so that a tool which wraps the functions of loaded modules, such as
the benchmark's stage tracer, finds them all; the ``build``, ``verify`` and
``lemmas`` commands load it before they run.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, by the submodule that defines it.
_HOME = {name: module for module, names in {
    "linalg": ("RANK_REL", "LEAKAGE_ABS"),
    "channel": ("SystemConfig", "ChannelSet", "sample_channel_set", "deactivate_relay_antennas",
                "array_to_json", "channel_to_json", "channel_from_json", "complex_gaussian",
                "derived_rng"),
    "dof": ("DofResult", "PatternCoefficients", "alpha_beta", "outer_bound_per_user",
            "regime_index", "achievable_basic", "achievable_improved", "improvement_branch",
            "gamma_theta_tau", "asymptotic_dof", "scaling_check", "capacity_thresholds"),
    "units": ("RANDOM", "Unit", "Allocation", "AlignmentPlan", "plan_alignment",
              "execute_plan"),
    "relay": ("RelayProcessor", "StreamRecord", "VerificationReport",
              "build_uplink_projectors", "design_downlink", "assemble_forward_matrix",
              "build_relay_processor", "verify_end_to_end", "estimate_dof_slope"),
    "lemmas": ("LemmaId", "LemmaTrialResult", "check_intersection", "check_stacked_rank",
               "check_direct_sum", "check_scaling", "run_battery", "default_battery"),
    "pipeline": ("Construction", "construct"),
}.items() for name in names}

__all__ = ["__version__", *_HOME]

# The submodules that import numpy; one of them loads all of them.
_NUMERIC = ("linalg", "channel", "units", "relay", "pipeline", "lemmas")


def _load(module: str):
    """The submodule ``module``, after the whole numeric stack unless it is ``dof``."""
    if module != "dof":
        for numeric in _NUMERIC:
            importlib.import_module(f"{__name__}.{numeric}")
    return importlib.import_module(f"{__name__}.{module}")


def __getattr__(name: str):
    # Runs only for a name not bound here yet, so it never rebinds one.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_load(_HOME[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
