"""Exact simulator for ancilla-free OTOC measurement protocols.

Exact quantum simulation of the two measurement protocols that
reconstruct the real and imaginary parts of out-of-time-ordered
correlators on small qubit registers, plus finite-shot Monte Carlo
emulation of the experiment and a reduced two-atom model of
microwave-assisted Rydberg-dressing sign inversion.

Each public name loads its submodule on first use (PEP 562), so a caller
that needs only the dynamics imports neither dressing, sampling,
sign_inversion nor verification.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports
_EXPORTS = {
    "config": ("SampleConfig",),
    "dressing": (
        "AdiabaticityError", "DressedCurve", "InteractionCoefficients", "LevelScheme",
        "build_two_atom_hamiltonian", "dressed_ising_coupling", "pair_potential", "scan_curve",
    ),
    "dynamics": (
        "Evolution", "EvolutionTimeError", "Hamiltonian", "Propagator", "build_xy_chain",
    ),
    "hilbert": ("Register", "all_up_state", "maximally_mixed_state"),
    "otoc": ("OtocSpec", "otoc_commutator", "otoc_direct"),
    "protocol": (
        "DegenerateAnglesError", "Ladder", "OUTCOME_SEQUENCES", "OUTCOME_SIGNS", "PreparedState",
        "ProbabilityTable", "RotationAngles", "build_ladder", "corr_from_table",
        "im_otoc_via_protocol", "outcome_probabilities", "prepare", "prepare_all_up",
        "re_otoc_via_protocol", "reached_weights", "rotated_expectation",
    ),
    "sampling": (
        "Estimate", "estimate_re_otoc", "sample_rotation_protocol", "sample_sequences", "substream",
    ),
    "sign_inversion": ("find_sign_inversion_config",),
    "traces": ("PreparedTrace", "prepare_maximally_mixed"),
    "verification": ("run_verification_suite",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
