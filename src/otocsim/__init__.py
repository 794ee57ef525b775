"""Exact simulator for ancilla-free OTOC measurement protocols.

Exact quantum simulation of the two measurement protocols that
reconstruct the real and imaginary parts of out-of-time-ordered
correlators on small qubit registers, plus finite-shot Monte Carlo
emulation of the experiment and a reduced two-atom model of
microwave-assisted Rydberg-dressing sign inversion.
"""

__version__ = "0.1.0"

from .dressing import (
    AdiabaticityError,
    DressedCurve,
    InteractionCoefficients,
    LevelScheme,
    build_two_atom_hamiltonian,
    dressed_ising_coupling,
    find_sign_inversion_config,
    pair_potential,
    scan_curve,
)
from .dynamics import (
    Evolution,
    Hamiltonian,
    Propagator,
    build_custom,
    build_xy_chain,
    evolve,
)
from .hilbert import DensityOperator, all_up_state, maximally_mixed_state
from .otoc import OtocSpec, commutator_norm, otoc_direct
from .protocol import (
    DEFAULT_ANGLES,
    DegenerateAnglesError,
    OUTCOME_SEQUENCES,
    OUTCOME_SIGNS,
    ProbabilityTable,
    RotationAngles,
    corr_from_table,
    im_otoc_via_protocol,
    outcome_probabilities,
    re_otoc_via_protocol,
    rotated_expectation,
)
from .sampling import (
    Estimate,
    SampleConfig,
    estimate_re_otoc,
    sample_rotation_protocol,
    sample_sequences,
)
from .verification import run_verification_suite
