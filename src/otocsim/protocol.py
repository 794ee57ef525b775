"""The two ancilla-free measurement protocols.

Projective branch: four projective measurements of sigma_j^b / sigma_i^a
interleaved with forward, backward, forward evolution give 16 outcome
probabilities; the signed correlation of the outcomes reconstructs
Re C(t) via 2*corr - 1.

Rotation branch: three single-site rotations interleaved with the same
evolution pattern, followed by one expectation value of sigma_i^a;
a four-angle-set combination reconstructs Im C(t).

Every evaluator of a run reads one `PreparedState`: the state factor in
the register order of the propagator, and the tree's first measurement,
which does not depend on t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import Evolution
from .hilbert import DensityOperator, Register
from .otoc import OtocSpec

# Fixed enumeration order of the 16 outcome sequences (o1, o2, o3, o4),
# +1 before -1, o1 outermost: sequence k has o_m = -1 exactly where bit
# 4 - m of k is set.  Probability tables and shot counts are arrays in this
# order, and all reductions sum in it, so results are independent of any
# evaluation parallelism.
OUTCOME_SEQUENCES: tuple[tuple[int, int, int, int], ...] = tuple(
    (o1, o2, o3, o4)
    for o1 in (+1, -1)
    for o2 in (+1, -1)
    for o3 in (+1, -1)
    for o4 in (+1, -1)
)

# The signed product o1 o2 o3 o4 of each outcome sequence.
OUTCOME_SIGNS = np.array([o1 * o2 * o3 * o4 for o1, o2, o3, o4 in OUTCOME_SEQUENCES])
OUTCOME_SIGNS.flags.writeable = False

# Branches whose parent probability falls below this are assigned joint
# probability 0 without forming the conditional state (the chain rule
# divides by the parent probability, but the joint stays well defined).
ZERO_BRANCH_CUTOFF = 1e-14

PROB_ATOL = 1e-12       # tolerance on individual probabilities
NORMALIZATION_ATOL = 1e-10  # tolerance on sum over the 16 sequences

DEFAULT_ANGLES = (math.pi / 2, math.pi / 2, math.pi / 2)

PREFACTOR_GUARD = 1e-6


class DegenerateAnglesError(ValueError):
    """Rotation angles make the reconstruction prefactor vanish."""


@dataclass(frozen=True)
class RotationAngles:
    """Angle triple (theta1, theta2, theta3) of the rotation protocol."""

    theta1: float
    theta2: float
    theta3: float

    def __post_init__(self):
        for name in ("theta1", "theta2", "theta3"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def prefactor(self) -> float:
        """4 sin(t2) sin(t1 + t3/2) sin(t3/2); equals 2 at (pi/2, pi/2, pi/2)."""
        return (
            4.0
            * math.sin(self.theta2)
            * math.sin(self.theta1 + self.theta3 / 2.0)
            * math.sin(self.theta3 / 2.0)
        )

    def checked_prefactor(self) -> float:
        """`prefactor`, or DegenerateAnglesError when |prefactor| <= PREFACTOR_GUARD."""
        prefactor = self.prefactor()
        if abs(prefactor) <= PREFACTOR_GUARD:
            raise DegenerateAnglesError(
                f"reconstruction prefactor {prefactor} is below the guard {PREFACTOR_GUARD}; "
                "choose non-degenerate angles"
            )
        return prefactor


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Probabilities of the 16 outcome sequences of the projective protocol.

    `probabilities` is a read-only float array of shape (16,) in
    OUTCOME_SEQUENCES order.  `pruned` is the number of branches the tree
    that computed the table cut below ZERO_BRANCH_CUTOFF; `clamped` counts
    the entries the clamp onto [0, 1] moved.
    """

    probabilities: np.ndarray
    pruned: int = 0
    clamped: int = field(init=False, default=0)

    def __post_init__(self):
        raw = np.array(self.probabilities, dtype=float)
        if raw.shape != (len(OUTCOME_SEQUENCES),):
            raise ValueError("table must have exactly the 16 outcome sequences as entries")
        # the negated form rejects NaN, which compares False against any bound
        outside = ~((-PROB_ATOL <= raw) & (raw <= 1.0 + PROB_ATOL))
        if outside.any():
            k = int(np.argmax(outside))
            raise ValueError(
                f"probability {raw[k]} for {OUTCOME_SEQUENCES[k]} outside [0, 1] beyond tolerance"
            )
        probs = np.clip(raw, 0.0, 1.0)  # clamp onto the simplex after the check
        total = math.fsum(probs)
        if not abs(total - 1.0) <= NORMALIZATION_ATOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        probs.flags.writeable = False
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "clamped", int(np.count_nonzero(probs != raw)))


def _branches(register: Register, psi: np.ndarray, site: int, axis: str, collapse: bool):
    """(p, factor) for the outcomes +1 and -1 of measuring sigma_site^axis on psi.

    sigma psi is formed once and e = Re <psi, sigma psi> read from it: the
    probabilities are p = (1 +/- e)/2.  With `collapse`, the factor is the
    collapsed (psi +/- sigma psi) / (2 sqrt(p)), compressed to 2^(N-1)
    columns when wider (`Register.compress_projected`); it is None without
    `collapse` and where p falls below ZERO_BRANCH_CUTOFF.  The -1 factor is
    formed only once the caller has finished with the +1 one.
    """
    sigma_psi = register.pauli(psi, site, axis)
    e = float(np.vdot(psi, sigma_psi).real)
    for sign in (+1, -1):
        p = (1.0 + sign * e) / 2.0
        factor = None
        if collapse and p >= ZERO_BRANCH_CUTOFF:
            factor = psi + sigma_psi if sign > 0 else psi - sigma_psi
            factor = register.compress_projected(factor, site, axis, sign)
            factor *= 0.5 / math.sqrt(p)
        yield p, factor


@dataclass(frozen=True, eq=False)
class PreparedState:
    """What every evaluator of a run shares: Psi in register order and the first collapse.

    `psi` is the state factor with its rows in `register` order, the row
    order of the propagator's evolutions.  Build it with `prepare`.
    """

    register: Register
    spec: OtocSpec
    psi: np.ndarray

    @cached_property
    def first_branches(self) -> tuple[tuple[float, np.ndarray | None], ...]:
        """(p, collapsed factor) for the outcomes +1 and -1 of the tree's first measurement.

        sigma_j^b on Psi does not depend on t, so the first tree of a run
        measures it for all the others: a full-rank factor comes compressed
        to 2^(N-1) columns, and the factor is None where p falls below
        ZERO_BRANCH_CUTOFF.
        """
        spec = self.spec
        first = tuple(_branches(self.register, self.psi, spec.site_j, spec.axis_b, collapse=True))
        for _, factor in first:
            if factor is not None:
                factor.flags.writeable = False  # shared by every time point of the run
        return first


def prepare(state: DensityOperator, spec: OtocSpec, register: Register) -> PreparedState:
    """The state and correlator of a run, checked against the register, Psi in its order."""
    if state.n_sites != register.n_sites:
        raise ValueError("dimension mismatch between state and propagator")
    spec.validate_for(register.n_sites)
    psi = register.from_computational(state.factor)
    psi.flags.writeable = False  # shared by every time point of the run
    return PreparedState(register, spec, psi)


def outcome_probabilities(prepared: PreparedState, ev: Evolution) -> ProbabilityTable:
    """Exact joint probabilities for the four-measurement sequence.

    Measurement order is sigma_j^b, sigma_i^a, sigma_j^b, sigma_i^a with
    evolution +t, -t, +t in between.  The first measurement comes collapsed
    (and a full-rank factor compressed to 2^(N-1) columns) from the prepared
    state, so every later level runs at that width; each later node forms
    sigma psi once (`_branches`).
    """
    register = ev.check(prepared.register)
    spec = prepared.spec
    # (site and axis measured, unitary applied before the measurement)
    steps = (
        (spec.site_i, spec.axis_a, ev.forward),
        (spec.site_j, spec.axis_b, ev.backward),
        (spec.site_i, spec.axis_a, ev.forward),
    )

    probs = np.zeros(len(OUTCOME_SEQUENCES))
    pruned = 0

    def descend(branches, joint: float, depth: int, branch: int) -> None:
        # branches are the outcomes of measurement depth + 1; branch indexes
        # the depth outcomes before it, o1 most significant and a -1 outcome a
        # set bit, so a leaf's index is its place in OUTCOME_SEQUENCES
        nonlocal pruned
        for sign, (p, psi) in zip((+1, -1), branches):
            child = 2 * branch + (sign == -1)
            if p < ZERO_BRANCH_CUTOFF:
                pruned += 1  # every leaf below keeps probability 0
            elif depth == 3:
                probs[child] = joint * p
            else:
                site, axis, u = steps[depth]
                measured = _branches(register, u @ psi, site, axis, collapse=depth < 2)
                descend(measured, joint * p, depth + 1, child)

    descend(prepared.first_branches, 1.0, 0, 0)
    # descend refers to itself through its closure cell; emptying the cell
    # frees the closure, and the U(t) blocks it holds through steps, on return
    # instead of at some later cyclic collection
    del descend
    return ProbabilityTable(probs, pruned)


def corr_from_table(table: ProbabilityTable) -> float:
    """Signed correlation sum_o o1 o2 o3 o4 P_o, in [-1, 1]."""
    return math.fsum(OUTCOME_SIGNS * table.probabilities)


def re_otoc_via_protocol(prepared: PreparedState, ev: Evolution) -> float:
    """Re C(t) reconstructed as 2*corr - 1 from the projective protocol."""
    return 2.0 * corr_from_table(outcome_probabilities(prepared, ev)) - 1.0


def rotated_expectation(prepared: PreparedState, ev: Evolution, angles: RotationAngles) -> float:
    """<sigma_i^a> after the rotate/evolve sequence of the imaginary-part protocol.

    The state factor goes through e^(-iHt) R_j^b(t3) e^(iHt) R_i^a(t2)
    e^(-iHt) R_j^b(t1), right to left.
    """
    register = ev.check(prepared.register)
    spec = prepared.spec
    psi = prepared.psi
    for site, axis, theta, u in (
        (spec.site_j, spec.axis_b, angles.theta1, ev.forward),
        (spec.site_i, spec.axis_a, angles.theta2, ev.backward),
        (spec.site_j, spec.axis_b, angles.theta3, ev.forward),
    ):
        psi = u @ register.rotation(psi, site, axis, theta)
    return float(np.vdot(psi, register.pauli(psi, spec.site_i, spec.axis_a)).real)


def angle_variants(angles: RotationAngles) -> tuple[RotationAngles, ...]:
    """The four sign-flipped angle sets entering the Im C reconstruction."""
    t1, t2, t3 = angles.theta1, angles.theta2, angles.theta3
    return (
        RotationAngles(-t1, -t2, -t3),
        RotationAngles(t1, t2, t3),
        RotationAngles(-t1, t2, -t3),
        RotationAngles(t1, -t2, t3),
    )


ANGLE_VARIANT_SIGNS = (+1.0, -1.0, -1.0, +1.0)


def im_otoc_via_protocol(
    prepared: PreparedState, ev: Evolution, angles: RotationAngles | None = None
) -> float:
    """Im C(t) from the four-angle-set combination of rotated expectations."""
    if angles is None:
        angles = RotationAngles(*DEFAULT_ANGLES)
    prefactor = angles.checked_prefactor()
    combo = math.fsum(
        sign * rotated_expectation(prepared, ev, var)
        for sign, var in zip(ANGLE_VARIANT_SIGNS, angle_variants(angles))
    )
    return combo / prefactor
