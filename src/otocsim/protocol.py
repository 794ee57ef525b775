"""The two ancilla-free measurement protocols.

Projective branch: four projective measurements of sigma_j^b / sigma_i^a
interleaved with forward, backward, forward evolution give 16 outcome
probabilities; the signed correlation of the outcomes reconstructs
Re C(t) via 2*corr - 1.

Rotation branch: three single-site rotations interleaved with the same
evolution pattern, followed by one expectation value of sigma_i^a;
a four-angle-set combination reconstructs Im C(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .dynamics import Evolution, Propagator, evolution_for
from .hilbert import DensityOperator, apply_pauli, apply_rotation, compress_projected
from .otoc import OtocSpec

# Fixed enumeration order of the 16 outcome sequences (o1, o2, o3, o4),
# +1 before -1, o1 outermost.  All reductions sum in this order so results
# are independent of any evaluation parallelism.
OUTCOME_SEQUENCES: tuple[tuple[int, int, int, int], ...] = tuple(
    (o1, o2, o3, o4)
    for o1 in (+1, -1)
    for o2 in (+1, -1)
    for o3 in (+1, -1)
    for o4 in (+1, -1)
)

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


@dataclass(frozen=True)
class ProbabilityTable:
    """Probabilities of the 16 outcome sequences of the projective protocol.

    `pruned` is the number of branches the tree that computed the table
    cut below ZERO_BRANCH_CUTOFF; `clamped` counts the entries the clamp
    onto [0, 1] moved.
    """

    probabilities: Mapping[tuple[int, int, int, int], float]
    pruned: int = 0
    clamped: int = field(init=False, default=0)

    def __post_init__(self):
        probs = dict(self.probabilities)
        if set(probs) != set(OUTCOME_SEQUENCES):
            raise ValueError("table must have exactly the 16 outcome sequences as keys")
        clamped = 0
        for seq in OUTCOME_SEQUENCES:
            p = probs[seq]
            if p < -PROB_ATOL or p > 1.0 + PROB_ATOL:
                raise ValueError(f"probability {p} for {seq} outside [0, 1] beyond tolerance")
            probs[seq] = min(max(p, 0.0), 1.0)  # clamp onto the simplex after the check
            clamped += probs[seq] != p
        total = math.fsum(probs[seq] for seq in OUTCOME_SEQUENCES)
        if abs(total - 1.0) > NORMALIZATION_ATOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "clamped", clamped)

    def __getitem__(self, seq: tuple[int, int, int, int]) -> float:
        return self.probabilities[seq]


def outcome_probabilities(
    state: DensityOperator,
    spec: OtocSpec,
    prop: Propagator,
    t: float,
    evolution: Evolution | None = None,
) -> ProbabilityTable:
    """Exact joint probabilities for the four-measurement sequence.

    Measurement order is sigma_j^b, sigma_i^a, sigma_j^b, sigma_i^a with
    evolution +t, -t, +t in between.  Each node forms sigma psi once and
    reads e = Re <psi, sigma psi>: the branch probabilities are
    p = (1 +/- e)/2, and the collapsed factor is (psi +/- sigma psi) / (2 sqrt(p)).
    A collapsed factor wider than 2^(N-1) columns (a full-rank state at the
    first measurement) is compressed to 2^(N-1) columns by
    `compress_projected`, so every later level runs at half width.
    `evolution`, when given, is the shared U(t) of this time point.
    """
    if state.n_sites != prop.n_sites:
        raise ValueError("dimension mismatch between state and propagator")
    n = prop.n_sites
    spec.validate_for(n)
    ev = evolution_for(prop, t, evolution)
    # (site and axis measured, unitary applied before the measurement)
    steps = (
        (spec.site_j, spec.axis_b, None),
        (spec.site_i, spec.axis_a, ev.forward),
        (spec.site_j, spec.axis_b, ev.backward),
        (spec.site_i, spec.axis_a, ev.forward),
    )

    probs: dict[tuple[int, int, int, int], float] = {}
    pruned = 0

    def descend(psi: np.ndarray, joint: float, outcomes: tuple[int, ...]) -> None:
        nonlocal pruned
        depth = len(outcomes)
        site, axis, u = steps[depth]
        psi_t = psi if u is None else u @ psi
        sigma_psi = apply_pauli(psi_t, site, axis, n)
        e = float(np.vdot(psi_t, sigma_psi).real)
        for sign in (+1, -1):
            p = (1.0 + sign * e) / 2.0
            branch = outcomes + (sign,)
            if p < ZERO_BRANCH_CUTOFF:
                pruned += 1
                for seq in OUTCOME_SEQUENCES:
                    if seq[: depth + 1] == branch:
                        probs[seq] = 0.0
            elif depth == 3:
                probs[branch] = joint * p
            else:
                collapsed = psi_t + sigma_psi if sign > 0 else psi_t - sigma_psi
                collapsed = compress_projected(collapsed, site, axis, sign, n)
                collapsed *= 0.5 / math.sqrt(p)
                descend(collapsed, joint * p, branch)

    descend(state.factor, 1.0, ())
    return ProbabilityTable(probs, pruned)


def corr_from_table(table: ProbabilityTable | Mapping[tuple[int, int, int, int], float]) -> float:
    """Signed correlation sum_o o1 o2 o3 o4 P_o, in [-1, 1]."""
    if not isinstance(table, ProbabilityTable):
        table = ProbabilityTable(table)
    return math.fsum(
        seq[0] * seq[1] * seq[2] * seq[3] * table[seq] for seq in OUTCOME_SEQUENCES
    )


def re_otoc_via_protocol(
    state: DensityOperator,
    spec: OtocSpec,
    prop: Propagator,
    t: float,
    evolution: Evolution | None = None,
) -> float:
    """Re C(t) reconstructed as 2*corr - 1 from the projective protocol."""
    return 2.0 * corr_from_table(outcome_probabilities(state, spec, prop, t, evolution)) - 1.0


def rotated_expectation(
    state: DensityOperator,
    spec: OtocSpec,
    prop: Propagator,
    t: float,
    angles: RotationAngles,
    evolution: Evolution | None = None,
) -> float:
    """<sigma_i^a> after the rotate/evolve sequence of the imaginary-part protocol.

    The state factor goes through e^(-iHt) R_j^b(t3) e^(iHt) R_i^a(t2)
    e^(-iHt) R_j^b(t1), right to left; `evolution`, when given, is the
    shared U(t) of this time point.
    """
    if state.n_sites != prop.n_sites:
        raise ValueError("dimension mismatch between state and propagator")
    n = prop.n_sites
    spec.validate_for(n)
    ev = evolution_for(prop, t, evolution)
    psi = state.factor
    for site, axis, theta, u in (
        (spec.site_j, spec.axis_b, angles.theta1, ev.forward),
        (spec.site_i, spec.axis_a, angles.theta2, ev.backward),
        (spec.site_j, spec.axis_b, angles.theta3, ev.forward),
    ):
        psi = u @ apply_rotation(psi, site, axis, theta, n)
    return float(np.vdot(psi, apply_pauli(psi, spec.site_i, spec.axis_a, n)).real)


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
    state: DensityOperator,
    spec: OtocSpec,
    prop: Propagator,
    t: float,
    angles: RotationAngles | None = None,
    evolution: Evolution | None = None,
) -> float:
    """Im C(t) from the four-angle-set combination of rotated expectations."""
    if angles is None:
        angles = RotationAngles(*DEFAULT_ANGLES)
    prefactor = angles.checked_prefactor()
    evolution = evolution_for(prop, t, evolution)
    combo = math.fsum(
        sign * rotated_expectation(state, spec, prop, t, var, evolution)
        for sign, var in zip(ANGLE_VARIANT_SIGNS, angle_variants(angles))
    )
    return combo / prefactor
