"""The two ancilla-free measurement protocols.

Projective branch: four projective measurements of sigma_j^b / sigma_i^a
interleaved with forward, backward, forward evolution give 16 outcome
probabilities; the signed correlation of the outcomes reconstructs
Re C(t) via 2*corr - 1.

Rotation branch: three single-site rotations interleaved with the same
evolution pattern, followed by one expectation value of sigma_i^a;
a four-angle-set combination reconstructs Im C(t).

A run prepares its state once (`prepare`: Psi in the register order of
the propagator).  Each time point then builds one `Ladder` from seven
applications of U(t) or U(t)^dagger: since U^dagger U = I and sigma^2 = I,
every state of either protocol is a combination of six vectors built
from four evolved factors, and the ladder keeps only their Gram
matrices, plus the direct C(t) that one more application reads off the
same chain.  The 16-branch table and every angle set read from it; no
state is collapsed or re-evolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dynamics import Evolution
from .hilbert import ATOL_ALGEBRA, ATOL_SPECTRUM, DensityOperator, Register
from .otoc import OtocSpec, checked_otoc

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

# A node of the outcome tree whose conditional probability falls below this
# is pruned: every leaf below it gets joint probability 0, where the leaves'
# own values would be rounding noise around it.
ZERO_BRANCH_CUTOFF = 1e-14

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
        outside = ~((-ATOL_ALGEBRA <= raw) & (raw <= 1.0 + ATOL_ALGEBRA))
        if outside.any():
            k = int(np.argmax(outside))
            raise ValueError(
                f"probability {raw[k]} for {OUTCOME_SEQUENCES[k]} outside [0, 1] beyond tolerance"
            )
        probs = np.clip(raw, 0.0, 1.0)  # clamp onto the simplex after the check
        total = math.fsum(probs)
        if not abs(total - 1.0) <= ATOL_SPECTRUM:
            raise ValueError(f"probabilities sum to {total}, not 1")
        probs.flags.writeable = False
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "clamped", int(np.count_nonzero(probs != raw)))


@dataclass(frozen=True, eq=False)
class PreparedState:
    """What every evaluator of a run shares: the state and correlator, Psi in register order.

    `psi` is the state factor with its rows in `register` order, the row
    order of the propagator's evolutions.  Build it with `prepare`.
    """

    register: Register
    spec: OtocSpec
    psi: np.ndarray


def prepare(state: DensityOperator, spec: OtocSpec, register: Register) -> PreparedState:
    """The state and correlator of a run, checked against the register, Psi in its order."""
    if state.n_sites != register.n_sites:
        raise ValueError("dimension mismatch between state and propagator")
    spec.validate_for(register.n_sites)
    psi = register.from_computational(state.factor)
    psi.flags.writeable = False  # shared by every time point of the run
    return PreparedState(register, spec, psi)


# The unnormalised state U Pi_j^o3 U^dagger Pi_i^o2 U Pi_j^o1 Psi that the last
# measurement reads, over the ladder basis; one row per (o1, o2, o3), o1
# outermost as in OUTCOME_SEQUENCES.
_LEAF_COEFFICIENTS = np.array(
    [
        (1 + o1 * o3, o1 + o3, o2, o1 * o2, o2 * o3, o1 * o2 * o3)
        for o1 in (+1, -1)
        for o2 in (+1, -1)
        for o3 in (+1, -1)
    ]
) / 8.0


@dataclass(frozen=True, eq=False)
class Ladder:
    """What both protocols read at one time point: two Hermitian 6 x 6 Gram matrices.

    Both protocols interleave single-site operations with U, U^dagger, U
    (U = U(t)).  Since U^dagger U = I, sigma^2 = I and Pi = (1 +/- sigma)/2,
    every state either one forms is a combination c . B of the basis
    B = (X0, X1, sigma_i X0, sigma_i X1, Z0, Z1), where X0 = U Psi,
    X1 = U sigma_j Psi and Z_k = U sigma_j U^dagger sigma_i X_k (so
    U sigma_j U^dagger swaps X0 and X1).  `grams` holds G0 = <B_m|B_n> and
    G1 = <B_m|sigma_i B_n>, traced over the factor's columns: c . B has
    squared norm c^dagger G0 c and <sigma_i> = c^dagger G1 c.  `direct` is
    the exact C(t) = <Psi|U^dagger sigma_i Z1>, bit-equal to `otoc_direct`.
    Build it with `build_ladder`.
    """

    grams: np.ndarray
    direct: complex


def build_ladder(prepared: PreparedState, ev: Evolution) -> Ladder:
    """The ladder of time point `ev`, from seven applications of U(t) or U(t)^dagger.

    K = (X0, X1, Z0, Z1) gives P_ab = <K_a|K_b> and Q_ab = <K_a|sigma_i K_b>.
    As sigma_i is Hermitian and squares to I, G0 takes P where both basis
    vectors carry sigma_i or neither does, and Q otherwise; G1 the reverse.
    K is built in that order, and column b of P and Q is taken as soon as
    K_b is: sigma_i K_b serves that column and, for X0 and X1, starts the
    chain of Z0 and Z1.  X1 and Z1 are the first three evolutions of
    `otoc_direct`'s chain, built with the same operations, so one more
    application gives its C(t) bit for bit; like it, the ladder raises
    ValueError when |C| exceeds 1 beyond ATOL_SPECTRUM.  Each temporary is
    dropped once read, so at most five factors live beside Psi.
    """
    register = ev.check(prepared.register)
    spec = prepared.spec
    sigma_i = partial(register.pauli, site=spec.site_i, axis=spec.axis_a)
    sigma_j = partial(register.pauli, site=spec.site_j, axis=spec.axis_b)
    psi = prepared.psi
    factors = []
    upper = np.zeros((2, 4, 4), dtype=complex)  # P and Q above their diagonals

    def append(factor: np.ndarray) -> np.ndarray:
        """K_b = factor: fills column b of P and Q and returns sigma_i K_b."""
        flipped = sigma_i(factor)
        factors.append(factor)
        for a, earlier in enumerate(factors):
            upper[:, a, len(factors) - 1] = np.vdot(earlier, factor), np.vdot(earlier, flipped)
        return flipped

    flipped_x = [append(ev.forward @ psi), append(ev.forward @ sigma_j(psi))]
    # each sigma_i X_k is dropped as soon as U^dagger has read it
    append(ev.forward @ sigma_j(ev.backward @ flipped_x.pop(0)))
    flipped_z1 = append(ev.forward @ sigma_j(ev.backward @ flipped_x.pop()))
    factors.clear()  # K is read; only sigma_i Z1 lives on
    direct = checked_otoc(np.vdot(psi, ev.backward @ flipped_z1))
    p, q = upper + np.triu(upper, 1).conj().swapaxes(1, 2)
    under = np.ix_(*2 * ([0, 1, 0, 1, 2, 3],))  # the K under each vector of B
    carries = np.array([0, 0, 1, 1, 0, 0])  # and whether it carries sigma_i
    same = carries[:, None] == carries
    p, q = p[under], q[under]
    grams = np.stack([np.where(same, p, q), np.where(same, q, p)])
    grams.flags.writeable = False
    return Ladder(grams, direct)


def outcome_probabilities(ladder: Ladder) -> ProbabilityTable:
    """Exact joint probabilities for the four-measurement sequence.

    Measurement order is sigma_j^b, sigma_i^a, sigma_j^b, sigma_i^a with
    evolution +t, -t, +t in between.  The state before the last measurement
    is c . B with c = (1 + o1 o3, o1 + o3, o2, o1 o2, o2 o3, o1 o2 o3) / 8,
    so the joint probability of (o1, o2, o3, o4) is
    (c^dagger G0 c + o4 c^dagger G1 c) / 2.  A node whose conditional
    probability, the ratio of its leaves' sum to its parent's, falls below
    ZERO_BRANCH_CUTOFF zeroes every leaf below it and counts once as pruned.
    """
    # c is real and G Hermitian, so c^dagger G c reads only the real part of G
    c = _LEAF_COEFFICIENTS
    norm, sigma = np.einsum("ka,gab,kb->gk", c, ladder.grams.real, c)
    leaves = np.stack([norm + sigma, norm - sigma], axis=1).ravel() / 2.0
    alive = np.ones(1, dtype=bool)
    parent = np.ones(1)
    pruned = 0
    for depth in range(1, 5):
        # the nodes of this depth, o1 most significant, as sums of their leaves
        marginal = leaves.reshape(2**depth, -1).sum(axis=1)
        alive = np.repeat(alive, 2)
        below = marginal < ZERO_BRANCH_CUTOFF * np.repeat(parent, 2)
        pruned += int(np.count_nonzero(alive & below))
        alive &= ~below
        parent = marginal
    return ProbabilityTable(np.where(alive, leaves, 0.0), pruned)


def corr_from_table(table: ProbabilityTable) -> float:
    """Signed correlation sum_o o1 o2 o3 o4 P_o, in [-1, 1]."""
    return math.fsum(OUTCOME_SIGNS * table.probabilities)


def re_otoc_via_protocol(ladder: Ladder) -> float:
    """Re C(t) reconstructed as 2*corr - 1 from the projective protocol."""
    return 2.0 * corr_from_table(outcome_probabilities(ladder)) - 1.0


def rotated_expectation(ladder: Ladder, angles: RotationAngles) -> float:
    """<sigma_i^a> after the rotate/evolve sequence of the imaginary-part protocol.

    The state factor goes through e^(-iHt) R_j^b(t3) e^(iHt) R_i^a(t2)
    e^(-iHt) R_j^b(t1), right to left, with R(theta) = c - i n sigma for
    c = cos(theta/2), n = sin(theta/2).  Over the ladder basis the final
    state is c3 (c2 c1 X0 - i c2 n1 X1 - i n2 c1 sigma_i X0 - n2 n1 sigma_i X1)
    - i n3 (-i c2 n1 X0 + c2 c1 X1 - i n2 c1 Z0 - n2 n1 Z1).
    """
    half = (angles.theta1 / 2.0, angles.theta2 / 2.0, angles.theta3 / 2.0)
    c1, c2, c3 = (math.cos(h) for h in half)
    n1, n2, n3 = (math.sin(h) for h in half)
    coeffs = np.array(
        [
            c3 * c2 * c1 - n3 * c2 * n1,
            -1j * (c3 * c2 * n1 + n3 * c2 * c1),
            -1j * c3 * n2 * c1,
            -c3 * n2 * n1,
            -n3 * n2 * c1,
            1j * n3 * n2 * n1,
        ]
    )
    return float(np.vdot(coeffs, ladder.grams[1] @ coeffs).real)


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


def im_otoc_via_protocol(ladder: Ladder, angles: RotationAngles | None = None) -> float:
    """Im C(t) from the four-angle-set combination of rotated expectations."""
    if angles is None:
        angles = RotationAngles(*DEFAULT_ANGLES)
    prefactor = angles.checked_prefactor()
    combo = math.fsum(
        sign * rotated_expectation(ladder, var)
        for sign, var in zip(ANGLE_VARIANT_SIGNS, angle_variants(angles))
    )
    return combo / prefactor
