"""The two ancilla-free measurement protocols.

Projective branch: four projective measurements of sigma_j^b / sigma_i^a
interleaved with forward, backward, forward evolution give 16 outcome
probabilities; the signed correlation of the outcomes reconstructs
Re C(t) via 2*corr - 1.

Rotation branch: three single-site rotations interleaved with the same
evolution pattern, followed by one expectation value of sigma_i^a;
a four-angle-set combination reconstructs Im C(t).

A run prepares its state once on its propagator (`prepare`: Psi in the
propagator's register order).  A run on all_up, |up...up>, needs only the
few Hamming-weight sectors its chain evolves (`reached_weights`), and
`prepare_all_up` builds its Psi on a register that holds just those.
Each time point t then builds one `Ladder`, `build_ladder(prepared, t)`,
from six applications of U(t) or U(t)^dagger: since U^dagger U = I and
sigma^2 = I, every state of either protocol is a combination of six
vectors built from four evolved factors, and the ladder keeps only their
Gram matrices, one entry of which is the direct C(t).  The 16-branch table and every angle set read
from it; no state is collapsed or re-evolved.

A run on the maximally mixed state rho = I/D, D = 2^N, is prepared in
the eigenbasis of H instead, by `traces.prepare_maximally_mixed`, whose
`PreparedTrace` gives the same `Ladder` from three traces; `build_ladder`
takes either, and that module is loaded only by the runs that need it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import Propagator
from .hilbert import ATOL_ALGEBRA, ATOL_SPECTRUM, Record
from .otoc import OtocSpec, checked_otoc

if TYPE_CHECKING:
    from .traces import PreparedTrace

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

PREFACTOR_GUARD = 1e-6


def outside_probability_range(p):
    """Where p (a float or an array) is NaN or outside [-ATOL_ALGEBRA, 1 + ATOL_ALGEBRA]."""
    # the negated form rejects NaN, which compares False against any bound
    return np.logical_not((-ATOL_ALGEBRA <= p) & (p <= 1.0 + ATOL_ALGEBRA))


class DegenerateAnglesError(ValueError):
    """Rotation angles make the reconstruction prefactor vanish."""


class RotationAngles(Record):
    """Angle triple (theta1, theta2, theta3) of the rotation protocol, pi/2 each by default."""

    __slots__ = ("theta1", "theta2", "theta3")

    def __init__(
        self, theta1: float = math.pi / 2, theta2: float = math.pi / 2, theta3: float = math.pi / 2
    ):
        self._set(theta1, theta2, theta3)
        for name in self.__slots__:
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


class ProbabilityTable(Record, eq=False):
    """Probabilities of the 16 outcome sequences of the projective protocol.

    `probabilities` is a read-only float array of shape (16,) in
    OUTCOME_SEQUENCES order.  `pruned` is the number of branches the tree
    that computed the table cut below ZERO_BRANCH_CUTOFF; `clamped` counts
    the entries the clamp onto [0, 1] moved.
    """

    __slots__ = ("probabilities", "pruned", "clamped")

    def __init__(self, probabilities: np.ndarray, pruned: int = 0):
        raw = np.array(probabilities, dtype=float)
        if raw.shape != (len(OUTCOME_SEQUENCES),):
            raise ValueError("table must have exactly the 16 outcome sequences as entries")
        outside = outside_probability_range(raw)
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
        self._set(probs, pruned, int(np.count_nonzero(probs != raw)))


class PreparedState(Record, eq=False):
    """What every evaluator of a run shares: the dynamics, the correlator and the state.

    `psi` is the state factor in the register order of `propagator`, whose
    `evolution(t)` gives each point's U(t): state and dynamics cannot come
    apart.  It is read-only, as every time point of the run reads it.
    Build it with `prepare`.
    """

    __slots__ = ("propagator", "spec", "psi")

    def __init__(self, propagator: Propagator, spec: OtocSpec, psi: np.ndarray):
        self._set(propagator, spec, psi)


def prepare(psi: np.ndarray, spec: OtocSpec, propagator: Propagator) -> PreparedState:
    """A run of `propagator` on rho = psi psi^dagger, psi's rows in its register order.

    ValueError unless psi has those rows and unit Frobenius norm, which NaN and inf fail;
    IndexError unless the spec's sites fit the register."""
    propagator.register.check_rows(psi)
    norm2 = float(np.vdot(psi, psi).real)
    if not abs(norm2 - 1.0) <= ATOL_ALGEBRA:
        raise ValueError(f"state factor squared Frobenius norm {norm2} is not 1")
    spec.validate_for(propagator.n_sites)
    psi.flags.writeable = False  # shared by every time point of the run
    return PreparedState(propagator, spec, psi)


def prepare_all_up(spec: OtocSpec, propagator: Propagator) -> PreparedState:
    """A run of `propagator` on all_up, basis index 0, its Psi built on the register directly.

    No 2^N-row factor is formed, so the register may hold only the sectors
    of `reached_weights`.  ValueError if it does not hold basis index 0.
    """
    register = propagator.register
    up = np.flatnonzero(register.order == 0)
    if not len(up):
        raise ValueError("the register does not hold basis index 0, the all_up state")
    psi = np.zeros((len(register.order), 1), dtype=complex)
    psi[up] = 1.0
    return prepare(psi, spec, propagator)


# how a single-site Pauli moves a Hamming-weight sector: x and y flip one bit, z none
PAULI_MOVES = {"x": (-1, 1), "y": (-1, 1), "z": (0,)}


def reached_weights(n_sites: int, axis_a: str, axis_b: str) -> tuple[int, ...]:
    """The Hamming weights an all_up run of sigma^axis_a, sigma^axis_b evolves, ascending.

    With W = sigma_i^axis_a and V = sigma_j^axis_b: all_up is weight 0, and
    U(t) keeps every weight.  `build_ladder` evolves Psi and Psi_1 = V Psi,
    S_b = W X_b and T_b = V M_b, so the weights U(t) must be built on are
    the closure of weight 0 under the moves V, W, V.  The last image W Z_b
    may reach one weight further; it is read only as <Z_a|W Z_b>, and Z_a
    is zero there.
    """

    def move(weights: set[int], axis: str) -> set[int]:
        return {w + d for w in weights for d in PAULI_MOVES[axis] if 0 <= w + d <= n_sites}

    psi = {0} | move({0}, axis_b)  # Psi and Psi_1; X_b = U Psi_b
    s = move(psi, axis_a)  # S_b; M_b = U^dagger S_b
    t = move(s, axis_b)  # T_b; Z_b = U T_b
    return tuple(sorted(psi | s | t))


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


class Ladder(Record, eq=False):
    """What both protocols read at one time point: two Hermitian 6 x 6 Gram matrices.

    Both protocols interleave single-site operations with U, U^dagger, U
    (U = U(t)).  Since U^dagger U = I, sigma^2 = I and Pi = (1 +/- sigma)/2,
    every state either one forms is a combination c . B of the basis
    B = (X0, X1, sigma_i X0, sigma_i X1, Z0, Z1), where X0 = U Psi,
    X1 = U sigma_j Psi and Z_k = U sigma_j U^dagger sigma_i X_k (so
    U sigma_j U^dagger swaps X0 and X1).  `grams` holds G0 = <B_m|B_n> and
    G1 = <B_m|sigma_i B_n>, traced over the factor's columns: c . B has
    squared norm c^dagger G0 c and <sigma_i> = c^dagger G1 c.  `direct` is
    the exact C(t) = <X0|sigma_i Z1>.  Both are values: a ladder holds no
    factor.  Build it with `build_ladder`; on a `PreparedState` its
    `direct` is bit-equal to `otoc_direct`.
    """

    __slots__ = ("grams", "direct")

    def __init__(self, grams: np.ndarray, direct: complex):
        self._set(grams, direct)


def build_ladder(prepared: PreparedState | PreparedTrace, t: float) -> Ladder:
    """The ladder of time point t, from six applications of U(t) or U(t)^dagger.

    On a `traces.PreparedTrace` it is that run's `ladder(t)`, from three
    eigenbasis traces.
    K = (X0, X1, Z0, Z1) gives P_ab = <K_a|K_b> and Q_ab = <K_a|sigma_i K_b>.
    As sigma_i is Hermitian and squares to I, G0 takes P where both basis
    vectors carry sigma_i or neither does, and Q otherwise; G1 the reverse.
    With Psi_0 = Psi, Psi_1 = sigma_j Psi, X_b = U Psi_b, S_b = sigma_i X_b,
    M_b = U^dagger S_b, T_b = sigma_j M_b and Z_b = U T_b, U^dagger U = I
    and sigma^2 = I give every entry from the chain itself:
    P_XX = P_ZZ = <Psi_a|Psi_b>, P_XZ[0, b] = <Psi|T_b>,
    P_XZ[1, b] = <Psi|M_b>, Q_XX[a, b] = <X_a|S_b>, Q_XZ[a, b] = <M_a|T_b>
    and Q_ZZ[a, b] = <Z_a|sigma_i Z_b>, a `Register.pauli_element`, as
    sigma_i Z_b may leave the register.  Q_XZ[0, 1] = <T0|M1> is the
    direct C(t) = <Psi|W(t) V W(t) V Psi>, built with the operations of
    `otoc_direct` and so equal to it bit for bit; like it, the ladder
    raises ValueError when |C| exceeds 1 beyond ATOL_SPECTRUM.  Each step
    returns a new factor, bound to one of three names, a, b and c, in turn,
    and the factor it replaces is dropped: at most four live beside Psi,
    the three and the one being built.
    """
    if not isinstance(prepared, PreparedState):
        return prepared.ladder(t)
    ev = prepared.propagator.evolution(t)
    register = ev.register
    spec, psi = prepared.spec, prepared.psi

    def sigma_i(factor: np.ndarray) -> np.ndarray:
        return register.pauli(factor, spec.site_i, spec.axis_a)

    def sigma_j(factor: np.ndarray) -> np.ndarray:
        return register.pauli(factor, spec.site_j, spec.axis_b)

    upper = np.zeros((2, 4, 4), dtype=complex)  # P and Q on and above their diagonals
    p, q = upper
    # each comment names what the name it binds holds
    a = sigma_j(psi)  # Psi_1
    p[0, 0] = p[1, 1] = p[2, 2] = p[3, 3] = np.vdot(psi, psi)
    p[0, 1] = p[2, 3] = np.vdot(psi, a)
    b = ev.forward(psi)  # X0
    a = ev.forward(a)  # X1
    c = sigma_i(b)  # S0
    q[0, 0], q[0, 1] = np.vdot(b, c), np.vdot(c, a)  # <S0|X1> = <X0|S1>
    b = sigma_i(a)  # S1
    q[1, 1] = np.vdot(a, b)
    c = ev.backward(c)  # M0
    b = ev.backward(b)  # M1
    p[1, 2], p[1, 3] = np.vdot(psi, c), np.vdot(psi, b)
    a = sigma_j(c)  # T0
    p[0, 2], q[0, 2], q[0, 3] = np.vdot(psi, a), np.vdot(c, a), np.vdot(a, b)
    q[1, 2] = q[0, 3].conjugate()  # <M1|T0>
    c = sigma_j(b)  # T1
    p[0, 3], q[1, 3] = np.vdot(psi, c), np.vdot(b, c)
    a = ev.forward(a)  # Z0
    c = ev.forward(c)  # Z1
    q[2, 2], q[2, 3], q[3, 3] = (
        register.pauli_element(bra, ket, spec.site_i, spec.axis_a)
        for bra, ket in ((a, a), (a, c), (c, c))
    )
    return ladder_from_upper(upper, checked_otoc(q[0, 3]))


def ladder_from_upper(upper: np.ndarray, direct: complex) -> Ladder:
    """The Ladder whose P and Q (see `build_ladder`) hold `upper` on and above their diagonals."""
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


def im_otoc_via_protocol(ladder: Ladder, angles: RotationAngles = RotationAngles()) -> float:
    """Im C(t) from the four-angle-set combination of rotated expectations."""
    prefactor = angles.checked_prefactor()
    combo = math.fsum(
        sign * rotated_expectation(ladder, var)
        for sign, var in zip(ANGLE_VARIANT_SIGNS, angle_variants(angles))
    )
    return combo / prefactor
