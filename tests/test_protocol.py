import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from otocsim.dynamics import Propagator, build_custom, build_xy_chain
from otocsim.hilbert import DensityOperator, all_up_state, maximally_mixed_state
from otocsim.otoc import OtocSpec, otoc_direct
from otocsim.protocol import (
    OUTCOME_SEQUENCES,
    OUTCOME_SIGNS,
    DegenerateAnglesError,
    ProbabilityTable,
    RotationAngles,
    angle_variants,
    build_ladder,
    corr_from_table,
    im_otoc_via_protocol,
    outcome_probabilities,
    prepare,
    re_otoc_via_protocol,
    rotated_expectation,
)
from otocsim.verification import (
    AXIS_PAIRS,
    _instances,
    random_density,
    random_hamiltonian,
    random_nondegenerate_angles,
)

import oracles

# Frozen from tests/oracles.py (closed-form trace expression, expm
# unitaries): XY N=4, all-up, a=b=x, i=2, j=3, t=0.5.  Sequences whose
# first two outcomes repeat as the last two share one probability.
P_REPEATED = 0.13868176244223096
P_OTHER = 0.03710607918592304
CORR_T05 = 0.4063027330252316
ROT_EXPECT_T05 = 0.20248425375191498


def frozen_table():
    return np.array(
        [P_REPEATED if seq[:2] == seq[2:] else P_OTHER for seq in OUTCOME_SEQUENCES]
    )


def in_sequence_order(oracle_table):
    """An oracle's {(o1, o2, o3, o4): P} as an array in OUTCOME_SEQUENCES order."""
    return np.array([oracle_table[seq] for seq in OUTCOME_SEQUENCES])


def one_hot(seq):
    probs = np.zeros(len(OUTCOME_SEQUENCES))
    probs[OUTCOME_SEQUENCES.index(seq)] = 1.0
    return probs


def test_outcome_signs_are_the_sequence_products():
    assert OUTCOME_SIGNS.shape == (16,)
    for sign, seq in zip(OUTCOME_SIGNS, OUTCOME_SEQUENCES):
        assert sign == seq[0] * seq[1] * seq[2] * seq[3]


def test_polarized_zz_protocol_is_deterministic(xy4, up4):
    prepared = prepare(up4, OtocSpec(2, "z", 3, "z"), xy4.register)
    table = outcome_probabilities(build_ladder(prepared, xy4.evolution(1.3)))
    assert np.array_equal(table.probabilities, one_hot((1, 1, 1, 1)))


def test_mixed_state_conserved_axis_flip_symmetry():
    """With [H, sigma_j^b] = 0 and rho = I/d the table is invariant under
    flipping all four outcomes."""
    n = 3
    ham = build_custom(
        n,
        [(1, "z", 2, "z", 0.7), (2, "z", 3, "z", -1.3)],
        [(1, "x", 0.4), (3, "x", 0.9), (2, "z", 0.5)],
    )
    prop = Propagator.from_hamiltonian(ham)
    prepared = prepare(maximally_mixed_state(n), OtocSpec(1, "x", 2, "z"), prop.register)
    table = outcome_probabilities(build_ladder(prepared, prop.evolution(0.73)))
    probs = table.probabilities
    for k, seq in enumerate(OUTCOME_SEQUENCES):
        flipped = OUTCOME_SEQUENCES.index(tuple(-o for o in seq))
        assert abs(probs[k] - probs[flipped]) < 1e-12


def test_derived_table_frozen_and_live_oracle(xy4, up4, spec_xx):
    ladder = build_ladder(prepare(up4, spec_xx, xy4.register), xy4.evolution(0.5))
    table = outcome_probabilities(ladder)
    assert np.max(np.abs(table.probabilities - frozen_table())) < 1e-10
    rho = np.zeros((16, 16), dtype=complex)
    rho[0, 0] = 1.0
    independent = oracles.probability_table(rho, oracles.xy_chain(4), 4, 2, "x", 3, "x", 0.5)
    assert np.max(np.abs(table.probabilities - in_sequence_order(independent))) < 1e-10


def test_zero_probability_branches_are_safe(xy4, up4):
    """Pi_j^- annihilates the polarized state: no division errors, and the
    whole dead branch carries exactly zero probability."""
    prepared = prepare(up4, OtocSpec(2, "x", 3, "z"), xy4.register)
    table = outcome_probabilities(build_ladder(prepared, xy4.evolution(0.8)))
    dead = [k for k, seq in enumerate(OUTCOME_SEQUENCES) if seq[0] == -1]
    assert np.array_equal(table.probabilities[dead], np.zeros(len(dead)))
    assert abs(math.fsum(table.probabilities) - 1.0) < 1e-10


def test_tables_normalized_on_random_instances(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        prop = Propagator.from_hamiltonian(random_hamiltonian(n, rng))
        state = random_density(n, rng)
        sites = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        spec = OtocSpec(int(sites[0]), "y", int(sites[1]), "x")
        ev = prop.evolution(float(rng.uniform(0, 5)))
        table = outcome_probabilities(build_ladder(prepare(state, spec, prop.register), ev))
        values = table.probabilities
        assert np.all((0.0 <= values) & (values <= 1.0))
        assert abs(math.fsum(values) - 1.0) < 1e-10


def test_corr_deterministic_and_uniform_tables():
    assert corr_from_table(ProbabilityTable(one_hot((1, 1, 1, 1)))) == 1.0
    assert corr_from_table(ProbabilityTable(one_hot((1, -1, 1, 1)))) == -1.0
    assert abs(corr_from_table(ProbabilityTable(np.full(16, 1.0 / 16.0)))) < 1e-15


def test_corr_matches_direct_otoc_via_identity(xy4, up4, spec_xx):
    prepared = prepare(up4, spec_xx, xy4.register)
    corr = corr_from_table(outcome_probabilities(build_ladder(prepared, xy4.evolution(0.5))))
    assert abs(corr - CORR_T05) < 1e-10
    direct = otoc_direct(prepared, xy4.evolution(0.5)).real
    assert abs((2.0 * corr - 1.0) - direct) < 1e-10


def test_corr_rejects_unnormalized_table():
    # corr_from_table reads only a ProbabilityTable, which cannot hold this array
    with pytest.raises(ValueError, match="sum"):
        corr_from_table(ProbabilityTable(np.full(16, 1.0 / 8.0)))


def test_probability_table_validation_and_clamping():
    probs = np.full(16, 1.0 / 16.0)
    probs[0] = -5e-13  # tiny negative excursion is clamped
    probs[1] = 1.0 / 8.0 + 5e-13
    table = ProbabilityTable(probs)
    assert table.probabilities[0] == 0.0
    assert probs[0] < 0.0  # the caller's array is copied, not clamped in place
    assert not table.probabilities.flags.writeable
    probs[0] = -1e-9
    with pytest.raises(ValueError, match=r"for \(1, 1, 1, 1\) outside"):
        ProbabilityTable(probs)
    with pytest.raises(ValueError, match="16"):
        ProbabilityTable(np.array([1.0]))
    with pytest.raises(ValueError, match="16"):
        ProbabilityTable(np.full((4, 4), 1.0 / 16.0))


def test_re_identity_simple_cases(xy4, up4):
    prepared = prepare(up4, OtocSpec(1, "y", 4, "x"), xy4.register)
    assert abs(re_otoc_via_protocol(build_ladder(prepared, xy4.evolution(0.0))) - 1.0) < 1e-12
    prepared = prepare(up4, OtocSpec(2, "z", 3, "z"), xy4.register)
    for t in (0.4, 2.0):
        assert abs(re_otoc_via_protocol(build_ladder(prepared, xy4.evolution(t))) - 1.0) < 1e-12


def test_re_identity_random_instances(rng):
    for _ in range(25):
        n = int(rng.integers(2, 5))
        prop = Propagator.from_hamiltonian(random_hamiltonian(n, rng))
        state = random_density(n, rng)
        sites = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        spec = OtocSpec(int(sites[0]), "x", int(sites[1]), "y")
        ev = prop.evolution(float(rng.uniform(0, 5)))
        prepared = prepare(state, spec, prop.register)
        direct = otoc_direct(prepared, ev).real
        assert abs(re_otoc_via_protocol(build_ladder(prepared, ev)) - direct) < 1e-9


def test_rotated_expectation_trivial_angles(xy4, up4):
    prepared = prepare(up4, OtocSpec(2, "z", 3, "z"), xy4.register)
    ladder = build_ladder(prepared, xy4.evolution(1.1))
    value = rotated_expectation(ladder, RotationAngles(0, 0, 0))
    assert abs(value - 1.0) < 1e-12


def test_four_term_combination_cancels_at_theta2_zero(xy4, up4, spec_xx):
    angles = RotationAngles(0.9, 0.0, 1.7)
    ladder = build_ladder(prepare(up4, spec_xx, xy4.register), xy4.evolution(0.6))
    expectations = [rotated_expectation(ladder, var) for var in angle_variants(angles)]
    combo = expectations[0] - expectations[1] - expectations[2] + expectations[3]
    assert combo == 0.0


def test_rotated_expectation_frozen_and_live_oracle(xy4, up4, spec_xx):
    angles = RotationAngles(math.pi / 2, math.pi / 2, math.pi / 2)
    ladder = build_ladder(prepare(up4, spec_xx, xy4.register), xy4.evolution(0.5))
    value = rotated_expectation(ladder, angles)
    assert abs(value - ROT_EXPECT_T05) < 1e-10
    rho = np.zeros((16, 16), dtype=complex)
    rho[0, 0] = 1.0
    independent = oracles.rotated_sigma_expectation(
        rho, oracles.xy_chain(4), 4, 2, "x", 3, "x", 0.5, math.pi / 2, math.pi / 2, math.pi / 2
    )
    assert abs(value - independent) < 1e-10


def test_optimal_angles_prefactor_is_two():
    assert abs(RotationAngles(math.pi / 2, math.pi / 2, math.pi / 2).prefactor() - 2.0) < 1e-15


def test_im_vanishes_at_zero_time(xy4, up4):
    prepared = prepare(up4, OtocSpec(1, "x", 3, "y"), xy4.register)
    assert abs(im_otoc_via_protocol(build_ladder(prepared, xy4.evolution(0.0)))) < 1e-12


def test_im_identity_random_instances(rng):
    for _ in range(25):
        n = int(rng.integers(2, 5))
        prop = Propagator.from_hamiltonian(random_hamiltonian(n, rng))
        state = random_density(n, rng)
        sites = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        spec = OtocSpec(int(sites[0]), "z", int(sites[1]), "y")
        ev = prop.evolution(float(rng.uniform(0, 5)))
        angles = random_nondegenerate_angles(rng)
        prepared = prepare(state, spec, prop.register)
        reconstructed = im_otoc_via_protocol(build_ladder(prepared, ev), angles)
        assert abs(reconstructed - otoc_direct(prepared, ev).imag) < 1e-9


def test_im_invariant_under_base_set_negation(rng):
    n = 3
    prop = Propagator.from_hamiltonian(random_hamiltonian(n, rng))
    state = random_density(n, rng)
    spec = OtocSpec(1, "x", 3, "y")
    angles = random_nondegenerate_angles(rng)
    negated = RotationAngles(-angles.theta1, -angles.theta2, -angles.theta3)
    ladder = build_ladder(prepare(state, spec, prop.register), prop.evolution(1.2))
    a = im_otoc_via_protocol(ladder, angles)
    b = im_otoc_via_protocol(ladder, negated)
    assert abs(a - b) < 1e-12


def test_degenerate_angles_rejected(xy4, up4, spec_xx):
    ladder = build_ladder(prepare(up4, spec_xx, xy4.register), xy4.evolution(0.5))
    with pytest.raises(DegenerateAnglesError):
        im_otoc_via_protocol(ladder, RotationAngles(0.3, 0.0, 0.9))
    with pytest.raises(ValueError, match="finite"):
        RotationAngles(math.nan, 0.1, 0.2)


@pytest.mark.parametrize("axes", AXIS_PAIRS, ids="".join)
@given(
    n=st.integers(min_value=1, max_value=6),
    data=st.data(),
    mixed=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    t=st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_factor_evaluators_match_dense_oracles(axes, n, data, mixed, seed, t):
    """otoc_direct, the 16-branch table and the rotated expectation on the state
    factor against the dense expm oracles, for pure and full-rank mixed states,
    distinct and same-site specs."""
    site_i = data.draw(st.integers(min_value=1, max_value=n))
    site_j = data.draw(st.one_of(st.just(site_i), st.integers(min_value=1, max_value=n)))
    rng = np.random.Generator(np.random.PCG64(seed))
    ham = random_hamiltonian(n, rng)
    prop = Propagator.from_hamiltonian(ham)
    state = random_density(n, rng) if mixed else all_up_state(n)
    spec = OtocSpec(site_i, axes[0], site_j, axes[1])
    angles = RotationAngles(*rng.uniform(-math.pi, math.pi, size=3))
    dense = (state.matrix, ham.matrix, n, site_i, axes[0], site_j, axes[1], t)

    prepared, evolution = prepare(state, spec, prop.register), prop.evolution(t)
    assert abs(otoc_direct(prepared, evolution) - oracles.otoc_value(*dense)) < 1e-10
    ladder = build_ladder(prepared, evolution)
    table = outcome_probabilities(ladder)
    expected = in_sequence_order(oracles.probability_table(*dense))
    assert np.max(np.abs(table.probabilities - expected)) < 1e-10
    value = rotated_expectation(ladder, angles)
    rotated = oracles.rotated_sigma_expectation(
        *dense, angles.theta1, angles.theta2, angles.theta3
    )
    assert abs(value - rotated) < 1e-10


@pytest.mark.parametrize("seed", range(1, 6))
def test_ladder_direct_is_otoc_direct_on_random_instances(seed):
    """The ladder's C(t) shares otoc_direct's chain, so it equals it bit for bit:
    dense random H, random full-rank states, every (size, axis pair) once."""
    for _, prepared, ev in _instances(36, (2, 3, 4, 5), seed):
        assert build_ladder(prepared, ev).direct == otoc_direct(prepared, ev)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_ladder_direct_is_otoc_direct_on_xy_chains(n):
    """Bit-equal on the XY chain's real blocks too: pure and full-rank states,
    every axis pair, a same-site spec, at t = 0 and t > 0."""
    prop = Propagator.from_hamiltonian(build_xy_chain(n))
    evolutions = [prop.evolution(t) for t in (0.0, 0.7, 2.3)]
    specs = [OtocSpec(2, a, n - 1, b) for a, b in AXIS_PAIRS] + [OtocSpec(3, "y", 3, "x")]
    for state in (all_up_state(n), maximally_mixed_state(n)):
        for spec in specs:
            prepared = prepare(state, spec, prop.register)
            for ev in evolutions:
                assert build_ladder(prepared, ev).direct == otoc_direct(prepared, ev)


def _free_fermion_protocol_cases(n, pairs, times):
    """(Re C from the tree, Im C from the rotations, the Jordan-Wigner C) on the
    infinite-temperature XY chain: (i,z)/(j,z) for every pair, (1,x)/(j,z) for every j."""
    prop = Propagator.from_hamiltonian(build_xy_chain(n))
    state = maximally_mixed_state(n)
    evolutions = [(t, prop.evolution(t)) for t in times]
    cases = [
        (OtocSpec(i, "z", j, "z"), lambda t, i=i, j=j: oracles.free_fermion_zz_otoc(n, i, j, t))
        for i, j in pairs
    ]
    cases += [
        (OtocSpec(1, "x", j, "z"), lambda t, j=j: oracles.free_fermion_xz_otoc(n, j, t))
        for j in sorted({j for _, j in pairs})
    ]
    for spec, oracle in cases:
        prepared = prepare(state, spec, prop.register)
        for t, ev in evolutions:
            ladder = build_ladder(prepared, ev)
            yield re_otoc_via_protocol(ladder), im_otoc_via_protocol(ladder), oracle(t)


@pytest.mark.parametrize("n", range(6, 9))
def test_protocols_match_free_fermion_oracle(n):
    """Both protocols on maximally_mixed XY chains, every site pair: 2 corr - 1
    is the Jordan-Wigner C, and the rotation combination is 0, because C is
    real at infinite temperature (cyclicity of the trace)."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for re_c, im_c, expected in _free_fermion_protocol_cases(n, pairs, (0.7, 2.9)):
        assert abs(re_c - expected.real) < 1e-12
        assert abs(im_c) < 1e-12


def test_protocols_match_free_fermion_oracle_at_ten_sites():
    for re_c, im_c, expected in _free_fermion_protocol_cases(10, [(4, 7)], (0.7, 2.9)):
        assert abs(re_c - expected.real) < 1e-12
        assert abs(im_c) < 1e-12


@pytest.mark.parametrize("n", range(4, 11))
def test_protocols_match_xx_vacuum_oracle(n):
    """Both protocols on all_up, (i,x)/(j,x) for every ordered pair, against the
    Wick oracle: 2 corr - 1 is its C, and the rotation combination its Im C = 0."""
    prop = Propagator.from_hamiltonian(build_xy_chain(n))
    evolutions = [(t, prop.evolution(t)) for t in (0.6, 2.3)]
    for site_i in range(1, n + 1):
        for site_j in range(1, n + 1):
            prepared = prepare(all_up_state(n), OtocSpec(site_i, "x", site_j, "x"), prop.register)
            for t, ev in evolutions:
                expected = oracles.free_fermion_xx_vacuum_otoc(n, site_i, site_j, t)
                ladder = build_ladder(prepared, ev)
                assert abs(re_otoc_via_protocol(ladder) - expected.real) < 1e-12
                assert abs(im_otoc_via_protocol(ladder) - expected.imag) < 1e-12


@pytest.mark.parametrize("n", [4, 6, 8])
def test_protocols_match_thermal_oracle(n):
    """The direct C(t) and both protocols on the full-rank state e^(-beta H)/Z,
    (i,z)/(j,z), against the free-fermion determinant; here Im C is far from 0,
    so the rotation combination is checked against a nonzero value."""
    prop = Propagator.from_hamiltonian(build_xy_chain(n))
    h = oracles.xy_chain(n)
    pairs = [(1, n), (n // 2, n // 2 + 1), (2, 2)]
    largest_im = 0.0
    for beta in (0.3, 1.1):
        rho = expm(-beta * h)
        state = DensityOperator(n, rho / np.trace(rho).real)
        for site_i, site_j in pairs:
            prepared = prepare(state, OtocSpec(site_i, "z", site_j, "z"), prop.register)
            for t in (0.7, 2.9):
                expected = oracles.free_fermion_thermal_zz_otoc(n, site_i, site_j, t, beta)
                ev = prop.evolution(t)
                assert abs(otoc_direct(prepared, ev) - expected) < 1e-12
                ladder = build_ladder(prepared, ev)
                assert abs(re_otoc_via_protocol(ladder) - expected.real) < 1e-12
                assert abs(im_otoc_via_protocol(ladder) - expected.imag) < 1e-12
                largest_im = max(largest_im, abs(expected.imag))
    assert largest_im > 0.1


def _factor_of_width(n, kind, rng):
    """A unit-norm (2^N, r) factor: r = 2^(N-1), 2^(N-1) + 1 or 2^N, or a
    rank-2^(N-1) factor of width 2^N made of duplicated columns."""
    half = 2 ** (n - 1)
    width = {"half": half, "half+1": half + 1, "full": 2**n, "duplicated": half}[kind]
    psi = rng.standard_normal((2**n, width)) + 1j * rng.standard_normal((2**n, width))
    if kind == "duplicated":
        psi = np.hstack([psi, psi])
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("axes", AXIS_PAIRS, ids="".join)
@given(
    n=st.integers(min_value=1, max_value=6),
    data=st.data(),
    kind=st.sampled_from(["half", "half+1", "full", "duplicated"]),
    xy=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    t=st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_compressed_tree_matches_probability_oracle(axes, n, data, kind, xy, seed, t):
    """The 16-branch table from factors of 2^(N-1), 2^(N-1) + 1 and 2^N columns,
    and from a rank-2^(N-1) factor of 2^N columns (widths that once decided
    whether the first collapse was compressed), against the closed-form trace
    oracle; both signs of every measurement are taken."""
    site_i = data.draw(st.integers(min_value=1, max_value=n))
    site_j = data.draw(st.one_of(st.just(site_i), st.integers(min_value=1, max_value=n)))
    rng = np.random.Generator(np.random.PCG64(seed))
    ham = build_xy_chain(n) if xy and n >= 2 else random_hamiltonian(n, rng)
    prop = Propagator.from_hamiltonian(ham)
    state = DensityOperator.from_factor(n, _factor_of_width(n, kind, rng))
    spec = OtocSpec(site_i, axes[0], site_j, axes[1])
    ladder = build_ladder(prepare(state, spec, prop.register), prop.evolution(t))
    table = outcome_probabilities(ladder)
    expected = oracles.probability_table(
        state.matrix, ham.matrix, n, site_i, axes[0], site_j, axes[1], t
    )
    assert np.max(np.abs(table.probabilities - in_sequence_order(expected))) < 1e-10


def test_tree_counts_pruned_branches(xy4, up4):
    prepared = prepare(up4, OtocSpec(2, "z", 3, "z"), xy4.register)
    table = outcome_probabilities(build_ladder(prepared, xy4.evolution(1.3)))
    assert table.pruned == 4  # the -1 branch of each of the four measurements
    mixed = prepare(maximally_mixed_state(4), OtocSpec(2, "x", 3, "y"), xy4.register)
    assert outcome_probabilities(build_ladder(mixed, xy4.evolution(1.3))).pruned == 0


def test_probability_table_counts_clamped_entries():
    probs = np.full(16, 1.0 / 16.0)
    assert ProbabilityTable(probs).clamped == 0
    probs[0] = -5e-13
    probs[1] = 1.0 / 8.0 + 5e-13
    assert ProbabilityTable(probs).clamped == 1
