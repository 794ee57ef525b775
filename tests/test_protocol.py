import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from otocsim.config import FACTORS_AT_PEAK
from otocsim.dynamics import EvolutionTimeError, Hamiltonian, Propagator, build_xy_chain
from otocsim.hilbert import Register, all_up_state, maximally_mixed_state
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
    prepare_all_up,
    re_otoc_via_protocol,
    reached_weights,
    rotated_expectation,
)
from otocsim.traces import FLIP_SIGNS, prepare_maximally_mixed
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
    prepared = prepare(up4, OtocSpec(2, "z", 3, "z"), xy4)
    table = outcome_probabilities(build_ladder(prepared, 1.3))
    assert np.array_equal(table.probabilities, one_hot((1, 1, 1, 1)))


def test_mixed_state_conserved_axis_flip_symmetry():
    """With [H, sigma_j^b] = 0 and rho = I/d the table is invariant under
    flipping all four outcomes."""
    n = 3
    z1, z2, z3 = (oracles.site_operator(n, site, "z") for site in (1, 2, 3))
    x1, x3 = (oracles.site_operator(n, site, "x") for site in (1, 3))
    ham = 0.7 * z1 @ z2 - 1.3 * z2 @ z3 + 0.4 * x1 + 0.9 * x3 + 0.5 * z2
    prop = Propagator.from_hamiltonian(Hamiltonian.from_matrix(n, ham))
    prepared = prepare(maximally_mixed_state(n), OtocSpec(1, "x", 2, "z"), prop)
    table = outcome_probabilities(build_ladder(prepared, 0.73))
    probs = table.probabilities
    for k, seq in enumerate(OUTCOME_SEQUENCES):
        flipped = OUTCOME_SEQUENCES.index(tuple(-o for o in seq))
        assert abs(probs[k] - probs[flipped]) < 1e-12


def test_derived_table_frozen_and_live_oracle(xy4, up4, spec_xx):
    ladder = build_ladder(prepare(up4, spec_xx, xy4), 0.5)
    table = outcome_probabilities(ladder)
    assert np.max(np.abs(table.probabilities - frozen_table())) < 1e-10
    rho = np.zeros((16, 16), dtype=complex)
    rho[0, 0] = 1.0
    independent = oracles.probability_table(rho, oracles.xy_chain(4), 4, 2, "x", 3, "x", 0.5)
    assert np.max(np.abs(table.probabilities - in_sequence_order(independent))) < 1e-10


def test_zero_probability_branches_are_safe(xy4, up4):
    """Pi_j^- annihilates the polarized state: no division errors, and the
    whole dead branch carries exactly zero probability."""
    prepared = prepare(up4, OtocSpec(2, "x", 3, "z"), xy4)
    table = outcome_probabilities(build_ladder(prepared, 0.8))
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
        t = float(rng.uniform(0, 5))
        table = outcome_probabilities(build_ladder(prepare(state, spec, prop), t))
        values = table.probabilities
        assert np.all((0.0 <= values) & (values <= 1.0))
        assert abs(math.fsum(values) - 1.0) < 1e-10


def test_corr_deterministic_and_uniform_tables():
    assert corr_from_table(ProbabilityTable(one_hot((1, 1, 1, 1)))) == 1.0
    assert corr_from_table(ProbabilityTable(one_hot((1, -1, 1, 1)))) == -1.0
    assert abs(corr_from_table(ProbabilityTable(np.full(16, 1.0 / 16.0)))) < 1e-15


def test_corr_matches_direct_otoc_via_identity(xy4, up4, spec_xx):
    prepared = prepare(up4, spec_xx, xy4)
    corr = corr_from_table(outcome_probabilities(build_ladder(prepared, 0.5)))
    assert abs(corr - CORR_T05) < 1e-10
    direct = otoc_direct(prepared, 0.5).real
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
    prepared = prepare(up4, OtocSpec(1, "y", 4, "x"), xy4)
    assert abs(re_otoc_via_protocol(build_ladder(prepared, 0.0)) - 1.0) < 1e-12
    prepared = prepare(up4, OtocSpec(2, "z", 3, "z"), xy4)
    for t in (0.4, 2.0):
        assert abs(re_otoc_via_protocol(build_ladder(prepared, t)) - 1.0) < 1e-12


def test_re_identity_random_instances(rng):
    for _ in range(25):
        n = int(rng.integers(2, 5))
        prop = Propagator.from_hamiltonian(random_hamiltonian(n, rng))
        state = random_density(n, rng)
        sites = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        spec = OtocSpec(int(sites[0]), "x", int(sites[1]), "y")
        t = float(rng.uniform(0, 5))
        prepared = prepare(state, spec, prop)
        direct = otoc_direct(prepared, t).real
        assert abs(re_otoc_via_protocol(build_ladder(prepared, t)) - direct) < 1e-9


def test_rotated_expectation_trivial_angles(xy4, up4):
    prepared = prepare(up4, OtocSpec(2, "z", 3, "z"), xy4)
    ladder = build_ladder(prepared, 1.1)
    value = rotated_expectation(ladder, RotationAngles(0, 0, 0))
    assert abs(value - 1.0) < 1e-12


def test_four_term_combination_cancels_at_theta2_zero(xy4, up4, spec_xx):
    angles = RotationAngles(0.9, 0.0, 1.7)
    ladder = build_ladder(prepare(up4, spec_xx, xy4), 0.6)
    expectations = [rotated_expectation(ladder, var) for var in angle_variants(angles)]
    combo = expectations[0] - expectations[1] - expectations[2] + expectations[3]
    assert combo == 0.0


def test_rotated_expectation_frozen_and_live_oracle(xy4, up4, spec_xx):
    angles = RotationAngles(math.pi / 2, math.pi / 2, math.pi / 2)
    ladder = build_ladder(prepare(up4, spec_xx, xy4), 0.5)
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
    prepared = prepare(up4, OtocSpec(1, "x", 3, "y"), xy4)
    assert abs(im_otoc_via_protocol(build_ladder(prepared, 0.0))) < 1e-12


def test_im_identity_random_instances(rng):
    for _ in range(25):
        n = int(rng.integers(2, 5))
        prop = Propagator.from_hamiltonian(random_hamiltonian(n, rng))
        state = random_density(n, rng)
        sites = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        spec = OtocSpec(int(sites[0]), "z", int(sites[1]), "y")
        t = float(rng.uniform(0, 5))
        angles = random_nondegenerate_angles(rng)
        prepared = prepare(state, spec, prop)
        reconstructed = im_otoc_via_protocol(build_ladder(prepared, t), angles)
        assert abs(reconstructed - otoc_direct(prepared, t).imag) < 1e-9


def test_im_invariant_under_base_set_negation(rng):
    n = 3
    prop = Propagator.from_hamiltonian(random_hamiltonian(n, rng))
    state = random_density(n, rng)
    spec = OtocSpec(1, "x", 3, "y")
    angles = random_nondegenerate_angles(rng)
    negated = RotationAngles(-angles.theta1, -angles.theta2, -angles.theta3)
    ladder = build_ladder(prepare(state, spec, prop), 1.2)
    a = im_otoc_via_protocol(ladder, angles)
    b = im_otoc_via_protocol(ladder, negated)
    assert abs(a - b) < 1e-12


def test_degenerate_angles_rejected(xy4, up4, spec_xx):
    ladder = build_ladder(prepare(up4, spec_xx, xy4), 0.5)
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
    (h,) = ham.blocks  # a dense H is one block in computational order
    rho = state @ state.conj().T
    dense = (rho, h, n, site_i, axes[0], site_j, axes[1], t)

    prepared = prepare(state, spec, prop)
    assert abs(otoc_direct(prepared, t) - oracles.otoc_value(*dense)) < 1e-10
    ladder = build_ladder(prepared, t)
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
    for prepared, t, _ in _instances(36, seed):
        assert build_ladder(prepared, t).direct == otoc_direct(prepared, t)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_ladder_direct_is_otoc_direct_on_xy_chains(n):
    """Bit-equal on the XY chain's real blocks too: pure and full-rank states,
    every axis pair, a same-site spec, at t = 0 and t > 0."""
    prop = Propagator.from_hamiltonian(build_xy_chain(n))
    specs = [OtocSpec(2, a, n - 1, b) for a, b in AXIS_PAIRS] + [OtocSpec(3, "y", 3, "x")]
    for state in (all_up_state(n), maximally_mixed_state(n)):
        psi = oracles.factor_in_register_order(prop.register, state)
        for spec in specs:
            prepared = prepare(psi, spec, prop)
            for t in (0.0, 0.7, 2.3):
                assert build_ladder(prepared, t).direct == otoc_direct(prepared, t)


def test_a_pure_run_holds_at_most_factors_at_peak_beside_h_and_v():
    """The traced peak of an N = 12 all_up run, from `prepare` through a first and a
    warm `build_ladder` point, stays within the FACTORS_AT_PEAK factors of 16 * 2^N
    bytes that the register cap adds to H and V, for every axis pair.  Each pair runs
    on a fresh register, so that its kernel tables are built, and counted, inside
    the trace."""
    n = 12
    prop = Propagator.from_hamiltonian(build_xy_chain(n))
    for axis_a, axis_b in AXIS_PAIRS:
        fresh = Register(n, prop.register.order, prop.register.bounds)
        run = prop.replace(register=fresh)
        tracemalloc.start()
        try:
            psi = oracles.factor_in_register_order(fresh, all_up_state(n))
            prepared = prepare(psi, OtocSpec(6, axis_a, 7, axis_b), run)
            for t in (0.3, 1.7):
                build_ladder(prepared, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= FACTORS_AT_PEAK * 16 * 2**n, (axis_a, axis_b, peak)


def _chain_weights(prepared, t):
    """The Hamming weights where the factors that `build_ladder` applies U(t) or
    U(t)^dagger to have nonzero weight, on a full XY-chain register, whose sector k
    is weight k."""
    ev, spec = prepared.propagator.evolution(t), prepared.spec
    register = ev.register

    def sigma(factor, site, axis):
        return register.pauli(factor, site, axis)

    psi = [prepared.psi, sigma(prepared.psi, spec.site_j, spec.axis_b)]
    s = [sigma(ev.forward(f), spec.site_i, spec.axis_a) for f in psi]
    t_ = [sigma(ev.backward(f), spec.site_j, spec.axis_b) for f in s]
    sectors = list(enumerate(zip(register.bounds, register.bounds[1:])))
    return {k for f in psi + s + t_ for k, (lo, hi) in sectors if f[lo:hi].any()}


@pytest.mark.parametrize(
    "spec", [OtocSpec(4, a, 5, b) for a, b in AXIS_PAIRS] + [OtocSpec(3, "y", 3, "x")], ids=repr
)
def test_reached_weights_are_where_the_full_chain_has_weight(spec):
    """At N = 8, the closure of weight 0 under the moves sigma_j, sigma_i, sigma_j is
    exactly the set of weights where the ladder's evolved factors have weight on the
    whole register: every axis pair and a same-site spec.  On a register of just
    those weights, which lacks the further weight the last sigma_i image reaches, the
    ladder's Gram matrices and direct C(t) equal the whole register's within 1e-12."""
    n, t = 8, 0.7
    chain = Propagator.from_hamiltonian(build_xy_chain(n))
    full = prepare(oracles.factor_in_register_order(chain.register, all_up_state(n)), spec, chain)
    weights = reached_weights(n, spec.axis_a, spec.axis_b)
    assert _chain_weights(full, t) == set(weights)
    reached = prepare_all_up(spec, Propagator.from_hamiltonian(build_xy_chain(n, weights)))
    assert len(reached.psi) == sum(math.comb(n, w) for w in weights)
    for time in (0.0, t, 3.0):
        on_full, on_reached = build_ladder(full, time), build_ladder(reached, time)
        np.testing.assert_allclose(on_reached.grams, on_full.grams, rtol=0, atol=1e-12)
        assert abs(on_reached.direct - on_full.direct) < 1e-12
        assert on_reached.direct == otoc_direct(reached, time)


def test_each_state_needs_a_register_that_holds_it():
    """all_up is basis index 0: a register without weight 0 cannot hold it.  I/2^N
    spans every sector: a register that lacks one cannot run it."""
    spec = OtocSpec(1, "x", 2, "x")
    with pytest.raises(ValueError, match="basis index 0"):
        prepare_all_up(spec, Propagator.from_hamiltonian(build_xy_chain(4, [1, 2])))
    prop = Propagator.from_hamiltonian(build_xy_chain(4, [0, 1, 2, 3]))
    with pytest.raises(ValueError, match="every basis index"):
        prepare_maximally_mixed(spec, prop)


@pytest.mark.parametrize("n", range(2, 11))
def test_trace_ladder_equals_the_schroedinger_ladder_on_the_maximally_mixed_state(n):
    """All 72 Gram entries and the direct C(t) of the eigenbasis traces equal
    `build_ladder`'s on the factor of I/2^N: every axis pair, a middle, a same-site
    and an edge-site spec, t = 0, 0.7, 3 and 50.  Up to N = 8 every combination;
    at N = 9 and 10, where a Schroedinger point costs a 2^N x 2^N factor, each
    axis pair once, cycling the specs and times."""
    prop = Propagator.from_hamiltonian(build_xy_chain(n))
    state = oracles.factor_in_register_order(prop.register, maximally_mixed_state(n))
    pairs = list(dict.fromkeys([(n // 2, n // 2 + 1), (2, 2), (1, n)]))
    times = (0.0, 0.7, 3.0, 50.0)
    if n <= 8:
        cases = [(a, b, i, j, t) for a, b in AXIS_PAIRS for i, j in pairs for t in times]
    else:
        cases = [
            (a, b, *pairs[k % len(pairs)], times[k % len(times)])
            for k, (a, b) in enumerate(AXIS_PAIRS)
        ]
    for axis_a, axis_b, site_i, site_j, t in cases:
        spec = OtocSpec(site_i, axis_a, site_j, axis_b)
        expected = build_ladder(prepare(state, spec, prop), t)
        ladder = build_ladder(prepare_maximally_mixed(spec, prop), t)
        assert np.max(np.abs(ladder.grams - expected.grams)) < 1e-12
        assert abs(ladder.direct - expected.direct) < 1e-12


@pytest.mark.parametrize("n", range(2, 10))
def test_the_flip_halves_the_trace_products_and_keeps_the_ladder(n):
    """Read without its spin flip, the same propagator forms every block of W_E, V_E
    and B.  With it, each pair of mirrored blocks that avoids the middle sector is
    formed once, and each orbit of walks is summed once: the ladder agrees within
    1e-12 for every axis pair, at odd N a point does exactly half the products, and
    where s_a s_b = -1 no walk of odd power is summed, as Tr[B] and Tr[B^3] vanish."""
    prop = Propagator.from_hamiltonian(build_xy_chain(n))
    plain = prop.replace(flip=None)
    for axis_a, axis_b in AXIS_PAIRS:
        spec = OtocSpec(n // 2, axis_a, n // 2 + 1, axis_b)
        halved, whole = prepare_maximally_mixed(spec, prop), prepare_maximally_mixed(spec, plain)
        for t in (0.0, 0.7, 3.0):
            ladder, expected = build_ladder(halved, t), build_ladder(whole, t)
            assert np.max(np.abs(ladder.grams - expected.grams)) < 1e-12
            assert abs(ladder.direct - expected.direct) < 1e-12
        if n % 2:
            assert 2 * len(halved.products) == len(whole.products)
        else:
            assert len(halved.products) < len(whole.products)
        if FLIP_SIGNS[axis_a] != FLIP_SIGNS[axis_b]:
            assert {len(steps) for _, steps in halved.walks} == {2}


@pytest.mark.parametrize("seed", range(1, 4))
def test_trace_ladder_equals_the_schroedinger_ladder_on_dense_hamiltonians(seed):
    """The same on a dense random H: one complex sector, so W_E and V_E are single
    complex blocks, every axis pair on N = 1 to 4."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for n in range(1, 5):
        prop = Propagator.from_hamiltonian(random_hamiltonian(n, rng))
        for axis_a, axis_b in AXIS_PAIRS:
            site_i, site_j = (int(s) for s in rng.integers(1, n + 1, size=2))
            spec = OtocSpec(site_i, axis_a, site_j, axis_b)
            t = float(rng.uniform(0, 5))
            expected = build_ladder(prepare(maximally_mixed_state(n), spec, prop), t)
            ladder = build_ladder(prepare_maximally_mixed(spec, prop), t)
            assert np.max(np.abs(ladder.grams - expected.grams)) < 1e-12
            assert abs(ladder.direct - expected.direct) < 1e-12


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 1e308])
def test_trace_ladder_rejects_a_time_whose_phases_are_not_finite(t):
    """A non-finite t, or one whose phases w t overflow, raises EvolutionTimeError,
    which the CLI reports as a config error."""
    prepared = prepare_maximally_mixed(
        OtocSpec(2, "x", 3, "y"), Propagator.from_hamiltonian(build_xy_chain(4))
    )
    with pytest.raises(EvolutionTimeError, match="non-finite"):
        build_ladder(prepared, t)


def _free_fermion_protocol_cases(n, pairs, times):
    """(Re C from the tree, Im C from the rotations, the Jordan-Wigner C) on the
    infinite-temperature XY chain: (i,z)/(j,z) for every pair, (1,x)/(j,z) for every j."""
    prop = Propagator.from_hamiltonian(build_xy_chain(n))
    state = oracles.factor_in_register_order(prop.register, maximally_mixed_state(n))
    cases = [
        (OtocSpec(i, "z", j, "z"), lambda t, i=i, j=j: oracles.free_fermion_zz_otoc(n, i, j, t))
        for i, j in pairs
    ]
    cases += [
        (OtocSpec(1, "x", j, "z"), lambda t, j=j: oracles.free_fermion_xz_otoc(n, j, t))
        for j in sorted({j for _, j in pairs})
    ]
    for spec, oracle in cases:
        prepared = prepare(state, spec, prop)
        for t in times:
            ladder = build_ladder(prepared, t)
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
    for site_i in range(1, n + 1):
        for site_j in range(1, n + 1):
            prepared = prepare_all_up(OtocSpec(site_i, "x", site_j, "x"), prop)
            for t in (0.6, 2.3):
                expected = oracles.free_fermion_xx_vacuum_otoc(n, site_i, site_j, t)
                ladder = build_ladder(prepared, t)
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
        half = expm(-beta * h / 2.0)  # rho = half half^dagger / Z, Z = ||half||_F^2
        state = oracles.factor_in_register_order(prop.register, half / np.linalg.norm(half))
        for site_i, site_j in pairs:
            prepared = prepare(state, OtocSpec(site_i, "z", site_j, "z"), prop)
            for t in (0.7, 2.9):
                expected = oracles.free_fermion_thermal_zz_otoc(n, site_i, site_j, t, beta)
                assert abs(otoc_direct(prepared, t) - expected) < 1e-12
                ladder = build_ladder(prepared, t)
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
    if xy and n >= 2:
        ham, h = build_xy_chain(n), oracles.xy_chain(n)
    else:
        ham = random_hamiltonian(n, rng)
        (h,) = ham.blocks  # a dense H is one block in computational order
    prop = Propagator.from_hamiltonian(ham)
    psi = _factor_of_width(n, kind, rng)
    spec = OtocSpec(site_i, axes[0], site_j, axes[1])
    prepared = prepare(oracles.factor_in_register_order(prop.register, psi), spec, prop)
    ladder = build_ladder(prepared, t)
    table = outcome_probabilities(ladder)
    rho = psi @ psi.conj().T
    expected = oracles.probability_table(rho, h, n, site_i, axes[0], site_j, axes[1], t)
    assert np.max(np.abs(table.probabilities - in_sequence_order(expected))) < 1e-10


def test_prepare_checks_rows_and_norm(xy4, spec_xx):
    """`prepare` takes a factor with one row per basis index of the register and unit
    Frobenius norm."""
    with pytest.raises(ValueError, match="^factor has 8 rows, expected 16$"):
        prepare(np.ones((8, 1), dtype=complex) / np.sqrt(8), spec_xx, xy4)
    for scale in (2.0, 1.0 + 1e-9):  # the unit-norm factor is 0.25 on each of 16 rows
        with pytest.raises(ValueError, match="Frobenius norm"):
            prepare(np.full((16, 1), 0.25 * scale, dtype=complex), spec_xx, xy4)


def test_prepare_makes_its_factor_read_only(xy4, spec_xx):
    """Every time point of a run reads the prepared factor: `prepare` makes it
    read-only, in place, and holds that same array."""
    psi = np.full((16, 2), 1.0 / np.sqrt(32), dtype=complex)
    prepared = prepare(psi, spec_xx, xy4)
    assert prepared.psi is psi and not psi.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        psi[0, 0] = 0.0


@pytest.mark.parametrize("n", range(2, 6))
def test_random_density_is_a_unit_norm_full_rank_factor(n):
    """`verify`'s states: 2^N x 2^N factors of unit Frobenius norm and full rank,
    so rho = psi psi^dagger is a full-rank state of unit trace."""
    psi = random_density(n, np.random.Generator(np.random.PCG64(n)))
    assert psi.shape == (2**n, 2**n)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-14
    assert np.linalg.matrix_rank(psi) == 2**n


def test_tree_counts_pruned_branches(xy4, up4):
    prepared = prepare(up4, OtocSpec(2, "z", 3, "z"), xy4)
    table = outcome_probabilities(build_ladder(prepared, 1.3))
    assert table.pruned == 4  # the -1 branch of each of the four measurements
    psi = oracles.factor_in_register_order(xy4.register, maximally_mixed_state(4))
    mixed = prepare(psi, OtocSpec(2, "x", 3, "y"), xy4)
    assert outcome_probabilities(build_ladder(mixed, 1.3)).pruned == 0


def test_probability_table_counts_clamped_entries():
    probs = np.full(16, 1.0 / 16.0)
    assert ProbabilityTable(probs).clamped == 0
    probs[0] = -5e-13
    probs[1] = 1.0 / 8.0 + 5e-13
    assert ProbabilityTable(probs).clamped == 1
