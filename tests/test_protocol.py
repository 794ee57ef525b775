import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otocsim import protocol
from otocsim.dynamics import Propagator, build_custom, build_xy_chain
from otocsim.hilbert import (
    DensityOperator,
    all_up_state,
    apply_rotation,
    compress_projected,
    maximally_mixed_state,
)
from otocsim.otoc import OtocSpec, otoc_direct
from otocsim.protocol import (
    OUTCOME_SEQUENCES,
    OUTCOME_SIGNS,
    DegenerateAnglesError,
    ProbabilityTable,
    RotationAngles,
    angle_variants,
    corr_from_table,
    im_otoc_via_protocol,
    outcome_probabilities,
    re_otoc_via_protocol,
    rotated_expectation,
)
from otocsim.verification import (
    AXIS_PAIRS,
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
    table = outcome_probabilities(up4, OtocSpec(2, "z", 3, "z"), xy4.evolution(1.3))
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
    table = outcome_probabilities(
        maximally_mixed_state(n), OtocSpec(1, "x", 2, "z"), prop.evolution(0.73)
    )
    probs = table.probabilities
    for k, seq in enumerate(OUTCOME_SEQUENCES):
        flipped = OUTCOME_SEQUENCES.index(tuple(-o for o in seq))
        assert abs(probs[k] - probs[flipped]) < 1e-12


def test_derived_table_frozen_and_live_oracle(xy4, up4, spec_xx):
    table = outcome_probabilities(up4, spec_xx, xy4.evolution(0.5))
    assert np.max(np.abs(table.probabilities - frozen_table())) < 1e-10
    rho = np.zeros((16, 16), dtype=complex)
    rho[0, 0] = 1.0
    independent = oracles.probability_table(rho, oracles.xy_chain(4), 4, 2, "x", 3, "x", 0.5)
    assert np.max(np.abs(table.probabilities - in_sequence_order(independent))) < 1e-10


def test_zero_probability_branches_are_safe(xy4, up4):
    """Pi_j^- annihilates the polarized state: no division errors, and the
    whole dead branch carries exactly zero probability."""
    table = outcome_probabilities(up4, OtocSpec(2, "x", 3, "z"), xy4.evolution(0.8))
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
        table = outcome_probabilities(state, spec, prop.evolution(float(rng.uniform(0, 5))))
        values = table.probabilities
        assert np.all((0.0 <= values) & (values <= 1.0))
        assert abs(math.fsum(values) - 1.0) < 1e-10


def test_corr_deterministic_and_uniform_tables():
    assert corr_from_table(ProbabilityTable(one_hot((1, 1, 1, 1)))) == 1.0
    assert corr_from_table(ProbabilityTable(one_hot((1, -1, 1, 1)))) == -1.0
    assert abs(corr_from_table(ProbabilityTable(np.full(16, 1.0 / 16.0)))) < 1e-15


def test_corr_matches_direct_otoc_via_identity(xy4, up4, spec_xx):
    corr = corr_from_table(outcome_probabilities(up4, spec_xx, xy4.evolution(0.5)))
    assert abs(corr - CORR_T05) < 1e-10
    direct = otoc_direct(up4, spec_xx, xy4.evolution(0.5)).real
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
    ev = xy4.evolution(0.0)
    assert abs(re_otoc_via_protocol(up4, OtocSpec(1, "y", 4, "x"), ev) - 1.0) < 1e-12
    for t in (0.4, 2.0):
        ev = xy4.evolution(t)
        assert abs(re_otoc_via_protocol(up4, OtocSpec(2, "z", 3, "z"), ev) - 1.0) < 1e-12


def test_re_identity_random_instances(rng):
    for _ in range(25):
        n = int(rng.integers(2, 5))
        prop = Propagator.from_hamiltonian(random_hamiltonian(n, rng))
        state = random_density(n, rng)
        sites = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        spec = OtocSpec(int(sites[0]), "x", int(sites[1]), "y")
        ev = prop.evolution(float(rng.uniform(0, 5)))
        direct = otoc_direct(state, spec, ev).real
        assert abs(re_otoc_via_protocol(state, spec, ev) - direct) < 1e-9


def rotation_operator(site, axis, theta, n_sites):
    """Dense exp(-i theta sigma / 2): the rotation kernel applied to the identity."""
    return apply_rotation(np.eye(2**n_sites, dtype=complex), site, axis, theta, n_sites)


def test_rotation_operator_closed_form():
    assert np.max(np.abs(rotation_operator(1, "x", 0.0, 2) - np.eye(4))) < 1e-15
    r_pi = rotation_operator(1, "x", math.pi, 1)
    np.testing.assert_allclose(r_pi, -1j * np.array([[0, 1], [1, 0]]), atol=1e-15)


def test_rotation_one_parameter_group(rng):
    t1, t2 = rng.uniform(-3, 3, size=2)
    lhs = rotation_operator(2, "y", t1, 3) @ rotation_operator(2, "y", t2, 3)
    rhs = rotation_operator(2, "y", t1 + t2, 3)
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)
    full_turn = rotation_operator(1, "z", 2 * math.pi, 1)
    np.testing.assert_allclose(full_turn, -np.eye(2), atol=1e-14)
    r = rotation_operator(3, "x", 0.7, 3)
    np.testing.assert_allclose(r @ r.conj().T, np.eye(8), atol=1e-14)


def test_rotated_expectation_trivial_angles(xy4, up4):
    ev = xy4.evolution(1.1)
    value = rotated_expectation(up4, OtocSpec(2, "z", 3, "z"), ev, RotationAngles(0, 0, 0))
    assert abs(value - 1.0) < 1e-12


def test_four_term_combination_cancels_at_theta2_zero(xy4, up4, spec_xx):
    angles = RotationAngles(0.9, 0.0, 1.7)
    ev = xy4.evolution(0.6)
    expectations = [rotated_expectation(up4, spec_xx, ev, var) for var in angle_variants(angles)]
    combo = expectations[0] - expectations[1] - expectations[2] + expectations[3]
    assert combo == 0.0


def test_rotated_expectation_frozen_and_live_oracle(xy4, up4, spec_xx):
    angles = RotationAngles(math.pi / 2, math.pi / 2, math.pi / 2)
    value = rotated_expectation(up4, spec_xx, xy4.evolution(0.5), angles)
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
    assert abs(im_otoc_via_protocol(up4, OtocSpec(1, "x", 3, "y"), xy4.evolution(0.0))) < 1e-12


def test_im_identity_random_instances(rng):
    for _ in range(25):
        n = int(rng.integers(2, 5))
        prop = Propagator.from_hamiltonian(random_hamiltonian(n, rng))
        state = random_density(n, rng)
        sites = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        spec = OtocSpec(int(sites[0]), "z", int(sites[1]), "y")
        ev = prop.evolution(float(rng.uniform(0, 5)))
        angles = random_nondegenerate_angles(rng)
        assert abs(
            im_otoc_via_protocol(state, spec, ev, angles) - otoc_direct(state, spec, ev).imag
        ) < 1e-9


def test_im_invariant_under_base_set_negation(rng):
    n = 3
    prop = Propagator.from_hamiltonian(random_hamiltonian(n, rng))
    state = random_density(n, rng)
    spec = OtocSpec(1, "x", 3, "y")
    angles = random_nondegenerate_angles(rng)
    negated = RotationAngles(-angles.theta1, -angles.theta2, -angles.theta3)
    a = im_otoc_via_protocol(state, spec, prop.evolution(1.2), angles)
    b = im_otoc_via_protocol(state, spec, prop.evolution(1.2), negated)
    assert abs(a - b) < 1e-12


def test_degenerate_angles_rejected(xy4, up4, spec_xx):
    with pytest.raises(DegenerateAnglesError):
        im_otoc_via_protocol(up4, spec_xx, xy4.evolution(0.5), RotationAngles(0.3, 0.0, 0.9))
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

    evolution = prop.evolution(t)
    assert abs(otoc_direct(state, spec, evolution) - oracles.otoc_value(*dense)) < 1e-10
    table = outcome_probabilities(state, spec, evolution)
    expected = in_sequence_order(oracles.probability_table(*dense))
    assert np.max(np.abs(table.probabilities - expected)) < 1e-10
    value = rotated_expectation(state, spec, evolution, angles)
    rotated = oracles.rotated_sigma_expectation(
        *dense, angles.theta1, angles.theta2, angles.theta3
    )
    assert abs(value - rotated) < 1e-10


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
    """The 16-branch table from factors at and above 2^(N-1) columns (compressed
    at the first collapse) against the closed-form trace oracle; both signs of
    every measurement are taken, so z keeps either half."""
    site_i = data.draw(st.integers(min_value=1, max_value=n))
    site_j = data.draw(st.one_of(st.just(site_i), st.integers(min_value=1, max_value=n)))
    rng = np.random.Generator(np.random.PCG64(seed))
    ham = build_xy_chain(n) if xy and n >= 2 else random_hamiltonian(n, rng)
    prop = Propagator.from_hamiltonian(ham)
    state = DensityOperator.from_factor(n, _factor_of_width(n, kind, rng))
    spec = OtocSpec(site_i, axes[0], site_j, axes[1])
    table = outcome_probabilities(state, spec, prop.evolution(t))
    expected = oracles.probability_table(
        state.matrix, ham.matrix, n, site_i, axes[0], site_j, axes[1], t
    )
    assert np.max(np.abs(table.probabilities - in_sequence_order(expected))) < 1e-10


def test_pure_state_tree_never_compresses(xy4, up4, spec_xx, monkeypatch):
    """compress_projected returns an all_up (rank-1) factor unchanged at every node."""
    calls = []

    def spy(collapsed, *args):
        result = compress_projected(collapsed, *args)
        calls.append(result is collapsed)
        return result

    monkeypatch.setattr(protocol, "compress_projected", spy)
    outcome_probabilities(up4, spec_xx, xy4.evolution(0.5))
    assert calls and all(calls)


def test_tree_frees_its_closure_on_return(xy4, up4, spec_xx):
    """No reference cycle outlives the tree, so a point's U(t) dies with its
    last reference rather than at some later cyclic collection."""
    ev = xy4.evolution(0.5)
    forward = weakref.ref(ev.forward)
    gc.disable()
    try:
        outcome_probabilities(up4, spec_xx, ev)
        del ev
        assert forward() is None
    finally:
        gc.enable()


def test_tree_counts_pruned_branches(xy4, up4):
    table = outcome_probabilities(up4, OtocSpec(2, "z", 3, "z"), xy4.evolution(1.3))
    assert table.pruned == 4  # the -1 branch of each of the four measurements
    mixed = outcome_probabilities(
        maximally_mixed_state(4), OtocSpec(2, "x", 3, "y"), xy4.evolution(1.3)
    )
    assert mixed.pruned == 0


def test_probability_table_counts_clamped_entries():
    probs = np.full(16, 1.0 / 16.0)
    assert ProbabilityTable(probs).clamped == 0
    probs[0] = -5e-13
    probs[1] = 1.0 / 8.0 + 5e-13
    assert ProbabilityTable(probs).clamped == 1
