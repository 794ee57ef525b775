import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import oracles
from otocsim.dynamics import (
    Evolution,
    Hamiltonian,
    Propagator,
    build_custom,
    build_xy_chain,
    evolve,
)
from otocsim.hilbert import DensityOperator, all_up_state, apply_pauli
from otocsim.otoc import OtocSpec, commutator_norm, otoc_direct
from otocsim.protocol import (
    DEFAULT_ANGLES,
    OUTCOME_SEQUENCES,
    ProbabilityTable,
    RotationAngles,
    outcome_probabilities,
    rotated_expectation,
)

# Expanding -(x1 x2 + y1 y2) by hand on the 4-dim basis leaves only the
# flip-flop entries |up,down><down,up| and its transpose, each -2.
XY_TWO_SITE = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, -2.0, 0.0],
        [0.0, -2.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ]
)


def test_xy_two_site_matrix():
    np.testing.assert_allclose(build_xy_chain(2).matrix, XY_TWO_SITE, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_xy_annihilates_all_up(n):
    ham = build_xy_chain(n)
    vec = np.zeros(2**n)
    vec[0] = 1.0
    assert np.max(np.abs(ham.matrix @ vec)) == 0.0


@pytest.mark.parametrize("n", [2, 4])
def test_xy_conserves_total_magnetization(n):
    ham = build_xy_chain(n).matrix
    eye = np.eye(2**n, dtype=complex)
    total_z = sum(apply_pauli(eye, k, "z", n) for k in range(1, n + 1))
    assert np.max(np.abs(ham @ total_z - total_z @ ham)) < 1e-12


def test_xy_needs_two_sites():
    with pytest.raises(ValueError):
        build_xy_chain(1)


def test_custom_empty_is_zero():
    assert np.max(np.abs(build_custom(3).matrix)) == 0.0


def test_custom_reproduces_xy_chain():
    n = 4
    pairs = []
    for k in range(1, n):
        pairs.append((k, "x", k + 1, "x", -1.0))
        pairs.append((k, "y", k + 1, "y", -1.0))
    np.testing.assert_allclose(build_custom(n, pairs).matrix, build_xy_chain(n).matrix, atol=1e-15)


def test_custom_random_terms_stay_hermitian(rng):
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    ham = build_custom(3, [(1, "x", 3, "z", 0.7)], [(2, "y", -0.3)], [(g + g.conj().T) / 2])
    assert np.max(np.abs(ham.matrix - ham.matrix.conj().T)) < 1e-12


def test_custom_rejects_non_hermitian_extra():
    bad = np.zeros((8, 8), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        build_custom(3, extra_terms=[bad])


def reconstruction(prop):
    """V diag(w) V^dagger assembled block by block, as a dense matrix."""
    eigenbasis = prop.eigenbasis
    dim = 2**prop.n_sites
    blocks = ((v * w) @ v.conj().T for v, w in zip(eigenbasis.blocks, prop.block_eigenvalues))
    return eigenbasis.with_blocks(blocks) @ np.eye(dim, dtype=complex)


def dense_unitary(prop, t):
    return prop.evolution(t).forward @ np.eye(2**prop.n_sites, dtype=complex)


def test_propagator_reconstructs_hamiltonian(rng):
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    ham_matrix = (g + g.conj().T) / 2
    ham = build_custom(4, extra_terms=[ham_matrix])
    prop = Propagator.from_hamiltonian(ham)
    assert np.max(np.abs(reconstruction(prop) - ham.matrix)) < 1e-10


def test_unitary_roundtrip_random_times(xy4, rng):
    eye = np.eye(16)
    for t in rng.uniform(-10.0, 10.0, size=50):
        assert np.max(np.abs(dense_unitary(xy4, t) @ dense_unitary(xy4, -t) - eye)) < 1e-10


def test_evolve_zero_time_identity(xy4, up4):
    np.testing.assert_allclose(evolve(up4, xy4.evolution(0.0)).matrix, up4.matrix, atol=1e-15)


def test_evolve_forward_backward_roundtrip(xy4, rng):
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    mat = g @ g.conj().T
    rho = DensityOperator(4, mat / np.trace(mat).real)
    back = evolve(evolve(rho, xy4.evolution(1.7)), xy4.evolution(-1.7))
    assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-10


def test_all_up_stationary_under_xy(xy4, up4):
    evolved = evolve(up4, xy4.evolution(2.3))
    np.testing.assert_allclose(evolved.matrix, up4.matrix, atol=1e-12)


def test_energy_conserved_along_trajectory(xy4, rng):
    ham = build_xy_chain(4).matrix
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    mat = g @ g.conj().T
    rho = DensityOperator(4, mat / np.trace(mat).real)
    e0 = np.trace(rho.matrix @ ham).real
    for t in (0.3, 1.1, 4.0, -2.2):
        e_t = np.trace(evolve(rho, xy4.evolution(t)).matrix @ ham).real
        assert abs(e_t - e0) < 1e-10


def heisenberg_pauli(prop, site, axis, t):
    """Dense W(t) = U(t)^dagger sigma_site^axis U(t), as `otoc` applies it."""
    ev = prop.evolution(t)
    eye = np.eye(2**prop.n_sites, dtype=complex)
    return ev.backward @ apply_pauli(ev.forward @ eye, site, axis, prop.n_sites)


def test_heisenberg_zero_time(xy4):
    op = apply_pauli(np.eye(16, dtype=complex), 1, "x", 4)
    np.testing.assert_allclose(heisenberg_pauli(xy4, 1, "x", 0.0), op, atol=1e-15)


def test_heisenberg_preserves_pauli_spectrum(xy4):
    op = heisenberg_pauli(xy4, 2, "x", 0.9)
    evals = np.linalg.eigvalsh(op)
    np.testing.assert_allclose(np.sort(evals), np.repeat([-1.0, 1.0], 8), atol=1e-12)
    assert abs(np.linalg.norm(op, ord=2) - 1.0) < 1e-12


def test_dimension_mismatch_raises(xy4, spec_xx):
    up3, ev = all_up_state(3), xy4.evolution(1.0)
    angles = RotationAngles(*DEFAULT_ANGLES)
    for apply in (
        lambda: evolve(up3, ev),
        lambda: otoc_direct(up3, spec_xx, ev),
        lambda: commutator_norm(up3, spec_xx, ev),
        lambda: outcome_probabilities(up3, spec_xx, ev),
        lambda: rotated_expectation(up3, spec_xx, ev, angles),
    ):
        with pytest.raises(ValueError, match="dimension mismatch between state and propagator"):
            apply()


def test_evolution_time_must_be_finite(xy4, up4):
    with pytest.raises(ValueError, match="finite"):
        evolve(up4, xy4.evolution(np.inf))
    with pytest.raises(ValueError, match="finite"):
        evolve(up4, xy4.evolution(np.nan))


def test_evolution_is_shared_and_checked(xy4, up4, spec_xx):
    evolution = xy4.evolution(0.5)
    eye = np.eye(16)
    u = expm(-0.5j * oracles.xy_chain(4))
    np.testing.assert_allclose(evolution.forward @ eye, u, atol=1e-12)
    np.testing.assert_allclose(evolution.backward @ eye, u.conj().T, atol=1e-12)
    assert otoc_direct(up4, spec_xx, evolution) == otoc_direct(up4, spec_xx, xy4.evolution(0.5))


def with_corner(matrix, value):
    """A complex copy of matrix with entry (0, 0) replaced by value."""
    matrix = np.array(matrix, dtype=complex)
    matrix[0, 0] = value
    return matrix


def propagator_of_edited_hamiltonian(bad):
    ham = build_xy_chain(2)
    ham.matrix[0, 0] = bad  # edited in place, after the Hamiltonian's own check
    return Propagator.from_hamiltonian(ham)


def otoc_of_nonfinite_evolution(bad):
    forward = Propagator.from_hamiltonian(build_xy_chain(2)).evolution(0.5).forward
    broken = forward.with_blocks(np.full_like(block, bad) for block in forward.blocks)
    return otoc_direct(all_up_state(2), OtocSpec(1, "x", 2, "x"), Evolution(2, broken, broken))


NONFINITE_ENTRY_POINTS = [
    pytest.param(
        lambda bad: Hamiltonian(2, with_corner(XY_TWO_SITE, bad)),
        "Hamiltonian is not Hermitian",
        id="hamiltonian",
    ),
    pytest.param(
        lambda bad: build_custom(2, extra_terms=[with_corner(XY_TWO_SITE, bad)]),
        "extra term is not Hermitian",
        id="extra_term",
    ),
    pytest.param(
        lambda bad: DensityOperator(2, with_corner(np.eye(4) / 4, bad)),
        "density matrix is not Hermitian",
        id="density_matrix",
    ),
    pytest.param(
        lambda bad: DensityOperator.from_factor(2, np.full((4, 1), bad)),
        "Frobenius norm",
        id="state_factor",
    ),
    pytest.param(propagator_of_edited_hamiltonian, "above tolerance", id="propagator"),
    pytest.param(
        lambda bad: ProbabilityTable([bad] + [1 / 16] * (len(OUTCOME_SEQUENCES) - 1)),
        "outside",
        id="probability_table",
    ),
    pytest.param(
        otoc_of_nonfinite_evolution,
        "magnitude",
        id="otoc_direct",
        # the hand-built inf U(t) makes the evaluator's own products warn on
        # the way to the NaN that the guard rejects
        marks=pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning"),
    ),
]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry_point, message", NONFINITE_ENTRY_POINTS)
def test_nonfinite_entries_fail_closed(entry_point, message, bad):
    """Every tolerance guard rejects NaN and inf, which compare False against any bound."""
    with pytest.raises(ValueError, match=message):
        entry_point(bad)


@pytest.mark.parametrize("n", range(2, 9))
def test_xy_chain_matches_kronecker_oracle(n):
    np.testing.assert_array_equal(build_xy_chain(n).matrix, oracles.xy_chain(n))


@pytest.mark.parametrize("n", range(2, 9))
def test_xy_sectors_are_hamming_weight_classes(n):
    prop = Propagator.from_hamiltonian(build_xy_chain(n))
    assert prop.block_sizes == tuple(math.comb(n, k) for k in range(n + 1))
    sectors = prop.eigenbasis.sectors
    order = np.arange(2**n) if sectors.order is None else sectors.order  # None at n=2
    for k in range(n + 1):
        rows = order[sectors.bounds[k] : sectors.bounds[k + 1]]
        assert {bin(int(b)).count("1") for b in rows} == {k}
        assert list(rows) == sorted(rows)
    assert 0.0 <= prop.reconstruction_residual < 1e-10
    assert 0.0 <= prop.unitarity_defect < 1e-10


def _hamiltonian_case(kind, n, rng):
    """(H from the package, the same H from Kronecker chains, the expected block sizes).

    XY couplings keep the Hamming weight, and so do z fields; x fields
    connect every basis state; z fields alone leave every state its own block.
    """
    weights = tuple(math.comb(n, k) for k in range(n + 1))
    if kind == "xy_chain":
        return build_xy_chain(n), oracles.xy_chain(n), weights
    if kind in ("z_fields", "x_fields", "z_only"):
        axis = kind[0]
        fields = [(site, axis, float(c)) for site, c in zip(range(1, n + 1), rng.normal(size=n))]
        oracle = sum(c * oracles.site_operator(n, site, axis) for site, _, c in fields)
        if kind == "z_only":
            return build_custom(n, fields=fields), oracle, (1,) * 2**n
        pairs = [(k, ax, k + 1, ax, -1.0) for k in range(1, n) for ax in ("x", "y")]
        sizes = weights if axis == "z" else (2**n,)
        return build_custom(n, pairs, fields), oracles.xy_chain(n) + oracle, sizes
    g = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    dense = (g + g.conj().T) / 4.0
    return build_custom(n, extra_terms=[dense]), dense, (2**n,)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", ["xy_chain", "z_fields", "x_fields", "z_only", "dense"])
@given(
    rank=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    t=st.floats(min_value=-4.0, max_value=4.0),
)
@settings(max_examples=4, deadline=None, derandomize=True)
def test_blocked_evolution_matches_expm_oracle(kind, n, rank, seed, t):
    rng = np.random.default_rng(seed)
    ham, oracle, sizes = _hamiltonian_case(kind, n, rng)
    prop = Propagator.from_hamiltonian(ham)
    assert prop.block_sizes == sizes
    u = expm(-1j * oracle * t)
    assert np.max(np.abs(dense_unitary(prop, t) - u)) < 1e-10
    assert np.max(np.abs(reconstruction(prop) - oracle)) < 1e-10
    psi = rng.standard_normal((2**n, rank)) + 1j * rng.standard_normal((2**n, rank))
    evolution = prop.evolution(t)
    assert np.max(np.abs(evolution.forward @ psi - u @ psi)) < 1e-9
    assert np.max(np.abs(evolution.backward @ psi - u.conj().T @ psi)) < 1e-9
    assert np.max(np.abs(evolution.forward @ psi[:, 0] - u @ psi[:, 0])) < 1e-9
