import math
import tracemalloc

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
from otocsim.hilbert import DensityOperator, Register, all_up_state
from otocsim.otoc import OtocSpec, commutator_norm, otoc_direct
from otocsim.protocol import OUTCOME_SEQUENCES, ProbabilityTable, build_ladder, prepare

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
    total_z = sum(Register(n).pauli(eye, k, "z") for k in range(1, n + 1))
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


def dense(register, operator):
    """The computational-order matrix of an operator on factors in register order."""
    eye = np.eye(2**register.n_sites, dtype=complex)
    return register.to_computational(operator @ register.from_computational(eye))


def reconstruction(prop):
    """V diag(w) V^dagger assembled block by block, as a dense matrix."""
    eigenbasis = prop.eigenbasis
    blocks = ((v * w) @ v.conj().T for v, w in zip(eigenbasis.blocks, prop.block_eigenvalues))
    return dense(prop.register, eigenbasis.with_blocks(blocks))


def dense_unitary(prop, t):
    return dense(prop.register, prop.evolution(t).forward)


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
    ev, register = prop.evolution(t), prop.register
    eye = register.from_computational(np.eye(2**prop.n_sites, dtype=complex))
    return register.to_computational(ev.backward @ register.pauli(ev.forward @ eye, site, axis))


def test_heisenberg_zero_time(xy4):
    op = Register(4).pauli(np.eye(16, dtype=complex), 1, "x")
    np.testing.assert_allclose(heisenberg_pauli(xy4, 1, "x", 0.0), op, atol=1e-15)


def test_heisenberg_preserves_pauli_spectrum(xy4):
    op = heisenberg_pauli(xy4, 2, "x", 0.9)
    evals = np.linalg.eigvalsh(op)
    np.testing.assert_allclose(np.sort(evals), np.repeat([-1.0, 1.0], 8), atol=1e-12)
    assert abs(np.linalg.norm(op, ord=2) - 1.0) < 1e-12


def test_dimension_mismatch_raises(xy4, spec_xx):
    up3, ev = all_up_state(3), xy4.evolution(1.0)
    prepared3 = prepare(up3, spec_xx, Propagator.from_hamiltonian(build_xy_chain(3)).register)
    for apply in (
        lambda: evolve(up3, ev),
        lambda: prepare(up3, spec_xx, xy4.register),
        lambda: otoc_direct(prepared3, ev),
        lambda: commutator_norm(prepared3, ev),
        lambda: build_ladder(prepared3, ev),
    ):
        with pytest.raises(ValueError, match="dimension mismatch between state and propagator"):
            apply()


def test_evaluators_reject_a_state_in_another_row_order(xy4, up4, spec_xx):
    """A state prepared in the computational order does not fit the sector-order U(t)."""
    ev = xy4.evolution(1.0)
    computational = prepare(up4, spec_xx, Register(4))
    for apply in (
        lambda: otoc_direct(computational, ev),
        lambda: build_ladder(computational, ev),
    ):
        with pytest.raises(ValueError, match="different orders"):
            apply()
    same_order = prepare(up4, spec_xx, Register(4, xy4.register.order))
    assert otoc_direct(same_order, ev) == otoc_direct(prepare(up4, spec_xx, xy4.register), ev)


def test_evolution_time_must_be_finite(xy4, up4):
    with pytest.raises(ValueError, match="finite"):
        evolve(up4, xy4.evolution(np.inf))
    with pytest.raises(ValueError, match="finite"):
        evolve(up4, xy4.evolution(np.nan))


def test_evolution_is_shared_and_checked(xy4, up4, spec_xx):
    evolution = xy4.evolution(0.5)
    eye = np.eye(16)
    u = expm(-0.5j * oracles.xy_chain(4))
    np.testing.assert_allclose(dense(xy4.register, evolution.forward), u, atol=1e-12)
    np.testing.assert_allclose(dense(xy4.register, evolution.backward), u.conj().T, atol=1e-12)
    prepared = prepare(up4, spec_xx, xy4.register)
    assert otoc_direct(prepared, evolution) == otoc_direct(prepared, xy4.evolution(0.5))


def with_corner(matrix, value):
    """A complex copy of matrix with entry (0, 0) replaced by value."""
    matrix = np.array(matrix, dtype=complex)
    matrix[0, 0] = value
    return matrix


def propagator_of_edited_hamiltonian(bad):
    ham = build_xy_chain(2)
    ham.blocks.blocks[0][0, 0] = bad  # edited in place, after the Hamiltonian's own check
    return Propagator.from_hamiltonian(ham)


def nonfinite_point(bad):
    """A prepared state and an Evolution whose every entry of U(t) and U(t)^dagger is bad."""
    prop = Propagator.from_hamiltonian(build_xy_chain(2))
    forward = prop.evolution(0.5).forward
    broken = forward.with_blocks(np.full_like(block, bad) for block in forward.blocks)
    prepared = prepare(all_up_state(2), OtocSpec(1, "x", 2, "x"), prop.register)
    return prepared, Evolution(broken, broken)


# the hand-built inf U(t) makes the evaluators' own products warn on the way
# to the NaN that the guard rejects
PRODUCTS_OF_INF_WARN = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")


NONFINITE_ENTRY_POINTS = [
    pytest.param(
        lambda bad: Hamiltonian.from_matrix(2, with_corner(XY_TWO_SITE, bad)),
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
        lambda bad: otoc_direct(*nonfinite_point(bad)),
        "magnitude",
        id="otoc_direct",
        marks=PRODUCTS_OF_INF_WARN,
    ),
    pytest.param(
        lambda bad: build_ladder(*nonfinite_point(bad)),
        "magnitude",
        id="build_ladder",
        marks=PRODUCTS_OF_INF_WARN,
    ),
]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry_point, message", NONFINITE_ENTRY_POINTS)
def test_nonfinite_entries_fail_closed(entry_point, message, bad):
    """Every tolerance guard rejects NaN and inf, which compare False against any bound."""
    with pytest.raises(ValueError, match=message):
        entry_point(bad)


@pytest.mark.parametrize("n", range(2, 11))
def test_xy_chain_matches_kronecker_oracle(n):
    np.testing.assert_array_equal(build_xy_chain(n).matrix, oracles.xy_chain(n))


@pytest.mark.parametrize("n", range(2, 9))
def test_xy_sectors_are_hamming_weight_classes(n):
    prop = Propagator.from_hamiltonian(build_xy_chain(n))
    assert prop.block_sizes == tuple(math.comb(n, k) for k in range(n + 1))
    for k in range(n + 1):
        rows = prop.register.sector(k)
        assert {bin(int(b)).count("1") for b in rows} == {k}
        assert list(rows) == sorted(rows)
    assert 0.0 <= prop.reconstruction_residual < 1e-10
    assert 0.0 <= prop.unitarity_defect < 1e-10


@pytest.mark.parametrize("n", range(2, 11))
def test_xy_propagator_is_real_and_never_dense(n, monkeypatch):
    """The XY chain is diagonalized from its own blocks, in real arithmetic."""

    def from_dense(n_sites, matrix):
        raise AssertionError("the XY chain must not be built from a dense H")

    monkeypatch.setattr(Hamiltonian, "from_matrix", from_dense)
    prop = Propagator.from_hamiltonian(build_xy_chain(n))
    assert all(v.dtype == np.float64 for v in prop.eigenbasis.blocks)
    assert prop.block_sizes == tuple(math.comb(n, k) for k in range(n + 1))


def test_dense_hamiltonian_is_one_block_in_computational_order():
    matrix = oracles.xy_chain(3)
    ham = Hamiltonian.from_matrix(3, matrix)
    register = ham.blocks.register
    assert register.bounds == (0, 8)
    np.testing.assert_array_equal(register.order, np.arange(8))
    (block,) = ham.blocks.blocks
    assert block.dtype == complex and not np.shares_memory(block, matrix)
    np.testing.assert_array_equal(block, matrix)
    matrix[0, 0] = 1.0  # the caller's array stays the caller's
    assert block[0, 0] == 0.0
    with pytest.raises(ValueError, match="shape"):
        Hamiltonian.from_matrix(2, matrix)


def test_xy_propagator_peak_memory_is_below_one_dense_matrix():
    dense_bytes = 16 * 4**10  # one complex 2^10 x 2^10 array, 16 MiB
    tracemalloc.start()
    try:
        Propagator.from_hamiltonian(build_xy_chain(10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes


def test_hamiltonian_rejects_blocks_that_do_not_tile_the_register():
    for bounds in ((0, 4, 7), (1, 8), (0, 4, 4, 8), (0, 5, 4, 8), (0,), ()):
        with pytest.raises(ValueError, match="tile"):
            Register(3, bounds=bounds)
    blocks = build_xy_chain(3).blocks
    with pytest.raises(ValueError, match="tile"):
        Hamiltonian(blocks.with_blocks(np.zeros((2, 2)) for _ in blocks.blocks))


@pytest.mark.parametrize(
    "make", [lambda: build_xy_chain(4), lambda: build_custom(3, fields=[(1, "x", 0.5)])]
)
def test_one_register_is_shared_by_every_operator_and_the_state(make):
    """H, its eigenbasis, U(t), U(t)^dagger and the prepared state share one layout object."""
    ham = make()
    prop = Propagator.from_hamiltonian(ham)
    ev = prop.evolution(0.3)
    prepared = prepare(all_up_state(ham.n_sites), OtocSpec(1, "x", 2, "z"), prop.register)
    register = ham.blocks.register
    assert prop.register is register
    assert ev.forward.register is register and ev.backward.register is register
    assert ev.register is register and prepared.register is register
    assert prop.n_sites == ham.n_sites == register.n_sites


def _hamiltonian_case(kind, n, rng):
    """(H from the package, the same H from Kronecker chains, the expected block sizes).

    `build_xy_chain` declares the Hamming-weight sectors; `build_custom`
    declares none, so whatever its terms conserve, its H is one dense block.
    """
    if kind == "xy_chain":
        return build_xy_chain(n), oracles.xy_chain(n), tuple(math.comb(n, k) for k in range(n + 1))
    if kind in ("z_fields", "x_fields", "z_only"):
        axis = kind[0]
        fields = [(site, axis, float(c)) for site, c in zip(range(1, n + 1), rng.normal(size=n))]
        oracle = sum(c * oracles.site_operator(n, site, axis) for site, _, c in fields)
        if kind == "z_only":
            return build_custom(n, fields=fields), oracle, (2**n,)
        pairs = [(k, ax, k + 1, ax, -1.0) for k in range(1, n) for ax in ("x", "y")]
        return build_custom(n, pairs, fields), oracles.xy_chain(n) + oracle, (2**n,)
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
    evolution, register = prop.evolution(t), prop.register
    rows = register.from_computational(psi)  # the evaluators hold factors in register order
    assert np.max(np.abs(evolution.forward @ rows - register.from_computational(u @ psi))) < 1e-9
    back = register.from_computational(u.conj().T @ psi)
    assert np.max(np.abs(evolution.backward @ rows - back)) < 1e-9
    column = register.from_computational(u @ psi[:, 0])
    assert np.max(np.abs(evolution.forward @ rows[:, 0] - column)) < 1e-9
