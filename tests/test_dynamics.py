import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import oracles
from otocsim.dynamics import Hamiltonian, Propagator, build_xy_chain
from otocsim.hilbert import Register, all_up_state, maximally_mixed_state
from otocsim.otoc import OtocSpec, otoc_direct
from otocsim.protocol import (
    OUTCOME_SEQUENCES,
    ProbabilityTable,
    build_ladder,
    prepare,
    reached_weights,
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


def assembled(register, blocks):
    """The dense computational-order matrix of one block per sector, zero between sectors."""
    order, bounds = register.order, register.bounds
    mat = np.zeros((2**register.n_sites,) * 2, dtype=complex)
    for lo, hi, block in zip(bounds, bounds[1:], blocks):
        mat[np.ix_(order[lo:hi], order[lo:hi])] = block
    return mat


def xy_matrix(n):
    """`build_xy_chain(n)` as a dense computational-order matrix."""
    ham = build_xy_chain(n)
    return assembled(ham.register, ham.blocks)


def test_xy_two_site_matrix():
    np.testing.assert_allclose(xy_matrix(2), XY_TWO_SITE, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_xy_annihilates_all_up(n):
    vec = np.zeros(2**n)
    vec[0] = 1.0
    assert np.max(np.abs(xy_matrix(n) @ vec)) == 0.0


@pytest.mark.parametrize("n", [2, 4])
def test_xy_conserves_total_magnetization(n):
    ham = xy_matrix(n)
    eye = np.eye(2**n, dtype=complex)
    total_z = sum(Register(n).pauli(eye, k, "z") for k in range(1, n + 1))
    assert np.max(np.abs(ham @ total_z - total_z @ ham)) < 1e-12


def test_xy_needs_two_sites():
    with pytest.raises(ValueError):
        build_xy_chain(1)


def dense(register, apply):
    """The matrix of a map on factors, in register order."""
    return apply(np.eye(len(register.order), dtype=complex))


def reconstruction(prop):
    """V diag(w) V^dagger assembled block by block, as a dense computational-order matrix."""
    parts = [(v * w) @ v.conj().T for v, w in zip(prop.eigenvectors, prop.block_eigenvalues)]
    return assembled(prop.register, parts)


def dense_unitary(prop, t):
    return dense(prop.register, prop.evolution(t).forward)


def test_propagator_reconstructs_hamiltonian(rng):
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    ham_matrix = (g + g.conj().T) / 2
    prop = Propagator.from_hamiltonian(Hamiltonian.from_matrix(4, ham_matrix))
    assert np.max(np.abs(reconstruction(prop) - ham_matrix)) < 1e-10


def test_unitary_roundtrip_random_times(xy4, rng):
    eye = np.eye(16)
    for t in rng.uniform(-10.0, 10.0, size=50):
        assert np.max(np.abs(dense_unitary(xy4, t) @ dense_unitary(xy4, -t) - eye)) < 1e-10


def random_factor(register, rng):
    """The factor of a random full-rank 4-site Wishart state, in register order."""
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    return oracles.factor_in_register_order(register, g / np.linalg.norm(g))


def test_evolve_zero_time_identity(xy4, up4):
    np.testing.assert_allclose(xy4.evolution(0.0).forward(up4), up4, atol=1e-15)


def test_evolve_forward_backward_roundtrip(xy4, rng):
    psi = random_factor(xy4.register, rng)
    ev = xy4.evolution(1.7)
    assert np.max(np.abs(xy4.evolution(-1.7).forward(ev.forward(psi)) - psi)) < 1e-10
    assert np.max(np.abs(ev.backward(ev.forward(psi)) - psi)) < 1e-10


def test_all_up_stationary_under_xy(xy4, up4):
    evolved = xy4.evolution(2.3).forward(up4)
    np.testing.assert_allclose(evolved @ evolved.conj().T, up4 @ up4.conj().T, atol=1e-12)


def test_energy_conserved_along_trajectory(xy4, rng):
    ham = oracles.in_register_order(xy4.register, oracles.xy_chain(4))
    psi = random_factor(xy4.register, rng)
    e0 = np.vdot(psi, ham @ psi).real
    for t in (0.3, 1.1, 4.0, -2.2):
        evolved = xy4.evolution(t).forward(psi)
        assert abs(np.vdot(evolved, ham @ evolved).real - e0) < 1e-10


def heisenberg_pauli(prop, site, axis, t):
    """Dense W(t) = U(t)^dagger sigma_site^axis U(t) in register order, as `otoc` applies it."""
    ev, register = prop.evolution(t), prop.register
    eye = np.eye(len(register.order), dtype=complex)
    return ev.backward(register.pauli(ev.forward(eye), site, axis))


def test_heisenberg_zero_time(xy4):
    op = oracles.in_register_order(xy4.register, oracles.site_operator(4, 1, "x"))
    np.testing.assert_allclose(heisenberg_pauli(xy4, 1, "x", 0.0), op, atol=1e-15)


def test_heisenberg_preserves_pauli_spectrum(xy4):
    op = heisenberg_pauli(xy4, 2, "x", 0.9)
    evals = np.linalg.eigvalsh(op)
    np.testing.assert_allclose(np.sort(evals), np.repeat([-1.0, 1.0], 8), atol=1e-12)
    assert abs(np.linalg.norm(op, ord=2) - 1.0) < 1e-12


def test_a_factor_without_a_row_per_basis_index_is_rejected_by_its_register(xy4, spec_xx):
    """One register check, with one message, guards every map on factors: a factor
    of 2^N + 1 rows, and a 3-site state on a 4-site propagator."""
    ev, register = xy4.evolution(1.0), xy4.register
    extra_row = np.ones((17, 2), dtype=complex)
    for apply in (
        lambda: ev.forward(extra_row),
        lambda: ev.backward(extra_row),
        lambda: register.pauli(extra_row, 1, "x"),
    ):
        with pytest.raises(ValueError, match="^factor has 17 rows, expected 16$"):
            apply()
    up3 = all_up_state(3)
    for apply in (lambda: prepare(up3, spec_xx, xy4), lambda: ev.forward(up3)):
        with pytest.raises(ValueError, match="^factor has 8 rows, expected 16$"):
            apply()


def test_evolution_time_must_be_finite(xy4):
    with pytest.raises(ValueError, match="finite"):
        xy4.evolution(np.inf)
    with pytest.raises(ValueError, match="finite"):
        xy4.evolution(np.nan)


def test_evolution_is_shared_and_checked(xy4):
    evolution = xy4.evolution(0.5)
    eye = np.eye(16)
    u = oracles.in_register_order(xy4.register, expm(-0.5j * oracles.xy_chain(4)))
    np.testing.assert_allclose(dense(xy4.register, evolution.forward), u, atol=1e-12)
    np.testing.assert_allclose(dense(xy4.register, evolution.backward), u.conj().T, atol=1e-12)
    # every evaluator of a point makes its own evolution, each with the same phases
    assert all(map(np.array_equal, evolution.phases, xy4.evolution(0.5).phases))


def with_corner(matrix, value):
    """A complex copy of matrix with entry (0, 0) replaced by value."""
    matrix = np.array(matrix, dtype=complex)
    matrix[0, 0] = value
    return matrix


def propagator_of_edited_hamiltonian(bad):
    ham = build_xy_chain(2)
    ham.blocks[0][0, 0] = bad  # edited in place, after the Hamiltonian's own check
    return Propagator.from_hamiltonian(ham)


def nonfinite_point(bad, state=all_up_state):
    """A state prepared on a propagator whose every eigenvector entry is bad, and a time."""
    prop = Propagator.from_hamiltonian(build_xy_chain(2))
    broken = prop.replace(eigenvectors=tuple(np.full_like(v, bad) for v in prop.eigenvectors))
    psi = oracles.factor_in_register_order(broken.register, state(2))
    return prepare(psi, OtocSpec(1, "x", 2, "x"), broken), 0.5


# the hand-built inf eigenvectors make the evaluators' own products warn on the way
# to the NaN that the guard rejects
PRODUCTS_OF_INF_WARN = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")


NONFINITE_ENTRY_POINTS = [
    pytest.param(
        lambda bad: Hamiltonian.from_matrix(2, with_corner(XY_TWO_SITE, bad)),
        "Hamiltonian is not Hermitian",
        id="hamiltonian",
    ),
    pytest.param(
        lambda bad: prepare(
            np.full((4, 1), bad, dtype=complex),
            OtocSpec(1, "x", 2, "x"),
            Propagator.from_hamiltonian(build_xy_chain(2)),
        ),
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
    pytest.param(
        lambda bad: build_ladder(*nonfinite_point(bad, maximally_mixed_state)),
        "magnitude",
        id="build_ladder_full_rank",
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
    np.testing.assert_array_equal(xy_matrix(n), oracles.xy_chain(n))


@pytest.mark.parametrize("n", range(2, 11))
def test_xy_sectors_are_hamming_weight_classes(n):
    """Sector w holds the strings of weight w.  Those of w <= N/2 are ascending, and
    sector N - w > N/2 holds the complements of sector w's in the same order, so that
    X^N keeps the row: the two share one block object and one V."""
    ham = build_xy_chain(n)
    prop = Propagator.from_hamiltonian(ham)
    assert prop.register.sizes == tuple(math.comb(n, k) for k in range(n + 1))
    order, bounds = prop.register.order, prop.register.bounds
    for k in range(n + 1):
        rows = order[bounds[k] : bounds[k + 1]]
        assert {bin(int(b)).count("1") for b in rows} == {k}
        if k <= n // 2:
            assert list(rows) == sorted(rows)
        else:
            mirror_rows = order[bounds[n - k] : bounds[n - k + 1]]
            np.testing.assert_array_equal(rows, (2**n - 1) ^ mirror_rows)
            assert ham.blocks[k] is ham.blocks[n - k]
            assert prop.eigenvectors[k] is prop.eigenvectors[n - k]
    assert 0.0 <= prop.reconstruction_residual < 1e-10
    assert 0.0 <= prop.unitarity_defect < 1e-10


@pytest.mark.parametrize("n", range(2, 11))
def test_xy_propagator_is_real_and_never_dense(n, monkeypatch):
    """The XY chain is diagonalized from its own blocks, in real arithmetic."""

    def from_dense(n_sites, matrix):
        raise AssertionError("the XY chain must not be built from a dense H")

    monkeypatch.setattr(Hamiltonian, "from_matrix", from_dense)
    prop = Propagator.from_hamiltonian(build_xy_chain(n))
    assert all(v.dtype == np.float64 for v in prop.eigenvectors)
    assert prop.register.sizes == tuple(math.comb(n, k) for k in range(n + 1))


def test_dense_hamiltonian_is_one_block_in_computational_order():
    matrix = oracles.xy_chain(3)
    ham = Hamiltonian.from_matrix(3, matrix)
    register = ham.register
    assert register.bounds == (0, 8)
    np.testing.assert_array_equal(register.order, np.arange(8))
    (block,) = ham.blocks
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


@pytest.mark.parametrize("n", [2, 5, 8])
def test_xy_chain_on_some_weights_is_the_whole_chain_there(n):
    """Built on some weights, the chain's register holds just those sectors, in the
    order given and ascending within each, and its blocks and reflection are the
    whole chain's there, bit for bit.  Weights that repeat or are out of range, or
    no weight at all, are rejected."""
    whole = build_xy_chain(n)
    weights = [w for w in (2, 0, 1) if w <= n]
    ham = build_xy_chain(n, weights)
    register = ham.register
    assert register.sizes == tuple(math.comb(n, w) for w in weights)
    for k, w in enumerate(weights):
        lo, whole_lo = register.bounds[k], whole.register.bounds[w]
        np.testing.assert_array_equal(
            register.order[lo : register.bounds[k + 1]],
            whole.register.order[whole_lo : whole.register.bounds[w + 1]],
        )
        np.testing.assert_array_equal(
            ham.reflection[lo : lo + register.sizes[k]] - lo,
            whole.reflection[whole_lo : whole_lo + register.sizes[k]] - whole_lo,
        )
        np.testing.assert_array_equal(ham.blocks[k], whole.blocks[w])
    for bad in ([0, 0], [0, n + 1], [-1], []):
        with pytest.raises(ValueError, match="Hamming weights"):
            build_xy_chain(n, bad)


def test_hamiltonian_rejects_blocks_that_do_not_tile_the_register():
    for bounds in ((0, 4, 7), (1, 8), (0, 4, 4, 8), (0, 5, 4, 8), (0,), ()):
        with pytest.raises(ValueError, match="tile"):
            Register(3, bounds=bounds)
    ham = build_xy_chain(3)
    for blocks in (tuple(np.zeros((2, 2)) for _ in ham.blocks), ham.blocks[:-1]):
        with pytest.raises(ValueError, match="tile"):
            Hamiltonian(ham.register, blocks)


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_xy_chain(4),
        lambda: Hamiltonian.from_matrix(3, 0.5 * oracles.site_operator(3, 1, "x")),
    ],
)
def test_one_register_is_shared_by_every_operator_and_the_state(make):
    """H, its eigenbasis, U(t), U(t)^dagger and the prepared state share one layout object."""
    ham = make()
    prop = Propagator.from_hamiltonian(ham)
    ev = prop.evolution(0.3)
    psi = oracles.factor_in_register_order(prop.register, all_up_state(ham.n_sites))
    prepared = prepare(psi, OtocSpec(1, "x", 2, "z"), prop)
    register = ham.register
    assert prop.register is register and prepared.propagator is prop
    assert ev.register is register
    assert prop.n_sites == ham.n_sites == register.n_sites


def _hamiltonian_case(kind, n, rng):
    """(H from the package, the same H from Kronecker chains, the expected block sizes).

    `build_xy_chain` declares the Hamming-weight sectors; `Hamiltonian.from_matrix`
    declares none, so whatever its terms conserve, its H is one dense block.
    """
    if kind == "xy_chain":
        return build_xy_chain(n), oracles.xy_chain(n), tuple(math.comb(n, k) for k in range(n + 1))
    if kind in ("z_fields", "x_fields", "z_only"):
        axis = kind[0]
        fields = sum(
            c * oracles.site_operator(n, site, axis)
            for site, c in zip(range(1, n + 1), rng.normal(size=n))
        )
        oracle = fields if kind == "z_only" else oracles.xy_chain(n) + fields
    else:
        g = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        oracle = (g + g.conj().T) / 4.0
    return Hamiltonian.from_matrix(n, oracle), oracle, (2**n,)


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
    assert prop.register.sizes == sizes
    u = expm(-1j * oracle * t)
    u_rows = oracles.in_register_order(prop.register, u)
    assert np.max(np.abs(dense_unitary(prop, t) - u_rows)) < 1e-10
    assert np.max(np.abs(reconstruction(prop) - oracle)) < 1e-10
    psi = rng.standard_normal((2**n, rank)) + 1j * rng.standard_normal((2**n, rank))
    evolution = prop.evolution(t)

    def in_rows(factor):  # the evaluators hold factors in register order
        return oracles.factor_in_register_order(prop.register, factor)

    rows = in_rows(psi)
    assert np.max(np.abs(evolution.forward(rows) - in_rows(u @ psi))) < 1e-9
    back = in_rows(u.conj().T @ psi)
    assert np.max(np.abs(evolution.backward(rows) - back)) < 1e-9
    column = in_rows(u @ psi[:, 0])
    assert np.max(np.abs(evolution.forward(rows[:, 0]) - column)) < 1e-9


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", ["xy_chain", "x_fields"])
def test_evolution_matches_expm_on_both_sides_of_the_width_choice(kind, n):
    """Factors narrower than, as wide as and wider than the largest sector, up to
    the full width 2^N, all equal expm(-iHt) forward and backward, with a real V
    (xy_chain) and a complex one (x_fields: one complex block)."""
    rng = np.random.default_rng(n)
    ham, oracle, _ = _hamiltonian_case(kind, n, rng)
    prop = Propagator.from_hamiltonian(ham)
    register, largest = prop.register, max(prop.register.sizes)
    t = 0.9
    u = expm(-1j * oracle * t)
    ev = prop.evolution(t)
    for width in sorted({1, 2, max(largest - 1, 1), largest, largest + 1, 2**n}):
        psi = rng.standard_normal((2**n, width)) + 1j * rng.standard_normal((2**n, width))
        rows = oracles.factor_in_register_order(register, psi)
        forward = oracles.factor_in_register_order(register, u @ psi)
        backward = oracles.factor_in_register_order(register, u.conj().T @ psi)
        assert np.max(np.abs(ev.forward(rows) - forward)) < 1e-10
        assert np.max(np.abs(ev.backward(rows) - backward)) < 1e-10
        if width == 1:  # a 1-D operand keeps its shape
            assert np.max(np.abs(ev.forward(rows[:, 0]) - forward[:, 0])) < 1e-10


def test_evolution_forms_no_u_blocks():
    """At N=10 one column is evolved holding far less than the C(20,10) complex
    entries of U(t), and a full-width factor holding only its result and one
    sector's coefficients, never a block of U(t)."""
    prop = Propagator.from_hamiltonian(build_xy_chain(10))
    u_bytes = 16 * math.comb(20, 10)
    psi = np.zeros((2**10, 1), dtype=complex)
    psi[0] = 1.0
    eye = np.eye(2**10, dtype=complex)  # allocated before tracing starts
    tracemalloc.start()
    try:
        ev = prop.evolution(0.7)
        ev.backward(ev.forward(psi))
        _, narrow = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ev.forward(eye)
        _, wide = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert narrow < u_bytes / 20
    assert wide < 16 * 2**10 * (2**10 + max(prop.register.sizes)) + u_bytes / 10


@pytest.mark.parametrize("n", range(2, 9))
def test_xy_reflection_is_a_sector_involution_that_commutes_with_h(n):
    """The declared reflection maps each basis index to its bit reversal, within its
    sector, squares to the identity, and R H R = H on the Kronecker-chain H."""
    ham = build_xy_chain(n)
    register, mirror = ham.register, ham.reflection
    rows = np.arange(2**n)
    np.testing.assert_array_equal(mirror[mirror], rows)
    for lo, hi in zip(register.bounds, register.bounds[1:]):
        assert ((lo <= mirror[lo:hi]) & (mirror[lo:hi] < hi)).all()
    reverse = [int(format(int(b), f"0{n}b")[::-1], 2) for b in register.order]
    np.testing.assert_array_equal(register.order[mirror], reverse)
    reflection = np.zeros((2**n, 2**n))
    reflection[register.order[mirror], register.order] = 1.0  # computational order
    oracle = oracles.xy_chain(n)
    np.testing.assert_array_equal(reflection @ oracle @ reflection, oracle)


def test_hamiltonian_rejects_a_reflection_that_is_not_a_sector_involution():
    ham = build_xy_chain(3)  # sectors of sizes 1, 3, 3, 1
    for bad in ([0, 2, 3, 1, 4, 5, 6, 7], [1, 0, 2, 3, 4, 5, 6, 7], [0, 1, 2, 3, 4, 5, 6, 8]):
        with pytest.raises(ValueError, match="involution"):
            Hamiltonian(ham.register, ham.blocks, np.array(bad))


def test_propagator_rejects_a_reflection_that_does_not_commute_with_h():
    """Swapping two rows of one sector is an involution, but not a symmetry of H:
    the split's residual includes max|R H R - H| and fails closed."""
    ham = build_xy_chain(4)
    mirror = np.arange(16)
    mirror[[1, 2]] = [2, 1]  # sites 1 and 2 of weight 1; the chain is not symmetric under it
    with pytest.raises(ValueError, match="residual"):
        Propagator.from_hamiltonian(Hamiltonian(ham.register, ham.blocks, mirror))


@pytest.mark.parametrize("n", range(2, 15))
def test_the_whole_xy_chain_declares_the_spin_flip(n):
    """Weight w maps onto N - w, and the Hamiltonian's own check of the declaration
    (complemented indices and shared blocks in the same order, the middle sector's
    reversed) passes."""
    assert build_xy_chain(n).flip == tuple(range(n, -1, -1))


@pytest.mark.parametrize("axis_a", ["x", "y", "z"])
@pytest.mark.parametrize("axis_b", ["x", "y", "z"])
def test_an_all_up_register_declares_no_flip(axis_a, axis_b):
    """The weights an all_up run evolves start at 0 and reach at most 3, so from N = 4
    on they are not closed under w -> N - w; at N = 2 and 3 an x/x run reaches them
    all."""
    for n in range(4, 17):
        assert build_xy_chain(n, reached_weights(n, axis_a, axis_b)).flip is None
    for n in (2, 3):
        assert build_xy_chain(n, reached_weights(n, "x", "x")).flip is not None


def test_hamiltonian_rejects_a_flip_that_is_not_the_spin_flip():
    """Sectors 1, 3, 3, 1 at N = 3: the flip must be an involution of the sectors that
    sends each onto the complements of its basis indices, in the same order, with
    the same block; a block that breaks X^N H X^N = H is caught too."""
    ham = build_xy_chain(3)
    assert ham.flip == (3, 2, 1, 0)
    for bad in [(0, 1, 2, 3), (3, 2, 1, 1), (3, 2, 1), (4, 2, 1, 0), (3.0, 2, 1, 0), (3, 1, 2, 0)]:
        with pytest.raises(ValueError, match="spin flip"):
            Hamiltonian(ham.register, ham.blocks, ham.reflection, bad)
    blocks = list(ham.blocks)
    blocks[2] = blocks[2] + np.diag([1.0, 0.0, 0.0])  # a field on one site of weight 2 only
    with pytest.raises(ValueError, match="spin flip"):
        Hamiltonian(ham.register, tuple(blocks), ham.reflection, ham.flip)
    Hamiltonian(ham.register, tuple(blocks), ham.reflection)  # undeclared, it is a valid H
    middle = build_xy_chain(2)  # sectors 1, 2, 1: X^N maps the middle one onto itself
    blocks = list(middle.blocks)
    blocks[1] = blocks[1] + np.diag([1.0, 0.0])
    with pytest.raises(ValueError, match="spin flip"):
        Hamiltonian(middle.register, tuple(blocks), middle.reflection, middle.flip)
    # every sector ascending, a mirrored block reversed: X^N H X^N = H, but not row for row
    ascending = Register(3, np.array([0, 1, 2, 4, 3, 5, 6, 7]), ham.register.bounds)
    blocks = ham.blocks[:2] + tuple(block[::-1, ::-1] for block in ham.blocks[2:])
    Hamiltonian(ascending, blocks)
    with pytest.raises(ValueError, match="spin flip"):
        Hamiltonian(ascending, blocks, flip=ham.flip)


@pytest.mark.parametrize("n", range(2, 11))
def test_a_mirrored_sector_shares_its_mirrors_block_and_decomposition(n):
    """Only the sectors w <= N/2 are built and diagonalized; sector N - w takes the
    block, eigenvalues and V of sector w, the same C-contiguous objects, which BLAS
    reads as they are.  The middle sector of an even N, which X^N maps onto itself,
    is its own: its complements are its rows reversed, and its block is itself
    reversed on both axes."""
    ham = build_xy_chain(n)
    prop = Propagator.from_hamiltonian(ham)
    assert prop.flip == ham.flip and prop.mirrored == tuple(range(n // 2 + 1, n + 1))
    assert sum(prop.eigh_sizes) == sum(math.comb(n, w) for w in range(n // 2 + 1))
    assert len({id(block) for block in ham.blocks}) == n // 2 + 1
    for k in prop.mirrored:
        assert ham.blocks[k] is ham.blocks[n - k]
        assert prop.block_eigenvalues[k] is prop.block_eigenvalues[n - k]
        assert prop.eigenvectors[k] is prop.eigenvectors[n - k]
        assert prop.eigenvectors[k].flags.c_contiguous
    if n % 2 == 0:
        lo, hi = prop.register.bounds[n // 2 : n // 2 + 2]
        rows = prop.register.order[lo:hi]
        np.testing.assert_array_equal((2**n - 1) ^ rows, rows[::-1])
        block = ham.blocks[n // 2]
        np.testing.assert_array_equal(block, block[::-1, ::-1])


@pytest.mark.parametrize("n", [3, 6])
def test_evolution_commutes_with_the_spin_flip(n, rng):
    """X^N as a row permutation of the whole chain's register, which sends row r of a
    mirrored pair's sector to row r of the other and reverses the middle sector,
    commutes with U(t) and U(t)^dagger."""
    prop = Propagator.from_hamiltonian(build_xy_chain(n))
    order = prop.register.order
    position = np.empty(2**n, dtype=np.int64)
    position[order] = np.arange(2**n)
    flipped = position[(2**n - 1) ^ order]  # (X^N psi)[row] = psi[flipped[row]]
    psi = rng.standard_normal((2**n, 3)) + 1j * rng.standard_normal((2**n, 3))
    for t in (0.4, 2.5):
        ev = prop.evolution(t)
        np.testing.assert_allclose(ev.forward(psi[flipped]), ev.forward(psi)[flipped], rtol=0, atol=1e-13)
        np.testing.assert_allclose(ev.backward(psi[flipped]), ev.backward(psi)[flipped], rtol=0, atol=1e-13)
