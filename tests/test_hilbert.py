import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otocsim.dynamics import build_xy_chain
from otocsim.hilbert import (
    Register,
    all_up_state,
    check_site,
    hermiticity_defect,
    maximally_mixed_state,
)
from otocsim.otoc import OtocSpec

import oracles


@st.composite
def sites_and_axes(draw):
    """(site, axis, n_sites) over registers of 1 to 6 qubits."""
    n = draw(st.integers(min_value=1, max_value=6))
    return draw(st.integers(min_value=1, max_value=n)), draw(st.sampled_from(["x", "y", "z"])), n


def dense_pauli(site, axis, n_sites):
    """sigma_site^axis as a dense matrix: the kernel applied to the identity."""
    return Register(n_sites).pauli(np.eye(2**n_sites, dtype=complex), site, axis)


def dense_projector(site, axis, sign, n_sites, register=None):
    """(I +/- sigma_site^axis)/2 from the kernel, the projector the ladder expands."""
    register = Register(n_sites) if register is None else register
    eye = np.eye(2**n_sites, dtype=complex)
    return (eye + sign * register.pauli(eye, site, axis)) / 2.0


def expectation(psi, site, axis):
    """<sigma_site^axis> = Tr(Psi^dagger sigma Psi) on a computational-order state factor."""
    n_sites = len(psi).bit_length() - 1
    return complex(np.vdot(psi, Register(n_sites).pauli(psi, site, axis)))


REGISTER_ORDERS = ("identity", "sectors", "random")


def register_of(kind, n_sites, rng):
    """A Register in the identity order, the XY chain's sector order or a random one."""
    if kind == "random":
        return Register(n_sites, rng.permutation(2**n_sites))
    if kind == "sectors" and n_sites >= 2:  # one site has only the identity order
        return build_xy_chain(n_sites).register
    return Register(n_sites)


def test_single_site_sigma_z_is_diag():
    np.testing.assert_allclose(dense_pauli(1, "z", 1), np.diag([1.0, -1.0]))


def test_embed_squares_to_identity():
    op = dense_pauli(1, "x", 2)
    np.testing.assert_allclose(op @ op, np.eye(4), atol=1e-15)


def test_disjoint_sites_commute_exactly():
    a = dense_pauli(2, "y", 3)
    b = dense_pauli(1, "x", 3)
    assert np.max(np.abs(a @ b - b @ a)) == 0.0


@given(sites_and_axes())
@settings(max_examples=30, deadline=None)
def test_embedded_pauli_algebra(args):
    site, axis, n = args
    op = dense_pauli(site, axis, n)
    dim = 2**n
    np.testing.assert_array_equal(op, oracles.site_operator(n, site, axis))
    assert hermiticity_defect(op) == 0.0
    np.testing.assert_allclose(op, op.conj().T, atol=1e-15)
    np.testing.assert_allclose(op @ op, np.eye(dim), atol=1e-14)
    assert abs(np.trace(op)) < 1e-12


@given(
    sites_and_axes(),
    st.sampled_from([+1, -1]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(REGISTER_ORDERS),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_index_kernels_match_kronecker_oracle(args, sign, rank, seed, order):
    """The kernels on a random (2^N, r) factor, the matrix of the entries that
    `pauli_entries` lists, and the dense projector built from the kernels on the
    identity, against P (explicit Kronecker chains) P^T for the register's row
    order P; the projector is (psi +/- sigma psi)/2, the Pi = (1 +/- sigma)/2
    that the ladder expands."""
    site, axis, n = args
    rng = np.random.Generator(np.random.PCG64(seed))
    psi = rng.standard_normal((2**n, rank)) + 1j * rng.standard_normal((2**n, rank))
    register = register_of(order, n, rng)
    sigma = oracles.in_register_order(register, oracles.site_operator(n, site, axis))
    proj = oracles.in_register_order(register, oracles.site_projector(n, site, axis, sign))
    projected = (psi + sign * register.pauli(psi, site, axis)) / 2.0
    np.testing.assert_array_equal(register.pauli(psi, site, axis), sigma @ psi)
    columns, values = register.pauli_entries(site, axis)
    listed = np.zeros_like(sigma)
    listed[np.arange(2**n), columns] = values
    np.testing.assert_array_equal(listed, sigma)
    np.testing.assert_allclose(projected, proj @ psi, atol=1e-14)
    np.testing.assert_allclose(dense_projector(site, axis, sign, n, register), proj, atol=1e-15)


@pytest.mark.parametrize(
    "register",
    [Register(3), Register(3, [6, 0, 3, 5, 1], (0, 2, 5)), build_xy_chain(5, [2, 0, 1]).register],
    ids=["one_sector", "some_indices", "xy_weights"],
)
def test_row_sectors_label_each_row_with_the_sector_whose_bounds_hold_it(register):
    sectors = register.row_sectors()
    assert sectors.shape == register.order.shape
    for k, (lo, hi) in enumerate(zip(register.bounds, register.bounds[1:])):
        assert (sectors[lo:hi] == k).all()


def test_register_order_is_a_checked_permutation(rng):
    """An order is a permutation of distinct basis indices, all 2^N of them or fewer:
    repeats, indices out of range, floats and an empty order are rejected."""
    for order in ([0, 1, 1, 3], [], [0, 1, 2, 4], [-1, 0, 1, 2], [0.0, 1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match="permutation"):
            Register(2, order)
    assert Register(2, [3, 0, 1]).sizes == (3,)


def test_a_register_of_some_indices_holds_the_subspace_they_span(rng):
    """A register that holds 5 of the 8 indices takes in a factor that is zero off them,
    as its rows there in register order; a factor with weight off them is rejected."""
    register = Register(3, [6, 0, 3, 5, 1], (0, 2, 5))
    psi = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    psi[[2, 4, 7]] = 0.0
    rows = oracles.factor_in_register_order(register, psi)
    np.testing.assert_array_equal(rows, psi[[6, 0, 3, 5, 1]])
    psi[7, 1] = 1e-300
    with pytest.raises(ValueError, match="does not hold"):
        oracles.factor_in_register_order(register, psi)


@given(
    sites_and_axes(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_kernels_on_a_register_of_some_indices_are_the_compressed_paulis(args, seed):
    """On a register that holds a random subset of the indices, in a random order,
    the kernels and `pauli_entries` are P sigma P^T, the Kronecker-chain Pauli
    compressed to the rows it holds, on any factor without weight on a row whose
    partner it lacks; a factor with weight there is rejected."""
    site, axis, n = args
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(2**n)[: int(rng.integers(1, 2**n + 1))]
    register = Register(n, order)
    sigma = oracles.site_operator(n, site, axis)[np.ix_(order, order)]
    columns, values = register.pauli_entries(site, axis)
    listed = np.zeros_like(sigma)
    listed[np.arange(len(order)), columns] = values
    np.testing.assert_array_equal(listed, sigma)
    lost = np.abs(sigma).sum(axis=0) == 0  # rows whose partner the register lacks
    psi = rng.standard_normal((len(order), 2)) + 1j * rng.standard_normal((len(order), 2))
    psi[lost] = 0.0
    np.testing.assert_array_equal(register.pauli(psi, site, axis), sigma @ psi)
    if lost.any():
        psi[np.flatnonzero(lost)[0], 0] = 1.0
        with pytest.raises(ValueError, match="out of the register"):
            register.pauli(psi, site, axis)


@pytest.mark.parametrize("order", REGISTER_ORDERS)
@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("shape", [(32,), (32, 3)])
def test_pauli_element_on_a_full_register_is_the_vdot_of_the_image(order, axis, shape, rng):
    """Where every row has its partner, <bra|sigma ket> is np.vdot(bra, pauli(ket)),
    bit for bit, on every site."""
    register = register_of(order, 5, rng)
    bra, ket = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in "ab")
    for site in range(1, 6):
        expected = np.vdot(bra, register.pauli(ket, site, axis))
        assert register.pauli_element(bra, ket, site, axis) == expected


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("rank", [None, 2])
def test_pauli_element_on_a_reached_register_is_the_whole_registers(axis, rank, rng):
    """On the weights 0-3 of a 6-site chain, a unit ket with weight in the top sector,
    whose image `pauli` rejects, and a unit bra have the matrix element of the whole
    register within 1e-15: the rows the image reaches beyond weight 3 meet a zero bra,
    so it is the Kronecker-chain Pauli's compressed to the register."""
    n, site = 6, 3
    reached = build_xy_chain(n, [0, 1, 2, 3]).register
    shape = (len(reached.order),) if rank is None else (len(reached.order), rank)
    bra, ket = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in "ab")
    bra, ket = bra / np.linalg.norm(bra), ket / np.linalg.norm(ket)
    with pytest.raises(ValueError, match="out of the register"):
        reached.pauli(ket, site, axis)
    sigma = oracles.in_register_order(reached, oracles.site_operator(n, site, axis))
    expected = np.vdot(bra, sigma @ ket)
    assert abs(reached.pauli_element(bra, ket, site, axis) - expected) <= 1e-15


def _dense_hermiticity_defect(matrix):
    return float(np.max(np.abs(matrix - matrix.conj().T)))


@pytest.mark.parametrize("dim", [1, 4, 32, 256])
def test_hermiticity_defect_equals_dense_formula(dim, rng):
    """Random dense, random sparse (one-sided entries included) and
    non-Hermitian matrices, and a zero matrix: the value is exactly the dense one."""
    dense = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    sparse = np.where(rng.random((dim, dim)) < 0.05, dense, 0.0)
    sparse[0, -1], sparse[-1, 0] = 0.5, 0.0
    for matrix in (dense, dense + dense.conj().T, sparse, sparse + sparse.conj().T):
        assert hermiticity_defect(matrix) == _dense_hermiticity_defect(matrix)
    assert hermiticity_defect(np.zeros((dim, dim), dtype=complex)) == 0.0


@pytest.mark.parametrize("dim", [1, 255, 256, 257, 700])
@pytest.mark.parametrize("dtype", [float, complex])
def test_tiled_hermiticity_defect_is_the_dense_one_with_nan_and_inf(dim, dtype, rng):
    """The check reads tiles on and above the diagonal only: sizes at and around one
    tile, and several tiles with a partial last one, give the dense value exactly; a
    NaN entry, an inf entry and an inf on both sides (inf - inf) anywhere give the
    dense NaN or inf."""
    herm = rng.standard_normal((dim, dim)).astype(dtype)
    if dtype is complex:
        herm += 1j * rng.standard_normal((dim, dim))
    herm += herm.conj().T
    skewed = herm.copy()
    skewed[dim // 3, -1] += 1e-13
    assert hermiticity_defect(herm) == 0.0
    assert hermiticity_defect(skewed) == _dense_hermiticity_defect(skewed)
    for value, both_sides in ((np.nan, False), (np.inf, False), (np.inf, True)):
        for row, col in ((0, dim - 1), (dim - 1, 0), (dim // 2, dim // 2)):
            bad = herm.copy()
            bad[row, col] = value
            if both_sides:
                bad[col, row] = value
            with np.errstate(invalid="ignore"):
                dense = _dense_hermiticity_defect(bad)
            assert np.array_equal(hermiticity_defect(bad), dense, equal_nan=True)


def test_embed_site_out_of_range():
    with pytest.raises(IndexError):
        dense_pauli(5, "x", 4)
    with pytest.raises(IndexError):
        dense_pauli(0, "x", 4)


@pytest.mark.parametrize("site", [1.5, 2.0, "2", None])
def test_a_non_integer_site_is_out_of_range(site):
    """A site that is no integer fails with the out-of-range error, before a kernel
    shifts by it; numpy integers are sites like Python ints."""
    with pytest.raises(IndexError, match=f"site {site} out of range for 4 sites"):
        check_site(site, 4)
    with pytest.raises(IndexError, match=f"site_i={site}: site {site} out of range"):
        OtocSpec(site, "x", 3, "x").validate_for(4)
    for integer in (np.int64(2), np.uint8(2), 2):
        check_site(integer, 4)
        OtocSpec(integer, "x", 3, "x").validate_for(4)


def test_bad_axis_rejected():
    with pytest.raises(ValueError, match="axis"):
        dense_pauli(1, "w", 1)


def test_projector_single_site():
    np.testing.assert_allclose(dense_projector(1, "z", +1, 1), np.diag([1.0, 0.0]))


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("site", [1, 2, 3])
def test_projector_algebra(site, axis):
    plus = dense_projector(site, axis, +1, 3)
    minus = dense_projector(site, axis, -1, 3)
    sigma = dense_pauli(site, axis, 3)
    assert np.max(np.abs(plus @ minus)) < 1e-14
    np.testing.assert_allclose(plus + minus, np.eye(8), atol=1e-14)
    np.testing.assert_allclose(plus - minus, sigma, atol=1e-14)
    np.testing.assert_allclose(plus @ plus, plus, atol=1e-14)


def density(psi):
    """The dense rho = Psi Psi^dagger of a state factor."""
    return psi @ psi.conj().T


def test_all_up_single_site():
    np.testing.assert_allclose(density(all_up_state(1)), np.diag([1.0, 0.0]))


def test_all_up_is_pure_and_polarized():
    state = all_up_state(3)
    rho = density(state)
    assert abs(np.trace(rho) - 1.0) < 1e-15
    assert abs(np.trace(rho @ rho) - 1.0) < 1e-15
    for k in (1, 2, 3):
        val = expectation(state, k, "z")
        assert abs(val - 1.0) < 1e-14


def test_expectations_on_all_up():
    state = all_up_state(2)
    assert abs(expectation(state, 1, "z") - 1.0) < 1e-14
    assert abs(expectation(state, 1, "x")) < 1e-14


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_maximally_mixed_expectations_vanish(axis):
    state = maximally_mixed_state(2)
    assert abs(expectation(state, 2, axis)) < 1e-14


def test_expectation_dimension_mismatch():
    """A factor of a 2-site state under a 3-site kernel is rejected by its row count."""
    with pytest.raises(ValueError, match="4 rows, expected 8"):
        Register(3).pauli(all_up_state(2), 1, "z")


def test_state_factors_reproduce_density():
    """The two builders give read-only computational-order factors of their states."""
    assert all_up_state(3).shape == (8, 1)
    assert maximally_mixed_state(3).shape == (8, 8)
    np.testing.assert_allclose(density(maximally_mixed_state(3)), np.eye(8) / 8, atol=1e-16)
    for state in (all_up_state(3), maximally_mixed_state(3)):
        assert not state.flags.writeable
    for build in (all_up_state, maximally_mixed_state):
        with pytest.raises(ValueError, match=">= 1"):
            build(0)

