import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otocsim.hilbert import (
    DensityOperator,
    Operator,
    StateVector,
    all_up_state,
    apply_pauli,
    apply_projector,
    apply_rotation,
    compress_projected,
    embed_pauli,
    expectation,
    hermiticity_defect,
    maximally_mixed_state,
    pauli_matrix,
    projector,
)
from otocsim.protocol import rotation_operator
from otocsim.verification import random_density

import oracles


@st.composite
def sites_and_axes(draw):
    """(site, axis, n_sites) over registers of 1 to 6 qubits."""
    n = draw(st.integers(min_value=1, max_value=6))
    return draw(st.integers(min_value=1, max_value=n)), draw(st.sampled_from(["x", "y", "z"])), n


def test_single_site_sigma_z_is_diag():
    op = embed_pauli(1, "z", 1)
    np.testing.assert_allclose(op.matrix, np.diag([1.0, -1.0]))


def test_embed_squares_to_identity():
    op = embed_pauli(1, "x", 2)
    np.testing.assert_allclose(op.matrix @ op.matrix, np.eye(4), atol=1e-15)


def test_disjoint_sites_commute_exactly():
    a = embed_pauli(2, "y", 3).matrix
    b = embed_pauli(1, "x", 3).matrix
    assert np.max(np.abs(a @ b - b @ a)) == 0.0


@given(sites_and_axes())
@settings(max_examples=30, deadline=None)
def test_embedded_pauli_algebra(args):
    site, axis, n = args
    op = embed_pauli(site, axis, n)
    dim = 2**n
    assert op.hermitian
    np.testing.assert_array_equal(op.matrix, oracles.site_operator(n, site, axis))
    np.testing.assert_allclose(op.matrix, op.matrix.conj().T, atol=1e-15)
    np.testing.assert_allclose(op.matrix @ op.matrix, np.eye(dim), atol=1e-14)
    assert abs(np.trace(op.matrix)) < 1e-12


@given(
    sites_and_axes(),
    st.sampled_from([+1, -1]),
    st.floats(min_value=-7.0, max_value=7.0),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_index_kernels_match_kronecker_oracle(args, sign, theta, rank, seed):
    """The kernels on a random (2^N, r) factor, and the dense forms built from
    them on the identity, against explicit Kronecker chains and expm."""
    site, axis, n = args
    rng = np.random.Generator(np.random.PCG64(seed))
    psi = rng.standard_normal((2**n, rank)) + 1j * rng.standard_normal((2**n, rank))
    sigma = oracles.site_operator(n, site, axis)
    proj = oracles.site_projector(n, site, axis, sign)
    rot = oracles.rotation(n, site, axis, theta)
    np.testing.assert_array_equal(apply_pauli(psi, site, axis, n), sigma @ psi)
    np.testing.assert_allclose(apply_projector(psi, site, axis, sign, n), proj @ psi, atol=1e-14)
    np.testing.assert_allclose(apply_rotation(psi, site, axis, theta, n), rot @ psi, atol=1e-13)
    np.testing.assert_allclose(projector(site, axis, sign, n).matrix, proj, atol=1e-15)
    np.testing.assert_allclose(rotation_operator(site, axis, theta, n).matrix, rot, atol=1e-14)


@given(
    sites_and_axes(),
    st.sampled_from([+1, -1]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_compress_projected_keeps_the_projected_state(args, sign, seed, extra):
    """A collapsed factor wider than 2^(N-1) comes back with 2^(N-1) columns and
    Phi Phi^dagger = Pi rho Pi; one of at most 2^(N-1) columns comes back as is."""
    site, axis, n = args
    rng = np.random.Generator(np.random.PCG64(seed))
    half = 2 ** (n - 1)
    proj = oracles.site_projector(n, site, axis, sign)
    for width in (half + extra, 2**n, half, max(1, half - extra)):
        psi = rng.standard_normal((2**n, width)) + 1j * rng.standard_normal((2**n, width))
        psi /= np.linalg.norm(psi)
        collapsed = proj @ psi
        phi = compress_projected(collapsed, site, axis, sign, n)
        if width <= half:
            assert phi is collapsed
            continue
        assert phi.shape == (2**n, half)
        target = proj @ psi @ psi.conj().T @ proj
        np.testing.assert_allclose(phi @ phi.conj().T, target, rtol=0, atol=1e-12)


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


def test_embed_site_out_of_range():
    with pytest.raises(IndexError):
        embed_pauli(5, "x", 4)
    with pytest.raises(IndexError):
        embed_pauli(0, "x", 4)


def test_bad_axis_rejected():
    with pytest.raises(ValueError):
        pauli_matrix("w")


def test_projector_single_site():
    np.testing.assert_allclose(projector(1, "z", +1, 1).matrix, np.diag([1.0, 0.0]))


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("site", [1, 2, 3])
def test_projector_algebra(site, axis):
    plus = projector(site, axis, +1, 3).matrix
    minus = projector(site, axis, -1, 3).matrix
    sigma = embed_pauli(site, axis, 3).matrix
    assert np.max(np.abs(plus @ minus)) < 1e-14
    np.testing.assert_allclose(plus + minus, np.eye(8), atol=1e-14)
    np.testing.assert_allclose(plus - minus, sigma, atol=1e-14)
    np.testing.assert_allclose(plus @ plus, plus, atol=1e-14)


def test_projector_sign_validated():
    with pytest.raises(ValueError):
        projector(1, "z", 2, 1)


def test_all_up_single_site():
    np.testing.assert_allclose(all_up_state(1).matrix, np.diag([1.0, 0.0]))


def test_all_up_is_pure_and_polarized():
    state = all_up_state(3)
    assert abs(np.trace(state.matrix) - 1.0) < 1e-15
    assert abs(np.trace(state.matrix @ state.matrix) - 1.0) < 1e-15
    for k in (1, 2, 3):
        val = expectation(state, embed_pauli(k, "z", 3))
        assert abs(val - 1.0) < 1e-14


def test_expectations_on_all_up():
    state = all_up_state(2)
    assert abs(expectation(state, embed_pauli(1, "z", 2)) - 1.0) < 1e-14
    assert abs(expectation(state, embed_pauli(1, "x", 2))) < 1e-14


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_maximally_mixed_expectations_vanish(axis):
    state = maximally_mixed_state(2)
    assert abs(expectation(state, embed_pauli(2, axis, 2))) < 1e-14


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(all_up_state(2), embed_pauli(1, "z", 3))


def test_density_operator_rejects_non_hermitian():
    mat = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOperator(1, mat)


def test_density_operator_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(1, np.diag([0.6, 0.6]).astype(complex))


def test_density_operator_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="negative"):
        DensityOperator(1, np.diag([1.5, -0.5]).astype(complex))


def test_state_vector_norm_enforced():
    with pytest.raises(ValueError, match="norm"):
        StateVector(1, np.array([1.0, 1.0]))


def test_state_vector_to_density():
    plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
    rho = plus.to_density()
    np.testing.assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-15)


def test_operator_hermitian_flag_is_checked():
    with pytest.raises(ValueError, match="Hermiticity"):
        Operator(1, np.array([[0, 1], [0, 0]], dtype=complex), hermitian=True)
    # without the flag the same matrix is fine
    Operator(1, np.array([[0, 1], [0, 0]], dtype=complex))


def test_state_factors_reproduce_density(rng):
    mixed = random_density(3, rng)
    np.testing.assert_allclose(mixed.factor @ mixed.factor.conj().T, mixed.matrix, atol=1e-14)
    assert all_up_state(3).factor.shape == (8, 1)
    assert maximally_mixed_state(3).factor.shape == (8, 8)
    np.testing.assert_allclose(maximally_mixed_state(3).matrix, np.eye(8) / 8, atol=1e-16)
    pure = DensityOperator(1, np.full((2, 2), 0.5))  # rank 1: zero eigenvalue dropped
    assert pure.factor.shape == (2, 1)


def test_from_factor_checks_shape_and_norm():
    with pytest.raises(ValueError, match="Frobenius"):
        DensityOperator.from_factor(1, np.ones((2, 1)))
    with pytest.raises(ValueError, match="shape"):
        DensityOperator.from_factor(2, np.ones((2, 1)) / np.sqrt(2))
    with pytest.raises(ValueError, match="shape"):
        DensityOperator.from_factor(1, np.ones(2) / np.sqrt(2))
