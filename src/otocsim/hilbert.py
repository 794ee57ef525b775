"""N-qubit Hilbert-space primitives: states, single-site Pauli kernels, projectors.

Basis convention (used everywhere in this package):
the computational basis is indexed by bitstrings, site 1 maps to the least
significant bit, and |up> is bit 0.  Hence basis index 0 is the fully
polarized state |up...up>, and for a single site sigma^z = diag(+1, -1).
Sites are 1-based throughout.

A state rho is carried as a column factor Psi (2^N x r) with
rho = Psi Psi^dagger: r = 1 for a pure state, r = 2^N for the maximally
mixed one.  Single-site Paulis, projectors and rotations act on Psi through
index kernels in O(2^N r) (a row gather and a phase read from one bit),
never as dense matrices.  Time evolution U(t) is block-diagonal over the
connected sectors of H, applied to Psi block by block and built once per
time point (see `dynamics.Evolution`).
"""

from __future__ import annotations

import math

import numpy as np

ATOL_ALGEBRA = 1e-12   # algebraic identities (hermiticity, trace, norm)
ATOL_SPECTRUM = 1e-10  # spectral quantities (eigenvalues, reconstructions)

PAULI_AXES = ("x", "y", "z")


def _check_axis(axis: str) -> None:
    if axis not in PAULI_AXES:
        raise ValueError(f"unknown Pauli axis {axis!r}, expected one of {PAULI_AXES}")


def check_site(site: int, n_sites: int) -> None:
    """Validate a 1-based site label against the register size."""
    if not 1 <= site <= n_sites:
        raise IndexError(f"site {site} out of range for {n_sites} sites")


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Max-norm of M - M^dagger.

    When at most half of the entries of M are nonzero (a structured H), it
    is read over the nonzero pattern: max |M[r, c] - conj(M[c, r])| over the
    nonzero (r, c), exactly the dense value, since an entry pair that is zero
    on both sides contributes 0.  A denser M takes the dense difference.
    """
    pattern = matrix != 0
    # inf - inf is the NaN the callers' guards reject; it need not warn first
    with np.errstate(invalid="ignore"):
        if 2 * np.count_nonzero(pattern) > pattern.size:
            return float(np.max(np.abs(matrix - matrix.conj().T)))
        rows, cols = np.nonzero(pattern)
        if rows.size == 0:
            return 0.0
        return float(np.max(np.abs(matrix[rows, cols] - matrix[cols, rows].conj())))


def _row_weights(weights: np.ndarray, psi: np.ndarray) -> np.ndarray:
    return weights.reshape((-1,) + (1,) * (psi.ndim - 1))


def apply_pauli(psi: np.ndarray, site: int, axis: str, n_sites: int) -> np.ndarray:
    """sigma_site^axis @ psi in O(psi.size), for psi of shape (2^N,) or (2^N, r).

    With m = 1 << (site - 1), row b of sigma^x psi is row b ^ m of psi;
    sigma^y adds the phase -i (bit of b clear) or +i (set), and sigma^z is
    the row sign +1 (clear) or -1 (set).
    """
    check_site(site, n_sites)
    _check_axis(axis)
    dim = 2**n_sites
    if psi.shape[0] != dim:
        raise ValueError(f"operand has {psi.shape[0]} rows, expected {dim}")
    rows = np.arange(dim)
    mask = 1 << (site - 1)
    bit_set = (rows & mask) != 0
    if axis == "z":
        return _row_weights(np.where(bit_set, -1.0, 1.0), psi) * psi
    if axis == "x":
        return psi[rows ^ mask]
    flipped = psi.astype(complex, copy=False)[rows ^ mask]
    flipped *= _row_weights(np.where(bit_set, 1j, -1j), flipped)  # in place on the fresh gather
    return flipped


def compress_projected(
    collapsed: np.ndarray, site: int, axis: str, sign: int, n_sites: int
) -> np.ndarray:
    """A factor Phi of 2^(N-1) columns with Phi Phi^dagger = C C^dagger, C = c Pi psi.

    Pi = (I +/- sigma_site^axis)/2 halves the rank, and the rows of a
    factor in its range are fixed by 2^(N-1) of them, A: for z the rows Pi
    keeps (the others are zero); for x and y the rows with the site's bit
    clear, row b | m being sign * row b (x) or sign * i * row b (y).  With
    the reduced QR A^dagger = Q R, Phi = C Q has Phi Phi^dagger = C C^dagger
    and is R^dagger on the rows of A, so it is filled from R alone.  A factor
    of at most 2^(N-1) columns is returned unchanged.
    """
    half = 2 ** (n_sites - 1)
    if collapsed.shape[1] <= half:
        return collapsed
    bit_set = (np.arange(2 * half) & (1 << (site - 1))) != 0
    keep = bit_set if axis == "z" and sign == -1 else ~bit_set
    r_adjoint = np.linalg.qr(collapsed[keep].conj().T, mode="r").conj().T
    phi = np.empty((2 * half, half), dtype=complex)
    phi[keep] = r_adjoint
    # rows b | m follow rows b in the same ascending order
    phi[~keep] = 0.0 if axis == "z" else sign * (1j if axis == "y" else 1.0) * r_adjoint
    return phi


def apply_rotation(psi: np.ndarray, site: int, axis: str, theta: float, n_sites: int) -> np.ndarray:
    """exp(-i theta sigma_site^axis / 2) psi = cos(theta/2) psi - i sin(theta/2) sigma psi."""
    out = apply_pauli(psi, site, axis, n_sites).astype(complex, copy=False)
    out *= -1j * math.sin(theta / 2.0)
    out += math.cos(theta / 2.0) * psi
    return out


class DensityOperator:
    """Mixed (or pure) state rho = factor @ factor^dagger, factor of shape (2^N, r).

    Built from a matrix, rho is checked Hermitian, unit-trace and positive
    semidefinite, and the factor is V sqrt(w) over the positive eigenvalues
    w of the eigendecomposition that the PSD check performs.  Built with
    `from_factor`, rho is PSD by construction and unit trace is checked as
    ||factor||_F^2 = 1.  The dense `matrix` is formed only when asked for.
    """

    __slots__ = ("n_sites", "factor", "_matrix")

    def __init__(self, n_sites: int, matrix: np.ndarray):
        mat = np.asarray(matrix, dtype=complex)
        dim = 2**n_sites
        if mat.shape != (dim, dim):
            raise ValueError(f"density matrix has shape {mat.shape}, expected {(dim, dim)}")
        if not hermiticity_defect(mat) <= ATOL_ALGEBRA:
            raise ValueError("density matrix is not Hermitian")
        trace = complex(np.trace(mat))
        if not abs(trace - 1.0) <= ATOL_ALGEBRA:
            raise ValueError(f"density matrix trace {trace} is not 1")
        evals, evecs = np.linalg.eigh(mat)
        if not evals[0] >= -ATOL_SPECTRUM:
            raise ValueError(f"density matrix has negative eigenvalue {evals[0]}")
        keep = evals > 0.0
        self.n_sites = n_sites
        self.factor = evecs[:, keep] * np.sqrt(evals[keep])
        self._matrix = mat

    @classmethod
    def from_factor(cls, n_sites: int, factor: np.ndarray) -> "DensityOperator":
        """The state factor @ factor^dagger; factor has 2^N rows and at least one column."""
        psi = np.asarray(factor, dtype=complex)
        if psi.ndim != 2 or psi.shape[0] != 2**n_sites or psi.shape[1] < 1:
            raise ValueError(f"state factor has shape {psi.shape}, expected ({2**n_sites}, r)")
        norm2 = float(np.vdot(psi, psi).real)
        if not abs(norm2 - 1.0) <= ATOL_ALGEBRA:
            raise ValueError(f"state factor squared Frobenius norm {norm2} is not 1")
        state = object.__new__(cls)
        state.n_sites, state.factor, state._matrix = n_sites, psi, None
        return state

    @property
    def matrix(self) -> np.ndarray:
        """Dense 2^N x 2^N rho; no evaluator needs it."""
        if self._matrix is None:
            self._matrix = self.factor @ self.factor.conj().T
        return self._matrix


def all_up_state(n_sites: int) -> DensityOperator:
    """Pure fully polarized +z product state; its factor is basis vector 0."""
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    factor = np.zeros((2**n_sites, 1), dtype=complex)
    factor[0, 0] = 1.0  # |up...up> is basis index 0
    return DensityOperator.from_factor(n_sites, factor)


def maximally_mixed_state(n_sites: int) -> DensityOperator:
    """Identity / 2^N; its factor is the identity / sqrt(2^N)."""
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    dim = 2**n_sites
    return DensityOperator.from_factor(n_sites, np.eye(dim, dtype=complex) / math.sqrt(dim))
