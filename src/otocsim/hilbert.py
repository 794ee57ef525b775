"""N-qubit Hilbert-space primitives: states, the register layout and single-site Pauli kernels.

Basis convention (used everywhere in this package):
the computational basis is indexed by bitstrings, site 1 maps to the least
significant bit, and |up> is bit 0.  Hence basis index 0 is the fully
polarized state |up...up>, and for a single site sigma^z = diag(+1, -1).
Sites are 1-based throughout.

A state rho is carried as a column factor Psi (2^N x r) with
rho = Psi Psi^dagger: r = 1 for a pure state, r = 2^N for the maximally
mixed one.  A `DensityOperator` holds Psi in computational order.  H,
U(t), U(t)^dagger and the evaluators' Psi share one `Register`: a row
order and its cut into the sectors of H, so that each block of U(t) acts
on a contiguous slice of rows.  Single-site Paulis act on Psi through index
kernels in O(2^N r) (a row gather and a row phase), never as dense
matrices.  Time evolution U(t) is block-diagonal over the sectors and
built once per time point (see `dynamics.Evolution`).
"""

from __future__ import annotations

import math

import numpy as np

ATOL_ALGEBRA = 1e-12   # algebraic identities (hermiticity, trace, norm, each probability)
ATOL_SPECTRUM = 1e-10  # spectral quantities (eigenvalues, reconstructions, probability sum)

PAULI_AXES = ("x", "y", "z")


def _check_axis(axis: str) -> None:
    if axis not in PAULI_AXES:
        raise ValueError(f"unknown Pauli axis {axis!r}, expected one of {PAULI_AXES}")


def check_site(site: int, n_sites: int) -> None:
    """Validate a 1-based site label against the register size."""
    if not 1 <= site <= n_sites:
        raise IndexError(f"site {site} out of range for {n_sites} sites")


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Max-norm of M - M^dagger."""
    # inf - inf is the NaN the callers' guards reject; it need not warn first
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(matrix - matrix.conj().T)))


def _row_weights(weights, psi: np.ndarray) -> np.ndarray:
    """A per-row (or scalar) weight shaped to broadcast over the rows of psi."""
    return np.reshape(weights, (-1,) + (1,) * (psi.ndim - 1))


class Register:
    """The layout of an n_sites register: a row order, its sectors, and the single-site kernels.

    Row k of a factor in register order is basis index order[k], for a
    permutation `order` of range(2^N); the identity order is the
    computational one.  Sector k is rows bounds[k]:bounds[k+1], the basis
    indices `sector(k)`; by default one sector holds every row.  The
    evaluators use H's sectors, so that each block of H and U(t) acts on a
    contiguous slice of rows.

    With m = 1 << (site - 1), sigma^x sends the row of basis index b to the
    row of b ^ m; sigma^y adds the phase -i (bit of b clear) or +i (set),
    and sigma^z is the row sign +1 (clear) or -1 (set).  Each kernel is one
    row gather and one row phase, read from a table built on the first use
    of its (site, axis) and kept for the register's lifetime.
    """

    __slots__ = ("n_sites", "order", "bounds", "_tables")

    def __init__(
        self, n_sites: int, order: np.ndarray | None = None, bounds: tuple[int, ...] | None = None
    ):
        dim = 2**n_sites
        order = np.asarray(order) if order is not None else np.arange(dim)
        is_index = order.shape == (dim,) and order.dtype.kind in "iu" and order.min() >= 0
        # dim indices below dim, none repeated, are a permutation
        counts = np.bincount(order, minlength=dim) if is_index else None
        if counts is None or len(counts) != dim or counts.max() != 1:
            raise ValueError(f"register order is not a permutation of range({dim})")
        bounds = tuple(map(int, bounds)) if bounds is not None else (0, dim)
        if bounds[:1] != (0,) or bounds[-1:] != (dim,) or not (np.diff(bounds) > 0).all():
            raise ValueError(f"sector bounds {bounds} do not tile a {dim}-dim register")
        self.n_sites = n_sites
        self.order = order
        self.bounds = bounds
        self._tables: dict[tuple[int, str], tuple[np.ndarray | None, np.ndarray | None]] = {}

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(hi - lo for lo, hi in zip(self.bounds, self.bounds[1:]))

    def sector(self, k: int) -> np.ndarray:
        """The basis indices of sector k, in row order."""
        return self.order[self.bounds[k] : self.bounds[k + 1]]

    def _kernel(self, psi: np.ndarray, site: int, axis: str):
        """(row gather or None, row phase or None) of sigma_site^axis, for psi's rows."""
        table = self._tables.get((site, axis))
        if table is None:
            check_site(site, self.n_sites)
            _check_axis(axis)
            mask = 1 << (site - 1)
            sign = np.where(self.order & mask, -1.0, 1.0)
            if axis == "z":
                table = (None, sign)
            else:
                position = np.empty_like(self.order)
                position[self.order] = np.arange(len(self.order))
                table = (position[self.order ^ mask], None if axis == "x" else -1j * sign)
            self._tables[site, axis] = table
        if psi.shape[0] != len(self.order):
            raise ValueError(f"operand has {psi.shape[0]} rows, expected {len(self.order)}")
        return table

    def from_computational(self, psi: np.ndarray) -> np.ndarray:
        """A computational-order factor with its rows put in register order."""
        return psi[self.order]

    def to_computational(self, psi: np.ndarray) -> np.ndarray:
        """A register-order factor with its rows put back in computational order."""
        out = np.empty_like(psi)
        out[self.order] = psi
        return out

    def pauli(self, psi: np.ndarray, site: int, axis: str) -> np.ndarray:
        """sigma_site^axis @ psi in O(psi.size), for psi of shape (2^N,) or (2^N, r)."""
        gather, phase = self._kernel(psi, site, axis)
        if gather is None:
            return _row_weights(phase, psi) * psi
        out = psi.take(gather, axis=0)
        if phase is not None:
            out = out.astype(complex, copy=False)
            out *= _row_weights(phase, out)  # in place on the fresh gather
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
