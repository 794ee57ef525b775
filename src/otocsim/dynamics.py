"""Hamiltonian construction and exact unitary time evolution.

Units: the XY coupling constant is 1 and hbar = 1, so time is
dimensionless.  Evolution is exact via a cached Hermitian
eigendecomposition; backward evolution is the adjoint U(t)^dagger = U(-t).
An `Evolution` holds U(t) for one time point, so that every evaluator of
that point shares one dense unitary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hilbert import (
    ATOL_ALGEBRA,
    ATOL_SPECTRUM,
    DensityOperator,
    Operator,
    apply_pauli,
    hermiticity_defect,
)

PairCoupling = tuple[int, str, int, str, float]  # (site_k, axis_a, site_l, axis_b, coeff)
LocalField = tuple[int, str, float]              # (site, axis, coeff)


@dataclass(frozen=True)
class Hamiltonian:
    """Hermitian generator of the dynamics on an n_sites register."""

    n_sites: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        dim = 2**self.n_sites
        if mat.shape != (dim, dim):
            raise ValueError(f"Hamiltonian has shape {mat.shape}, expected {(dim, dim)}")
        if hermiticity_defect(mat) > ATOL_ALGEBRA:
            raise ValueError("Hamiltonian is not Hermitian")


@dataclass(frozen=True)
class Propagator:
    """Cached spectral decomposition H = V diag(eigenvalues) V^dagger.

    Immutable after construction; `evolution` assembles e^(-iHt) from it
    once per time point.
    """

    n_sites: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_hamiltonian(cls, ham: Hamiltonian) -> "Propagator":
        evals, evecs = np.linalg.eigh(ham.matrix)
        prop = cls(ham.n_sites, evals, evecs)
        residual = np.max(np.abs((evecs * evals) @ evecs.conj().T - ham.matrix))
        if residual > ATOL_SPECTRUM:
            raise ValueError(f"eigendecomposition residual {residual} above tolerance")
        unit = np.max(np.abs(evecs.conj().T @ evecs - np.eye(len(evals))))
        if unit > ATOL_SPECTRUM:
            raise ValueError(f"eigenvector unitarity defect {unit} above tolerance")
        return prop

    def unitary(self, t: float) -> np.ndarray:
        """Dense e^(-iHt)."""
        if not np.isfinite(t):
            raise ValueError(f"evolution time must be finite, got {t}")
        phases = np.exp(-1j * self.eigenvalues * t)
        return (self.eigenvectors * phases) @ self.eigenvectors.conj().T

    def evolution(self, t: float) -> "Evolution":
        """U(t) and its adjoint, built once for every evaluator of time point t."""
        forward = self.unitary(t)
        return Evolution(self, float(t), forward, forward.conj().T)


@dataclass(frozen=True, eq=False)
class Evolution:
    """Dense U(t) = e^(-iHt) of one propagator at one time point, and U(t)^dagger."""

    propagator: Propagator
    t: float
    forward: np.ndarray
    backward: np.ndarray


def evolution_for(prop: Propagator, t: float, evolution: Evolution | None = None) -> Evolution:
    """`evolution` when given, checked to belong to (prop, t); else U(t) built from prop."""
    if evolution is None:
        return prop.evolution(t)
    if evolution.propagator is not prop or evolution.t != t:
        raise ValueError(
            f"evolution was built for time {evolution.t} of another propagator, not time {t}"
        )
    return evolution


def build_xy_chain(n_sites: int) -> Hamiltonian:
    """Open-boundary chain H = -sum_k (x_k x_(k+1) + y_k y_(k+1))."""
    if n_sites < 2:
        raise ValueError("XY chain needs at least 2 sites")
    eye = np.eye(2**n_sites, dtype=complex)
    mat = np.zeros_like(eye)
    for k in range(1, n_sites):
        for axis in ("x", "y"):
            mat -= apply_pauli(apply_pauli(eye, k + 1, axis, n_sites), k, axis, n_sites)
    return Hamiltonian(n_sites, mat)


def build_custom(
    n_sites: int,
    pair_couplings: Sequence[PairCoupling] = (),
    fields: Sequence[LocalField] = (),
    extra_terms: Sequence[np.ndarray] = (),
) -> Hamiltonian:
    """Sum of two-site couplings, local fields and raw Hermitian terms.

    Higher-body interactions are passed as full matrices in extra_terms;
    each must be Hermitian on its own.
    """
    dim = 2**n_sites
    eye = np.eye(dim, dtype=complex)
    mat = np.zeros_like(eye)
    for site_k, axis_a, site_l, axis_b, coeff in pair_couplings:
        pair = apply_pauli(apply_pauli(eye, site_l, axis_b, n_sites), site_k, axis_a, n_sites)
        mat += coeff * pair
    for site, axis, coeff in fields:
        mat += coeff * apply_pauli(eye, site, axis, n_sites)
    for term in extra_terms:
        term = np.asarray(term, dtype=complex)
        if term.shape != (dim, dim):
            raise ValueError(f"extra term has shape {term.shape}, expected {(dim, dim)}")
        if hermiticity_defect(term) > ATOL_ALGEBRA:
            raise ValueError("extra term is not Hermitian")
        mat += term
    return Hamiltonian(n_sites, mat)


def evolve(state: DensityOperator, prop: Propagator, t: float) -> DensityOperator:
    """Schroedinger evolution, U(t) applied to the state factor; negative t evolves backwards."""
    if state.n_sites != prop.n_sites:
        raise ValueError("dimension mismatch between state and propagator")
    return DensityOperator.from_factor(state.n_sites, prop.unitary(t) @ state.factor)


def heisenberg(op: Operator, prop: Propagator, t: float) -> Operator:
    """Heisenberg-picture operator e^(iHt) op e^(-iHt)."""
    if op.n_sites != prop.n_sites:
        raise ValueError("dimension mismatch between operator and propagator")
    u = prop.unitary(t)
    return Operator(op.n_sites, u.conj().T @ op.matrix @ u, hermitian=op.hermitian)
