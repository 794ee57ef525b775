"""Hamiltonian construction and exact unitary time evolution.

Units: the XY coupling constant is 1 and hbar = 1, so time is
dimensionless.  Evolution is exact via a cached Hermitian
eigendecomposition, one per connected sector of H (the Hamming-weight
sectors of the XY chain); backward evolution is the adjoint
U(t)^dagger = U(-t).  An `Evolution` holds the sector blocks of U(t) for
one time point, so that every evaluator of that point shares them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hilbert import (
    ATOL_ALGEBRA,
    ATOL_SPECTRUM,
    DensityOperator,
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


@dataclass(frozen=True, eq=False)
class Sectors:
    """A partition of the basis into blocks, each a contiguous slice of one permutation.

    Block k is the basis indices order[bounds[k]:bounds[k+1]]; order is None
    for the identity permutation, so that block k is plainly lo:hi.
    """

    order: np.ndarray | None
    bounds: tuple[int, ...]

    @classmethod
    def connected(cls, matrix: np.ndarray) -> "Sectors":
        """The connected components of matrix's nonzero pattern.

        The matrix is exactly zero outside these diagonal blocks.  Indices
        ascend within a block and blocks come in the order of their smallest
        index.  Found by min-label propagation with pointer jumping over the
        symmetrized pattern; each label is an index of the same component.
        """
        dim = matrix.shape[0]
        pattern = matrix != 0
        pattern |= pattern.T
        pattern.flat[:: dim + 1] = True
        rows, cols = np.nonzero(pattern)
        labels = pattern.argmax(axis=1)  # smallest neighbour of each index, itself included
        while True:
            labels = labels[labels]
            across = labels[cols]
            if (labels[rows] == across).all():
                break
            np.minimum.at(labels, rows, across)
        if not labels.any():  # a single component, as for a dense random H
            return cls(None, (0, dim))
        counts = np.bincount(labels, minlength=dim)
        bounds = (0, *np.cumsum(counts[counts > 0]).tolist())
        if (labels[1:] >= labels[:-1]).all():
            return cls(None, bounds)
        return cls(np.argsort(labels, kind="stable"), bounds)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(hi - lo for lo, hi in zip(self.bounds, self.bounds[1:]))

    def block(self, k: int):
        """Index of the k-th diagonal block of a 2^N x 2^N matrix (a view when order is None)."""
        lo, hi = self.bounds[k], self.bounds[k + 1]
        if self.order is None:
            return slice(lo, hi), slice(lo, hi)
        return np.ix_(self.order[lo:hi], self.order[lo:hi])


@dataclass(frozen=True, eq=False)
class BlockDiagonal:
    """Operator that is zero outside the diagonal blocks of `sectors`, one matrix per block."""

    sectors: Sectors
    blocks: tuple[np.ndarray, ...]

    def with_blocks(self, blocks) -> "BlockDiagonal":
        return BlockDiagonal(self.sectors, tuple(blocks))

    def adjoint(self) -> "BlockDiagonal":
        return self.with_blocks(block.conj().T for block in self.blocks)

    def __matmul__(self, psi: np.ndarray) -> np.ndarray:
        """This operator applied to psi of shape (2^N,) or (2^N, r), block by block.

        Each block product reads its rows of psi and is written straight to
        the same rows of the result, so no permuted copy of psi is formed; a
        single block in the identity order is one plain matmul.
        """
        order, bounds = self.sectors.order, self.sectors.bounds
        if order is None and len(self.blocks) == 1:
            return self.blocks[0] @ psi
        result = np.empty(psi.shape, dtype=np.result_type(psi, *self.blocks))
        for lo, hi, block in zip(bounds, bounds[1:], self.blocks):
            rows = slice(lo, hi) if order is None else order[lo:hi]
            result[rows] = block @ psi[rows]
        return result


@dataclass(frozen=True)
class Propagator:
    """Cached spectral decomposition of H, one eigendecomposition per connected sector.

    H is split into the connected components of its nonzero pattern (for
    the XY chain, the Hamming-weight sectors) and each block is
    diagonalized as H_k = V_k diag(w_k) V_k^dagger.  Immutable after
    construction; `block_unitary` assembles e^(-iHt) from it block by block.
    `reconstruction_residual` and `unitarity_defect` are the worst
    max|V_k diag(w_k) V_k^dagger - H_k| and max|V_k^dagger V_k - I| over the
    blocks; since H and the assembled decomposition are both exactly zero
    off the blocks, they equal the whole-matrix defects.
    """

    n_sites: int
    eigenbasis: BlockDiagonal
    block_eigenvalues: tuple[np.ndarray, ...]
    reconstruction_residual: float
    unitarity_defect: float

    @classmethod
    def from_hamiltonian(cls, ham: Hamiltonian) -> "Propagator":
        sectors = Sectors.connected(ham.matrix)
        evals, evecs = [], []
        residual = unit = 0.0
        for k in range(len(sectors.sizes)):
            block = ham.matrix[sectors.block(k)]
            w, v = np.linalg.eigh(block)
            residual = max(residual, float(np.max(np.abs((v * w) @ v.conj().T - block))))
            unit = max(unit, float(np.max(np.abs(v.conj().T @ v - np.eye(len(w))))))
            evals.append(w)
            evecs.append(v)
        if residual > ATOL_SPECTRUM:
            raise ValueError(f"eigendecomposition residual {residual} above tolerance")
        if unit > ATOL_SPECTRUM:
            raise ValueError(f"eigenvector unitarity defect {unit} above tolerance")
        return cls(
            ham.n_sites, BlockDiagonal(sectors, tuple(evecs)), tuple(evals), residual, unit
        )

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return self.eigenbasis.sectors.sizes

    def block_unitary(self, t: float) -> BlockDiagonal:
        """e^(-iHt) as one block U_k(t) = V_k diag(e^(-i w_k t)) V_k^dagger per sector."""
        if not np.isfinite(t):
            raise ValueError(f"evolution time must be finite, got {t}")
        return self.eigenbasis.with_blocks(
            (v * np.exp(-1j * w * t)) @ v.conj().T
            for v, w in zip(self.eigenbasis.blocks, self.block_eigenvalues)
        )

    def evolution(self, t: float) -> "Evolution":
        """U(t) and its adjoint, built once for every evaluator of time point t."""
        forward = self.block_unitary(t)
        return Evolution(self, float(t), forward, forward.adjoint())


@dataclass(frozen=True, eq=False)
class Evolution:
    """U(t) = e^(-iHt) of one propagator at one time point, and U(t)^dagger.

    Both are `BlockDiagonal`: `ev.forward @ psi` applies U(t) sector by sector.
    """

    propagator: Propagator
    t: float
    forward: BlockDiagonal
    backward: BlockDiagonal


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
    """Open-boundary chain H = -sum_k (x_k x_(k+1) + y_k y_(k+1)).

    x_k x_(k+1) + y_k y_(k+1) flips sites k and k+1 with amplitude 2 when
    they differ and annihilates them otherwise, so H has the entry -2 at
    (b ^ (3 << (k-1)), b) for every b whose bits k-1 and k differ.
    """
    if n_sites < 2:
        raise ValueError("XY chain needs at least 2 sites")
    dim = 2**n_sites
    basis = np.arange(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    for k in range(1, n_sites):
        differ = basis[((basis >> (k - 1)) ^ (basis >> k)) & 1 == 1]
        mat[differ ^ (3 << (k - 1)), differ] = -2.0
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
    return DensityOperator.from_factor(state.n_sites, prop.block_unitary(t) @ state.factor)
