"""Hamiltonian construction and exact unitary time evolution.

Units: the XY coupling constant is 1 and hbar = 1, so time is
dimensionless.  A `Hamiltonian` is its sector blocks: `build_xy_chain`
writes the Hamming-weight sectors of the XY chain as real blocks by
index, and `Hamiltonian.from_matrix` splits a dense H into the connected
components of its nonzero pattern.  Evolution is exact via a cached
Hermitian eigendecomposition per block, in the block's own dtype;
backward evolution is the adjoint U(t)^dagger = U(-t).
`Propagator.evolution(t)` is the one place U(t) is built: the `Evolution`
it returns holds the sector blocks of U(t) and U(t)^dagger for one time
point, and is the only form in which the evaluators of that point
receive the dynamics.  Every block-diagonal operator of one H (H, its
eigenbasis, U(t), U(t)^dagger) carries the same `hilbert.Register`, the
row order and sector bounds of H, and acts on factors whose rows are in
that order, where each block is a contiguous slice of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hilbert import ATOL_ALGEBRA, ATOL_SPECTRUM, DensityOperator, Register, hermiticity_defect

PairCoupling = tuple[int, str, int, str, float]  # (site_k, axis_a, site_l, axis_b, coeff)
LocalField = tuple[int, str, float]              # (site, axis, coeff)


class EvolutionTimeError(ValueError):
    """A time t at which some phase w t of U(t) = e^(-iHt) is not a finite float."""


def connected_sectors(n_sites: int, matrix: np.ndarray) -> Register:
    """The register whose sectors are the connected components of matrix's nonzero pattern.

    The matrix is exactly zero outside these diagonal blocks.  Indices
    ascend within a sector and sectors come in the order of their smallest
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
    counts = np.bincount(labels, minlength=dim)
    bounds = (0, *np.cumsum(counts[counts > 0]).tolist())
    return Register(n_sites, np.argsort(labels, kind="stable"), bounds)


@dataclass(frozen=True, eq=False)
class BlockDiagonal:
    """Operator that is zero outside the sectors of `register`, one matrix per sector."""

    register: Register
    blocks: tuple[np.ndarray, ...]

    def with_blocks(self, blocks) -> "BlockDiagonal":
        return BlockDiagonal(self.register, tuple(blocks))

    def adjoint(self) -> "BlockDiagonal":
        return self.with_blocks(block.conj().T for block in self.blocks)

    def __matmul__(self, psi: np.ndarray) -> np.ndarray:
        """This operator applied to psi of shape (2^N,) or (2^N, r), rows in register order.

        Block k reads rows bounds[k]:bounds[k+1] of psi and writes the same
        rows of the result, so every product works on contiguous slices.
        """
        bounds = self.register.bounds
        if len(self.blocks) == 1:
            return self.blocks[0] @ psi
        result = np.empty(psi.shape, dtype=np.result_type(psi, *self.blocks))
        for lo, hi, block in zip(bounds, bounds[1:], self.blocks):
            np.matmul(block, psi[lo:hi], out=result[lo:hi])
        return result


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Hermitian generator of the dynamics, held as its sector blocks.

    H is exactly zero outside the sectors of `blocks.register`, and each
    block keeps its own dtype: real float64 for the XY chain, which
    `build_xy_chain` writes sector by sector, complex for a dense H split
    by `from_matrix`.  Every block is checked Hermitian; since H is zero
    off the blocks, the worst block defect is the whole-matrix defect.
    """

    blocks: BlockDiagonal

    def __post_init__(self):
        register = self.blocks.register
        shapes = tuple(block.shape for block in self.blocks.blocks)
        if shapes != tuple((s, s) for s in register.sizes):
            raise ValueError(f"Hamiltonian blocks {shapes} do not tile sectors {register.sizes}")
        for block in self.blocks.blocks:
            if not hermiticity_defect(block) <= ATOL_ALGEBRA:
                raise ValueError("Hamiltonian is not Hermitian")

    @classmethod
    def from_matrix(cls, n_sites: int, matrix: np.ndarray) -> "Hamiltonian":
        """A dense 2^N x 2^N H, split into the connected sectors of its nonzero pattern.

        Every nonzero entry lies in one of those blocks, so the per-block
        hermiticity check reads all of the matrix.
        """
        mat = np.asarray(matrix, dtype=complex)
        dim = 2**n_sites
        if mat.shape != (dim, dim):
            raise ValueError(f"Hamiltonian has shape {mat.shape}, expected {(dim, dim)}")
        register = connected_sectors(n_sites, mat)
        sectors = (register.sector(k) for k in range(len(register.sizes)))
        return cls(BlockDiagonal(register, tuple(mat[np.ix_(rows, rows)] for rows in sectors)))

    @property
    def n_sites(self) -> int:
        return self.blocks.register.n_sites

    @property
    def matrix(self) -> np.ndarray:
        """The dense complex 2^N x 2^N H, assembled on each call; for tests and oracles."""
        register = self.blocks.register
        mat = np.zeros((2**self.n_sites,) * 2, dtype=complex)
        for k, block in enumerate(self.blocks.blocks):
            mat[np.ix_(register.sector(k), register.sector(k))] = block
        return mat


@dataclass(frozen=True)
class Propagator:
    """Cached spectral decomposition of H, one eigendecomposition per sector block.

    Each block of H is diagonalized in its own dtype (real arithmetic for
    the XY chain) as H_k = V_k diag(w_k) V_k^dagger.  Immutable after
    construction; `evolution(t)` builds e^(-iHt) from it block by block.
    `register` is H's own, read from the eigenbasis: the row order of the
    factors the evolution acts on; its kernel tables are built on first use.
    `reconstruction_residual` and `unitarity_defect` are the worst
    max|V_k diag(w_k) V_k^dagger - H_k| and max|V_k^dagger V_k - I| over the
    blocks; since H and the assembled decomposition are both exactly zero
    off the blocks, they equal the whole-matrix defects.
    """

    eigenbasis: BlockDiagonal
    block_eigenvalues: tuple[np.ndarray, ...]
    reconstruction_residual: float
    unitarity_defect: float

    @classmethod
    def from_hamiltonian(cls, ham: Hamiltonian) -> "Propagator":
        evals, evecs = [], []
        residual = unit = 0.0
        for block in ham.blocks.blocks:
            w, v = np.linalg.eigh(block)
            # np.maximum, unlike max, keeps a NaN defect whatever the block order;
            # a non-finite block makes NaN products, which the guards below reject
            with np.errstate(invalid="ignore"):
                residual = float(
                    np.maximum(residual, np.max(np.abs((v * w) @ v.conj().T - block)))
                )
                unit = float(np.maximum(unit, np.max(np.abs(v.conj().T @ v - np.eye(len(w))))))
            evals.append(w)
            evecs.append(v)
        if not residual <= ATOL_SPECTRUM:
            raise ValueError(f"eigendecomposition residual {residual} above tolerance")
        if not unit <= ATOL_SPECTRUM:
            raise ValueError(f"eigenvector unitarity defect {unit} above tolerance")
        return cls(ham.blocks.with_blocks(evecs), tuple(evals), residual, unit)

    @property
    def register(self) -> Register:
        return self.eigenbasis.register

    @property
    def n_sites(self) -> int:
        return self.register.n_sites

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return self.register.sizes

    def evolution(self, t: float) -> "Evolution":
        """U(t) and its adjoint for every evaluator of time point t.

        U(t) = e^(-iHt) is one block per sector,
        U_k(t) = V_k diag(cos w_k t) V_k^dagger - i V_k diag(sin w_k t) V_k^dagger:
        two real products when V_k is real.  A t that is not finite, or so
        large that some w_k t overflows, raises `EvolutionTimeError`.
        """
        blocks = []
        for v, w in zip(self.eigenbasis.blocks, self.block_eigenvalues):
            with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
                phase = w * t
            if not np.isfinite(phase).all():
                raise EvolutionTimeError(f"evolution time t={t} makes a phase w*t non-finite")
            v_h = v.conj().T
            # the real-plus-complex sum is taken in place: numpy's mixed-dtype
            # binary subtraction is several times slower than the products
            block = ((v * np.sin(phase)) @ v_h) * -1j
            block += (v * np.cos(phase)) @ v_h
            blocks.append(block)
        forward = self.eigenbasis.with_blocks(blocks)
        return Evolution(forward, forward.adjoint())


@dataclass(frozen=True, eq=False)
class Evolution:
    """U(t) = e^(-iHt) at one time point, and U(t)^dagger, on factors in `register` order.

    Both are `BlockDiagonal` over the propagator's register: `ev.forward @ psi`
    applies U(t) sector by sector.
    """

    forward: BlockDiagonal
    backward: BlockDiagonal

    @property
    def register(self) -> Register:
        return self.forward.register

    def check(self, register: Register) -> Register:
        """This evolution's register, after checking that factors in `register` order fit it."""
        if register.n_sites != self.register.n_sites:
            raise ValueError("dimension mismatch between state and propagator")
        if register is not self.register and not np.array_equal(
            register.order, self.register.order
        ):
            raise ValueError("state and propagator hold their rows in different orders")
        return self.register


def build_xy_chain(n_sites: int) -> Hamiltonian:
    """Open-boundary chain H = -sum_k (x_k x_(k+1) + y_k y_(k+1)), as its Hamming-weight blocks.

    x_k x_(k+1) + y_k y_(k+1) flips sites k and k+1 with amplitude 2 when
    they differ and annihilates them otherwise, so H has the entry -2 at
    (b ^ (3 << (k-1)), b) for every b whose bits k-1 and k differ.  Such a
    flip keeps the Hamming weight, so H is written straight into one real
    C(N, w) x C(N, w) block per weight w, its basis indices in ascending
    order; no 2^N x 2^N array is formed.
    """
    if n_sites < 2:
        raise ValueError("XY chain needs at least 2 sites")
    basis = np.arange(2**n_sites)
    weight = sum((basis >> s) & 1 for s in range(n_sites))
    sizes = [math.comb(n_sites, w) for w in range(n_sites + 1)]
    bounds = (0, *np.cumsum(sizes).tolist())
    register = Register(n_sites, np.argsort(weight, kind="stable"), bounds)
    local = np.empty_like(basis)  # position of each basis index within its block
    local[register.order] = basis - np.repeat(bounds[:-1], sizes)
    cols = np.concatenate(
        [basis[((basis >> (k - 1)) ^ (basis >> k)) & 1 == 1] for k in range(1, n_sites)]
    )
    rows = cols ^ np.repeat([3 << (k - 1) for k in range(1, n_sites)], 2 ** (n_sites - 1))
    blocks = tuple(np.zeros((size, size)) for size in sizes)
    for w, block in enumerate(blocks):
        flip = weight[cols] == w
        block[local[rows[flip]], local[cols[flip]]] = -2.0
    return Hamiltonian(BlockDiagonal(register, blocks))


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
    register = Register(n_sites)  # computational order
    eye = np.eye(dim, dtype=complex)
    mat = np.zeros_like(eye)
    for site_k, axis_a, site_l, axis_b, coeff in pair_couplings:
        mat += coeff * register.pauli(register.pauli(eye, site_l, axis_b), site_k, axis_a)
    for site, axis, coeff in fields:
        mat += coeff * register.pauli(eye, site, axis)
    for term in extra_terms:
        term = np.asarray(term, dtype=complex)
        if term.shape != (dim, dim):
            raise ValueError(f"extra term has shape {term.shape}, expected {(dim, dim)}")
        if not hermiticity_defect(term) <= ATOL_ALGEBRA:
            raise ValueError("extra term is not Hermitian")
        mat += term
    return Hamiltonian.from_matrix(n_sites, mat)


def evolve(state: DensityOperator, ev: Evolution) -> DensityOperator:
    """Schroedinger evolution, U(t) of `ev` applied to the state factor.

    The factor is taken into the evolution's register order and back, so
    the result is in computational order, like every `DensityOperator`.
    """
    register = ev.register
    if state.n_sites != register.n_sites:
        raise ValueError("dimension mismatch between state and propagator")
    psi = register.from_computational(state.factor)
    return DensityOperator.from_factor(state.n_sites, register.to_computational(ev.forward @ psi))
