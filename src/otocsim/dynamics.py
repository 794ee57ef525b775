"""Hamiltonian construction and exact unitary time evolution.

Units: the XY coupling constant is 1 and hbar = 1, so time is
dimensionless.  A `Hamiltonian` is its sector blocks, and its builder
declares them: `build_xy_chain` writes the Hamming-weight sectors of the
XY chain as real blocks by index, only for the weights it is asked for,
and declares the open chain's reflection and, when its weights are closed
under w -> N - w, the global spin flip X^N; `Hamiltonian.from_matrix`
holds a dense H as one complex block in computational order.  Evolution
is exact via a cached Hermitian eigendecomposition per block, in the
block's own dtype; a block with a declared reflection is diagonalized as
its even and odd parts, and a sector that the flip mirrors takes its
mirror's decomposition with the rows of V reversed.
`Propagator.evolution(t)` gives the `Evolution` of one time point: the
phases e^(-iwt) of every block.  It applies U(t) and U(t)^dagger to a
factor of any width in the eigenbasis, as V (phase * V^dagger psi), and
returns the result as a new array; no block of U(t) is formed.  The
evaluators of a time point take the run's `protocol.PreparedState` or
`traces.PreparedTrace`, which holds the propagator, and the time t,
and each makes the point's `Evolution` itself; the traces of
`PreparedTrace` read only its phases.  H and its eigenbasis, and so
U(t) and U(t)^dagger, carry the same `hilbert.Register`, the row order
and sector bounds of H, and act on factors whose rows are in that
order, where each block is a contiguous slice of rows.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .hilbert import ATOL_ALGEBRA, ATOL_SPECTRUM, Record, Register, hermiticity_defect


class EvolutionTimeError(ValueError):
    """A time t at which some phase w t of U(t) = e^(-iHt) is not a finite float."""


class Hamiltonian(Record, eq=False):
    """Hermitian generator of the dynamics, held as its sector blocks.

    blocks[k] is H on sector k of `register`, one block per sector; H is
    exactly zero between sectors.  Each block keeps its own dtype: real
    float64 for the XY chain, which `build_xy_chain` writes sector by
    sector, complex for the one block of a dense H from `from_matrix`.
    Every block is checked Hermitian; since H is zero off the blocks, the
    worst block defect is the whole-matrix defect.

    `reflection`, when a builder declares one, is a symmetry of H as a row
    permutation in register order: an involution that keeps every sector.
    It is checked to be one here; that it commutes with H is checked where
    it is used, by `Propagator.from_hamiltonian`.

    `flip`, when a builder declares it, is the global spin flip X^N as a
    map of sectors: X^N sends sector k onto sector flip[k].  X^N sends
    basis index b to its complement b ^ (2^N - 1), which reverses the
    order of a sector's indices, so it is checked here, exactly, that flip
    is an involution, that the complements of sector k's indices are
    sector flip[k]'s in reverse order, and that
    blocks[flip[k]] == blocks[k][::-1, ::-1], which is X^N H X^N = H.
    """

    __slots__ = ("register", "blocks", "reflection", "flip")

    def __init__(
        self, register: Register, blocks: tuple[np.ndarray, ...],
        reflection: np.ndarray | None = None, flip: tuple[int, ...] | None = None,
    ):
        self._set(register, blocks, reflection, flip)
        shapes = tuple(block.shape for block in blocks)
        if shapes != tuple((s, s) for s in register.sizes):
            raise ValueError(f"Hamiltonian blocks {shapes} do not tile sectors {register.sizes}")
        for block in blocks:
            if not hermiticity_defect(block) <= ATOL_ALGEBRA:
                raise ValueError("Hamiltonian is not Hermitian")
        if reflection is not None:
            mirror = np.asarray(reflection)
            rows = np.arange(len(register.order))
            sector = register.row_sectors()
            if not (
                mirror.shape == rows.shape
                and mirror.dtype.kind in "iu"
                and ((0 <= mirror) & (mirror < len(rows))).all()
                and np.array_equal(mirror[mirror], rows)
                and np.array_equal(sector[mirror], sector)
            ):
                raise ValueError("reflection is not an involution of the rows of each sector")
        if flip is not None and not self._is_spin_flip(tuple(flip)):
            raise ValueError(
                "flip is not the spin flip: an involution of the sectors that sends each "
                "onto its complement, with the block reversed"
            )

    def _is_spin_flip(self, flip: tuple[int, ...]) -> bool:
        """Whether flip is X^N on this register and H, as the class docstring states."""
        register, blocks = self.register, self.blocks
        sectors = range(len(register.sizes))
        if len(flip) != len(sectors) or not all(
            isinstance(f, (int, np.integer)) and f in sectors and flip[f] == k
            for k, f in enumerate(flip)
        ):
            return False
        complement, order, bounds = 2**register.n_sites - 1, register.order, register.bounds
        for k, f in enumerate(flip):
            if k <= f and not (
                np.array_equal(order[bounds[f] : bounds[f + 1]][::-1],
                               complement ^ order[bounds[k] : bounds[k + 1]])
                and np.array_equal(blocks[f], blocks[k][::-1, ::-1])
            ):
                return False
        return True

    @classmethod
    def from_matrix(cls, n_sites: int, matrix: np.ndarray) -> "Hamiltonian":
        """A dense 2^N x 2^N H as one block, in computational order.

        The block is a copy of the matrix, so H does not alias the caller's array.
        """
        mat = np.array(matrix, dtype=complex)
        dim = 2**n_sites
        if mat.shape != (dim, dim):
            raise ValueError(f"Hamiltonian has shape {mat.shape}, expected {(dim, dim)}")
        return cls(Register(n_sites), (mat,))

    @property
    def n_sites(self) -> int:
        return self.register.n_sites


def _checked_eigh(part: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """eigh of a Hermitian matrix, with max|V diag(w) V^dagger - part| and max|V^dagger V - I|."""
    w, v = np.linalg.eigh(part)
    # a non-finite part makes NaN products, which the caller's guards reject
    with np.errstate(invalid="ignore"):
        residual = np.abs((v * w) @ v.conj().T - part).max(initial=0.0)
        unit = np.abs(v.conj().T @ v - np.eye(len(w))).max(initial=0.0)
    return w, v, float(residual), float(unit)


def _parity_parts(block: np.ndarray, mirror: np.ndarray, reps: np.ndarray, paired: np.ndarray):
    """(even part, odd part, max|R H R - H|) of a block; see `_eigh_by_parity`.

    Its gathers are dropped on return, before the parts are diagonalized.
    """
    # rows, then columns: a gather per axis is several times faster than np.ix_
    rep_rows = block[reps]
    # rows reps of R H R - H; the other rows repeat them, as R is an involution
    commutator = block[mirror[reps]][:, mirror]
    same, across = rep_rows[:, reps], rep_rows[:, mirror[reps]]
    scale = np.where(paired, 1.0, math.sqrt(0.5))
    # a non-finite block makes NaN parts and defects, which the caller's guards reject
    with np.errstate(invalid="ignore"):
        commutator -= rep_rows
        defect = np.abs(commutator, out=commutator).max(initial=0.0)
        return (same + across) * np.outer(scale, scale), (same - across)[paired][:, paired], defect


def _eigh_by_parity(block: np.ndarray, mirror: np.ndarray):
    """(w, V, part sizes, residual, unitarity defect) of a block split by a reflection.

    `mirror` is the reflection R as a permutation of the block's rows.
    Rows pair off as (a, R a), or are fixed by R; `reps` are the fixed rows
    and the first row a < R a of each pair.  The even part acts on
    (e_a + e_(R a))/sqrt2 for a pair and e_a for a fixed row, the odd part
    on (e_a - e_(R a))/sqrt2 for a pair.  As R H R = H, their matrices are
    (H_ab +/- H_a(R b)) scaled by 1/sqrt2 for each fixed index, and nothing
    couples them.  Each part gets its own `eigh` (an empty part is allowed),
    and the columns of V, even then odd, are assembled in the block's row
    order.  The residual is the worse of the parts' own and of
    max|R H R - H|; together they bound the whole block's residual to
    within a factor of 2, since each row of the basis change has at most
    two entries, each at most 1 in modulus.
    """
    reps = np.flatnonzero(np.arange(len(block)) <= mirror)
    paired = mirror[reps] != reps
    even, odd, commutator = _parity_parts(block, mirror, reps, paired)
    w_even, v_even, res_even, unit_even = _checked_eigh(even)
    w_odd, v_odd, res_odd, unit_odd = _checked_eigh(odd)
    n_even, half = len(w_even), math.sqrt(0.5)
    v = np.zeros_like(block)
    v[reps, :n_even] = v[mirror[reps], :n_even] = v_even * np.where(paired, half, 1.0)[:, None]
    lead = reps[paired]
    v[lead, n_even:] = v_odd * half
    v[mirror[lead], n_even:] = v_odd * -half
    residual = np.maximum.reduce([res_even, res_odd, commutator])  # keeps a NaN
    unit = np.maximum(unit_even, unit_odd)
    return np.concatenate([w_even, w_odd]), v, (n_even, len(w_odd)), residual, unit


class Propagator(Record, eq=False):
    """Cached spectral decomposition of H, one eigendecomposition per sector block.

    Each block of H is diagonalized in its own dtype (real arithmetic for
    the XY chain) as H_k = V_k diag(w_k) V_k^dagger; a block with a declared
    reflection is diagonalized as its even and odd parts (`_eigh_by_parity`),
    and its V_k assembled from theirs in register order.  Where H declares
    the spin flip, only the representative of each mirror pair, the lower
    sector k <= flip[k], is diagonalized: the mirrored sector m has
    H_m = J H_k J exactly, J the row reversal, so it takes w_k itself and
    V_m = J V_k, the rows of V_k reversed, as a view.  That is an exact
    eigendecomposition of H_m: its residual V_m diag(w_k) V_m^T - H_m is
    H_k's with rows and columns reversed, so the checks on H_k cover it.
    No matrix product reads a mirrored V_m, which BLAS cannot take with
    its negative stride: `Evolution.apply` reverses the factor's rows
    instead, and the eigenbasis blocks of `traces` are formed by row
    gathers.  `flip` is H's, and `mirrored` lists the mirrored sectors.
    `eigh_sizes` are the sizes of the nonempty matrices `eigh` ran on.
    Immutable after construction; `evolution(t)` takes the phases
    e^(-iwt) from it.
    `register` is H's own: the row order of `eigenvectors`, one V_k per
    sector, and of the factors the evolution acts on.  Its kernel tables
    are built on first use.
    `reconstruction_residual` and `unitarity_defect` are the worst
    max|V diag(w) V^dagger - H| and max|V^dagger V - I| over the matrices
    `eigh` ran on, the residual including each split block's
    max|R H_k R - H_k|; as H and the assembled decomposition are both
    exactly zero off the blocks, an unsplit block's defects are the
    whole-matrix ones.
    """

    __slots__ = (
        "register", "eigenvectors", "block_eigenvalues", "eigh_sizes", "reconstruction_residual",
        "unitarity_defect", "flip",
    )

    def __init__(
        self, register: Register, eigenvectors: tuple[np.ndarray, ...],
        block_eigenvalues: tuple[np.ndarray, ...], eigh_sizes: tuple[int, ...],
        reconstruction_residual: float, unitarity_defect: float,
        flip: tuple[int, ...] | None = None,
    ):
        self._set(
            register, eigenvectors, block_eigenvalues, eigh_sizes, reconstruction_residual,
            unitarity_defect, flip,
        )

    @classmethod
    def from_hamiltonian(cls, ham: Hamiltonian) -> "Propagator":
        register, flip = ham.register, ham.flip
        evals, evecs, sizes = [], [], []
        residual = unit = 0.0
        for k, (lo, hi, block) in enumerate(zip(register.bounds, register.bounds[1:], ham.blocks)):
            if flip is not None and flip[k] < k:
                evals.append(evals[flip[k]])
                evecs.append(evecs[flip[k]][::-1])
                continue
            if ham.reflection is None:
                w, v, block_residual, block_unit = _checked_eigh(block)
                parts = (len(w),)
            else:
                w, v, parts, block_residual, block_unit = _eigh_by_parity(
                    block, ham.reflection[lo:hi] - lo
                )
            # np.maximum, unlike max, keeps a NaN defect whatever the block order
            residual = float(np.maximum(residual, block_residual))
            unit = float(np.maximum(unit, block_unit))
            evals.append(w)
            evecs.append(v)
            sizes += [size for size in parts if size]
        if not residual <= ATOL_SPECTRUM:
            raise ValueError(f"eigendecomposition residual {residual} above tolerance")
        if not unit <= ATOL_SPECTRUM:
            raise ValueError(f"eigenvector unitarity defect {unit} above tolerance")
        flip = None if flip is None else tuple(map(int, flip))
        return cls(register, tuple(evecs), tuple(evals), tuple(sizes), residual, unit, flip)

    @property
    def mirrored(self) -> tuple[int, ...]:
        """The sectors that take their mirror's decomposition, ascending."""
        return tuple([k for k, f in enumerate(self.flip or ()) if f < k])

    @property
    def n_sites(self) -> int:
        return self.register.n_sites

    def evolution(self, t: float) -> "Evolution":
        """U(t) and its adjoint for every evaluator of time point t.

        U(t) = e^(-iHt) is V_k diag(e^(-i w_k t)) V_k^dagger on each sector;
        the `Evolution` holds the phases.  A t that is not finite, or so
        large that some w_k t overflows, raises `EvolutionTimeError`.
        """
        phases, mirrored = [], self.mirrored
        for k, w in enumerate(self.block_eigenvalues):
            if k in mirrored:
                phases.append(phases[self.flip[k]])  # the mirror's eigenvalues
                continue
            with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
                angle = w * t
            if not np.isfinite(angle).all():
                raise EvolutionTimeError(f"evolution time t={t} makes a phase w*t non-finite")
            phase = np.empty(len(angle), dtype=complex)
            phase.real, phase.imag = np.cos(angle), -np.sin(angle)
            phases.append(phase)
        return Evolution(self, tuple(phases))


class Evolution(Record, eq=False):
    """U(t) = e^(-iHt) at one time point, and U(t)^dagger, on factors in `register` order.

    `ev.forward(psi)` and `ev.backward(psi)` return U(t) psi and
    U(t)^dagger psi, sector by sector, for psi of shape (rows,) or (rows, r),
    of any width r, in the eigenbasis: V (phase * V^dagger psi), which for
    a real V is two real products on psi's (re, im) pairs.  No block of
    U(t) is ever formed.  The register and the eigenvectors V are the
    propagator's.
    """

    __slots__ = ("propagator", "phases")

    def __init__(self, propagator: Propagator, phases: tuple[np.ndarray, ...]):
        self._set(propagator, phases)

    @property
    def register(self) -> Register:
        return self.propagator.register

    def forward(self, psi: np.ndarray) -> np.ndarray:
        return self.apply(psi)

    def backward(self, psi: np.ndarray) -> np.ndarray:
        return self.apply(psi, adjoint=True)

    def apply(self, psi: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """U(t) psi, or U(t)^dagger psi when `adjoint`, as a new array, rows in register order.

        Block k reads rows bounds[k]:bounds[k+1] of psi, so every product
        works on contiguous slices.  Their coefficients V^dagger psi go into
        the first rows of one buffer of the largest sector's rows, which the
        blocks of a call share, before the block writes the same rows of the
        result.  A mirrored sector, V_m = J V_k, applies its mirror's V_k to
        a reversed copy of its rows and reverses the rows it writes, as
        U_m = J U_k J.  A psi without one row per basis index raises ValueError.
        """
        self.register.check_rows(psi)
        # (rows, r), C-contiguous, so that its row slices view as (re, im) float pairs
        columns = np.ascontiguousarray(psi, dtype=complex).reshape(len(psi), -1)
        bounds, vectors = self.register.bounds, self.propagator.eigenvectors
        flip, mirrored = self.propagator.flip, self.propagator.mirrored
        result = np.empty(columns.shape, dtype=complex)
        buffer = np.empty((max(map(len, self.phases)), columns.shape[1]), dtype=complex)
        for k, (lo, hi, v, phase) in enumerate(zip(bounds, bounds[1:], vectors, self.phases)):
            phase = (phase.conj() if adjoint else phase)[:, None]
            coeffs, rows, out = buffer[: hi - lo], columns[lo:hi], result[lo:hi]
            if k in mirrored:  # the reversed rows go through the result's, which BLAS reads
                v, out[:] = vectors[flip[k]], rows[::-1]
                rows = out
            if v.dtype.kind == "f":
                np.matmul(v.T, rows.view(float), out=coeffs.view(float))
                coeffs *= phase
                np.matmul(v, coeffs.view(float), out=out.view(float))
            else:
                np.matmul(v.T, rows.conj(), out=coeffs)
                np.conjugate(coeffs, out=coeffs)  # V^dagger psi
                coeffs *= phase
                np.matmul(v, coeffs, out=out)
            if k in mirrored:  # reversed through the spent coefficients' rows
                coeffs[:] = out
                out[:] = coeffs[::-1]
        return result.reshape(psi.shape)


def check_chain_sites(n_sites: int) -> None:
    """ValueError unless an XY chain of n_sites sites has a bond to build."""
    if n_sites < 2:
        raise ValueError(f"an XY chain needs n_sites >= 2, got {n_sites}")


def _weight_strings(n_sites: int, top: int) -> list[np.ndarray]:
    """The n_sites-bit strings of each Hamming weight 0..top, each weight's ascending, as int64."""
    strings = [np.zeros(1, dtype=np.int64)] + [np.zeros(0, dtype=np.int64)] * top
    for bit in range(n_sites):
        # over bits 0..bit: the strings with this bit clear, then the larger ones with it set
        strings = [strings[0]] + [
            np.concatenate([strings[w], strings[w - 1] | (1 << bit)]) for w in range(1, top + 1)
        ]
    return strings


def build_xy_chain(n_sites: int, weights: Sequence[int] | None = None) -> Hamiltonian:
    """Open-boundary chain H = -sum_k (x_k x_(k+1) + y_k y_(k+1)), as its Hamming-weight blocks.

    x_k x_(k+1) + y_k y_(k+1) flips sites k and k+1 with amplitude 2 when
    they differ and annihilates them otherwise, so H has the entry -2 at
    (b ^ (3 << (k-1)), b) for every b whose bits k-1 and k differ.  Such a
    flip keeps the Hamming weight, so H is written straight into one real
    C(N, w) x C(N, w) block per weight w in `weights` (all N + 1 of them by
    default), its basis indices in ascending order, and a flipped string's
    row is its rank in the sector; no array of length 2^N is formed.  The
    register holds those sectors, in the order given.  The chain's
    reflection, site k to site N + 1 - k, sends b to its bit reversal,
    keeps the weight and maps the bond terms onto each other; it is
    declared as `reflection`.  The global spin flip X^N sends b to its
    complement, weight w to N - w, and keeps every bond term; where the
    weights are closed under w -> N - w (always for the whole chain) it is
    declared as `flip`.  The complement reverses the ascending order of a
    sector, so block N - w is block w reversed on both axes, bit for bit.
    """
    check_chain_sites(n_sites)
    weights = tuple(range(n_sites + 1)) if weights is None else tuple(weights)
    if not weights or len(set(weights)) != len(weights) or not all(
        0 <= w <= n_sites for w in weights
    ):
        raise ValueError(f"weights {weights} are not distinct Hamming weights of 0..{n_sites}")
    strings = _weight_strings(n_sites, max(weights))
    sectors = [strings[w] for w in weights]
    bounds = (0, *np.cumsum([len(basis) for basis in sectors]).tolist())
    register = Register(n_sites, np.concatenate(sectors), bounds)
    blocks = []
    for basis in sectors:
        block = np.zeros((len(basis), len(basis)))
        for k in range(1, n_sites):
            cols = np.flatnonzero(((basis >> (k - 1)) ^ (basis >> k)) & 1)
            block[np.searchsorted(basis, basis[cols] ^ (3 << (k - 1))), cols] = -2.0
        blocks.append(block)
    order = register.order
    reverse = sum(((order >> s) & 1) << (n_sites - 1 - s) for s in range(n_sites))
    reflection = np.concatenate([
        lo + np.searchsorted(basis, reverse[lo:hi])
        for lo, hi, basis in zip(bounds, bounds[1:], sectors)
    ])
    closed = set(weights) == {n_sites - w for w in weights}
    flip = tuple(weights.index(n_sites - w) for w in weights) if closed else None
    return Hamiltonian(register, tuple(blocks), reflection, flip)

