"""N-qubit Hilbert-space primitives: states, the register layout and single-site Pauli kernels.

Basis convention (used everywhere in this package):
the computational basis is indexed by bitstrings, site 1 maps to the least
significant bit, and |up> is bit 0.  Hence basis index 0 is the fully
polarized state |up...up>, and for a single site sigma^z = diag(+1, -1).
Sites are 1-based throughout.

A state rho is carried as a column factor Psi (rows x r) with
rho = Psi Psi^dagger and unit Frobenius norm: r = 1 for a pure state,
r = 2^N for the maximally mixed one.  `all_up_state` and
`maximally_mixed_state` build Psi in computational order, and a run
takes it in its register's order (`protocol.prepare`).  H,
U(t), U(t)^dagger and the evaluators' Psi share one `Register`: the basis
indices a run holds, in row order, cut into the sectors of H, so that U(t)
acts on each sector as a contiguous slice of rows.  A register may hold
every basis index or only some sectors of them, those a run evolves;
the indices are int64, so N is at most MAX_BASIS_SITES.  Single-site
Paulis act on Psi through index kernels in O(rows r) (a row gather and a
row phase), never as dense matrices, and no kernel builds a table of
length 2^N.  Time evolution U(t) is block-diagonal over the sectors; a
time point's `dynamics.Evolution` applies it to a factor of any width in
the eigenbasis of H, and never forms a block of U(t).

The other modules all import this one, so it also holds the tolerances and
`Record`, the base of the package's immutable records.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

ATOL_ALGEBRA = 1e-12   # algebraic identities (hermiticity, a factor's norm, each probability)
ATOL_SPECTRUM = 1e-10  # spectral quantities (reconstructions, unitarity, probability sum)
IDENTITY_TOLERANCE = 1e-9  # |reconstructed - direct| of a protocol identity, in exact and verify

PAULI_AXES = ("x", "y", "z")

# basis indices are int64, and so is 2^N, one past the largest of them
MAX_BASIS_SITES = 62


class Record:
    """Base of the package's immutable records, whose fields are their class's `__slots__`.

    A record's own `__init__` checks its arguments and stores them with
    `_set`; after that, assigning or deleting a field raises AttributeError.
    Records compare and hash field by field, in `__slots__` order, except
    those declared with `eq=False`, which hold arrays and compare by
    identity.  `repr` reads Name(field=value, ...), and `replace(**changes)`
    builds a new record through `__init__`, so the checks run again.
    """

    __slots__ = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def _set(self, *values) -> None:
        """Store the fields, in `__slots__` order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # what copy and pickle restore, as (None, slots)
        self._set(*(state[1][name] for name in self.__slots__))

    def replace(self, **changes):
        """A record of this type with `changes` to the arguments of `__init__`, built by it."""
        code = type(self).__init__.__code__
        fields = {name: getattr(self, name) for name in code.co_varnames[1 : code.co_argcount]}
        return type(self)(**{**fields, **changes})


def check_axis(axis: str) -> None:
    """ValueError unless axis names a Pauli axis."""
    if axis not in PAULI_AXES:
        raise ValueError(f"unknown Pauli axis {axis!r}, expected one of {PAULI_AXES}")


def check_site(site: int, n_sites: int) -> None:
    """IndexError unless site is an integer 1-based site label of an n_sites register."""
    if not (isinstance(site, numbers.Integral) and 1 <= site <= n_sites):
        raise IndexError(f"site {site} out of range for {n_sites} sites")


# `hermiticity_defect` compares M with M^dagger in square tiles of this many
# rows, so that the transposed reads stay in cache and no full-size
# temporary is built
HERMITICITY_TILE = 256


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Max-norm of M - M^dagger.

    |M_ij - conj(M_ji)| is symmetric in (i, j), so only the tiles on and
    above the diagonal are read; np.maximum keeps a NaN entry in the result.
    """
    n, tile = len(matrix), HERMITICITY_TILE
    defect = np.float64(0.0)
    # inf - inf is the NaN the callers' guards reject; it need not warn first
    with np.errstate(invalid="ignore"):
        for i in range(0, n, tile):
            for j in range(i, n, tile):
                upper = matrix[i : i + tile, j : j + tile]
                lower = matrix[j : j + tile, i : i + tile].conj().T
                defect = np.maximum(defect, np.max(np.abs(upper - lower)))
    return float(defect)


def _row_weights(weights, psi: np.ndarray) -> np.ndarray:
    """A per-row (or scalar) weight shaped to broadcast over the rows of psi."""
    return np.reshape(weights, (-1,) + (1,) * (psi.ndim - 1))


class Register:
    """The layout of an n_sites register: its basis indices in row order, its sectors, the kernels.

    Row k of a factor in register order is basis index order[k].  `order`
    is a set of distinct indices in range(2^N), by default all of them in
    computational order; a register that holds only some of them stands for
    the subspace they span, and a factor in its order is zero on every
    index it does not hold.  Sector k is rows bounds[k]:bounds[k+1], and
    `row_sectors` gives each row's k; by default one sector holds every row.  The
    evaluators use H's sectors, so that each block of H and U(t) acts on a
    contiguous slice of rows.

    With m = 1 << (site - 1), sigma^x sends the row of basis index b to the
    row of b ^ m; sigma^y adds the phase -i (bit of b clear) or +i (set),
    and sigma^z is the row sign +1 (clear) or -1 (set).  Each kernel is one
    row gather and one row phase, read from a table built on the first use
    of its (site, axis) and kept for the register's lifetime.  The row of
    b ^ m is found by its rank among the register's sorted indices
    (`np.searchsorted`), so no table of length 2^N is built.  Where the
    register does not hold b ^ m, sigma^x and sigma^y would carry the row's
    weight out of it: `pauli` raises ValueError on a factor with weight
    there, and the row of its result is zero, while `pauli_element` reads
    such rows as zero.  Every map on factors, here and in
    `dynamics.Evolution`, checks them with `check_rows`.
    """

    __slots__ = ("n_sites", "order", "bounds", "sizes", "_rank", "_tables")

    def __init__(
        self, n_sites: int, order: np.ndarray | None = None, bounds: tuple[int, ...] | None = None
    ):
        if not 1 <= n_sites <= MAX_BASIS_SITES:
            raise ValueError(f"a register has 1 to {MAX_BASIS_SITES} sites, got {n_sites}")
        dim = 2**n_sites
        if order is None:
            order = rank = np.arange(dim)
        else:
            order = np.asarray(order)
            valid = order.ndim == 1 and len(order) > 0 and order.dtype.kind in "iu"
            if valid:
                # the rows in ascending index order, which the x and y kernels search
                rank = np.argsort(order, kind="stable")
                ranked = order[rank]
                valid = 0 <= ranked[0] and ranked[-1] < dim and bool((np.diff(ranked) > 0).all())
            if not valid:
                raise ValueError(f"register order is not a permutation of a subset of range({dim})")
        rows = len(order)
        bounds = tuple(map(int, bounds)) if bounds is not None else (0, rows)
        if bounds[:1] != (0,) or bounds[-1:] != (rows,) or not (np.diff(bounds) > 0).all():
            raise ValueError(f"sector bounds {bounds} do not tile a {rows}-row register")
        self.n_sites = n_sites
        self.order = order.astype(np.int64, copy=False)
        self.bounds = bounds
        self.sizes = tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))
        self._rank = rank
        self._tables: dict[tuple[int, str], tuple[np.ndarray | None, ...]] = {}

    def row_sectors(self) -> np.ndarray:
        """The sector of each row, in row order."""
        return np.repeat(np.arange(len(self.sizes)), self.sizes)

    def check_rows(self, psi: np.ndarray) -> None:
        """ValueError unless psi has one row per basis index of the register."""
        if psi.shape[0] != len(self.order):
            raise ValueError(f"factor has {psi.shape[0]} rows, expected {len(self.order)}")

    def _kernel(self, site: int, axis: str):
        """(row gather or None, row phase or None, rows lacking a partner or None) of sigma^axis."""
        table = self._tables.get((site, axis))
        if table is None:
            check_site(site, self.n_sites)
            check_axis(axis)
            mask = 1 << (site - 1)
            sign = np.where(self.order & mask, -1.0, 1.0)
            if axis == "z":
                table = (None, sign, None)
            else:
                partner = self.order ^ mask
                found = np.searchsorted(self.order, partner, sorter=self._rank)
                gather = self._rank.take(found, mode="clip")
                lost = np.flatnonzero(self.order[gather] != partner)
                phase = None if axis == "x" else -1j * sign
                if len(lost):  # a zero row of the matrix: the row gathers itself, phase 0
                    gather[lost] = lost
                    phase = np.ones(len(sign)) if phase is None else phase
                    phase[lost] = 0.0
                table = (gather, phase, lost if len(lost) else None)
            self._tables[site, axis] = table
        return table

    def pauli_entries(self, site: int, axis: str) -> tuple[np.ndarray, np.ndarray]:
        """(columns, values) of sigma_site^axis in register order, compressed to the register.

        Row r of the matrix holds values[r] at column columns[r] and zeros
        elsewhere; these are the entries that `pauli` applies.  A row whose
        partner the register does not hold has the value 0.
        """
        gather, phase, _ = self._kernel(site, axis)
        rows = len(self.order)
        values = np.ones(rows) if phase is None else phase
        return (np.arange(rows) if gather is None else gather), values

    def pauli(self, psi: np.ndarray, site: int, axis: str) -> np.ndarray:
        """sigma_site^axis @ psi in O(psi.size), for psi of shape (rows,) or (rows, r).

        ValueError if psi has weight on a row that sigma_site^axis takes out of the register.
        """
        gather, phase, lost = self._kernel(site, axis)
        self.check_rows(psi)
        if lost is not None and np.count_nonzero(psi[lost]):
            raise ValueError(f"sigma_{site}^{axis} takes the factor's weight out of the register")
        return _gather_and_phase(psi, gather, phase)

    def pauli_element(self, bra: np.ndarray, ket: np.ndarray, site: int, axis: str) -> complex:
        """<bra|sigma_site^axis ket>, traced over the columns; a row without a partner adds 0.

        Exact, as bra is zero off the register, also for a ket that `pauli`
        rejects; for any other ket it is np.vdot(bra, pauli(ket, site, axis)).
        """
        gather, phase, _ = self._kernel(site, axis)
        self.check_rows(bra)
        self.check_rows(ket)
        return complex(np.vdot(bra, _gather_and_phase(ket, gather, phase)))


def _gather_and_phase(psi: np.ndarray, gather, phase) -> np.ndarray:
    """psi's rows taken by a kernel's row gather, times its row phase, as a new array."""
    if gather is None:
        return _row_weights(phase, psi) * psi
    result = psi[gather]
    if phase is not None:
        result = result.astype(complex, copy=False)
        result *= _row_weights(phase, result)  # in place on the gather
    return result


def all_up_state(n_sites: int) -> np.ndarray:
    """The fully polarized +z product state's factor, read-only: basis vector 0, 2^N x 1."""
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    factor = np.eye(2**n_sites, 1, dtype=complex)  # |up...up> is basis index 0
    factor.flags.writeable = False
    return factor


def maximally_mixed_state(n_sites: int) -> np.ndarray:
    """The factor of Identity / 2^N, read-only: the identity / sqrt(2^N)."""
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    dim = 2**n_sites
    factor = np.eye(dim, dtype=complex) / math.sqrt(dim)
    factor.flags.writeable = False
    return factor
