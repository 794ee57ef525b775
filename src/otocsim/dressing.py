"""Reduced two-atom model of microwave-assisted Rydberg dressing.

Each atom has three levels: ground g, Rydberg S and Rydberg P.  A laser
couples g<->S, a microwave couples S<->P.  Pairs interact through a van
der Waals channel c6/r^6 on |SS> and a resonant dipolar exchange c3/r^3
between |SP> and |PS>.  Everything is expressed in the frame rotating
with both drives, in MHz and micrometers.

Detuning convention: a detuning is the rotating-frame energy of the upper
level of its transition, so a drive red of resonance has positive
detuning.  The S level sits at delta_laser and the P level at
delta_laser + delta_microwave.

The model deliberately collapses the many real potential curves of a
Rydberg pair into one vdW channel and one dipolar channel, so it
reproduces the sign-inversion mechanism (avoided crossing reflecting the
pair potential about the laser-targeted energy) but not any particular
atom's quantitative curves.  The default coefficients below are
illustrative values placing the crossing near 3-4 um, not atomic data.
The search for a drive that inverts the coupling is `sign_inversion`'s.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .hilbert import Record

# Illustrative interaction coefficients (MHz um^6, MHz um^3).
DEFAULT_C6 = 3.0e4
DEFAULT_C3 = -3.0e2

# Per-atom level indices in the {g, S, P} basis; atom 1 is the first
# tensor factor, so pair index = 3 * level(atom1) + level(atom2).
G, S, P = 0, 1, 2

# An eigenstate counts as "connected to" a reference state only if it
# keeps the majority of the squared overlap.
MIN_CONNECTED_OVERLAP = 0.5

# J = E_gg - 2 E_g within this many ulps of 2|E_g| is the rounding noise of
# the two eigenvalues (2-6 ulps where the pair no longer interacts), not a
# coupling, and is set to exactly 0.
COUPLING_NOISE_ULPS = 8

# `eigh` of the 9 x 9 pair Hamiltonian resolves its eigenvalues only to
# about eps * max|H|, and the coupling J is read from them against the
# laser scale max(omega_laser / 2, |delta_laser|), which sets the light
# shift.  So the largest entry of the pair H at r_min, where every entry is
# largest, may be at most this many times that scale: J is then resolved to
# about 2e-8 of it.
PAIR_DYNAMIC_RANGE = 1e8

# `scan_curve` diagonalizes the pair Hamiltonians of at most this many grid
# points in one `np.linalg.eigh` call, so its memory does not grow with n_points
SCAN_CHUNK = 128


class AdiabaticityError(RuntimeError):
    """No eigenstate retains majority overlap with the tracked branch."""


class LevelScheme(Record):
    """Drive parameters of the two-color dressing scheme (MHz)."""

    __slots__ = ("omega_laser", "delta_laser", "omega_microwave", "delta_microwave")

    def __init__(
        self, omega_laser: float, delta_laser: float, omega_microwave: float = 0.0,
        delta_microwave: float = 0.0,
    ):
        self._set(omega_laser, delta_laser, omega_microwave, delta_microwave)
        for name in self.__slots__:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if omega_laser < 0 or omega_microwave < 0:
            raise ValueError("Rabi frequencies must be nonnegative")


class InteractionCoefficients(Record):
    """Pair interaction strengths: c6 for S-S vdW, c3 for S-P exchange."""

    __slots__ = ("c6", "c3")

    def __init__(self, c6: float = DEFAULT_C6, c3: float = DEFAULT_C3):
        if not (math.isfinite(c6) and math.isfinite(c3)):
            raise ValueError("interaction coefficients must be finite")
        self._set(c6, c3)


class DressedCurve(Record, eq=False):
    """Dressed Ising coupling J sampled over interatomic distance.

    `min_overlap` is the smallest squared overlap met while tracking the
    branch from point to point (`scan_curve`).
    """

    __slots__ = ("distances", "j_values", "min_overlap")

    def __init__(self, distances: np.ndarray, j_values: np.ndarray, min_overlap: float):
        dist = np.asarray(distances, dtype=float)
        jv = np.asarray(j_values, dtype=float)
        if dist.shape != jv.shape or dist.ndim != 1:
            raise ValueError("distances and J values must be 1-d arrays of equal length")
        if not np.all(np.diff(dist) > 0):
            raise ValueError("distances must be strictly increasing")
        self._set(dist, jv, min_overlap)


def single_atom_hamiltonian(scheme: LevelScheme) -> np.ndarray:
    """3x3 rotating-frame Hamiltonian of one driven atom."""
    h = np.zeros((3, 3))
    h[S, S] = scheme.delta_laser
    h[P, P] = scheme.delta_laser + scheme.delta_microwave
    h[G, S] = h[S, G] = scheme.omega_laser / 2.0
    h[S, P] = h[P, S] = scheme.omega_microwave / 2.0
    return h


def build_two_atom_hamiltonian(
    scheme: LevelScheme, coeffs: InteractionCoefficients, r: float
) -> np.ndarray:
    """9x9 pair Hamiltonian at interatomic distance r (um)."""
    if r <= 0:
        raise ValueError("interatomic distance must be positive")
    return _pair_hamiltonians(scheme, coeffs, [r])[0]


def _pair_hamiltonians(
    scheme: LevelScheme, coeffs: InteractionCoefficients, distances
) -> np.ndarray:
    """The 9x9 pair Hamiltonians at each of `distances`, stacked along the first axis.

    All share one r-independent part, the two single-atom drives; each
    point's c6/r^6 and c3/r^3 are scalar np.float64 expressions (the power
    of an array rounds differently at some points).
    """
    single = single_atom_hamiltonian(scheme)
    eye = np.eye(3)
    base = np.kron(single, eye) + np.kron(eye, single)
    h = np.repeat(base[np.newaxis], len(distances), axis=0)
    with np.errstate(over="ignore"):  # far out r^6 is inf, so c6/r^6 is exactly 0
        for k, r in enumerate(distances):
            r = np.float64(r)
            vdw, exchange = coeffs.c6 / r**6, coeffs.c3 / r**3
            h[k, 3 * S + S, 3 * S + S] += vdw
            h[k, 3 * S + P, 3 * P + S] += exchange
            h[k, 3 * P + S, 3 * S + P] += exchange
    return h


_RYDBERG_PAIR_STATES = (3 * S + S, 3 * S + P, 3 * P + S, 3 * P + P)


def pair_potential(scheme: LevelScheme, coeffs: InteractionCoefficients, r: float) -> np.ndarray:
    """Sorted eigenvalues of the doubly excited {SS, SP, PS, PP} block.

    The laser coupling leads out of this block and is ignored, so the
    result is the bare (microwave-dressed) pair potential.
    """
    h = build_two_atom_hamiltonian(scheme, coeffs, r)
    block = h[np.ix_(_RYDBERG_PAIR_STATES, _RYDBERG_PAIR_STATES)]
    return np.linalg.eigvalsh(block)


def dressed_ground(scheme: LevelScheme) -> tuple[float, np.ndarray]:
    """Energy and eigenvector of the single-atom state connected to |g>."""
    energy, vector, _ = _closest_eigenstate(
        *np.linalg.eigh(single_atom_hamiltonian(scheme)),
        np.eye(3)[G],
        lambda overlap: f"no single-atom eigenstate keeps majority ground character "
        f"(best overlap {overlap:.3f}); dressing is too strong",
    )
    return energy, vector


def _closest_eigenstate(
    evals: np.ndarray, evecs: np.ndarray, reference: np.ndarray, lost: Callable[[float], str]
) -> tuple[float, np.ndarray, float]:
    """Energy, eigenvector and squared overlap of the eigenstate closest to `reference`.

    `evals` and `evecs` are one Hamiltonian's `np.linalg.eigh`.  Raises
    AdiabaticityError with the message lost(overlap) when even that overlap
    is at most MIN_CONNECTED_OVERLAP.
    """
    overlaps = np.abs(evecs.conj().T @ reference) ** 2
    k = int(np.argmax(overlaps))
    if overlaps[k] <= MIN_CONNECTED_OVERLAP:
        raise AdiabaticityError(lost(float(overlaps[k])))
    return float(evals[k]), evecs[:, k], float(overlaps[k])


def dressed_ising_coupling(
    scheme: LevelScheme, coeffs: InteractionCoefficients, r: float
) -> float:
    """Dressed Ising coupling J(r) = E_gg(r) - 2 E_g, vanishing at r -> inf.

    E_gg is the pair eigenvalue whose eigenvector has maximum overlap with
    the product of single-atom dressed ground states; at infinite distance
    that eigenvalue is exactly twice the single-atom energy, so no further
    offset is needed.
    """
    e_single, v_single = dressed_ground(scheme)
    reference = np.kron(v_single, v_single)
    h = build_two_atom_hamiltonian(scheme, coeffs, r)
    e_gg, _, _ = _closest_eigenstate(
        *np.linalg.eigh(h),
        reference,
        lambda overlap: f"pair eigenstate at r={r} keeps only {overlap:.3f} of the "
        "dressed-ground overlap; cannot identify the |gg>-connected branch",
    )
    return _coupling(e_gg, e_single)


def _coupling(e_gg: float, e_single: float) -> float:
    """J = e_gg - 2 e_single, or 0.0 within COUPLING_NOISE_ULPS ulps of 2|e_single|."""
    j = e_gg - 2.0 * e_single
    return 0.0 if abs(j) <= COUPLING_NOISE_ULPS * np.spacing(abs(2.0 * e_single)) else j


def check_scan(
    scheme: LevelScheme, coeffs: InteractionCoefficients, r_min: float, r_max: float, n_points: int
) -> None:
    """ValueError unless `scan_curve` can resolve J on this grid (see PAIR_DYNAMIC_RANGE)."""
    if not 0 < r_min < r_max:
        raise ValueError("need 0 < r_min < r_max")
    if n_points < 2:
        raise ValueError(f"a scan needs at least 2 grid points, got {n_points}")
    with np.errstate(all="ignore"):  # a NaN or inf entry makes the largest one NaN or inf
        largest = np.abs(build_two_atom_hamiltonian(scheme, coeffs, r_min)).max()
    keys = "delta_laser, delta_microwave, omega_laser, omega_microwave, c6 and c3"
    if not np.isfinite(largest):
        raise ValueError(f"the pair Hamiltonian of {keys} overflows at r = r_min = {r_min}")
    scale = max(scheme.omega_laser / 2.0, abs(scheme.delta_laser))
    if not largest <= PAIR_DYNAMIC_RANGE * scale:
        raise ValueError(
            f"the pair Hamiltonian of {keys} has an entry of {largest:.3g} at r = r_min = "
            f"{r_min}, above {PAIR_DYNAMIC_RANGE:g} times the laser scale "
            f"max(omega_laser / 2, |delta_laser|) = {scale:g}, so its eigenvalues "
            "cannot resolve the coupling"
        )


def scan_curve(
    scheme: LevelScheme,
    coeffs: InteractionCoefficients,
    r_min: float,
    r_max: float,
    n_points: int,
    microwave_on: bool = True,
) -> DressedCurve:
    """J(r) on a uniform grid, with adiabatic branch tracking.

    The |gg>-connected branch is seeded at r_max from the dressed
    single-atom product state and followed inward by maximum overlap with
    the previous grid point's eigenvector; plain energy ordering would
    mislabel branches through the avoided crossing.  The curve carries the
    smallest of those overlaps.  The grid is diagonalized SCAN_CHUNK points
    per `eigh` call.
    """
    effective = scheme if microwave_on else scheme.replace(omega_microwave=0.0)
    check_scan(effective, coeffs, r_min, r_max, n_points)
    e_single, v_single = dressed_ground(effective)
    distances = np.linspace(r_min, r_max, n_points)
    j_values = np.empty(n_points)
    tracked = np.kron(v_single, v_single)
    min_overlap = 1.0
    for stop in range(n_points, 0, -SCAN_CHUNK):
        start = max(0, stop - SCAN_CHUNK)
        evals, evecs = np.linalg.eigh(_pair_hamiltonians(effective, coeffs, distances[start:stop]))
        for idx in reversed(range(start, stop)):
            r = distances[idx]
            energy, tracked, overlap = _closest_eigenstate(
                evals[idx - start],
                evecs[idx - start],
                tracked,
                lambda overlap: f"lost the |gg>-connected branch at r={r:.4g} (overlap {overlap:.3f})",
            )
            j_values[idx] = _coupling(energy, e_single)
            min_overlap = min(min_overlap, overlap)
    return DressedCurve(distances, j_values, min_overlap)
