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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

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


class AdiabaticityError(RuntimeError):
    """No eigenstate retains majority overlap with the tracked branch."""


@dataclass(frozen=True)
class LevelScheme:
    """Drive parameters of the two-color dressing scheme (MHz)."""

    omega_laser: float
    delta_laser: float
    omega_microwave: float = 0.0
    delta_microwave: float = 0.0

    def __post_init__(self):
        if self.omega_laser < 0 or self.omega_microwave < 0:
            raise ValueError("Rabi frequencies must be nonnegative")


@dataclass(frozen=True)
class InteractionCoefficients:
    """Pair interaction strengths: c6 for S-S vdW, c3 for S-P exchange."""

    c6: float = DEFAULT_C6
    c3: float = DEFAULT_C3

    def __post_init__(self):
        if not (math.isfinite(self.c6) and math.isfinite(self.c3)):
            raise ValueError("interaction coefficients must be finite")


@dataclass(frozen=True)
class DressedCurve:
    """Dressed Ising coupling J sampled over interatomic distance."""

    distances: np.ndarray
    j_values: np.ndarray

    def __post_init__(self):
        dist = np.asarray(self.distances, dtype=float)
        jv = np.asarray(self.j_values, dtype=float)
        if dist.shape != jv.shape or dist.ndim != 1:
            raise ValueError("distances and J values must be 1-d arrays of equal length")
        if not np.all(np.diff(dist) > 0):
            raise ValueError("distances must be strictly increasing")
        object.__setattr__(self, "distances", dist)
        object.__setattr__(self, "j_values", jv)


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
    single = single_atom_hamiltonian(scheme)
    eye = np.eye(3)
    h = np.kron(single, eye) + np.kron(eye, single)
    with np.errstate(over="ignore"):  # far out r^6 is inf, so c6/r^6 is exactly 0
        r = np.float64(r)
        vdw, exchange = coeffs.c6 / r**6, coeffs.c3 / r**3
    h[3 * S + S, 3 * S + S] += vdw
    h[3 * S + P, 3 * P + S] += exchange
    h[3 * P + S, 3 * S + P] += exchange
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
    return _gg_connected_energy(
        single_atom_hamiltonian(scheme),
        np.eye(3)[G],
        lambda overlap: f"no single-atom eigenstate keeps majority ground character "
        f"(best overlap {overlap:.3f}); dressing is too strong",
    )


def _gg_connected_energy(
    h: np.ndarray, reference: np.ndarray, lost: Callable[[float], str]
) -> tuple[float, np.ndarray]:
    """Energy and eigenvector of h with the largest squared overlap with `reference`.

    Raises AdiabaticityError with the message lost(overlap) when even that
    overlap is at most MIN_CONNECTED_OVERLAP.
    """
    evals, evecs = np.linalg.eigh(h)
    overlaps = np.abs(evecs.conj().T @ reference) ** 2
    k = int(np.argmax(overlaps))
    if overlaps[k] <= MIN_CONNECTED_OVERLAP:
        raise AdiabaticityError(lost(float(overlaps[k])))
    return float(evals[k]), evecs[:, k]


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
    e_gg, _ = _gg_connected_energy(
        h,
        reference,
        lambda overlap: f"pair eigenstate at r={r} keeps only {overlap:.3f} of the "
        "dressed-ground overlap; cannot identify the |gg>-connected branch",
    )
    return _coupling(e_gg, e_single)


def _coupling(e_gg: float, e_single: float) -> float:
    """J = e_gg - 2 e_single, or 0.0 within COUPLING_NOISE_ULPS ulps of 2|e_single|."""
    j = e_gg - 2.0 * e_single
    return 0.0 if abs(j) <= COUPLING_NOISE_ULPS * np.spacing(abs(2.0 * e_single)) else j


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
    mislabel branches through the avoided crossing.
    """
    if not 0 < r_min < r_max:
        raise ValueError("need 0 < r_min < r_max")
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    effective = scheme if microwave_on else replace(scheme, omega_microwave=0.0)
    e_single, v_single = dressed_ground(effective)
    distances = np.linspace(r_min, r_max, n_points)
    j_values = np.empty(n_points)
    tracked = np.kron(v_single, v_single)
    for idx in reversed(range(n_points)):
        r = distances[idx]
        h = build_two_atom_hamiltonian(effective, coeffs, r)
        energy, tracked = _gg_connected_energy(
            h,
            tracked,
            lambda overlap: f"lost the |gg>-connected branch at r={r:.4g} (overlap {overlap:.3f})",
        )
        j_values[idx] = _coupling(energy, e_single)
    return DressedCurve(distances, j_values)


def microwave_detuning_for_lower_level(
    omega_microwave: float, delta_laser: float, lower_level_energy: float
) -> float:
    """Microwave detuning placing the lower Autler-Townes level at a target.

    The microwave splits S into two dressed levels at
    delta_laser + (delta_mu +/- sqrt(delta_mu^2 + omega_mu^2)) / 2; this
    solves for delta_mu so the lower one sits at lower_level_energy,
    which requires a downward shift smaller than omega_microwave / 2.
    """
    shift = delta_laser - lower_level_energy
    if shift <= 0:
        raise ValueError("target must lie below the bare S level")
    if omega_microwave <= 2.0 * shift:
        raise ValueError(
            f"omega_microwave={omega_microwave} cannot shift the lower level "
            f"down by {shift} (needs omega_microwave > {2.0 * shift})"
        )
    return (omega_microwave**2 - 4.0 * shift**2) / (4.0 * shift)


@dataclass(frozen=True)
class SignInversionResult:
    """Outcome of the sign-inversion parameter search."""

    scheme_on: LevelScheme
    curve_off: DressedCurve
    curve_on: DressedCurve
    window_lo: float
    window_hi: float


def find_sign_inversion_config(
    scheme: LevelScheme,
    coeffs: InteractionCoefficients,
    r_min: float,
    r_max: float,
    n_points: int = 121,
    omega_microwave_grid: tuple[float, ...] = (20.0, 25.0, 30.0, 35.0, 40.0),
    blue_detuning_factors: tuple[float, ...] = (0.75, 0.875, 1.0, 1.125, 1.25),
    ratio_bounds: tuple[float, float] = (0.5, 2.0),
    min_span: float = 2.0,
) -> SignInversionResult:
    """Grid search for a microwave drive that inverts the Ising coupling.

    Candidates are all combinations of omega_microwave_grid with target
    positions of the lower microwave-shifted level at
    -factor * delta_laser (i.e. blue of the laser by roughly the original
    red detuning).  A candidate is accepted when J_off * J_on < 0 and
    |J_on / J_off| stays within ratio_bounds over a contiguous window of
    distances spanning at least a factor min_span.  Returns the first
    acceptable candidate in grid order.
    """
    curve_off = scan_curve(scheme, coeffs, r_min, r_max, n_points, microwave_on=False)
    for omega_mu in omega_microwave_grid:
        for factor in blue_detuning_factors:
            target = -factor * scheme.delta_laser
            try:
                delta_mu = microwave_detuning_for_lower_level(
                    omega_mu, scheme.delta_laser, target
                )
            except ValueError:
                continue
            candidate = replace(
                scheme, omega_microwave=omega_mu, delta_microwave=delta_mu
            )
            try:
                curve_on = scan_curve(candidate, coeffs, r_min, r_max, n_points)
            except AdiabaticityError:
                continue
            window = _inversion_window(curve_off, curve_on, ratio_bounds)
            if window is not None and window[1] / window[0] >= min_span:
                return SignInversionResult(candidate, curve_off, curve_on, *window)
    raise RuntimeError(
        "no grid candidate produced a sign-inverted window of the requested span"
    )


def _inversion_window(
    curve_off: DressedCurve,
    curve_on: DressedCurve,
    ratio_bounds: tuple[float, float],
) -> tuple[float, float] | None:
    """Widest contiguous distance window with inverted sign and bounded ratio."""
    j_off, j_on = curve_off.j_values, curve_on.j_values
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(j_on / j_off)
    good = (j_off * j_on < 0) & (ratio >= ratio_bounds[0]) & (ratio <= ratio_bounds[1])
    best: tuple[float, float] | None = None
    start = None
    for idx, flag in enumerate(np.append(good, False)):
        if flag and start is None:
            start = idx
        elif not flag and start is not None:
            lo = float(curve_off.distances[start])
            hi = float(curve_off.distances[idx - 1])
            if best is None or hi / lo > best[1] / best[0]:
                best = (lo, hi)
            start = None
    return best
