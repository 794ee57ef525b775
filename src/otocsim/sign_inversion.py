"""Grid search for a microwave drive that inverts the dressed Ising coupling.

The paper's route to H -> -H: with the microwave on, the pair potential is
reflected about the laser-targeted energy, so J(r) changes sign over a
window of distances.  `find_sign_inversion_config` scans candidate drives
with `dressing.scan_curve` and returns the first whose window is wide
enough.  No CLI command runs the search, so it lives apart from the
dressing model that every CLI child loads to validate a config's dressing
block.
"""

from __future__ import annotations

import numpy as np

from .dressing import (
    AdiabaticityError,
    DressedCurve,
    InteractionCoefficients,
    LevelScheme,
    scan_curve,
)
from .hilbert import Record

# the microwave candidates `find_sign_inversion_config` tries, in grid order
OMEGA_MICROWAVE_GRID = (20.0, 25.0, 30.0, 35.0, 40.0)
BLUE_DETUNING_FACTORS = (0.75, 0.875, 1.0, 1.125, 1.25)


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


class SignInversionResult(Record):
    """Outcome of the sign-inversion parameter search."""

    __slots__ = ("scheme_on", "curve_off", "curve_on", "window_lo", "window_hi")

    def __init__(
        self, scheme_on: LevelScheme, curve_off: DressedCurve, curve_on: DressedCurve,
        window_lo: float, window_hi: float,
    ):
        self._set(scheme_on, curve_off, curve_on, window_lo, window_hi)


def find_sign_inversion_config(
    scheme: LevelScheme,
    coeffs: InteractionCoefficients,
    r_min: float,
    r_max: float,
    n_points: int = 121,
    ratio_bounds: tuple[float, float] = (0.5, 2.0),
    min_span: float = 2.0,
) -> SignInversionResult:
    """Grid search for a microwave drive that inverts the Ising coupling.

    Candidates are all combinations of the Rabi frequencies (MHz) of
    OMEGA_MICROWAVE_GRID with target positions of the lower microwave-shifted
    level at -factor * delta_laser, factor in BLUE_DETUNING_FACTORS (i.e.
    blue of the laser by roughly the original red detuning).  A candidate
    is accepted when J_off * J_on < 0 and |J_on / J_off| stays within
    ratio_bounds over a contiguous window of distances spanning at least a
    factor min_span.  Returns the first acceptable candidate in grid order.
    """
    curve_off = scan_curve(scheme, coeffs, r_min, r_max, n_points, microwave_on=False)
    for omega_mu in OMEGA_MICROWAVE_GRID:
        for factor in BLUE_DETUNING_FACTORS:
            target = -factor * scheme.delta_laser
            try:
                delta_mu = microwave_detuning_for_lower_level(
                    omega_mu, scheme.delta_laser, target
                )
            except ValueError:
                continue
            candidate = scheme.replace(omega_microwave=omega_mu, delta_microwave=delta_mu)
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
