import math

import numpy as np
import pytest

from otocsim import dressing
from otocsim.dressing import (
    AdiabaticityError,
    DressedCurve,
    InteractionCoefficients,
    LevelScheme,
    build_two_atom_hamiltonian,
    dressed_ground,
    dressed_ising_coupling,
    pair_potential,
    scan_curve,
)
from otocsim.sign_inversion import find_sign_inversion_config, microwave_detuning_for_lower_level

import oracles

COEFFS = InteractionCoefficients()  # c6 = 3e4 MHz um^6, c3 = -300 MHz um^3

# permutation exchanging the two atoms on the 9-dim pair space
SWAP = np.zeros((9, 9))
for a in range(3):
    for b in range(3):
        SWAP[3 * b + a, 3 * a + b] = 1.0


def test_bare_hamiltonian_is_diagonal_detunings():
    scheme = LevelScheme(0.0, 4.0, 0.0, 18.0)
    h = build_two_atom_hamiltonian(scheme, COEFFS, 1e9)
    single = np.array([0.0, 4.0, 22.0])
    expected = np.add.outer(single, single).ravel()
    np.testing.assert_allclose(h, np.diag(expected), atol=1e-12)


def test_pair_hamiltonian_hermitian_and_exchange_symmetric(rng):
    for _ in range(5):
        scheme = LevelScheme(*rng.uniform(0.1, 30.0, size=2), *rng.uniform(0.1, 30.0, size=2))
        r = float(rng.uniform(0.5, 10.0))
        h = build_two_atom_hamiltonian(scheme, COEFFS, r)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        np.testing.assert_allclose(SWAP @ h @ SWAP.T, h, atol=1e-12)


def test_pair_hamiltonian_rejects_bad_distance():
    with pytest.raises(ValueError):
        build_two_atom_hamiltonian(LevelScheme(1.0, 4.0), COEFFS, 0.0)


@pytest.mark.parametrize(
    "c3, r_min, message",
    [
        # an exchange of 1e308 at r_min, so far above the laser scale that J is unresolved
        (1e308, 1.0, r"laser scale max\(omega_laser / 2, \|delta_laser\|\)"),
        # c6 / r^6 overflows at r_min, with no divide-by-zero warning first
        (-3.0e2, 1e-60, "overflows at r = r_min = 1e-60"),
    ],
)
def test_scan_rejects_a_pair_hamiltonian_it_cannot_resolve(c3, r_min, message):
    scheme, coeffs = LevelScheme(2.0, 4.0, 30.0, 18.386), InteractionCoefficients(3.0e4, c3)
    with pytest.raises(ValueError, match=message):
        scan_curve(scheme, coeffs, r_min, 6.0, 5)


def test_rabi_frequencies_nonnegative():
    with pytest.raises(ValueError):
        LevelScheme(-1.0, 4.0)


@pytest.mark.parametrize("field", [0, 1, 2, 3])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_level_scheme_rejects_a_non_finite_field(field, value):
    """A NaN or infinite drive parameter fails at construction, naming the field,
    before it can reach an eigendecomposition."""
    values = [2.0, 4.0, 30.0, 18.0]
    values[field] = value
    name = ("omega_laser", "delta_laser", "omega_microwave", "delta_microwave")[field]
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        LevelScheme(*values)


def test_vdw_branch_exact_without_microwave():
    scheme = LevelScheme(0.0, 4.0, 0.0, 30.0)
    for r in (2.0, 3.5, 6.0):
        branches = pair_potential(scheme, COEFFS, r)
        ss_energy = 2 * 4.0 + COEFFS.c6 / r**6
        assert np.min(np.abs(branches - ss_energy)) < 1e-10


def test_autler_townes_splitting_at_infinity():
    scheme = LevelScheme(2.0, 4.0, 30.0, 18.3857)
    branches = pair_potential(scheme, COEFFS, 1e6)
    splitting = np.hypot(30.0, 18.3857)
    gaps = np.diff(branches)
    np.testing.assert_allclose(gaps, [splitting, 0.0, splitting], atol=1e-6)


def test_crossing_gap_matches_two_level_reduction():
    """The minimum gap between the two lowest microwave-dressed branches is
    the 2x2 vdW/dipolar avoided-crossing value when the PP level is far."""
    omega_mu, delta_mu = 4.0, 25.0
    scheme = LevelScheme(0.0, 4.0, omega_mu, delta_mu)
    rs = np.linspace(2.5, 5.0, 1001)
    gaps = [np.diff(pair_potential(scheme, COEFFS, r))[0] for r in rs]
    # the 2x2 reduction lives in energies relative to 2*delta_laser
    oracle = oracles.crossing_gap_two_level(COEFFS.c6, COEFFS.c3, delta_mu, omega_mu, rs)
    assert abs(min(gaps) - oracle) / oracle < 0.05
    assert abs(min(gaps) - np.sqrt(2) * omega_mu) / (np.sqrt(2) * omega_mu) < 0.05


def test_no_laser_means_no_coupling():
    scheme = LevelScheme(0.0, 4.0, 20.0, 10.0)
    for r in (1.0, 3.0, 8.0):
        assert abs(dressed_ising_coupling(scheme, COEFFS, r)) < 1e-12


def test_weak_dressing_matches_perturbation_theory():
    """Microwave off, omega/delta = 0.1: the numerical coupling follows the
    fourth-order soft-core formula on the plateau."""
    omega, delta = 0.4, 4.0
    scheme = LevelScheme(omega, delta)
    for r in np.linspace(1.0, 2.5, 7):
        numeric = dressed_ising_coupling(scheme, COEFFS, r)
        analytic = oracles.soft_core_coupling(omega, delta, COEFFS.c6 / r**6)
        assert abs(numeric - analytic) / abs(analytic) < 0.10


def test_paper_regime_inverts_sign_on_plateau():
    """2 MHz laser Rabi, 4 MHz red detuning; 30 MHz microwave placing the
    lower dressed level 4.4 MHz blue of the laser flips J across the
    plateau when the microwave is switched on."""
    delta_mu = microwave_detuning_for_lower_level(30.0, 4.0, -4.4)
    scheme = LevelScheme(2.0, 4.0, 30.0, delta_mu)
    grid = dict(r_min=1.0, r_max=2.5, n_points=16)
    off = scan_curve(scheme, COEFFS, microwave_on=False, **grid)
    on = scan_curve(scheme, COEFFS, microwave_on=True, **grid)
    assert np.all(off.j_values > 0)
    assert np.all(on.j_values < 0)


def test_dressed_ground_requires_majority_overlap():
    # resonant strong drive mixes g and S 50/50, so no eigenstate keeps
    # majority ground character
    with pytest.raises(AdiabaticityError):
        dressed_ground(LevelScheme(10.0, 0.0))


def test_pair_coupling_requires_majority_overlap():
    # near the avoided crossing no pair eigenstate keeps half of the
    # dressed-ground product state
    scheme = LevelScheme(4.0, 7.7, 29.3, 19.8)
    with pytest.raises(AdiabaticityError, match="r=2.5 keeps only 0.445 of the dressed-ground"):
        dressed_ising_coupling(scheme, COEFFS, 2.5)


def test_gg_eigenstate_is_exchange_symmetric():
    scheme = LevelScheme(2.0, 4.0, 20.0, 7.3)
    _, v_single = dressed_ground(scheme)
    h = build_two_atom_hamiltonian(scheme, COEFFS, 2.0)
    evals, evecs = np.linalg.eigh(h)
    k = int(np.argmax(np.abs(evecs.conj().T @ np.kron(v_single, v_single)) ** 2))
    vec = evecs[:, k]
    np.testing.assert_allclose(SWAP @ vec, vec, atol=1e-10)
    # orthonormality of the full eigenbasis
    assert np.max(np.abs(evecs.conj().T @ evecs - np.eye(9))) < 1e-10


def test_scan_endpoints_match_single_point_calls():
    scheme = LevelScheme(2.0, 4.0)
    curve = scan_curve(scheme, COEFFS, 1.5, 5.0, 2, microwave_on=False)
    for r, j in zip(curve.distances, curve.j_values):
        assert abs(j - dressed_ising_coupling(scheme, COEFFS, float(r))) < 1e-12


def test_tail_decays_monotonically():
    scheme = LevelScheme(2.0, 4.0)
    curve = scan_curve(scheme, COEFFS, 4.5, 9.0, 19, microwave_on=False)
    magnitudes = np.abs(curve.j_values)
    assert np.all(np.diff(magnitudes) < 0)


def test_coupling_vanishes_at_large_distance():
    scheme = LevelScheme(2.0, 4.0, 20.0, 7.3)
    assert abs(dressed_ising_coupling(scheme, COEFFS, 1e3)) < 1e-6


def test_scan_agrees_with_pointwise_coupling_on_plateau():
    delta_mu = microwave_detuning_for_lower_level(20.0, 4.0, -3.0)
    scheme = LevelScheme(2.0, 4.0, 20.0, delta_mu)
    curve = scan_curve(scheme, COEFFS, 1.0, 2.4, 8, microwave_on=True)
    for r, j in zip(curve.distances, curve.j_values):
        assert abs(j - dressed_ising_coupling(scheme, COEFFS, float(r))) < 1e-10


def test_microwave_detuning_places_lower_level():
    delta_mu = microwave_detuning_for_lower_level(30.0, 4.0, -4.4)
    lower = 4.0 + (delta_mu - np.hypot(delta_mu, 30.0)) / 2.0
    assert abs(lower - (-4.4)) < 1e-12
    with pytest.raises(ValueError, match="below"):
        microwave_detuning_for_lower_level(30.0, 4.0, 5.0)
    with pytest.raises(ValueError, match="cannot shift"):
        microwave_detuning_for_lower_level(1.0, 4.0, -4.4)


def test_sign_inversion_search_returns_valid_window():
    result = find_sign_inversion_config(
        LevelScheme(2.0, 4.0), COEFFS, r_min=0.8, r_max=6.0, n_points=53
    )
    assert result.window_hi / result.window_lo >= 2.0
    rs = result.curve_off.distances
    mask = (rs >= result.window_lo) & (rs <= result.window_hi)
    j_off = result.curve_off.j_values[mask]
    j_on = result.curve_on.j_values[mask]
    assert np.all(j_off * j_on < 0)
    ratio = np.abs(j_on / j_off)
    assert np.all((ratio >= 0.5) & (ratio <= 2.0))


def test_inversion_sustains_a_full_plateau_decade():
    """Some grid candidate mirrors the coupling to within 50% magnitude
    over a factor-10 range of distances inside the soft core."""
    result = find_sign_inversion_config(
        LevelScheme(2.0, 4.0),
        COEFFS,
        r_min=0.25,
        r_max=6.0,
        n_points=231,
        ratio_bounds=(0.5, 1.5),
        min_span=10.0,
    )
    assert result.window_hi / result.window_lo >= 10.0


def test_dressed_curve_validates_grid():
    with pytest.raises(ValueError, match="increasing"):
        DressedCurve(np.array([1.0, 1.0, 2.0]), np.zeros(3), 1.0)
    with pytest.raises(ValueError, match="equal length"):
        DressedCurve(np.array([1.0, 2.0]), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        scan_curve(LevelScheme(1.0, 4.0), COEFFS, 2.0, 1.0, 5)
    with pytest.raises(ValueError):
        scan_curve(LevelScheme(1.0, 4.0), COEFFS, 1.0, 2.0, 1)


def test_scan_carries_its_smallest_branch_overlap():
    """The curve's min_overlap is the smallest squared overlap of the tracked branch
    with its previous grid point's eigenvector (the product state at r_max); a coarser
    grid through the avoided crossing keeps less of the branch from point to point."""
    scheme = LevelScheme(2.0, 4.0, 20.0, 7.3)
    curve = scan_curve(scheme, COEFFS, 1.0, 6.0, 11)
    _, v_single = dressed_ground(scheme)
    tracked, overlaps = np.kron(v_single, v_single), []
    for r in curve.distances[::-1]:
        _, evecs = np.linalg.eigh(build_two_atom_hamiltonian(scheme, COEFFS, float(r)))
        weights = np.abs(evecs.conj().T @ tracked) ** 2
        overlaps.append(weights.max())
        tracked = evecs[:, np.argmax(weights)]
    assert curve.min_overlap == min(overlaps)
    fine = scan_curve(scheme, COEFFS, 1.0, 6.0, 101)
    assert 0.5 < curve.min_overlap < fine.min_overlap <= 1.0


@pytest.mark.parametrize("microwave_on", [False, True])
def test_stacked_scan_is_the_per_point_scan_bit_for_bit(microwave_on):
    """`scan_curve` diagonalizes its grid SCAN_CHUNK points per `eigh` call; on a grid
    of more than two chunks its J values and smallest overlap are those of the
    per-point oracle scan, to the bit, with the microwave off and on."""
    scheme = LevelScheme(2.0, 4.0, 30.0, 18.386)
    n_points = 2 * dressing.SCAN_CHUNK + 45
    curve = scan_curve(scheme, COEFFS, 1.0, 6.0, n_points, microwave_on=microwave_on)
    omega_microwave = scheme.omega_microwave if microwave_on else 0.0
    j_values, min_overlap, lost = oracles.tracked_dressing_scan(
        scheme.omega_laser, scheme.delta_laser, omega_microwave, scheme.delta_microwave,
        COEFFS.c6, COEFFS.c3, curve.distances,
    )
    assert lost is None
    assert curve.j_values.tobytes() == j_values.tobytes()
    assert curve.min_overlap == min_overlap


@pytest.mark.parametrize("chunk", [2, None])
def test_stacked_scan_loses_the_branch_where_the_per_point_scan_does(chunk, monkeypatch):
    """A 5-point grid steps over the avoided crossing: the scan raises at the oracle's
    r and overlap, also when the lost point lies in a later chunk than the first."""
    if chunk is not None:
        monkeypatch.setattr(dressing, "SCAN_CHUNK", chunk)
    scheme = LevelScheme(4.0, 7.7, 29.3, 19.8)
    distances = np.linspace(1.0, 6.0, 5)
    _, _, (r, overlap) = oracles.tracked_dressing_scan(
        scheme.omega_laser, scheme.delta_laser, scheme.omega_microwave, scheme.delta_microwave,
        COEFFS.c6, COEFFS.c3, distances,
    )
    assert r == distances[1]
    message = f"lost the |gg>-connected branch at r={r:.4g} (overlap {overlap:.3f})"
    with pytest.raises(AdiabaticityError) as raised:
        scan_curve(scheme, COEFFS, 1.0, 6.0, 5)
    assert str(raised.value) == message
