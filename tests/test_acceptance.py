"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Tolerances are pinned here and match the package's documented contracts;
nothing is left to later calibration.
"""

import math

import numpy as np
import pytest

from otocsim import (
    InteractionCoefficients,
    LevelScheme,
    OtocSpec,
    Propagator,
    all_up_state,
    build_xy_chain,
    find_sign_inversion_config,
    otoc_direct,
)
from otocsim.cli import main
from otocsim.dressing import dressed_ising_coupling
from otocsim.protocol import build_ladder, outcome_probabilities, prepare
from otocsim.sampling import estimate_re_otoc, sample_sequences, substream
from otocsim.verification import run_verification_suite

import oracles

IDENTITY_TOL = 1e-9

FIG_CONFIG = """
n_sites = 4
hamiltonian = xy_chain
initial_state = all_up
site_i = 2
axis_a = x
site_j = 3
axis_b = x
t_start = 0.0
t_stop = 3.0
n_times = 31
n_shots = 10000
seed = 42
"""


def report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def verify_results():
    """`otocsim verify`'s three checks at seed 1, by name."""
    return {result.name: result for result in run_verification_suite(seed=1)}


def test_criterion_1_re_identity_randomized(verify_results):
    """2*corr - 1 = Re C over 200 random (H, rho, axes, t) instances."""
    result = verify_results["re_identity"]
    report(
        "criterion 1 (projective-protocol identity)",
        result.max_residual < IDENTITY_TOL,
        f"max residual {result.max_residual:.3e} < {IDENTITY_TOL:g}",
    )


def test_criterion_2_im_identity_randomized(verify_results):
    """Four-angle-set combination = Im C with random non-degenerate angles."""
    result = verify_results["im_identity"]
    report(
        "criterion 2 (rotation-protocol identity)",
        result.max_residual < IDENTITY_TOL,
        f"max residual {result.max_residual:.3e} < {IDENTITY_TOL:g}",
    )


def test_criterion_3_commutator_relation(verify_results):
    """Re C = 1 - <|[W(t),V]|^2>/2 on 200 random instances."""
    result = verify_results["commutator_relation"]
    report(
        "criterion 3 (squared-commutator relation)",
        result.max_residual < IDENTITY_TOL,
        f"max residual {result.max_residual:.3e} < {IDENTITY_TOL:g}",
    )


def test_criterion_4_quasilocality_ordering():
    """On the XY chain, C(0) = 1 for every pair and the time at which
    |1 - Re C| first exceeds 0.05 never decreases with distance |i - j|."""
    detail_parts = []
    ok = True
    for n in (4, 6, 8):
        prop = Propagator.from_hamiltonian(build_xy_chain(n))
        state = oracles.factor_in_register_order(prop.register, all_up_state(n))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                prepared = prepare(state, OtocSpec(i, "x", j, "x"), prop)
                initial = otoc_direct(prepared, 0.0)
                ok = ok and abs(initial - 1.0) < 1e-10
        departures = {}
        pending = set(range(2, n + 1))
        from_site_1 = {j: prepare(state, OtocSpec(1, "x", j, "x"), prop) for j in pending}
        for t in np.arange(0.0, 3.0001, 0.02):
            for j in sorted(pending):
                value = otoc_direct(from_site_1[j], float(t)).real
                if abs(1.0 - value) > 0.05:
                    departures[j] = float(t)
                    pending.discard(j)
            if not pending:
                break
        times = [departures[j] for j in range(2, n + 1)]
        ok = ok and all(a <= b for a, b in zip(times, times[1:]))
        detail_parts.append(f"N={n}: {['%.2f' % t for t in times]}")
    report(
        "criterion 4 (quasilocality departure ordering)",
        ok,
        "; ".join(detail_parts),
    )


def test_criterion_5_sampled_estimator_coverage(xy4, up4, spec_xx):
    """10^4-shot estimates lie within 4 stderr of the exact curve at
    >= 99% of (time point, seed) pairs over 100 seeds."""
    grid = np.linspace(0.0, 3.0, 31)
    prepared = prepare(up4, spec_xx, xy4)
    hits = total = 0
    for index, t in enumerate(grid):
        exact = otoc_direct(prepared, float(t)).real
        table = outcome_probabilities(build_ladder(prepared, float(t)))
        for seed in range(100):
            est = estimate_re_otoc(
                sample_sequences(table, 10_000, substream(1_000 * index + seed, 0))
            )
            total += 1
            # the 1e-12 floor covers float roundoff of the dense reference
            # at deterministic points where stderr is exactly zero
            if abs(est.value - exact) <= 4.0 * est.stderr + 1e-12:
                hits += 1
    fraction = hits / total
    report(
        "criterion 5 (10^4-shot estimator coverage)",
        fraction >= 0.99,
        f"{hits}/{total} pairs within 4 stderr ({100 * fraction:.2f}% >= 99%)",
    )


def test_criterion_6_error_band_scaling(xy4, up4, spec_xx):
    """Fig-3 statistics for N=4, i=2, j=3: bands shrink by ~sqrt(10) from
    10^2 to 10^3 shots, and at 10^3 shots the mean band stays below 0.05
    wherever |Re C| > 0.2.  A band is the standard deviation of 100 estimates
    drawn from the streams of points 0-99 of one seed per time point and
    shot count."""

    def band(table, n_shots, seed):
        return np.std(
            [
                estimate_re_otoc(sample_sequences(table, n_shots, substream(seed, m))).value
                for m in range(100)
            ]
        )

    grid = np.linspace(0.0, 3.0, 31)
    prepared = prepare(up4, spec_xx, xy4)
    bands_small, bands_large, exact = [], [], []
    for index, t in enumerate(grid):
        table = outcome_probabilities(build_ladder(prepared, float(t)))
        bands_small.append(band(table, 100, seed=1000 + index))
        bands_large.append(band(table, 1000, seed=5000 + index))
        exact.append(otoc_direct(prepared, float(t)).real)
    bands_small, bands_large, exact = map(np.asarray, (bands_small, bands_large, exact))
    ratio = bands_small.mean() / bands_large.mean()
    ratio_ok = math.sqrt(10) * 0.75 <= ratio <= math.sqrt(10) * 1.25
    visible = np.abs(exact) > 0.2
    mean_band = bands_large[visible].mean()
    few_percent_ok = mean_band < 0.05
    report(
        "criterion 6 (statistical error scaling)",
        ratio_ok and few_percent_ok,
        f"band ratio {ratio:.3f} in [{math.sqrt(10) * 0.75:.2f}, {math.sqrt(10) * 1.25:.2f}]; "
        f"mean 10^3-shot band {mean_band:.4f} < 0.05 on |Re C| > 0.2",
    )


def test_criterion_7_dressing_sign_inversion():
    """2 MHz laser Rabi, 4 MHz red detuning: the documented microwave grid
    search yields J_off * J_on < 0 with |J_on / J_off| in [1/2, 2] over a
    contiguous window spanning at least a factor 2 in distance."""
    result = find_sign_inversion_config(
        LevelScheme(omega_laser=2.0, delta_laser=4.0),
        InteractionCoefficients(),
        r_min=0.8,
        r_max=6.0,
        n_points=105,
    )
    span = result.window_hi / result.window_lo
    rs = result.curve_off.distances
    mask = (rs >= result.window_lo) & (rs <= result.window_hi)
    j_off = result.curve_off.j_values[mask]
    j_on = result.curve_on.j_values[mask]
    inverted = bool(np.all(j_off * j_on < 0))
    ratios = np.abs(j_on / j_off)
    bounded = bool(np.all((ratios >= 0.5) & (ratios <= 2.0)))
    report(
        "criterion 7 (microwave-assisted sign inversion)",
        span >= 2.0 and inverted and bounded,
        f"window [{result.window_lo:.2f}, {result.window_hi:.2f}] um (factor {span:.2f}), "
        f"|J_on/J_off| in [{ratios.min():.2f}, {ratios.max():.2f}], "
        f"microwave {result.scheme_on.omega_microwave:g} MHz at "
        f"{result.scheme_on.delta_microwave:.3f} MHz detuning",
    )


def test_criterion_8_weak_dressing_perturbative_oracle():
    """Microwave off, omega/|delta| = 0.1: J(r) within 10% of the
    independent fourth-order soft-core formula on the plateau."""
    omega, delta = 0.4, 4.0
    scheme = LevelScheme(omega_laser=omega, delta_laser=delta)
    coeffs = InteractionCoefficients()
    worst = 0.0
    for r in np.linspace(1.0, 2.5, 16):  # plateau: V(r) >= 10 * 2 delta
        numeric = dressed_ising_coupling(scheme, coeffs, float(r))
        analytic = oracles.soft_core_coupling(omega, delta, coeffs.c6 / r**6)
        worst = max(worst, abs(numeric - analytic) / abs(analytic))
    report(
        "criterion 8 (weak-dressing perturbative agreement)",
        worst < 0.10,
        f"max relative deviation {worst:.4f} < 0.10",
    )


def test_criterion_9_sample_determinism(tmp_path):
    """The sample command is byte-reproducible for identical config+seed."""
    config = tmp_path / "fig.cfg"
    config.write_text(FIG_CONFIG)
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    code_a = main(["sample", "--config", str(config), "--out", str(first), "--quiet"])
    code_b = main(["sample", "--config", str(config), "--out", str(second), "--quiet"])
    identical = first.read_bytes() == second.read_bytes()
    report(
        "criterion 9 (byte-identical sampled CSV)",
        code_a == 0 and code_b == 0 and identical,
        f"exit codes ({code_a}, {code_b}), identical={identical}",
    )
