import math

import numpy as np
import pytest

from otocsim.dynamics import Propagator
from otocsim.otoc import OtocSpec, otoc_direct
from otocsim.protocol import (
    OUTCOME_SEQUENCES,
    DegenerateAnglesError,
    ProbabilityTable,
    RotationAngles,
    outcome_probabilities,
)
from otocsim.sampling import (
    Estimate,
    SampleConfig,
    error_band,
    estimate_re_otoc,
    sample_rotation_protocol,
    sample_sequences,
    substream,
)
from otocsim.verification import random_density, random_hamiltonian

PI_HALF_ANGLES = RotationAngles(math.pi / 2, math.pi / 2, math.pi / 2)


def deterministic_table():
    probs = {seq: 0.0 for seq in OUTCOME_SEQUENCES}
    probs[(1, 1, 1, 1)] = 1.0
    return ProbabilityTable(probs)


def uniform_table():
    return ProbabilityTable({seq: 1.0 / 16.0 for seq in OUTCOME_SEQUENCES})


def test_deterministic_table_puts_all_shots_on_one_sequence():
    counts = sample_sequences(deterministic_table(), SampleConfig(500, seed=7))
    assert counts[(1, 1, 1, 1)] == 500
    assert sum(counts.values()) == 500


def test_uniform_table_counts_within_five_sigma():
    n_shots = 16000
    counts = sample_sequences(uniform_table(), SampleConfig(n_shots, seed=11))
    sigma = math.sqrt(n_shots * (1 / 16) * (15 / 16))
    assert sum(counts.values()) == n_shots
    for seq in OUTCOME_SEQUENCES:
        assert abs(counts[seq] - 1000) < 5 * sigma


def test_neighbouring_seeds_points_and_repeats_share_no_uniforms():
    """Seeding with seed + point made seed 42, point k replay seed 43, point k - 1."""
    streams = [
        (seed, *path)
        for seed in (42, 43, 42 + 2**32)
        for point in range(3)
        for path in ((point,), (point, 0), (point, 1))
    ]
    draws = np.concatenate([substream(*stream).random(256) for stream in streams])
    assert np.unique(draws).size == draws.size
    table = uniform_table()
    assert sample_sequences(table, SampleConfig(4000, 42, point=1)) != sample_sequences(
        table, SampleConfig(4000, 43, point=0)
    )


def test_sampling_is_deterministic_per_seed(xy4, up4, spec_xx):
    table = outcome_probabilities(up4, spec_xx, xy4, 0.5)
    cfg = SampleConfig(1000, seed=42)
    assert sample_sequences(table, cfg) == sample_sequences(table, cfg)
    other = sample_sequences(table, SampleConfig(1000, seed=43))
    assert other != sample_sequences(table, cfg)


def test_estimate_from_deterministic_counts():
    counts = {seq: 0 for seq in OUTCOME_SEQUENCES}
    counts[(1, 1, 1, 1)] = 250
    est = estimate_re_otoc(counts)
    assert est == Estimate(1.0, 0.0, 250)


def test_estimate_from_uniform_counts():
    # mean signed product 0, so the identity 2*corr - 1 gives exactly -1
    counts = {seq: 5 for seq in OUTCOME_SEQUENCES}
    est = estimate_re_otoc(counts)
    assert est.value == -1.0
    assert est.stderr == 2.0 / math.sqrt(80)


def test_estimate_rejects_empty_counts():
    with pytest.raises(ValueError, match="empty"):
        estimate_re_otoc({seq: 0 for seq in OUTCOME_SEQUENCES})


def test_estimator_coverage_on_exact_table(xy4, up4, spec_xx):
    """At 10^4 shots the estimate lands within 4 stderr of Re C in >= 99%
    of seeded repetitions."""
    exact = otoc_direct(up4, spec_xx, xy4, 0.5).real
    table = outcome_probabilities(up4, spec_xx, xy4, 0.5)
    hits = 0
    for seed in range(100):
        est = estimate_re_otoc(sample_sequences(table, SampleConfig(10_000, seed=seed)))
        if abs(est.value - exact) <= 4.0 * est.stderr:
            hits += 1
    assert hits >= 99


def test_estimator_unbiased_over_many_repetitions(xy4, up4, spec_xx):
    exact = otoc_direct(up4, spec_xx, xy4, 0.5).real
    table = outcome_probabilities(up4, spec_xx, xy4, 0.5)
    repeats = 1000
    values, stderrs = [], []
    for seed in range(repeats):
        est = estimate_re_otoc(sample_sequences(table, SampleConfig(100, seed=seed)))
        values.append(est.value)
        stderrs.append(est.stderr)
    deviation = abs(np.mean(values) - exact)
    assert deviation < 3.0 * np.mean(stderrs) / math.sqrt(repeats)


def test_error_band_deterministic_table_is_zero():
    assert error_band(deterministic_table(), SampleConfig(100, seed=3, n_repeats=20)) == 0.0


def test_error_band_scaling(xy4, up4, spec_xx):
    table = outcome_probabilities(up4, spec_xx, xy4, 0.5)
    band_small = error_band(table, SampleConfig(100, seed=5, n_repeats=100))
    band_large = error_band(table, SampleConfig(1000, seed=6, n_repeats=100))
    ratio = band_small / band_large
    assert math.sqrt(10) * 0.75 < ratio < math.sqrt(10) * 1.25


def test_error_band_needs_repeats():
    with pytest.raises(ValueError, match="n_repeats"):
        error_band(uniform_table(), SampleConfig(100, seed=1, n_repeats=1))


def test_stderr_scales_with_shot_count(xy4, up4, spec_xx):
    table = outcome_probabilities(up4, spec_xx, xy4, 0.5)
    means = []
    for n_shots in (100, 1000, 10_000):
        stderrs = [
            estimate_re_otoc(sample_sequences(table, SampleConfig(n_shots, seed=s))).stderr
            for s in range(20)
        ]
        means.append(np.mean(stderrs))
    for larger, smaller in ((means[0], means[1]), (means[1], means[2])):
        assert math.sqrt(10) * 0.75 < larger / smaller < math.sqrt(10) * 1.25


def test_rotation_sampling_zero_time(xy4, up4, spec_xx):
    est = sample_rotation_protocol(
        up4, spec_xx, xy4, 0.0, PI_HALF_ANGLES, SampleConfig(2000, seed=17)
    )
    assert est.stderr > 0.0
    assert abs(est.value) <= 4.0 * est.stderr


def test_rotation_sampling_zero_variance_when_expectations_saturate(xy4, up4):
    # z rotations leave the polarized state invariant, so every angle set
    # measures <sigma_z> = +1 and the shots carry no noise at all
    est = sample_rotation_protocol(
        up4, OtocSpec(2, "z", 3, "z"), xy4, 1.0, PI_HALF_ANGLES, SampleConfig(100, seed=2)
    )
    assert est == Estimate(0.0, 0.0, 100)


def test_rotation_sampling_tracks_exact_im(xy4, up4, spec_xx, rng):
    est = sample_rotation_protocol(
        up4, spec_xx, xy4, 0.5, PI_HALF_ANGLES, SampleConfig(10_000, seed=21)
    )
    exact = otoc_direct(up4, spec_xx, xy4, 0.5).imag
    assert abs(est.value - exact) <= 4.0 * est.stderr
    # also on an instance with genuinely complex C
    prop = Propagator.from_hamiltonian(random_hamiltonian(3, rng))
    state = random_density(3, rng)
    spec = OtocSpec(1, "x", 3, "y")
    exact_im = otoc_direct(state, spec, prop, 1.1).imag
    assert abs(exact_im) > 1e-3
    est2 = sample_rotation_protocol(
        state, spec, prop, 1.1, PI_HALF_ANGLES, SampleConfig(200_000, seed=23)
    )
    assert abs(est2.value - exact_im) <= 4.0 * est2.stderr


def test_rotation_sampling_deterministic(xy4, up4, spec_xx):
    cfg = SampleConfig(500, seed=99)
    a = sample_rotation_protocol(up4, spec_xx, xy4, 0.7, PI_HALF_ANGLES, cfg)
    b = sample_rotation_protocol(up4, spec_xx, xy4, 0.7, PI_HALF_ANGLES, cfg)
    assert a == b


def test_rotation_sampling_rejects_degenerate_angles(xy4, up4, spec_xx):
    with pytest.raises(DegenerateAnglesError):
        sample_rotation_protocol(
            up4, spec_xx, xy4, 0.5, RotationAngles(0.1, 0.0, 0.3), SampleConfig(10, seed=1)
        )


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(0, seed=1)
    with pytest.raises(ValueError):
        SampleConfig(10, seed=-1)
    with pytest.raises(ValueError):
        SampleConfig(10, seed=2**64)
    with pytest.raises(ValueError):
        SampleConfig(10, seed=1, n_repeats=0)
    with pytest.raises(ValueError):
        SampleConfig(10, seed=1, point=-1)
    with pytest.raises(ValueError):
        Estimate(0.0, -1.0, 10)
