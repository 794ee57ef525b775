import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otocsim import sampling
from otocsim.dynamics import Propagator
from otocsim.otoc import OtocSpec, otoc_direct
from otocsim.protocol import (
    ANGLE_VARIANT_SIGNS,
    OUTCOME_SEQUENCES,
    DegenerateAnglesError,
    ProbabilityTable,
    RotationAngles,
    angle_variants,
    outcome_probabilities,
    rotated_expectation,
)
from otocsim.sampling import (
    Estimate,
    SampleConfig,
    estimate_re_otoc,
    sample_rotation_protocol,
    sample_sequences,
    substream,
)
from otocsim.verification import random_density, random_hamiltonian

import oracles

PI_HALF_ANGLES = RotationAngles(math.pi / 2, math.pi / 2, math.pi / 2)


def one_hot(k):
    probs = np.zeros(len(OUTCOME_SEQUENCES))
    probs[k] = 1.0
    return probs


def deterministic_table():
    return ProbabilityTable(one_hot(OUTCOME_SEQUENCES.index((1, 1, 1, 1))))


def uniform_table():
    return ProbabilityTable(np.full(len(OUTCOME_SEQUENCES), 1.0 / 16.0))


def spread(table, n_shots, seed, repeats=100):
    """Standard deviation of the Re C estimate over the streams of points 0..repeats-1."""
    return float(
        np.std(
            [
                estimate_re_otoc(sample_sequences(table, SampleConfig(n_shots, seed, point=m))).value
                for m in range(repeats)
            ]
        )
    )


def test_deterministic_table_puts_all_shots_on_one_sequence():
    counts = sample_sequences(deterministic_table(), SampleConfig(500, seed=7))
    assert np.array_equal(counts, 500 * one_hot(0))


def test_uniform_table_counts_within_five_sigma():
    n_shots = 16000
    counts = sample_sequences(uniform_table(), SampleConfig(n_shots, seed=11))
    sigma = math.sqrt(n_shots * (1 / 16) * (15 / 16))
    assert counts.shape == (16,)
    assert counts.sum() == n_shots
    assert np.all(np.abs(counts - 1000) < 5 * sigma)


# sixteen weights of which some are exactly zero, or a one-hot table
TABLES = st.one_of(
    st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)),
        min_size=16,
        max_size=16,
    ).filter(any),
    st.integers(min_value=0, max_value=15).map(one_hot),
)


@given(
    weights=TABLES,
    n_shots=st.integers(min_value=1, max_value=5000),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    point=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_threshold_counts_match_categorical_oracle(weights, n_shots, seed, point):
    """Counts by thresholds equal the per-shot inverse-CDF index on the same uniforms."""
    weights = np.asarray(weights, dtype=float)
    table = ProbabilityTable(weights / weights.sum())
    counts = sample_sequences(table, SampleConfig(n_shots, seed, point=point))
    expected = oracles.categorical_counts(
        table.probabilities, substream(seed, point).random(n_shots)
    )
    assert np.array_equal(counts, expected)


def test_threshold_counts_on_edges_and_past_the_cdf(monkeypatch):
    """Uniforms exactly on each cumulative edge go to the next sequence, and
    uniforms past a cumulative sum that rounds below 1 go to the last one."""
    probs = np.full(16, 1.0 / 16.0)
    probs[[3, 4, 15]] = [0.0, 0.125, 0.0625 - 5e-11]  # sums to 1 - 5e-11
    table = ProbabilityTable(probs)
    cdf = np.cumsum(table.probabilities)
    uniforms = np.concatenate([[0.0], cdf[:-1], np.nextafter(cdf, 0.0), [1.0 - 1e-12]])

    class Stream:
        def random(self, n):
            assert n == uniforms.size
            return uniforms

    monkeypatch.setattr(sampling, "substream", lambda seed, point: Stream())
    counts = sample_sequences(table, SampleConfig(uniforms.size, seed=0))
    assert np.array_equal(counts, oracles.categorical_counts(table.probabilities, uniforms))
    assert counts[3] == 0
    assert counts[15] == 3  # the edge cdf[14], just below cdf[15] and past it


def test_neighbouring_seeds_and_points_share_no_uniforms():
    """Seeding with seed + point made seed 42, point k replay seed 43, point k - 1."""
    streams = [(seed, point) for seed in (42, 43, 42 + 2**32) for point in range(3)]
    draws = np.concatenate([substream(*stream).random(256) for stream in streams])
    assert np.unique(draws).size == draws.size
    table = uniform_table()
    assert not np.array_equal(
        sample_sequences(table, SampleConfig(4000, 42, point=1)),
        sample_sequences(table, SampleConfig(4000, 43, point=0)),
    )


def test_sampling_is_deterministic_per_seed(xy4, up4, spec_xx):
    table = outcome_probabilities(up4, spec_xx, xy4.evolution(0.5))
    cfg = SampleConfig(1000, seed=42)
    assert np.array_equal(sample_sequences(table, cfg), sample_sequences(table, cfg))
    other = sample_sequences(table, SampleConfig(1000, seed=43))
    assert not np.array_equal(other, sample_sequences(table, cfg))


def test_estimate_from_deterministic_counts():
    est = estimate_re_otoc(250 * one_hot(0).astype(int))
    assert est == Estimate(1.0, 0.0, 250)


def test_estimate_from_uniform_counts():
    # mean signed product 0, so the identity 2*corr - 1 gives exactly -1
    est = estimate_re_otoc(np.full(16, 5))
    assert est.value == -1.0
    assert est.stderr == 2.0 / math.sqrt(80)


def test_estimate_rejects_empty_counts():
    with pytest.raises(ValueError, match="empty"):
        estimate_re_otoc(np.zeros(16, dtype=int))
    with pytest.raises(ValueError, match="one entry per outcome sequence"):
        estimate_re_otoc(np.array([5]))


def test_estimator_coverage_on_exact_table(xy4, up4, spec_xx):
    """At 10^4 shots the estimate lands within 4 stderr of Re C in >= 99%
    of seeded repetitions."""
    exact = otoc_direct(up4, spec_xx, xy4.evolution(0.5)).real
    table = outcome_probabilities(up4, spec_xx, xy4.evolution(0.5))
    hits = 0
    for seed in range(100):
        est = estimate_re_otoc(sample_sequences(table, SampleConfig(10_000, seed=seed)))
        if abs(est.value - exact) <= 4.0 * est.stderr:
            hits += 1
    assert hits >= 99


def test_estimator_unbiased_over_many_repetitions(xy4, up4, spec_xx):
    exact = otoc_direct(up4, spec_xx, xy4.evolution(0.5)).real
    table = outcome_probabilities(up4, spec_xx, xy4.evolution(0.5))
    repeats = 1000
    values, stderrs = [], []
    for seed in range(repeats):
        est = estimate_re_otoc(sample_sequences(table, SampleConfig(100, seed=seed)))
        values.append(est.value)
        stderrs.append(est.stderr)
    deviation = abs(np.mean(values) - exact)
    assert deviation < 3.0 * np.mean(stderrs) / math.sqrt(repeats)


def test_error_band_deterministic_table_is_zero():
    assert spread(deterministic_table(), 100, seed=3, repeats=20) == 0.0


def test_error_band_scaling(xy4, up4, spec_xx):
    table = outcome_probabilities(up4, spec_xx, xy4.evolution(0.5))
    band_small = spread(table, 100, seed=5)
    band_large = spread(table, 1000, seed=6)
    ratio = band_small / band_large
    assert math.sqrt(10) * 0.75 < ratio < math.sqrt(10) * 1.25


def test_stderr_scales_with_shot_count(xy4, up4, spec_xx):
    table = outcome_probabilities(up4, spec_xx, xy4.evolution(0.5))
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
        up4, spec_xx, xy4.evolution(0.0), PI_HALF_ANGLES, SampleConfig(2000, seed=17)
    )
    assert est.stderr > 0.0
    assert abs(est.value) <= 4.0 * est.stderr


def test_rotation_sampling_zero_variance_when_expectations_saturate(xy4, up4):
    # z rotations leave the polarized state invariant, so every angle set
    # measures <sigma_z> = +1 and the shots carry no noise at all
    spec = OtocSpec(2, "z", 3, "z")
    est = sample_rotation_protocol(
        up4, spec, xy4.evolution(1.0), PI_HALF_ANGLES, SampleConfig(100, seed=2)
    )
    assert est == Estimate(0.0, 0.0, 100)


def test_rotation_sampling_tracks_exact_im(xy4, up4, spec_xx, rng):
    ev = xy4.evolution(0.5)
    est = sample_rotation_protocol(up4, spec_xx, ev, PI_HALF_ANGLES, SampleConfig(10_000, seed=21))
    exact = otoc_direct(up4, spec_xx, ev).imag
    assert abs(est.value - exact) <= 4.0 * est.stderr
    # also on an instance with genuinely complex C
    prop = Propagator.from_hamiltonian(random_hamiltonian(3, rng))
    state = random_density(3, rng)
    spec = OtocSpec(1, "x", 3, "y")
    ev = prop.evolution(1.1)
    exact_im = otoc_direct(state, spec, ev).imag
    assert abs(exact_im) > 1e-3
    est2 = sample_rotation_protocol(
        state, spec, ev, PI_HALF_ANGLES, SampleConfig(200_000, seed=23)
    )
    assert abs(est2.value - exact_im) <= 4.0 * est2.stderr


@pytest.mark.parametrize("n_shots", [1, 7, 1000, 10**6 + 3])
@pytest.mark.parametrize("instance", ["saturated", "xy", "random"])
def test_rotation_sampling_matches_shot_array_oracle(xy4, up4, instance, n_shots):
    """Value and stderr equal, bit for bit, the means of explicit +/-1 shot
    arrays on the same substream."""
    rng = np.random.Generator(np.random.PCG64(77))
    state, spec, ev, angles = {
        "saturated": lambda: (up4, OtocSpec(2, "z", 3, "z"), xy4.evolution(1.0), PI_HALF_ANGLES),
        "xy": lambda: (up4, OtocSpec(2, "x", 3, "x"), xy4.evolution(0.5), PI_HALF_ANGLES),
        "random": lambda: (
            random_density(3, rng),
            OtocSpec(1, "x", 3, "y"),
            Propagator.from_hamiltonian(random_hamiltonian(3, rng)).evolution(1.1),
            RotationAngles(0.4, 1.3, -2.2),
        ),
    }[instance]()
    cfg = SampleConfig(n_shots, seed=2024, point=5)
    est = sample_rotation_protocol(state, spec, ev, angles, cfg)
    expectations = [rotated_expectation(state, spec, ev, v) for v in angle_variants(angles)]
    value, stderr = oracles.sampled_rotation_estimate(
        expectations, ANGLE_VARIANT_SIGNS, angles.checked_prefactor(), n_shots,
        substream(cfg.seed, cfg.point),
    )
    assert (est.value, est.stderr, est.n_shots) == (value, stderr, n_shots)


def test_rotation_sampling_deterministic(xy4, up4, spec_xx):
    cfg = SampleConfig(500, seed=99)
    a = sample_rotation_protocol(up4, spec_xx, xy4.evolution(0.7), PI_HALF_ANGLES, cfg)
    b = sample_rotation_protocol(up4, spec_xx, xy4.evolution(0.7), PI_HALF_ANGLES, cfg)
    assert a == b


def test_rotation_sampling_rejects_degenerate_angles(xy4, up4, spec_xx):
    angles = RotationAngles(0.1, 0.0, 0.3)
    with pytest.raises(DegenerateAnglesError):
        sample_rotation_protocol(up4, spec_xx, xy4.evolution(0.5), angles, SampleConfig(10, seed=1))


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(0, seed=1)
    with pytest.raises(ValueError):
        SampleConfig(10, seed=-1)
    with pytest.raises(ValueError):
        SampleConfig(10, seed=2**64)
    with pytest.raises(ValueError):
        SampleConfig(10, seed=1, point=-1)
    with pytest.raises(ValueError):
        Estimate(0.0, -1.0, 10)
