import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otocsim import sampling
from otocsim.config import SampleConfig
from otocsim.dynamics import Propagator
from otocsim.otoc import OtocSpec, otoc_direct
from otocsim.protocol import (
    ANGLE_VARIANT_SIGNS,
    OUTCOME_SEQUENCES,
    DegenerateAnglesError,
    ProbabilityTable,
    Ladder,
    RotationAngles,
    angle_variants,
    build_ladder,
    outcome_probabilities,
    prepare,
    rotated_expectation,
)
from otocsim.sampling import (
    CHUNK,
    Estimate,
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
                estimate_re_otoc(sample_sequences(table, n_shots, substream(seed, m))).value
                for m in range(repeats)
            ]
        )
    )


def test_deterministic_table_puts_all_shots_on_one_sequence():
    counts = sample_sequences(deterministic_table(), 500, substream(7, 0))
    assert np.array_equal(counts, 500 * one_hot(0))


def test_uniform_table_counts_within_five_sigma():
    n_shots = 16000
    counts = sample_sequences(uniform_table(), n_shots, substream(11, 0))
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
    counts = sample_sequences(table, n_shots, substream(seed, point))
    expected = oracles.categorical_counts(
        table.probabilities, substream(seed, point).random(n_shots)
    )
    assert np.array_equal(counts, expected)


def test_threshold_counts_on_edges_and_past_the_cdf():
    """Uniforms exactly on each cumulative edge go to the next sequence, and
    uniforms past a cumulative sum that rounds below 1 go to the last one."""
    probs = np.full(16, 1.0 / 16.0)
    probs[[3, 4, 15]] = [0.0, 0.125, 0.0625 - 5e-11]  # sums to 1 - 5e-11
    table = ProbabilityTable(probs)
    cdf = np.cumsum(table.probabilities)
    uniforms = np.concatenate([[0.0], cdf[:-1], np.nextafter(cdf, 0.0), [1.0 - 1e-12]])

    class Stream:
        def random(self, out):
            assert out.size == uniforms.size
            out[:] = uniforms
            return out

    counts = sample_sequences(table, uniforms.size, Stream())
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
        sample_sequences(table, 4000, substream(42, 1)),
        sample_sequences(table, 4000, substream(43, 0)),
    )


def test_sampling_is_deterministic_per_seed(xy4, up4, spec_xx):
    ladder = build_ladder(prepare(up4, spec_xx, xy4), 0.5)
    table = outcome_probabilities(ladder)
    counts = sample_sequences(table, 1000, substream(42, 0))
    assert np.array_equal(counts, sample_sequences(table, 1000, substream(42, 0)))
    other = sample_sequences(table, 1000, substream(43, 0))
    assert not np.array_equal(other, counts)


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
    exact = otoc_direct(prepare(up4, spec_xx, xy4), 0.5).real
    ladder = build_ladder(prepare(up4, spec_xx, xy4), 0.5)
    table = outcome_probabilities(ladder)
    hits = 0
    for seed in range(100):
        est = estimate_re_otoc(sample_sequences(table, 10_000, substream(seed, 0)))
        if abs(est.value - exact) <= 4.0 * est.stderr:
            hits += 1
    assert hits >= 99


def test_estimator_unbiased_over_many_repetitions(xy4, up4, spec_xx):
    exact = otoc_direct(prepare(up4, spec_xx, xy4), 0.5).real
    ladder = build_ladder(prepare(up4, spec_xx, xy4), 0.5)
    table = outcome_probabilities(ladder)
    repeats = 1000
    values, stderrs = [], []
    for seed in range(repeats):
        est = estimate_re_otoc(sample_sequences(table, 100, substream(seed, 0)))
        values.append(est.value)
        stderrs.append(est.stderr)
    deviation = abs(np.mean(values) - exact)
    assert deviation < 3.0 * np.mean(stderrs) / math.sqrt(repeats)


def test_error_band_deterministic_table_is_zero():
    assert spread(deterministic_table(), 100, seed=3, repeats=20) == 0.0


def test_error_band_scaling(xy4, up4, spec_xx):
    ladder = build_ladder(prepare(up4, spec_xx, xy4), 0.5)
    table = outcome_probabilities(ladder)
    band_small = spread(table, 100, seed=5)
    band_large = spread(table, 1000, seed=6)
    ratio = band_small / band_large
    assert math.sqrt(10) * 0.75 < ratio < math.sqrt(10) * 1.25


def test_stderr_scales_with_shot_count(xy4, up4, spec_xx):
    ladder = build_ladder(prepare(up4, spec_xx, xy4), 0.5)
    table = outcome_probabilities(ladder)
    means = []
    for n_shots in (100, 1000, 10_000):
        stderrs = [
            estimate_re_otoc(sample_sequences(table, n_shots, substream(s, 0))).stderr
            for s in range(20)
        ]
        means.append(np.mean(stderrs))
    for larger, smaller in ((means[0], means[1]), (means[1], means[2])):
        assert math.sqrt(10) * 0.75 < larger / smaller < math.sqrt(10) * 1.25


def test_rotation_sampling_zero_time(xy4, up4, spec_xx):
    prepared = prepare(up4, spec_xx, xy4)
    est = sample_rotation_protocol(
        build_ladder(prepared, 0.0), PI_HALF_ANGLES, 2000, substream(17, 0)
    )
    assert est.stderr > 0.0
    assert abs(est.value) <= 4.0 * est.stderr


def test_rotation_sampling_zero_variance_when_expectations_saturate(xy4, up4):
    # z rotations leave the polarized state invariant, so every angle set
    # measures <sigma_z> = +1 and the shots carry no noise at all
    spec = OtocSpec(2, "z", 3, "z")
    prepared = prepare(up4, spec, xy4)
    est = sample_rotation_protocol(
        build_ladder(prepared, 1.0), PI_HALF_ANGLES, 100, substream(2, 0)
    )
    assert est == Estimate(0.0, 0.0, 100)


def test_rotation_sampling_tracks_exact_im(xy4, up4, spec_xx, rng):
    prepared = prepare(up4, spec_xx, xy4)
    ladder = build_ladder(prepared, 0.5)
    est = sample_rotation_protocol(ladder, PI_HALF_ANGLES, 10_000, substream(21, 0))
    exact = otoc_direct(prepared, 0.5).imag
    assert abs(est.value - exact) <= 4.0 * est.stderr
    # also on an instance with genuinely complex C
    prop = Propagator.from_hamiltonian(random_hamiltonian(3, rng))
    state = random_density(3, rng)
    prepared = prepare(state, OtocSpec(1, "x", 3, "y"), prop)
    exact_im = otoc_direct(prepared, 1.1).imag
    assert abs(exact_im) > 1e-3
    ladder = build_ladder(prepared, 1.1)
    est2 = sample_rotation_protocol(ladder, PI_HALF_ANGLES, 200_000, substream(23, 0))
    assert abs(est2.value - exact_im) <= 4.0 * est2.stderr


@pytest.mark.parametrize("n_shots", [1, 7, 1000, 10**6 + 3])
@pytest.mark.parametrize("instance", ["saturated", "xy", "random"])
def test_rotation_sampling_matches_shot_array_oracle(xy4, up4, instance, n_shots):
    """Value and stderr equal, bit for bit, the means of explicit +/-1 shot
    arrays on the same substream."""
    rng = np.random.Generator(np.random.PCG64(77))

    def random_instance():
        state = random_density(3, rng)
        prop = Propagator.from_hamiltonian(random_hamiltonian(3, rng))
        prepared = prepare(state, OtocSpec(1, "x", 3, "y"), prop)
        return prepared, 1.1, RotationAngles(0.4, 1.3, -2.2)

    prepared, t, angles = {
        "saturated": lambda: (
            prepare(up4, OtocSpec(2, "z", 3, "z"), xy4),
            1.0,
            PI_HALF_ANGLES,
        ),
        "xy": lambda: (
            prepare(up4, OtocSpec(2, "x", 3, "x"), xy4),
            0.5,
            PI_HALF_ANGLES,
        ),
        "random": random_instance,
    }[instance]()
    ladder = build_ladder(prepared, t)
    est = sample_rotation_protocol(ladder, angles, n_shots, substream(2024, 5))
    expectations = [rotated_expectation(ladder, v) for v in angle_variants(angles)]
    value, stderr = oracles.sampled_rotation_estimate(
        expectations, ANGLE_VARIANT_SIGNS, angles.checked_prefactor(), n_shots,
        substream(2024, 5),
    )
    assert (est.value, est.stderr, est.n_shots) == (value, stderr, n_shots)


# shot counts on each side of a chunk boundary
CHUNK_EDGES = [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]


@pytest.fixture(params=[1, 2, 3], ids=lambda threads: f"{threads}_threads")
def draw_threads(request, monkeypatch):
    """Draw on 1, 2 or 3 threads whatever the host's CPUs, with the interpreter
    lock switched every 10 us so the threads interleave: the counts must not move."""
    monkeypatch.setattr(sampling, "_draw_threads", lambda: request.param)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n_shots", CHUNK_EDGES)
@pytest.mark.usefixtures("draw_threads")
def test_chunked_counts_match_categorical_oracle_on_one_whole_draw(n_shots):
    """Counts over chunks equal the inverse-CDF counts of one whole-array draw."""
    weights = np.random.Generator(np.random.PCG64(5)).random(16)
    weights[[2, 9]] = 0.0
    table = ProbabilityTable(weights / weights.sum())
    counts = sample_sequences(table, n_shots, substream(31, 4))
    expected = oracles.categorical_counts(table.probabilities, substream(31, 4).random(n_shots))
    assert np.array_equal(counts, expected)


@pytest.mark.parametrize("n_shots", CHUNK_EDGES)
@pytest.mark.usefixtures("draw_threads")
def test_chunked_rotation_estimate_matches_shot_array_oracle(rng, n_shots):
    """The four angle sets keep their stream positions across chunk boundaries:
    value and stderr equal the whole-array oracle's, bit for bit."""
    prop = Propagator.from_hamiltonian(random_hamiltonian(3, rng))
    ladder = build_ladder(prepare(random_density(3, rng), OtocSpec(1, "x", 3, "y"), prop), 1.1)
    angles = RotationAngles(0.4, 1.3, -2.2)
    est = sample_rotation_protocol(ladder, angles, n_shots, substream(8, 2))
    expectations = [rotated_expectation(ladder, v) for v in angle_variants(angles)]
    value, stderr = oracles.sampled_rotation_estimate(
        expectations, ANGLE_VARIANT_SIGNS, angles.checked_prefactor(), n_shots,
        substream(8, 2),
    )
    assert (est.value, est.stderr, est.n_shots) == (value, stderr, n_shots)


@pytest.mark.parametrize("n_shots", [1, *CHUNK_EDGES])
@pytest.mark.parametrize("protocol", ["projective", "rotation"])
@pytest.mark.usefixtures("draw_threads")
def test_a_sampler_draws_exactly_its_shots_from_the_generator_it_is_given(protocol, n_shots):
    """A run hands each point's substream to its sampler: the 16-way draw takes
    n_shots uniforms from it and the rotation draw 4 n_shots, one per shot and angle
    set, and the generator is left just past them, across chunk boundaries too."""
    grams = np.zeros((2, 6, 6), complex)
    grams[0] = np.eye(6)
    rng = substream(17, 3)
    if protocol == "projective":
        sample_sequences(uniform_table(), n_shots, rng)
        drawn = n_shots
    else:
        sample_rotation_protocol(Ladder(grams, 0j), PI_HALF_ANGLES, n_shots, rng)
        drawn = 4 * n_shots
    assert rng.random() == substream(17, 3).random(drawn + 1)[-1]


@pytest.mark.parametrize("threads", [2, 3])
def test_a_failing_job_raises_on_the_caller_after_every_thread_is_joined(monkeypatch, threads):
    """Jobs 1 and 2 of four fail, on different threads: the caller gets job 1's
    exception, the first in job order, and no drawing thread outlives the call."""
    monkeypatch.setattr(sampling, "_draw_threads", lambda: threads)
    counted = []

    def count(rng, n_shots, edges, uniforms, mask):
        if edges[0] < 0.0:
            raise ValueError(f"job with edge {edges[0]}")
        counted.append(edges[0])
        return np.zeros(1, dtype=np.int64)

    monkeypatch.setattr(sampling, "_count", count)
    segments = [(CHUNK, [edge]) for edge in (0.5, -1.0, -2.0, 0.25)]
    before = threading.active_count()
    with pytest.raises(ValueError, match="job with edge -1.0"):
        sampling._segment_counts(substream(4, 0), segments)
    assert threading.active_count() == before
    assert 0.5 in counted  # the jobs ahead of the failures ran


@pytest.mark.parametrize("protocol", ["projective", "rotation"])
def test_a_draw_below_two_chunks_starts_no_thread(monkeypatch, protocol):
    """Below 2 CHUNK uniforms a point is counted on its own generator in the
    calling thread; at 2 CHUNK the second thread starts."""
    monkeypatch.setattr(sampling, "_draw_threads", lambda: 2)
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Thread)
    grams = np.zeros((2, 6, 6), complex)
    grams[0] = np.eye(6)
    per_shot = 1 if protocol == "projective" else 4
    for n_shots, threads_started in ((2 * CHUNK // per_shot - 1, 0), (2 * CHUNK // per_shot, 1)):
        if protocol == "projective":
            sample_sequences(uniform_table(), n_shots, substream(5, 0))
        else:
            sample_rotation_protocol(Ladder(grams, 0j), PI_HALF_ANGLES, n_shots, substream(5, 0))
        assert len(started) == threads_started
        started.clear()


def test_sampling_memory_does_not_grow_with_the_shot_count():
    """4 10^6 shots trace a peak under 2 MiB: the draw holds one chunk of
    uniforms and one comparison mask per drawing thread (at most
    DRAW_THREADS), not 32 MB of uniforms and a 4 MB mask."""
    table = ProbabilityTable(np.full(16, 1.0 / 16.0))
    grams = np.zeros((2, 6, 6), complex)
    grams[0] = np.eye(6)
    ladder = Ladder(grams, 0j)
    runs = [
        lambda n, rng: sample_sequences(table, n, rng),
        lambda n, rng: sample_rotation_protocol(ladder, PI_HALF_ANGLES, n, rng),
    ]
    for run in runs:
        run(1, substream(3, 0))  # one-time costs of the first call stay out of the peak
        tracemalloc.start()
        try:
            run(4 * 10**6, substream(3, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


@pytest.mark.parametrize(
    "g1, shown",
    [(np.full((6, 6), np.nan), "nan"), (5.0 * np.eye(6), "3.0")],
    ids=["nan", "above_one"],
)
def test_rotation_sampling_rejects_an_expectation_outside_its_range(g1, shown):
    """A NaN or out-of-range <sigma_i^a> would silently count 0 ups, or all of
    them, into an estimate; it raises instead, naming the angle set."""
    grams = np.zeros((2, 6, 6), complex)
    grams[0] = np.eye(6)
    grams[1] = g1
    message = rf"probability {shown} of \+1 at angle set RotationAngles"
    with pytest.raises(ValueError, match=message):
        sample_rotation_protocol(Ladder(grams, 0j), PI_HALF_ANGLES, 1000, substream(1, 0))


def test_rotation_sampling_deterministic(xy4, up4, spec_xx):
    prepared = prepare(up4, spec_xx, xy4)
    ladder = build_ladder(prepared, 0.7)
    a = sample_rotation_protocol(ladder, PI_HALF_ANGLES, 500, substream(99, 0))
    b = sample_rotation_protocol(ladder, PI_HALF_ANGLES, 500, substream(99, 0))
    assert a == b


def test_rotation_sampling_rejects_degenerate_angles(xy4, up4, spec_xx):
    angles = RotationAngles(0.1, 0.0, 0.3)
    prepared = prepare(up4, spec_xx, xy4)
    with pytest.raises(DegenerateAnglesError):
        ladder = build_ladder(prepared, 0.5)
        sample_rotation_protocol(ladder, angles, 10, substream(1, 0))


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(0, seed=1)
    with pytest.raises(ValueError):
        SampleConfig(10, seed=-1)
    with pytest.raises(ValueError):
        SampleConfig(10, seed=2**64)
    with pytest.raises(ValueError, match="n_shots"):
        sample_sequences(uniform_table(), 0, substream(1, 0))
    with pytest.raises(ValueError):
        Estimate(0.0, -1.0, 10)
