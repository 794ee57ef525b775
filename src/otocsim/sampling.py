"""Finite-shot Monte Carlo simulation of the measurement protocols.

Randomness comes from numpy's PCG64 generator (name and numpy version are
pinned in CLI output metadata).  Runs are deterministic for a given seed.
A sampler draws from the generator it is given; a run gives time point k
of seed s its own, `substream(s, k)` = SeedSequence(s, spawn_key=(k,)),
so no two (seed, point) share uniforms.  A shot takes exactly one uniform,
through the inverse CDF of the 16-way categorical, so single-shot outcome
streams can be replayed; the shot counts are an int array of shape (16,)
in OUTCOME_SEQUENCES order.  The uniforms are drawn in chunks of CHUNK and
counted chunk by chunk.  PCG64 is sequential, so the chunks are the same
uniforms in the same order as one whole draw, and the counts are the same
integers; memory does not grow with n_shots.
"""

from __future__ import annotations

import math

import numpy as np

from .hilbert import Record
from .protocol import (
    ANGLE_VARIANT_SIGNS,
    OUTCOME_SIGNS,
    Ladder,
    ProbabilityTable,
    RotationAngles,
    angle_variants,
    outside_probability_range,
    rotated_expectation,
)

GENERATOR_NAME = "numpy-PCG64"
GENERATOR_VERSION = np.__version__

# uniforms drawn and counted at once: 512 KiB of float64
CHUNK = 2**16


def substream(seed: int, point: int) -> np.random.Generator:
    """PCG64 stream of time point `point` of the run seed (or of `verify` check `point`).

    The point is the SeedSequence's spawn key, kept apart from the seed: in
    a flat entropy list a seed above 2^32 spills into the next word, so
    seed s + k 2^32 at point 0 would replay seed s at point k.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(point,))))


def check_seed(seed: int) -> int:
    """`seed`, or ValueError when it is outside the unsigned 64-bit range of a run seed."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} outside the unsigned 64-bit range")
    return seed


class SampleConfig(Record):
    """The sampling block of a run: shots per time point and the run seed."""

    __slots__ = ("n_shots", "seed")

    def __init__(self, n_shots: int, seed: int):
        if n_shots < 1:
            raise ValueError("n_shots must be >= 1")
        self._set(n_shots, check_seed(seed))


class Estimate(Record):
    """Point estimate with its plug-in standard error."""

    __slots__ = ("value", "stderr", "n_shots")

    def __init__(self, value: float, stderr: float, n_shots: int):
        if stderr < 0.0:
            raise ValueError("stderr must be nonnegative")
        self._set(value, stderr, n_shots)


def _tail_counts(rng: np.random.Generator, n_shots: int, edges: np.ndarray) -> np.ndarray:
    """#(u >= edge) for each edge over the next n_shots uniforms of rng.

    Draws exactly n_shots uniforms, in chunks of CHUNK, and counts every
    edge on a chunk while it is in cache.  ValueError if n_shots < 1.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    counts = np.zeros(len(edges), dtype=np.int64)
    for start in range(0, n_shots, CHUNK):
        chunk = rng.random(min(CHUNK, n_shots - start))
        counts += [np.count_nonzero(chunk >= edge) for edge in edges]
    return counts


def sample_sequences(table: ProbabilityTable, n_shots: int, rng: np.random.Generator) -> np.ndarray:
    """Counts of n_shots outcome sequences drawn with the next n_shots uniforms of rng.

    A shot with uniform u lands on sequence k when cdf[k-1] <= u < cdf[k],
    and on the last sequence when u >= cdf[15] (the cumulative sum may fall
    short of 1 by rounding).  So G_k = #(u >= cdf[k-1]) shots land at k or
    later, for k = 1..15, with G_0 = n and G_16 = 0, and counts = -diff(G).
    """
    cdf = np.cumsum(table.probabilities)
    at_or_after = _tail_counts(rng, n_shots, cdf[:-1])
    return -np.diff(np.array([n_shots, *at_or_after, 0]))


def estimate_re_otoc(counts: np.ndarray) -> Estimate:
    """2 * (empirical signed correlation) - 1 with its standard error.

    `counts` holds the shots per outcome sequence in OUTCOME_SEQUENCES
    order.  The per-shot signed product o1 o2 o3 o4 is +/-1, so its plug-in
    variance is 1 - mean^2; the factor 2 from the identity propagates
    into the error.
    """
    if np.shape(counts) != OUTCOME_SIGNS.shape:
        raise ValueError("counts must have one entry per outcome sequence")
    n = int(np.sum(counts))
    if n < 1:
        raise ValueError("counts are empty")
    mean = math.fsum(OUTCOME_SIGNS * counts) / n
    var = max(1.0 - mean * mean, 0.0)
    return Estimate(2.0 * mean - 1.0, 2.0 * math.sqrt(var / n), n)


def sample_rotation_protocol(
    ladder: Ladder, angles: RotationAngles, n_shots: int, rng: np.random.Generator
) -> Estimate:
    """Finite-shot estimate of Im C(t) from the rotation protocol.

    Each of the four angle sets gets n_shots single-shot +/-1
    measurements of sigma_i^a, simulated with outcome probabilities
    (1 +/- <sigma_i^a>)/2: a shot is +1 when its uniform is below p_up.
    The angle sets draw in order from rng, 4 n_shots uniforms in all.  The
    empirical means, (2 #(+1) - n)/n, combine exactly like the exact
    expectations do.  A p_up that is NaN or outside [0, 1] beyond
    ATOL_ALGEBRA raises ValueError naming the angle set.
    """
    prefactor = angles.checked_prefactor()
    combo = 0.0
    var_sum = 0.0
    for sign, variant in zip(ANGLE_VARIANT_SIGNS, angle_variants(angles)):
        p_up = (1.0 + rotated_expectation(ladder, variant)) / 2.0
        if outside_probability_range(p_up):
            raise ValueError(f"probability {p_up} of +1 at angle set {variant} outside [0, 1]")
        p_up = min(max(p_up, 0.0), 1.0)
        ups = n_shots - int(_tail_counts(rng, n_shots, np.array([p_up]))[0])
        mean = (2 * ups - n_shots) / n_shots
        combo += sign * mean
        var_sum += max(1.0 - mean * mean, 0.0) / n_shots
    return Estimate(combo / prefactor, math.sqrt(var_sum) / abs(prefactor), n_shots)
