"""Finite-shot Monte Carlo simulation of the measurement protocols.

Randomness comes from numpy's PCG64 generator (name and numpy version are
pinned in CLI output metadata).  Runs are deterministic for a given seed.
Every stream comes from `substream`: time point k of a run with seed s
draws from SeedSequence(s, spawn_key=(k,)), so no two (seed, point) share
uniforms.  Shots are drawn one uniform per shot through the inverse CDF of
the 16-way categorical, so single-shot outcome streams can be replayed;
the shot counts are an int array of shape (16,) in OUTCOME_SEQUENCES order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Evolution
from .hilbert import DensityOperator
from .otoc import OtocSpec
from .protocol import (
    ANGLE_VARIANT_SIGNS,
    OUTCOME_SIGNS,
    ProbabilityTable,
    RotationAngles,
    angle_variants,
    rotated_expectation,
)

GENERATOR_NAME = "numpy-PCG64"
GENERATOR_VERSION = np.__version__


def substream(seed: int, point: int) -> np.random.Generator:
    """PCG64 stream of time point `point` of the run seed.

    The point is the SeedSequence's spawn key, kept apart from the seed: in
    a flat entropy list a seed above 2^32 spills into the next word, so
    seed s + k 2^32 at point 0 would replay seed s at point k.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(point,))))


@dataclass(frozen=True)
class SampleConfig:
    """Shot budget and seeding for one simulated experiment at time point `point`."""

    n_shots: int
    seed: int
    point: int = 0

    def __post_init__(self):
        if self.n_shots < 1:
            raise ValueError("n_shots must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.point < 0:
            raise ValueError("point must be >= 0")


@dataclass(frozen=True)
class Estimate:
    """Point estimate with its plug-in standard error."""

    value: float
    stderr: float
    n_shots: int

    def __post_init__(self):
        if self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")


def sample_sequences(table: ProbabilityTable, cfg: SampleConfig) -> np.ndarray:
    """Counts of cfg.n_shots outcome sequences drawn from the stream of (cfg.seed, cfg.point).

    A shot with uniform u lands on sequence k when cdf[k-1] <= u < cdf[k],
    and on the last sequence when u >= cdf[15] (the cumulative sum may fall
    short of 1 by rounding).  So G_k = #(u >= cdf[k-1]) shots land at k or
    later, for k = 1..15, with G_0 = n and G_16 = 0, and counts = -diff(G).
    """
    cdf = np.cumsum(table.probabilities)
    uniforms = substream(cfg.seed, cfg.point).random(cfg.n_shots)
    at_or_after = [np.count_nonzero(uniforms >= edge) for edge in cdf[:-1]]
    return -np.diff(np.array([cfg.n_shots, *at_or_after, 0]))


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
    state: DensityOperator,
    spec: OtocSpec,
    ev: Evolution,
    angles: RotationAngles,
    cfg: SampleConfig,
) -> Estimate:
    """Finite-shot estimate of Im C(t) from the rotation protocol.

    Each of the four angle sets gets cfg.n_shots single-shot +/-1
    measurements of sigma_i^a, simulated with outcome probabilities
    (1 +/- <sigma_i^a>)/2: a shot is +1 when its uniform is below p_up.
    The empirical means, (2 #(+1) - n)/n, combine exactly like the exact
    expectations do.
    """
    prefactor = angles.checked_prefactor()
    rng = substream(cfg.seed, cfg.point)
    combo = 0.0
    var_sum = 0.0
    for sign, variant in zip(ANGLE_VARIANT_SIGNS, angle_variants(angles)):
        exact = rotated_expectation(state, spec, ev, variant)
        p_up = min(max((1.0 + exact) / 2.0, 0.0), 1.0)
        ups = np.count_nonzero(rng.random(cfg.n_shots) < p_up)
        mean = (2 * ups - cfg.n_shots) / cfg.n_shots
        combo += sign * mean
        var_sum += max(1.0 - mean * mean, 0.0) / cfg.n_shots
    return Estimate(combo / prefactor, math.sqrt(var_sum) / abs(prefactor), cfg.n_shots)
