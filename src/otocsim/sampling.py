"""Finite-shot Monte Carlo simulation of the measurement protocols.

Randomness comes from numpy's PCG64 generator (name and numpy version are
pinned in CLI output metadata).  Runs are deterministic for a given seed.
Every stream comes from `substream`: time point k of a run with seed s
draws from SeedSequence(s, spawn_key=(k,)), and repeat m of its error
band from spawn_key (k, m), so no two (seed, point, repeat) share uniforms.
Shots are drawn one uniform per shot through the inverse CDF of the 16-way
categorical, so single-shot outcome streams can be replayed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dynamics import Evolution
from .hilbert import DensityOperator
from .otoc import OtocSpec
from .protocol import (
    ANGLE_VARIANT_SIGNS,
    OUTCOME_SEQUENCES,
    ProbabilityTable,
    RotationAngles,
    angle_variants,
    rotated_expectation,
)

GENERATOR_NAME = "numpy-PCG64"
GENERATOR_VERSION = np.__version__


def substream(seed: int, *path: int) -> np.random.Generator:
    """PCG64 stream of child `path` (time point, then repeat) of the run seed.

    The path is the SeedSequence's spawn key, kept apart from the seed: in
    a flat entropy list [seed, point, 0] pools exactly like [seed, point],
    so repeat 0 would replay the point's stream, and a seed above 2^32
    spills into the next word, so seed s + k 2^32 at point 0 would replay
    seed s at point k.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=path)))


@dataclass(frozen=True)
class SampleConfig:
    """Shot budget and seeding for one simulated experiment at time point `point`."""

    n_shots: int
    seed: int
    n_repeats: int = 1
    point: int = 0

    def __post_init__(self):
        if self.n_shots < 1:
            raise ValueError("n_shots must be >= 1")
        if self.n_repeats < 1:
            raise ValueError("n_repeats must be >= 1")
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


def sample_sequences(
    table: ProbabilityTable, cfg: SampleConfig
) -> dict[tuple[int, int, int, int], int]:
    """Draw cfg.n_shots outcome sequences from the stream of (cfg.seed, cfg.point)."""
    return _draw_sequences(table, cfg.n_shots, substream(cfg.seed, cfg.point))


def _draw_sequences(
    table: ProbabilityTable, n_shots: int, rng: np.random.Generator
) -> dict[tuple[int, int, int, int], int]:
    """Counts per outcome sequence of n_shots draws, one uniform per shot."""
    if not isinstance(table, ProbabilityTable):
        table = ProbabilityTable(table)
    probs = np.array([table[seq] for seq in OUTCOME_SEQUENCES])
    cdf = np.cumsum(probs)
    uniforms = rng.random(n_shots)
    indices = np.searchsorted(cdf, uniforms, side="right")
    np.clip(indices, 0, len(OUTCOME_SEQUENCES) - 1, out=indices)
    counts = np.bincount(indices, minlength=len(OUTCOME_SEQUENCES))
    return {seq: int(c) for seq, c in zip(OUTCOME_SEQUENCES, counts)}


def estimate_re_otoc(counts: Mapping[tuple[int, int, int, int], int]) -> Estimate:
    """2 * (empirical signed correlation) - 1 with its standard error.

    The per-shot signed product o1 o2 o3 o4 is +/-1, so its plug-in
    variance is 1 - mean^2; the factor 2 from the identity propagates
    into the error.
    """
    n = sum(counts.values())
    if n < 1:
        raise ValueError("counts are empty")
    mean = (
        math.fsum(seq[0] * seq[1] * seq[2] * seq[3] * counts.get(seq, 0) for seq in OUTCOME_SEQUENCES)
        / n
    )
    var = max(1.0 - mean * mean, 0.0)
    return Estimate(2.0 * mean - 1.0, 2.0 * math.sqrt(var / n), n)


def error_band(table: ProbabilityTable, cfg: SampleConfig) -> float:
    """Standard deviation of the Re C estimator across cfg.n_repeats samples.

    Repeat m draws from the stream of (cfg.seed, cfg.point, m).
    """
    if cfg.n_repeats < 2:
        raise ValueError("error band needs n_repeats >= 2")
    estimates = [
        estimate_re_otoc(
            _draw_sequences(table, cfg.n_shots, substream(cfg.seed, cfg.point, m))
        ).value
        for m in range(cfg.n_repeats)
    ]
    return float(np.std(estimates))


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
    (1 +/- <sigma_i^a>)/2; the empirical means combine exactly like the
    exact expectations do.
    """
    prefactor = angles.checked_prefactor()
    rng = substream(cfg.seed, cfg.point)
    combo = 0.0
    var_sum = 0.0
    for sign, variant in zip(ANGLE_VARIANT_SIGNS, angle_variants(angles)):
        exact = rotated_expectation(state, spec, ev, variant)
        p_up = min(max((1.0 + exact) / 2.0, 0.0), 1.0)
        shots = np.where(rng.random(cfg.n_shots) < p_up, 1.0, -1.0)
        mean = float(shots.mean())
        combo += sign * mean
        var_sum += max(1.0 - mean * mean, 0.0) / cfg.n_shots
    return Estimate(combo / prefactor, math.sqrt(var_sum) / abs(prefactor), cfg.n_shots)
