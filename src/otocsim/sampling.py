"""Finite-shot Monte Carlo simulation of the measurement protocols.

Randomness comes from numpy's PCG64 generator, which `cli.GENERATOR_NAME`
names with numpy's version in every CSV header.  Runs are deterministic
for a given seed.  The run seed's range check, `check_seed`, and the
sampling block, `SampleConfig`, live in `config`, so that only the commands
that draw (`sample`, `im` and `verify`) load this module.

A sampler draws from the generator it is given; a run gives time point k
of seed s its own, `substream(s, k)` = SeedSequence(s, spawn_key=(k,)),
so no two (seed, point) share uniforms.  A shot takes exactly one uniform,
through the inverse CDF of the 16-way categorical, so single-shot outcome
streams can be replayed; the shot counts are an int array of shape (16,)
in OUTCOME_SEQUENCES order.  The uniforms are drawn in chunks of CHUNK into
one reused buffer per drawing thread and counted chunk by chunk, so memory
does not grow with n_shots.  A point that draws at least 2 CHUNK uniforms
is drawn on up to DRAW_THREADS threads (fewer when the process's CPU
affinity holds fewer), the calling thread included: each job counts a
contiguous stretch of the point's stream on a copy of the generator
advanced to the stretch's start (PCG64 jumps ahead in O(log n) steps).
PCG64 is sequential, so the chunks and the stretches are the uniforms of
one whole draw in the same order, and the counts, sums of integers, are
the same whatever the cut; the generator is left just past its draws.
"""

from __future__ import annotations

import math
import os
import threading

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

# uniforms drawn and counted at once: 512 KiB of float64
CHUNK = 2**16
# most threads a point's draw runs on: at most 2 x (CHUNK float64 + CHUNK bool)
# = 1.1 MiB of buffers on any host
DRAW_THREADS = 2


def substream(seed: int, point: int) -> np.random.Generator:
    """PCG64 stream of time point `point` of the run seed (or of `verify` check `point`).

    The point is the SeedSequence's spawn key, kept apart from the seed: in
    a flat entropy list a seed above 2^32 spills into the next word, so
    seed s + k 2^32 at point 0 would replay seed s at point k.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(point,))))


class Estimate(Record):
    """Point estimate with its plug-in standard error."""

    __slots__ = ("value", "stderr", "n_shots")

    def __init__(self, value: float, stderr: float, n_shots: int):
        if stderr < 0.0:
            raise ValueError("stderr must be nonnegative")
        self._set(value, stderr, n_shots)


def _draw_threads() -> int:
    """Threads a point's draw may run on: DRAW_THREADS, or fewer CPUs in the process's affinity."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cpus = os.cpu_count() or 1
    return min(DRAW_THREADS, cpus)


def describe_draw() -> str:
    """The thread limit of a point's draw, as a run's stderr summary names it."""
    threads = _draw_threads()
    return "drawn on 1 thread" if threads == 1 else f"drawn on up to {threads} threads"


def _count(
    rng: np.random.Generator, n_shots: int, edges, uniforms: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """#(u >= edge) for each edge over the next n_shots uniforms of rng.

    Draws exactly n_shots uniforms, at most len(uniforms) at a time into
    `uniforms`, and counts every edge on a chunk through `mask` while the
    chunk is in cache.
    """
    counts = np.zeros(len(edges), dtype=np.int64)
    for start in range(0, n_shots, len(uniforms)):
        size = min(len(uniforms), n_shots - start)
        chunk = rng.random(out=uniforms[:size])
        hits = mask[:size]
        counts += [np.count_nonzero(np.greater_equal(chunk, edge, out=hits)) for edge in edges]
    return counts


def _buffers(n_shots: int) -> tuple[np.ndarray, np.ndarray]:
    """A drawing thread's chunk of uniforms and comparison mask, for draws of up to n_shots."""
    size = min(CHUNK, n_shots)
    return np.empty(size), np.empty(size, dtype=bool)


def _segment_counts(rng: np.random.Generator, segments: list) -> list[np.ndarray]:
    """#(u >= edge) for each edge of each segment (n_shots, edges) of rng's stream.

    The segments are consecutive: segment s counts the n_shots uniforms
    after those of segments 0..s-1, and rng is left just past all of them.
    Below 2 CHUNK uniforms in all, or on one thread, they are counted on
    rng itself.  Otherwise each segment is one job when there are at least
    as many segments as threads, else each is cut into contiguous pieces of
    at least CHUNK uniforms; job j counts on a copy of rng advanced to its
    offset, on thread j mod threads.  If jobs raise, every thread is joined
    and the first failing job's exception is raised.  ValueError if a
    segment has n_shots < 1.
    """
    if any(n_shots < 1 for n_shots, _ in segments):
        raise ValueError("n_shots must be >= 1")
    total = sum(n_shots for n_shots, _ in segments)
    threads = _draw_threads()
    if threads == 1 or total < 2 * CHUNK:
        uniforms, mask = _buffers(max(n_shots for n_shots, _ in segments))
        return [_count(rng, n_shots, edges, uniforms, mask) for n_shots, edges in segments]

    jobs = []  # (segment, the copy of rng it draws from, n_shots)
    state = rng.bit_generator.state
    offset = 0
    for index, (n_shots, _) in enumerate(segments):
        pieces = 1 if len(segments) >= threads else max(1, min(threads, n_shots // CHUNK))
        cuts = [n_shots * k // pieces for k in range(pieces + 1)]
        for start, stop in zip(cuts, cuts[1:]):
            stream = np.random.PCG64()
            stream.state = state
            jobs.append((index, np.random.Generator(stream.advance(offset + start)), stop - start))
        offset += n_shots
    results = [None] * len(jobs)
    errors = [None] * len(jobs)

    def run(first: int) -> None:
        mine = range(first, len(jobs), threads)
        j = first
        try:
            uniforms, mask = _buffers(max(jobs[k][2] for k in mine))
            for j in mine:
                index, stream, n_shots = jobs[j]
                results[j] = _count(stream, n_shots, segments[index][1], uniforms, mask)
        except Exception as exc:  # raised on the calling thread once all are joined
            errors[j] = exc

    workers = []
    try:
        for first in range(1, min(threads, len(jobs))):
            worker = threading.Thread(target=run, args=(first,))
            worker.start()
            workers.append(worker)
        run(0)
    finally:
        for worker in workers:
            worker.join()
    for error in errors:
        if error is not None:
            raise error
    counts = [np.zeros(len(edges), dtype=np.int64) for _, edges in segments]
    for (index, _, _), result in zip(jobs, results):
        counts[index] += result
    rng.bit_generator.advance(total)
    return counts


def sample_sequences(table: ProbabilityTable, n_shots: int, rng: np.random.Generator) -> np.ndarray:
    """Counts of n_shots outcome sequences drawn with the next n_shots uniforms of rng.

    A shot with uniform u lands on sequence k when cdf[k-1] <= u < cdf[k],
    and on the last sequence when u >= cdf[15] (the cumulative sum may fall
    short of 1 by rounding).  So G_k = #(u >= cdf[k-1]) shots land at k or
    later, for k = 1..15, with G_0 = n and G_16 = 0, and counts = -diff(G).
    """
    cdf = np.cumsum(table.probabilities)
    (at_or_after,) = _segment_counts(rng, [(n_shots, cdf[:-1])])
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
    The four p_up are computed first, then the angle sets draw in order
    from rng, 4 n_shots uniforms in all, one segment each.  The empirical
    means, (2 #(+1) - n)/n, combine exactly like the exact expectations
    do.  A p_up that is NaN or outside [0, 1] beyond ATOL_ALGEBRA raises
    ValueError naming the angle set, before any draw.
    """
    prefactor = angles.checked_prefactor()
    p_ups = []
    for variant in angle_variants(angles):
        p_up = (1.0 + rotated_expectation(ladder, variant)) / 2.0
        if outside_probability_range(p_up):
            raise ValueError(f"probability {p_up} of +1 at angle set {variant} outside [0, 1]")
        p_ups.append(min(max(p_up, 0.0), 1.0))
    tails = _segment_counts(rng, [(n_shots, [p_up]) for p_up in p_ups])
    combo = 0.0
    var_sum = 0.0
    for sign, (at_or_above,) in zip(ANGLE_VARIANT_SIGNS, tails):
        ups = n_shots - int(at_or_above)
        mean = (2 * ups - n_shots) / n_shots
        combo += sign * mean
        var_sum += max(1.0 - mean * mean, 0.0) / n_shots
    return Estimate(combo / prefactor, math.sqrt(var_sum) / abs(prefactor), n_shots)
