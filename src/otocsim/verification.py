"""Randomized checks of the protocol identities against the direct OTOC.

Random Hamiltonians and full-rank states exercise the identities far from
any special structure; residuals at double precision should sit many
orders below the 1e-9 tolerance, so a failure indicates a real defect.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import Hamiltonian, Propagator
from .hilbert import IDENTITY_TOLERANCE, PAULI_AXES, Record
from .otoc import OtocSpec, otoc_commutator
from .protocol import RotationAngles, build_ladder, im_otoc_via_protocol, prepare, re_otoc_via_protocol
from .sampling import substream

AXIS_PAIRS = tuple((a, b) for a in PAULI_AXES for b in PAULI_AXES)

# `verify` draws this many instances per seed; their sizes cycle through VERIFY_SIZES
# and their axis pairs through AXIS_PAIRS, so every (size, axis pair) comes up.
VERIFY_INSTANCES = 200
VERIFY_SIZES = (2, 3, 4, 5)
CHECKS = ("re_identity", "im_identity", "commutator_relation")

MAX_NORM = 4.0  # bound on a random Hamiltonian's largest entry
MIN_PREFACTOR = 0.1  # random angles keep |prefactor| above this, so Im C is well conditioned


def random_hamiltonian(n_sites: int, rng: np.random.Generator) -> Hamiltonian:
    """Random dense Hermitian Hamiltonian with entrywise max-norm <= MAX_NORM."""
    dim = 2**n_sites
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    h *= MAX_NORM * rng.uniform(0.5, 1.0) / np.max(np.abs(h))
    return Hamiltonian.from_matrix(n_sites, h)


def random_density(n_sites: int, rng: np.random.Generator) -> np.ndarray:
    """The factor G / ||G||_F, G a 2^N x 2^N complex Ginibre matrix, of a random Wishart state:
    PSD by construction, full rank almost surely, rows in `random_hamiltonian`'s order."""
    dim = 2**n_sites
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g / np.linalg.norm(g)


def random_spec(n_sites: int, rng: np.random.Generator, axes: tuple[str, str]) -> OtocSpec:
    site_i, site_j = rng.choice(np.arange(1, n_sites + 1), size=2, replace=False)
    return OtocSpec(int(site_i), axes[0], int(site_j), axes[1])


def random_nondegenerate_angles(rng: np.random.Generator) -> RotationAngles:
    """Uniform angles in [-pi, pi], rejected until the prefactor clears MIN_PREFACTOR."""
    while True:
        angles = RotationAngles(*rng.uniform(-math.pi, math.pi, size=3))
        if abs(angles.prefactor()) > MIN_PREFACTOR:
            return angles


class CheckResult(Record):
    __slots__ = ("name", "max_residual", "tolerance", "instances", "sizes")

    def __init__(
        self, name: str, max_residual: float, tolerance: float, instances: int,
        sizes: tuple[int, ...],
    ):
        self._set(name, max_residual, tolerance, instances, sizes)

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance


def _instances(n_instances: int, seed: int):
    """(prepared state, t, angles) triples, drawn in that order from one stream of `seed`."""
    rng = substream(seed, 0)
    for k in range(n_instances):
        n_sites = VERIFY_SIZES[k % len(VERIFY_SIZES)]
        axes = AXIS_PAIRS[k % len(AXIS_PAIRS)]
        prop = Propagator.from_hamiltonian(random_hamiltonian(n_sites, rng))
        prepared = prepare(random_density(n_sites, rng), random_spec(n_sites, rng, axes), prop)
        yield prepared, float(rng.uniform(0.0, 5.0)), random_nondegenerate_angles(rng)


def run_verification_suite(seed: int) -> list[CheckResult]:
    """2*corr - 1 = Re C, the four-angle combination = Im C and Re C = 1 - <|[W(t),V]|^2>/2
    on the same random instances: each instance's one ladder serves both protocols, and
    C(t) and the squared commutator come from one otoc_commutator chain, never from the
    ladder under test."""
    residuals = []
    for prepared, t, angles in _instances(VERIFY_INSTANCES, seed):
        ladder = build_ladder(prepared, t)
        direct, commutator = otoc_commutator(prepared, t)
        residuals.append((
            abs(re_otoc_via_protocol(ladder) - direct.real),
            abs(im_otoc_via_protocol(ladder, angles) - direct.imag),
            abs(direct.real - (1.0 - commutator / 2.0)),
        ))
    # np.max, unlike the builtin, carries a NaN residual through, and NaN fails `passed`
    worst = np.max(residuals, axis=0)
    return [
        CheckResult(name, float(r), IDENTITY_TOLERANCE, VERIFY_INSTANCES, VERIFY_SIZES)
        for name, r in zip(CHECKS, worst)
    ]
