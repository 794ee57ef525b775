"""Randomized checks of the protocol identities against the direct OTOC.

Random Hamiltonians and full-rank states exercise the identities far from
any special structure; residuals at double precision should sit many
orders below the 1e-9 tolerance, so a failure indicates a real defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Hamiltonian, Propagator
from .hilbert import DensityOperator, PAULI_AXES
from .otoc import OtocSpec, commutator_norm, otoc_direct
from .protocol import RotationAngles, im_otoc_via_protocol, re_otoc_via_protocol

# Largest accepted |reconstructed - direct| of a protocol identity, here and in `otocsim exact`.
IDENTITY_TOLERANCE = 1e-9

AXIS_PAIRS = tuple((a, b) for a in PAULI_AXES for b in PAULI_AXES)


def random_hamiltonian(n_sites: int, rng: np.random.Generator, max_norm: float = 4.0) -> Hamiltonian:
    """Random dense Hermitian Hamiltonian with entrywise max-norm <= max_norm."""
    dim = 2**n_sites
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    h *= max_norm * rng.uniform(0.5, 1.0) / np.max(np.abs(h))
    return Hamiltonian(n_sites, h)


def random_density(n_sites: int, rng: np.random.Generator) -> DensityOperator:
    """Random full-rank density operator (Wishart plus a small ridge)."""
    dim = 2**n_sites
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = g @ g.conj().T + 1e-3 * np.eye(dim)
    return DensityOperator(n_sites, mat / np.trace(mat).real)


def random_spec(n_sites: int, rng: np.random.Generator, axes: tuple[str, str]) -> OtocSpec:
    site_i, site_j = rng.choice(np.arange(1, n_sites + 1), size=2, replace=False)
    return OtocSpec(int(site_i), axes[0], int(site_j), axes[1])


def random_nondegenerate_angles(
    rng: np.random.Generator, min_prefactor: float = 0.1
) -> RotationAngles:
    """Uniform angles in [-pi, pi], rejected until the prefactor clears min_prefactor."""
    while True:
        angles = RotationAngles(*rng.uniform(-math.pi, math.pi, size=3))
        if abs(angles.prefactor()) > min_prefactor:
            return angles


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance


def _instances(n_instances: int, sizes: tuple[int, ...], seed: int):
    rng = np.random.Generator(np.random.PCG64(seed))
    for k in range(n_instances):
        n_sites = sizes[k % len(sizes)]
        axes = AXIS_PAIRS[k % len(AXIS_PAIRS)]
        ham = random_hamiltonian(n_sites, rng)
        prop = Propagator.from_hamiltonian(ham)
        state = random_density(n_sites, rng)
        spec = random_spec(n_sites, rng, axes)
        yield rng, state, spec, prop.evolution(float(rng.uniform(0.0, 5.0)))


def check_re_identity(
    n_instances: int = 200, sizes: tuple[int, ...] = (2, 3, 4, 5), seed: int = 1
) -> CheckResult:
    """2*corr - 1 against Re C on random instances."""
    worst = 0.0
    for _, state, spec, ev in _instances(n_instances, sizes, seed):
        reconstructed = re_otoc_via_protocol(state, spec, ev)
        direct = otoc_direct(state, spec, ev).real
        worst = max(worst, abs(reconstructed - direct))
    return CheckResult("re_identity", worst, IDENTITY_TOLERANCE)


def check_im_identity(
    n_instances: int = 200, sizes: tuple[int, ...] = (2, 3, 4, 5), seed: int = 2
) -> CheckResult:
    """Four-angle-set combination against Im C on random instances."""
    worst = 0.0
    for rng, state, spec, ev in _instances(n_instances, sizes, seed):
        angles = random_nondegenerate_angles(rng)
        reconstructed = im_otoc_via_protocol(state, spec, ev, angles)
        direct = otoc_direct(state, spec, ev).imag
        worst = max(worst, abs(reconstructed - direct))
    return CheckResult("im_identity", worst, IDENTITY_TOLERANCE)


def check_commutator_relation(
    n_instances: int = 100, sizes: tuple[int, ...] = (2, 3, 4), seed: int = 3
) -> CheckResult:
    """Re C = 1 - <|[W(t),V]|^2>/2 on random instances."""
    worst = 0.0
    for _, state, spec, ev in _instances(n_instances, sizes, seed):
        direct = otoc_direct(state, spec, ev).real
        via_commutator = 1.0 - commutator_norm(state, spec, ev) / 2.0
        worst = max(worst, abs(direct - via_commutator))
    return CheckResult("commutator_relation", worst, IDENTITY_TOLERANCE)


def run_verification_suite(seed: int = 1) -> list[CheckResult]:
    """All randomized identity checks, seeded for reproducibility."""
    return [
        check_re_identity(seed=seed),
        check_im_identity(seed=seed + 1),
        check_commutator_relation(seed=seed + 2),
    ]
