"""Independent brute-force implementations used only as test oracles.

Deliberately written on a different code path than the package: operators
come from explicit per-site Kronecker factor lists, unitaries from
scipy.linalg.expm rather than an eigendecomposition, probabilities from
the closed-form single-trace expression rather than sequential collapse,
shot counts from a per-shot categorical index rather than threshold counts.
Same basis convention as the package (site 1 = least significant bit,
|up> = bit 0).
"""

import math

import numpy as np
from scipy.linalg import expm

SIGMA = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_chain(factors):
    """Kronecker product of per-site 2x2 factors, site 1 last (LSB)."""
    out = np.eye(1, dtype=complex)
    for factor in reversed(factors):
        out = np.kron(out, factor)
    return out


def site_operator(n_sites, site, axis):
    factors = ["i"] * n_sites
    factors[site - 1] = axis
    return kron_chain([SIGMA[f] for f in factors])


def site_projector(n_sites, site, axis, sign):
    return (np.eye(2**n_sites) + sign * site_operator(n_sites, site, axis)) / 2.0


def xy_chain(n_sites):
    dim = 2**n_sites
    h = np.zeros((dim, dim), dtype=complex)
    for k in range(1, n_sites):
        h -= site_operator(n_sites, k, "x") @ site_operator(n_sites, k + 1, "x")
        h -= site_operator(n_sites, k, "y") @ site_operator(n_sites, k + 1, "y")
    return h


def otoc_value(rho, h, n_sites, site_i, axis_a, site_j, axis_b, t):
    """C(t) = Tr[rho W(t) V W(t) V] with W(t) from expm."""
    u = expm(-1j * h * t)
    w_t = u.conj().T @ site_operator(n_sites, site_i, axis_a) @ u
    v = site_operator(n_sites, site_j, axis_b)
    return complex(np.trace(rho @ w_t @ v @ w_t @ v))


def probability_table(rho, h, n_sites, site_i, axis_a, site_j, axis_b, t):
    """Joint outcome probabilities via the closed-form trace expression.

    P(o1,o2,o3,o4) = Tr[Pi_i^o4(t) Pi_j^o3 Pi_i^o2(t) Pi_j^o1 rho
                        Pi_j^o1 Pi_i^o2(t) Pi_j^o3]
    with Pi(t) = e^{iHt} Pi e^{-iHt}.
    """
    u = expm(-1j * h * t)
    table = {}
    for o1 in (+1, -1):
        pj1 = site_projector(n_sites, site_j, axis_b, o1)
        for o2 in (+1, -1):
            pi2 = u.conj().T @ site_projector(n_sites, site_i, axis_a, o2) @ u
            for o3 in (+1, -1):
                pj3 = site_projector(n_sites, site_j, axis_b, o3)
                for o4 in (+1, -1):
                    pi4 = u.conj().T @ site_projector(n_sites, site_i, axis_a, o4) @ u
                    prod = pi4 @ pj3 @ pi2 @ pj1 @ rho @ pj1 @ pi2 @ pj3
                    table[(o1, o2, o3, o4)] = float(np.trace(prod).real)
    return table


def rotation(n_sites, site, axis, theta):
    return expm(-1j * theta / 2.0 * site_operator(n_sites, site, axis))


def rotated_sigma_expectation(
    rho, h, n_sites, site_i, axis_a, site_j, axis_b, t, theta1, theta2, theta3
):
    """<sigma_i^a> after the composite rotate/evolve sequence, via expm."""
    u = expm(-1j * h * t)
    composite = (
        u
        @ rotation(n_sites, site_j, axis_b, theta3)
        @ u.conj().T
        @ rotation(n_sites, site_i, axis_a, theta2)
        @ u
        @ rotation(n_sites, site_j, axis_b, theta1)
    )
    final = composite @ rho @ composite.conj().T
    return float(np.trace(final @ site_operator(n_sites, site_i, axis_a)).real)


def categorical_counts(probabilities, uniforms):
    """Counts per category of one uniform per shot through the inverse CDF.

    Shot u takes the first category whose cumulative probability exceeds u,
    or the last category when rounding leaves the cumulative sum below u.
    """
    cdf = np.cumsum(probabilities)
    indices = np.searchsorted(cdf, uniforms, side="right")
    np.clip(indices, 0, len(cdf) - 1, out=indices)
    return np.bincount(indices, minlength=len(cdf))


def sampled_rotation_estimate(expectations, signs, prefactor, n_shots, rng):
    """Im C estimate and stderr from explicit +/-1 shot arrays.

    Angle set k draws n_shots shots, +1 where a uniform is below
    (1 + expectations[k]) / 2; the shot means combine with signs[k] and
    divide by the prefactor.
    """
    combo = var_sum = 0.0
    for sign, exact in zip(signs, expectations):
        p_up = min(max((1.0 + exact) / 2.0, 0.0), 1.0)
        mean = float(np.where(rng.random(n_shots) < p_up, 1.0, -1.0).mean())
        combo += sign * mean
        var_sum += max(1.0 - mean * mean, 0.0) / n_shots
    return combo / prefactor, math.sqrt(var_sum) / abs(prefactor)


def soft_core_coupling(omega, delta, v):
    """Fourth-order perturbative dressed Ising coupling (omega**4/8delta**3) V/(V+2delta)."""
    return omega**4 / (8.0 * delta**3) * v / (v + 2.0 * delta)


def crossing_gap_two_level(c6, c3, delta_mu, omega_mu, r_values):
    """Minimum gap of the 2x2 vdW/dipolar avoided-crossing reduction.

    Channels |SS> at c6/r^6 and (|SP>+|PS>)/sqrt2 at delta_mu + c3/r^3
    (energies relative to the doubly laser-detuned reference), coupled by
    omega_mu/sqrt2.
    """
    gaps = []
    for r in r_values:
        diff = c6 / r**6 - (delta_mu + c3 / r**3)
        gaps.append(np.sqrt(diff**2 + 2.0 * omega_mu**2))
    return float(min(gaps))
