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


def in_register_order(register, operator):
    """P A P^T: a computational-order operator compressed to the rows a register holds, in its
    row order."""
    return operator[np.ix_(register.order, register.order)]


def factor_in_register_order(register, psi):
    """P psi: a computational-order factor, 2^N rows, as the rows a register holds, in its row
    order; ValueError if psi has weight on a basis index the register does not hold."""
    if psi.shape[0] != 2**register.n_sites:
        raise ValueError(f"factor has {psi.shape[0]} rows, expected {2**register.n_sites}")
    outside = np.ones(len(psi), dtype=bool)
    outside[register.order] = False
    if np.count_nonzero(psi[outside]):
        raise ValueError("factor has weight on basis indices the register does not hold")
    return psi[register.order]


def site_projector(n_sites, site, axis, sign):
    return (np.eye(2**n_sites) + sign * site_operator(n_sites, site, axis)) / 2.0


def xy_chain(n_sites):
    dim = 2**n_sites
    h = np.zeros((dim, dim), dtype=complex)
    for k in range(1, n_sites):
        h -= site_operator(n_sites, k, "x") @ site_operator(n_sites, k + 1, "x")
        h -= site_operator(n_sites, k, "y") @ site_operator(n_sites, k + 1, "y")
    return h


def hopping_modes(n_sites):
    """(modes, energies) of the XY chain's single-particle hopping h_(k,k+1) = -2.

    The Jordan-Wigner map (Lieb, Schultz, Mattis 1961) turns the open XY
    chain into free fermions hopping with amplitude -2 between neighbours.
    The open chain's normal modes are closed-form: mode m has amplitude
    sqrt(2/(N+1)) sin(pi m k/(N+1)) on site k and energy -4 cos(pi m/(N+1)).
    """
    k = np.arange(1, n_sites + 1)
    modes = math.sqrt(2.0 / (n_sites + 1)) * np.sin(math.pi * np.outer(k, k) / (n_sites + 1))
    return modes, -4.0 * np.cos(math.pi * k / (n_sites + 1))


def hopping_propagator(n_sites, t):
    """u(t) = e^(-iht) for the XY chain's single-particle hopping h (`hopping_modes`)."""
    modes, energies = hopping_modes(n_sites)
    return (modes * np.exp(-1j * energies * t)) @ modes.T


def free_fermion_zz_otoc(n_sites, site_i, site_j, t):
    """Infinite-temperature XY-chain C(t) for W = sigma_i^z, V = sigma_j^z.

    sigma_k^z = exp(i pi n_k) is the Gaussian unitary of Z_k = 1 - 2 e_k e_k^T,
    Gaussians multiply as their single-particle matrices, and the Fock-space
    trace of the Gaussian of M is det(1 + M), so
    C = det(1 + u^dagger Z_i u Z_j u^dagger Z_i u Z_j) / 2^N.
    """
    u = hopping_propagator(n_sites, t)
    z_i, z_j = np.eye(n_sites), np.eye(n_sites)
    z_i[site_i - 1, site_i - 1] = z_j[site_j - 1, site_j - 1] = -1.0
    w = u.conj().T @ z_i @ u
    return complex(np.linalg.det(np.eye(n_sites) + w @ z_j @ w @ z_j)) / 2**n_sites


def free_fermion_thermal_zz_otoc(n_sites, site_i, site_j, t, beta):
    """XY-chain C(t) in the state e^(-beta H)/Z for W = sigma_i^z, V = sigma_j^z.

    e^(-beta H) is the Gaussian of g = e^(-beta h), so with the Gaussians of
    `free_fermion_zz_otoc`, C = det(1 + g w Z_j w Z_j) / det(1 + g) for
    w = u^dagger Z_i u.  Unlike beta = 0, the state does not commute with
    the sublattice flip that sends H to -H, so Im C is not zero.
    """
    modes, energies = hopping_modes(n_sites)
    g = (modes * np.exp(-beta * energies)) @ modes.T
    u = hopping_propagator(n_sites, t)
    z_i, z_j = np.eye(n_sites), np.eye(n_sites)
    z_i[site_i - 1, site_i - 1] = z_j[site_j - 1, site_j - 1] = -1.0
    w = u.conj().T @ z_i @ u
    one = np.eye(n_sites)
    return complex(np.linalg.det(one + g @ w @ z_j @ w @ z_j) / np.linalg.det(one + g))


def free_fermion_xz_otoc(n_sites, site_j, t):
    """Infinite-temperature XY-chain C(t) for W = sigma_1^x, V = sigma_j^z: 1 - 2|u_1j(t)|^2.

    sigma_1^x is a single Majorana operator with no Jordan-Wigner string.
    """
    return 1.0 - 2.0 * abs(hopping_propagator(n_sites, t)[0, site_j - 1]) ** 2


def free_fermion_xx_vacuum_otoc(n_sites, site_i, site_j, t):
    """XY-chain C(t) on all_up for W = sigma_i^x, V = sigma_j^x, by Wick's theorem.

    all_up is the fermion vacuum |0>.  Under Jordan-Wigner
    sigma_k^x = S_k (c_k + c_k^dagger) with the string S_k, the Gaussian
    unitary of diag(-1 on sites < k, +1 elsewhere); U is the Gaussian of u.
    A number-conserving Gaussian G of matrix M sends alpha.c + beta.c^dagger
    to conj(M) alpha.c + M beta.c^dagger under G . G^dagger, the Gaussians
    of a product multiply as their matrices, and every one of them fixes
    |0>.  Moving them all to the right leaves C = <0|L1 L2 L3 L4|0> with
    La = alpha_a.c + beta_a.c^dagger.  Wick's theorem gives
    <L1 L2><L3 L4> - <L1 L3><L2 L4> + <L1 L4><L2 L3>, and
    <0|La Lb|0> = alpha_a.beta_b.  This C is real: H is real, and the
    sublattice flip that sends H to -H fixes |0> and at most negates sigma^x.
    """
    u = hopping_propagator(n_sites, t)

    def string(site):
        return np.diag(np.where(np.arange(1, n_sites + 1) < site, -1.0, 1.0))

    # W(t) V W(t) V = u^dagger S_i A_i u S_j A_j u^dagger S_i A_i u S_j A_j with
    # A_k = c_k + c_k^dagger: each step is the Gaussians left of one A_site
    steps = 2 * [((u.conj().T, string(site_i)), site_i), ((u, string(site_j)), site_j)]
    passed = np.eye(n_sites, dtype=complex)  # the product of the Gaussians moved so far
    terms = []
    for gaussians, site in steps:
        for matrix in gaussians:
            passed = passed @ matrix
        terms.append((passed.conj()[:, site - 1], passed[:, site - 1]))

    def pair(a, b):
        return terms[a][0] @ terms[b][1]

    return complex(pair(0, 1) * pair(2, 3) - pair(0, 2) * pair(1, 3) + pair(0, 3) * pair(1, 2))


def otoc_value(rho, h, n_sites, site_i, axis_a, site_j, axis_b, t):
    """C(t) = Tr[rho W(t) V W(t) V] with W(t) from expm."""
    u = expm(-1j * h * t)
    w_t = u.conj().T @ site_operator(n_sites, site_i, axis_a) @ u
    v = site_operator(n_sites, site_j, axis_b)
    return complex(np.trace(rho @ w_t @ v @ w_t @ v))


def squared_commutator(rho, h, n_sites, site_i, axis_a, site_j, axis_b, t):
    """<|[W(t), V]|^2> = Tr[rho C^dagger C] with C = [W(t), V] and W(t) from expm."""
    u = expm(-1j * h * t)
    w_t = u.conj().T @ site_operator(n_sites, site_i, axis_a) @ u
    v = site_operator(n_sites, site_j, axis_b)
    c = w_t @ v - v @ w_t
    return float(np.trace(rho @ c.conj().T @ c).real)


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


def tracked_dressing_scan(omega_laser, delta_laser, omega_microwave, delta_microwave, c6, c3, distances):
    """Per-point J(r) scan of the |gg>-connected branch, one `eigh` per grid point.

    Levels g, S, P in that order; the pair Hamiltonian at r is built from
    two Kronecker products of the single-atom drive, plus c6/r^6 on |SS>
    and c3/r^3 between |SP> and |PS>.  The branch starts at the largest
    distance from the product of single-atom eigenstates with the most |g>
    weight and follows, inward, the eigenvector of largest squared overlap
    with the previous one.  J = E_gg - 2 E_g, set to 0 within 8 ulps of
    2|E_g|.  Returns (J values, smallest overlap, None), or (None, None,
    (r, overlap)) at the first point whose best overlap is at most 1/2.
    """
    single = np.array(
        [
            [0.0, omega_laser / 2.0, 0.0],
            [omega_laser / 2.0, delta_laser, omega_microwave / 2.0],
            [0.0, omega_microwave / 2.0, delta_laser + delta_microwave],
        ]
    )
    evals, evecs = np.linalg.eigh(single)
    ground = int(np.argmax(np.abs(evecs[0]) ** 2))
    e_single, tracked = evals[ground], np.kron(evecs[:, ground], evecs[:, ground])
    ss, sp, ps = 4, 5, 7
    j_values, min_overlap = np.empty(len(distances)), 1.0
    for idx in reversed(range(len(distances))):
        r = np.float64(distances[idx])
        h = np.kron(single, np.eye(3)) + np.kron(np.eye(3), single)
        with np.errstate(over="ignore"):
            h[ss, ss] += c6 / r**6
            h[sp, ps] += c3 / r**3
            h[ps, sp] += c3 / r**3
        evals, evecs = np.linalg.eigh(h)
        overlaps = np.abs(evecs.conj().T @ tracked) ** 2
        k = int(np.argmax(overlaps))
        if overlaps[k] <= 0.5:
            return None, None, (r, float(overlaps[k]))
        j = evals[k] - 2.0 * e_single
        j_values[idx] = 0.0 if abs(j) <= 8 * np.spacing(abs(2.0 * e_single)) else j
        tracked, min_overlap = evecs[:, k], min(min_overlap, float(overlaps[k]))
    return j_values, min_overlap, None
