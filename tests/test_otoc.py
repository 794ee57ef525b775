import numpy as np
import pytest

from otocsim.dynamics import Propagator, build_xy_chain
from otocsim.hilbert import maximally_mixed_state
from otocsim.otoc import OtocSpec, otoc_commutator, otoc_direct
from otocsim.protocol import prepare, prepare_all_up
from otocsim.verification import random_density, random_hamiltonian

import oracles

# Independently computed with tests/oracles.py (explicit Kronecker chains
# plus scipy expm): XY chain N=4, all-up state, a=b=x, i=2, j=3, t=0.5.
OTOC_XX_T05 = -0.187394533949537 + 0.0j


@pytest.mark.parametrize("axes", [("x", "y"), ("z", "x"), ("y", "y")])
def test_initial_value_is_one_for_disjoint_sites(xy4, up4, axes):
    prepared = prepare(up4, OtocSpec(1, axes[0], 3, axes[1]), xy4)
    value = otoc_direct(prepared, 0.0)
    assert abs(value - 1.0) < 1e-12


@pytest.mark.parametrize("t", [0.0, 0.7, 3.3])
def test_zz_otoc_stays_one_on_polarized_state(xy4, up4, t):
    value = otoc_direct(prepare(up4, OtocSpec(2, "z", 3, "z"), xy4), t)
    assert abs(value - 1.0) < 1e-12


def test_derived_value_frozen_and_live_oracle(xy4, up4, spec_xx):
    value = otoc_direct(prepare(up4, spec_xx, xy4), 0.5)
    assert abs(value - OTOC_XX_T05) < 1e-10
    # live second opinion through the independent code path
    rho = np.zeros((16, 16), dtype=complex)
    rho[0, 0] = 1.0
    independent = oracles.otoc_value(rho, oracles.xy_chain(4), 4, 2, "x", 3, "x", 0.5)
    assert abs(value - independent) < 1e-10


def test_commutator_vanishes_initially(xy4, up4):
    prepared = prepare(up4, OtocSpec(1, "x", 4, "y"), xy4)
    assert abs(otoc_commutator(prepared, 0.0)[1]) < 1e-12


def test_commutator_norm_nonnegative(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        prop = Propagator.from_hamiltonian(random_hamiltonian(n, rng))
        state = random_density(n, rng)
        sites = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        prepared = prepare(state, OtocSpec(int(sites[0]), "y", int(sites[1]), "x"), prop)
        assert otoc_commutator(prepared, float(rng.uniform(0, 5)))[1] >= -1e-12


def test_commutator_relation_random_instances(rng):
    """Re C = 1 - <|[W(t),V]|^2> / 2 for Hermitian unitary W, V."""
    axes = ["x", "y", "z"]
    for k in range(30):
        n = int(rng.integers(2, 5))
        prop = Propagator.from_hamiltonian(random_hamiltonian(n, rng))
        state = random_density(n, rng)
        sites = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        spec = OtocSpec(int(sites[0]), axes[k % 3], int(sites[1]), axes[(k // 3) % 3])
        prepared = prepare(state, spec, prop)
        t = float(rng.uniform(0, 5))
        direct, commutator = otoc_commutator(prepared, t)
        assert direct == otoc_direct(prepared, t)
        assert abs(direct.real - (1.0 - commutator / 2.0)) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_squared_commutator_matches_expm_oracle(n, rng):
    """The squared commutator on a full-rank random state, for all 9 axis pairs on
    distinct sites and one same-site spec, against Tr[rho C^dagger C] with
    C = [W(t), V] from expm and Kronecker chains."""
    ham = random_hamiltonian(n, rng)
    prop = Propagator.from_hamiltonian(ham)
    state = random_density(n, rng)
    rho = state @ state.conj().T
    (h,) = ham.blocks  # a dense H is one block in computational order
    specs = []
    for axis_a in "xyz":
        for axis_b in "xyz":
            site_i, site_j = map(int, rng.choice(np.arange(1, n + 1), size=2, replace=False))
            specs.append(OtocSpec(site_i, axis_a, site_j, axis_b))
    specs.append(OtocSpec(n, "x", n, "y"))
    for spec in specs:
        prepared = prepare(state, spec, prop)
        for t in (0.0, float(rng.uniform(0, 5))):
            expected = oracles.squared_commutator(
                rho, h, n, spec.site_i, spec.axis_a, spec.site_j, spec.axis_b, t
            )
            assert abs(otoc_commutator(prepared, t)[1] - expected) < 1e-10


def test_magnitude_bounded_by_one(rng):
    for _ in range(30):
        n = int(rng.integers(2, 5))
        prop = Propagator.from_hamiltonian(random_hamiltonian(n, rng))
        state = random_density(n, rng)
        sites = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        prepared = prepare(state, OtocSpec(int(sites[0]), "x", int(sites[1]), "z"), prop)
        value = otoc_direct(prepared, float(rng.uniform(0, 5)))
        assert abs(value) <= 1.0 + 1e-10


def test_spec_validates_axes_and_sites(xy4, up4):
    with pytest.raises(ValueError, match="unknown Pauli axis 'q'"):
        OtocSpec(1, "q", 2, "x")
    with pytest.raises(ValueError, match="unknown Pauli axis 'X'"):
        OtocSpec(1, "x", 2, "X")
    with pytest.raises(IndexError):
        prepare(up4, OtocSpec(1, "x", 9, "x"), xy4)


def _free_fermion_cases(n, pairs, times):
    prop = Propagator.from_hamiltonian(build_xy_chain(n))
    state = oracles.factor_in_register_order(prop.register, maximally_mixed_state(n))
    for site_i, site_j in pairs:
        prepared = prepare(state, OtocSpec(site_i, "z", site_j, "z"), prop)
        for t in times:
            yield otoc_direct(prepared, t), oracles.free_fermion_zz_otoc(n, site_i, site_j, t)
    for site_j in sorted({site_j for _, site_j in pairs}):
        prepared = prepare(state, OtocSpec(1, "x", site_j, "z"), prop)
        for t in times:
            yield otoc_direct(prepared, t), oracles.free_fermion_xz_otoc(n, site_j, t)


@pytest.mark.parametrize("n", range(3, 9))
def test_xy_chain_matches_free_fermion_oracle(n):
    """Infinite-temperature C(t) against the Jordan-Wigner closed forms, every site pair."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for value, expected in _free_fermion_cases(n, pairs, (0.4, 1.3, 3.7)):
        assert abs(value - expected) < 1e-12


def test_xy_chain_matches_free_fermion_oracle_at_ten_sites():
    for value, expected in _free_fermion_cases(10, [(1, 10), (4, 6)], (0.9, 2.6)):
        assert abs(value - expected) < 1e-12


@pytest.mark.parametrize("n", range(3, 11))
def test_xx_vacuum_matches_wick_oracle(n):
    """The paper's (i,x)/(j,x) correlator on all_up, every ordered pair, against
    the free-fermion Wick oracle."""
    prop = Propagator.from_hamiltonian(build_xy_chain(n))
    for site_i in range(1, n + 1):
        for site_j in range(1, n + 1):
            prepared = prepare_all_up(OtocSpec(site_i, "x", site_j, "x"), prop)
            for t in (0.6, 2.3):
                expected = oracles.free_fermion_xx_vacuum_otoc(n, site_i, site_j, t)
                assert abs(otoc_direct(prepared, t) - expected) < 1e-12
