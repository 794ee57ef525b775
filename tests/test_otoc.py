import numpy as np
import pytest

from otocsim.dynamics import Propagator
from otocsim.otoc import OtocSpec, commutator_norm, otoc_direct
from otocsim.verification import random_density, random_hamiltonian

import oracles

# Independently computed with tests/oracles.py (explicit Kronecker chains
# plus scipy expm): XY chain N=4, all-up state, a=b=x, i=2, j=3, t=0.5.
OTOC_XX_T05 = -0.187394533949537 + 0.0j


@pytest.mark.parametrize("axes", [("x", "y"), ("z", "x"), ("y", "y")])
def test_initial_value_is_one_for_disjoint_sites(xy4, up4, axes):
    value = otoc_direct(up4, OtocSpec(1, axes[0], 3, axes[1]), xy4.evolution(0.0))
    assert abs(value - 1.0) < 1e-12


@pytest.mark.parametrize("t", [0.0, 0.7, 3.3])
def test_zz_otoc_stays_one_on_polarized_state(xy4, up4, t):
    value = otoc_direct(up4, OtocSpec(2, "z", 3, "z"), xy4.evolution(t))
    assert abs(value - 1.0) < 1e-12


def test_derived_value_frozen_and_live_oracle(xy4, up4, spec_xx):
    value = otoc_direct(up4, spec_xx, xy4.evolution(0.5))
    assert abs(value - OTOC_XX_T05) < 1e-10
    # live second opinion through the independent code path
    rho = np.zeros((16, 16), dtype=complex)
    rho[0, 0] = 1.0
    independent = oracles.otoc_value(rho, oracles.xy_chain(4), 4, 2, "x", 3, "x", 0.5)
    assert abs(value - independent) < 1e-10


def test_commutator_vanishes_initially(xy4, up4):
    assert abs(commutator_norm(up4, OtocSpec(1, "x", 4, "y"), xy4.evolution(0.0))) < 1e-12


def test_commutator_norm_nonnegative(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        prop = Propagator.from_hamiltonian(random_hamiltonian(n, rng))
        state = random_density(n, rng)
        sites = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        spec = OtocSpec(int(sites[0]), "y", int(sites[1]), "x")
        assert commutator_norm(state, spec, prop.evolution(float(rng.uniform(0, 5)))) >= -1e-12


def test_commutator_relation_random_instances(rng):
    """Re C = 1 - <|[W(t),V]|^2> / 2 for Hermitian unitary W, V."""
    axes = ["x", "y", "z"]
    for k in range(30):
        n = int(rng.integers(2, 5))
        prop = Propagator.from_hamiltonian(random_hamiltonian(n, rng))
        state = random_density(n, rng)
        sites = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        spec = OtocSpec(int(sites[0]), axes[k % 3], int(sites[1]), axes[(k // 3) % 3])
        t = float(rng.uniform(0, 5))
        lhs = otoc_direct(state, spec, prop.evolution(t)).real
        rhs = 1.0 - commutator_norm(state, spec, prop.evolution(t)) / 2.0
        assert abs(lhs - rhs) < 1e-9


def test_magnitude_bounded_by_one(rng):
    for _ in range(30):
        n = int(rng.integers(2, 5))
        prop = Propagator.from_hamiltonian(random_hamiltonian(n, rng))
        state = random_density(n, rng)
        sites = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        spec = OtocSpec(int(sites[0]), "x", int(sites[1]), "z")
        value = otoc_direct(state, spec, prop.evolution(float(rng.uniform(0, 5))))
        assert abs(value) <= 1.0 + 1e-10


def test_spec_validates_axes_and_sites(xy4, up4):
    with pytest.raises(ValueError):
        OtocSpec(1, "q", 2, "x")
    with pytest.raises(IndexError):
        otoc_direct(up4, OtocSpec(1, "x", 9, "x"), xy4.evolution(0.1))
