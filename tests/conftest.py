import numpy as np
import pytest

import oracles

from otocsim import OtocSpec, Propagator, all_up_state, build_xy_chain


@pytest.fixture(scope="session")
def xy4():
    """Propagator for the N=4 XY chain used across the figure tests."""
    return Propagator.from_hamiltonian(build_xy_chain(4))


@pytest.fixture(scope="session")
def up4(xy4):
    """The all_up factor in xy4's register order."""
    return oracles.factor_in_register_order(xy4.register, all_up_state(4))


@pytest.fixture
def spec_xx():
    """The transverse-axis pair (i=2, j=3) adopted for figure reproduction."""
    return OtocSpec(2, "x", 3, "x")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))
