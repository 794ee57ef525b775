import math

import numpy as np
import pytest

from otocsim.config import (
    MEMORY_BUDGET_BYTES,
    STATE_FOOTPRINTS,
    ConfigError,
    RunConfig,
    SampleConfig,
    max_sites,
    parse_config,
    require,
)
from otocsim.dressing import InteractionCoefficients, LevelScheme
from otocsim.otoc import OtocSpec

FULL = """
# system
n_sites = 4
hamiltonian = xy_chain
initial_state = all_up

site_i = 2
axis_a = x
site_j = 3
axis_b = x
t_start = 0.0
t_stop = 3.0
n_times = 31

n_shots = 10000
seed = 42
n_repeats = 100

theta1 = 1.5707963267948966
theta2 = 1.5707963267948966
theta3 = 1.5707963267948966

omega_laser = 2.0
delta_laser = 4.0
omega_microwave = 30.0
delta_microwave = 18.3857
c6 = 3.0e4
c3 = -3.0e2
r_min = 1.0
r_max = 6.0
n_r = 51
microwave = on
"""


def test_full_config_round_trip():
    config = parse_config(FULL, source="full.cfg")
    assert config.system.n_sites == 4
    assert config.otoc.spec == OtocSpec(2, "x", 3, "x")
    assert config.sampling.seed == 42
    assert config.dressing.scheme == LevelScheme(2.0, 4.0, 30.0, 18.3857)
    assert config.dressing.coeffs == InteractionCoefficients(3.0e4, -3.0e2)
    assert config.dressing.microwave is True
    grid = config.otoc.time_grid()
    assert len(grid) == 31
    np.testing.assert_allclose(grid[[0, -1]], [0.0, 3.0])


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match=r"cfg:2: unknown key 'n_sitez'"):
        parse_config("\nn_sitez = 4\n", source="cfg")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("n_shots = 10\nn_shots = 20\n")


def test_type_error_reports_field():
    with pytest.raises(ConfigError, match=r"field 'n_sites'"):
        parse_config("n_sites = four")
    # the axes are OtocSpec's rule, reported under the otoc block with the key
    with pytest.raises(ConfigError, match=r"otoc block: axis_a='q': unknown Pauli axis 'q'"):
        parse_config(FULL.replace("axis_a = x", "axis_a = q"))
    with pytest.raises(ConfigError, match=r"otoc block: axis_b='X': unknown Pauli axis 'X'"):
        parse_config(FULL.replace("axis_b = x", "axis_b = X"))
    with pytest.raises(ConfigError, match=r"field 'microwave'"):
        parse_config("microwave = maybe")
    with pytest.raises(ConfigError, match=r"field 'hamiltonian'"):
        parse_config("hamiltonian = ising")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some words\n")


def test_incomplete_block_lists_missing_keys():
    with pytest.raises(ConfigError, match="missing.*initial_state"):
        parse_config("n_sites = 4\nhamiltonian = xy_chain\n")


def test_angles_default_to_pi_half():
    config = parse_config("theta2 = 0.5\n")
    assert config.angles.theta1 == math.pi / 2
    assert config.angles.theta2 == 0.5
    assert config.angles.theta3 == math.pi / 2


def test_n_repeats_is_accepted_and_stored_nowhere():
    """n_repeats is read by no command: it parses, is checked >= 1, and joins no block,
    so a file that sets only it has no sampling block."""
    assert parse_config("n_repeats = 5\n") == RunConfig()
    config = parse_config("n_shots = 10\nseed = 1\nn_repeats = 5\n")
    assert config.sampling == SampleConfig(10, 1)
    with pytest.raises(ConfigError, match=r"cfg:1: field 'n_repeats': must be >= 1, got 0"):
        parse_config("n_repeats = 0\n", source="cfg")


def test_site_outside_register_rejected():
    text = FULL.replace("site_j = 3", "site_j = 9")
    with pytest.raises(ConfigError, match="site_j=9"):
        parse_config(text)


def test_time_grid_must_increase():
    text = FULL.replace("t_stop = 3.0", "t_stop = 0.0")
    with pytest.raises(ConfigError, match="increasing"):
        parse_config(text)


def test_seed_range_checked():
    with pytest.raises(ConfigError, match="seed"):
        parse_config(f"seed = {2**64}\nn_shots = 10\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config("seed = -1\nn_shots = 10\n")


def test_dressing_grid_checked():
    text = FULL.replace("r_min = 1.0", "r_min = 7.0")
    with pytest.raises(ConfigError, match="r_min"):
        parse_config(text)


def test_require_names_missing_block():
    config = parse_config("n_shots = 10\nseed = 1\n")
    with pytest.raises(ConfigError, match="'exact' needs the system block"):
        require(config, "system", "exact")
    assert require(config, "sampling", "sample").n_shots == 10


def test_single_time_point_allowed():
    text = FULL.replace("n_times = 31", "n_times = 1")
    grid = parse_config(text).otoc.time_grid()
    np.testing.assert_allclose(grid, [0.0])


@pytest.mark.parametrize("key", ["t_stop", "theta1", "omega_laser", "delta_microwave", "r_max"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_floats_rejected(key, value):
    text = "\n".join(
        f"{key} = {value}" if line.startswith(f"{key} =") else line for line in FULL.splitlines()
    )
    with pytest.raises(ConfigError, match=f"field '{key}': expected a finite number"):
        parse_config(text)


def test_n_shots_above_memory_budget_rejected():
    """n_shots is capped as a run's length, at the 2 GiB // 9 it was capped at when a
    point held 9 bytes a shot; the largest n_shots parses, one more is rejected,
    naming the key."""
    largest = MEMORY_BUDGET_BYTES // 9
    assert parse_config(f"n_shots = {largest}\nseed = 1\n").sampling.n_shots == largest
    for n_shots in (largest + 1, 10**12):
        with pytest.raises(ConfigError, match=f"n_shots={n_shots} needs a run's length above"):
            parse_config(f"n_shots = {n_shots}\nseed = 1\n")


def test_register_above_dense_memory_cap_rejected():
    """The cap is a size estimate per initial state and, for all_up, per axis pair:
    nothing of 2^N is allocated here.  all_up holds only the sectors its chain
    reaches.  With x or y on both axes it diagonalizes weights 0-3 and fits to N = 37,
    where the weight-3 block has C(37,3) = 7770 rows; with a z axis it reaches weight 2
    at most and is bounded only by the 62 sites whose basis indices an int64 holds.
    maximally_mixed, which spans every sector, fits to 13 for every pair.  The
    message names the key, the state, the axes and the size that does not fit."""
    pairs = [(a, b) for a in "xyz" for b in "xyz"]
    caps = {(kind, a, b): max_sites(kind, (a, b)) for kind in STATE_FOOTPRINTS for a, b in pairs}
    for (kind, a, b), cap in caps.items():
        assert STATE_FOOTPRINTS[kind](cap, (a, b)) <= MEMORY_BUDGET_BYTES
        if cap < 62:
            assert STATE_FOOTPRINTS[kind](cap + 1, (a, b)) > MEMORY_BUDGET_BYTES
        expected = 13 if kind == "maximally_mixed" else 62 if "z" in a + b else 37
        assert cap == expected, (kind, a, b)
    assert max_sites("all_up") == 37 and max_sites("maximally_mixed") == 13
    for kind, a, b in [("all_up", "x", "x"), ("all_up", "z", "z"), ("maximally_mixed", "y", "z")]:
        cap = caps[kind, a, b]
        text = (
            FULL.replace("initial_state = all_up", f"initial_state = {kind}")
            .replace("axis_a = x", f"axis_a = {a}")
            .replace("axis_b = x", f"axis_b = {b}")
        )
        at_cap = text.replace("n_sites = 4", f"n_sites = {cap}")
        assert parse_config(at_cap).system.n_sites == cap
        for n_sites in (cap + 1, 63, 10**9):
            with pytest.raises(ConfigError, match=f"n_sites={n_sites} is above {cap}") as info:
                parse_config(text.replace("n_sites = 4", f"n_sites = {n_sites}"))
            message = str(info.value)
            assert f"initial_state = {kind} run fits" in message
            if cap == 62:
                assert message.endswith("fits: its basis indices are int64")
            else:
                needed = STATE_FOOTPRINTS[kind](cap + 1, (a, b)) / 2**30
                needs = f"with the {a}/{b} axes ({needed:.3g} GiB needed at {cap + 1} sites)"
                assert needs in message
