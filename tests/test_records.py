"""The package's records: immutable, slotted, compared by field or by identity, and
rebuilt through their checks by `replace`."""

import copy
import math
import pickle

import numpy as np
import pytest

from otocsim import (
    config,
    dressing,
    dynamics,
    protocol,
    sampling,
    sign_inversion,
    traces,
    verification,
)
from otocsim.hilbert import Record

BASE_CONFIG = """
n_sites = 3
hamiltonian = xy_chain
initial_state = all_up
site_i = 1
axis_a = x
site_j = 2
axis_b = z
t_start = 0.0
t_stop = 1.0
n_times = 3
n_shots = 10
seed = 1
theta1 = 0.5
omega_laser = 2.0
delta_laser = 4.0
omega_microwave = 20.0
delta_microwave = 7.2857142857142857
c6 = 3.0e4
c3 = -3.0e2
r_min = 1.0
r_max = 400.0
n_r = 20
microwave = on
"""

# the records that hold arrays, and so compare by identity
ARRAY_HOLDERS = {
    "DressedCurve", "Evolution", "Hamiltonian", "Ladder", "PreparedState", "PreparedTrace",
    "ProbabilityTable", "Propagator",
}


def _samples() -> dict[str, Record]:
    """One valid instance of every record type, by class name."""
    run = config.parse_config(BASE_CONFIG)
    ham = dynamics.build_xy_chain(3)
    prop = dynamics.Propagator.from_hamiltonian(ham)
    prepared = protocol.prepare_all_up(run.otoc.spec, prop)
    ladder = protocol.build_ladder(prepared, 0.5)
    curve = dressing.DressedCurve([1.0, 2.0], [0.5, -0.5], 0.9)
    records = [
        run, run.system, run.otoc, run.otoc.spec, run.sampling, run.angles, run.dressing,
        run.dressing.scheme, run.dressing.coeffs, curve,
        sign_inversion.SignInversionResult(run.dressing.scheme, curve, curve, 1.0, 2.0),
        ham, prop, prop.evolution(0.5), prepared, ladder, protocol.outcome_probabilities(ladder),
        traces.prepare_maximally_mixed(run.otoc.spec, prop),
        sampling.Estimate(0.5, 0.1, 10),
        verification.CheckResult("re_identity", 0.0, 1e-9, 1, (2,)),
    ]
    return {type(record).__name__: record for record in records}


SAMPLES = _samples()


def test_every_record_type_has_a_sample():
    assert set(SAMPLES) == {cls.__name__ for cls in Record.__subclasses__()}
    assert len(SAMPLES) == 20


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_field_can_be_neither_assigned_nor_deleted(name):
    record = SAMPLES[name]
    for field in record.__slots__:
        value = getattr(record, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.no_such_field = 0
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_replace_builds_a_new_record_with_the_change(name):
    record = SAMPLES[name]
    first, *rest = record.__slots__
    marker = getattr(record, first)
    if name == "DressedCurve":
        marker = np.array([1.0, 3.0])
    changed = record.replace(**{first: marker})
    assert type(changed) is type(record) and changed is not record
    if name in ("DressedCurve", "ProbabilityTable"):  # their __init__ copies the arrays given
        assert np.array_equal(getattr(changed, first), marker)
    else:
        assert getattr(changed, first) is marker
    if name != "ProbabilityTable":  # `clamped` is recounted on the clamped table: 0
        assert all(getattr(changed, field) is getattr(record, field) for field in rest)
    with pytest.raises(TypeError):
        record.replace(no_such_field=0)


# record -> a change that its checks reject, and the error
INVALID_CHANGES = {
    "OtocSpec": ({"axis_a": "w"}, ValueError, "axis_a='w': unknown Pauli axis 'w'"),
    "LevelScheme": ({"omega_laser": -1.0}, ValueError, "Rabi frequencies must be nonnegative"),
    "InteractionCoefficients": ({"c6": math.inf}, ValueError, "must be finite"),
    "DressedCurve": ({"distances": [2.0, 1.0]}, ValueError, "strictly increasing"),
    "RotationAngles": ({"theta2": math.nan}, ValueError, "theta2 must be finite"),
    "ProbabilityTable": ({"probabilities": np.ones(16)}, ValueError, "sum to 16.0, not 1"),
    "SampleConfig": ({"n_shots": 0}, ValueError, "n_shots must be >= 1"),
    "Estimate": ({"stderr": -1.0}, ValueError, "stderr must be nonnegative"),
    "Hamiltonian": ({"flip": (0, 1, 2, 3)}, ValueError, "flip is not the spin flip"),
}


@pytest.mark.parametrize("name", sorted(INVALID_CHANGES))
def test_replace_runs_the_checks_again(name):
    changes, error, message = INVALID_CHANGES[name]
    with pytest.raises(error, match=message):
        SAMPLES[name].replace(**changes)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_value_records_compare_by_field_and_array_holders_by_identity(name):
    record = SAMPLES[name]
    twin = record.replace()
    assert record == record and twin is not record
    assert record != object() and not record == object()
    if name in ARRAY_HOLDERS:
        assert twin != record
        assert hash(record) == object.__hash__(record)
    else:
        assert twin == record and hash(twin) == hash(record)


def test_a_changed_field_makes_a_value_record_unequal():
    spec = SAMPLES["OtocSpec"]
    assert spec.replace(site_j=3) != spec
    assert len({spec, spec.replace(), spec.replace(site_j=3)}) == 2
    assert protocol.RotationAngles(0.5) == protocol.RotationAngles(0.5, math.pi / 2)


def test_repr_names_every_field_in_order():
    assert repr(protocol.RotationAngles()) == (
        "RotationAngles(theta1=1.5707963267948966, theta2=1.5707963267948966, "
        "theta3=1.5707963267948966)"
    )
    assert repr(SAMPLES["OtocSpec"]) == "OtocSpec(site_i=1, axis_a='x', site_j=2, axis_b='z')"


@pytest.mark.parametrize("name", ["RunConfig", "Estimate", "LevelScheme"])
def test_a_value_record_survives_copy_and_pickle(name):
    record = SAMPLES[name]
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and twin is not record
