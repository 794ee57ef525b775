"""Tests of the benchmark's own machinery.  Run: python3 -m pytest -q perfbench"""

import json
import sys
import types
from pathlib import Path

import pytest

from checks import check_command
from run import END_TO_END, PER_LAYER, Ops, layer_metrics
from tracing import Span, Target, Tracer, install, roots, self_times
from workloads import BASE_CONFIG, WORKLOADS, plan

HERE = Path(__file__).resolve().parent


def test_self_time_subtracts_only_what_children_cover():
    spans = [
        Span("root", "cli.self", 0.0, 10.0, None),
        Span("a", "protocol.tree", 1.0, 4.0, 0),
        Span("a.x", "hilbert.dense_ops", 2.0, 3.0, 1),
        Span("b", "otoc.direct", 5.0, 6.5, 0),
        Span("b.x", "dynamics.unitary", 5.5, 6.0, 3),
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.0, 0.5])
    assert sum(self_times(spans)) == pytest.approx(10.0)
    assert roots(spans) == [0, 0, 0, 0, 0]


def test_layer_metrics_count_calls_per_point_under_otoc_commands():
    spans = [
        Span("cli.main:exact", "cli.self", 0.0, 4.0, None),
        Span("otocsim.protocol.embed_pauli", "hilbert.dense_ops", 1.0, 2.0, 0, size=2),
        Span("otocsim.protocol.embed_pauli", "hilbert.dense_ops", 2.0, 3.0, 0, size=2),
        Span("cli.main:verify", "cli.self", 4.0, 5.0, None),
        Span("otocsim.protocol.embed_pauli", "hilbert.dense_ops", 4.0, 4.5, 3, size=3),
    ]
    metrics = layer_metrics(spans, points=2)
    assert metrics["hilbert.embed_pauli_calls_per_point"] == 1.0
    assert metrics["hilbert.dense_bytes_built"] == 16 * (4**2 + 4**2 + 4**3)
    assert metrics["hilbert.dense_ops_s"] == pytest.approx(2.5)
    assert metrics["cli.self_s"] == pytest.approx(2.5)


EXACT_REFERENCE = {"t": [0.0, 0.5], "re_exact": [1.0, 0.25], "im_exact": [0.0, -0.125]}
EXACT_CSV = (
    "# otocsim 0.1.0\n"
    "t,re_exact,im_exact,re_identity_residual,im_identity_residual\n"
    "0,1,0,0,0\n"
    "0.5,0.25,-0.125,1e-16,2e-16\n"
)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text.replace("0.25,", "0.2500001,"),          # exact value off
        lambda text: text.rsplit("\n", 2)[0] + "\n",               # row missing
        lambda text: text.replace("0.5,0.25,-0.125,", "0.5,0.25,"),  # truncated row
        lambda text: text.replace("2e-16", "2e-8"),                # residual too large
        lambda text: text.replace("0.5,", "half,"),                # not a number
    ],
)
def test_corrupted_csv_counts_as_failed_op(corrupt):
    ops = Ops()
    data = EXACT_CSV.encode()
    ops.record("exact", check_command("exact", 0, data, EXACT_REFERENCE))
    ops.record("exact", check_command("exact", 0, corrupt(EXACT_CSV).encode(), EXACT_REFERENCE))
    assert (ops.attempted, ops.failed) == (2, 1)


def test_exit_code_missing_file_and_rerun_mismatch_fail():
    data = EXACT_CSV.encode()
    assert check_command("exact", 3, data, EXACT_REFERENCE)
    assert check_command("exact", 0, None, EXACT_REFERENCE)
    assert check_command("exact", 0, data, EXACT_REFERENCE, first=data + b"\n")
    assert not check_command("exact", 0, data, EXACT_REFERENCE, first=data)


def test_sampled_estimate_must_sit_within_five_stderr():
    ref = {"t": [0.0], "re_exact": [0.5], "im_exact": [0.0]}
    head = "t,re_exact,im_exact,re_estimate,re_stderr,im_estimate,im_stderr,n_shots\n"
    inside = head + "0,0.5,0,0.504,0.001,,,1000\n"
    outside = head + "0,0.5,0,0.506,0.001,,,1000\n"
    assert not check_command("sample", 0, inside.encode(), ref)
    assert check_command("sample", 0, outside.encode(), ref)


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("fake_layer")

    def double(x, n_sites=1):
        return 2 * x

    class Box:
        @classmethod
        def make(cls, n_sites):
            return cls()

        def size(self):
            return 3

    module.double, module.Box, module.CONSTANT = double, Box, 7
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    return module


def test_wrapper_skips_missing_names(fake_module):
    targets = (
        Target("fake_layer", "double", "g.double", "n_sites"),
        Target("fake_layer", "Box.make", "g.make", "n_sites"),
        Target("fake_layer", "Box.size", "g.size"),
        Target("fake_layer", "deleted_function", "g.gone"),
        Target("fake_layer", "Box.deleted_method", "g.gone"),
        Target("fake_layer", "CONSTANT", "g.gone"),
        Target("no_such_module_anywhere", "f", "g.gone"),
    )
    tracer = Tracer()
    installed, missing = install(tracer, targets)
    assert installed == ["fake_layer.double", "fake_layer.Box.make", "fake_layer.Box.size"]
    assert missing == [
        "fake_layer.deleted_function",
        "fake_layer.Box.deleted_method",
        "fake_layer.CONSTANT",
        "no_such_module_anywhere.f",
    ]
    assert fake_module.double(4, n_sites=5) == 8
    assert fake_module.Box.make(6).size() == 3
    assert [(s.name, s.size) for s in tracer.spans] == [
        ("fake_layer.double", 5),
        ("fake_layer.Box.make", 6),
        ("fake_layer.Box.size", None),
    ]


def test_generator_is_a_function_of_the_seed(tmp_path):
    for name in WORKLOADS:
        assert plan(name, 11, tmp_path) == plan(name, 11, tmp_path)
        text, steps = plan(name, 11, tmp_path)
        other_text, other_steps = plan(name, 12, tmp_path)
        assert text == other_text  # the seed reaches the program only as --seed
        assert [s.argv for s in steps] != [s.argv for s in other_steps]
        for step in steps:
            assert step.argv[step.argv.index("--seed") + 1] == "11"
        keys = [line.split(" = ")[0] for line in text.splitlines() if not line.startswith("#")]
        assert keys == list(BASE_CONFIG)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    references = json.loads((HERE / "references.json").read_text())
    assert {name: set(refs) for name, refs in references.items()} == {
        name: set(w.commands) for name, w in WORKLOADS.items()
    }
