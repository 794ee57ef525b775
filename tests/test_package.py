"""The package namespace loads each submodule on first use of one of its names.

Every case runs in a fresh interpreter, so that no other test's imports leak in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import otocsim

SETUP_IMPORT = "from otocsim import Propagator, all_up_state, build_xy_chain, maximally_mixed_state"


SETUP_CHILD = Path(__file__).parents[1] / "perfbench" / "setup_child.py"
GOLDEN_CONFIG = Path(__file__).parent / "golden" / "small_many.cfg"


def run_fresh(*argv):
    """`python *argv` in a fresh interpreter that imports this otocsim, run to completion."""
    package_root = str(Path(otocsim.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
    )


def fresh(code):
    """The JSON value that `python -c code` prints in a fresh interpreter."""
    result = run_fresh("-c", code)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def loaded_after(statement):
    """The otocsim submodules loaded once `statement` has run in a fresh interpreter."""
    return fresh(
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('otocsim.'))))\n"
    )


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import otocsim") == []


def test_the_setup_import_loads_only_dynamics_and_hilbert():
    """The names a caller needs to build a chain and its state pull in their two
    submodules, not dressing, sampling, verification or the protocols."""
    assert loaded_after(SETUP_IMPORT) == ["otocsim.dynamics", "otocsim.hilbert"]


@pytest.mark.parametrize("initial_state", ["all_up", "maximally_mixed"])
def test_the_benchmark_setup_child_builds_each_state(initial_state):
    """The benchmark times `perfbench/setup_child.py` as its set-up step and counts a
    failing child as a failed operation, so the names it imports must stay."""
    result = run_fresh(str(SETUP_CHILD), "4", initial_state)
    assert result.returncode == 0, result.stderr


def test_the_reference_evaluator_loads_only_otoc_and_hilbert():
    """The direct C(t) that the protocols are checked against pulls in no protocol,
    dynamics or verification code: it stays apart from what it checks."""
    assert loaded_after("from otocsim import otoc_direct") == ["otocsim.hilbert", "otocsim.otoc"]


def test_the_command_line_loads_the_full_rank_evaluator_only_for_a_full_rank_run():
    """Every CLI child imports `cli`, which leaves `traces` to the runs that prepare
    I/2^N, so the others do not compile it."""
    loaded = loaded_after("import otocsim.cli")
    assert "otocsim.protocol" in loaded and "otocsim.traces" not in loaded


def test_the_command_line_generates_no_code_and_leaves_verification_to_verify():
    """`import otocsim.cli`, which every CLI child runs, loads neither `dataclasses`,
    whose generated methods each child would compile, nor `verification` nor `traces`;
    `run_verify` loads `verification` itself."""
    assert fresh(
        "import json, sys\n"
        "import otocsim.cli\n"
        "print(json.dumps([m for m in ('dataclasses', 'otocsim.verification', 'otocsim.traces')\n"
        "                  if m in sys.modules]))\n"
    ) == []
    assert fresh(
        "import json, sys\n"
        "from otocsim.cli import run_verify\n"
        "rows, _, ok = run_verify(1, lambda message: None)\n"
        "print(json.dumps([len(rows), ok, 'otocsim.verification' in sys.modules]))\n"
    ) == [3, True, True]


def test_the_command_line_loads_no_argparse_and_no_sampling():
    """`import otocsim.cli` parses its fixed grammar by hand, so it loads neither
    `argparse` nor the `gettext` that argparse loads, and leaves `sampling` to the
    commands that draw."""
    assert fresh(
        "import json, sys\n"
        "import otocsim.cli\n"
        "print(json.dumps([m for m in ('argparse', 'gettext', 'otocsim.sampling')\n"
        "                  if m in sys.modules]))\n"
    ) == []


@pytest.mark.parametrize(
    "command, draws",
    [("exact", False), ("dressing", False), ("sample", True), ("im", True), ("verify", True)],
)
def test_a_command_line_child_loads_sampling_only_where_it_draws(command, draws):
    """A CLI child, as the benchmark starts it, on the golden config, which holds
    every block: `exact` and `dressing` load neither `sampling` nor `numpy.random`,
    `sample`, `im` and `verify` load `sampling`, and no command loads the
    sign-inversion search, which no command runs."""
    argv = [command, "--out", os.devnull, "--quiet"]
    if command != "verify":
        argv += ["--config", str(GOLDEN_CONFIG)]
    code, loaded = fresh(
        "import json, sys\n"
        "from otocsim.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps([code, [m for m in ('otocsim.sampling', 'numpy.random',\n"
        "    'otocsim.sign_inversion') if m in sys.modules]]))\n"
    )
    assert code == 0
    assert "otocsim.sign_inversion" not in loaded
    assert ("otocsim.sampling" in loaded) == draws
    if not draws:
        assert "numpy.random" not in loaded


def test_every_public_name_is_its_submodules_object():
    mismatched = fresh(
        "import importlib, json\n"
        "import otocsim\n"
        "bad = [name for name in otocsim.__all__ if getattr(otocsim, name) is not getattr(\n"
        "    importlib.import_module('otocsim.' + otocsim._HOME[name]), name)]\n"
        "print(json.dumps([bad, len(otocsim.__all__)]))\n"
    )
    assert mismatched == [[], 45]


def test_dir_lists_every_public_name_before_any_is_loaded():
    listed = fresh("import json, otocsim; print(json.dumps([dir(otocsim), otocsim.__all__]))")
    assert set(listed[1]) <= set(listed[0])
    assert "__version__" in listed[0]


def test_an_unknown_name_raises_attribute_error_and_loads_nothing():
    outcome = fresh(
        "import json, sys, otocsim\n"
        "try:\n"
        "    otocsim.no_such_name\n"
        "except AttributeError as error:\n"
        "    loaded = [m for m in sys.modules if m.startswith('otocsim.')]\n"
        "    print(json.dumps([str(error), loaded]))\n"
    )
    assert outcome == ["module 'otocsim' has no attribute 'no_such_name'", []]
