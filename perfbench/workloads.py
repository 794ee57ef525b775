"""Workload generator: the otocsim CLI runs each benchmark workload makes.

A workload is one config file plus a fixed sequence of CLI commands run
one after another (closed loop, one client).  The config spells out every
key the parser knows, defaults included, so that a later change to a
default shows up as a diff of the generated file rather than silently.

The benchmark seed reaches the program only through ``--seed``.  It
selects the sampling substreams of ``sample``/``im`` and the random
instances of ``verify``; the physics (and so every exact column) does not
depend on it, which is what lets the exact columns be checked against
committed reference values for any seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Every key of the otocsim config schema, in schema order, with the value
# every workload shares unless it overrides it.
BASE_CONFIG: dict[str, str] = {
    "n_sites": "4",
    "hamiltonian": "xy_chain",
    "initial_state": "all_up",
    "site_i": "2",
    "axis_a": "x",
    "site_j": "3",
    "axis_b": "x",
    "t_start": "0.0",
    "t_stop": "3.0",
    "n_times": "31",
    "n_shots": "1000000",
    "seed": "0",
    "n_repeats": "100",
    "theta1": "1.5707963267948966",
    "theta2": "1.5707963267948966",
    "theta3": "1.5707963267948966",
    "omega_laser": "2.0",
    "delta_laser": "4.0",
    "omega_microwave": "30.0",
    "delta_microwave": "18.386",
    "c6": "3.0e4",
    "c3": "-3.0e2",
    "r_min": "1.0",
    "r_max": "6.0",
    "n_r": "501",
    "microwave": "on",
}

OTOC_COMMANDS = ("exact", "sample", "im")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: str
    overrides: dict[str, str]
    commands: tuple[str, ...]

    def config_text(self) -> str:
        values = {**BASE_CONFIG, **self.overrides}
        lines = [
            f"# otocsim benchmark workload {self.name}",
            "# the benchmark seed is passed as --seed, which overrides the seed key",
        ]
        lines += [f"{key} = {value}" for key, value in values.items()]
        return "\n".join(lines) + "\n"

    def setup_args(self) -> list[str]:
        """Register size and initial state of the system the workload builds."""
        values = {**BASE_CONFIG, **self.overrides}
        return [values["n_sites"], values["initial_state"]]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="exact_pure_n10",
            why="the paper's pure-state case on the largest dense register; per-point "
            "time is the dense kernels",
            stresses="hilbert, protocol, dynamics",
            overrides={
                "n_sites": "10",
                "site_i": "5",
                "site_j": "6",
                "t_start": "3.0",
                "n_times": "1",
            },
            commands=("exact",),
        ),
        Workload(
            name="exact_mixed_n8",
            why="a full-rank density matrix on the 31-point grid with the y and z axes; "
            "a pure-state fast path must not move it",
            stresses="hilbert, protocol, dynamics (mixed-state path)",
            overrides={
                "n_sites": "8",
                "initial_state": "maximally_mixed",
                "site_i": "4",
                "axis_a": "y",
                "site_j": "5",
                "axis_b": "z",
            },
            commands=("exact",),
        ),
        Workload(
            name="small_many",
            why="many small calls: 1e6-shot sampling, a dressing scan and 500 random "
            "2-5 qubit identity checks; dense-kernel changes should barely move it",
            stresses="sampling, dressing, verification, cli",
            overrides={},
            commands=("sample", "im", "dressing", "verify"),
        ),
    )
}


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload pass."""

    command: str
    argv: tuple[str, ...]
    out: Path


def plan(name: str, seed: int, workdir: Path, tag: str = "") -> tuple[str, list[Step]]:
    """The config text and the command steps of one pass of a workload.

    ``tag`` keeps the outputs of passes that must be compared apart.
    """
    workload = WORKLOADS[name]
    seed_arg = str(seed % 2**64)
    config = workdir / f"{name}.cfg"
    steps = []
    for command in workload.commands:
        out = workdir / f"{command}{tag}.csv"
        argv = [command]
        if command != "verify":
            argv += ["--config", str(config)]
        argv += ["--out", str(out), "--seed", seed_arg, "--quiet"]
        steps.append(Step(command, tuple(argv), out))
    return workload.config_text(), steps
