"""Flat key=value run configuration with fail-closed parsing.

Unknown keys are errors: a silently ignored typo in a physics parameter
is worse than a rejected file.  Keys are grouped into blocks (system,
otoc, sampling, angles, dressing); a command validates only the blocks it
needs, so one file can drive every subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dressing import InteractionCoefficients, LevelScheme, build_two_atom_hamiltonian
from .hilbert import PAULI_AXES
from .protocol import DEFAULT_ANGLES

HAMILTONIAN_KINDS = ("xy_chain",)
INITIAL_STATE_KINDS = ("all_up", "maximally_mixed")

# The estimate allows up to 16 dense 2^N x 2^N complex matrices at once.
# For a full-rank state a run holds, for its whole length, the prepared
# state: Psi in register order (one such matrix).  A time point adds its
# temporaries: the ladder that both protocols and the direct C(t) read
# holds at most five full-width factors while it builds its four evolved
# factors and takes their Gram matrices; only the two 6 x 6 Gram matrices
# and C(t) outlive it.  Traced one-point N=10 and 31-point N=8
# maximally_mixed `exact` runs peak at 6.46 and 6.71 of them, U(t) and
# U(t)^dagger included.  The XY chain's H is never dense: it, its real
# eigenvectors, U(t) and U(t)^dagger are block-diagonal over the
# Hamming-weight sectors and hold sum_k C(N,k)^2 entries each (about 18%
# of 4^N at N=10), and H's hermiticity is checked block by block.  The
# estimate is therefore an upper bound kept from the dense layout.
# Registers whose estimate exceeds the budget are rejected before anything
# is allocated.
DENSE_MATRICES_AT_PEAK = 16
DENSE_MEMORY_BUDGET_BYTES = 4 * 2**30


def dense_footprint_bytes(n_sites: int) -> int:
    """Estimated peak bytes of dense matrices held by the exact path on n_sites qubits."""
    return DENSE_MATRICES_AT_PEAK * 16 * 4**n_sites


MAX_SITES = max(n for n in range(1, 64) if dense_footprint_bytes(n) <= DENSE_MEMORY_BUDGET_BYTES)


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class SystemConfig:
    n_sites: int
    hamiltonian: str
    initial_state: str


@dataclass(frozen=True)
class OtocConfig:
    site_i: int
    axis_a: str
    site_j: int
    axis_b: str
    t_start: float
    t_stop: float
    n_times: int

    def time_grid(self) -> np.ndarray:
        if self.n_times == 1:
            return np.array([self.t_start])
        return np.linspace(self.t_start, self.t_stop, self.n_times)


@dataclass(frozen=True)
class SamplingConfig:
    n_shots: int
    seed: int
    n_repeats: int = 100  # read by no command; accepted so existing configs still parse


@dataclass(frozen=True)
class AnglesConfig:
    theta1: float = DEFAULT_ANGLES[0]
    theta2: float = DEFAULT_ANGLES[1]
    theta3: float = DEFAULT_ANGLES[2]


@dataclass(frozen=True)
class DressingConfig:
    omega_laser: float
    delta_laser: float
    omega_microwave: float
    delta_microwave: float
    c6: float
    c3: float
    r_min: float
    r_max: float
    n_r: int
    microwave: bool


@dataclass(frozen=True)
class RunConfig:
    system: SystemConfig | None = None
    otoc: OtocConfig | None = None
    sampling: SamplingConfig | None = None
    angles: AnglesConfig | None = None
    dressing: DressingConfig | None = None


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "on", "yes", "1"):
        return True
    if lowered in ("false", "off", "no", "0"):
        return False
    raise ValueError(f"expected a boolean (on/off), got {raw!r}")


def _parse_choice(choices: tuple[str, ...]) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {raw!r}")
        return raw

    return parse


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _parse_seed(raw: str) -> int:
    value = int(raw)
    if not 0 <= value < 2**64:
        raise ValueError(f"seed {value} outside the unsigned 64-bit range")
    return value


# key -> (block, parser)
_SCHEMA: dict[str, tuple[str, Callable[[str], object]]] = {
    "n_sites": ("system", int),
    "hamiltonian": ("system", _parse_choice(HAMILTONIAN_KINDS)),
    "initial_state": ("system", _parse_choice(INITIAL_STATE_KINDS)),
    "site_i": ("otoc", int),
    "axis_a": ("otoc", _parse_choice(PAULI_AXES)),
    "site_j": ("otoc", int),
    "axis_b": ("otoc", _parse_choice(PAULI_AXES)),
    "t_start": ("otoc", _parse_float),
    "t_stop": ("otoc", _parse_float),
    "n_times": ("otoc", int),
    "n_shots": ("sampling", int),
    "seed": ("sampling", _parse_seed),
    "n_repeats": ("sampling", int),
    "theta1": ("angles", _parse_float),
    "theta2": ("angles", _parse_float),
    "theta3": ("angles", _parse_float),
    "omega_laser": ("dressing", _parse_float),
    "delta_laser": ("dressing", _parse_float),
    "omega_microwave": ("dressing", _parse_float),
    "delta_microwave": ("dressing", _parse_float),
    "c6": ("dressing", _parse_float),
    "c3": ("dressing", _parse_float),
    "r_min": ("dressing", _parse_float),
    "r_max": ("dressing", _parse_float),
    "n_r": ("dressing", int),
    "microwave": ("dressing", _parse_bool),
}

# keys with spec-stated defaults; everything else must be spelled out
_OPTIONAL = {"theta1", "theta2", "theta3", "n_repeats"}


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse and cross-validate a flat key=value configuration."""
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key, raw_value = key.strip(), raw_value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(
                f"{source}:{lineno}: duplicate key {key!r} (first set on line {lines[key]})"
            )
        _, parser = _SCHEMA[key]
        try:
            values[key] = parser(raw_value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: field {key!r}: {exc}") from None
        lines[key] = lineno

    blocks: dict[str, dict[str, object]] = {}
    for key, value in values.items():
        blocks.setdefault(_SCHEMA[key][0], {})[key] = value

    def build(block: str, cls):
        present = blocks.get(block)
        if present is None:
            return None
        required = {
            k for k, (b, _) in _SCHEMA.items() if b == block and k not in _OPTIONAL
        }
        missing = sorted(required - set(present))
        if missing:
            raise ConfigError(
                f"{source}: {block} block is incomplete, missing: {', '.join(missing)}"
            )
        return cls(**present)

    config = RunConfig(
        system=build("system", SystemConfig),
        otoc=build("otoc", OtocConfig),
        sampling=build("sampling", SamplingConfig),
        angles=build("angles", AnglesConfig),
        dressing=build("dressing", DressingConfig),
    )
    _cross_validate(config, source)
    return config


def _cross_validate(config: RunConfig, source: str) -> None:
    def fail(message: str):
        raise ConfigError(f"{source}: {message}")

    if config.system is not None:
        if config.system.n_sites < 1:
            fail("n_sites must be >= 1")
        if config.system.hamiltonian == "xy_chain" and config.system.n_sites < 2:
            fail("xy_chain needs n_sites >= 2")
        if config.system.n_sites > MAX_SITES:
            fail(
                f"n_sites={config.system.n_sites} is above {MAX_SITES}, the largest register "
                f"whose dense matrices fit in {DENSE_MEMORY_BUDGET_BYTES / 2**30:g} GiB "
                f"({dense_footprint_bytes(MAX_SITES + 1) / 2**30:g} GiB needed at "
                f"{MAX_SITES + 1} sites)"
            )
    if config.otoc is not None:
        if config.otoc.n_times < 1:
            fail("n_times must be >= 1")
        if config.otoc.n_times > 1:
            span = config.otoc.t_stop - config.otoc.t_start
            if not span > 0:
                fail("time grid must be strictly increasing (t_stop > t_start)")
            if not math.isfinite(span):
                fail(f"the time span t_stop - t_start = {span} overflows")
        if config.system is not None:
            for field in ("site_i", "site_j"):
                site = getattr(config.otoc, field)
                if not 1 <= site <= config.system.n_sites:
                    fail(f"{field}={site} outside the register (n_sites={config.system.n_sites})")
    if config.sampling is not None:
        if config.sampling.n_shots < 1:
            fail("n_shots must be >= 1")
        if config.sampling.n_repeats < 1:
            fail("n_repeats must be >= 1")
    if config.dressing is not None:
        d = config.dressing
        if d.omega_laser < 0 or d.omega_microwave < 0:
            fail("Rabi frequencies must be nonnegative")
        if not 0 < d.r_min < d.r_max:
            fail("need 0 < r_min < r_max")
        scheme = LevelScheme(d.omega_laser, d.delta_laser, d.omega_microwave, d.delta_microwave)
        # both potentials fall with r, so every entry of the pair Hamiltonian is largest at r_min
        with np.errstate(all="ignore"):
            pair = build_two_atom_hamiltonian(scheme, InteractionCoefficients(d.c6, d.c3), d.r_min)
        if not np.isfinite(pair).all():
            fail(
                "the pair Hamiltonian of delta_laser, delta_microwave, omega_laser, "
                f"omega_microwave, c6 and c3 overflows at r = r_min = {d.r_min}"
            )
        if d.n_r < 2:
            fail("n_r must be >= 2")


def require(config: RunConfig, block: str, command: str):
    """Fetch a block, raising a command-specific error when absent."""
    value = getattr(config, block)
    if value is None:
        keys = sorted(k for k, (b, _) in _SCHEMA.items() if b == block and k not in _OPTIONAL)
        raise ConfigError(
            f"command {command!r} needs the {block} block (keys: {', '.join(keys)})"
        )
    return value
