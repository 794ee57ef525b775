"""Flat key=value run configuration with fail-closed parsing.

Unknown keys are errors: a silently ignored typo in a physics parameter
is worse than a rejected file.  Keys are grouped into blocks (system,
otoc, sampling, angles, dressing).  Every block a file holds is built and
validated when it is parsed, whichever command reads it, so every command
loads the modules of every block's types; a command only requires the
blocks it needs, so one file can drive every subcommand.  A rule that a
library type checks is checked there only, and its error names the block.

The sampling block is a record of this module, `SampleConfig`, like
`SystemConfig`, and the run seed's range check, `check_seed`, is this
module's too, so that parsing a config loads no `sampling`: only the
commands that draw load it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .dressing import InteractionCoefficients, LevelScheme, check_scan
from .dynamics import check_chain_sites
from .hilbert import MAX_BASIS_SITES, Record
from .otoc import OtocSpec
from .protocol import RotationAngles, reached_weights

HAMILTONIAN_KINDS = ("xy_chain",)

# The cap is an estimate of the bytes of the arrays an OTOC run holds at
# once, per initial_state (`STATE_FOOTPRINTS`).  The XY chain's H and its
# real eigenvectors V are block-diagonal over the Hamming-weight sectors
# the run diagonalizes, C(N,w)^2 entries per sector w, both held while the
# propagator is built, beside at most two real temporaries of the largest
# of those sectors: the hermiticity check's M - M^T and its modulus, which
# also cover the parity-split `eigh` and its checks.  U(t) is applied in
# the eigenbasis at every width, so no block of it is held.
#
# all_up diagonalizes only the sectors its chain evolves, and its register
# holds only those (`protocol.reached_weights`): the last sigma_i image is
# read as matrix elements, not held.  So its estimate depends on the axis
# pair: x or y for both axes reaches weights 0-3, z for both only weight 0.
# Beside H and V the estimate counts FACTORS_AT_PEAK arrays of its factor's
# 16 bytes per row: Psi (1); the tables of its two Pauli kernels, each at
# most an int64 gather and a complex phase, and where the register lacks a
# row's partner an int64 list of such rows, all in its top sector (3); a
# time point's phases e^(-iwt), one per diagonalized row (1); the three
# factors that `protocol.build_ladder` rebinds and the one it is building
# (4); and one temporary of at most a factor (1), `Evolution.apply`'s
# coefficient buffer beside one sector's conjugated phases, or numpy's
# complex cast of a z kernel's real signs.  An N = 12 run on the whole
# register traces within them for every axis pair.  At N = 20 on the reached
# register, whose top sector holds most of its rows, runs trace 10.8 (x/x) to
# 11.7 (y/y) factors, which the estimate covers, as the run drops H before
# its first point.  So the x/x run fits up to N = 37, where its largest
# block, weight 3, has C(37,3) = 7770 rows, and a run with a z axis is
# bounded only by MAX_BASIS_SITES.
#
# maximally_mixed, I/2^N, spans every sector and holds no factor
# (`traces.prepare_maximally_mixed`).  The whole chain declares the spin
# flip X^N, which maps weight w onto N - w, so its run diagonalizes only the
# sectors w <= N/2 (V's mirrored blocks are views), and holds H on all N + 1
# of them only while it is built: the set-up holds H, V and the two real
# temporaries, and what follows holds V, W_E and V_E (the two Paulis in the
# eigenbasis) and a time point's blocks of B = V_E W(t)_E, so the estimate is
# the larger of the two.  x and y move a sector by +/-1, so each Pauli has
# 2 C(2N,N-1) entries, complex for y, and B's blocks move by -2, 0 or +2,
# C(2N,N) + 2 C(2N,N-2) complex entries.  A block that X^N sends onto
# another is that block times a sign and is not formed, nor is a block of B
# that only mirrored terms of the traces read (`traces._trace_plan`),
# which leaves half of each; but X^N maps the middle sector of an even N onto
# itself in another basis, so every block that touches it is formed: the
# Paulis' 4 C(N,N/2) C(N,N/2-1) entries there, and B's C(N,N/2)^2 entries of
# block (N/2, N/2).  That is exactly what an x/x run forms, and no axis pair
# forms more.  A point adds at most B_TEMPORARIES complex blocks of the
# largest sector at once: a W(t)_E block and its product into B, or a
# product B_kl B_lm and the elementwise product its trace sums.  So
# maximally_mixed fits up to N = 13.
# Either run also holds RUN_OBJECT_BYTES of small objects whatever its size:
# the config, the array headers and table dicts, a point's ladder and
# output row; a one-point all_up run traces 45-80 KB above its arrays.
# Registers whose estimate exceeds the budget are rejected before anything
# is allocated.
FACTORS_AT_PEAK = 10
B_TEMPORARIES = 2
RUN_OBJECT_BYTES = 2**18
MEMORY_BUDGET_BYTES = 2 * 2**30

# MAX_SHOTS bounds a run's length, not its memory: `sampling` draws and
# counts a point's shots in chunks of `sampling.CHUNK`, so what a point
# holds does not grow with n_shots.  The cap keeps the value the budget gave
# when a point held its shots whole, 9 bytes each (2 GiB // 9), so the
# counts that exit 2 are unchanged.
MAX_SHOTS = 238_609_294

# The same budget bounds the output, which grows with a run's points.  An
# output row, a dict and then its line of the CSV text, traces at 695
# (exact), 788 (sample), 777 (im) and 532 (dressing) bytes, over 20 000 rows
# at N = 2.
ROW_BYTES = 800

# the axis pair whose all_up run reaches the most sectors; a system block
# without an otoc block is capped for it
WIDEST_AXES = ("x", "x")


def _held_bytes(sizes: list[int]) -> int:
    """H and V on blocks of these sizes, two real temporaries of the largest, the small objects."""
    return 2 * 8 * (sum(size * size for size in sizes) + max(sizes) ** 2) + RUN_OBJECT_BYTES


def _pure_bytes(n_sites: int, axes: tuple[str, str] = WIDEST_AXES) -> int:
    """H and V on the sectors the run diagonalizes, and its factors on their rows."""
    sizes = [math.comb(n_sites, w) for w in reached_weights(n_sites, *axes)]
    return _held_bytes(sizes) + FACTORS_AT_PEAK * 16 * sum(sizes)


def _maximally_mixed_bytes(n_sites: int, axes: tuple[str, str] = WIDEST_AXES) -> int:
    """The same for every axis pair: the larger of the set-up and the points, see above."""
    n, half = n_sites, n_sites // 2
    sizes = [math.comb(n, w) for w in range(n + 1)]
    largest_block = sizes[half] ** 2
    v = 8 * sum(size * size for size in sizes[: half + 1])  # the sectors w <= N/2
    set_up = 8 * sum(size * size for size in sizes) + v + 2 * 8 * largest_block
    middle = sizes[half] if n % 2 == 0 else 0
    pauli = math.comb(2 * n, n - 1) + 2 * middle * math.comb(n, half - 1)  # W_E or V_E
    b_blocks = (math.comb(2 * n, n) + 2 * math.comb(2 * n, n - 2) + middle**2) // 2
    points = v + 16 * (2 * pauli + b_blocks) + B_TEMPORARIES * 16 * largest_block
    return max(set_up, points) + RUN_OBJECT_BYTES


# initial_state -> estimated peak bytes of an OTOC run of an axis pair on n_sites qubits
STATE_FOOTPRINTS: dict[str, Callable[..., int]] = {
    "all_up": _pure_bytes,
    "maximally_mixed": _maximally_mixed_bytes,
}


def max_sites(kind: str, axes: tuple[str, str] = WIDEST_AXES) -> int:
    """The largest register, at most MAX_BASIS_SITES, whose estimate for the run fits the budget.

    Every estimate grows with n_sites, so the search stops at the first that does not fit.
    """
    footprint, n_sites = STATE_FOOTPRINTS[kind], 2
    while n_sites < MAX_BASIS_SITES and footprint(n_sites + 1, axes) <= MEMORY_BUDGET_BYTES:
        n_sites += 1
    return n_sites


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def check_seed(seed: int) -> int:
    """`seed`, or ValueError when it is outside the unsigned 64-bit range of a run seed."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} outside the unsigned 64-bit range")
    return seed


class SystemConfig(Record):
    __slots__ = ("n_sites", "hamiltonian", "initial_state")

    def __init__(self, n_sites: int, hamiltonian: str, initial_state: str):
        self._set(n_sites, hamiltonian, initial_state)


class OtocConfig(Record):
    __slots__ = ("spec", "t_start", "t_stop", "n_times")

    def __init__(self, spec: OtocSpec, t_start: float, t_stop: float, n_times: int):
        self._set(spec, t_start, t_stop, n_times)

    def time_grid(self) -> np.ndarray:
        if self.n_times == 1:
            return np.array([self.t_start])
        return np.linspace(self.t_start, self.t_stop, self.n_times)


class SampleConfig(Record):
    """The sampling block of a run: shots per time point and the run seed."""

    __slots__ = ("n_shots", "seed")

    def __init__(self, n_shots: int, seed: int):
        if n_shots < 1:
            raise ValueError("n_shots must be >= 1")
        self._set(n_shots, check_seed(seed))


class DressingConfig(Record):
    __slots__ = ("scheme", "coeffs", "r_min", "r_max", "n_r", "microwave")

    def __init__(
        self, scheme: LevelScheme, coeffs: InteractionCoefficients, r_min: float, r_max: float,
        n_r: int, microwave: bool,
    ):
        self._set(scheme, coeffs, r_min, r_max, n_r, microwave)


class RunConfig(Record):
    __slots__ = ("system", "otoc", "sampling", "angles", "dressing")

    def __init__(
        self, system: SystemConfig | None = None, otoc: OtocConfig | None = None,
        sampling: SampleConfig | None = None, angles: RotationAngles | None = None,
        dressing: DressingConfig | None = None,
    ):
        self._set(system, otoc, sampling, angles, dressing)


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
    return check_seed(int(raw))


def _parse_count(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


# key -> (block, parser); a key of no block is read by no command and
# accepted only so that existing configs still parse
_SCHEMA: dict[str, tuple[str | None, Callable[[str], object]]] = {
    "n_sites": ("system", int),
    "hamiltonian": ("system", _parse_choice(HAMILTONIAN_KINDS)),
    "initial_state": ("system", _parse_choice(tuple(STATE_FOOTPRINTS))),
    "site_i": ("otoc", int),
    "axis_a": ("otoc", str),
    "site_j": ("otoc", int),
    "axis_b": ("otoc", str),
    "t_start": ("otoc", _parse_float),
    "t_stop": ("otoc", _parse_float),
    "n_times": ("otoc", _parse_count),
    "n_shots": ("sampling", int),
    "seed": ("sampling", _parse_seed),
    "n_repeats": (None, _parse_count),
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


# the blocks that hold a library value type: the keys of its fields build it
def _otoc_block(t_start, t_stop, n_times, **spec) -> OtocConfig:
    return OtocConfig(OtocSpec(**spec), t_start, t_stop, n_times)


def _dressing_block(c6, c3, r_min, r_max, n_r, microwave, **drive) -> DressingConfig:
    scheme, coeffs = LevelScheme(**drive), InteractionCoefficients(c6, c3)
    check_scan(scheme, coeffs, r_min, r_max, n_r)
    return DressingConfig(scheme, coeffs, r_min, r_max, n_r, microwave)


# keys with spec-stated defaults; everything else must be spelled out
_OPTIONAL = {"theta1", "theta2", "theta3"}


def _required(block: str) -> list[str]:
    return sorted(k for k, (b, _) in _SCHEMA.items() if b == block and k not in _OPTIONAL)


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

    def build(block: str, make: Callable):
        present = blocks.get(block)
        if present is None:
            return None
        missing = [k for k in _required(block) if k not in present]
        if missing:
            raise ConfigError(
                f"{source}: {block} block is incomplete, missing: {', '.join(missing)}"
            )
        return _in_block(source, block, make, **present)

    config = RunConfig(
        system=build("system", SystemConfig),
        otoc=build("otoc", _otoc_block),
        sampling=build("sampling", SampleConfig),
        angles=build("angles", RotationAngles),
        dressing=build("dressing", _dressing_block),
    )
    _cross_validate(config, source)
    return config


def _in_block(source: str, block: str, check: Callable, *args, **kwargs):
    """check(*args, **kwargs), its ValueError or IndexError a ConfigError naming `block`."""
    try:
        return check(*args, **kwargs)
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"{source}: {block} block: {exc}") from None


def _cross_validate(config: RunConfig, source: str) -> None:
    def fail(message: str):
        raise ConfigError(f"{source}: {message}")

    def within_budget(key: str, count: int, bytes_each: int, holds: str) -> None:
        if bytes_each * count > MEMORY_BUDGET_BYTES:
            fail(
                f"{key}={count} needs {bytes_each * count / 2**30:.3g} GiB for {holds}, "
                f"above the {MEMORY_BUDGET_BYTES / 2**30:g} GiB budget"
            )

    if config.system is not None:
        kind, n_sites = config.system.initial_state, config.system.n_sites
        _in_block(source, "system", check_chain_sites, n_sites)  # xy_chain is the only H
        spec = config.otoc.spec if config.otoc is not None else None
        axes = WIDEST_AXES if spec is None else (spec.axis_a, spec.axis_b)
        cap = max_sites(kind, axes)
        if n_sites > cap:
            above = (
                f"n_sites={n_sites} is above {cap}, the largest register on which an "
                f"initial_state = {kind} run fits"
            )
            if cap == MAX_BASIS_SITES:
                fail(f"{above}: its basis indices are int64")
            fail(
                f"{above} in {MEMORY_BUDGET_BYTES / 2**30:g} GiB with the {axes[0]}/{axes[1]} "
                f"axes ({STATE_FOOTPRINTS[kind](cap + 1, axes) / 2**30:.3g} GiB needed at "
                f"{cap + 1} sites)"
            )
    if config.otoc is not None:
        within_budget("n_times", config.otoc.n_times, ROW_BYTES, "its output rows")
        if config.otoc.n_times > 1:
            span = config.otoc.t_stop - config.otoc.t_start
            if not span > 0:
                fail("time grid must be strictly increasing (t_stop > t_start)")
            if not math.isfinite(span):
                fail(f"the time span t_stop - t_start = {span} overflows")
        if config.system is not None:
            _in_block(source, "otoc", config.otoc.spec.validate_for, config.system.n_sites)
    if config.sampling is not None:
        if config.sampling.n_shots > MAX_SHOTS:
            fail(
                f"n_shots={config.sampling.n_shots} needs a run's length above its bound "
                f"of {MAX_SHOTS} shots a point"
            )
    if config.dressing is not None:
        within_budget("n_r", config.dressing.n_r, ROW_BYTES, "its output rows")


def require(config: RunConfig, block: str, command: str):
    """Fetch a block, raising a command-specific error when absent."""
    value = getattr(config, block)
    if value is None:
        raise ConfigError(
            f"command {command!r} needs the {block} block (keys: {', '.join(_required(block))})"
        )
    return value
