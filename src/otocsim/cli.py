"""Experiment runner CLI.

Subcommands: exact, sample, im, dressing, verify.  Every output file
starts with '#'-prefixed metadata (version, config hash, seed, RNG) and
uses comma-separated values, 17-significant-digit reals, and LF line
endings so reruns with identical configuration are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 numerical-invariant
violation (an identity residual above tolerance points at a library
defect, not a user error).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import replace

from . import __version__
from .config import AnglesConfig, ConfigError, RunConfig, parse_config, require
from .dressing import AdiabaticityError, InteractionCoefficients, LevelScheme, scan_curve
from .dynamics import EvolutionTimeError, Propagator, build_xy_chain
from .hilbert import all_up_state, maximally_mixed_state
from .otoc import OtocSpec
from .protocol import (
    DegenerateAnglesError,
    RotationAngles,
    build_ladder,
    corr_from_table,
    im_otoc_via_protocol,
    outcome_probabilities,
    prepare,
)
from .sampling import (
    GENERATOR_NAME,
    GENERATOR_VERSION,
    SampleConfig,
    estimate_re_otoc,
    sample_rotation_protocol,
    sample_sequences,
)
from .verification import IDENTITY_TOLERANCE, run_verification_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3

RESULT_COLUMNS = (
    "t",
    "re_exact",
    "im_exact",
    "re_estimate",
    "re_stderr",
    "im_estimate",
    "im_stderr",
    "n_shots",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return format(value, ".17g")


def _write_csv(path, command, config_hash, seed, columns, rows):
    header = [
        f"# otocsim {__version__}",
        f"# command: {command}",
        f"# config_sha256: {config_hash}",
        f"# seed: {seed if seed is not None else 'none'}",
        f"# rng: {GENERATOR_NAME} (numpy {GENERATOR_VERSION})",
    ]
    lines = header + [",".join(columns)]
    lines += [",".join(_fmt(row.get(col)) for col in columns) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _build_system(config: RunConfig, command: str):
    """The run's prepared state, its propagator and its time grid.

    Only the prepared state keeps the state factor, in the propagator's
    register order; the computational-order factor is dropped here.
    """
    system = require(config, "system", command)
    otoc_cfg = require(config, "otoc", command)
    ham = build_xy_chain(system.n_sites)
    prop = Propagator.from_hamiltonian(ham)
    if system.initial_state == "all_up":
        state = all_up_state(system.n_sites)
    else:
        state = maximally_mixed_state(system.n_sites)
    spec = OtocSpec(otoc_cfg.site_i, otoc_cfg.axis_a, otoc_cfg.site_j, otoc_cfg.axis_b)
    return prepare(state, spec, prop.register), prop, otoc_cfg.time_grid()


def _angles(config: RunConfig) -> RotationAngles:
    block = config.angles or AnglesConfig()
    return RotationAngles(block.theta1, block.theta2, block.theta3)


def run_otoc(config: RunConfig, command: str, log) -> tuple[list[dict], list[str], bool]:
    """The time loop of `exact`, `sample` and `im`: one U(t) and one ladder per time point.

    The state is prepared once per run (`protocol.prepare`).  Every point
    builds the point's `Ladder`, which carries the direct C(t) and which
    both protocols read: `exact` and `sample` take the 16-branch table from
    it, `exact` the two identity residuals against the direct C(t),
    `sample` and `im` the finite-shot draws of the point's substream.
    """
    prepared, prop, grid = _build_system(config, command)
    sampling = None if command == "exact" else require(config, "sampling", command)
    angles = None if command == "sample" else _angles(config)
    rows = []
    pruned = clamped = 0
    for index, t in enumerate(grid):
        t = float(t)
        ev = prop.evolution(t)
        ladder = build_ladder(prepared, ev)
        direct = ladder.direct
        row = {"t": t, "re_exact": direct.real, "im_exact": direct.imag}
        if command != "im":
            table = outcome_probabilities(ladder)
            pruned += table.pruned
            clamped += table.clamped
        if command == "exact":
            row["re_identity_residual"] = abs(2.0 * corr_from_table(table) - 1.0 - direct.real)
            im_c = im_otoc_via_protocol(ladder, angles)
            row["im_identity_residual"] = abs(im_c - direct.imag)
        else:
            cfg = SampleConfig(sampling.n_shots, sampling.seed, point=index)
            if command == "sample":
                est = estimate_re_otoc(sample_sequences(table, cfg))
                row.update(re_estimate=est.value, re_stderr=est.stderr, n_shots=est.n_shots)
            else:
                est = sample_rotation_protocol(ladder, angles, cfg)
                row.update(im_estimate=est.value, im_stderr=est.stderr, n_shots=est.n_shots)
        rows.append(row)
    counts = f"{pruned} branches pruned, {clamped} probabilities clamped"
    if command == "im":
        log(f"rotation protocol sampled at {sampling.n_shots} shots per angle set")
        return rows, list(RESULT_COLUMNS), True
    if command == "sample":
        log(f"sampled {len(rows)} time points at {sampling.n_shots} shots each; {counts}")
        return rows, list(RESULT_COLUMNS), True
    worst_re = max(row["re_identity_residual"] for row in rows)
    worst_im = max(row["im_identity_residual"] for row in rows)
    log(f"identity cross-check: max |2corr-1 - Re C| = {worst_re:.3e}, "
        f"max rotation residual = {worst_im:.3e}; eigendecomposition in "
        f"{len(prop.block_sizes)} blocks (largest {max(prop.block_sizes)}): "
        f"residual {prop.reconstruction_residual:.3e}, "
        f"unitarity defect {prop.unitarity_defect:.3e}; {counts}")
    columns = list(RESULT_COLUMNS) + ["re_identity_residual", "im_identity_residual"]
    ok = worst_re < IDENTITY_TOLERANCE and worst_im < IDENTITY_TOLERANCE
    return rows, columns, ok


def run_dressing(config: RunConfig, log) -> tuple[list[dict], list[str], bool]:
    d = require(config, "dressing", "dressing")
    scheme = LevelScheme(d.omega_laser, d.delta_laser, d.omega_microwave, d.delta_microwave)
    coeffs = InteractionCoefficients(d.c6, d.c3)
    curve_off = scan_curve(scheme, coeffs, d.r_min, d.r_max, d.n_r, microwave_on=False)
    curve_on = scan_curve(scheme, coeffs, d.r_min, d.r_max, d.n_r, microwave_on=d.microwave)
    rows = [
        {
            "r": float(r),
            "j_off": float(j_off),
            "j_on": float(j_on),
            "sign_inverted": bool(j_off * j_on < 0),
        }
        for r, j_off, j_on in zip(curve_off.distances, curve_off.j_values, curve_on.j_values)
    ]
    inverted = sum(row["sign_inverted"] for row in rows)
    log(f"dressing scan: {inverted}/{len(rows)} grid points sign-inverted")
    return rows, ["r", "j_off", "j_on", "sign_inverted"], True


def run_verify(seed: int, log) -> tuple[list[dict], list[str], bool]:
    results = run_verification_suite(seed)
    rows = []
    ok = True
    for res in results:
        log(f"{res.name}: max residual {res.max_residual:.3e} "
            f"(tolerance {res.tolerance:g}) {'PASS' if res.passed else 'FAIL'}")
        ok = ok and res.passed
        rows.append(
            {
                "check": res.name,
                "max_residual": res.max_residual,
                "tolerance": res.tolerance,
                "passed": res.passed,
            }
        )
    return rows, ["check", "max_residual", "tolerance", "passed"], ok


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otocsim", description="OTOC measurement-protocol simulator"
    )
    parser.add_argument("--version", action="version", version=f"otocsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (
        ("exact", True),
        ("sample", True),
        ("im", True),
        ("dressing", True),
        ("verify", False),
    ):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=needs_config, help="path to a key=value config file")
        cmd.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--quiet", action="store_true", help="suppress progress logging")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    def log(message: str) -> None:
        if not args.quiet:
            print(message, file=sys.stderr)

    config_hash = "none"
    config = RunConfig()
    if args.config is not None:
        try:
            with open(args.config, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        config_hash = hashlib.sha256(raw).hexdigest()
        try:
            config = parse_config(raw.decode("utf-8"), source=args.config)
        except (ConfigError, UnicodeDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG

    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            print("error: --seed must be an unsigned 64-bit integer", file=sys.stderr)
            return EXIT_CONFIG
        if config.sampling is not None:
            config = replace(config, sampling=replace(config.sampling, seed=args.seed))

    seed = config.sampling.seed if config.sampling is not None else args.seed
    if args.command == "verify":
        seed = args.seed if args.seed is not None else 1

    try:
        if args.command in ("exact", "sample", "im"):
            rows, columns, ok = run_otoc(config, args.command, log)
        elif args.command == "dressing":
            rows, columns, ok = run_dressing(config, log)
        else:
            rows, columns, ok = run_verify(seed, log)
    except (ConfigError, DegenerateAnglesError, AdiabaticityError, EvolutionTimeError) as exc:
        # degenerate angles, a lost dressing branch and an overflowing t are config errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        _write_csv(args.out, args.command, config_hash, seed, columns, rows)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not ok:
        print("error: numerical invariant violated (see log)", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
