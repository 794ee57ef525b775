"""Experiment runner CLI.

    otocsim COMMAND [--config PATH] [--out PATH] [--seed INT] [--quiet]

COMMAND is one of exact, sample, im, dressing, verify; every command but
verify needs --config.  `--version` and `-h`/`--help` print to stdout and
exit 0.  The grammar is fixed, so `_parse_args` reads it by hand and a CLI
child loads no argparse; it loads `sampling` only for the commands that
draw.  Every output file starts with '#'-prefixed metadata (version,
config hash, seed, RNG) and uses comma-separated values,
17-significant-digit reals, and LF line endings so reruns with identical
configuration are byte-identical.

Exit codes: 0 success, 2 usage or configuration error, 3
numerical-invariant violation (an identity residual above tolerance
points at a library defect, not a user error).
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

# CPython's built-in SHA-256 needs no OpenSSL, which `hashlib` loads on
# import; `exact` and `dressing` touch nothing else that would load it
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # an interpreter built without them
        from hashlib import sha256

from numpy import __version__ as NUMPY_VERSION

from . import __version__
from .config import ConfigError, RunConfig, check_seed, parse_config, require
from .dressing import AdiabaticityError, scan_curve
from .dynamics import EvolutionTimeError, Propagator, build_xy_chain
from .hilbert import IDENTITY_TOLERANCE
from .protocol import (
    DegenerateAnglesError,
    RotationAngles,
    build_ladder,
    corr_from_table,
    im_otoc_via_protocol,
    outcome_probabilities,
    prepare_all_up,
    reached_weights,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3

COMMANDS = ("exact", "sample", "im", "dressing", "verify")
INFO_OPTIONS = ("-h", "--help", "--version")  # print and exit 0
USAGE = (
    "usage: otocsim {exact,sample,im,dressing,verify} "
    "[--config PATH] [--out PATH] [--seed INT] [--quiet]"
)
HELP = f"""{USAGE}

OTOC measurement-protocol simulator.

commands:
  exact      exact curves and identity residuals
  sample     finite-shot Re C estimates
  im         finite-shot Im C estimates
  dressing   dressed Ising coupling J(r)
  verify     randomized identity suite

options:
  --config PATH  key = value config file (every command but verify needs one)
  --out PATH     output CSV path (default: stdout)
  --seed INT     run seed, overriding the config's
  --quiet        no progress log on stderr
  --version      print the version and exit
  -h, --help     print this help and exit
"""

# the generator every sampled column is drawn from (`sampling.substream`), as the
# CSV header names it with numpy's version
GENERATOR_NAME = "numpy-PCG64"

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
    """The header, then each row as it is formatted, so the whole text is never held at once."""
    fh = sys.stdout if path is None else open(path, "w", newline="\n")
    try:
        fh.write(
            f"# otocsim {__version__}\n"
            f"# command: {command}\n"
            f"# config_sha256: {config_hash}\n"
            f"# seed: {seed if seed is not None else 'none'}\n"
            f"# rng: {GENERATOR_NAME} (numpy {NUMPY_VERSION})\n"
            f"{','.join(columns)}\n"
        )
        for row in rows:
            fh.write(",".join(_fmt(row.get(col)) for col in columns) + "\n")
    finally:
        if path is not None:
            fh.close()


def _build_system(config: RunConfig, command: str):
    """The run's prepared state, which holds its propagator, and its time grid.

    `maximally_mixed` spans every sector, so it is prepared in the eigenbasis
    of the whole chain with no state factor (`prepare_maximally_mixed`); the
    whole chain declares the spin flip, so only the sectors of weight
    w <= N/2 are diagonalized and traced.
    `all_up` builds, diagonalizes and holds only the Hamming-weight sectors
    its chain evolves (`reached_weights`), its factor on that register.
    """
    system = require(config, "system", command)
    otoc_cfg = require(config, "otoc", command)
    n_sites, spec, grid = system.n_sites, otoc_cfg.spec, otoc_cfg.time_grid()
    if system.initial_state == "maximally_mixed":
        from .traces import prepare_maximally_mixed  # loaded by full-rank runs only

        prop = Propagator.from_hamiltonian(build_xy_chain(n_sites))
        return prepare_maximally_mixed(spec, prop), grid
    weights = reached_weights(n_sites, spec.axis_a, spec.axis_b)
    prop = Propagator.from_hamiltonian(build_xy_chain(n_sites, weights))
    return prepare_all_up(spec, prop), grid


def run_otoc(config: RunConfig, command: str, seed, log) -> tuple[list[dict], list[str], bool]:
    """The time loop of `exact`, `sample` and `im`: one `Evolution` and one ladder per point.

    The state is prepared once per run (`_build_system`).  Every point
    builds the point's `Ladder`, which carries the direct C(t) and which
    both protocols read: `exact` and `sample` take the 16-branch table from
    it, `exact` the two identity residuals against the direct C(t),
    `sample` and `im` the finite-shot draws of the point's substream of `seed`.
    """
    prepared, grid = _build_system(config, command)
    if command != "exact":  # loaded by the commands that draw only
        from .sampling import (
            describe_draw,
            estimate_re_otoc,
            sample_rotation_protocol,
            sample_sequences,
            substream,
        )

        sampling = require(config, "sampling", command)
    angles = config.angles or RotationAngles()
    rows = []
    pruned = clamped = 0
    for index, t in enumerate(grid):
        t = float(t)
        ladder = build_ladder(prepared, t)
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
            rng = substream(seed, index)
            if command == "sample":
                est = estimate_re_otoc(sample_sequences(table, sampling.n_shots, rng))
                row.update(re_estimate=est.value, re_stderr=est.stderr, n_shots=est.n_shots)
            else:
                est = sample_rotation_protocol(ladder, angles, sampling.n_shots, rng)
                row.update(im_estimate=est.value, im_stderr=est.stderr, n_shots=est.n_shots)
        rows.append(row)
    counts = f"{pruned} branches pruned, {clamped} probabilities clamped"
    if command == "im":
        log(f"rotation protocol sampled at {sampling.n_shots} shots per angle set, "
            f"{describe_draw()}")
        return rows, list(RESULT_COLUMNS), True
    if command == "sample":
        log(f"sampled {len(rows)} time points at {sampling.n_shots} shots each, "
            f"{describe_draw()}; {counts}")
        return rows, list(RESULT_COLUMNS), True
    worst_re = max(row["re_identity_residual"] for row in rows)
    worst_im = max(row["im_identity_residual"] for row in rows)
    prop = prepared.propagator
    register = prop.register
    sectors, mirrored = len(register.sizes), len(prop.mirrored)
    log(f"identity cross-check: max |2corr-1 - Re C| = {worst_re:.3e}, "
        f"max rotation residual = {worst_im:.3e}; register of {len(register.order)} rows "
        f"in {sectors} sectors (largest {max(register.sizes)}), "
        f"{sectors - mirrored} of {sectors} sectors diagonalized, {mirrored} mirrored, as "
        f"{len(prop.eigh_sizes)} parity blocks (largest {max(prop.eigh_sizes)}): "
        f"residual {prop.reconstruction_residual:.3e}, "
        f"unitarity defect {prop.unitarity_defect:.3e}; {counts}")
    columns = list(RESULT_COLUMNS) + ["re_identity_residual", "im_identity_residual"]
    ok = worst_re < IDENTITY_TOLERANCE and worst_im < IDENTITY_TOLERANCE
    return rows, columns, ok


def run_dressing(config: RunConfig, log) -> tuple[list[dict], list[str], bool]:
    d = require(config, "dressing", "dressing")
    grid = (d.scheme, d.coeffs, d.r_min, d.r_max, d.n_r)
    curve_off = scan_curve(*grid, microwave_on=False)
    curve_on = scan_curve(*grid) if d.microwave else curve_off
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
    overlaps = f"{curve_off.min_overlap:.6f} with the microwave off"
    if d.microwave:
        overlaps += f", {curve_on.min_overlap:.6f} with it on"
    log(f"dressing scan: {inverted}/{len(rows)} grid points sign-inverted; "
        f"smallest branch overlap {overlaps}")
    return rows, ["r", "j_off", "j_on", "sign_inverted"], True


def run_verify(seed: int, log) -> tuple[list[dict], list[str], bool]:
    from .verification import run_verification_suite  # loaded by verify only

    results = run_verification_suite(seed)
    rows = []
    ok = True
    for res in results:
        log(f"{res.name}: max residual {res.max_residual:.3e} over {res.instances} instances "
            f"of {min(res.sizes)}-{max(res.sizes)} sites (tolerance {res.tolerance:g}) "
            f"{'PASS' if res.passed else 'FAIL'}")
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


class UsageError(ValueError):
    """Command-line arguments outside the grammar of USAGE."""


def _is_option(token: str) -> bool:
    """Whether `token` reads as an option rather than a value: "-" and "-5" are values."""
    return token.startswith("-") and token != "-" and not token[1:].isdigit()


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and options of argv, or UsageError.

    An option's value is the next token or follows '='; an option given twice
    keeps its last value.  `-h`, `--help` or `--version` where the command
    or an option may stand ends the parse, and is the command returned.
    """
    if not argv:
        raise UsageError(f"no command given (choose from {', '.join(COMMANDS)})")
    command, *tokens = argv
    if command in INFO_OPTIONS:
        return SimpleNamespace(command=command)
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r} (choose from {', '.join(COMMANDS)})")
    args = SimpleNamespace(command=command, config=None, out=None, seed=None, quiet=False)
    tokens = iter(tokens)
    for token in tokens:
        if token in INFO_OPTIONS:
            return SimpleNamespace(command=token)
        if token == "--quiet":
            args.quiet = True
            continue
        name, inline, value = token.partition("=")
        if name not in ("--config", "--out", "--seed"):
            raise UsageError(
                f"unknown option {token!r}" if _is_option(token) else f"unexpected argument {token!r}"
            )
        if not inline:
            value = next(tokens, None)
            if value is None or _is_option(value):
                raise UsageError(f"option {name} needs a value")
        setattr(args, name[2:], value)
    if args.seed is not None:
        try:
            args.seed = int(args.seed)
        except ValueError:
            raise UsageError(f"--seed needs an integer, got {args.seed!r}") from None
    if args.config is None and command != "verify":
        raise UsageError(f"command {command!r} needs --config PATH")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
    except UsageError as exc:
        print(f"{USAGE}\nerror: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command in INFO_OPTIONS:
        print(f"otocsim {__version__}\n" if args.command == "--version" else HELP, end="")
        return EXIT_OK

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
        config_hash = sha256(raw).hexdigest()
        try:
            config = parse_config(raw.decode("utf-8"), source=args.config)
        except (ConfigError, UnicodeDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG

    if args.seed is not None:
        try:
            check_seed(args.seed)
        except ValueError as exc:
            print(f"error: --seed: {exc}", file=sys.stderr)
            return EXIT_CONFIG

    # the run seed: --seed, else the config's, else 1 for verify, which always draws
    seed = config.sampling.seed if args.seed is None and config.sampling is not None else args.seed
    if seed is None and args.command == "verify":
        seed = 1

    try:
        if args.command in ("exact", "sample", "im"):
            rows, columns, ok = run_otoc(config, args.command, seed, log)
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
