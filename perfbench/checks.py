"""Correctness checks on the CSV files the otocsim CLI writes.

Only the CLI contract is used: exit codes, CSV columns and the values in
them.  Every problem found is returned as a message; the caller counts a
command with any problem as a failed operation.
"""

from __future__ import annotations

EXACT_ATOL = 1e-12          # exact columns against the committed references
IDENTITY_TOLERANCE = 1e-9   # re/im identity residuals of `exact`
STDERR_SIGMAS = 5.0         # sampled estimate against its exact column


def read_table(data: bytes) -> tuple[list[str], list[dict[str, str]]]:
    """Column names and data rows of a CSV, skipping '#' metadata lines."""
    lines = [ln for ln in data.decode("utf-8").split("\n") if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("no header row")
    columns = lines[0].split(",")
    rows = []
    for number, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"row {number} has {len(cells)} cells, header has {len(columns)}")
        rows.append(dict(zip(columns, cells)))
    return columns, rows


def _number(row: dict[str, str], column: str) -> float:
    try:
        return float(row[column])
    except KeyError:
        raise ValueError(f"missing column {column!r}") from None


def _against_reference(rows, reference: dict[str, list]) -> list[str]:
    problems = []
    for column, expected in reference.items():
        if len(rows) != len(expected):
            return [f"{len(rows)} rows, reference has {len(expected)}"]
        for number, (row, want) in enumerate(zip(rows, expected), start=1):
            if isinstance(want, str):
                if row.get(column) != want:
                    problems.append(f"row {number} {column}={row.get(column)!r}, expected {want!r}")
            elif abs(_number(row, column) - want) > EXACT_ATOL:
                problems.append(f"row {number} {column}={row[column]} differs from {want!r}")
    return problems


def _below(rows, column: str, limit: float) -> list[str]:
    return [
        f"row {number} {column}={row[column]} not below {limit:g}"
        for number, row in enumerate(rows, start=1)
        if not _number(row, column) < limit
    ]


def _within_stderr(rows, estimate: str, stderr: str, exact: str) -> list[str]:
    # When every shot agrees the plug-in stderr is exactly 0 while the exact
    # value carries rounding (1 - 1e-15 at t = 0), hence the EXACT_ATOL floor.
    problems = []
    for number, row in enumerate(rows, start=1):
        distance = abs(_number(row, estimate) - _number(row, exact))
        if not distance <= STDERR_SIGMAS * _number(row, stderr) + EXACT_ATOL:
            problems.append(
                f"row {number} {estimate}={row[estimate]} is {distance:.3g} from "
                f"{exact}, more than {STDERR_SIGMAS:g} x {stderr}={row[stderr]}"
            )
    return problems


def _verify_passed(rows) -> list[str]:
    problems = _below(rows, "max_residual", IDENTITY_TOLERANCE)
    problems += [f"check {row['check']} passed={row['passed']}" for row in rows if row["passed"] != "true"]
    return problems


def _dressing_signs(rows) -> list[str]:
    return [
        f"row {number} sign_inverted={row['sign_inverted']} disagrees with j_off*j_on"
        for number, row in enumerate(rows, start=1)
        if (row["sign_inverted"] == "true") != (_number(row, "j_off") * _number(row, "j_on") < 0)
    ]


_COMMAND_CHECKS = {
    "exact": lambda rows: _below(rows, "re_identity_residual", IDENTITY_TOLERANCE)
    + _below(rows, "im_identity_residual", IDENTITY_TOLERANCE),
    "sample": lambda rows: _within_stderr(rows, "re_estimate", "re_stderr", "re_exact"),
    "im": lambda rows: _within_stderr(rows, "im_estimate", "im_stderr", "im_exact"),
    "dressing": _dressing_signs,
    "verify": _verify_passed,
}


def check_command(
    command: str,
    exit_code: int,
    data: bytes | None,
    reference: dict[str, list],
    first: bytes | None = None,
) -> list[str]:
    """Problems with one command's result; an empty list means it is correct.

    ``reference`` maps CSV columns to their committed values; ``first`` is
    the CSV an earlier run with the same --seed wrote, which this one must
    reproduce byte for byte.
    """
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    if data is None:
        return problems + ["no output file"]
    if first is not None and data != first:
        problems.append("rerun with the same --seed is not byte-identical")
    try:
        _, rows = read_table(data)
        problems += _against_reference(rows, reference)
        problems += _COMMAND_CHECKS[command](rows)
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        problems.append(f"malformed CSV: {exc!r}")
    return problems
