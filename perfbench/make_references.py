"""Regenerate references.json: the exact columns every workload must reproduce.

Usage (from the root of an otocsim checkout):

    PYTHONPATH=src python3 perfbench/make_references.py

Runs each workload's commands once in-process and keeps the columns that do
not depend on the seed: t, re_exact and im_exact of exact/sample/im, r,
j_off and j_on of dressing, and the check names of verify.  Regenerate only
when the physics is meant to change, and say so where the change is recorded.
"""

import json
import sys
from pathlib import Path

from checks import read_table
from workloads import WORKLOADS, plan

REFERENCE_COLUMNS = {
    "exact": ("t", "re_exact", "im_exact"),
    "sample": ("t", "re_exact", "im_exact"),
    "im": ("t", "re_exact", "im_exact"),
    "dressing": ("r", "j_off", "j_on"),
    "verify": ("check",),
}


def main() -> None:
    from otocsim.cli import main as cli_main

    references = {}
    for name in WORKLOADS:
        workdir = Path.cwd() / ".bench_work" / "references" / name
        workdir.mkdir(parents=True, exist_ok=True)
        config_text, steps = plan(name, 0, workdir)
        (workdir / f"{name}.cfg").write_text(config_text)
        references[name] = {}
        for step in steps:
            if cli_main(list(step.argv)) != 0:
                sys.exit(f"{name}: {step.command} failed")
            _, rows = read_table(step.out.read_bytes())
            references[name][step.command] = {
                column: [row[column] if column == "check" else float(row[column]) for row in rows]
                for column in REFERENCE_COLUMNS[step.command]
            }
    out = Path(__file__).resolve().parent / "references.json"
    out.write_text(json.dumps(references, indent=1) + "\n")


if __name__ == "__main__":
    main()
