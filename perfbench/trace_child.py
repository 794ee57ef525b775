"""Run a workload's CLI commands in this interpreter, with or without spans.

Usage: python3 trace_child.py JOB.json

JOB.json holds ``steps`` (a list of [command, argv]), ``trace`` and ``out``.
Each command is a call of ``otocsim.cli.main``.  With ``trace`` set, the
wrappers of ``tracing.TARGETS`` are installed first and each command gets a
root span.  Timings, exit codes and spans are written to ``out`` once, after
the last command.  The untraced and the traced pass run in two fresh
interpreters so that both pay the same first-call costs.
"""

import json
import sys
import traceback
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, install  # noqa: E402


def _call(main, argv) -> int:
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed command, reported by the parent
        traceback.print_exc()
        return 1


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    from otocsim import cli

    tracer = Tracer()
    installed, missing = install(tracer) if job["trace"] else ([], [])
    commands = []
    for command, argv in job["steps"]:
        index = tracer.open(f"cli.main:{command}", "cli.self")
        code = _call(cli.main, argv)
        tracer.close(index)
        span = tracer.spans[index]
        commands.append({"command": command, "seconds": span.end - span.start, "exit": code})

    Path(job["out"]).write_text(
        json.dumps(
            {
                "commands": commands,
                "installed": installed,
                "missing": missing,
                "spans": [asdict(span) for span in tracer.spans] if job["trace"] else [],
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1])
