"""otocsim benchmark: closed-loop CLI workloads, checked outputs, a traced layer run.

Usage (from the root of an otocsim checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics: set-up in fresh interpreters,
then passes of the workload's CLI commands, each a child process started
after the previous one ends, until S seconds have passed (at least one
pass; every later pass is checked byte for byte against the first).
``--trace 1`` runs the commands in two fresh interpreters, one untraced and
one with the spans of ``tracing.py``, and reports per-layer metrics.  Every
command output is checked; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_command, read_table
from tracing import DENSE_OPS, Span, roots, self_times
from workloads import OTOC_COMMANDS, WORKLOADS, plan

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
CLI_ENTRY = "import sys; from otocsim.cli import main; sys.exit(main())"
HARD_LIMIT_S = 170.0   # the whole run, set-up included, ends before 180 s
# set-up is repeated until both minimums are met; setup_s is the median
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
BLAS_THREADS = 1
THREAD_ENV = {
    var: str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}

COMMANDS = ("exact", "sample", "im", "dressing", "verify")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"cmd.{command}_s": "s" for command in COMMANDS},
    "shots_per_s": "1/s",
    "config.parse_s": "s",
    "cli.self_s": "s",
    "dynamics.build_s": "s",
    "dynamics.eigh_s": "s",
    "hilbert.state_s": "s",
    "hilbert.dense_ops_s": "s",
    "hilbert.embed_pauli_calls_per_point": "count",
    "hilbert.projector_calls_per_point": "count",
    "hilbert.dense_bytes_built": "computed_bytes",
    "dynamics.unitary_s": "s",
    "dynamics.unitary_calls_per_point": "count",
    "protocol.tree_s": "s",
    "protocol.rotation_s": "s",
    "protocol.rotation_operator_calls_per_point": "count",
    "otoc.direct_s": "s",
    "sampling.draw_s": "s",
    "sampling.rotation_draw_s": "s",
    "verification.suite_s": "s",
    "verification.instances": "count",
    "dressing.scan_s": "s",
    "dressing.points": "count",
    "trace.overhead_s": "s",
}

# span-name suffix counted per OTOC time point -> metric
PER_POINT_CALLS = {
    ".embed_pauli": "hilbert.embed_pauli_calls_per_point",
    ".projector": "hilbert.projector_calls_per_point",
    ".Propagator.unitary": "dynamics.unitary_calls_per_point",
    ".rotation_operator": "protocol.rotation_operator_calls_per_point",
}


@dataclass
class Child:
    seconds: float
    exit_code: int
    maxrss_kb: int


@dataclass
class Ops:
    """Operations attempted and failed; each failure is reported on stderr."""

    attempted: int = 0
    failed: int = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: " + "; ".join(problems[:5]), file=sys.stderr)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str], timeout: float, log: Path) -> Child:
    """Run a child to completion; its wall time and peak RSS come from wait4."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=sink, stderr=sink
        )
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(seconds, proc.returncode, usage.ru_maxrss)


def host_facts() -> dict:
    import numpy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_id = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_id = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "blas": blas_id,
        "child_thread_env": THREAD_ENV,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _read(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def _rows(data: bytes | None) -> list[dict[str, str]]:
    try:
        return read_table(data)[1] if data is not None else []
    except (ValueError, UnicodeDecodeError):
        return []


def _summary(label: str, values: list[float]) -> str:
    return (
        f"{label}: n={len(values)} median={statistics.median(values):.4f} "
        f"min={min(values):.4f} max={max(values):.4f}"
    )


def timed_run(name: str, seed: int, seconds: float, workdir: Path, references, deadline: float):
    """End-to-end metrics, tracing off."""
    workload = WORKLOADS[name]
    _, steps = plan(name, seed, workdir)
    ops = Ops()
    setup = []
    while len(setup) < SETUP_MIN_REPEATS or sum(setup) < SETUP_MIN_SECONDS:
        child = spawn(
            [sys.executable, str(HERE / "setup_child.py"), *workload.setup_args()],
            deadline - time.monotonic(),
            workdir / "setup.log",
        )
        ops.record("setup", [] if child.exit_code == 0 else [f"exit code {child.exit_code}"])
        setup.append(child.seconds)

    first: dict[str, bytes | None] = {}
    passes: list[list[tuple[str, Child, int]]] = []
    loop_start = time.monotonic()
    while not passes or time.monotonic() - loop_start < seconds:
        done = []
        for step in steps:
            step.out.unlink(missing_ok=True)
            child = spawn(
                [sys.executable, "-c", CLI_ENTRY, *step.argv],
                deadline - time.monotonic(),
                workdir / f"{step.command}.log",
            )
            data = _read(step.out)
            ops.record(
                step.command,
                check_command(
                    step.command, child.exit_code, data, references[step.command], first.get(step.command)
                ),
            )
            first.setdefault(step.command, data)
            done.append((step.command, child, len(_rows(data))))
        passes.append(done)
        if time.monotonic() > deadline:
            break

    # Per-command medians over passes: a burst of host load that slows one
    # command of a pass does not move the pass's other commands.
    times = {c: [ch.seconds for d in passes for cmd, ch, _ in d if cmd == c] for c in workload.commands}
    rows = {c: statistics.median(n for d in passes for cmd, _, n in d if cmd == c) for c in workload.commands}
    median_s = {c: statistics.median(values) for c, values in times.items()}
    otoc = [c for c in workload.commands if c in OTOC_COMMANDS]
    for command, values in times.items():
        print(_summary(f"cmd.{command}_s", values))
    print(_summary("setup_s", setup))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(median_s.values()),
        "points_per_s": sum(rows[c] for c in otoc) / sum(median_s[c] for c in otoc),
        "peak_rss_mb": max(child.maxrss_kb for done in passes for _, child, _ in done) / 1024,
    }
    return ops, {key: {"value": value, "unit": END_TO_END[key]} for key, value in metrics.items()}


def layer_metrics(spans: list[Span], points: int) -> dict[str, float]:
    """Per-layer self times and counts from the spans of the traced pass."""
    metrics: dict[str, float] = {}
    for span, self_time in zip(spans, self_times(spans)):
        metrics[f"{span.group}_s"] = metrics.get(f"{span.group}_s", 0.0) + self_time
    root = roots(spans)
    for suffix, key in PER_POINT_CALLS.items():
        calls = sum(
            1
            for span, r in zip(spans, root)
            if span.name.endswith(suffix) and spans[r].name.split(":")[-1] in OTOC_COMMANDS
        )
        metrics[key] = calls / points if points else 0.0
    metrics["hilbert.dense_bytes_built"] = float(
        sum(16 * 4**span.size for span in spans if span.group == DENSE_OPS and span.size is not None)
    )
    metrics["verification.instances"] = float(sum(1 for s in spans if s.name.endswith(".random_density")))
    metrics["dressing.points"] = float(
        sum(s.size for s in spans if s.group == "dressing.scan" and s.size is not None)
    )
    return metrics


def _in_process(steps, trace: bool, workdir: Path, deadline: float, ops: Ops) -> dict:
    """Run the steps as cli.main calls in one fresh interpreter (trace_child.py)."""
    label = "traced" if trace else "untraced"
    job = workdir / f"{label}_job.json"
    result_path = workdir / f"{label}.json"
    for path in [result_path] + [s.out for s in steps]:
        path.unlink(missing_ok=True)
    job.write_text(json.dumps({
        "steps": [[s.command, list(s.argv)] for s in steps],
        "trace": trace,
        "out": str(result_path),
    }))
    child = spawn(
        [sys.executable, str(HERE / "trace_child.py"), str(job)],
        deadline - time.monotonic(),
        workdir / f"{label}.log",
    )
    ops.record(f"{label} interpreter", [] if child.exit_code == 0 else [f"exit code {child.exit_code}"])
    try:
        return json.loads(result_path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return {"commands": [], "installed": [], "missing": [], "spans": []}


def traced_run(name: str, seed: int, workdir: Path, references, deadline: float):
    """Per-layer metrics: the commands in one interpreter untraced, then in another traced."""
    _, untraced_steps = plan(name, seed, workdir)
    _, traced_steps = plan(name, seed, workdir, tag=".traced")
    ops = Ops()
    untraced = _in_process(untraced_steps, False, workdir, deadline, ops)
    traced = _in_process(traced_steps, True, workdir, deadline, ops)

    metrics = {key: 0.0 for key in PER_LAYER}
    exits = {(r["command"], label): r for label, run in (("untraced", untraced), ("traced", traced))
             for r in run["commands"]}
    points = shots = 0
    for plain, traced_step in zip(untraced_steps, traced_steps):
        command = plain.command
        first = _read(plain.out)
        for label, step, earlier in (("untraced", plain, None), ("traced", traced_step, first)):
            record = exits.get((command, label), {"exit": -1})
            data = _read(step.out)
            ops.record(
                f"{label} {command}",
                check_command(command, record["exit"], data, references[command], earlier),
            )
        rows = _rows(_read(traced_step.out))
        if command in OTOC_COMMANDS:
            points += len(rows)
        if command in ("sample", "im"):
            per_row = 1 if command == "sample" else 4  # `im` shoots each of four angle sets
            shots += per_row * sum(int(row["n_shots"]) for row in rows if row.get("n_shots", "").isdigit())
    for record in untraced["commands"]:
        metrics[f"cmd.{record['command']}_s"] = record["seconds"]
    sampled = metrics["cmd.sample_s"] + metrics["cmd.im_s"]
    metrics["shots_per_s"] = shots / sampled if sampled else 0.0

    spans = [Span(**span) for span in traced["spans"]]
    metrics.update(layer_metrics(spans, points))
    traced_wall = sum(r["seconds"] for r in traced["commands"])
    untraced_wall = sum(r["seconds"] for r in untraced["commands"])
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    layers = sum(v for k, v in metrics.items() if k in PER_LAYER and PER_LAYER[k] == "s"
                 and not k.startswith(("cmd.", "trace.")))
    print(f"trace: wrapped {len(traced['installed'])} names, missing {traced['missing']}")
    print(f"trace: {len(spans)} spans; layer self times sum to {layers:.4f} s "
          f"of {traced_wall:.4f} s traced, {untraced_wall:.4f} s untraced")
    return ops, {key: {"value": metrics[key], "unit": PER_LAYER[key]} for key in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so `spawn` kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    deadline = time.monotonic() + HARD_LIMIT_S
    if not (ROOT / "src" / "otocsim" / "cli.py").is_file():
        print(f"error: no otocsim sources under {ROOT / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    references = json.loads((HERE / "references.json").read_text())[args.workload]
    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config_text, _ = plan(args.workload, args.seed, workdir)
    (workdir / f"{args.workload}.cfg").write_text(config_text)
    print("host " + json.dumps(host_facts()))

    if args.trace:
        ops, metrics = traced_run(args.workload, args.seed, workdir, references, deadline)
    else:
        ops, metrics = timed_run(args.workload, args.seed, args.seconds, workdir, references, deadline)
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
