import gc
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import otocsim
from otocsim import cli, sampling, verification
from otocsim.cli import EXIT_CONFIG, EXIT_OK, main
from otocsim.config import ROW_BYTES, STATE_FOOTPRINTS, parse_config
from otocsim.dressing import scan_curve
from otocsim.dynamics import Evolution, Propagator
from otocsim.hilbert import Register
from otocsim.protocol import (
    PreparedState,
    build_ladder,
    im_otoc_via_protocol,
    outcome_probabilities,
)
from otocsim.traces import PreparedTrace

import oracles

BASE_CONFIG = """
n_sites = 4
hamiltonian = xy_chain
initial_state = all_up
site_i = 2
axis_a = x
site_j = 3
axis_b = x
t_start = 0.0
t_stop = 2.0
n_times = 9
n_shots = 2000
seed = 42
"""

DRESSING_CONFIG = """
omega_laser = 2.0
delta_laser = 4.0
omega_microwave = 20.0
delta_microwave = 7.2857142857142857
c6 = 3.0e4
c3 = -3.0e2
r_min = 1.0
r_max = 400.0
n_r = 20
microwave = on
"""

HUGE_TIME_CONFIG = (
    BASE_CONFIG.replace("t_start = 0.0", "t_start = 1e308")
    .replace("t_stop = 2.0", "t_stop = 1e308")
    .replace("n_times = 9", "n_times = 1")
)
MIXED_HUGE_TIME_CONFIG = HUGE_TIME_CONFIG.replace("all_up", "maximally_mixed")


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG)
    return path


def read_table(path):
    """Header comment lines, column names, and the data rows of a CSV."""
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    columns = body[0].split(",")
    rows = [dict(zip(columns, ln.split(","))) for ln in body[1:]]
    return comments, columns, rows


def test_exact_run_writes_metadata_and_residuals(config_file, tmp_path):
    out = tmp_path / "exact.csv"
    assert main(["exact", "--config", str(config_file), "--out", str(out), "--quiet"]) == EXIT_OK
    comments, columns, rows = read_table(out)
    assert comments[0].startswith("# otocsim ")
    assert any("config_sha256" in c for c in comments)
    assert any("rng: numpy-PCG64" in c for c in comments)
    assert len(rows) == 9
    assert float(rows[0]["re_exact"]) == pytest.approx(1.0, abs=1e-12)
    for row in rows:
        assert float(row["re_identity_residual"]) < 1e-9
        assert float(row["im_identity_residual"]) < 1e-9
        assert row["re_estimate"] == ""  # no sampling in the exact command


def test_exact_reports_spectral_defects_on_stderr_only(config_file, tmp_path, capsys):
    """The N=4 sectors 1, 4, 6, 4, 1 split by reflection parity into 1, 2+2, 4+2,
    2+2, 1.  The full-rank state holds all five and, as the whole chain declares the
    spin flip, diagonalizes weights 0-2 and mirrors weights 3 and 4; the pure x/x run
    holds and diagonalizes only weights 0-3, the ones its chain evolves, as its last
    sigma_i image, which alone reaches weight 4, is read as matrix elements, and
    weights 0-3 are not closed under the flip.  All of it reaches stderr, none of it
    the CSV."""
    mixed = tmp_path / "mixed.cfg"
    mixed.write_text(BASE_CONFIG.replace("initial_state = all_up", "initial_state = maximally_mixed"))
    cases = (
        (config_file, "15 rows in 4 sectors (largest 6), 4 of 4 sectors diagonalized, 0 mirrored"),
        (mixed, "16 rows in 5 sectors (largest 6), 3 of 5 sectors diagonalized, 2 mirrored"),
    )
    for (config, register), blocks in zip(cases, (7, 5)):
        out = tmp_path / "exact.csv"
        assert main(["exact", "--config", str(config), "--out", str(out)]) == EXIT_OK
        err = capsys.readouterr().err
        assert f"register of {register}, as {blocks} parity blocks (largest 4): residual " in err
        assert "unitarity defect " in err
        text = out.read_text()
        for logged in ("unitarity", "parity"):
            assert logged not in text


def test_exact_reports_pruned_and_clamped_counts_on_stderr_only(tmp_path, capsys):
    """On the deterministic all_up zz run every point prunes the -1 branch of
    each of its four measurements; the counts reach stderr, not the CSV."""
    config = tmp_path / "zz.cfg"
    config.write_text(BASE_CONFIG.replace("axis_a = x", "axis_a = z").replace(
        "axis_b = x", "axis_b = z"))
    logged, quiet = tmp_path / "logged.csv", tmp_path / "quiet.csv"
    assert main(["exact", "--config", str(config), "--out", str(logged)]) == EXIT_OK
    err = capsys.readouterr().err
    assert "; 36 branches pruned, 0 probabilities clamped" in err
    assert main(["exact", "--config", str(config), "--out", str(quiet), "--quiet"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert logged.read_bytes() == quiet.read_bytes()
    assert "pruned" not in logged.read_text()


def test_sample_reports_pruned_and_clamped_counts_on_stderr_only(tmp_path, capsys, monkeypatch):
    """The all_up zz tables of `sample` prune as in `exact`; the counts reach
    stderr, not the CSV."""
    monkeypatch.setattr(sampling, "_draw_threads", lambda: 2)
    config = tmp_path / "zz.cfg"
    config.write_text(BASE_CONFIG.replace("axis_a = x", "axis_a = z").replace(
        "axis_b = x", "axis_b = z"))
    out = tmp_path / "sample.csv"
    assert main(["sample", "--config", str(config), "--out", str(out)]) == EXIT_OK
    err = capsys.readouterr().err
    assert "at 2000 shots each, drawn on up to 2 threads; 36 branches pruned, " \
        "0 probabilities clamped" in err
    assert "pruned" not in out.read_text()


@pytest.mark.parametrize(
    "threads, drawn", [(1, "drawn on 1 thread"), (2, "drawn on up to 2 threads")]
)
def test_sample_and_im_name_the_draw_thread_limit_on_stderr(
    config_file, tmp_path, capsys, monkeypatch, threads, drawn
):
    """The summaries of `sample` and `im` say how many threads may draw a point."""
    monkeypatch.setattr(sampling, "_draw_threads", lambda: threads)
    summaries = {
        "sample": f"time points at 2000 shots each, {drawn}; ",
        "im": f"rotation protocol sampled at 2000 shots per angle set, {drawn}\n",
    }
    for command, summary in summaries.items():
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(config_file), "--out", str(out)]) == EXIT_OK
        assert summary in capsys.readouterr().err


def test_sample_run_is_byte_identical(config_file, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["sample", "--config", str(config_file), "--out", str(first), "--quiet"]) == EXIT_OK
    assert main(["sample", "--config", str(config_file), "--out", str(second), "--quiet"]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    _, _, rows = read_table(first)
    for row in rows:
        est, err = float(row["re_estimate"]), float(row["re_stderr"])
        assert abs(est - float(row["re_exact"])) <= 5 * max(err, 1e-12)
        assert row["n_shots"] == "2000"


@pytest.mark.parametrize("command", ["exact", "sample", "im", "verify"])
def test_pure_run_is_byte_identical_at_one_and_two_blas_threads(command, tmp_path):
    """An N = 10 all_up run, and `verify --seed 1` (no config), write the same bytes
    with BLAS and OpenMP at one thread and at two.  Each run is a child process, so
    that its thread counts are set before numpy loads its BLAS."""
    path = tmp_path / "n10.cfg"
    path.write_text(
        BASE_CONFIG.replace("n_sites = 4", "n_sites = 10")
        .replace("site_i = 2", "site_i = 5")
        .replace("site_j = 3", "site_j = 6")
    )
    package_root = str(Path(otocsim.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        out = tmp_path / f"{command}_{threads}.csv"
        source = ["--seed", "1"] if command == "verify" else ["--config", str(path)]
        argv = ["-m", "otocsim.cli", command, *source, "--out", str(out), "--quiet"]
        result = subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == EXIT_OK, result.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_seed_override_changes_output(config_file, tmp_path):
    base = tmp_path / "base.csv"
    reseeded = tmp_path / "reseeded.csv"
    main(["sample", "--config", str(config_file), "--out", str(base), "--quiet"])
    assert (
        main(
            ["sample", "--config", str(config_file), "--out", str(reseeded), "--seed", "7",
             "--quiet"]
        )
        == EXIT_OK
    )
    assert base.read_bytes() != reseeded.read_bytes()
    assert "# seed: 7" in reseeded.read_text()


@pytest.mark.parametrize("command", ["exact", "sample", "im", "dressing", "verify"])
def test_every_command_resolves_its_seed_by_one_rule(command, tmp_path):
    """The run seed is --seed, else the config's, else 1 for `verify`, which always
    draws, and none for the others.  `verify` draws from the seed it writes."""
    seeded = tmp_path / "seeded.cfg"
    seeded.write_text((BASE_CONFIG + DRESSING_CONFIG).replace("seed = 42", "seed = 5"))
    unsampled = tmp_path / "unsampled.cfg"
    unsampled.write_text(
        (BASE_CONFIG + DRESSING_CONFIG).replace("n_shots = 2000\nseed = 42\n", "")
    )

    def run(*argv):
        out = tmp_path / "out.csv"
        code = main([command, *argv, "--out", str(out), "--quiet"])
        if code != EXIT_OK:
            return code, None, None
        comments, _, rows = read_table(out)
        return code, next(c for c in comments if c.startswith("# seed: ")), rows

    _, seed, rows = run("--config", str(seeded))
    assert seed == "# seed: 5"
    assert run("--config", str(seeded), "--seed", "7")[1] == "# seed: 7"
    if command == "verify":
        assert rows == run("--seed", "5")[2]
        assert rows != run("--seed", "1")[2]
    code, seed, _ = run("--config", str(unsampled))
    if command in ("sample", "im"):
        assert code == EXIT_CONFIG  # they draw, so they need the sampling block
    else:
        assert seed == ("# seed: 1" if command == "verify" else "# seed: none")


def test_im_run_covers_exact_value(config_file, tmp_path):
    out = tmp_path / "im.csv"
    assert main(["im", "--config", str(config_file), "--out", str(out), "--quiet"]) == EXIT_OK
    _, _, rows = read_table(out)
    for row in rows:
        est, err = float(row["im_estimate"]), float(row["im_stderr"])
        assert abs(est - float(row["im_exact"])) <= 5 * max(err, 1e-12)
        assert row["re_estimate"] == ""


def test_missing_block_is_config_error(tmp_path):
    path = tmp_path / "partial.cfg"
    path.write_text("n_shots = 100\nseed = 1\n")
    assert main(["exact", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG


def test_bad_config_and_missing_file_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_sitez = 4\n")
    assert main(["exact", "--config", str(bad)]) == EXIT_CONFIG
    assert main(["exact", "--config", str(tmp_path / "absent.cfg")]) == EXIT_CONFIG


def test_degenerate_config_angles_are_a_config_error(tmp_path):
    path = tmp_path / "degenerate.cfg"
    path.write_text(BASE_CONFIG + "theta2 = 0.0\n")
    assert main(["im", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("exact", BASE_CONFIG.replace("n_sites = 4", "n_sites = 40"), "n_sites=40 is above"),
        # a full-rank state above its cap of 13 sites, rejected before anything is built
        (
            "exact",
            BASE_CONFIG.replace("n_sites = 4", "n_sites = 14").replace(
                "initial_state = all_up", "initial_state = maximally_mixed"
            ),
            "n_sites=14 is above 13, the largest register on which an "
            "initial_state = maximally_mixed run fits",
        ),
        ("exact", BASE_CONFIG.replace("t_stop = 2.0", "t_stop = inf"), "finite"),
        ("im", BASE_CONFIG + "theta1 = nan\n", "finite"),
        ("dressing", DRESSING_CONFIG.replace("omega_laser = 2.0", "omega_laser = nan"), "finite"),
        # a resonant strong laser leaves no dressed state of majority ground character
        (
            "dressing",
            DRESSING_CONFIG.replace("omega_laser = 2.0", "omega_laser = 10.0").replace(
                "delta_laser = 4.0", "delta_laser = 0.0"
            ),
            "majority ground character",
        ),
        # finite, but w*t overflows, so U(t) would be NaN, and so would the phases
        # that the eigenbasis traces of maximally_mixed read
        *((command, HUGE_TIME_CONFIG, "t=1e+308") for command in ("exact", "sample", "im")),
        *((command, MIXED_HUGE_TIME_CONFIG, "t=1e+308") for command in ("exact", "sample", "im")),
        # finite, but c6/r^6 overflows at r_min
        ("dressing", DRESSING_CONFIG.replace("r_min = 1.0", "r_min = 1e-60"), "r = r_min = 1e-60"),
        # finite detunings whose sum (the P level) overflows
        (
            "dressing",
            DRESSING_CONFIG.replace("delta_laser = 4.0", "delta_laser = 1e308").replace(
                "delta_microwave = 7.2857142857142857", "delta_microwave = 1e308"
            ),
            "delta_laser, delta_microwave",
        ),
        # a finite laser detuning whose double (the SS level) overflows
        (
            "dressing",
            DRESSING_CONFIG.replace("delta_laser = 4.0", "delta_laser = 1e308"),
            "overflows at r = r_min = 1.0",
        ),
        # finite, but so far above the laser scale that eigh cannot resolve the coupling:
        # the P level ...
        (
            "dressing",
            DRESSING_CONFIG.replace(
                "delta_microwave = 7.2857142857142857", "delta_microwave = 1e300"
            ),
            "an entry of 2e+300 at r = r_min = 1.0, above 1e+08 times the laser scale",
        ),
        # ... and the dipolar exchange at r_min
        (
            "dressing",
            DRESSING_CONFIG.replace("c3 = -3.0e2", "c3 = 1e308"),
            "an entry of 1e+308 at r = r_min = 1.0, above 1e+08 times the laser scale",
        ),
        # finite ends whose span overflows
        (
            "exact",
            BASE_CONFIG.replace("t_start = 0.0", "t_start = -1e308")
            .replace("t_stop = 2.0", "t_stop = 1e308")
            .replace("n_times = 9", "n_times = 3"),
            "t_stop - t_start = inf",
        ),
        # 10^12 shots would need 8.2 TiB of uniforms and masks: rejected before any draw
        (
            "sample",
            BASE_CONFIG.replace("n_shots = 2000", "n_shots = 1000000000000"),
            "n_shots=1000000000000 needs",
        ),
        # 10^13 rows would need 7.1 PiB of output rows: rejected before the grid exists
        (
            "exact",
            BASE_CONFIG.replace("n_times = 9", "n_times = 10000000000000"),
            "n_times=10000000000000 needs 7.45e+06 GiB for its output rows",
        ),
        (
            "dressing",
            DRESSING_CONFIG.replace("n_r = 20", "n_r = 10000000000000"),
            "n_r=10000000000000 needs 7.45e+06 GiB for its output rows",
        ),
        # the library's own checks, each reported with the block it came from
        (
            "dressing",
            DRESSING_CONFIG.replace("omega_laser = 2.0", "omega_laser = -1.0"),
            "dressing block: Rabi frequencies must be nonnegative",
        ),
        (
            "sample",
            BASE_CONFIG.replace("n_shots = 2000", "n_shots = 0"),
            "sampling block: n_shots must be >= 1",
        ),
        ("sample", BASE_CONFIG + "n_repeats = 0\n", "field 'n_repeats': must be >= 1, got 0"),
        (
            "exact",
            BASE_CONFIG.replace("site_j = 3", "site_j = 9"),
            "otoc block: site_j=9: site 9 out of range for 4 sites",
        ),
        (
            "exact",
            BASE_CONFIG.replace("axis_a = x", "axis_a = w"),
            "otoc block: axis_a='w': unknown Pauli axis 'w', expected one of ('x', 'y', 'z')",
        ),
        (
            "sample",
            BASE_CONFIG.replace("seed = 42", "seed = -1"),
            "field 'seed': seed -1 outside the unsigned 64-bit range",
        ),
        (
            "dressing",
            DRESSING_CONFIG.replace("r_min = 1.0", "r_min = 7.0").replace(
                "r_max = 400.0", "r_max = 6.0"
            ),
            "dressing block: need 0 < r_min < r_max",
        ),
        (
            "dressing",
            DRESSING_CONFIG.replace("n_r = 20", "n_r = 1"),
            "dressing block: a scan needs at least 2 grid points, got 1",
        ),
        (
            "exact",
            BASE_CONFIG.replace("n_sites = 4", "n_sites = 1"),
            "system block: an XY chain needs n_sites >= 2, got 1",
        ),
    ],
    ids=[
        "register_too_large",
        "full_rank_register_too_large",
        "infinite_time",
        "nan_angle",
        "nan_dressing",
        "lost_branch",
        "huge_time_exact",
        "huge_time_sample",
        "huge_time_im",
        "huge_time_exact_maximally_mixed",
        "huge_time_sample_maximally_mixed",
        "huge_time_im_maximally_mixed",
        "overflowing_potential",
        "overflowing_detunings",
        "overflowing_laser_detuning",
        "unresolvable_microwave_detuning",
        "unresolvable_exchange",
        "overflowing_time_span",
        "huge_n_shots",
        "huge_n_times",
        "huge_n_r",
        "negative_rabi_frequency",
        "zero_n_shots",
        "zero_n_repeats",
        "site_outside_register",
        "unknown_axis",
        "negative_seed_in_file",
        "r_min_above_r_max",
        "one_grid_point",
        "one_site_chain",
    ],
)
def test_bad_input_fails_closed(tmp_path, capsys, command, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_exact_validates_a_dressing_block_it_does_not_read(tmp_path, capsys):
    """Every block a config holds is validated when it is parsed, whichever command
    runs: `exact` on an N = 10 all_up config whose dressing block has a negative Rabi
    frequency exits 2 with that block's error.  So an `exact` child loads `dressing`."""
    path, out = tmp_path / "n10.cfg", tmp_path / "n10.csv"
    path.write_text(
        BASE_CONFIG.replace("n_sites = 4", "n_sites = 10")
        .replace("site_i = 2", "site_i = 5")
        .replace("site_j = 3", "site_j = 6")
        + DRESSING_CONFIG.replace("omega_laser = 2.0", "omega_laser = -1.0")
    )
    assert main(["exact", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "dressing block: Rabi frequencies must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "verify"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_unsigned_64_bit_fails_closed(config_file, tmp_path, capsys, command, seed):
    out = tmp_path / "out.csv"
    argv = [command, "--out", str(out), "--seed", seed]
    if command != "verify":
        argv += ["--config", str(config_file)]
    assert main(argv) == EXIT_CONFIG
    assert "unsigned 64-bit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["exact", "dressing"])
def test_unwritable_output_fails_closed(tmp_path, capsys, command):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG + DRESSING_CONFIG)
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    # main returns instead of raising, so no traceback reaches the terminal
    assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert "error: cannot write output:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["exact", "sample", "im"])
def test_otoc_command_builds_one_unitary_per_time_point(command, config_file, tmp_path, monkeypatch):
    calls = []
    build = Propagator.evolution
    monkeypatch.setattr(Propagator, "evolution", lambda self, t: calls.append(t) or build(self, t))
    out = tmp_path / f"{command}.csv"
    assert main([command, "--config", str(config_file), "--out", str(out), "--quiet"]) == EXIT_OK
    assert len(calls) == 9


def mixed_yz_config(n_sites, n_times):
    """A maximally_mixed run of the (4, y)/(5, z) correlator, the exact_mixed_n8 benchmark's."""
    return (
        BASE_CONFIG.replace("n_sites = 4", f"n_sites = {n_sites}")
        .replace("initial_state = all_up", "initial_state = maximally_mixed")
        .replace("site_i = 2\naxis_a = x", "site_i = 4\naxis_a = y")
        .replace("site_j = 3\naxis_b = x", "site_j = 5\naxis_b = z")
        .replace("t_stop = 2.0\nn_times = 9", f"t_stop = 3.0\nn_times = {n_times}")
    )


@pytest.mark.parametrize("command", ["exact", "sample", "im"])
@pytest.mark.parametrize("n_times", [1, 3])
def test_each_point_applies_u_six_times_and_a_pauli_eight_times_and_factorizes_nothing(
    command, n_times, tmp_path, monkeypatch
):
    """On all_up every time point applies U(t) or U(t)^dagger 6 times and a
    single-site Pauli kernel 8 times, all in the ladder that carries both protocols
    and the direct C(t): 5 images and 3 matrix elements of the last image.  On
    maximally_mixed a point applies neither: the run forms the two Paulis in the
    eigenbasis once, two kernel lookups at set-up, and every point reads them.
    No command calls a QR."""
    applications, paulis, qr_calls = [], [], []
    apply, pauli, element, entries, qr = (
        Evolution.apply,
        Register.pauli,
        Register.pauli_element,
        Register.pauli_entries,
        np.linalg.qr,
    )
    monkeypatch.setattr(
        Evolution, "apply", lambda ev, *a, **k: applications.append(1) or apply(ev, *a, **k)
    )
    monkeypatch.setattr(Register, "pauli", lambda *a, **k: paulis.append(1) or pauli(*a, **k))
    monkeypatch.setattr(
        Register, "pauli_element", lambda *a, **k: paulis.append(1) or element(*a, **k)
    )
    monkeypatch.setattr(
        Register, "pauli_entries", lambda *a, **k: paulis.append(1) or entries(*a, **k)
    )
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: qr_calls.append(1) or qr(*a, **k))
    for state, per_point, set_up in (("all_up", (6, 8), 0), ("maximally_mixed", (0, 0), 2)):
        applications.clear()
        paulis.clear()
        path = tmp_path / f"{state}.cfg"
        path.write_text(mixed_yz_config(6, n_times).replace("maximally_mixed", state))
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
        assert len(applications) == per_point[0] * n_times
        assert len(paulis) == per_point[1] * n_times + set_up
    assert not qr_calls


@pytest.mark.parametrize("command", ["exact", "sample", "im"])
def test_pure_state_points_apply_u_six_times(command, tmp_path, monkeypatch):
    """On all_up every time point applies U(t) or U(t)^dagger 6 times."""
    applications = []
    apply = Evolution.apply
    monkeypatch.setattr(
        Evolution, "apply", lambda ev, *a, **k: applications.append(1) or apply(ev, *a, **k)
    )
    path = tmp_path / "pure.cfg"
    path.write_text(BASE_CONFIG)
    out = tmp_path / f"{command}.csv"
    assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    assert len(applications) == 6 * 9


@pytest.mark.parametrize("command", ["exact", "sample", "im"])
def test_points_carry_nothing_through_the_run_owned_slots(command, tmp_path, monkeypatch):
    """Every point of a 31-point all_up run builds, byte for byte, the ladder of a
    one-point run at its t; so the rows, which read only the ladder and the point's
    substream, do not depend on the points before them.  The exact rows equal those
    of 31 one-point `exact` runs, byte for byte."""
    ladders = []
    build = cli.build_ladder
    monkeypatch.setattr(
        cli, "build_ladder", lambda *args: ladders.append(build(*args)) or ladders[-1]
    )
    path = tmp_path / "pure.cfg"
    path.write_text(mixed_yz_config(6, 31).replace("maximally_mixed", "all_up"))
    out = tmp_path / f"{command}.csv"
    assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    config = parse_config(path.read_text())
    _, _, rows = read_table(out)
    assert len(ladders) == len(rows) == 31
    for row, ladder in zip(rows, ladders):
        t = float(row["t"])
        one_point = config.replace(otoc=config.otoc.replace(t_start=t, t_stop=t, n_times=1))
        prepared, _ = cli._build_system(one_point, command)
        fresh = build(prepared, t)
        assert fresh.grams.tobytes() == ladder.grams.tobytes()
        assert fresh.direct == ladder.direct
    if command == "exact":
        assert_rows_equal_one_point_runs(path, rows, tmp_path)


def assert_rows_equal_one_point_runs(path, rows, tmp_path):
    """Each row of a 31-point `exact` CSV equals, byte for byte, the one-point run at its t."""
    for k, row in enumerate(rows):
        single = tmp_path / f"point{k}.cfg"
        single.write_text(
            path.read_text()
            .replace("t_start = 0.0", f"t_start = {row['t']}")
            .replace("t_stop = 3.0", f"t_stop = {row['t']}")
            .replace("n_times = 31", "n_times = 1")
        )
        one = tmp_path / f"point{k}.csv"
        argv = ["exact", "--config", str(single), "--out", str(one), "--quiet"]
        assert main(argv) == EXIT_OK
        assert read_table(one)[2] == [row]


def test_maximally_mixed_points_equal_one_point_runs(tmp_path):
    """A maximally_mixed point reads only the run's W_E and V_E and its own phases:
    each of 31 `exact` rows equals the one-point run at its t, byte for byte."""
    path = tmp_path / "mixed.cfg"
    path.write_text(mixed_yz_config(6, 31).replace("axis_b = z", "axis_b = x"))
    out = tmp_path / "exact.csv"
    assert main(["exact", "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    _, _, rows = read_table(out)
    assert len(rows) == 31
    assert_rows_equal_one_point_runs(path, rows, tmp_path)


@pytest.mark.parametrize("kind", sorted(STATE_FOOTPRINTS))
@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_the_built_state_has_the_rank_the_cap_assumes(kind, n_sites):
    """Every initial_state kind that the memory cap knows builds what its footprint
    counts: all_up a `PreparedState`, whose ladder is the Schroedinger chain, with a
    one-column factor on the weights 0-3 its x/x chain evolves (all 2^N rows up to
    N = 3, 15 of 16 at N = 4); maximally_mixed a `PreparedTrace`, whose ladder is the
    eigenbasis traces, with no factor and W_E and V_E of C(2N, N-1) entries each, half
    of their 2 C(2N, N-1), and at even N the 2 C(N, N/2) C(N, N/2-1) more of the
    blocks that touch the middle sector, which the spin flip maps onto itself."""
    text = (
        BASE_CONFIG.replace("n_sites = 4", f"n_sites = {n_sites}")
        .replace("initial_state = all_up", f"initial_state = {kind}")
        .replace("site_i = 2", "site_i = 1")
        .replace("site_j = 3", "site_j = 2")
    )
    prepared, _ = cli._build_system(parse_config(text), "exact")
    if kind == "all_up":
        assert isinstance(prepared, PreparedState)
        assert prepared.psi.shape == ({2: 4, 3: 8, 4: 15}[n_sites], 1)
        return
    assert isinstance(prepared, PreparedTrace)
    half = n_sites // 2
    middle = 2 * math.comb(n_sites, half) * math.comb(n_sites, half - 1) if n_sites % 2 == 0 else 0
    for blocks in (prepared.w_blocks, prepared.v_blocks):
        assert sum(block.size for block in blocks.values()) == (
            math.comb(2 * n_sites, n_sites - 1) + middle
        )


def test_a_warm_full_rank_point_allocates_less_than_one_factor():
    """After the first point of a full-rank N = 8 run, a point's ladder, 16-branch table
    and rotation combination allocate less than one 2^N x 2^N complex factor: the
    trace ladder forms sector blocks only."""
    prepared, grid = cli._build_system(parse_config(mixed_yz_config(8, 31)), "exact")
    build_ladder(prepared, float(grid[0]))
    tracemalloc.start()
    try:
        for t in grid[1:4]:
            ladder = build_ladder(prepared, float(t))
            outcome_probabilities(ladder)
            im_otoc_via_protocol(ladder)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 4**8


@pytest.mark.parametrize("n_sites", [12, 13, 14, 16, 20])
def test_exact_matches_xx_vacuum_oracle_up_to_fourteen_sites(n_sites, tmp_path):
    """One all_up point of the paper's (6,x)/(7,x) correlator on large pure-state
    registers, which hold only the weights 0-4 the chain reaches: the direct C(t)
    against the free-fermion Wick oracle, and both protocols against it."""
    path = tmp_path / "vacuum.cfg"
    path.write_text(
        BASE_CONFIG.replace("n_sites = 4", f"n_sites = {n_sites}")
        .replace("site_i = 2", "site_i = 6")
        .replace("site_j = 3", "site_j = 7")
        .replace("t_start = 0.0\nt_stop = 2.0\nn_times = 9", "t_start = 1.7\nt_stop = 1.7\nn_times = 1")
    )
    out = tmp_path / "exact.csv"
    assert main(["exact", "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    _, _, (row,) = read_table(out)
    expected = oracles.free_fermion_xx_vacuum_otoc(n_sites, 6, 7, 1.7)
    assert abs(complex(float(row["re_exact"]), float(row["im_exact"])) - expected) < 1e-12
    assert float(row["re_identity_residual"]) < 1e-12
    assert float(row["im_identity_residual"]) < 1e-12


@pytest.mark.parametrize("axis_a", ["x", "y"])
@pytest.mark.parametrize("axis_b", ["x", "y"])
@pytest.mark.parametrize("n_sites, mirrored", [(2, 1), (3, 2)])
def test_an_all_up_run_across_mirrored_sectors_matches_the_dense_oracle(
    n_sites, mirrored, axis_a, axis_b, tmp_path, capsys
):
    """At N = 2 and 3 the weights an x or y all_up run reaches, 0 to N, are closed
    under the spin flip, so its register declares it and the upper sectors take
    their mirror's block and V.  Every point, t = 0 included, is the dense expm
    value on |up...up>, and stderr counts the mirrored sectors."""
    path, out = tmp_path / "mirrored.cfg", tmp_path / "exact.csv"
    path.write_text(
        BASE_CONFIG.replace("n_sites = 4", f"n_sites = {n_sites}")
        .replace("site_i = 2\naxis_a = x", f"site_i = 1\naxis_a = {axis_a}")
        .replace("site_j = 3\naxis_b = x", f"site_j = {n_sites}\naxis_b = {axis_b}")
    )
    assert main(["exact", "--config", str(path), "--out", str(out)]) == EXIT_OK
    summary = f"{n_sites + 1 - mirrored} of {n_sites + 1} sectors diagonalized, {mirrored} mirrored"
    assert summary in capsys.readouterr().err
    rows = read_table(out)[2]
    assert len(rows) == 9 and float(rows[0]["t"]) == 0.0
    rho = np.zeros((2**n_sites,) * 2)
    rho[0, 0] = 1.0  # |up...up> is basis index 0
    h = oracles.xy_chain(n_sites)
    for row in rows:
        expected = oracles.otoc_value(rho, h, n_sites, 1, axis_a, n_sites, axis_b, float(row["t"]))
        assert abs(float(row["re_exact"]) - expected.real) < 1e-12
        assert abs(float(row["im_exact"]) - expected.imag) < 1e-12


@pytest.mark.parametrize("axes, cap", [(("x", "x"), 37), (("z", "z"), 62)])
def test_an_all_up_register_one_site_above_its_cap_exits_2(axes, cap, tmp_path, capsys):
    """The all_up cap follows the sectors the axis pair reaches: x/x holds weights
    0-4 and stops at 37 sites, z/z holds weight 0 only and stops at the 62 sites
    whose basis indices are int64.  One site more exits 2 and names n_sites; the
    z/z run at its cap, one row, runs."""
    path, out = tmp_path / "cap.cfg", tmp_path / "cap.csv"
    text = (
        BASE_CONFIG.replace("axis_a = x", f"axis_a = {axes[0]}")
        .replace("axis_b = x", f"axis_b = {axes[1]}")
        .replace("t_stop = 2.0\nn_times = 9", "t_stop = 2.0\nn_times = 2")
    )
    path.write_text(text.replace("n_sites = 4", f"n_sites = {cap + 1}"))
    assert main(["exact", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert f"n_sites={cap + 1} is above {cap}" in capsys.readouterr().err
    assert not out.exists()
    if axes == ("z", "z"):
        path.write_text(text.replace("n_sites = 4", f"n_sites = {cap}"))
        assert main(["exact", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert "register of 1 rows in 1 sectors" in capsys.readouterr().err
        assert [row["re_exact"] for row in read_table(out)[2]] == ["1", "1"]


def test_a_maximally_mixed_run_does_not_import_numpy_ma(tmp_path):
    """An N = 6 maximally_mixed `exact` run, in a fresh interpreter, leaves numpy.ma
    unimported: finding the sector blocks of a Pauli in the eigenbasis must not call
    np.unique, which imports it on numpy 2.4."""
    path = tmp_path / "mixed.cfg"
    path.write_text(mixed_yz_config(6, 3))
    code = (
        "import sys; from otocsim.cli import main; "
        f"code = main(['exact', '--config', {str(path)!r}, '--out', {str(tmp_path / 'x.csv')!r}, "
        "'--quiet']); print(code, 'numpy.ma' in sys.modules)"
    )
    package_root = str(Path(otocsim.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.stdout.split() == ["0", "False"], result.stderr


GOLDEN_CONFIG = Path(__file__).parent / "golden" / "small_many.cfg"


def run_child(code):
    """The stdout of `python -c code` in a fresh interpreter that imports this package."""
    package_root = str(Path(otocsim.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_config_sha256_is_the_digest_of_the_config_bytes(tmp_path):
    out = tmp_path / "exact.csv"
    assert main(["exact", "--config", str(GOLDEN_CONFIG), "--out", str(out), "--quiet"]) == EXIT_OK
    expected = hashlib.sha256(GOLDEN_CONFIG.read_bytes()).hexdigest()
    assert f"# config_sha256: {expected}" in read_table(out)[0]


def test_config_sha256_falls_back_to_hashlib_without_the_built_in_modules(tmp_path):
    """With CPython's built-in SHA-256 modules blocked, the CLI hashes the config
    through hashlib and writes the same header."""
    out = tmp_path / "exact.csv"
    run_child(
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None  # their import now fails\n"
        "from otocsim.cli import main\n"
        f"argv = ['exact', '--config', {str(GOLDEN_CONFIG)!r}, '--out', {str(out)!r}, '--quiet']\n"
        "sys.exit(main(argv))\n"
    )
    expected = hashlib.sha256(GOLDEN_CONFIG.read_bytes()).hexdigest()
    assert f"# config_sha256: {expected}" in read_table(out)[0]


def test_exact_and_dressing_do_not_load_openssl(tmp_path):
    """An N = 10 all_up `exact` run and the golden config's `dressing` scan, in a
    fresh interpreter, leave `_hashlib` (OpenSSL's libcrypto) unimported: the config
    digest is CPython's built-in SHA-256."""
    path = tmp_path / "n10.cfg"
    path.write_text(
        BASE_CONFIG.replace("n_sites = 4", "n_sites = 10")
        .replace("site_i = 2", "site_i = 5")
        .replace("site_j = 3", "site_j = 6")
    )
    runs = [("exact", path), ("dressing", GOLDEN_CONFIG)]
    run_child(
        "import sys\n"
        "from otocsim.cli import main\n"
        f"for command, config in {[(c, str(p)) for c, p in runs]!r}:\n"
        "    argv = [command, '--config', config, '--out', '/dev/null', '--quiet']\n"
        "    if main(argv) != 0:\n"
        "        sys.exit(f'{command} failed')\n"
        "if '_hashlib' in sys.modules:\n"
        "    sys.exit('_hashlib (OpenSSL) was loaded')\n"
    )


def test_dressing_logs_its_smallest_branch_overlap_on_stderr_only(tmp_path, capsys):
    """Each scan's smallest tracked overlap reaches stderr; the CSV is the quiet run's."""
    path = tmp_path / "dress.cfg"
    outs = [tmp_path / "loud.csv", tmp_path / "quiet.csv"]
    d = parse_config(DRESSING_CONFIG).dressing
    grid = (d.scheme, d.coeffs, d.r_min, d.r_max, d.n_r)
    off, on = scan_curve(*grid, microwave_on=False), scan_curve(*grid)
    for text, expected in (
        (DRESSING_CONFIG, f"{off.min_overlap:.6f} with the microwave off, "
                          f"{on.min_overlap:.6f} with it on"),
        (DRESSING_CONFIG.replace("microwave = on", "microwave = off"),
         f"{off.min_overlap:.6f} with the microwave off\n"),
    ):
        path.write_text(text)
        argv = ["dressing", "--config", str(path), "--out"]
        assert main([*argv, str(outs[0])]) == EXIT_OK
        assert f"; smallest branch overlap {expected}" in capsys.readouterr().err
        assert main([*argv, str(outs[1]), "--quiet"]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert "overlap" not in outs[0].read_text()


def mixed_point_config(n_sites, site_i, axis_a, site_j, axis_b, t_stop, n_times):
    """A maximally_mixed `exact` config of n_times points on [0, t_stop]."""
    return (
        BASE_CONFIG.replace("n_sites = 4", f"n_sites = {n_sites}")
        .replace("initial_state = all_up", "initial_state = maximally_mixed")
        .replace("site_i = 2\naxis_a = x", f"site_i = {site_i}\naxis_a = {axis_a}")
        .replace("site_j = 3\naxis_b = x", f"site_j = {site_j}\naxis_b = {axis_b}")
        .replace("t_stop = 2.0\nn_times = 9", f"t_stop = {t_stop}\nn_times = {n_times}")
    )


def exact_rows(text, tmp_path):
    path, out = tmp_path / "run.cfg", tmp_path / "exact.csv"
    path.write_text(text)
    assert main(["exact", "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    return read_table(out)[2]


@pytest.mark.parametrize(
    "n_sites, site_i, site_j, t_stop, n_times",
    [(6, 1, 6, 3.0, 4), (7, 3, 4, 3.0, 4), (8, 4, 5, 3.0, 4), (9, 2, 2, 3.0, 4),
     (10, 5, 6, 3.0, 4), (12, 6, 7, 1.7, 1)],
)
def test_maximally_mixed_exact_matches_free_fermion_oracles(
    n_sites, site_i, site_j, t_stop, n_times, tmp_path
):
    """The `exact` command on maximally_mixed, which takes its traces in the eigenbasis,
    against the Jordan-Wigner closed forms: (i,z)/(j,z), and (1,x)/(j,z) below N = 12.
    C is real at infinite temperature, and both protocols reproduce it."""
    cases = [("z", site_i, oracles.free_fermion_zz_otoc)]
    if n_sites < 12:
        cases.append(("x", 1, lambda n, _, j, t: oracles.free_fermion_xz_otoc(n, j, t)))
    for axis_a, first, oracle in cases:
        text = mixed_point_config(n_sites, first, axis_a, site_j, "z", t_stop, n_times)
        if n_times == 1:
            text = text.replace("t_start = 0.0", f"t_start = {t_stop}")
        rows = exact_rows(text, tmp_path)
        assert len(rows) == n_times
        for row in rows:
            expected = oracle(n_sites, first, site_j, float(row["t"]))
            value = complex(float(row["re_exact"]), float(row["im_exact"]))
            assert abs(value - expected) < 1e-12
            assert float(row["re_identity_residual"]) < 1e-12
            assert float(row["im_identity_residual"]) < 1e-12


def test_full_rank_exact_run_stays_within_its_memory_budget(tmp_path):
    """The traced peak of a 31-point N=8 maximally_mixed `exact` run: the prepared
    run holds W_E and V_E, no state factor, and caches nothing per point."""
    path = tmp_path / "mixed8.cfg"
    path.write_text(mixed_yz_config(8, 31))
    out = tmp_path / "exact.csv"
    tracemalloc.start()
    try:
        code = main(["exact", "--config", str(path), "--out", str(out), "--quiet"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak <= 8 * 2**20


@pytest.mark.parametrize("state, n_sites", [("maximally_mixed", 8), ("all_up", 10)])
def test_one_point_exact_peak_is_within_the_cap_estimate(state, n_sites, tmp_path):
    """The register cap rests on `STATE_FOOTPRINTS`: the traced peak of a one-point
    `exact` run, set-up included, stays within it for a full-rank and a pure state."""
    path = tmp_path / "one.cfg"
    path.write_text(mixed_yz_config(n_sites, 1).replace("maximally_mixed", state))
    tracemalloc.start()
    try:
        code = main(["exact", "--config", str(path), "--out", str(tmp_path / "x.csv"), "--quiet"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak <= STATE_FOOTPRINTS[state](n_sites)


@pytest.mark.parametrize("axis_a", ["x", "y", "z"])
@pytest.mark.parametrize("axis_b", ["x", "y", "z"])
def test_an_all_up_run_peaks_within_the_estimate_of_its_axes(axis_a, axis_b, tmp_path):
    """The all_up cap rests on the estimate for the run's own axis pair, which counts
    only the sectors it reaches: the traced peak of a one-point N = 16 `exact` run,
    set-up included, stays within it for every pair, from the x/x run's weights 0-4
    down to the z/z run's single row."""
    path = tmp_path / "one.cfg"
    path.write_text(
        mixed_yz_config(16, 1)
        .replace("maximally_mixed", "all_up")
        .replace("axis_a = y", f"axis_a = {axis_a}")
        .replace("axis_b = z", f"axis_b = {axis_b}")
    )
    tracemalloc.start()
    try:
        code = main(["exact", "--config", str(path), "--out", str(tmp_path / "x.csv"), "--quiet"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak <= STATE_FOOTPRINTS["all_up"](16, (axis_a, axis_b))


TWO_SITE_CONFIG = (
    BASE_CONFIG.replace("n_sites = 4", "n_sites = 2")
    .replace("site_i = 2", "site_i = 1")
    .replace("site_j = 3", "site_j = 2")
    .replace("n_shots = 2000", "n_shots = 10")
)


@pytest.mark.parametrize(
    "command, text, key, rows",
    [("sample", TWO_SITE_CONFIG, "n_times", 400), ("dressing", DRESSING_CONFIG, "n_r", 500)],
    ids=["sample", "dressing"],
)
def test_an_output_row_costs_at_most_row_bytes(command, text, key, rows, tmp_path):
    """The n_times and n_r budgets rest on ROW_BYTES: the traced peak of a run grows by
    at most that much per output row, for `sample`, whose rows are the largest, and for
    `dressing`.  Differencing two run lengths cancels the fixed cost of a run; below a
    few hundred rows that cost, not the rows, sets the peak."""
    path, out = tmp_path / "rows.cfg", tmp_path / "rows.csv"
    (line,) = [line for line in text.splitlines() if line.startswith(f"{key} = ")]

    def peak(n_rows):
        path.write_text(text.replace(line, f"{key} = {n_rows}"))
        gc.collect()  # earlier garbage awaiting the cyclic collector is not the rows' cost
        tracemalloc.start()
        try:
            code = main([command, "--config", str(path), "--out", str(out), "--quiet"])
            _, traced = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        return traced

    peak(2)  # first calls, whose one-off allocations would count against the rows
    assert peak(2 * rows) - peak(rows) <= rows * ROW_BYTES


def test_dressing_scan_runs_once_with_the_microwave_off(tmp_path, monkeypatch):
    """With the microwave off both columns are the same scan, run once."""
    calls = []
    scan = cli.scan_curve

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return scan(*args, **kwargs)

    monkeypatch.setattr(cli, "scan_curve", counted)
    path = tmp_path / "off.cfg"
    path.write_text(DRESSING_CONFIG.replace("microwave = on", "microwave = off"))
    out = tmp_path / "off.csv"
    assert main(["dressing", "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    assert calls == [{"microwave_on": False}]
    # the rows a second scan would have given: both columns the microwave-off curve
    d = parse_config(DRESSING_CONFIG).dressing
    curve = scan(d.scheme, d.coeffs, d.r_min, d.r_max, d.n_r, False)
    expected = [format(j, ".17g") for j in curve.j_values]
    _, _, rows = read_table(out)
    assert [row["j_off"] for row in rows] == [row["j_on"] for row in rows] == expected
    assert all(row["sign_inverted"] == "false" for row in rows)


def test_dressing_run_flags_inversion(tmp_path):
    path = tmp_path / "dress.cfg"
    path.write_text(DRESSING_CONFIG)
    out = tmp_path / "dress.csv"
    assert main(["dressing", "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    _, columns, rows = read_table(out)
    assert columns == ["r", "j_off", "j_on", "sign_inverted"]
    assert rows[0]["sign_inverted"] == "true"  # plateau point r=1.0
    # far tail: both couplings die off
    assert abs(float(rows[-1]["j_off"])) < 1e-6
    assert abs(float(rows[-1]["j_on"])) < 1e-6


def test_dressing_far_tail_is_zero_not_rounding_noise(tmp_path):
    """Where the pair no longer interacts, J is exactly 0 and no sign inversion is flagged."""
    path = tmp_path / "far.cfg"
    path.write_text(
        DRESSING_CONFIG.replace("r_max = 400.0", "r_max = 1e60").replace("n_r = 20", "n_r = 5")
    )
    out = tmp_path / "far.csv"
    # any RuntimeWarning, such as an overflow in r^6, is an error under the test settings
    assert main(["dressing", "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    _, _, rows = read_table(out)
    assert rows[0]["sign_inverted"] == "true"  # r_min = 1.0, on the plateau
    for row in rows[1:]:  # r >= 2.5e59
        assert (row["j_off"], row["j_on"], row["sign_inverted"]) == ("0", "0", "false")


def test_dressing_without_laser_gives_zero_columns(tmp_path):
    path = tmp_path / "nolaser.cfg"
    path.write_text(DRESSING_CONFIG.replace("omega_laser = 2.0", "omega_laser = 0.0"))
    out = tmp_path / "nolaser.csv"
    assert main(["dressing", "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    _, _, rows = read_table(out)
    assert all(abs(float(row["j_off"])) < 1e-12 for row in rows)
    assert all(abs(float(row["j_on"])) < 1e-12 for row in rows)


def test_verify_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    assert main(["verify", "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err.count("PASS") == 3
    _, _, rows = read_table(out)
    assert [row["check"] for row in rows] == ["re_identity", "im_identity", "commutator_relation"]
    assert all(float(row["max_residual"]) < 1e-9 for row in rows)
    lines = captured.err.splitlines()
    for row in rows:
        (line,) = [line for line in lines if line.startswith(f"{row['check']}: ")]
        assert " over 200 instances of 2-5 sites (tolerance 1e-09) PASS" in line


def test_verify_fails_on_a_nan_residual(tmp_path, monkeypatch, capsys):
    """A NaN residual is not a pass: the worst residual carries it."""
    real = verification.otoc_commutator
    monkeypatch.setattr(verification, "otoc_commutator", lambda *a: (real(*a)[0], math.nan))
    out = tmp_path / "verify.csv"
    assert main(["verify", "--out", str(out)]) == cli.EXIT_INVARIANT
    _, _, rows = read_table(out)
    assert [row["passed"] for row in rows] == ["true", "true", "false"]
    assert "commutator_relation: max residual nan" in capsys.readouterr().err


def test_verify_draws_one_distinct_hamiltonian_per_instance_across_seeds(monkeypatch):
    """`verify --seed 1`, 2 and 3 each draw 200 instances, one Hamiltonian apiece,
    and no two of the 600 are equal: neighbouring seeds draw apart."""
    hams = []
    real = verification.random_hamiltonian
    monkeypatch.setattr(
        verification, "random_hamiltonian", lambda *a: hams.append(real(*a)) or hams[-1]
    )
    for seed in (1, 2, 3):
        verification.run_verification_suite(seed)
    assert len(hams) == 600
    assert len({ham.blocks[0].tobytes() for ham in hams}) == 600


def test_verify_builds_one_ladder_and_one_direct_otoc_per_instance(monkeypatch):
    """The three checks share each instance's ladder and its one direct chain, which
    gives both C(t) and the squared commutator: two evolutions per instance, six
    applications of U(t) or U(t)^dagger for the ladder and four for the chain."""
    calls = {"build_ladder": 0, "otoc_commutator": 0, "evolution": 0, "apply": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("build_ladder", "otoc_commutator"):
        counted(verification, name)
    counted(Propagator, "evolution")
    counted(Evolution, "apply")
    verification.run_verification_suite(1)
    assert calls == {"build_ladder": 200, "otoc_commutator": 200, "evolution": 400, "apply": 2000}


def test_stdout_output_when_no_out_path(config_file, capsys):
    assert main(["exact", "--config", str(config_file), "--quiet"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("# otocsim ")


# argv outside the grammar -> the start of its one `error:` line
USAGE_ERRORS = {
    "no_command": ([], "no command given (choose from exact, sample, im, dressing, verify)"),
    "unknown_command": (["bogus"], "unknown command 'bogus'"),
    "option_before_the_command": (["--quiet", "verify"], "unknown command '--quiet'"),
    "unknown_option": (["verify", "--bogus"], "unknown option '--bogus'"),
    "stray_argument": (["verify", "extra"], "unexpected argument 'extra'"),
    "option_at_the_end_without_its_value": (["exact", "--config"], "option --config needs a value"),
    "option_followed_by_an_option": (["verify", "--out", "--quiet"], "option --out needs a value"),
    "non_integer_seed": (["verify", "--seed", "abc"], "--seed needs an integer, got 'abc'"),
    # -h, --help and --version are obeyed only where an option may stand, not as a value
    "help_as_a_value": (["exact", "--config", "c.cfg", "--out", "-h"], "option --out needs a value"),
    "version_as_a_value": (["verify", "--seed", "--version"], "option --seed needs a value"),
    "long_help_as_a_value": (["exact", "--config", "--help"], "option --config needs a value"),
    **{
        f"{command}_without_config": ([command, "--quiet"], f"command {command!r} needs --config PATH")
        for command in ("exact", "sample", "im", "dressing")
    },
}


def cli_child(*argv):
    """`python -m otocsim.cli *argv` in a fresh interpreter, run to completion."""
    package_root = str(Path(otocsim.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "otocsim.cli", *argv], env=env, capture_output=True, text=True,
        timeout=120,
    )


def is_usage_error(err, message):
    """Whether stderr `err` is the usage line and one `error:` line starting with `message`."""
    lines = err.splitlines()
    return len(lines) == 2 and lines[0] == cli.USAGE and lines[1].startswith(f"error: {message}")


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_a_usage_error_returns_2_with_the_usage_line_and_one_error_line(case, capsys):
    """`main` returns 2 to an in-process caller instead of raising SystemExit, and
    prints the usage line and one `error:` line on stderr, nothing on stdout."""
    argv, message = USAGE_ERRORS[case]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert is_usage_error(captured.err, message), captured.err
    assert captured.out == ""


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_a_usage_error_exits_2_in_a_child_without_a_traceback(case):
    argv, message = USAGE_ERRORS[case]
    result = cli_child(*argv)
    assert result.returncode == EXIT_CONFIG
    assert is_usage_error(result.stderr, message), result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "argv", [["--help"], ["-h"], ["exact", "--help"], ["verify", "--seed", "1", "-h"]]
)
def test_help_prints_the_grammar_to_stdout_and_exits_0(argv, capsys):
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == cli.HELP and captured.out.startswith(cli.USAGE + "\n")
    assert captured.err == ""
    result = cli_child(*argv)
    assert (result.returncode, result.stdout, result.stderr) == (EXIT_OK, cli.HELP, "")


def test_version_prints_the_version_to_stdout_and_exits_0(capsys):
    assert main(["--version"]) == EXIT_OK
    assert capsys.readouterr().out == f"otocsim {otocsim.__version__}\n"
    result = cli_child("--version")
    assert (result.returncode, result.stdout, result.stderr) == (
        EXIT_OK, f"otocsim {otocsim.__version__}\n", ""
    )


def test_an_option_value_may_follow_an_equals_sign_and_the_last_value_counts(tmp_path):
    """`--out=PATH` is `--out PATH`; `--seed -1` is a value, checked as a seed."""
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    config = str(GOLDEN_CONFIG)
    assert main(["sample", "--config", config, "--seed", "3", "--out", str(spaced), "--quiet"]) == 0
    argv = ["sample", f"--config={config}", "--seed", "9", "--seed=3", f"--out={joined}", "--quiet"]
    assert main(argv) == EXIT_OK
    assert spaced.read_bytes() == joined.read_bytes()
    assert main(["verify", "--seed", "-1", "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG


def departure_time(rows, threshold=0.05):
    for row in rows:
        if abs(1.0 - float(row["re_exact"])) > threshold:
            return float(row["t"])
    return float("inf")


def test_distant_pair_departs_later(tmp_path):
    """Quasilocality: the (1,4) correlator stays at 1 longer than (2,3)."""
    times = {}
    for label, site_i, site_j in (("near", 2, 3), ("far", 1, 4)):
        cfg = BASE_CONFIG.replace("site_i = 2", f"site_i = {site_i}").replace(
            "site_j = 3", f"site_j = {site_j}"
        )
        path = tmp_path / f"{label}.cfg"
        path.write_text(cfg)
        out = tmp_path / f"{label}.csv"
        assert main(["exact", "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
        _, _, rows = read_table(out)
        times[label] = departure_time(rows)
    assert times["far"] > times["near"]
