import tracemalloc

import numpy as np
import pytest

from otocsim.cli import EXIT_CONFIG, EXIT_OK, main
from otocsim.dynamics import BlockDiagonal, Propagator
from otocsim.hilbert import Register

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
    out = tmp_path / "exact.csv"
    assert main(["exact", "--config", str(config_file), "--out", str(out)]) == EXIT_OK
    err = capsys.readouterr().err
    assert "eigendecomposition in 5 blocks (largest 6): residual " in err
    assert "unitarity defect " in err
    assert "unitarity" not in out.read_text()


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


def test_sample_reports_pruned_and_clamped_counts_on_stderr_only(tmp_path, capsys):
    """The all_up zz tables of `sample` prune as in `exact`; the counts reach
    stderr, not the CSV."""
    config = tmp_path / "zz.cfg"
    config.write_text(BASE_CONFIG.replace("axis_a = x", "axis_a = z").replace(
        "axis_b = x", "axis_b = z"))
    out = tmp_path / "sample.csv"
    assert main(["sample", "--config", str(config), "--out", str(out)]) == EXIT_OK
    err = capsys.readouterr().err
    assert "at 2000 shots each; 36 branches pruned, 0 probabilities clamped" in err
    assert "pruned" not in out.read_text()


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
        # finite, but w*t overflows, so U(t) would be NaN
        *((command, HUGE_TIME_CONFIG, "t=1e+308") for command in ("exact", "sample", "im")),
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
        # finite ends whose span overflows
        (
            "exact",
            BASE_CONFIG.replace("t_start = 0.0", "t_start = -1e308")
            .replace("t_stop = 2.0", "t_stop = 1e308")
            .replace("n_times = 9", "n_times = 3"),
            "t_stop - t_start = inf",
        ),
    ],
    ids=[
        "register_too_large",
        "infinite_time",
        "nan_angle",
        "nan_dressing",
        "lost_branch",
        "huge_time_exact",
        "huge_time_sample",
        "huge_time_im",
        "overflowing_potential",
        "overflowing_detunings",
        "overflowing_laser_detuning",
        "overflowing_time_span",
    ],
)
def test_bad_input_fails_closed(tmp_path, capsys, command, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
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
def test_each_point_applies_u_and_a_pauli_seven_times_and_factorizes_nothing(
    command, n_times, tmp_path, monkeypatch
):
    """On a full-rank state every time point applies U(t) or U(t)^dagger 7 times and
    a single-site Pauli 7 times, all in the ladder that carries both protocols and
    the direct C(t), and no command calls a QR."""
    applications, paulis, qr_calls = [], [], []
    apply, pauli, qr = BlockDiagonal.__matmul__, Register.pauli, np.linalg.qr
    monkeypatch.setattr(
        BlockDiagonal, "__matmul__", lambda op, psi: applications.append(1) or apply(op, psi)
    )
    monkeypatch.setattr(Register, "pauli", lambda *a, **k: paulis.append(1) or pauli(*a, **k))
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: qr_calls.append(1) or qr(*a, **k))
    path = tmp_path / "mixed.cfg"
    path.write_text(mixed_yz_config(6, n_times))
    out = tmp_path / f"{command}.csv"
    assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    assert len(applications) == 7 * n_times
    assert len(paulis) == 7 * n_times
    assert not qr_calls


def test_exact_matches_xx_vacuum_oracle_at_twelve_sites(tmp_path):
    """One N=12 all_up point of the paper's (6,x)/(7,x) correlator: the direct C(t)
    against the free-fermion Wick oracle, and both protocols against it."""
    path = tmp_path / "n12.cfg"
    path.write_text(
        BASE_CONFIG.replace("n_sites = 4", "n_sites = 12")
        .replace("site_i = 2", "site_i = 6")
        .replace("site_j = 3", "site_j = 7")
        .replace("t_start = 0.0\nt_stop = 2.0\nn_times = 9", "t_start = 1.7\nt_stop = 1.7\nn_times = 1")
    )
    out = tmp_path / "exact.csv"
    assert main(["exact", "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    _, _, (row,) = read_table(out)
    expected = oracles.free_fermion_xx_vacuum_otoc(12, 6, 7, 1.7)
    assert abs(complex(float(row["re_exact"]), float(row["im_exact"])) - expected) < 1e-12
    assert float(row["re_identity_residual"]) < 1e-12
    assert float(row["im_identity_residual"]) < 1e-12


def test_full_rank_exact_run_stays_within_its_memory_budget(tmp_path):
    """The traced peak of a 31-point N=8 maximally_mixed `exact` run: the prepared
    state keeps Psi once, in register order, and caches nothing per point."""
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
    assert {row["check"] for row in rows} == {
        "re_identity",
        "im_identity",
        "commutator_relation",
    }
    assert all(float(row["max_residual"]) < 1e-9 for row in rows)


def test_stdout_output_when_no_out_path(config_file, capsys):
    assert main(["exact", "--config", str(config_file), "--quiet"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("# otocsim ")


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
