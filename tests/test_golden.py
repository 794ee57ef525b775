"""Sampled output against committed golden rows.

`tests/golden/` holds the header and data rows (not the '#' metadata,
which names the numpy version) that `sample` and `im` wrote for the
small_many benchmark config at seeds 1-3.  Sampled cells must match as
strings, whether a point's shots are drawn on 1, 2 or 3 threads; the exact
columns only within 1e-12, since their last digit can vary with the BLAS
build.
"""

from pathlib import Path

import pytest

from otocsim import sampling
from otocsim.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
EXACT_COLUMNS = ("re_exact", "im_exact")


def data_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("command", ["sample", "im"])
def test_sampled_rows_match_golden(command, seed, threads, tmp_path, monkeypatch):
    monkeypatch.setattr(sampling, "_draw_threads", lambda: threads)
    out = tmp_path / "out.csv"
    argv = [command, "--config", str(GOLDEN / "small_many.cfg"), "--seed", str(seed)]
    assert main(argv + ["--out", str(out), "--quiet"]) == EXIT_OK
    got = data_lines(out.read_text())
    expected = data_lines((GOLDEN / f"{command}_seed{seed}.csv").read_text())
    assert got[0] == expected[0]
    assert len(got) == len(expected)
    columns = expected[0].split(",")
    for got_line, expected_line in zip(got[1:], expected[1:]):
        cells = got_line.split(",")
        assert len(cells) == len(columns)
        for column, cell, golden in zip(columns, cells, expected_line.split(",")):
            if column in EXACT_COLUMNS:
                assert abs(float(cell) - float(golden)) <= 1e-12, (column, cell, golden)
            else:
                assert cell == golden, (column, cell, golden)
