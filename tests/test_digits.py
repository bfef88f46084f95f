"""Every sampled printed digit against mpmath.

A CSV prints floats with %.12g. Each sampled value must lie within one
unit of its 12th significant digit of a reference from tests/oracles.py,
computed at 40 digits (30 for the regime maps' maxima) from the same
double inputs: the rows' times are default_time_grid's, as in the CLI.
Covered: free-evolution decoherence and trajectory rows, and min_factor
of a free and a pulsed regime map. Pulsed exponents are not yet audited.
"""

import csv
import math

import mpmath
import numpy as np
import pytest

from dd_discord import default_time_grid, periodic_schedule
from dd_discord.cli import main
from oracles import mp_bell_correlations, mp_controlled_exponent, mp_max_exponent

ROWS = 25
C = 0.5


def _printed(argv, capsys):
    assert main(argv + ["--output", "-"]) == 0
    lines = capsys.readouterr().out.splitlines()
    return list(csv.DictReader(lines[1:]))


def _assert_digits(text, want, what):
    """text, a %.12g print, within one unit of its 12th significant digit of want."""
    got, want = float(text), float(want)
    if want == 0.0:
        assert got == 0.0, what
        return
    unit = 10.0 ** (math.floor(math.log10(max(abs(got), abs(want)))) - 11)
    assert abs(got - want) <= unit, f"{what}: printed {text}, reference {want!r}"


@pytest.mark.parametrize("side", ["one", "two"])
@pytest.mark.parametrize("s", [0.1, 0.5, 1.0, 3.0, 6.0])
def test_free_rows_print_only_true_digits(s, side, capsys):
    args = ["--s", repr(s), "--free", "--side", side]
    decoherence = _printed(["decoherence", *args], capsys)
    trajectory = _printed(["trajectory", *args, "--c", repr(C)], capsys)
    grid = default_time_grid(periodic_schedule(None, 25.0))
    assert len(decoherence) == len(trajectory) == grid.size
    exponent = 1 if side == "one" else 2
    for i in np.linspace(0, grid.size - 1, ROWS).round().astype(int):
        with mpmath.workdps(40):
            gamma = mp_controlled_exponent(s, None, grid[i], dps=40)[0]
            factor = mpmath.exp(-exponent * gamma)
            want = dict(gamma=gamma, factor=factor, **dict(zip(
                ("mutual_info", "classical", "discord"), mp_bell_correlations(C, factor))))
            if side == "one":
                want["concurrence"] = mp_bell_correlations(C, mpmath.exp(-gamma))[3]
        where = f"s={s}, side={side}, tau={grid[i]!r}"
        for row, columns in ((decoherence[i], ("gamma", "factor")), (trajectory[i], want)):
            for name in columns:
                _assert_digits(row[name], want[name], f"{name} at {where}")


@pytest.mark.parametrize("dt,side", [(None, "two"), (0.3, "one")])
def test_map_min_factor_prints_only_true_digits(dt, side, capsys):
    schedule = ["--free"] if dt is None else ["--dt", repr(dt)]
    rows = _printed(["phase-diagram", *schedule, "--side", side, "--s-grid", "0.5:4:8",
                     "--c-grid", "0.5:0.5:1", "--no-free-companion"], capsys)
    exponent = 1 if side == "one" else 2
    for row, s in zip(rows, np.linspace(0.5, 4.0, 8)):
        with mpmath.workdps(30):
            want = mpmath.exp(-exponent * mp_max_exponent(s, dt, 25.0))
        _assert_digits(row["min_factor"], want, f"min_factor at s={s}, dt={dt}")
