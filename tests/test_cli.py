import csv
import gc
import io
import json
import os
import re
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dd_discord import cli
from dd_discord.cli import main
from conftest import group_tests
from oracles import mp_controlled_exponent

UNITS_LINE = "# units: times in 1/omega_c, frequencies in omega_c"


def read_rows(path_or_text):
    if isinstance(path_or_text, Path):
        text = path_or_text.read_text()
    else:
        text = path_or_text
    lines = text.splitlines()
    assert lines[0] == UNITS_LINE
    return list(csv.DictReader(lines[1:]))


def test_decoherence_single_point_to_stdout(capsys):
    rc = main(["decoherence", "--s", "4", "--free", "--tau", "1",
               "--side", "two", "--output", "-"])
    assert rc == 0
    rows = read_rows(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["tau"] == "1"
    assert rows[0]["gamma"] == "2.5"
    assert rows[0]["factor"] == "0.00673794699909"  # 12 significant digits


def test_free_exponent_past_the_overflow_of_tau_squared(capsys):
    # gamma = ln tau at s = 1, although 1 + tau^2 overflows a double
    rc = main(["decoherence", "--s", "1", "--free", "--horizon", "1e160", "--tau", "1e160",
               "--output", "-"])
    assert rc == 0
    assert read_rows(capsys.readouterr().out)[0]["gamma"] == "368.413614879"


def _csv_writer_text(dataset):
    """The CSV of the row-by-row renderer the columnar one replaced: csv.writer, one cell at a time."""
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, str):
            return value
        return format(float(value), ".12g")

    buf = io.StringIO()
    buf.write(UNITS_LINE + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(dataset.names)
    for row in zip(*dataset.columns):
        writer.writerow([cell(v) for v in row])
    return buf.getvalue()


def test_columnar_csv_matches_the_row_renderer():
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
                       0.1, 1.0 / 3.0, -2.5e-7, 123456789012345.0, 1e16])
    optional = [None, 0.3, None, -0.0, float("nan"), 5e-324, 1.7976931348623157e308, 2,
                np.float64(0.1), None, float("-inf"), 7.25]
    words = ["time-invariant", "sudden-transition"] * (values.size // 2)
    dataset = cli._Dataset(("tau", "regime", "transition_time", "factor"),
                           (values, words, optional, values[::-1].copy()))
    assert "".join(cli._render_csv(dataset)) == _csv_writer_text(dataset)
    assert len(dataset.rows) == values.size
    empty = cli._Dataset(("s", "c"), (np.empty(0), []))
    assert "".join(cli._render_csv(empty)) == _csv_writer_text(empty)


@pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 7])
def test_csv_chunk_boundaries_match_the_row_renderer(rows, monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
    values = np.linspace(-1.0, 2.0, rows) / 3.0
    words = ["time-invariant", "sudden-transition"] * 4
    optional = [None, 0.1, np.float64(1.0 / 3.0), None, -2.5e-7, np.float64(-0.0), 7][:rows]
    dataset = cli._Dataset(("tau", "regime", "transition_time", "factor"),
                           (values, words[:rows], optional, values[::-1].copy()))
    pieces = list(cli._render_csv(dataset))
    assert "".join(pieces) == _csv_writer_text(dataset)
    # the header, then one piece per 3 rows: full pieces and the remainder
    assert [piece.count("\n") for piece in pieces] == [2] + [3] * (rows // 3) + (
        [rows % 3] if rows % 3 else [])


def test_multi_chunk_csv_is_the_same_on_stdout_and_in_a_file(tmp_path, capsys):
    args = ["decoherence", "--s", "0.7", "--dt", "0.05", "--side", "two"]
    assert main([*args, "--output", "-"]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "d.csv"
    assert main([*args, "--output", str(out)]) == 0
    assert out.read_text() == printed
    assert len(read_rows(printed)) > 5 * cli._CHUNK_ROWS


def test_emit_holds_a_chunk_not_the_file(tmp_path):
    import tracemalloc
    names = ("tau", "gamma", "factor", "mutual_info", "classical", "discord", "concurrence")
    dataset = cli._Dataset(names, tuple(np.linspace(0.0, k + 1.0, 200_000) for k in range(7)))
    tracemalloc.start()   # the arrays are the caller's: only emit's own allocations count
    try:
        written = cli.emit(dataset, cli.RunConfig(command="trajectory"), tmp_path / "t.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written[0].read_text().count("\n") == 2 + 200_000   # the units line, the header
    # the whole text as Python objects would take ~90 MiB
    assert peak < 2 * 2**20


def test_decoherence_oracle_flag_matches_closed_form(capsys):
    # one point, then 100 pulses over 200 rows
    for query in (["--s", "4", "--dt", "1", "--tau", "3.7"],
                  ["--s", "0.7", "--dt", "0.05", "--horizon", "5", "--time-step", "1"]):
        args = ["decoherence", *query, "--output", "-"]
        assert main(args) == 0
        closed = read_rows(capsys.readouterr().out)
        assert main(args + ["--oracle"]) == 0
        integral = read_rows(capsys.readouterr().out)
        assert [row["tau"] for row in integral] == [row["tau"] for row in closed]
        for want, got in zip(closed, integral):
            assert abs(float(want["gamma"]) - float(got["gamma"])) < 1e-8


def test_trajectory_invariant_discord(tmp_path, capsys):
    # discord and concurrence are even in c
    for c in ("0.5", "-0.5"):
        out = tmp_path / f"traj{c}.csv"
        rc = main(["trajectory", "--s", "1.01", "--dt", "0.3", "--side", "one",
                   "--c", c, "--output", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert f"wrote {out}" in printed
        rows = read_rows(out)
        assert len(rows) > 1000
        plateau = 0.18872187554086714
        discord_vals = np.array([float(r["discord"]) for r in rows])
        assert np.max(np.abs(discord_vals - plateau)) < 1e-10
        # entanglement is still being eroded while the discord stays pinned
        conc = np.array([float(r["concurrence"]) for r in rows])
        assert conc[0] > conc[-1]


def test_trajectory_two_sided_leaves_concurrence_empty(tmp_path):
    out = tmp_path / "traj.csv"
    rc = main(["trajectory", "--s", "1", "--free", "--side", "two",
               "--c", "0.3", "--horizon", "5", "--output", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert all(r["concurrence"] == "" for r in rows)
    assert all(float(r["factor"]) <= 1.0 for r in rows)


def test_phase_diagram_files_and_free_companion(tmp_path):
    out = tmp_path / "map.csv"
    rc = main(["phase-diagram", "--dt", "0.5", "--side", "two",
               "--s-grid", "0.5:4:6", "--c-grid", "0:0.9:5",
               "--output", str(out)])
    assert rc == 0
    companion = tmp_path / "map-free.csv"
    assert out.exists() and companion.exists()
    assert out.with_suffix(".json").exists()
    assert companion.with_suffix(".json").exists()

    rows = read_rows(out)
    assert len(rows) == 6 * 5
    for row in rows:
        assert row["regime"] in ("time-invariant", "sudden-transition")
        assert 0.0 < float(row["min_factor"]) <= 1.0
        if row["regime"] == "time-invariant":
            assert row["transition_time"] == ""
        else:
            assert 0.0 < float(row["transition_time"]) <= 25.0

    free_rows = read_rows(companion)
    assert [(r["s"], r["c"]) for r in free_rows] == [(r["s"], r["c"]) for r in rows]


_TIME_SERIES = "tau,gamma,factor,mutual_info,classical,discord,concurrence"
_MAP_HEADER = "s,c,regime,min_factor,transition_time"


@pytest.mark.parametrize("argv, headers", [
    ("decoherence --s 1 --free --tau 1", {"out.csv": "tau,gamma,factor"}),
    ("decoherence --s 1 --free --tau 1 --oracle", {"out.csv": "tau,gamma,factor"}),
    ("trajectory --s 1 --free --c 0.5 --horizon 1 --side one", {"out.csv": _TIME_SERIES}),
    ("trajectory --s 1 --free --c 0.5 --horizon 1 --side two", {"out.csv": _TIME_SERIES}),
    ("phase-diagram --dt 0.5 --s-grid 1:2:2 --c-grid 0:0.5:2",
     {"out.csv": _MAP_HEADER, "out-free.csv": _MAP_HEADER}),
    ("boundary --free --s-grid 1:2:2", {"out.csv": "s,min_factor,dt"}),
    ("transition --s 1 --free --c 0.5", {"out.csv": "s,c,dt,regime,min_factor,transition_time"}),
], ids=["decoherence", "decoherence-oracle", "trajectory-one", "trajectory-two",
        "phase-diagram", "boundary", "transition"])
def test_every_command_prints_its_header(argv, headers, tmp_path):
    assert main([*argv.split(), "--output", str(tmp_path / "out.csv")]) == 0
    for name, header in headers.items():
        assert (tmp_path / name).read_text().splitlines()[:2] == [UNITS_LINE, header]


def test_phase_diagram_companion_suppressed(tmp_path):
    out = tmp_path / "map.csv"
    rc = main(["phase-diagram", "--dt", "0.5", "--s-grid", "1:2:2",
               "--c-grid", "0:0.5:2", "--no-free-companion",
               "--output", str(out)])
    assert rc == 0
    assert out.exists()
    assert not (tmp_path / "map-free.csv").exists()


def test_boundary_multiple_intervals(tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(["boundary", "--dt", "0.5,1.0", "--side", "two",
               "--s-grid", "1:4:4", "--output", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert len(rows) == 2 * 4
    assert [r["dt"] for r in rows] == ["0.5"] * 4 + ["1"] * 4
    for row in rows:
        assert 0.0 < float(row["min_factor"]) <= 1.0


def test_transition_row(tmp_path):
    out = tmp_path / "tr.csv"
    rc = main(["transition", "--s", "1", "--free", "--side", "one",
               "--c", "0.5", "--output", str(out)])
    assert rc == 0
    (row,) = read_rows(out)
    assert row["regime"] == "sudden-transition"
    assert row["dt"] == ""  # free evolution leaves the interval blank
    assert abs(float(row["transition_time"]) - np.sqrt(3.0)) < 1e-5


def test_transition_keeps_the_sign_of_a_zero_c(tmp_path):
    out = tmp_path / "tr.csv"
    rc = main(["transition", "--s", "1", "--free", "--c", "-0", "--output", str(out)])
    assert rc == 0
    (row,) = read_rows(out)
    assert row["c"] == "-0"
    assert str(json.loads(out.with_suffix(".json").read_text())["c"]) == "-0.0"


# The one table of command-line refusals: (exit code, arguments, the text of
# the --config file or None, stderr after "config error: " or "convergence
# failure: "). The text is written to run.json if it starts with {, else to
# run.cfg, in Latin-1: the é of "résumé" is the byte 0xe9, which UTF-8 refuses.
# A row runs as test_refusal_message_in_full[<its line>], or as the test that
# a fifth element names, so a case keeps the test id it has long had.
_STATUS = {1: "config error: ", 2: "convergence failure: "}
_POINT_CFG = "s = 1\ntau = 0.5\n"
_LIMIT = "more than the limit of 1,000,000"
_SCAN = "regime scan steps (at least 4 per pulse interval and one per 0.125 of time)"
_TYPES = "test_config_values_take_the_flag_types"
_MAP = "test_oversized_map_exits_one"
# --flag=value: argparse would read a separate "-inf" as an option
_NON_FINITE = [(1, f"{argv} --{field.replace('_', '-')}={value} --output -", None,
                f"{field}: must be finite, got {value}",
                f"test_non_finite_inputs_exit_one[{field}-{value}]") for field, argv in (
    ("abs_tol", "decoherence --s 1 --free --tau 1"), ("c", "transition --s 1 --free"),
    ("dt", "decoherence --s 1 --tau 1"), ("horizon", "decoherence --s 1 --free"),
    ("rel_tol", "decoherence --s 1 --free --tau 1"), ("s", "decoherence --free --tau 1"),
    ("tau", "decoherence --s 1 --free"), ("time_step", "decoherence --s 1 --free"),
) for value in ("inf", "-inf", "nan")]
_REFUSED_BEFORE_RUN = [
    (1, "", None,
     "command: one of decoherence, trajectory, phase-diagram, boundary, transition is required"),
    (1, "boundary --format csv", None, "unrecognized arguments: --format csv"),
    (1, "boundary --workers 0 --s-grid 1:2:2", None, "workers: must be a positive integer, got 0"),
    (1, "boundary", "sides = one\n", "config: unknown key 'sides'"),
    # format = csv is what older sidecars record; any other format is unknown
    (1, "boundary", "format = json\n", "config: unknown key 'format'",
     "test_config_file_rejects_unknown_keys"),
    (1, "decoherence --s 1 --free", 'command = "trajectory"\n',
     "command: config file says 'trajectory', invoked as 'decoherence'"),
    (1, "decoherence --s 1 --dt 0.3 --free", None, "dt: --dt and --free are mutually exclusive"),
    (1, "transition --config missing.cfg", None,
     "config: cannot read missing.cfg: [Errno 2] No such file or directory: 'missing.cfg'"),
    (1, "transition --config missing.cfg --output -", None,
     "config: cannot read missing.cfg: [Errno 2] No such file or directory: 'missing.cfg'",
     "test_unreadable_config_file_exits_one[missing.cfg]"),
    (1, "transition --config . --output -", None,
     "config: cannot read .: [Errno 21] Is a directory: '.'",
     "test_unreadable_config_file_exits_one[adir]"),
    (1, "transition --output -", "s = 1\n# résumé\n", "config: cannot read run.cfg: 'utf-8' "
     "codec can't decode byte 0xe9 in position 9: invalid continuation byte",
     "test_unreadable_config_file_exits_one[latin1.cfg]"),
    (1, "transition", '{"command": "transition", "s": 1',
     "config: run.json: Expecting ',' delimiter: line 1 column 33 (char 32)"),
    (1, "transition --output -", '{"command": "transition", "s": 1',
     "config: run.json: Expecting ',' delimiter: line 1 column 33 (char 32)",
     "test_unreadable_config_file_exits_one[truncated.json]"),
    (1, "transition", "s 1\n", "config: line 1 is not key = value: 's 1'"),
    (1, "transition --s 1 --c 0.5 --free", "s 1\n", "config: line 1 is not key = value: 's 1'",
     "test_refused_field_exits_one[transition --s 1 --c 0.5 --free-s 1\n-config]"),
    # Python's int() refuses more than 4,300 digits
    (1, "decoherence", _POINT_CFG + "horizon = 1" + "0" * 5000 + "\n",
     "horizon: line 3: an integer of more than 4,300 digits"),
    (1, "decoherence", '{"s": 1, "tau": 0.5, "horizon": 1' + "0" * 5000 + "}",
     "horizon: an integer of more than 4,300 digits",
     "test_config_integer_beyond_the_digit_limit[JSON]"),
    # the last value used to win silently; - and _ name the same key
    (1, "boundary --free --output -", "s = 1\ns = 2\n", "config: key 's' given twice",
     "test_config_key_given_twice_exits_one[key = value]"),
    (1, "boundary --free --output -", '{"s": 1, "s": 2}', "config: key 's' given twice",
     "test_config_key_given_twice_exits_one[JSON]"),
    (1, "boundary --free --output -", 's-grid = "1:2:2"\ns_grid = "3:4:2"\n',
     "config: key 's_grid' given twice",
     "test_config_key_given_twice_exits_one[s-grid beside s_grid]"),
    (1, "boundary --free --output -", '{"s_grid": "1:2:2", "s-grid": "3:4:2"}',
     "config: key 's_grid' given twice",
     "test_config_key_given_twice_exits_one[JSON s_grid beside s-grid]"),
    (1, "decoherence --s 1 --dt abc", None, "dt: expected number(s), got ['abc']"),
    (1, "transition --s 1 --c 0.5", '{"dt": {"0.3": 1}}',
     "dt: expected number(s), got {'0.3': 1}"),
    (1, "decoherence", _POINT_CFG + 'dt = {"0.3": "x"}\n',
     "dt: expected number(s), got {'0.3': 'x'}", f'{_TYPES}[dt = {{"0.3": "x"}}-dt]'),
    (1, "decoherence", _POINT_CFG + "dt = true\n", "dt: expected number(s), got [True]",
     f"{_TYPES}[dt = true-dt]"),
    (1, "decoherence", _POINT_CFG + "dt = 1" + "0" * 400 + "\n",
     "dt: expected number(s), got [1" + "0" * 400 + "]", f"{_TYPES}[dt = 1e400 as an integer]"),
    (1, "boundary --dt , --s-grid 1:2:2", None, "dt: expected at least one value"),
    (1, "decoherence --s 1 --dt=-0.3", None, "dt: intervals must be > 0, got (-0.3,)"),
    (1, "decoherence --free --tau 1", 's = "abc"\n', "s: expected a number, got 'abc'"),
    (1, "decoherence", "s = 1" + "0" * 400 + "\ntau = 0.5\n",
     "s: must be finite, got 1" + "0" * 400, f"{_TYPES}[s = 1e400 as an integer]"),
    (1, "decoherence --s 1 --free --horizon=inf", None, "horizon: must be finite, got inf"),
    (1, "decoherence", _POINT_CFG + "horizon = true\n", "horizon: expected a number, got True",
     f"{_TYPES}[horizon = true-horizon]"),
    (1, "decoherence", _POINT_CFG + "horizon = null\n", "horizon: expected a number, got None",
     f"{_TYPES}[horizon = null-horizon]"),
    *_NON_FINITE,
    (1, "decoherence --s 1 --free --max-subdivisions 0", None,
     "max_subdivisions: must be an integer >= 1, got 0"),
    (1, "decoherence", _POINT_CFG + 'max_subdivisions = "x"\n',
     "max_subdivisions: must be an integer >= 1, got 'x'",
     f'{_TYPES}[max_subdivisions = "x"-max_subdivisions]'),
    (1, "decoherence", _POINT_CFG + "max_subdivisions = NaN\n",
     "max_subdivisions: must be an integer >= 1, got nan",
     f"{_TYPES}[max_subdivisions = NaN-max_subdivisions]"),
    (1, "decoherence", _POINT_CFG + "max_subdivisions = 2.5\n",
     "max_subdivisions: must be an integer >= 1, got 2.5",
     f"{_TYPES}[max_subdivisions = 2.5-max_subdivisions]"),
    (1, "decoherence", _POINT_CFG + "max_subdivisions = true\n",
     "max_subdivisions: must be an integer >= 1, got True",
     f"{_TYPES}[max_subdivisions = true-max_subdivisions]"),
    (1, "decoherence --s 1 --free", "oracle = 1\n", "oracle: must be true or false, got 1"),
    (1, "decoherence", _POINT_CFG + 'oracle = "no"\n', "oracle: must be true or false, got 'no'",
     f'{_TYPES}[oracle = "no"-oracle]'),
    (1, "decoherence --s 1 --free", 'free_companion = "no"\n',
     "free_companion: must be true or false, got 'no'"),
    (1, "decoherence", _POINT_CFG + 'free_companion = "no"\n',
     "free_companion: must be true or false, got 'no'",
     f'{_TYPES}[free_companion = "no"-free_companion]'),
    (1, "decoherence --s 1 --free", "output = 3\n", "output: expected a path, got 3"),
    (1, "decoherence", _POINT_CFG + "output = 5\n", "output: expected a path, got 5",
     f"{_TYPES}[output = 5-output]"),
    # its sidecar, res.json, would overwrite the CSV: refused before any compute
    (1, "decoherence --s 1 --free --output res.json", None,
     "output: 'res.json' ends in .json, the suffix of its sidecar"),
    *[(1, f"{argv} --output {name}", None,
       f"output: {name!r} ends in .json, the suffix of its sidecar",
       f"test_json_output_is_refused_before_any_compute[{name}-{argv.split()[0]}]")
      for argv in ("decoherence --s 1 --free --tau 0.5",
                   "phase-diagram --dt 0.6 --s-grid 0.5:3:2 --c-grid 0:0.8:2")
      for name in ("res.json", "res.JSON")],
    (1, "boundary --free --s-grid x", None, "s_grid: expected lo:hi:count, got 'x'"),
    (1, "decoherence", _POINT_CFG + 's_grid = {"a": 1}\n',
     "s_grid: expected lo:hi:count, got {'a': 1}", f'{_TYPES}[s_grid = {{"a": 1}}-s_grid]'),
    (1, "phase-diagram --free --c-grid 0:0.9:1e400 --output -", None,
     "c_grid: expected lo:hi:count, got '0:0.9:1e400'", f"{_MAP}[args3]"),
    (1, "boundary --free --s-grid=-1e308:1e308:2", None,
     "s_grid: bounds and their span must be finite, got '-1e308:1e308:2'"),
    # an infinite bound: numpy's linspace would warn before the map is refused
    (1, "phase-diagram --free --c-grid 0:inf:3 --output -", None,
     "c_grid: bounds and their span must be finite, got '0:inf:3'", f"{_MAP}[args4]"),
    (1, "boundary --free --s-grid 1:inf:3 --output -", None,
     "s_grid: bounds and their span must be finite, got '1:inf:3'", f"{_MAP}[args5]"),
    (1, "boundary --free --s-grid 1:2:2.5", None, "s_grid: count must be a whole number, got 2.5"),
    (1, "decoherence", _POINT_CFG + "s_grid = [0.1, 6, 2.5]\n",
     "s_grid: count must be a whole number, got 2.5", f"{_TYPES}[s_grid = [0.1, 6, 2.5]-s_grid]"),
    (1, "decoherence", _POINT_CFG + 'c_grid = "0:0.9:0.5"\n',
     "c_grid: count must be a whole number, got 0.5", f'{_TYPES}[c_grid = "0:0.9:0.5"-c_grid]'),
    (1, "phase-diagram --free --s-grid 0.1:6:0", None, "s_grid: count must be >= 1, got 0"),
    (1, "phase-diagram --free --c-grid 0.9:0.1:3", None,
     "c_grid: upper bound below lower bound in '0.9:0.1:3'"),
    # refused before any grid is allocated, so these return at once
    (1, "phase-diagram --free --s-grid 1:2:1001 --c-grid 0:0.5:1000", None,
     f"s_grid, c_grid: the map has 1,001,000 cells, {_LIMIT}"),
    (1, "phase-diagram --dt 0.3 --s-grid 0.1:6:1e9 --output -", None,
     f"s_grid, c_grid: the map has 50,000,000,000 cells, {_LIMIT}", f"{_MAP}[args0]"),
    (1, "phase-diagram --free --s-grid 0.1:6:2000 --c-grid 0:0.9:1000 --output -", None,
     f"s_grid, c_grid: the map has 2,000,000 cells, {_LIMIT}", f"{_MAP}[args1]"),
    (1, "boundary --free --s-grid 0.1:6:2e6 --output -", None,
     f"s_grid, c_grid: the map has 2,000,000 cells, {_LIMIT}", f"{_MAP}[args2]"),
    (1, "transition --s 1 --c 0.5 --free", 'side = "three"\n',
     "side: must be 'one' or 'two', got 'three'"),
    (1, "transition --s 1 --c 0.5 --free --horizon -1", None, "horizon: must be > 0, got -1.0"),
    (1, "decoherence --s 1 --dt 0.3,0.4", None,
     "dt: a single interval is required here, got 2 values"),
    (1, "decoherence --free", None, "s: required for the decoherence command"),
    (1, "transition --s 1 --free", None, "c: required for the transition command"),
    (1, "trajectory --s 1 --free", None, "c: required for the trajectory command",
     "test_missing_required_field_exits_one"),
    (1, "decoherence --s 0 --free", None, "s: must be > 0, got 0.0"),
    (1, "transition --s 1 --c 1 --free", None, "c: must satisfy |c| < 1, got 1.0"),
    (1, "trajectory --s 1 --c 0.5 --free --tau 1", None,
     "tau: only the decoherence command takes --tau"),
    (1, "decoherence --s 1 --free --tau 30", None, "tau: must lie in [0, horizon], got 30.0"),
    (1, "decoherence --s 1 --free --time-step 0", None, "time_step: must be > 0, got 0.0"),
    (1, "trajectory --s 1 --c 0.3 --free --oracle", None,
     "oracle: only the decoherence command supports --oracle"),
    (1, "trajectory --s 1 --c 0.3 --oracle", None,
     "oracle: only the decoherence command supports --oracle",
     "test_oracle_restricted_to_decoherence"),
    (1, "decoherence --s 1 --free --rel-tol 0", None, "rel_tol: must be > 0, got 0.0"),
    (1, "decoherence --s 1 --free --abs-tol 0", None, "abs_tol: must be > 0, got 0.0"),
]
# refused inside cli.run: by the library, before it allocates, or on writing
_REFUSED_IN_RUN = [
    (1, "decoherence --s 1 --dt 0.3 --horizon 1e300 --output -", None,
     f"horizon 1e+300 / dt 0.3 asks for about 3.33e+300 pulses, {_LIMIT}",
     "test_oversized_grid_exits_one[args0]"),
    (1, "decoherence --s 1 --free --horizon 1e9 --output -", None,
     f"horizon 1000000000.0 / time_step 0.05 asks for about 2e+10 grid points, {_LIMIT}",
     "test_oversized_grid_exits_one[args1]"),
    # 25 uniform points, and two at each of 1,000,000 pulses
    (1, "decoherence --s 1 --dt 2.5e-5 --time-step 1 --output -", None,
     "horizon 25.0 / time_step 1.0 and two at each of 1,000,000 pulses asks for about 2e+06 "
     f"grid points, {_LIMIT}", "test_oversized_grid_exits_one[args2]"),
    # the default step min(dt, 1) / 20 underflows to 0
    (1, "decoherence --s 1 --dt 5e-324 --horizon 5e-324 --output -", None,
     "dt 5e-324, time_step 0.0: the grid step must be > 0"),
    (1, "transition --s 1 --c 0.5 --dt 5e-5 --output -", None,
     f"horizon 25.0 / dt 5e-05 asks for about 2e+06 {_SCAN}, {_LIMIT}"),
    (1, "boundary --free --horizon 1e300 --output -", None,
     f"horizon 1e+300 asks for about 8e+300 {_SCAN}, {_LIMIT}"),
    (1, "decoherence --s 1 --free --tau 0.5 --output .", None,
     "output: cannot write .: Is a directory", "test_directory_as_output_exits_one"),
    (2, "decoherence --s 0.5 --free --tau 1 --oracle --max-subdivisions 1 --rel-tol 1e-15 "
        "--abs-tol 1e-300 --output -", None,
     "quadrature did not converge within 1 bisections at s=0.5, tau=1.0",
     "test_nonconvergence_exits_two"),
    # Gamma(s-1) overflows a double past s ~ 172.6, and the regime commands'
    # Gamma of larger arguments before it; just below it the pulsed sum of
    # finite terms overflows, and the quadrature oracle overflows in its tail
    # bound. No numpy warning escapes: the suite makes any RuntimeWarning an error
    (2, "decoherence --s 200 --free --tau 1 --output -", None,
     "Gamma(199.0) overflows a double at s=200.0", "test_overflowing_exponent_exits_two[args0]"),
    (2, "transition --s 200 --free --c 0.5 --output -", None,
     "Gamma(199.0) overflows a double at s=200.0", "test_overflowing_exponent_exits_two[args1]"),
    (2, "transition --s 172 --dt 0.3 --c 0.5 --output -", None,
     "Gamma(172.0) overflows a double at s=172.0", "test_overflowing_exponent_exits_two[args2]"),
    (2, "decoherence --s 172 --dt 0.3 --output -", None,
     "exponent is not a finite double at s=172.0, tau=3.6"),
    (2, "decoherence --s 200 --free --tau 1 --oracle --output -", None,
     "quadrature integral is not a finite double at s=200.0, tau=1.0",
     "test_overflowing_exponent_exits_two[args3]"),
    (2, "decoherence --s 1 --free --oracle --horizon 1e12 --tau 1e12 --output -", None,
     "quadrature needs 6.37e+12 panels, more than 1,000,000, at s=1.0, tau=1000000000000.0"),
]
_REFUSALS = _REFUSED_BEFORE_RUN + _REFUSED_IN_RUN


def _check_refusal(row, request):
    code, argv, config, line, *_ = row
    tmp_path, monkeypatch, capsys, spy = map(
        request.getfixturevalue, ("tmp_path", "monkeypatch", "capsys", "spy"))
    # the work directory sits in tmp_path, which catches a temporary file beside an output
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    args, left = argv.split(), ["work"]
    if config is not None:
        name = "run.json" if config.startswith("{") else "run.cfg"
        (work / name).write_bytes(config.encode("latin-1"))
        args += ["--config", name]
        left.append(f"work/{name}")
    ran = spy(cli, "run")
    assert main(args) == code
    assert capsys.readouterr() == ("", f"{_STATUS[code]}{line}\n")
    assert sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*")) == left
    assert len(ran) == (row in _REFUSED_IN_RUN)


globals().update(group_tests([
    (row[4] if len(row) > 4 else f"test_refusal_message_in_full[{row[3]}]", row)
    for row in _REFUSALS], _check_refusal))


@pytest.mark.parametrize("argv", [
    "boundary --free --s -1 --s-grid 1:2:2",
    "decoherence --s 1 --free --tau 1 --c 5",
])
def test_a_field_the_command_ignores_is_only_checked_for_finiteness(argv, capsys):
    # s and c are range-checked only where the command reads them
    assert main([*argv.split(), "--output", "-"]) == 0
    assert capsys.readouterr().err == ""


def test_stdout_streaming_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["transition", "--s", "1", "--c", "0.2", "--free",
               "--output", "-"])
    assert rc == 0
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().out.startswith(UNITS_LINE)


def test_default_output_under_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["transition", "--s", "1", "--c", "0.2", "--free"])
    assert rc == 0
    capsys.readouterr()
    csvs = list((tmp_path / "out").glob("transition-*.csv"))
    assert len(csvs) == 1
    assert csvs[0].with_suffix(".json").exists()


def test_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# trajectory settings\n"
        "s = 1.0\n"
        "c = 0.5\n"
        "side = one\n"
        "horizon = 5\n")
    out = tmp_path / "a.csv"
    rc = main(["trajectory", "--config", str(cfg), "--c", "0.3",
               "--output", str(out)])
    assert rc == 0
    capsys.readouterr()
    sidecar = out.with_suffix(".json")
    assert '"c": 0.3' in sidecar.read_text()  # flag beat the file


def test_sidecar_reruns_byte_identical(tmp_path, capsys):
    first = tmp_path / "first.csv"
    rc = main(["transition", "--s", "2.5", "--dt", "1", "--side", "two",
               "--c", "0.4", "--output", str(first)])
    assert rc == 0
    rerun = tmp_path / "rerun.csv"
    rc = main(["transition", "--config", str(first.with_suffix(".json")),
               "--output", str(rerun)])
    assert rc == 0
    assert rerun.read_bytes() == first.read_bytes()
    # sidecars written while the single-choice format field existed
    older = json.loads(first.with_suffix(".json").read_text())
    assert "format" not in older
    older["format"] = "csv"
    old_sidecar = tmp_path / "older.json"
    old_sidecar.write_text(json.dumps(older))
    rerun = tmp_path / "from-older.csv"
    assert main(["transition", "--config", str(old_sidecar), "--output", str(rerun)]) == 0
    capsys.readouterr()
    assert rerun.read_bytes() == first.read_bytes()
    # and while the process-pool size was recorded
    assert "workers" not in older
    older["workers"] = 4
    old_sidecar.write_text(json.dumps(older))
    assert main(["transition", "--config", str(old_sidecar), "--output", str(rerun)]) == 0
    capsys.readouterr()
    assert rerun.read_bytes() == first.read_bytes()


_TRANSITION_SIDECAR = {
    "command": "transition", "s": 1.0, "dt": None, "side": "two", "c": 0.5,
    "horizon": 25.0, "tau": None, "time_step": None, "s_grid": [0.1, 6.0, 60],
    "c_grid": [0.0, 0.999, 50], "rel_tol": 1e-10, "abs_tol": 1e-12,
    "max_subdivisions": 10000, "oracle": False, "free_companion": True,
    "output": "x.csv", "package_version": "0.1.0"}


def test_sidecar_holds_every_field_and_the_version(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["transition", "--s", "1", "--free", "--c", "0.5", "--output", "x.csv"]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "x.json").read_text()) == _TRANSITION_SIDECAR


def test_sidecar_records_package_version(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["decoherence", "--s", "1", "--free", "--tau", "0.5", "--output", "x.csv"]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "x.json").read_text()) == _TRANSITION_SIDECAR | {
        "command": "decoherence", "c": None, "tau": 0.5}


_DECOHERENCE = ["decoherence", "--s", "4", "--free", "--tau", "1"]


@pytest.mark.parametrize("args, fifo, written", [
    (_DECOHERENCE, "out.csv", ["out.csv"]),
    # a map's free companion would be a second file beside the FIFO
    (["phase-diagram", "--dt", "0.6", "--s-grid", "0.5:3:2", "--c-grid", "0:0.8:2",
      "--workers", "1"], "out.csv", ["out.csv"]),
    # a FIFO at the sidecar's name is not replaced by a regular file either
    (_DECOHERENCE, "out.json", ["out.csv", "out.json"]),
], ids=["decoherence", "phase-diagram", "sidecar"])
def test_output_to_fifo_is_written_in_place(args, fifo, written, tmp_path, capsys):
    fifo = tmp_path / fifo
    os.mkfifo(fifo)
    received = []
    # daemon: a run that never opens the FIFO must not keep the reader alive
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main([*args, "--output", str(tmp_path / "out.csv")]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    if fifo.suffix == ".csv":
        assert read_rows(received[0])
    else:
        assert json.loads(received[0])["command"] == "decoherence"
    assert capsys.readouterr().out == "".join(f"wrote {tmp_path / name}\n" for name in written)
    assert fifo.is_fifo()
    assert sorted(p.name for p in tmp_path.iterdir()) == written   # no sidecar, no companion


_POINT = ["decoherence", "--s", "1", "--free", "--tau", "0.5"]


def test_symlinked_output_writes_its_target(tmp_path, capsys):
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("old\n")
    link.symlink_to(real)
    assert main([*_POINT, "--output", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == real
    assert read_rows(real)[0]["tau"] == "0.5"
    assert capsys.readouterr().out == f"wrote {link}\nwrote {tmp_path / 'link.json'}\n"


def test_output_files_follow_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        assert main([*_POINT, "--output", str(tmp_path / "out.csv")]) == 0
    finally:
        os.umask(old)
    for name in ("out.csv", "out.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o644


def test_output_that_cannot_be_renamed_or_removed_exits_one(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise OSError(13, "Permission denied")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.os, "replace", refuse)
    monkeypatch.setattr(cli.os, "unlink", refuse)
    assert main([*_POINT, "--output", "out.csv"]) == 1
    assert capsys.readouterr() == ("", "config error: output: cannot write out.csv: "
                                       "Permission denied\n")
    # the temporary file stays: its removal was refused too
    assert [path.name.startswith("out.csv.") for path in tmp_path.iterdir()] == [True]


_UNBUFFERED = pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
_CELL = ["transition", "--s", "1", "--free", "--c", "0.5", "--output"]


@_UNBUFFERED   # "" is unset
@pytest.mark.parametrize("args", ["--free --tau 0.5", "--dt 0.05"], ids=["one row", "414 KB"])
def test_closed_stdout_is_an_unwritable_output(args, unbuffered, tmp_path, run_cli):
    # the reader is gone before the child writes: once a traceback, or exit 120 from the last flush
    read, write = os.pipe()
    os.close(read)
    done = run_cli(["decoherence", "--s", "1", *args.split(), "--output", "-"], tmp_path,
                   {"PYTHONUNBUFFERED": unbuffered}, stdout=write)
    os.close(write)
    assert (done.returncode, done.stderr) == (1, "config error: output: cannot write -: Broken pipe\n")


@_UNBUFFERED
def test_file_output_ignores_a_closed_stdout(unbuffered, tmp_path, run_cli):
    # the files exist before their wrote lines, which are best effort: once a traceback and exit 1
    read, write = os.pipe()
    os.close(read)
    done = run_cli([*_CELL, "t.csv"], tmp_path, {"PYTHONUNBUFFERED": unbuffered}, stdout=write)
    os.close(write)
    assert (done.returncode, done.stderr) == (0, "")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["t.csv", "t.json"]
    assert read_rows(tmp_path / "t.csv")[0]["regime"] == "sudden-transition"


@pytest.mark.parametrize("encoding, name", [
    ("ascii", "é.csv"),
    ("utf-8", os.fsdecode(b"\xff.csv")),   # a lone surrogate, which strict UTF-8 refuses
], ids=["ascii", "utf-8"])
def test_file_output_ignores_a_wrote_line_stdout_cannot_encode(encoding, name, tmp_path, run_cli):
    # the files exist before their wrote lines: once "config error: 'ascii' codec can't encode …"
    done = run_cli([*_CELL, name], tmp_path, {"PYTHONIOENCODING": encoding})
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert sorted(os.listdir(tmp_path)) == [name, name.replace(".csv", ".json")]
    assert read_rows(tmp_path / name)[0]["regime"] == "sudden-transition"


@_UNBUFFERED
def test_stdout_output_without_fd_1_exits_one(unbuffered, tmp_path, run_cli):
    # Python's sys.stdout is None then: once an AttributeError traceback
    done = run_cli([*_CELL, "-"], tmp_path, {"PYTHONUNBUFFERED": unbuffered},
                   preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", "config error: output: cannot write -: Bad file descriptor\n")


def test_worker_pool_size_is_invisible_in_output(tmp_path, run_cli, monkeypatch):
    # the command-line process, which tunes the heap and freezes the collector
    # around main(), writes the bytes of an in-process main(), which does neither
    args = ["phase-diagram", "--dt", "0.6", "--side", "two", "--workers", "4",
            "--s-grid", "0.5:3:4", "--c-grid", "0:0.8:4", "--output", "map.csv"]
    process, in_process = tmp_path / "process", tmp_path / "in-process"
    process.mkdir()
    in_process.mkdir()
    res = run_cli(args, process)
    assert res.returncode == 0, res.stderr
    monkeypatch.chdir(in_process)
    assert main(args) == 0
    assert gc.get_freeze_count() == 0
    for name in ("map.csv", "map-free.csv", "map.json", "map-free.json"):
        assert (process / name).read_bytes() == (in_process / name).read_bytes()
    res = run_cli(["transition", "--s", "1", "--free", "--output", "-"], tmp_path)
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr.startswith("config error: c:")


def test_tiny_s_prints_the_finite_exponent(tmp_path, run_cli):
    # at s = 1e-17, s - 1 rounds to -1, a pole of Gamma(s-1); the exponent
    # is finite, and the form with Gamma(s+1) prints its digits
    res = run_cli(["decoherence", "--s", "1e-17", "--free", "--tau", "1", "--output", "-"],
                  tmp_path)
    assert (res.returncode, res.stderr) == (0, "")
    want = mp_controlled_exponent(1e-17, None, 1.0, dps=60)[0]
    assert read_rows(res.stdout)[0]["gamma"] == format(float(want), ".12g")


@pytest.mark.parametrize("s", ["1e-300", "1e-310", "5e-324"])
def test_transition_below_the_overflow_of_gamma_s(s, tmp_path):
    # the rate's Gamma(s) overflows below s ~ 5.6e-309; its s -> 0 limit does not
    out = tmp_path / "tr.csv"
    assert main(["transition", "--s", s, "--free", "--side", "one", "--c", "0.5",
                 "--output", str(out)]) == 0
    (row,) = read_rows(out)
    assert (row["min_factor"], row["transition_time"]) == ("5.99302133625e-16", "1.29812721631")


def test_negative_grid_bound_as_a_separate_argument(tmp_path, monkeypatch):
    # argparse reads a separate -0.99:0.99:41 as an option; the CLI joins it to its flag
    monkeypatch.chdir(tmp_path)
    forms = {"apart": ["--c-grid", "-0.99:0.99:41"], "joined": ["--c-grid=-0.99:0.99:41"]}
    for name, form in forms.items():
        assert main(["phase-diagram", "--dt", "1.7", "--s-grid", "1:2:2", *form,
                     "--no-free-companion", "--output", name + ".csv"]) == 0
    assert (tmp_path / "apart.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()
    assert len(read_rows(tmp_path / "apart.csv")) == 2 * 41


def test_help_lists_every_command_and_every_option(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")   # argparse breaks words wider than a narrow terminal
    text = cli._build_parser().format_help()
    assert "{" + ",".join(cli._RUNNERS) + "}" in text
    # one entry per option, in _OPTIONS order after -h's: the flag, its metavar, its help text
    entries = [" ".join(entry.split())
               for entry in re.split(r"\n(?=  -)", text.split("\noptions:\n")[1])]
    assert [entry.split()[0] for entry in entries] == ["-h,", *(row[0] for row in cli._OPTIONS)]
    for entry, row in zip(entries[1:], cli._OPTIONS):
        assert entry.endswith(" ".join(row[5].get("help", "").split()))


def test_options_may_come_before_the_command(tmp_path, monkeypatch):
    # once "argument command: invalid choice: '1'": each command parsed only the options after it
    options = ["--s", "1", "--free", "--c", "-0.5", "--c-grid", "-0.9:0.9:3", "--output", "x.csv"]
    for name, argv in (("after", ["transition", *options]), ("before", [*options, "transition"]),
                       ("around", [*options[:3], "transition", *options[3:]])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main(argv) == 0

    def outputs(name):
        return [(tmp_path / name / file).read_bytes() for file in ("x.csv", "x.json")]
    assert outputs("before") == outputs("around") == outputs("after")


@pytest.mark.parametrize("args", [
    ["phase-diagram", "--dt", "5e-5"],
    ["transition", "--s", "1", "--c", "0.5", "--dt", "5e-5"],
    ["boundary", "--free", "--horizon", "1e300"],
])
def test_oversized_regime_scan_exits_one(args, capsys):
    # 2 million scan steps would take hundreds of MB; the refusal comes
    # before the scan is allocated
    import tracemalloc
    tracemalloc.start()
    try:
        assert main([*args, "--output", "-"]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "regime scan steps" in capsys.readouterr().err
    assert peak < 64e6


def test_transition_builds_one_profile(spy, capsys):
    import dd_discord.phase as phase
    built = spy(phase, "PulsedDecoherence")
    assert main(["transition", "--s", "1", "--free", "--side", "one",
                 "--c", "0.5", "--output", "-"]) == 0
    assert read_rows(capsys.readouterr().out)[0]["regime"] == "sudden-transition"
    assert len(built) == 1


_LEAN_RUNTIME_PROBE = """
import json, sys
import dd_discord.cli as cli

def heavy():
    return sorted(m for m, mod in sys.modules.items() if mod is not None and (
        m.split(".")[0] == "scipy" or m == "concurrent.futures.process"))

seen = {"import": heavy()}
seen["transition"] = cli.main(["transition", "--s", "2.5", "--dt", "1",
                               "--c", "0.4", "--output", "tr.csv"]), heavy()
seen["phase-diagram"] = cli.main(["phase-diagram", "--dt", "0.5", "--workers", "2",
                                  "--s-grid", "1:2:2", "--c-grid", "0:0.5:2",
                                  "--output", "map.csv"]), heavy()
seen["oracle"] = cli.main(["decoherence", "--s", "4", "--dt", "1", "--tau", "3.7",
                           "--oracle", "--output", "or.csv"]), heavy()
print(json.dumps(seen))
"""


def test_import_and_serial_runs_load_no_scipy_or_pool(tmp_path, run_python):
    # the second run blocks scipy outright: no path of the package needs it
    for prelude in ("", "import sys; sys.modules['scipy'] = None\n"):
        res = run_python(prelude + _LEAN_RUNTIME_PROBE, tmp_path)
        assert res.returncode == 0, res.stderr
        seen = json.loads(res.stdout.splitlines()[-1])
        assert seen == {"import": [], "transition": [0, []], "phase-diagram": [0, []],
                        "oracle": [0, []]}
        assert float(read_rows(tmp_path / "or.csv")[0]["gamma"]) > 0.0


_NO_MASKED_ARRAY_PROBE = """
import sys
import dd_discord.cli as cli
status = [cli.main(argv.split() + ["--output", "out.csv"]) for argv in (
    "decoherence --s 1.5 --dt 0.05", "trajectory --s 1.5 --dt 0.05 --c 0.5",
    "transition --s 2.5 --dt 0.3 --c 0.4")]
print(status, "numpy.ma" in sys.modules)
"""


def test_time_grids_and_crossings_import_no_numpy_ma(tmp_path, run_python):
    # a bare np.unique imports numpy.ma (11-14 ms) in numpy 2.4
    res = run_python(_NO_MASKED_ARRAY_PROBE, tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[0, 0, 0] False"


def test_keep_heap_raises_both_thresholds_where_the_c_library_has_mallopt(monkeypatch):
    # fakes of the C library, so the real heap is never touched
    calls = []
    recording = SimpleNamespace(mallopt=lambda *args: calls.append(args))
    for libc, want in ((SimpleNamespace(), []), (recording, [(-3, 32 << 20), (-1, 32 << 20)])):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        cli._keep_heap()
        assert calls == want


_ENTRY_PROBE = """
import gc, sys
import dd_discord.cli as cli
sys.argv = ["dd-discord", "transition", "--s", "1", "--free", "--c", "0.5", "--output", "-"]
frozen = gc.get_freeze_count()
status = cli.entry()
print(status, frozen, gc.get_freeze_count() > 0)
"""


def test_process_entry_runs_main_then_freezes_the_collector(tmp_path, run_python):
    res = run_python(_ENTRY_PROBE, tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "0 0 True"
    assert ",sudden-transition," in res.stdout
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert 'dd-discord = "dd_discord.cli:entry"' in pyproject
