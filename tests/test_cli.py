import csv
import gc
import io
import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from dd_discord import cli
from dd_discord.cli import main
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
    assert list(rows[0]) == ["s", "c", "regime", "min_factor", "transition_time"]
    for row in rows:
        assert row["regime"] in ("time-invariant", "sudden-transition")
        assert 0.0 < float(row["min_factor"]) <= 1.0
        if row["regime"] == "time-invariant":
            assert row["transition_time"] == ""
        else:
            assert 0.0 < float(row["transition_time"]) <= 25.0

    free_rows = read_rows(companion)
    assert [(r["s"], r["c"]) for r in free_rows] == [(r["s"], r["c"]) for r in rows]


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


def test_missing_required_field_exits_one(capsys):
    rc = main(["trajectory", "--s", "1", "--free"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "c:" in err


@pytest.mark.parametrize("argv,config,field", [
    ("phase-diagram --free --s-grid 0.1:6:0", None, "s_grid"),
    ("phase-diagram --free --c-grid 0.9:0.1:3", None, "c_grid"),
    ("boundary --dt , --s-grid 1:2:2", None, "dt"),
    ("transition --s 1 --c 0.5 --free", "s 1\n", "config"),
    ("", None, "command"),
    ("decoherence --s 1 --free", 'command = "trajectory"\n', "command"),
    ("transition --s 1 --c 0.5 --free", 'side = "three"\n', "side"),
    ("transition --s 1 --c 0.5 --free --horizon -1", None, "horizon"),
    ("decoherence --s 1 --dt 0.3,0.4", None, "dt"),
    ("decoherence --s 1 --dt=-0.3", None, "dt"),
    ("decoherence --free", None, "s"),
    ("decoherence --s 0 --free", None, "s"),
    ("transition --s 1 --c 1 --free", None, "c"),
    ("trajectory --s 1 --c 0.5 --free --tau 1", None, "tau"),
    ("decoherence --s 1 --free --tau 30", None, "tau"),
    ("decoherence --s 1 --free --time-step 0", None, "time_step"),
    ("decoherence --s 1 --free --rel-tol 0", None, "rel_tol"),
    ("decoherence --s 1 --free --abs-tol 0", None, "abs_tol"),
])
def test_refused_field_exits_one(argv, config, field, tmp_path, capsys):
    args = argv.split()
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        args += ["--config", str(path)]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}:")


# every refusal of the configuration layer, by its whole message after
# "config error: ": the arguments, and the text of the --config file (if any)
_REFUSALS = {
    "command: one of decoherence, trajectory, phase-diagram, boundary, transition is required":
        ("", None),
    "workers: must be a positive integer, got 0": ("boundary --workers 0 --s-grid 1:2:2", None),
    "config: unknown key 'sides'": ("boundary", "sides = one\n"),
    "command: config file says 'trajectory', invoked as 'decoherence'":
        ("decoherence --s 1 --free", 'command = "trajectory"\n'),
    "dt: --dt and --free are mutually exclusive": ("decoherence --s 1 --dt 0.3 --free", None),
    "config: cannot read missing.cfg: [Errno 2] No such file or directory: 'missing.cfg'":
        ("transition --config missing.cfg", None),
    "config: run.json: Expecting ',' delimiter: line 1 column 33 (char 32)":
        ("transition", '{"command": "transition", "s": 1'),
    "config: line 1 is not key = value: 's 1'": ("transition", "s 1\n"),
    "horizon: line 3: an integer of more than 4,300 digits":
        ("decoherence", "s = 1\ntau = 0.5\nhorizon = 1" + "0" * 5000 + "\n"),
    "dt: expected number(s), got ['abc']": ("decoherence --s 1 --dt abc", None),
    "dt: expected number(s), got {'0.3': 1}": ("transition --s 1 --c 0.5", '{"dt": {"0.3": 1}}'),
    "dt: expected at least one value": ("boundary --dt , --s-grid 1:2:2", None),
    "s: expected a number, got 'abc'": ("decoherence --free --tau 1", 's = "abc"\n'),
    "horizon: must be finite, got inf": ("decoherence --s 1 --free --horizon=inf", None),
    "max_subdivisions: must be an integer >= 1, got 0":
        ("decoherence --s 1 --free --max-subdivisions 0", None),
    "oracle: must be true or false, got 1": ("decoherence --s 1 --free", "oracle = 1\n"),
    "free_companion: must be true or false, got 'no'":
        ("decoherence --s 1 --free", 'free_companion = "no"\n'),
    "output: expected a path, got 3": ("decoherence --s 1 --free", "output = 3\n"),
    "output: 'res.json' ends in .json, the suffix of its sidecar":
        ("decoherence --s 1 --free --output res.json", None),
    "s_grid: expected lo:hi:count, got 'x'": ("boundary --free --s-grid x", None),
    "s_grid: bounds and their span must be finite, got '-1e308:1e308:2'":
        ("boundary --free --s-grid=-1e308:1e308:2", None),
    "s_grid: count must be a whole number, got 2.5": ("boundary --free --s-grid 1:2:2.5", None),
    "s_grid: count must be >= 1, got 0": ("phase-diagram --free --s-grid 0.1:6:0", None),
    "c_grid: upper bound below lower bound in '0.9:0.1:3'":
        ("phase-diagram --free --c-grid 0.9:0.1:3", None),
    "s_grid, c_grid: the map has 1,001,000 cells, more than the limit of 1,000,000":
        ("phase-diagram --free --s-grid 1:2:1001 --c-grid 0:0.5:1000", None),
    "side: must be 'one' or 'two', got 'three'":
        ("transition --s 1 --c 0.5 --free", 'side = "three"\n'),
    "horizon: must be > 0, got -1.0": ("transition --s 1 --c 0.5 --free --horizon -1", None),
    "dt: a single interval is required here, got 2 values":
        ("decoherence --s 1 --dt 0.3,0.4", None),
    "dt: intervals must be > 0, got (-0.3,)": ("decoherence --s 1 --dt=-0.3", None),
    "s: required for the decoherence command": ("decoherence --free", None),
    "s: must be > 0, got 0.0": ("decoherence --s 0 --free", None),
    "c: required for the transition command": ("transition --s 1 --free", None),
    "c: must satisfy |c| < 1, got 1.0": ("transition --s 1 --c 1 --free", None),
    "tau: only the decoherence command takes --tau":
        ("trajectory --s 1 --c 0.5 --free --tau 1", None),
    "tau: must lie in [0, horizon], got 30.0": ("decoherence --s 1 --free --tau 30", None),
    "time_step: must be > 0, got 0.0": ("decoherence --s 1 --free --time-step 0", None),
    "oracle: only the decoherence command supports --oracle":
        ("trajectory --s 1 --c 0.3 --free --oracle", None),
    "rel_tol: must be > 0, got 0.0": ("decoherence --s 1 --free --rel-tol 0", None),
    "abs_tol: must be > 0, got 0.0": ("decoherence --s 1 --free --abs-tol 0", None),
}


@pytest.mark.parametrize("message", list(_REFUSALS))
def test_refusal_message_in_full(message, tmp_path, monkeypatch, capsys):
    argv, config = _REFUSALS[message]
    monkeypatch.chdir(tmp_path)
    args = argv.split()
    if config is not None:
        name = "run.json" if config.startswith("{") else "run.cfg"
        (tmp_path / name).write_text(config)
        args += ["--config", name]
    assert main(args) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("argv", [
    "boundary --free --s -1 --s-grid 1:2:2",
    "decoherence --s 1 --free --tau 1 --c 5",
])
def test_a_field_the_command_ignores_is_only_checked_for_finiteness(argv, capsys):
    # s and c are range-checked only where the command reads them
    assert main([*argv.split(), "--output", "-"]) == 0
    assert capsys.readouterr().err == ""


def test_conflicting_schedule_flags_exit_one(capsys):
    rc = main(["decoherence", "--s", "1", "--dt", "0.3", "--free"])
    assert rc == 1
    assert "dt:" in capsys.readouterr().err


def test_bad_workers_exit_one(capsys):
    rc = main(["boundary", "--workers", "0", "--s-grid", "1:2:2"])
    assert rc == 1
    assert "workers:" in capsys.readouterr().err


def test_oracle_restricted_to_decoherence(capsys):
    rc = main(["trajectory", "--s", "1", "--c", "0.3", "--oracle"])
    assert rc == 1
    assert "oracle:" in capsys.readouterr().err


def test_nonconvergence_exits_two(capsys):
    rc = main(["decoherence", "--s", "0.5", "--free", "--tau", "1",
               "--oracle", "--max-subdivisions", "1", "--rel-tol", "1e-15",
               "--abs-tol", "1e-300", "--output", "-"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("convergence failure:")
    assert "s=0.5" in err and "tau=1" in err


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


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    # format = csv is what older sidecars record; any other format is unknown
    for text, key in (("sides = one\n", "sides"), ("format = json\n", "format")):
        cfg.write_text(text)
        rc = main(["boundary", "--config", str(cfg)])
        assert rc == 1
        assert key in capsys.readouterr().err
    assert main(["boundary", "--format", "csv"]) == 1
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("name, text, key", [
    ("run.cfg", "s = 1\ns = 2\n", "s"),
    ("run.json", '{"s": 1, "s": 2}', "s"),
    ("run.cfg", 's-grid = "1:2:2"\ns_grid = "3:4:2"\n', "s_grid"),
    ("run.json", '{"s_grid": "1:2:2", "s-grid": "3:4:2"}', "s_grid"),
], ids=["key = value", "JSON", "s-grid beside s_grid", "JSON s_grid beside s-grid"])
def test_config_key_given_twice_exits_one(name, text, key, tmp_path, monkeypatch, capsys):
    # the last value used to win silently; - and _ name the same key
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    assert main(["boundary", "--free", "--config", name, "--output", "-"]) == 1
    assert capsys.readouterr() == ("", f"config error: config: key {key!r} given twice\n")


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


@pytest.mark.parametrize("line, field", [
    ("output = 5", "output"),
    ('max_subdivisions = "x"', "max_subdivisions"),
    ("max_subdivisions = NaN", "max_subdivisions"),
    ("max_subdivisions = 2.5", "max_subdivisions"),
    ("max_subdivisions = true", "max_subdivisions"),
    ('oracle = "no"', "oracle"),
    ('free_companion = "no"', "free_companion"),
    ("dt = true", "dt"),
    ('dt = {"0.3": "x"}', "dt"),
    ("horizon = true", "horizon"),
    ("horizon = null", "horizon"),
    ('s_grid = {"a": 1}', "s_grid"),
    ("s_grid = [0.1, 6, 2.5]", "s_grid"),
    ('c_grid = "0:0.9:0.5"', "c_grid"),
    pytest.param("s = 1" + "0" * 400, "s", id="s = 1e400 as an integer"),
    pytest.param("dt = 1" + "0" * 400, "dt", id="dt = 1e400 as an integer"),
])
def test_config_values_take_the_flag_types(line, field, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # the line takes the place of a base value of its key, since a key given twice is refused
    values = {"s": "1", "tau": "0.5"}
    key, value = line.split(" = ", 1)
    values[key] = value
    (tmp_path / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    assert main(["decoherence", "--config", "run.cfg"]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]


@pytest.mark.parametrize("name, text, where", [
    ("run.cfg", "s = 1\ntau = 0.5\nhorizon = 1" + "0" * 5000 + "\n", "horizon: line 3: "),
    ("run.json", '{"s": 1, "tau": 0.5, "horizon": 1' + "0" * 5000 + "}", "horizon: "),
], ids=["key = value", "JSON"])
def test_config_integer_beyond_the_digit_limit(name, text, where, tmp_path, monkeypatch, capsys):
    # Python's int() refuses more than 4,300 digits; the message names the key
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    assert main(["decoherence", "--config", name]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {where}an integer of more than ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [tmp_path / name]


@pytest.mark.parametrize("name", ["missing.cfg", "adir", "latin1.cfg", "truncated.json"])
def test_unreadable_config_file_exits_one(name, tmp_path, monkeypatch, capsys):
    # a file that is not there, a directory, bytes that are not UTF-8, or a
    # JSON sidecar cut short: a config error that names the file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "latin1.cfg").write_bytes(b"s = 1\n# r\xe9sum\xe9\n")
    (tmp_path / "truncated.json").write_text('{"command": "transition", "s": 1')
    assert main(["transition", "--config", name, "--output", "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: config: ")
    assert name in err
    assert "Traceback" not in err


def test_sidecar_records_package_version(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["decoherence", "--s", "1", "--free", "--tau", "0.5",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    resolved = json.loads(out.with_suffix(".json").read_text())
    assert resolved["package_version"] == "0.1.0"
    assert resolved["command"] == "decoherence"


def test_sidecar_holds_every_field_and_the_version(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["transition", "--s", "1", "--free", "--c", "0.5", "--output", "x.csv"]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "x.json").read_text()) == {
        "command": "transition", "s": 1.0, "dt": None, "side": "two", "c": 0.5,
        "horizon": 25.0, "tau": None, "time_step": None, "s_grid": [0.1, 6.0, 60],
        "c_grid": [0.0, 0.999, 50], "rel_tol": 1e-10, "abs_tol": 1e-12,
        "max_subdivisions": 10000, "oracle": False, "free_companion": True,
        "output": "x.csv", "package_version": "0.1.0"}


@pytest.mark.parametrize("args", [
    ["decoherence", "--s", "4", "--free", "--tau", "1"],
    # a map's free companion would be a second file beside the FIFO
    ["phase-diagram", "--dt", "0.6", "--s-grid", "0.5:3:2", "--c-grid", "0:0.8:2",
     "--workers", "1"],
], ids=["decoherence", "phase-diagram"])
def test_output_to_fifo_is_written_in_place(args, tmp_path, capsys):
    fifo = tmp_path / "out.csv"
    os.mkfifo(fifo)
    received = []
    # daemon: a run that never opens the FIFO must not keep the reader alive
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main([*args, "--output", str(fifo)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert read_rows(received[0])
    assert capsys.readouterr().out == f"wrote {fifo}\n"
    assert fifo.is_fifo()
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]   # no sidecar, no companion


_POINT = ["decoherence", "--s", "1", "--free", "--tau", "0.5"]


@pytest.mark.parametrize("args", [
    _POINT, ["phase-diagram", "--dt", "0.6", "--s-grid", "0.5:3:2", "--c-grid", "0:0.8:2"]],
    ids=["decoherence", "phase-diagram"])
@pytest.mark.parametrize("output", ["res.json", "res.JSON"])
def test_json_output_is_refused_before_any_compute(args, output, tmp_path, monkeypatch, capsys):
    # its sidecar, res.json, would overwrite the CSV
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail("ran"))
    assert main([*args, "--output", output]) == 1
    assert capsys.readouterr().err.startswith(f"config error: output: {output!r} ends in .json")
    assert list(tmp_path.iterdir()) == []


def test_symlinked_output_writes_its_target(tmp_path, capsys):
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("old\n")
    link.symlink_to(real)
    assert main([*_POINT, "--output", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == real
    assert read_rows(real)[0]["tau"] == "0.5"
    assert capsys.readouterr().out == f"wrote {link}\nwrote {tmp_path / 'link.json'}\n"


def test_directory_as_output_exits_one(tmp_path, capsys):
    target = tmp_path / "adir"
    target.mkdir()
    assert main([*_POINT, "--output", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: output: cannot write {target}: ")
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["adir"] and not any(target.iterdir())


def test_output_files_follow_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        assert main([*_POINT, "--output", str(tmp_path / "out.csv")]) == 0
    finally:
        os.umask(old)
    for name in ("out.csv", "out.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o644


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


@pytest.mark.parametrize("args", [
    ["decoherence", "--s", "200", "--free", "--tau", "1"],
    ["transition", "--s", "200", "--free", "--c", "0.5"],
    ["transition", "--s", "172", "--dt", "0.3", "--c", "0.5"],
    ["decoherence", "--s", "200", "--free", "--tau", "1", "--oracle"],
])
def test_overflowing_exponent_exits_two(args, tmp_path, run_cli):
    # Gamma(s-1) overflows a double past s ~ 172.6; just below it the
    # pulsed sum of finite terms overflows instead, and the quadrature
    # oracle overflows in its tail bound. A child process shows what a user
    # sees: the one message, with no numpy warning before it.
    res = run_cli(args + ["--output", "-"], tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("convergence failure:")
    assert res.stderr.count("\n") == 1
    assert "s=" + args[2] in res.stderr


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


@pytest.mark.parametrize("args", [
    ["--dt", "0.3", "--horizon", "1e300"],
    ["--free", "--horizon", "1e9"],
    # 25 uniform points, and two at each of 1,000,000 pulses
    ["--dt", "2.5e-5", "--time-step", "1"],
])
def test_oversized_grid_exits_one(args, capsys):
    # refused before anything is allocated, so this returns at once
    assert main(["decoherence", "--s", "1", *args, "--output", "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: horizon")
    assert "limit" in err


@pytest.mark.parametrize("args", [
    ["phase-diagram", "--dt", "0.3", "--s-grid", "0.1:6:1e9"],
    ["phase-diagram", "--free", "--s-grid", "0.1:6:2000", "--c-grid", "0:0.9:1000"],
    ["boundary", "--free", "--s-grid", "0.1:6:2e6"],
    ["phase-diagram", "--free", "--c-grid", "0:0.9:1e400"],
    # an infinite bound: numpy's linspace would warn before the map is refused
    ["phase-diagram", "--free", "--c-grid", "0:inf:3"],
    ["boundary", "--free", "--s-grid", "1:inf:3"],
])
def test_oversized_map_exits_one(args, capsys):
    # refused before any grid is allocated, so this returns at once
    assert main([*args, "--output", "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "grid" in err


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
    err = capsys.readouterr().err
    assert err.startswith("config error: the regime scan")
    assert "limit" in err
    assert peak < 64e6


_BASE = {
    "s": ["decoherence", "--free", "--tau", "1"],
    "c": ["transition", "--s", "1", "--free"],
    "horizon": ["decoherence", "--s", "1", "--free"],
    "tau": ["decoherence", "--s", "1", "--free"],
    "dt": ["decoherence", "--s", "1", "--tau", "1"],
    "time_step": ["decoherence", "--s", "1", "--free"],
    "rel_tol": ["decoherence", "--s", "1", "--free", "--tau", "1"],
    "abs_tol": ["decoherence", "--s", "1", "--free", "--tau", "1"],
}


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("field", sorted(_BASE))
def test_non_finite_inputs_exit_one(field, value, capsys):
    # --flag=value: argparse would read a separate "-inf" as an option
    args = _BASE[field] + [f"--{field.replace('_', '-')}={value}", "--output", "-"]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}:")


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
