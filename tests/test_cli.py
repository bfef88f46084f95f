import csv
import json
from pathlib import Path

import numpy as np
import pytest

from dd_discord.cli import main

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


def test_decoherence_oracle_flag_matches_closed_form(capsys):
    args = ["decoherence", "--s", "4", "--dt", "1", "--tau", "3.7",
            "--output", "-"]
    assert main(args) == 0
    closed = float(read_rows(capsys.readouterr().out)[0]["gamma"])
    assert main(args + ["--oracle"]) == 0
    integral = float(read_rows(capsys.readouterr().out)[0]["gamma"])
    assert abs(closed - integral) < 1e-8


def test_trajectory_invariant_discord(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    rc = main(["trajectory", "--s", "1.01", "--dt", "0.3", "--side", "one",
               "--c", "0.5", "--output", str(out)])
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


def test_env_worker_cap_must_be_integer(monkeypatch, capsys):
    monkeypatch.setenv("DD_DISCORD_THREADS", "many")
    rc = main(["boundary", "--s-grid", "1:2:2"])
    assert rc == 1
    assert "DD_DISCORD_THREADS" in capsys.readouterr().err


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


def test_sidecar_records_package_version(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["decoherence", "--s", "1", "--free", "--tau", "0.5",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    resolved = json.loads(out.with_suffix(".json").read_text())
    assert resolved["package_version"] == "0.1.0"
    assert resolved["command"] == "decoherence"


def test_worker_pool_size_is_invisible_in_output(tmp_path, run_cli):
    args = ["phase-diagram", "--dt", "0.6", "--side", "two", "--workers", "4",
            "--s-grid", "0.5:3:4", "--c-grid", "0:0.8:4", "--output", "map.csv"]
    dir_one = tmp_path / "one"
    dir_many = tmp_path / "many"
    dir_one.mkdir()
    dir_many.mkdir()
    res = run_cli(args, dir_one, {"DD_DISCORD_THREADS": "1"})
    assert res.returncode == 0, res.stderr
    res = run_cli(args, dir_many, {"DD_DISCORD_THREADS": "4"})
    assert res.returncode == 0, res.stderr
    for name in ("map.csv", "map-free.csv"):
        assert (dir_one / name).read_bytes() == (dir_many / name).read_bytes()


@pytest.mark.parametrize("args", [
    ["decoherence", "--s", "200", "--free", "--tau", "1"],
    ["transition", "--s", "200", "--free", "--c", "0.5"],
    ["transition", "--s", "172", "--dt", "0.3", "--c", "0.5"],
    ["decoherence", "--s", "200", "--free", "--tau", "1", "--oracle"],
])
def test_overflowing_exponent_exits_two(args, tmp_path, run_cli):
    # Gamma(s-1) overflows a double past s ~ 172.6; just below it the
    # pulsed sum of finite terms overflows instead, and the quadrature
    # oracle overflows in its tail bound. A child process shows what a
    # user sees: the one message, with no numpy warning before it.
    res = run_cli(args + ["--output", "-"], tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("convergence failure:")
    assert res.stderr.count("\n") == 1
    assert "s=" + args[2] in res.stderr


@pytest.mark.parametrize("args", [
    ["--dt", "0.3", "--horizon", "1e300"],
    ["--free", "--horizon", "1e9"],
])
def test_oversized_grid_exits_one(args, capsys):
    # refused before anything is allocated, so this returns at once
    assert main(["decoherence", "--s", "1", *args, "--output", "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: horizon")
    assert "limit" in err


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


def test_transition_builds_one_profile(monkeypatch, capsys):
    import dd_discord.phase as phase
    built = []

    class CountingDecoherence(phase.PulsedDecoherence):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(phase, "PulsedDecoherence", CountingDecoherence)
    assert main(["transition", "--s", "1", "--free", "--side", "one",
                 "--c", "0.5", "--output", "-"]) == 0
    assert read_rows(capsys.readouterr().out)[0]["regime"] == "sudden-transition"
    assert len(built) == 1


_LEAN_RUNTIME_PROBE = """
import json, sys
import dd_discord.cli as cli

def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                  or m == "concurrent.futures.process")

seen = {"import": heavy()}
seen["transition"] = cli.main(["transition", "--s", "2.5", "--dt", "1",
                               "--c", "0.4", "--output", "tr.csv"]), heavy()
seen["phase-diagram"] = cli.main(["phase-diagram", "--dt", "0.5", "--workers", "1",
                                  "--s-grid", "1:2:2", "--c-grid", "0:0.5:2",
                                  "--output", "map.csv"]), heavy()
seen["oracle"] = cli.main(["decoherence", "--s", "4", "--dt", "1", "--tau", "3.7",
                           "--oracle", "--output", "or.csv"]), "scipy.integrate" in sys.modules
print(json.dumps(seen))
"""


def test_import_and_serial_runs_load_no_scipy_or_pool(tmp_path, run_python):
    res = run_python(_LEAN_RUNTIME_PROBE, tmp_path)
    assert res.returncode == 0, res.stderr
    seen = json.loads(res.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["transition"] == [0, []]
    assert seen["phase-diagram"] == [0, []]
    # the quadrature oracle still works, and is what loads scipy
    assert seen["oracle"] == [0, True]
    assert float(read_rows(tmp_path / "or.csv")[0]["gamma"]) > 0.0
