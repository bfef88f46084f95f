"""Command-line runner: decoherence curves, trajectories, and regime maps.

Emits deterministic CSV (12 significant digits, '#' unit header, one
row per grid point) plus a JSON sidecar holding the fully resolved
configuration, so every output can be reproduced byte-for-byte from its
sidecar. Exit codes: 0 success, 1 configuration error, 2 numerical
convergence failure.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .correlations import BellDiagonalState, NoiseSide, decoherence_factor, trajectory
from .phase import boundary_curve, phase_diagram
from .pulses import (PulsedDecoherence, controlled_gamma_oracle, default_time_grid,
                     schedule_for)
from .spectral import ConvergenceError, OhmicSpectrum, QuadratureConfig

_UNITS_COMMENT = "# units: times in 1/omega_c, frequencies in omega_c"


@dataclass
class RunConfig:
    """Fully resolved run parameters; serialized verbatim into sidecars."""

    command: str = ""
    s: Optional[float] = None
    dt: Optional[tuple] = None          # pulse interval(s); None = free evolution
    side: str = "two"
    c: Optional[float] = None
    horizon: float = 25.0
    tau: Optional[float] = None
    time_step: Optional[float] = None
    s_grid: tuple = (0.1, 6.0, 60)
    c_grid: tuple = (0.0, 0.999, 50)
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 10000
    workers: int = 1
    oracle: bool = False
    free_companion: bool = True
    output: str = ""


def _parse_grid(value, name):
    """Accept 'lo:hi:n' strings or [lo, hi, n] sequences."""
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) != 3:
            raise ValueError(f"{name}: expected lo:hi:count, got {value!r}")
        value = parts
    try:
        lo, hi, count = float(value[0]), float(value[1]), int(float(value[2]))
    except (TypeError, ValueError, IndexError):
        raise ValueError(f"{name}: expected lo:hi:count, got {value!r}") from None
    if count < 1:
        raise ValueError(f"{name}: count must be >= 1, got {count}")
    if hi < lo:
        raise ValueError(f"{name}: upper bound below lower bound in {value!r}")
    return (lo, hi, count)


def _parse_dt(value):
    """Accept None, a number, '0.3,0.4' strings, or sequences of numbers."""
    if value is None:
        return None
    if isinstance(value, str):
        value = [p for p in value.split(",") if p.strip()]
    elif isinstance(value, (int, float)):
        value = [value]
    try:
        out = tuple(float(v) for v in value)
    except (TypeError, ValueError):
        raise ValueError(f"dt: expected number(s), got {value!r}") from None
    if not out:
        raise ValueError("dt: expected at least one value")
    return out


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which would collide with
    # the convergence-failure code; surface a config error instead.
    def error(self, message):
        raise ValueError(message)


def _build_parser():
    parser = _Parser(prog="dd-discord", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in _RUNNERS:
        p = sub.add_parser(name, add_help=True)
        p.add_argument("--config", default=None,
                       help="config file: key = value lines, or a JSON sidecar")
        p.add_argument("--s", type=float, default=None, help="Ohmicity parameter")
        p.add_argument("--dt", default=None,
                       help="pulse interval; comma list allowed for boundary")
        p.add_argument("--free", action="store_true",
                       help="free evolution (no pulses)")
        p.add_argument("--side", choices=("one", "two"), default=None,
                       help="noise on one or both qubits (default two)")
        p.add_argument("--c", type=float, default=None, help="state parameter")
        p.add_argument("--horizon", type=float, default=None,
                       help="evolution window length (default 25)")
        p.add_argument("--tau", type=float, default=None,
                       help="single evaluation time (decoherence only)")
        p.add_argument("--time-step", type=float, default=None,
                       help="override the sampling grid step")
        p.add_argument("--s-grid", default=None, help="lo:hi:count (default 0.1:6:60)")
        p.add_argument("--c-grid", default=None, help="lo:hi:count (default 0:0.999:50)")
        p.add_argument("--rel-tol", type=float, default=None)
        p.add_argument("--abs-tol", type=float, default=None)
        p.add_argument("--max-subdivisions", type=int, default=None)
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes for grid scans (default 1)")
        p.add_argument("--oracle", action="store_true", default=None,
                       help="decoherence: evaluate by quadrature instead of closed form")
        p.add_argument("--no-free-companion", dest="free_companion",
                       action="store_false", default=None,
                       help="phase-diagram: skip the free-evolution companion file")
        p.add_argument("--output", default=None,
                       help="output CSV path, or - for stdout (default out/<command>-<stamp>.csv)")
    return parser


def _load_config_file(path):
    """Read key = value lines or a JSON sidecar into a dict."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
        data.pop("package_version", None)
        return data
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config: line {lineno} is not key = value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            data[key] = json.loads(value)
        except json.JSONDecodeError:
            data[key] = value
    return data


def _resolve(args):
    """Merge defaults, config file, and flags (flags win) into a RunConfig."""
    if not args.command:
        raise ValueError("command: one of " + ", ".join(_RUNNERS) + " is required")
    cfg = RunConfig(command=args.command)
    fields = set(asdict(cfg))
    if args.config:
        file_values = _load_config_file(args.config)
        for key, value in file_values.items():
            key = key.replace("-", "_")
            if key == "format" and value == "csv":
                continue   # older sidecars record the one output format there was
            if key not in fields:
                raise ValueError(f"config: unknown key {key!r}")
            if key == "command":
                if value != args.command:
                    raise ValueError(
                        f"command: config file says {value!r}, invoked as {args.command!r}")
                continue
            setattr(cfg, key, value)
    # flags left unset parse as None; every other flag named after a field wins
    for key, value in vars(args).items():
        if key in fields and value is not None:
            setattr(cfg, key, value)
    if args.free:
        if args.dt is not None:
            raise ValueError("dt: --dt and --free are mutually exclusive")
        cfg.dt = None
    return cfg


def _check_finite(name, value):
    """Reject a non-numeric or non-finite value of the named field."""
    try:
        finite = math.isfinite(value)
    except TypeError:
        raise ValueError(f"{name}: expected a number, got {value!r}") from None
    if not finite:
        raise ValueError(f"{name}: must be finite, got {value}")


def _normalize(cfg):
    """Type-check and canonicalize a merged config, naming bad fields."""
    cfg.dt = _parse_dt(cfg.dt)
    for name in ("s", "c", "horizon", "tau", "time_step", "rel_tol", "abs_tol"):
        value = getattr(cfg, name)
        if value is not None:
            _check_finite(name, value)
    for value in cfg.dt or ():
        _check_finite("dt", value)
    cfg.s_grid = _parse_grid(cfg.s_grid, "s_grid")
    cfg.c_grid = _parse_grid(cfg.c_grid, "c_grid")
    if cfg.side not in ("one", "two"):
        raise ValueError(f"side: must be 'one' or 'two', got {cfg.side!r}")
    if not cfg.horizon > 0.0:
        raise ValueError(f"horizon: must be > 0, got {cfg.horizon}")
    if cfg.dt is not None:
        if cfg.command != "boundary" and len(cfg.dt) != 1:
            raise ValueError("dt: a single interval is required here, got "
                             f"{len(cfg.dt)} values")
        if any(not d > 0.0 for d in cfg.dt):
            raise ValueError(f"dt: intervals must be > 0, got {cfg.dt}")
    if cfg.command in ("decoherence", "trajectory", "transition"):
        if cfg.s is None:
            raise ValueError(f"s: required for the {cfg.command} command")
        if not cfg.s > 0.0:
            raise ValueError(f"s: must be > 0, got {cfg.s}")
    if cfg.command in ("trajectory", "transition"):
        if cfg.c is None:
            raise ValueError(f"c: required for the {cfg.command} command")
        if not 0.0 <= cfg.c < 1.0:
            raise ValueError(f"c: must lie in [0, 1), got {cfg.c}")
    if cfg.tau is not None:
        if cfg.command != "decoherence":
            raise ValueError("tau: only the decoherence command takes --tau")
        if not 0.0 <= cfg.tau <= cfg.horizon:
            raise ValueError(f"tau: must lie in [0, horizon], got {cfg.tau}")
    if cfg.time_step is not None and not cfg.time_step > 0.0:
        raise ValueError(f"time_step: must be > 0, got {cfg.time_step}")
    if cfg.oracle and cfg.command != "decoherence":
        raise ValueError("oracle: only the decoherence command supports --oracle")
    # QuadratureConfig revalidates, but fail here with field-first messages
    if not cfg.rel_tol > 0.0:
        raise ValueError(f"rel_tol: must be > 0, got {cfg.rel_tol}")
    if not cfg.abs_tol > 0.0:
        raise ValueError(f"abs_tol: must be > 0, got {cfg.abs_tol}")
    if cfg.max_subdivisions < 1:
        raise ValueError(f"max_subdivisions: must be >= 1, got {cfg.max_subdivisions}")
    if not isinstance(cfg.workers, int) or cfg.workers < 1:
        raise ValueError(f"workers: must be a positive integer, got {cfg.workers}")
    cap = os.environ.get("DD_DISCORD_THREADS")
    if cap is not None:
        try:
            cap = int(cap)
        except ValueError:
            raise ValueError(
                f"DD_DISCORD_THREADS: must be an integer, got {cap!r}") from None
        if cap < 1:
            raise ValueError(f"DD_DISCORD_THREADS: must be >= 1, got {cap}")
        cfg.workers = min(cfg.workers, cap)
    if not cfg.output:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        cfg.output = os.path.join("out", f"{cfg.command}-{stamp}.csv")
    return cfg


def _quad_cfg(cfg):
    return QuadratureConfig(cfg.rel_tol, cfg.abs_tol, cfg.max_subdivisions)


def _side(cfg):
    return NoiseSide.ONE_SIDED if cfg.side == "one" else NoiseSide.TWO_SIDED


def _grid_values(grid_spec):
    lo, hi, count = grid_spec
    return np.linspace(lo, hi, count)


def _single_dt(cfg):
    return None if cfg.dt is None else cfg.dt[0]


@dataclass
class _Dataset:
    columns: tuple
    rows: list


def _run_decoherence(cfg):
    spec = OhmicSpectrum(cfg.s)
    sched = schedule_for(_single_dt(cfg), cfg.horizon)
    if cfg.tau is not None:
        taus = [cfg.tau]
    else:
        taus = default_time_grid(sched, cfg.time_step)
    if cfg.oracle:
        quad = _quad_cfg(cfg)
        gammas = np.array([controlled_gamma_oracle(spec, sched, t, quad) for t in taus])
    else:
        gammas = PulsedDecoherence(spec, sched).gamma_grid(taus)
    rows = list(zip(taus, gammas, decoherence_factor(gammas, _side(cfg))))
    return _Dataset(("tau", "gamma", "factor"), rows)


def _run_trajectory(cfg):
    spec = OhmicSpectrum(cfg.s)
    sched = schedule_for(_single_dt(cfg), cfg.horizon)
    grid = default_time_grid(sched, cfg.time_step)
    result = trajectory(spec, sched, BellDiagonalState(cfg.c), _side(cfg), grid)
    conc = result.concurrence
    if conc is None:
        conc = [None] * result.times.size
    rows = list(zip(result.times, result.gamma, result.factor, result.mutual_info,
                    result.classical, result.discord, conc))
    return _Dataset(
        ("tau", "gamma", "factor", "mutual_info", "classical", "discord",
         "concurrence"), rows)


def _run_phase_diagram(cfg):
    diagram = phase_diagram(_grid_values(cfg.s_grid), _grid_values(cfg.c_grid),
                            _single_dt(cfg), _side(cfg), cfg.horizon,
                            workers=cfg.workers)
    rows = []
    for i, s in enumerate(diagram.s_grid):
        for j, c in enumerate(diagram.c_grid):
            label = diagram.labels[i][j]
            rows.append((s, c, label.regime.value, diagram.min_factors[i],
                         label.transition_time))
    return _Dataset(("s", "c", "regime", "min_factor", "transition_time"), rows)


def _run_boundary(cfg):
    intervals = cfg.dt if cfg.dt is not None else (None,)
    rows = []
    for dt in intervals:
        curve = boundary_curve(_grid_values(cfg.s_grid), dt, _side(cfg),
                               cfg.horizon, workers=cfg.workers)
        rows.extend((s, mf, dt) for s, mf in curve)
    return _Dataset(("s", "min_factor", "dt"), rows)


def _run_transition(cfg):
    # a one-cell diagram: the minimum and the crossing share one factor profile
    diagram = phase_diagram((cfg.s,), (cfg.c,), _single_dt(cfg), _side(cfg),
                            cfg.horizon)
    label = diagram.labels[0][0]
    row = (cfg.s, cfg.c, _single_dt(cfg), label.regime.value,
           diagram.min_factors[0], label.transition_time)
    return _Dataset(("s", "c", "dt", "regime", "min_factor", "transition_time"), [row])


_RUNNERS = {
    "decoherence": _run_decoherence,
    "trajectory": _run_trajectory,
    "phase-diagram": _run_phase_diagram,
    "boundary": _run_boundary,
    "transition": _run_transition,
}


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(float(value), ".12g")


def _render_csv(dataset):
    buf = io.StringIO()
    buf.write(_UNITS_COMMENT + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(dataset.columns)
    for row in dataset.rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _atomic_write(path, text):
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent or ".", prefix=path.name + ".", delete=False)
    try:
        with handle as fh:
            fh.write(text)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def emit(dataset, cfg, output):
    """Write one dataset as CSV plus its JSON sidecar; '-' streams to stdout."""
    text = _render_csv(dataset)
    if output == "-":
        sys.stdout.write(text)
        return []
    path = Path(output)
    _atomic_write(path, text)
    sidecar = path.with_suffix(".json")
    resolved = dict(asdict(cfg), package_version=__version__)
    _atomic_write(sidecar, json.dumps(resolved, indent=2, sort_keys=True) + "\n")
    return [path, sidecar]


def run(cfg):
    """Execute one resolved configuration; returns the exit status."""
    runner = _RUNNERS.get(cfg.command)
    if runner is None:
        raise ValueError(f"command: unknown command {cfg.command!r}")
    written = emit(runner(cfg), cfg, cfg.output)
    # overlay companion: same grids under free evolution, for region overlays
    if (cfg.command == "phase-diagram" and cfg.dt is not None
            and cfg.free_companion and cfg.output != "-"):
        path = Path(cfg.output)
        companion = path.with_name(path.stem + "-free" + path.suffix)
        free_cfg = replace(cfg, dt=None, free_companion=False,
                           output=str(companion))
        written += emit(_run_phase_diagram(free_cfg), free_cfg, companion)
    for path in written:
        print(f"wrote {path}")
    return 0


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        cfg = _normalize(_resolve(args))
        return run(cfg)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
