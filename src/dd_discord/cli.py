"""Command-line runner: decoherence curves, trajectories, and regime maps.

Emits deterministic CSV (12 significant digits, '#' unit header, one
row per grid point) plus a JSON sidecar holding the fully resolved
configuration, so every output can be reproduced byte-for-byte from its
sidecar. The CSV is formatted and written in chunks of 1,024 rows, into
a temporary file that is renamed onto the output at the end; an output
name ending in .json is refused, since the sidecar takes that name.
Exit codes: 0 success, 1 configuration error, 2 numerical convergence
failure.

_OPTIONS is the one list of options: the parser, RunConfig and the
per-field checks of _normalize are built from it.
"""

import argparse
import ctypes
import gc
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, make_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .correlations import BellDiagonalState, NoiseSide, decoherence_factor, trajectory
from .phase import boundary_curve, phase_diagram
from .pulses import (MAX_CELLS, PulsedDecoherence, controlled_gamma_oracle,
                     default_time_grid, periodic_schedule)
from .spectral import ConvergenceError, OhmicSpectrum, QuadratureConfig

_UNITS_COMMENT = "# units: times in 1/omega_c, frequencies in omega_c"
_CHUNK_ROWS = 1024   # most CSV rows formatted and held at once: one piece of _render_csv


_POSITIVE = (lambda value: value > 0.0, "must be > 0")

# The one list of options, in --help order. A row holds the flag; the
# RunConfig field it sets (None: a flag only) and that field's default;
# the commands that require the field; its range check, a (test, text)
# pair that holds on those commands, or on every command where none
# requires the field; and the keywords of add_argument. A float field is
# finite, an int field an integer >= 1, a store_true or store_false field
# a boolean, and a field with choices one of them.
_OPTIONS = (
    ("--config", None, None, (), None,
     dict(help="config file: key = value lines, or a JSON sidecar")),
    ("--s", "s", None, ("decoherence", "trajectory", "transition"), _POSITIVE,
     dict(type=float, help="Ohmicity parameter")),
    ("--dt", "dt", None, (), None, dict(help="pulse interval; comma list allowed for boundary")),
    ("--free", None, None, (), None, dict(action="store_true", help="free evolution (no pulses)")),
    ("--side", "side", "two", (), None,
     dict(choices=("one", "two"), help="noise on one or both qubits (default two)")),
    ("--c", "c", None, ("trajectory", "transition"),
     (lambda c: abs(c) < 1.0, "must satisfy |c| < 1"), dict(type=float, help="state parameter")),
    ("--horizon", "horizon", 25.0, (), _POSITIVE,
     dict(type=float, help="evolution window length (default 25)")),
    ("--tau", "tau", None, (), None,
     dict(type=float, help="single evaluation time (decoherence only)")),
    ("--time-step", "time_step", None, (), _POSITIVE,
     dict(type=float, help="override the sampling grid step")),
    ("--s-grid", "s_grid", (0.1, 6.0, 60), (), None, dict(help="lo:hi:count (default 0.1:6:60)")),
    ("--c-grid", "c_grid", (0.0, 0.999, 50), (), None,
     dict(help="lo:hi:count (default 0:0.999:50); lo may be negative: -0.99:0.99:41")),
    ("--rel-tol", "rel_tol", 1e-10, (), _POSITIVE, dict(type=float)),
    ("--abs-tol", "abs_tol", 1e-12, (), _POSITIVE, dict(type=float)),
    ("--max-subdivisions", "max_subdivisions", 10000, (), None, dict(type=int)),
    ("--workers", None, None, (), None,
     dict(type=int, help="accepted for older command lines and ignored")),
    ("--oracle", "oracle", False, (), None, dict(
        action="store_true", help="decoherence: evaluate by quadrature instead of closed form")),
    ("--no-free-companion", "free_companion", True, (), None, dict(
        action="store_false", help="phase-diagram: skip the free-evolution companion file")),
    ("--output", "output", "", (), None, dict(
        help="output CSV path, or - for stdout (default out/<command>-<stamp>.csv)")),
)
_FIELDS = tuple(row for row in _OPTIONS if row[1])

RunConfig = make_dataclass(
    "RunConfig", [("command", str, "")] + [(name, object, default)
                                           for _, name, default, *_ in _FIELDS],
    namespace={"__module__": __name__,
               "__doc__": "Fully resolved run parameters; serialized verbatim into sidecars."})


def _float(value):
    """float(value), refusing booleans: a config file's true is no number."""
    if isinstance(value, bool):
        raise TypeError(value)
    return float(value)


def _parse_grid(value, name):
    """Accept 'lo:hi:n' strings or [lo, hi, n] sequences."""
    parts = value.split(":") if isinstance(value, str) else value
    try:
        if not isinstance(parts, (list, tuple)) or len(parts) != 3:
            raise TypeError
        lo, hi, number = _float(parts[0]), _float(parts[1]), _float(parts[2])
        count = int(number)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name}: expected lo:hi:count, got {value!r}") from None
    if not math.isfinite(hi - lo):
        raise ValueError(f"{name}: bounds and their span must be finite, got {value!r}")
    if count != number:
        raise ValueError(f"{name}: count must be a whole number, got {number}")
    if count < 1:
        raise ValueError(f"{name}: count must be >= 1, got {count}")
    if hi < lo:
        raise ValueError(f"{name}: upper bound below lower bound in {value!r}")
    return (lo, hi, count)


def _parse_dt(value):
    """Accept None, a number, '0.3,0.4' strings, or sequences of numbers, all finite and > 0."""
    if value is None:
        return None
    if isinstance(value, str):
        value = [p for p in value.split(",") if p.strip()]
    elif isinstance(value, (int, float)):
        value = [value]
    elif not isinstance(value, (list, tuple)):
        raise ValueError(f"dt: expected number(s), got {value!r}")
    try:
        out = tuple(_float(v) for v in value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"dt: expected number(s), got {value!r}") from None
    if not out:
        raise ValueError("dt: expected at least one value")
    for v in out:
        _check_finite("dt", v)
    if min(out) <= 0.0:
        raise ValueError(f"dt: intervals must be > 0, got {out}")
    return out


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which would collide with
    # the convergence-failure code; surface a config error instead.
    def error(self, message):
        raise ValueError(message)

    def parse_args(self, args=None, namespace=None):
        # a grid may start with -: --c-grid -0.99:0.99:41 is read as --c-grid=-0.99:0.99:41
        args = list(sys.argv[1:] if args is None else args)
        for i in reversed(range(1, len(args))):
            grid, value = args[i - 1:i + 1]
            if grid in ("--s-grid", "--c-grid") and value[:1] == "-" and value[:2] != "--":
                args[i - 1:i + 1] = [f"{grid}={value}"]
        return super().parse_args(args, namespace)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)   # the options every command takes
    for flag, name, _, _, _, keywords in _OPTIONS:
        common.add_argument(flag, dest=name or flag[2:], default=None, **keywords)
    # the last paragraph of the docstring is for the code's readers, not --help
    parser = _Parser(prog="dd-discord", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command")
    for name in _RUNNERS:
        sub.add_parser(name, parents=[common])
    return parser


_LONG_INT = object()   # an integer literal with more digits than int() converts


def _json_int(digits):
    try:
        return int(digits)
    except ValueError:   # longer than sys.get_int_max_str_digits()
        return _LONG_INT


def _config_value(key, value, where=""):
    """value, unless it holds an integer literal too long for int(): a ValueError naming key."""
    if _LONG_INT in (value if isinstance(value, list) else [value]):
        raise ValueError(f"{key}: {where}an integer of more than "
                         f"{sys.get_int_max_str_digits():,} digits")
    return value


def _config_dict(pairs):
    """The (key, value) pairs as a dict, refusing a key given twice (s-grid is s_grid)."""
    names = [key.replace("-", "_") for key, _ in pairs]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"config: key {name!r} given twice")
    return dict(pairs)


def _load_config_file(path):
    """Read key = value lines or a JSON sidecar into a dict."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"config: cannot read {path}: {exc}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text, parse_int=_json_int, object_pairs_hook=lambda pairs: (
                _config_dict([(key, _config_value(key, value)) for key, value in pairs])))
        except json.JSONDecodeError as exc:
            raise ValueError(f"config: {path}: {exc}") from None
        data.pop("package_version", None)
        return data
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config: line {lineno} is not key = value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            value = _config_value(key, json.loads(value, parse_int=_json_int), f"line {lineno}: ")
        except json.JSONDecodeError:
            pass
        pairs.append((key, value))
    return _config_dict(pairs)


def _resolve(args):
    """Merge defaults, config file, and flags (flags win) into a RunConfig."""
    if not args.command:
        raise ValueError("command: one of " + ", ".join(_RUNNERS) + " is required")
    if args.workers is not None and args.workers < 1:
        raise ValueError(f"workers: must be a positive integer, got {args.workers}")
    cfg = RunConfig(command=args.command)
    fields = set(asdict(cfg))
    if args.config:
        file_values = _load_config_file(args.config)
        for key, value in file_values.items():
            key = key.replace("-", "_")
            if (key == "format" and value == "csv") or key == "workers":
                continue   # older sidecars record the one output format and the pool size
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
    """Reject a non-numeric, boolean or non-finite value of the named field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name}: expected a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:   # an integer beyond the largest double
        finite = False
    if not finite:
        raise ValueError(f"{name}: must be finite, got {value}")


def _normalize(cfg):
    """Type-check and canonicalize a merged config, naming bad fields."""
    cfg.dt = _parse_dt(cfg.dt)
    for _, name, default, _, _, keywords in _FIELDS:
        value, kind = getattr(cfg, name), keywords.get("type", keywords.get("action"))
        # a field whose default is a number may not be unset
        if kind is float and (value is not None or default is not None):
            _check_finite(name, value)
        elif kind is int and (isinstance(value, bool) or not isinstance(value, int) or value < 1):
            raise ValueError(f"{name}: must be an integer >= 1, got {value!r}")
        elif kind in ("store_true", "store_false") and not isinstance(value, bool):
            raise ValueError(f"{name}: must be true or false, got {value!r}")
        elif "choices" in keywords and value not in keywords["choices"]:
            choices = " or ".join(map(repr, keywords["choices"]))
            raise ValueError(f"{name}: must be {choices}, got {value!r}")
    if not isinstance(cfg.output, str):
        raise ValueError(f"output: expected a path, got {cfg.output!r}")
    if Path(cfg.output).suffix.lower() == ".json":   # the sidecar's name would be the CSV's
        raise ValueError(f"output: {cfg.output!r} ends in .json, the suffix of its sidecar")
    cfg.s_grid = _parse_grid(cfg.s_grid, "s_grid")
    cfg.c_grid = _parse_grid(cfg.c_grid, "c_grid")
    cells = cfg.s_grid[2] * (cfg.c_grid[2] if cfg.command == "phase-diagram" else 1)
    if cfg.command in ("phase-diagram", "boundary") and cells > MAX_CELLS:
        raise ValueError(f"s_grid, c_grid: the map has {cells:,} cells, more than "
                         f"the limit of {MAX_CELLS:,}")
    # QuadratureConfig revalidates rel_tol and abs_tol; this names the field first
    for _, name, _, required_by, check, _ in _FIELDS:
        value = getattr(cfg, name)
        if cfg.command in required_by and value is None:
            raise ValueError(f"{name}: required for the {cfg.command} command")
        if (check and value is not None and cfg.command in (required_by or _RUNNERS)
                and not check[0](value)):
            raise ValueError(f"{name}: {check[1]}, got {value}")
    if cfg.dt is not None and cfg.command != "boundary" and len(cfg.dt) != 1:
        raise ValueError(f"dt: a single interval is required here, got {len(cfg.dt)} values")
    if cfg.tau is not None:
        if cfg.command != "decoherence":
            raise ValueError("tau: only the decoherence command takes --tau")
        if not 0.0 <= cfg.tau <= cfg.horizon:
            raise ValueError(f"tau: must lie in [0, horizon], got {cfg.tau}")
    if cfg.oracle and cfg.command != "decoherence":
        raise ValueError("oracle: only the decoherence command supports --oracle")
    if not cfg.output:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        cfg.output = os.path.join("out", f"{cfg.command}-{stamp}.csv")
    return cfg


def _side(cfg):
    return NoiseSide.ONE_SIDED if cfg.side == "one" else NoiseSide.TWO_SIDED


def _grid_values(grid_spec):
    lo, hi, count = grid_spec
    return np.linspace(lo, hi, count)


def _single_dt(cfg):
    return None if cfg.dt is None else cfg.dt[0]


@dataclass
class _Dataset:
    """CSV columns: their names, and per name a float array or a sequence of str, float or None."""

    names: tuple
    columns: tuple

    @property
    def rows(self):
        """The row indices: len(rows) is the number of CSV rows."""
        return range(len(self.columns[0]))


def _run_decoherence(cfg):
    spec = OhmicSpectrum(cfg.s)
    sched = periodic_schedule(_single_dt(cfg), cfg.horizon)
    if cfg.tau is not None:
        taus = np.array([cfg.tau])
    else:
        taus = default_time_grid(sched, cfg.time_step)
    if cfg.oracle:
        quad = QuadratureConfig(cfg.rel_tol, cfg.abs_tol, cfg.max_subdivisions)
        gammas = np.array([controlled_gamma_oracle(spec, sched, t, quad) for t in taus])
    else:
        gammas = PulsedDecoherence(spec, sched).gamma_grid(taus)
    return _Dataset(("tau", "gamma", "factor"),
                    (taus, gammas, decoherence_factor(gammas, _side(cfg))))


def _run_trajectory(cfg):
    spec = OhmicSpectrum(cfg.s)
    sched = periodic_schedule(_single_dt(cfg), cfg.horizon)
    grid = default_time_grid(sched, cfg.time_step)
    result = trajectory(spec, sched, BellDiagonalState(cfg.c), _side(cfg), grid)
    conc = result.concurrence
    if conc is None:
        conc = [None] * result.times.size
    return _Dataset(
        ("tau", "gamma", "factor", "mutual_info", "classical", "discord", "concurrence"),
        (result.times, result.gamma, result.factor, result.mutual_info, result.classical,
         result.discord, conc))


def _run_phase_diagram(cfg):
    diagram = phase_diagram(_grid_values(cfg.s_grid), _grid_values(cfg.c_grid),
                            _single_dt(cfg), _side(cfg), cfg.horizon)
    labels = [label for row in diagram.labels for label in row]
    per_row = len(diagram.c_grid)
    return _Dataset(("s", "c", "regime", "min_factor", "transition_time"), (
        np.repeat(diagram.s_grid, per_row), np.tile(diagram.c_grid, len(diagram.s_grid)),
        [label.regime.value for label in labels], np.repeat(diagram.min_factors, per_row),
        [label.transition_time for label in labels]))


def _run_boundary(cfg):
    intervals = cfg.dt if cfg.dt is not None else (None,)
    rows = []
    for dt in intervals:
        curve = boundary_curve(_grid_values(cfg.s_grid), dt, _side(cfg), cfg.horizon)
        rows.extend((s, mf, dt) for s, mf in curve)
    s, mf, dt = zip(*rows)
    return _Dataset(("s", "min_factor", "dt"), (np.array(s), np.array(mf), dt))


def _run_transition(cfg):
    # a one-cell diagram: the minimum and the crossing share one factor profile
    diagram = phase_diagram((cfg.s,), (cfg.c,), _single_dt(cfg), _side(cfg),
                            cfg.horizon)
    label = diagram.labels[0][0]
    row = (cfg.s, cfg.c, _single_dt(cfg), label.regime.value,
           diagram.min_factors[0], label.transition_time)
    return _Dataset(("s", "c", "dt", "regime", "min_factor", "transition_time"),
                    tuple([value] for value in row))


_RUNNERS = {
    "decoherence": _run_decoherence,
    "trajectory": _run_trajectory,
    "phase-diagram": _run_phase_diagram,
    "boundary": _run_boundary,
    "transition": _run_transition,
}


def _render_csv(dataset):
    """The CSV text in pieces: the header, then at most _CHUNK_ROWS rows per piece.

    A float prints to 12 significant digits and None as an empty field.
    Each piece slices its columns: a float array slice becomes Python
    floats for the row format, any other slice becomes strings. So the
    memory held at once is a chunk's, not the file's. No name or string
    holds a comma, quote or newline.
    """
    floats = [isinstance(column, np.ndarray) and column.dtype.kind == "f"
              for column in dataset.columns]
    line = ",".join("%.12g" if f else "%s" for f in floats) + "\n"
    yield f"{_UNITS_COMMENT}\n{','.join(dataset.names)}\n"
    for start in range(0, len(dataset.rows), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        columns = [column[start:stop].tolist() if f else [
            "" if v is None else v if isinstance(v, str) else format(float(v), ".12g")
            for v in column[start:stop]] for f, column in zip(floats, dataset.columns)]
        yield "".join([line % row for row in zip(*columns)])


def _write(path, pieces, stream=False):
    """Write one output file from an iterable of str pieces, each as it comes.

    In place when stream, else into a temporary file that is then renamed
    onto path. A symlink's target is written and the link stays a link;
    the file gets mode 0o666 less the umask, as open() would create it. An
    OSError is a configuration error that names the path.
    """
    try:
        if stream:
            with open(path, "w") as fh:
                fh.writelines(pieces)
            return
        target = Path(os.path.realpath(path))
        target.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "w", dir=target.parent, prefix=target.name + ".", delete=False)
        try:
            with handle as fh:
                fh.writelines(pieces)
                umask = os.umask(0)
                os.umask(umask)
                os.fchmod(fh.fileno(), 0o666 & ~umask)
            os.replace(handle.name, target)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise ValueError(f"output: cannot write {path}: {exc.strerror or exc}") from None


def _is_stream(output):
    """True for '-' (stdout) and for an existing device or FIFO: no sidecar or companion."""
    path = Path(output)
    return output == "-" or (path.exists() and not (path.is_file() or path.is_dir()))


def emit(dataset, cfg, output):
    """Write one dataset as CSV plus its JSON sidecar; '-' streams to stdout.

    A device or FIFO gets the CSV written straight to it and no sidecar:
    renaming a temporary file onto it would replace it with a regular file.
    """
    pieces = _render_csv(dataset)
    if output == "-":
        sys.stdout.writelines(pieces)
        return []
    path, stream = Path(output), _is_stream(output)
    _write(path, pieces, stream)
    if stream:
        return [path]
    sidecar = path.with_suffix(".json")
    resolved = dict(asdict(cfg), package_version=__version__)
    _write(sidecar, [json.dumps(resolved, indent=2, sort_keys=True) + "\n"])
    return [path, sidecar]


def run(cfg):
    """Execute one resolved configuration; returns the exit status."""
    written = emit(_RUNNERS[cfg.command](cfg), cfg, cfg.output)
    # overlay companion: same grids under free evolution, for region overlays
    if (cfg.command == "phase-diagram" and cfg.dt is not None
            and cfg.free_companion and not _is_stream(cfg.output)):
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


# glibc's mallopt parameters, and the 32 MiB both are raised to: the ceiling
# of glibc's own dynamic mmap threshold on a 64-bit machine
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_KEEP = 32 << 20


def _keep_heap():
    """Serve blocks up to 32 MiB from the heap and keep up to 32 MiB free at its top.

    By default glibc maps a large array on its own and trims the free top
    of the heap after each release, so the next array of a regime map
    faults its pages in again: thousands of minor faults per map. Where
    the C library exports no mallopt, nothing changes.
    """
    libc = ctypes.CDLL(None) if os.name == "posix" else None   # the symbols of the process
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD):
        mallopt(param, _HEAP_KEEP)


def entry():
    """The dd-discord process: main() on the command line; returns its exit status.

    Before main it tunes the heap (_keep_heap); after main it freezes the
    collector, so the collections at interpreter exit skip the objects
    numpy's import made. Every output file is closed by then, and stdio
    is flushed at exit either way. Both act on the whole process, so
    main() and the library do neither.
    """
    _keep_heap()
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(entry())
