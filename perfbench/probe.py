"""Child process of the traced benchmark run; prints one JSON object.

    python probe.py cli [--trace] ARGV...   import dd_discord, then run cli.main(ARGV)
    python probe.py layers S                direct timings of single layers at Ohmicity S

`cli` reports the in-process import time, the number of modules the
import added and the time of cli.main. With --trace it wraps the public
functions of every layer in spans (name, start, end, parent) that it
keeps in memory and writes to spans.json in the working directory when
cli.main returns. Only `sys` and `time` are imported before the timed
import, so the module count is the package's own footprint.
"""

import sys
import time

_t0 = time.perf_counter()
_before = set(sys.modules)
import dd_discord  # noqa: E402  (the import is the measurement)
IMPORT_S = time.perf_counter() - _t0
IMPORT_MODULES = len(set(sys.modules) - _before)

import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402

from dd_discord import cli, phase, pulses  # noqa: E402


def _count(args, result):
    return (1,)


def _points(args, result):
    return (len(result),)


def _trajectory_points(args, result):
    return (len(result.times),)


def _diagram_cells(args, result):
    sudden = sum(label.transition_time is not None
                 for row in result.labels for label in row)
    return (len(result.s_grid) * len(result.c_grid), sudden)


def _emitted(args, result):
    return (len(args[0].rows), sum(os.path.getsize(p) for p in result))


# span name -> (module, attribute path, work measure)
TARGETS = {
    "spectral.oscillatory_quad": ("spectral", "oscillatory_quad", _count),
    "pulses.PulsedDecoherence": ("pulses", "PulsedDecoherence.__init__", _count),
    "pulses.gamma": ("pulses", "PulsedDecoherence.gamma", _count),
    "pulses.gamma_grid": ("pulses", "PulsedDecoherence.gamma_grid", _points),
    "pulses.default_time_grid": ("pulses", "default_time_grid", _points),
    "pulses.controlled_gamma": ("pulses", "controlled_gamma", _count),
    "pulses.controlled_gamma_oracle": ("pulses", "controlled_gamma_oracle", _count),
    "correlations.trajectory": ("correlations", "trajectory", _trajectory_points),
    "phase.phase_diagram": ("phase", "phase_diagram", _diagram_cells),
    "phase.min_decoherence_factor": ("phase", "min_decoherence_factor", _count),
    "phase.transition_time": ("phase", "transition_time", _count),
    "cli.emit": ("cli", "emit", _emitted),
}


class Tracer:
    """In-memory spans: (id, name, start_ns, end_ns, parent_id, error, work)."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._stack = [0]

    def wrap(self, name, fn, work=_count):
        spans, ids, stack = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, name, start, time.perf_counter_ns(), parent, 1, (0,)))
                raise
            finally:
                stack.pop()
            end = time.perf_counter_ns()
            spans.append((sid, name, start, end, parent, 0, work(args, result)))
            return result

        return traced

    def install(self):
        """Wrap every target wherever the package binds it; returns the names not found."""
        missing = []
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "dd_discord"]
        for name, (module, path, work) in TARGETS.items():
            owner = getattr(dd_discord, module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(name)
                continue
            wrapped = self.wrap(name, original, work)
            if outer:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        return missing


def run_cli(argv, trace):
    tracer = Tracer() if trace else None
    main = cli.main
    missing = []
    if tracer:
        missing = tracer.install()
        main = tracer.wrap("cli.main", main)
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        status = main(argv)
    main_s = time.perf_counter() - start
    if tracer:
        with open("spans.json", "w") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    return {"status": status, "main_s": main_s, "missing": missing}


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_layers(s):
    """gamma0 cost per point, pool start-up and parallel efficiency."""
    spec = dd_discord.OhmicSpectrum(s)
    dense = pulses.default_time_grid(pulses.periodic_schedule(0.05, 25.0))
    gamma0_s = _median_time(lambda: dd_discord.gamma0(spec, dense), 7)
    side = dd_discord.NoiseSide.ONE_SIDED
    pair = (s, s + 0.5)
    one = _median_time(lambda: phase.phase_diagram(pair, (0.5,), None, side, workers=1), 3)
    two = _median_time(lambda: phase.phase_diagram(pair, (0.5,), None, side, workers=2), 3)
    s_grid = [0.1 + i * (5.9 / 59) for i in range(60)]
    c_grid = [j * (0.999 / 49) for j in range(50)]
    serial = _median_time(lambda: phase.phase_diagram(s_grid, c_grid, 0.3, side, workers=1), 1)
    parallel = _median_time(lambda: phase.phase_diagram(s_grid, c_grid, 0.3, side, workers=2), 1)
    return {
        "spectral.gamma0.ns_per_point": gamma0_s / dense.size * 1e9,
        "phase.pool_startup_s": two - one,
        "phase.parallel_efficiency": serial / (2.0 * parallel),
    }


def main(args):
    if args[:1] == ["cli"]:
        trace = args[1:2] == ["--trace"]
        out = run_cli(args[2:] if trace else args[1:], trace)
    elif args[:1] == ["layers"] and len(args) == 2:
        out = run_layers(float(args[1]))
    else:
        print(__doc__, file=sys.stderr)
        return 1
    out.update(import_s=IMPORT_S, import_modules=IMPORT_MODULES)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
