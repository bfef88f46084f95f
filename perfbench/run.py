#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the dd-discord command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. One closed-loop client starts one
`python -m dd_discord.cli` process per command and waits for it before
starting the next; it repeats the workload's command list until the
next pass would end after --seconds (at least two passes). The seed
draws the (s, c, tau) values; grid sizes, pulse intervals and the command
mix are fixed per workload, so the work per pass is stable. Each command
has a role (map-dense, map-refine, point-queries, oracle) that names the
layer it isolates; the human-readable lines report every role apart.

--trace 0 reports the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb). --trace 1 replays the same commands through probe.py,
untraced and traced, and reports the per-layer metrics. Both modes check
every output with gate.py. Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

--self-test shows that the gate passes intact outputs and fails
corrupted ones; it exits 1 if any corruption goes unnoticed.
"""

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PROBE = BENCH / "probe.py"
CLI = ["-m", "dd_discord.cli"]

HORIZON = 25.0
MIN_PASSES = 2            # each configuration repeats at least once per untraced run
SETUP_REPEATS = 3         # fresh `import dd_discord` interpreters before the passes (+1 per pass)
START_REPEATS = 3         # `python -c pass` interpreters per traced run
RUN_DEADLINE_S = 150.0    # children still running then are killed and count as failed
WORKLOADS = ("maps", "queries")
ROLES = ("map-dense", "map-refine", "point-queries", "oracle")
LAYERS = ("spectral", "pulses", "correlations", "phase", "cli")


# ---------------------------------------------------------------- workloads

def _map(rng, dt, side, workers, companion, s_count=60):
    s_grid = (rng.uniform(0.1, 0.15), rng.uniform(5.9, 6.0), s_count)
    c_grid = (rng.uniform(0.0, 0.01), rng.uniform(0.99, 0.999), 50)
    argv = ["phase-diagram", "--dt", repr(dt), "--side", side, "--workers", str(workers),
            "--s-grid", "%r:%r:%d" % s_grid, "--c-grid", "%r:%r:%d" % c_grid]
    if not companion:
        argv.append("--no-free-companion")
    return dict(kind="map", argv=argv, dt=dt, side=side, companion=companion,
                s_grid=s_grid, c_grid=c_grid, horizon=HORIZON)


def _point(kind, s, dt, side, horizon=HORIZON, c=None, tau=None, time_step=None,
           oracle=False):
    argv = [kind, "--s", repr(s), "--side", side]
    argv += ["--free"] if dt is None else ["--dt", repr(dt)]
    if horizon != HORIZON:
        argv += ["--horizon", repr(horizon)]
    for flag, value in (("--c", c), ("--tau", tau), ("--time-step", time_step)):
        if value is not None:
            argv += [flag, repr(value)]
    if oracle:
        argv.append("--oracle")
    return dict(kind=kind, argv=argv, s=s, dt=dt, side=side, horizon=horizon, c=c,
                tau=tau, time_step=time_step, oracle=oracle)


def commands(workload, seed):
    """The workload's command list; the seed draws every value inside fixed ranges."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "maps":
        return [dict(_map(rng, 0.05, "two", workers=1, companion=False, s_count=20),
                     role="map-dense"),
                dict(_map(rng, 0.3, "one", workers=2, companion=True), role="map-refine")]
    if workload == "queries":
        s, c, tau = rng.uniform(0.5, 3.0), rng.uniform(0.1, 0.9), rng.uniform(0.5, HORIZON)
        points = [_point("transition", s, None, "one", c=c),
                  _point("transition", s, 0.3, "two", c=c),
                  _point("decoherence", s, 0.3, "two", tau=tau),
                  _point("decoherence", s, 0.05, "two"),
                  _point("trajectory", s, 0.05, "one", c=c)]
        # one s from each half of [0.5, 4]: the quadrature cost depends on s
        oracle = [_point("decoherence", 0.5 + 3.5 * (k + rng.random()) / 2, 0.3, "two",
                         horizon=12.5, time_step=0.5, oracle=True) for k in range(2)]
        return ([dict(cmd, role="point-queries") for cmd in points]
                + [dict(cmd, role="oracle") for cmd in oracle])
    raise ValueError(f"unknown workload {workload!r}")


# -------------------------------------------------------------- invocations

@dataclass
class Invocation:
    directory: Path
    status: int
    wall: float
    cpu: float
    rss_mb: float

    def report(self):
        """The JSON object a probe.py child printed last."""
        lines = (self.directory / "stdout.txt").read_text().splitlines()
        return json.loads(lines[-1])


class Runner:
    """Starts `python` children, each in a fresh directory under `work`."""

    def __init__(self, work):
        self.work = work
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "DD_DISCORD_THREADS")}
        # numpy links a threaded BLAS; two pool workers must not start more threads than cores
        self.env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", TMPDIR=str(work))

    def invoke(self, args, name):
        """Run `python ARGS` in work/NAME; wall, CPU and peak RSS of its process tree."""
        directory = self.work / name
        directory.mkdir()
        with open(directory / "stdout.txt", "wb") as out, \
                open(directory / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=directory, env=self.env,
                                    stdout=out, stderr=err)
            watchdog = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            watchdog.start()
            try:
                # wait4 includes the children the process waited for (pool workers)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Invocation(directory, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024.0)


def cli_args(cmd):
    return CLI + cmd["argv"] + ["--output", "out.csv"]


def closed_loop(seconds, run_pass, min_passes):
    """Repeat run_pass until the next pass would end after `seconds`."""
    passes, start = [], time.perf_counter()
    while True:
        begin = time.perf_counter()
        passes.append(run_pass(len(passes)))
        now = time.perf_counter()
        if len(passes) >= min_passes and (now - start) + (now - begin) > seconds:
            return passes


# -------------------------------------------------------------- statistics

def tail(values):
    """Highest of p99/p95/p90/p75 with at least 10 samples beyond it, or None."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75):
        if len(ordered) * (100 - p) / 100 >= 10:
            return p, ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]
    return None


def table_line(name, unit, value, samples, note=""):
    extra = tail(samples) if samples else None
    pct = f"p{extra[0]}={extra[1]:.4f}" if extra else "no tail percentile (needs n>=40)"
    return f"  {name:<32} {value:>14.6g} {unit:<6} n={len(samples):<4} {pct} {note}"


# ---------------------------------------------------------------- end to end

def end_to_end(workload, seed, seconds, runner, gate):
    cmds = commands(workload, seed)
    runner.invoke(["-c", "import dd_discord"], "setup-warm")  # writes bytecode caches
    setup = [runner.invoke(["-c", "import dd_discord"], f"setup-{i}")
             for i in range(SETUP_REPEATS)]

    def run_pass(p):
        # one set-up per pass spreads its samples over the whole run, like wall_s
        setup.append(runner.invoke(["-c", "import dd_discord"], f"setup-p{p}"))
        return [runner.invoke(cli_args(cmd), f"p{p}-c{i}") for i, cmd in enumerate(cmds)]

    passes = closed_loop(seconds, run_pass, MIN_PASSES)
    for i, inv in enumerate(setup):
        gate.check(f"setup {i}: import exits 0", inv.status == 0, str(inv.status))

    for i, cmd in enumerate(cmds):
        runs = [ps[i] for ps in passes]
        label = f"{workload} cmd {i} ({cmd['argv'][0]})"
        ok = [gate.invocation(f"{label} pass {p}", r.status, r.directory, cmd)
              for p, r in enumerate(runs)]
        if all(ok):
            gate.content(label, runs[0].directory, cmd)
            for p, r in enumerate(runs[1:], 1):
                gate.same_bytes(f"{label} pass {p} vs pass 0", runs[0].directory, r.directory,
                                gate_names(cmd))
            if "--workers" in cmd["argv"] and cmd["argv"][cmd["argv"].index("--workers") + 1] != "1":
                rerun = runner.invoke(cli_args(with_one_worker(cmd)), f"workers1-c{i}")
                if gate.invocation(f"{label} --workers 1", rerun.status, rerun.directory, cmd):
                    gate.same_bytes(f"{label} --workers 1 vs pass 0", runs[0].directory,
                                    rerun.directory, [n for n in gate_names(cmd)
                                                      if n.endswith(".csv")])

    samples = {
        "wall_s": [r.wall for ps in passes for r in ps],
        "cpu_s": [r.cpu for ps in passes for r in ps],
        "peak_rss_mb": [r.rss_mb for ps in passes for r in ps],
        "setup_s": [r.wall for r in setup],
    }
    # Time per invocation is the run's time over its invocations (the inverse
    # of the work rate), not their median: the host's speed drifts by tens of
    # percent over minutes, and over whole runs the mean spread less than the
    # median did. Every command runs once per pass, so each weighs the same.
    peak_rss = [statistics.median(ps[i].rss_mb for ps in passes) for i in range(len(cmds))]
    metrics = {"wall_s": statistics.fmean(samples["wall_s"]),
               "cpu_s": statistics.fmean(samples["cpu_s"]),
               "peak_rss_mb": max(peak_rss),
               "setup_s": statistics.median(samples["setup_s"])}
    units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    invocations = len(setup) + sum(len(ps) for ps in passes)
    lines = [f"{workload}: {len(passes)} passes x {len(cmds)} commands, closed loop, 1 client"]
    notes = {name: f"mean of all invocations; median {statistics.median(samples[name]):.4f}"
             for name in ("wall_s", "cpu_s")}
    notes["setup_s"] = "median of fresh `import dd_discord` interpreters"
    notes["peak_rss_mb"] = "largest over commands of each command's median"
    for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
        lines.append(table_line(name, units[name], metrics[name], samples[name], notes[name]))
    for role in ROLES:
        picked = [i for i, cmd in enumerate(cmds) if cmd["role"] == role]
        if picked:
            runs = [ps[i] for ps in passes for i in picked]
            lines.append(f"  {role}: wall_s {statistics.fmean(r.wall for r in runs):.4f} s"
                         f" (median {statistics.median(r.wall for r in runs):.4f}),"
                         f" cpu_s {statistics.fmean(r.cpu for r in runs):.4f} s,"
                         f" peak_rss_mb {max(peak_rss[i] for i in picked):.2f} MiB, n={len(runs)}")
    for i, cmd in enumerate(cmds):
        walls = ", ".join(f"{ps[i].wall:.3f}" for ps in passes)
        lines.append(f"  cmd {i} {cmd['role']} {cmd['argv'][0]}: wall_s per pass [{walls}]")
    return lines, {k: {"value": metrics[k], "unit": units[k]} for k in units}, invocations


def gate_names(cmd):
    from gate import output_names
    return output_names(cmd)


def with_one_worker(cmd):
    argv = list(cmd["argv"])
    if "--workers" in argv:
        argv[argv.index("--workers") + 1] = "1"
    return dict(cmd, argv=argv)


# ---------------------------------------------------------------- traced run

PER_LAYER_UNITS = {
    "python.start_s": "s", "import.s": "s", "import.modules": "count",
    "spectral.gamma0.ns_per_point": "ns", "phase.pool_startup_s": "s",
    "phase.parallel_efficiency": "1",
    "cli.main.s": "s", "cli.emit.s": "s", "cli.emit.rows": "count", "cli.emit.bytes": "bytes",
    "cli.process_overhead_s": "s", "unaccounted.s": "s", "trace.overhead_s": "s",
    "pulses.default_time_grid.s": "s", "pulses.default_time_grid.points": "count",
}
# spans whose time is reported as a share of traced cli.main, with their work counts
SHARED_SPANS = {
    "pulses.PulsedDecoherence": ("calls",), "pulses.gamma_grid": ("points",),
    "pulses.gamma": ("calls",), "pulses.controlled_gamma": ("calls",),
    "pulses.controlled_gamma_oracle": ("calls",), "spectral.oscillatory_quad": ("calls",),
    "correlations.trajectory": ("points",), "phase.phase_diagram": ("cells", "sudden_cells"),
    "phase.min_decoherence_factor": (), "phase.transition_time": (),
}
for _name, _counts in SHARED_SPANS.items():
    PER_LAYER_UNITS[f"{_name}.pct"] = "%"
    for _count in _counts:
        PER_LAYER_UNITS[f"{_name}.{_count}"] = "count"
PER_LAYER_UNITS["phase.refine.pct"] = "%"
for _layer in LAYERS:
    PER_LAYER_UNITS[f"self.{_layer}.pct"] = "%"
    PER_LAYER_UNITS[f"{_layer}.errors"] = "count"

# time inside phase_diagram that these spans do not cover is refinement
REFINE_EXCLUDES = ("pulses.PulsedDecoherence", "pulses.default_time_grid", "pulses.gamma_grid")


def span_totals(spans):
    """Seconds, work and self time per span name and layer from one span list."""
    by_id = {s[0]: s for s in spans}
    covered = defaultdict(int)
    for sid, name, start, end, parent, *_ in spans:
        covered[parent] += end - start
    seconds, work = defaultdict(float), defaultdict(lambda: [0, 0])
    self_s, errors = defaultdict(float), Counter()
    inner = 0
    for sid, name, start, end, parent, error, counts in spans:
        seconds[name] += (end - start) / 1e9
        for k, v in enumerate(counts):
            work[name][k] += v
        layer = "unaccounted" if name == "cli.main" else name.split(".")[0]
        self_s[layer] += (end - start - covered[sid]) / 1e9
        errors[name.split(".")[0]] += error
        if name in REFINE_EXCLUDES:
            up = by_id.get(parent)
            while up is not None and up[1] != "phase.phase_diagram":
                up = by_id.get(up[4])
            if up is not None:
                inner += end - start
    seconds["phase.refine"] = max(seconds["phase.phase_diagram"] - inner / 1e9, 0.0)
    return seconds, work, self_s, errors


def traced_pass(cmds, p, runner, gate, workload):
    """Each command untraced then traced in fresh interpreters; per-layer figures.

    Also returns, per role, the summed import time, span seconds and self
    seconds of its commands, for the predicted splits.
    """
    n = len(cmds)
    roles = defaultdict(lambda: defaultdict(float))
    total = dict.fromkeys(("cli.main.s", "cli.process_overhead_s", "trace.overhead_s"), 0.0)
    seconds, self_s = defaultdict(float), defaultdict(float)
    counts, errors = defaultdict(lambda: [0, 0]), Counter()
    imports, modules = [], None
    for i, cmd in enumerate(cmds):
        args = [str(PROBE), "cli"] + with_one_worker(cmd)["argv"] + ["--output", "out.csv"]
        label = f"{workload} cmd {i} ({cmd['argv'][0]}) traced pass {p}"
        plain = runner.invoke(args, f"t{p}-c{i}-plain")
        traced = runner.invoke(args[:2] + ["--trace"] + args[2:], f"t{p}-c{i}-traced")
        ok = gate.invocation(f"{label} untraced", plain.status, plain.directory, cmd)
        if not gate.invocation(f"{label} traced", traced.status, traced.directory, cmd) or not ok:
            errors["cli"] += 1
            continue
        if p == 0:
            gate.content(label, plain.directory, cmd)
        gate.same_bytes(f"{label} traced vs untraced", plain.directory, traced.directory,
                        gate_names(cmd))
        a, b = plain.report(), traced.report()
        errors["cli"] += (a["status"] != 0) + (b["status"] != 0)
        gate.check(f"{label}: every traced function found", not b["missing"], str(b["missing"]))
        imports += [a["import_s"], b["import_s"]]
        modules = a["import_modules"]
        total["cli.main.s"] += a["main_s"]
        total["cli.process_overhead_s"] += plain.wall - a["import_s"] - a["main_s"]
        total["trace.overhead_s"] += b["main_s"] - a["main_s"]
        spans = json.loads((traced.directory / "spans.json").read_text())
        sec, wrk, slf, err = span_totals(spans)
        for d, s in ((seconds, sec), (self_s, slf)):
            for k, v in s.items():
                d[k] += v
        for k, v in wrk.items():
            counts[k] = [x + y for x, y in zip(counts[k], v)]
        errors.update(err)
        role = roles[cmd["role"]]
        role["import"] += a["import_s"]
        for k, v in sec.items():
            role[k] += v
        for k, v in slf.items():
            role[f"self.{k}"] += v
    main_traced = seconds["cli.main"] or 1.0  # a failed pass is reported by the gate
    out = {k: v / n for k, v in total.items()}
    out.update({
        "import.s": statistics.median(imports) if imports else 0.0,
        "import.modules": modules if modules is not None else 0,
        "cli.emit.s": seconds["cli.emit"] / n,
        "cli.emit.rows": counts["cli.emit"][0], "cli.emit.bytes": counts["cli.emit"][1],
        "unaccounted.s": self_s["unaccounted"] / n,
        "pulses.default_time_grid.s": seconds["pulses.default_time_grid"] / n,
        "pulses.default_time_grid.points": counts["pulses.default_time_grid"][0],
        "phase.refine.pct": 100.0 * seconds["phase.refine"] / main_traced,
    })
    for name, names in SHARED_SPANS.items():
        out[f"{name}.pct"] = 100.0 * seconds[name] / main_traced
        for k, count in enumerate(names):
            out[f"{name}.{count}"] = counts[name][k]
    for layer in LAYERS:
        out[f"self.{layer}.pct"] = 100.0 * self_s[layer] / main_traced
        out[f"{layer}.errors"] = errors[layer]
    seconds_per_invocation = {k: v / n for k, v in seconds.items()}
    return out, seconds_per_invocation, roles


def traced_run(workload, seed, seconds, runner, gate):
    cmds = commands(workload, seed)
    runner.invoke(["-c", "import dd_discord"], "setup-warm")
    starts = [runner.invoke(["-c", "pass"], f"start-{i}") for i in range(START_REPEATS)]
    first = cmds[0]
    s = first["s"] if "s" in first else first["s_grid"][0]
    layers = runner.invoke([str(PROBE), "layers", repr(s)], "layers")
    invocations = len(starts) + 2
    for i, inv in enumerate(starts):
        gate.check(f"python start {i} exits 0", inv.status == 0, str(inv.status))
    gate.check("layer probe exits 0", layers.status == 0, str(layers.status))
    passes = closed_loop(seconds, lambda p: traced_pass(cmds, p, runner, gate, workload), 1)
    invocations += 2 * len(cmds) * len(passes)
    metrics = {k: statistics.median(ps[0][k] for ps in passes) for k in passes[0][0]}
    metrics["python.start_s"] = statistics.median(r.wall for r in starts)
    metrics.update(layers.report() if layers.status == 0 else {})
    span_s = {k: statistics.median(ps[1].get(k, 0.0) for ps in passes)
              for k in set().union(*(ps[1] for ps in passes))}
    lines = [f"{workload}: traced, {len(passes)} passes x {len(cmds)} commands",
             "traced span seconds per invocation (median over passes):"]
    for name in sorted(span_s):
        lines.append(f"  {name + '.s':<40} {span_s[name]:>12.6f} s")
    lines.append("per-layer metrics (seconds per invocation, counts per pass):")
    for name in sorted(PER_LAYER_UNITS):
        if name in metrics:
            lines.append(f"  {name:<40} {metrics[name]:>12.6g} {PER_LAYER_UNITS[name]}")
    roles = defaultdict(lambda: defaultdict(float))
    for ps in passes:
        for role, figures in ps[2].items():
            for k, v in figures.items():
                roles[role][k] += v
    lines += predictions(roles)
    missing = [k for k in PER_LAYER_UNITS if k not in metrics]
    gate.check("every per-layer metric measured", not missing, str(missing))
    result = {k: {"value": metrics.get(k, 0.0), "unit": u}
              for k, u in PER_LAYER_UNITS.items()}
    return lines, result, invocations


def predictions(roles):
    """The layer split each role was chosen for, checked against its traced spans."""
    lines = []
    for role in ROLES:
        if role not in roles:
            continue
        f = roles[role]
        main = f["cli.main"] or 1.0
        shares = ", ".join(f"{name} {100.0 * f[name] / main:.1f}%" for name in (
            "pulses.gamma_grid", "pulses.PulsedDecoherence", "phase.refine",
            "pulses.controlled_gamma", "pulses.controlled_gamma_oracle", "cli.emit"))
        lines.append(f"  {role}: import {f['import']:.3f} s, traced cli.main {f['cli.main']:.3f} s"
                     f" (summed over its commands and passes); of cli.main: {shares}")
        compute = {name: f[name] for name in REFINE_EXCLUDES + ("phase.refine",)}
        if role == "map-dense":
            parts = dict(compute, **{"cli.emit": f["cli.emit"],
                                     "unaccounted": f["self.unaccounted"]})
            claim = "pulses.gamma_grid.s dominates"
            holds = max(parts, key=parts.get) == "pulses.gamma_grid"
        elif role == "map-refine":
            claim = "phase.refine.s dominates the compute"
            holds = max(compute, key=compute.get) == "phase.refine"
        elif role == "point-queries":
            claim = "import.s is the largest share"
            holds = f["import"] > max(f[f"self.{layer}"] for layer in LAYERS + ("unaccounted",))
        else:
            claim = "pulses.controlled_gamma_oracle.s dominates"
            holds = f["pulses.controlled_gamma_oracle"] > 0.5 * main
        lines.append(f"  prediction ({role}): {claim}: {'holds' if holds else 'DOES NOT HOLD'}")
    return lines


# ----------------------------------------------------------------- reporting

def environment(workload, seed, seconds, trace, cmds):
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return "absent"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "unknown")
    except OSError:
        cpu = platform.processor() or "unknown"
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "commands": [["dd-discord", *c["argv"], "--output", "out.csv"] for c in cmds],
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "commit": git_commit()}


def git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ----------------------------------------------------------------- self-test

def self_test(runner):
    """The gate must pass intact outputs and fail each corrupted copy."""
    from gate import Gate
    cmds = {
        "map": _map(random.Random(0), 0.3, "one", workers=1, companion=True, s_count=3),
        "transition": _point("transition", 1.3, None, "one", c=0.5),
        "decoherence": _point("decoherence", 1.3, 0.3, "two", horizon=5.0),
        "trajectory": _point("trajectory", 1.3, 0.3, "one", horizon=5.0, c=0.5),
    }

    def edit_csv(name, fn):
        def apply(directory):
            path = directory / name
            lines = path.read_text().splitlines()
            path.write_text("\n".join(fn(lines)) + "\n")
        return apply

    def shift_gamma(lines):
        out = lines[:2]
        for line in lines[2:]:
            tau, gamma, _ = line.split(",")
            g = float(gamma) + 1e-3
            out.append(f"{tau},{g:.12g},{math.exp(-2 * g):.12g}")
        return out

    def flip_first_invariant(lines):
        i = next(i for i, line in enumerate(lines) if ",time-invariant," in line)
        return lines[:i] + [lines[i].replace("time-invariant", "sudden-transition")] + lines[i + 1:]

    def late_transition(lines):
        head = lines[2].split(",")
        head[-1] = format(float(head[-1]) + 0.01, ".12g")
        return lines[:2] + [",".join(head)]

    corruptions = [
        ("map: last row dropped", "map", edit_csv("out.csv", lambda ls: ls[:-1])),
        ("map: a regime label flipped", "map", edit_csv("out.csv", flip_first_invariant)),
        ("transition: transition time blanked", "transition", edit_csv(
            "out.csv", lambda ls: ls[:2] + [ls[2].rsplit(",", 1)[0] + ","])),
        ("transition: transition time 0.01 late", "transition",
         edit_csv("out.csv", late_transition)),
        ("decoherence: every gamma 1e-3 high", "decoherence",
         edit_csv("out.csv", shift_gamma)),
        ("trajectory: sidecar deleted", "trajectory",
         lambda d: (d / "out.json").unlink()),
    ]
    failures = 0
    pristine = {}
    for kind, cmd in cmds.items():
        inv = runner.invoke(cli_args(cmd), kind)
        gate = Gate(random.Random(0))
        if gate.invocation(kind, inv.status, inv.directory, cmd):
            gate.content(kind, inv.directory, cmd)
        bad = gate.failures()
        failures += bool(bad)
        print(f"intact {kind}: {'FAIL ' + str(bad) if bad else 'passes'}")
        pristine[kind] = inv.directory
    for i, (name, kind, corrupt) in enumerate(corruptions):
        copy = runner.work / f"corrupt-{i}"
        shutil.copytree(pristine[kind], copy)
        corrupt(copy)
        gate = Gate(random.Random(0))
        if gate.invocation(name, 0, copy, cmds[kind]):
            gate.content(name, copy, cmds[kind])
        caught = gate.failures()
        failures += not caught
        print(f"corrupted ({name}): {'caught by ' + caught[0][0] if caught else 'NOT CAUGHT'}")
    print("self-test:", "passed" if failures == 0 else f"{failures} problem(s)")
    return 1 if failures else 0


# -------------------------------------------------------------------- main

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "dd_discord" / "__init__.py").is_file():
        print(f"benchmark: no dd_discord package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH / ".work"))
    try:
        runner = Runner(work)
        if args.self_test:
            return self_test(runner)
        from gate import Gate
        gate = Gate(random.Random(f"gate:{args.workload}:{args.seed}"))
        cmds = commands(args.workload, args.seed)
        print("inputs:", json.dumps(environment(args.workload, args.seed, args.seconds,
                                                 args.trace, cmds)))
        measure = traced_run if args.trace else end_to_end
        lines, metrics, invocations = measure(args.workload, args.seed, args.seconds, runner, gate)
        # every invocation has one check item, so checks are the attempted items
        failed, attempted = len(gate.failures()), len(gate.items)
        for line in lines:
            print(line)
        print(f"  {'fail_ratio':<32} {failed / attempted:>14.6g} 1      "
              f"({failed} failed of {attempted} checks over {invocations} invocations)")
        for name, _, detail in gate.failures()[:20]:
            print(f"  FAILED {name}: {detail}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (BENCH / ".work").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
