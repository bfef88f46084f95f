"""Output correctness gate for benchmark invocations.

Each check is one attempted item of the run; a failed check counts in
fail_ratio. The checks read the CSV and sidecar files a CLI invocation
wrote and hold them to the rules the program promises:

* every invocation exits 0 and writes its CSV and sidecar files;
* the row count is the one the configuration implies;
* a map cell is time-invariant exactly when c <= min_factor, and its
  transition time is present exactly for sudden cells, inside (0, horizon];
* sampled gamma values agree with an independent route within 1e-6
  absolute: the filter-function quadrature (controlled_gamma_oracle)
  for closed-form output, the closed form for --oracle output;
* around a sampled transition time the quadrature factor brackets c;
* repeated invocations of one configuration write identical bytes.
"""

import csv
import json
import math

from dd_discord import (OhmicSpectrum, PulseSchedule, controlled_gamma,
                        controlled_gamma_oracle, default_time_grid,
                        periodic_schedule)

GAMMA_ABS_TOL = 1e-6     # bound between the closed form and the quadrature route
FACTOR_ABS_TOL = 2e-6    # the same bound carried through e^(-2 gamma)
PRINT_ABS_TOL = 1e-10    # CSV floats carry 12 significant digits
BRACKET_DT = 1e-5        # offset either side of a reported transition time
SAMPLES = 4              # independently checked rows per output file
SIDE = {"one": 1, "two": 2}


def output_names(cmd):
    """Files a command writes next to its --output out.csv."""
    names = ["out.csv", "out.json"]
    if cmd["kind"] == "map" and cmd["companion"]:
        names += ["out-free.csv", "out-free.json"]
    return names


def _schedule(dt, horizon):
    return PulseSchedule((), horizon) if dt is None else periodic_schedule(dt, horizon)


def read_rows(path):
    """Rows of a dd-discord CSV as dicts; the first line must be the units comment."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# units:"):
        raise ValueError(f"{path.name}: missing units comment")
    return list(csv.DictReader(lines[1:]))


class Gate:
    """Collects check results: (name, ok, detail)."""

    def __init__(self, rng):
        self.rng = rng
        self.items = []

    def check(self, name, ok, detail=""):
        self.items.append((name, bool(ok), detail))
        return bool(ok)

    def failures(self):
        return [item for item in self.items if not item[1]]

    def invocation(self, label, status, directory, cmd):
        """Exit status 0 and every output file present."""
        missing = [n for n in output_names(cmd) if not (directory / n).is_file()]
        return self.check(f"{label}: exit 0 and outputs written",
                          status == 0 and not missing,
                          f"status {status}, missing {missing}")

    def same_bytes(self, label, reference, other, names):
        differ = [n for n in names
                  if (reference / n).read_bytes() != (other / n).read_bytes()]
        return self.check(f"{label}: identical bytes", not differ, f"differ: {differ}")

    def content(self, label, directory, cmd):
        """Full content checks of one invocation's outputs."""
        try:
            for name in output_names(cmd):
                if name.endswith(".json"):
                    sidecar = json.loads((directory / name).read_text())
                    self.check(f"{label}: {name} command", sidecar.get("command") == cmd["argv"][0],
                               str(sidecar.get("command")))
            kind = cmd["kind"]
            rows = read_rows(directory / "out.csv")
            if kind == "map":
                self._map(f"{label} out.csv", rows, cmd, cmd["dt"])
                if cmd["companion"]:
                    self._map(f"{label} out-free.csv",
                              read_rows(directory / "out-free.csv"), cmd, None)
            elif kind == "transition":
                self._transition(label, rows, cmd)
            else:
                self._series(label, rows, cmd)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.check(f"{label}: readable outputs", False, repr(exc))

    def _bracket(self, label, spec, sched, side, c, when):
        """The quadrature factor is >= c just before `when` and <= c just after."""
        def factor(tau):
            return math.exp(-side * controlled_gamma_oracle(spec, sched, tau))
        before = factor(max(when - BRACKET_DT, 0.0))
        after = factor(min(when + BRACKET_DT, sched.horizon))
        self.check(f"{label}: factor brackets c at the transition time",
                   before >= c - FACTOR_ABS_TOL and after <= c + FACTOR_ABS_TOL,
                   f"c={c} t={when} factor {before} .. {after}")

    def _regime_errors(self, rows, horizon):
        """Rows breaking: invariant iff c <= min_factor; time iff sudden, in (0, horizon]."""
        bad = []
        for row in rows:
            c, mf = float(row["c"]), float(row["min_factor"])
            regime, when = row["regime"], row["transition_time"]
            ok = 0.0 < mf <= 1.0
            if abs(c - mf) > PRINT_ABS_TOL:  # closer than the printed digits: either label
                ok = ok and regime == ("time-invariant" if c <= mf else "sudden-transition")
            if regime == "sudden-transition":
                ok = ok and when != "" and 0.0 < float(when) <= horizon
            else:
                ok = ok and regime == "time-invariant" and when == ""
            if not ok:
                bad.append(row)
        return bad

    def _map(self, label, rows, cmd, dt):
        expected = cmd["s_grid"][2] * cmd["c_grid"][2]
        self.check(f"{label}: row count", len(rows) == expected, f"{len(rows)} != {expected}")
        bad = self._regime_errors(rows, cmd["horizon"])
        self.check(f"{label}: regime rule", not bad, str(bad[:2]))
        sched = _schedule(dt, cmd["horizon"])
        sudden = [r for r in rows if r["regime"] == "sudden-transition"]
        for row in self.rng.sample(sudden, min(SAMPLES, len(sudden))):
            self._bracket(f"{label} s={row['s']}", OhmicSpectrum(float(row["s"])), sched,
                          SIDE[cmd["side"]], float(row["c"]), float(row["transition_time"]))

    def _transition(self, label, rows, cmd):
        self.check(f"{label}: row count", len(rows) == 1, f"{len(rows)} != 1")
        bad = self._regime_errors(rows, cmd["horizon"])
        self.check(f"{label}: regime rule", not bad, str(bad))
        if rows and not bad and rows[0]["regime"] == "sudden-transition":
            self._bracket(label, OhmicSpectrum(cmd["s"]), _schedule(cmd["dt"], cmd["horizon"]),
                          SIDE[cmd["side"]], cmd["c"], float(rows[0]["transition_time"]))

    def _series(self, label, rows, cmd):
        """decoherence and trajectory: one row per sampling time."""
        sched = _schedule(cmd["dt"], cmd["horizon"])
        spec = OhmicSpectrum(cmd["s"])
        side = SIDE[cmd["side"]]
        taus = [float(r["tau"]) for r in rows]
        if cmd.get("tau") is not None:
            expected = [cmd["tau"]]
        else:
            expected = default_time_grid(sched, cmd.get("time_step")).tolist()
        self.check(f"{label}: row count", len(rows) == len(expected),
                   f"{len(rows)} != {len(expected)}")
        self.check(f"{label}: sampling times", len(taus) == len(expected) and all(
            abs(a - b) <= PRINT_ABS_TOL * max(1.0, b) for a, b in zip(taus, expected)))
        bad = [r for r in rows if abs(float(r["factor"]) - math.exp(-side * float(r["gamma"])))
               > PRINT_ABS_TOL]
        if cmd["kind"] == "trajectory":
            bad += [r for r in rows if abs(float(r["mutual_info"]) - float(r["classical"])
                                           - float(r["discord"])) > PRINT_ABS_TOL]
        self.check(f"{label}: factor and discord consistent", not bad, str(bad[:2]))
        reference = controlled_gamma if cmd.get("oracle") else controlled_gamma_oracle
        picks = self.rng.sample(range(len(rows)), min(SAMPLES, len(rows)))
        for i in picks:
            got, want = float(rows[i]["gamma"]), reference(spec, sched, taus[i])
            self.check(f"{label} tau={rows[i]['tau']}: gamma vs {reference.__name__}",
                       abs(got - want) <= GAMMA_ABS_TOL, f"{got} vs {want}")
