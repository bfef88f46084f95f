"""Regime classification: time-invariant discord versus sudden transition.

For a fixed bath, schedule, and noise side the classification problem
collapses to one scalar per Ohmicity value: the minimum of the
decoherence factor over the evolution window. States with |c| at or below
that minimum keep their discord pinned at correlation_bits(c) for the
whole window; every other state hits a sudden transition at the first
time the factor crosses |c| from above. Discord depends on |c| only, so
c and -c always share a label. phase_diagram is the one entry point:
min_decoherence_factor and transition_time are its one-row views, and
boundary_curve its minima, all over the schedule's window [0, horizon].
A map takes its rows in blocks, one set of arrays each: one scan, one
set of kernel calls and one Newton solve serve a block, and each row
still gets the doubles it gets alone.

Both are found in exponent space: the minimum factor is the maximum of
the exponent g, and the factor crosses |c| where g first exceeds
-log|c| / side. g is smooth between pulses, with kinks only at pulse
instants. The scan samples every inter-pulse branch at the phase steps
of one period, both sides of every instant and the window end included;
a map finds it once. The schedule is periodic, so the scan has one phase
set and one small table of terms per row, each sample's own gamma0 among
them (a full period ends at t_n + t_1). Each sample carries g, its rate,
and bounds on |g''| and |g'''| from the closed forms. They bound g on
every cell between samples, and a cell whose bound is not settled is
bisected: nothing between the samples is assumed. A maximum inside a
cell is a zero of the rate. It and every crossing are solved to a few
ulp by safeguarded Newton steps shared by all brackets of a block.
"""

import copy
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .correlations import NoiseSide, correlation_bits, decoherence_factor
from .pulses import MAX_POINTS, PulsedDecoherence, _sorted_distinct, periodic_schedule
from .spectral import OhmicSpectrum

_SCAN_STEP = 0.125        # longest scan step; the certificate splits cells that need more
_SCAN_MIN_STEPS = 4       # fewest scan steps per branch
_NEWTON_STEPS = 60        # most safeguarded Newton steps of one solve
_ULPS = 4                 # a solve stops within this many ulp of its time
_MIN_WIDTH = 2.0 ** -40   # cells narrower than this (times max(1, t)) count as samples
_TINY = float(np.finfo(float).tiny)   # factor floor: exp() may underflow to 0
_BLOCK_POINTS = 8_000     # most scan points in a block of rows (a longer row is a block alone)
_EMPTY_CELL = (np.nan, np.nan, np.nan, False)   # peak, peak_at, bend, peak_sure of an unsolved cell


class Regime(Enum):
    TIME_INVARIANT = "time-invariant"
    SUDDEN_TRANSITION = "sudden-transition"


@dataclass(frozen=True)
class RegimeLabel:
    """Regime of one (s, c) cell; transition_time present iff sudden."""

    regime: "Regime"
    transition_time: Optional[float] = None

    def __post_init__(self):
        has_time = self.transition_time is not None
        if has_time != (self.regime is Regime.SUDDEN_TRANSITION):
            raise ValueError(
                "transition_time must be present exactly for sudden transitions")


@dataclass(frozen=True)
class PhaseDiagram:
    """Regime labels over an (s, c) grid; labels[i][j] is (s_grid[i], c_grid[j])."""

    s_grid: tuple
    c_grid: tuple
    labels: tuple
    min_factors: tuple     # per-s minimum decoherence factor
    side: NoiseSide
    pulse_interval: Optional[float]
    horizon: float


class _FactorProfile:
    """The exponent of a block of rows (one s each; one schedule and side) on a certified scan.

    Points are (branch n, phase r) pairs, time t_n + r; row i holds the
    branches i B .. i B + B - 1, and cells join neighbouring points of one
    branch. Every point carries the exponent g, its rate g', and bounds
    M2, M3 on |g''|, |g'''| over the rest of its branch, so on a cell
    [a, b] of width h

        g <= min(max(g_a, g_b) + M2 h^2 / 8,  max of the lower of the two
                 Taylor bounds g_a + g'_a x + M2 x^2 / 2 and
                 g_b - g'_b (h - x) + M2 (h - x)^2 / 2).

    A cell whose rate falls from + to - holds a peak: a safeguarded
    Newton solve of g' = 0 finds it, and M3 certifies it as the cell's
    only maximum when g'' < 0 there with room to spare. Cells whose
    bound is not settled are bisected.

    A point's branch n is in _n, the rest of its state in one list of
    equal-length columns, _columns: r, f (g), d (g'), m2, m3, then those of
    the cell it starts, _EMPTY_CELL until solved: peak, peak_at, bend (its
    -g'' less the last Newton step's slack) and peak_sure (certified).
    """

    def __init__(self, s_values, schedule, side, scan):
        starts, branch, phases = scan
        rows = np.arange(len(s_values))
        self.evaluator = PulsedDecoherence(tuple(OhmicSpectrum(s) for s in s_values), schedule)
        self.side = side
        self._branches = starts.size
        self._starts = np.tile(starts, rows.size)
        self._n = (rows[:, None] * starts.size + branch).reshape(-1)
        # no name holds the kernel's block of f, d, m2, m3 once _split replaces them
        self._columns = [np.tile(phases, rows.size), *self.evaluator._evaluate(
            branch, phases, 1, True, rows[:, None]).reshape(4, -1)]
        self._columns += (np.full(self._n.size, empty) for empty in _EMPTY_CELL)
        self._bounds = None
        self._settle(np.empty(0), np.empty(0, int))

    def _evaluate(self, n, phases, order, bounds=False):   # at phases of branches n
        rows, counts = np.divmod(n, self._branches)
        return self.evaluator._evaluate(counts, phases, order, bounds, rows=rows)

    def _cells(self):
        """Per pair of neighbouring points (j, j + 1), by j: whether it is a cell, an upper
        bound on the exponent over it, the largest exponent known on it, and whether its
        bound is settled.

        A pair across a pulse or across two rows is no cell: its bound is
        the larger of its values, and it is settled; so is that of a cell
        too narrow to split or lying where a certified peak keeps g'' < 0.
        """
        if self._bounds is None:
            n, (r, f, d, m2, m3, peak, peak_at, bend, peak_sure) = self._n, self._columns
            cell = n[:-1] == n[1:]
            h = r[1:] - r[:-1]
            ends = np.maximum(f[:-1], f[1:])
            settled = ~cell | (h <= _MIN_WIDTH * np.maximum(1.0, self._starts[n[1:]] + r[1:]))
            bend, at, sure = bend[:-1], peak_at[:-1], peak_sure[:-1]
            with np.errstate(invalid="ignore"):
                after = cell[1:] & sure[:-1] & (bend[:-1] > m3[:-2] * (r[2:] - at[:-1]))
                before = cell[:-1] & sure[1:] & (bend[1:] > m3[:-2] * (at[1:] - r[:-2]))
            settled[1:] |= after
            settled[:-1] |= before
            upper = _upper_bound(f[:-1], f[1:], d[:-1], d[1:], m2[:-1], h)
            upper = np.where(settled, ends, np.where(sure, peak[:-1], upper))
            self._bounds = cell, upper, np.fmax(ends, peak[:-1]), settled
        return self._bounds

    def _settle(self, thresholds, rows, private=False):
        """Refine until no cell can exceed its row's maximum unseen; then place every threshold.

        Returns, per threshold of its row, the first pair of the row that
        may exceed it, -1 where no pair does, and -2 where that pair holds
        no known value above it. Cells are split for such thresholds only
        when private: the splits one asks for cannot move the others' times.
        """
        while True:
            # named anew each round, and unnamed before a split replaces them
            n, (r, f, d, m2, m3, peak, peak_at, bend, peak_sure) = self._n, self._columns
            cell, upper, known, settled = self._cells()
            row_branches = np.arange(self.evaluator._s.size + 1) * self._branches
            self._first = first = np.searchsorted(n, row_branches)   # each row's first point
            self._max = np.fmax(np.maximum.reduceat(f, first[:-1]),
                                np.fmax.reduceat(peak, first[:-1]))
            unsolved = cell & (d[:-1] > 0.0) & (d[1:] < 0.0) & np.isnan(peak[:-1])
            split = (upper > self._max[n[:-1] // self._branches]) & ~settled
            # row k owns the pairs first[k] .. first[k + 1] - 2
            pair, found = np.empty(thresholds.size, int), np.empty(thresholds.size, bool)
            for k in _sorted_distinct(rows).tolist():
                mine, lo, end = rows == k, first[k], first[k + 1] - 1
                at = lo + np.searchsorted(np.maximum.accumulate(upper[lo:end]), thresholds[mine],
                                          side="right")
                pair[mine], found[mine] = np.minimum(at, end - 1), at < end
            blocked = found & (known[pair] <= thresholds)
            unseen = pair[blocked]
            solve = unsolved & split
            solve[unseen] |= unsolved[unseen]
            if private:
                split[unseen] = True
            split &= ~solve
            if not (solve.any() or split.any()):
                return np.where(found, np.where(blocked, -2, pair), -1)
            del n, r, f, d, m2, m3, peak, peak_at, bend, peak_sure
            if solve.any():
                self._solve_peaks(np.nonzero(solve)[0])
            if split.any():
                self._split(np.nonzero(split)[0])

    def _solve_peaks(self, i):
        """Zero of the rate in the cells at left points i, and its certificate."""
        n, (r, f, d, m2, m3, peak, peak_at, bend, peak_sure) = self._n[i], self._columns

        def minus_rate(x, k):
            g, rate, curvature = self._evaluate(n[k], x, 2)
            return -rate, -curvature, g

        lo, hi, m3 = r[i], r[i + 1], m3[i]
        start = _cubic_start(lo, hi, f[i], d[i], f[i + 1], d[i + 1], slope_root=True)
        x, (_, curvature, g), moved = _newton(minus_rate, lo, hi, start, self._starts[n] + hi, m3)
        peak[i], peak_at[i], bend[i] = g, x, curvature - m3 * moved
        # g'' < 0 over the whole cell: the rate has no other zero in it
        peak_sure[i] = bend[i] > m3 * np.maximum(x - lo, hi - x)
        self._bounds = None

    def _split(self, i):
        """Bisect the cells at left points i."""
        n, phases = self._n[i], self._columns[0]
        r = 0.5 * (phases[i] + phases[i + 1])
        for column, empty in zip(self._columns[-len(_EMPTY_CELL):], _EMPTY_CELL):
            column[i] = empty
        new = (r, *self._evaluate(n, r, 1, True), *_EMPTY_CELL)
        self._n, self._bounds = np.insert(self._n, i + 1, n), None
        for k, value in enumerate(new):   # one at a time: each old column is freed at once
            self._columns[k] = np.insert(self._columns[k], i + 1, value)

    def _argmax_time(self, row):
        r, f, d, m2, m3, peak, peak_at, bend, peak_sure = self._columns
        lo, end = self._first[row:row + 2]
        best = lo + int(np.argmax(f[lo:end]))
        time, value = self._starts[self._n[best]] + r[best], f[best]
        if np.nanmax(peak[lo:end], initial=0.0) > value:
            k = lo + int(np.nanargmax(peak[lo:end]))
            time = self._starts[self._n[k]] + peak_at[k]
        return float(time)

    def first_crossings(self, cs, rows):
        """Earliest times with factor < |c| in the given rows, for |c| above their minimum factors.

        In exponent space: the first root of g = -log|c| / side, by one
        safeguarded Newton solve over all c values of the block, certified
        free of an earlier root by the Taylor bound of its cell. A c
        whose certificate needs finer cells gets them on a copy of the
        profile, so a time never depends on the other c values.
        """
        targets = -np.log(np.abs(np.asarray(cs, dtype=float))) / self.side.value
        times = self._crossings(targets, rows)
        for k in np.nonzero(np.isnan(times))[0]:
            private = copy.deepcopy(self)
            while np.isnan(times[k]):
                times[k] = private._crossings(targets[k:k + 1], rows[k:k + 1], private=True)[0]
        return times

    def _crossings(self, targets, rows, private=False):
        """First roots of g = targets in their rows on the cells as they are; NaN if uncertified.

        Cells left unsure are split when private.
        """
        times = np.full(targets.size, np.nan)
        j = self._settle(targets, rows, private)
        r, f, d, m2, m3, peak, peak_at, bend, peak_sure = self._columns
        # a |c| at the rounding edge of min_factor: the maximum is the crossing
        times[j == -1] = [self._argmax_time(row) for row in rows[j == -1]]
        # a pair across a pulse: the level lies between the two branches' values there
        kink = j >= 0
        kink[kink] = self._n[j[kink]] != self._n[j[kink] + 1]
        times[kink] = self._starts[self._n[j[kink] + 1]]
        todo = np.nonzero((j >= 0) & ~kink)[0]
        if not todo.size:
            return times
        i, level = j[todo], targets[todo]
        starts, n = self._starts[self._n[i]], self._n[i]
        lo, f_lo = r[i], f[i]
        ahead = f[i + 1] > level
        hi = np.where(ahead, r[i + 1], peak_at[i])
        f_hi = np.where(ahead, f[i + 1], peak[i])

        def excess(x, k):
            g, rate = self._evaluate(n[k], x, 1)
            return g - level[k], rate

        m2 = m2[i]
        d_hi = np.where(ahead, d[i + 1], 0.0)
        start = _cubic_start(lo, hi, f_lo - level, d[i], f_hi - level, d_hi)
        x, (_, rate), moved = _newton(excess, lo, hi, start, starts + hi, m2)
        # no earlier root: [lo, x] stays at or below the level
        width = x - lo
        sure = _upper_bound(f_lo, level, d[i], rate - m2 * moved, m2, width) <= level
        sure |= ~ahead & peak_sure[i]          # rising side of a certified peak
        sure |= width <= _MIN_WIDTH * np.maximum(1.0, starts + x)
        times[todo[sure]] = starts[sure] + x[sure]
        if private and not sure.all():
            self._split(_sorted_distinct(i[~sure]))
        return times


def _scan(schedule):
    """Scan of [0, schedule.horizon]: branch starts, then per sample its branch and phase.

    Branch n starts at t_n (t_0 = 0) and samples the phases j (P / m), j =
    0 .. m, of one period P (t_1, or the window without a pulse in it), the
    last exactly P, so it ends at t_n + P; m = max(_SCAN_MIN_STEPS, ceil(P /
    _SCAN_STEP)). The last branch takes those below its length L, then L,
    the window end: at most m + 2 distinct phases, so the kernel's table
    has that many rows per row of a map. The scan is coarse: the
    certificate bisects every cell its bounds leave unsettled, so the
    density sets the work, while every result holds to the same few ulp.
    More than MAX_POINTS steps is a ValueError, raised first.
    """
    horizon = schedule.horizon
    starts = np.concatenate(([0.0], schedule.instants[:schedule.pulses_before(horizon)]))
    period = schedule.interval or horizon
    steps = max(_SCAN_MIN_STEPS, np.ceil(period / _SCAN_STEP))   # a float: the window may be inf
    total = steps * starts.size
    if not total <= MAX_POINTS:
        ratio = f"horizon {horizon}" + (f" / dt {period}" if schedule.interval else "")
        raise ValueError(f"{ratio} asks for about {total:.3g} regime scan steps (at least "
                         f"{_SCAN_MIN_STEPS} per pulse interval and one per {_SCAN_STEP} of "
                         f"time), more than the limit of {MAX_POINTS:,}")
    m = int(steps)
    end = horizon - starts[-1]
    distinct = np.append(np.arange(m) * (period / m), (period, end))
    # the last branch ends at P itself when it is a full period
    which = np.concatenate((np.tile(np.arange(m + 1), starts.size - 1),
                            np.arange(np.searchsorted(distinct[:-1], end)), [m + (end != period)]))
    branch = np.cumsum(which == 0) - 1   # every branch starts at phase 0
    return starts, branch, distinct[which]


def _upper_bound(fa, fb, da, db, curv, h):
    """Largest value on [0, h] allowed by end values fa, fb, slopes da, db and |f''| <= curv."""
    with np.errstate(divide="ignore", invalid="ignore"):
        # the two Taylor parabolas differ by a linear function; they cross at x
        x = np.clip((fb - fa - db * h + 0.5 * curv * h * h) / (da - db + curv * h), 0.0, h)
        from_a = fa + x * (da + 0.5 * curv * x)
        from_b = fb - (h - x) * (db - 0.5 * curv * (h - x))
        taylor = np.fmax(np.maximum(fa, fb), np.fmax(from_a, from_b))
    return np.fmin(taylor, np.maximum(fa, fb) + 0.125 * curv * h * h)


def _cubic_start(lo, hi, f_lo, d_lo, f_hi, d_hi, slope_root=False):
    """Root in [lo, hi] of the cubic with values f and slopes d at both ends, or of its slope.

    A start for the Newton solves, found by a few Newton steps on the
    cubic itself (f_lo <= 0 < f_hi; or d_lo > 0 > d_hi for its slope).
    """
    h = hi - lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = (f_hi - f_lo) / h
        c2 = (3.0 * q - 2.0 * d_lo - d_hi) / h
        c3 = (d_lo + d_hi - 2.0 * q) / (h * h)
        a = (d_lo, 2.0 * c2, 3.0 * c3, 0.0) if slope_root else (f_lo, d_lo, c2, c3)
        x = np.clip(-a[0] * h / ((d_hi if slope_root else f_hi) - a[0]), 0.0, h)
        for _ in range(3):
            value = a[0] + x * (a[1] + x * (a[2] + x * a[3]))
            x = np.clip(x - value / (a[1] + x * (2.0 * a[2] + 3.0 * x * a[3])), 0.0, h)
    return lo + np.where(np.isfinite(x), x, 0.5 * h)


def _newton(evaluate, lo, hi, x, times, curv):
    """Safeguarded Newton: one root of F in every bracket [lo, hi] with F(lo) <= 0 < F(hi).

    evaluate(x, k) returns F, F' and any further values at x for the
    brackets k; curv bounds |F''| on each bracket. A step that leaves its
    (shrinking) bracket becomes a bisection. A solve stops once its
    bracket, or its step, or the error bound curv step^2 / 2|F'| left
    after the step, is within _ULPS ulp of max(1, its time `times`), or
    after _NEWTON_STEPS steps. Returns the roots, the values at the last
    evaluation, and the distance of each root from that evaluation.
    """
    lo, hi = lo.copy(), hi.copy()
    tol = _ULPS * np.spacing(np.maximum(np.abs(times), 1.0))
    k = np.arange(x.size)
    roots, moved = x.copy(), np.zeros(x.size)
    values = evaluate(x, k)
    out = [v.copy() for v in values]
    for _ in range(_NEWTON_STEPS):
        f, slope = values[0], values[1]
        above = f > 0.0
        hi[k[above]], lo[k[~above]] = x[above], x[~above]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - f / slope
            inside = (step > lo[k]) & (step < hi[k])
            # quadratic convergence: the step lands this close to the root
            settled = inside & (curv[k] * (step - x) ** 2 <= 2.0 * tol[k] * np.abs(slope))
        done = settled | (np.abs(step - x) <= tol[k]) | (hi[k] - lo[k] <= tol[k]) | (f == 0.0)
        last = np.where(inside & (f != 0.0), step, x)
        roots[k[done]], moved[k[done]] = last[done], np.abs(last - x)[done]
        for o, v in zip(out, values):
            o[k[done]] = v[done]
        k, x = k[~done], np.where(inside, step, 0.5 * (lo[k] + hi[k]))[~done]
        if not k.size:
            break
        values = evaluate(x, k)
    else:
        roots[k] = x
        for o, v in zip(out, values):
            o[k] = v
    return roots, out, moved


def min_decoherence_factor(spec, sched, side):
    """Minimum of the decoherence factor over the schedule's window [0, sched.horizon].

    exp(-side * max g), where the maximum of the exponent g sits at a
    pulse, at the window end or at a zero of its rate, and is certified
    against every cell between the scan samples. Floored at the smallest
    normal double, since exp() may underflow. The one-row view of
    phase_diagram; a shorter window is a shorter schedule.
    """
    return phase_diagram((spec.s,), (), sched.interval, side, sched.horizon).min_factors[0]


def classify(state, min_factor):
    """Regime of a state given the minimum factor of its evolution.

    Time-invariant iff |c| <= min_factor; the boundary case counts as
    invariant because discord is then pinned for the entire window.
    """
    if not 0.0 < min_factor <= 1.0:
        raise ValueError(f"min_factor must lie in (0, 1], got {min_factor}")
    if abs(state.c) <= min_factor:
        return Regime.TIME_INVARIANT
    return Regime.SUDDEN_TRANSITION


def transition_time(spec, sched, state, side):
    """Earliest time the factor drops below |c|; None when none exists.

    The first root of g = -log|c| / side, solved by safeguarded Newton
    steps to a few ulp and certified free of an earlier root: the one-cell
    view of phase_diagram over the schedule's window, whose other c values
    never move it. Consistent with classify: returns None exactly for
    time-invariant states.
    """
    diagram = phase_diagram((spec.s,), (state.c,), sched.interval, side, sched.horizon)
    return diagram.labels[0][0].transition_time


def _labels(profile, c_values):
    """Minimum factors of the rows of a block, and their labels of c_values by classify's rule."""
    factors = [max(decoherence_factor(g, profile.side), _TINY) for g in profile._max.tolist()]
    c = np.asarray(c_values, dtype=float)
    rows, cols = np.nonzero(np.abs(c) > np.array(factors)[:, None])   # the sudden cells
    labels = [[RegimeLabel(Regime.TIME_INVARIANT)] * c.size for _ in factors]
    times = profile.first_crossings(c[cols], rows).tolist()
    for row, col, time in zip(rows.tolist(), cols.tolist(), times):
        labels[row][col] = RegimeLabel(Regime.SUDDEN_TRANSITION, time)
    return factors, [tuple(row) for row in labels]


def phase_diagram(s_grid, c_grid, pulse_interval, side, horizon=25.0, workers=None):
    """Classify every (s, c) grid cell for one schedule and noise side.

    Rows (fixed s) are computed in grid order, in blocks of consecutive
    rows that fit a fixed budget of scan points, which bounds the memory
    of every evaluation. Each row keeps its own decisions, so its labels,
    minimum and transition times are the doubles it gets alone, whatever
    the grid around it. pulse_interval None means free evolution over the
    same window. workers is accepted for older callers and ignored.
    """
    s_vals = tuple(float(s) for s in s_grid)
    c_vals = tuple(float(c) for c in c_grid)
    if any(not 0.0 < s for s in s_vals):
        raise ValueError("s_grid values must be > 0")
    if any(not abs(c) < 1.0 for c in c_vals):
        raise ValueError("c_grid values must satisfy |c| < 1")
    schedule = periodic_schedule(pulse_interval, horizon)
    scan = _scan(schedule)
    # as many rows as fit _BLOCK_POINTS scan points, at least one: one block alive at a time
    size = max(1, _BLOCK_POINTS // scan[1].size)
    blocks = [_labels(_FactorProfile(s_vals[first:first + size], schedule, side, scan), c_vals)
              for first in range(0, len(s_vals), size)]
    return PhaseDiagram(
        s_grid=s_vals,
        c_grid=c_vals,
        labels=tuple(row for _, labels in blocks for row in labels),
        min_factors=tuple(factor for factors, _ in blocks for factor in factors),
        side=side,
        pulse_interval=pulse_interval,
        horizon=horizon,
    )


def boundary_curve(s_grid, pulse_interval, side, horizon=25.0):
    """Critical c as a function of s: the per-s minimum decoherence factor.

    States with c at or below the curve stay time-invariant for this
    schedule and noise side. Returns a list of (s, min_factor) pairs: the
    min_factors of a phase diagram with no c values.
    """
    diagram = phase_diagram(s_grid, (), pulse_interval, side, horizon)
    return list(zip(diagram.s_grid, diagram.min_factors))


def invariant_discord_value(state):
    """Discord plateau value in the time-invariant regime.

    Depends on the state parameter only: correlation_bits(c).
    """
    return correlation_bits(state.c)
