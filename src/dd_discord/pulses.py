"""Bang-bang pulse schedules and the pulse-controlled decoherence exponent.

A train of instantaneous pi pulses applied during pure dephasing flips
the sign of the system-bath coupling at each pulse. The controlled
exponent then follows from signed combinations of the free exponent
gamma0 evaluated at pulse instants, pairwise pulse gaps, and the
intervals elapsed since each pulse. Equivalently, the pulses act in
frequency space through a filter |y_n(omega t)|^2 on the bath spectrum.
The signed sum, the production path, lives here; the filter-function
quadrature, the independent oracle, is spectral.oscillatory_quad, which
controlled_gamma_oracle calls once.

Every schedule is periodic: pulses at t_k = k t_1, k = 1 .. N, with
N = 0 for free evolution. The filter is then a geometric series in
closed form, so each quadrature node costs the same at any pulse count:
an oracle value costs O(panels), and its panels grow with tau, not with
the pulses. The signed sum collapses into alternating prefix sums over
the pulse index. Its schedule-only part costs O(pulses) once. One
kernel takes points as (pulse count, phase, row) and finds the distinct
phases itself: points at one phase share one table of terms, head terms
included, so a grid costs O(distinct phases x (pulses + 1)) gamma0
evaluations, not O(grid x pulses). A regime map's block of rows is one
evaluator with a spectrum, so an s, per row.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import DEFAULT_QUADRATURE, ConvergenceError, _closed_forms, oscillatory_quad


@dataclass(frozen=True)
class PulseSchedule:
    """Pulses at t_k = k * interval, k = 1 .. count, as many as fit (0, horizon].

    interval None, or above the horizon, is free evolution: count 0 and
    interval None. () is the free form of earlier versions, and no other
    tuple is accepted. More than MAX_POINTS pulses is a ValueError.
    """

    interval: float
    horizon: float
    count: int = field(init=False)

    def __post_init__(self):
        interval = self.interval
        if isinstance(interval, tuple) and not interval:
            interval = None
        if interval is not None and not interval > 0.0:
            raise ValueError(f"delta_tau must be > 0, got {interval}")
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        count = 0
        if interval is not None:
            _check_size(self.horizon, interval, "pulses", "dt")
            count = int(math.floor(self.horizon / interval))
            if (count + 1) * interval <= self.horizon:  # floor landed one short
                count += 1
            while count > 0 and count * interval > self.horizon:  # float overshoot
                count -= 1
        object.__setattr__(self, "interval", float(interval) if count else None)
        object.__setattr__(self, "count", count)

    @property
    def instants(self):
        """The pulse instants n * interval, n = 1 .. count, as a new read-only array."""
        out = np.arange(1, self.count + 1) * (self.interval or 0.0)
        out.flags.writeable = False
        return out

    def __len__(self):
        return self.count

    def pulses_before(self, tau):
        """Number of pulses strictly earlier than tau.

        A query exactly at a pulse instant therefore belongs to the
        preceding branch; continuity makes the choice observationally
        irrelevant.
        """
        return int(np.searchsorted(self.instants, tau))


# most pulses in a periodic schedule, and most points in a sampling grid
MAX_POINTS = 1_000_000
# most (s, c) cells of a regime map, one output row each
MAX_CELLS = 1_000_000


def _check_size(horizon, step, what, step_name, pulses=0):
    """Refuse, before allocating, more than MAX_POINTS: horizon / step, and two per pulse."""
    size = horizon / step + 2 * pulses
    if not size <= MAX_POINTS:
        also = f" and two at each of {pulses:,} pulses" if pulses else ""
        raise ValueError(
            f"horizon {horizon} / {step_name} {step}{also} asks for about {size:.3g} "
            f"{what}, more than the limit of {MAX_POINTS:,}")


def _sorted_distinct(values):
    """np.unique(values), without the numpy.ma import a bare np.unique makes in numpy 2.4."""
    out = np.sort(values)
    keep = np.ones(out.size, bool)
    keep[1:] = out[1:] != out[:-1]
    return out[keep]


def periodic_schedule(delta_tau, horizon):
    """Equally spaced pulses t_n = n * delta_tau, as many as fit the horizon: a PulseSchedule."""
    return PulseSchedule(delta_tau, horizon)


# table entries per block of the shared-phase sums: bounds their working set
_PHASE_BLOCK = 4096


class PulsedDecoherence:
    """Controlled decoherence exponent for one bath and schedule.

    With n pulses t_1 < ... < t_n before tau the exponent is

        static[n] + (-1)^n gamma0(tau) + 2 sum_k (-1)^k gamma0(tau - t_(n-k)),

    k = 0 .. n-1, where static[n] collects the single-instant and
    pairwise-gap terms and is accumulated once at construction.

    The instants are exactly k * t_1 (see PulseSchedule), so every gap
    t_m - t_j is itself an instant and static takes two prefix sums over
    the N instants. The elapsed sum becomes sum_k (-1)^k gamma0(r + t_k)
    with t_0 = 0 and the phase r = tau - t_n, which is exact by Sterbenz's
    lemma; its next term, k = n, is the head term at r + t_n = tau. Points
    with exactly equal phases share one table of terms, so a grid costs
    one gamma0 evaluation per (distinct phase, k) pair, k = 0 .. n, and a
    single time is one phase.

    spec may also be a tuple of spectra, the rows of a regime-map block:
    static has a row per spectrum, and _evaluate takes each point's row
    (gamma and gamma_grid the first), the same double in any block.
    An exponent that overflows a double raises ConvergenceError.
    Instances are immutable after construction and safe to share across
    threads.
    """

    def __init__(self, spec, schedule):
        self.spec = spec
        self.schedule = schedule
        self._s = np.array([row.s for row in (spec if isinstance(spec, tuple) else (spec,))])
        t = schedule.instants
        self._signs = (-1.0) ** np.arange(t.size + 1)   # (-1)^k, k = 0 .. N
        self._starts = np.concatenate(([0.0], t))   # t_0 = 0, t_1, ..., t_N
        # near the overflow edge (s ~ 172) these sums leave non-finite
        # entries; gamma and gamma_grid report any exponent they reach
        with np.errstate(over="ignore", invalid="ignore"):
            # (-1)^(n+1) G(t_n), a row per spectrum
            singles = _closed_forms(self._s, t, rows=np.arange(self._s.size)[:, None])[0]
            singles = np.atleast_2d(singles) * self._signs[:-1]
            # the gap sum of pulse n is sum_k (-1)^(k+1) G(t_k), k < n
            gaps = np.cumsum(np.pad(singles, ((0, 0), (1, 0))), axis=-1)[:, :-1]
            self._static = np.cumsum(np.pad(2.0 * singles + 4.0 * gaps, ((0, 0), (1, 0))), axis=-1)

    def gamma(self, tau):
        """Exponent at a single time (pulse instants use the earlier branch).

        gamma_grid at one point, so the same double.
        """
        return float(self.gamma_grid([float(tau)])[0])

    def gamma_grid(self, taus):
        """Vectorized exponent at an array of times, in any order (kept in the output)."""
        taus = np.asarray(taus, dtype=float)
        if not np.all((0.0 <= taus) & (taus <= self.schedule.horizon)):   # also refuses NaN
            raise ValueError(f"tau must lie in [0, {self.schedule.horizon}]")
        counts = np.searchsorted(self._starts[1:], taus, side="left")
        return self._evaluate(counts, taus - self._starts[counts])[0]

    def _evaluate(self, counts, phases, order=0, bounds=False, rows=0):
        """The exponent and its time derivatives up to order at t_n + r, n = counts, r = phases.

        The one kernel of gamma_grid and of the regime refinement. rows
        (broadcast) are the rows of the points. Points with equal phases
        share a table of terms (_phase_sums), unless no pulse is behind any
        point: then the terms are the closed forms at the phases. The head
        term is the elapsed sum's next term, at r + t_n: t_n + r for the
        refinement, and tau for gamma_grid, as tau - t_n is exact (t_n = 0
        or tau <= 2 t_n, true on every schedule). A derivative is the
        same signed sum over the derivative of gamma0 (static is constant
        inside a branch). With bounds, two more arrays bound the second and
        third derivatives from the points to their branch ends: each term
        becomes its envelope, which decreases in its argument, and every
        argument grows with tau inside a branch. Returns the arrays stacked;
        the exponent is clamped at zero, and a value that is not a finite
        double raises ConvergenceError.
        """
        shape = np.broadcast_shapes(np.shape(counts), np.shape(rows))
        # per closed form, twice the prefix sums and the terms k = n
        sums = np.zeros((2, order + 1 + 2 * bounds) + shape)
        # an overflowing sum is reported just below, as a non-finite value
        with np.errstate(over="ignore", invalid="ignore"):
            if counts.any():
                distinct, which = np.unique(phases, return_inverse=True)
                keys, n = np.broadcast_arrays(rows * distinct.size + which, counts)
                self._phase_sums(order, bounds, distinct, keys.reshape(-1), n.reshape(-1),
                                 sums.reshape(2, len(sums[0]), -1))
            else:   # no table: the sums stay zero, the terms are the closed forms
                sums[1] = [np.broadcast_to(f, shape) for f in
                           _closed_forms(self._s, phases, range(order + 1), bounds, rows)]
            out, term = sums
            term[0] += self._static[rows, counts]
            out += term
        names = ("exponent", "rate", "curvature")[:order + 1] + ("derivative bound",) * 2 * bounds
        for name, values in zip(names, out):
            bad = ~np.isfinite(values)
            if bad.any():
                tau, s = (float(np.broadcast_to(x, bad.shape)[bad][0])
                          for x in (self._starts[counts] + phases, self._s[rows]))
                raise ConvergenceError(
                    f"{name} is not a finite double at s={s}, tau={tau}", s=s, tau=tau)
        np.maximum(out[0], 0.0, out=out[0])
        return out

    def _phase_sums(self, order, bounds, distinct, keys, counts, out):
        """Into out, twice the prefix sums (k < n) and the terms k = n of the points of keys.

        Key i D + j, D = distinct.size, is phase r = distinct[j] in row i; it
        gets a table row of sign_k f(r + t_k), k = 0 .. its largest count, per
        closed form f: gamma0 and its derivatives up to order, with sign_k =
        (-1)^k, then with bounds the two derivative envelopes, with sign_k = 1.
        Keys that points use go longest first, in blocks of at most
        _PHASE_BLOCK table entries, each fitting the first's width.
        """
        longest = np.full(self._s.size * distinct.size, -1)
        np.maximum.at(longest, keys, counts)
        ranked = np.argsort(-longest, kind="stable")
        used = np.count_nonzero(longest >= 0)
        point_rank = np.argsort(ranked)[keys]   # table row of each point's key
        by_rank = np.argsort(point_rank)   # any order inside a key: each point is written once
        ends = np.concatenate(([0], np.cumsum(np.bincount(point_rank, minlength=used))))
        first = 0
        while first < used:
            width = int(longest[ranked[first]]) + 1
            stop = min(used, first + max(1, _PHASE_BLOCK // width))
            pts = by_rank[ends[first]:ends[stop]]
            n = counts[pts]
            entry = (point_rank[pts] - first) * width + n
            block, phase = np.divmod(ranked[first:stop, None], distinct.size)
            values = _closed_forms(self._s, distinct[phase] + self._starts[:width],
                                   range(order + 1), bounds, block)
            for k, (sums, term, f) in enumerate(zip(out[0], out[1], values)):
                f = f * self._signs[:width] if k <= order else f
                sums[pts] = np.where(n > 0, 2.0 * np.take(np.cumsum(f, axis=-1), entry - 1), 0.0)
                term[pts] = np.take(f, entry)
            first = stop


def controlled_gamma(spec, sched, tau):
    """Pulse-controlled decoherence exponent at time tau.

    Piecewise in the number of elapsed pulses; reduces to gamma0 for an
    empty schedule and stays continuous across pulse instants. The
    one-point view PulsedDecoherence(spec, sched).gamma(tau): it builds the
    evaluator, at O(pulses) cost, on every call, so many times of one
    schedule are one PulsedDecoherence(spec, sched).gamma_grid call.
    """
    return PulsedDecoherence(spec, sched).gamma(tau)


def controlled_gamma_oracle(spec, sched, tau, cfg=DEFAULT_QUADRATURE):
    """Controlled exponent by quadrature of the filter-weighted spectrum.

    spectral.oscillatory_quad with the pulses before tau: an independent
    cross-check of the signed sum.
    """
    tau = float(tau)
    if not (0.0 <= tau <= sched.horizon and tau < math.inf):
        raise ValueError(f"tau must be finite and lie in [0, {sched.horizon}], got {tau}")
    return oscillatory_quad(spec, sched.pulses_before(tau), sched.interval, tau, cfg)


def default_time_grid(schedule, step=None):
    """Sampling grid: uniform step plus both sides of every pulse instant.

    The default step is min(gap, 1) / 20 with gap the smallest spacing
    of the double instants (t_0 = 0), so the kinks at pulse instants are
    always bracketed. That gap can sit an ulp below the interval (at dt
    0.32 or 0.064 over 25), and a step from the interval would then move
    every grid point; the step keeps the gap, as the grid fixes the rows
    of every sampled output. Each instant appears once exactly and once
    nudged just past it, which makes branch continuity visible in sampled
    output. More than MAX_POINTS points, the uniform ones and two per
    pulse, is a ValueError, raised before the grid is allocated.
    """
    horizon = schedule.horizon
    if step is None:
        step = float(np.min(np.diff(schedule.instants, prepend=0.0), initial=1.0)) / 20.0
    if not step > 0.0:
        raise ValueError(f"step must be > 0, got {step}")
    _check_size(horizon, step, "grid points", "time_step", schedule.count)
    inst, count = schedule.instants, max(1, int(round(horizon / step)))
    base = np.linspace(0.0, horizon, count + 1)
    grid = _sorted_distinct(np.concatenate([base, inst, np.nextafter(inst, np.inf)]))
    return grid[(grid >= 0.0) & (grid <= horizon)]
