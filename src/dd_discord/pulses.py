"""Bang-bang pulse schedules and the pulse-controlled decoherence exponent.

A train of instantaneous pi pulses applied during pure dephasing flips
the sign of the system-bath coupling at each pulse. The controlled
exponent then follows from signed combinations of the free exponent
gamma0 evaluated at pulse instants, pairwise pulse gaps, and the
intervals elapsed since each pulse. Equivalently, the pulses act in
frequency space through a filter |y_n(omega t)|^2 on the bath spectrum.
Both routes are implemented: the signed sum is the production path, the
filter-function quadrature the independent oracle.

For periodic schedules the signed sum collapses into alternating prefix
sums over the pulse index. Its schedule-only part costs O(pulses) once,
and times that sit at the same phase inside a period share one prefix
sum, so a time grid costs O(grid + distinct phases x pulses)
evaluations of gamma0 instead of O(grid x pulses).
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (DEFAULT_QUADRATURE, ConvergenceError, _tail_cutoff, gamma0,
                       oscillatory_quad)


@dataclass(frozen=True)
class PulseSchedule:
    """Strictly increasing pulse instants inside (0, horizon]."""

    instants: tuple
    horizon: float

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        inst = tuple(float(t) for t in self.instants)
        object.__setattr__(self, "instants", inst)
        if any(t <= 0.0 for t in inst):
            raise ValueError("pulse instants must be positive")
        if any(b <= a for a, b in zip(inst, inst[1:])):
            raise ValueError("pulse instants must be strictly increasing")
        if inst and inst[-1] > self.horizon:
            raise ValueError("pulse instants must not exceed the horizon")

    def __len__(self):
        return len(self.instants)

    def pulses_before(self, tau):
        """Number of pulses strictly earlier than tau.

        A query exactly at a pulse instant therefore belongs to the
        preceding branch; continuity makes the choice observationally
        irrelevant.
        """
        return bisect_left(self.instants, tau)


# most pulses in a periodic schedule, and most points in a sampling grid
MAX_POINTS = 1_000_000


def _check_size(horizon, step, what, step_name):
    """Refuse, before allocating, a horizon / step ratio above MAX_POINTS."""
    if not horizon / step <= MAX_POINTS:
        raise ValueError(
            f"horizon {horizon} / {step_name} {step} asks for about {horizon / step:.3g} "
            f"{what}, more than the limit of {MAX_POINTS:,}")


def periodic_schedule(delta_tau, horizon):
    """Equally spaced pulses t_n = n * delta_tau, as many as fit the horizon.

    delta_tau > horizon yields an empty schedule (free evolution over
    the same window). More than MAX_POINTS pulses is a ValueError.
    """
    if not delta_tau > 0.0:
        raise ValueError(f"delta_tau must be > 0, got {delta_tau}")
    if not horizon > 0.0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    _check_size(horizon, delta_tau, "pulses", "dt")
    count = int(math.floor(horizon / delta_tau))
    if (count + 1) * delta_tau <= horizon:  # floor landed one short
        count += 1
    while count > 0 and count * delta_tau > horizon:  # float overshoot
        count -= 1
    return PulseSchedule(tuple(n * delta_tau for n in range(1, count + 1)), horizon)


def schedule_for(pulse_interval, horizon):
    """Periodic schedule with the given interval; None means free evolution."""
    if pulse_interval is None:
        return PulseSchedule((), horizon)
    return periodic_schedule(pulse_interval, horizon)


def _is_periodic(instants):
    """True when instants are exactly k * instants[0], k = 1 .. N (N >= 1)."""
    count = instants.size
    return bool(count) and np.array_equal(
        instants, np.arange(1, count + 1) * instants[0])


# table entries per block of the shared-phase sums: bounds their working set
_PHASE_BLOCK = 4096


class PulsedDecoherence:
    """Controlled decoherence exponent for one bath and schedule.

    With n pulses t_1 < ... < t_n before tau the exponent is

        static[n] + (-1)^n gamma0(tau) + 2 sum_k (-1)^k gamma0(tau - t_(n-k)),

    k = 0 .. n-1, where static[n] collects the single-instant and
    pairwise-gap terms and is accumulated once at construction.

    For a periodic schedule (t_k exactly k * t_1, as periodic_schedule
    builds it) every gap t_m - t_j is itself an instant, so static takes
    two prefix sums over the N instants. The elapsed sum becomes
    sum_k (-1)^k gamma0(r + t_k) with t_0 = 0 and the phase r = tau - t_n,
    which is exact by Sterbenz's lemma. Grid points with exactly equal
    phases share one alternating prefix sum, so a grid costs one gamma0
    evaluation per point plus one per (distinct phase, pulse) pair.
    Other schedules pay n evaluations per point and O(N^2) at
    construction. A single time is the same sum with one phase.
    An exponent that overflows a double raises ConvergenceError.
    Instances are immutable after construction and safe to share across
    threads.
    """

    def __init__(self, spec, schedule):
        self.spec = spec
        self.schedule = schedule
        t = np.asarray(schedule.instants, dtype=float)
        count = t.size
        self._instants = t
        self._signs = (-1.0) ** np.arange(count)   # (-1)^k, k = 0 .. N-1
        self._periodic = _is_periodic(t)
        self._starts = np.concatenate(([0.0], t))   # t_0 = 0, t_1, ..., t_N
        # near the overflow edge (s ~ 172) these sums leave non-finite
        # entries; gamma and gamma_grid report any exponent they reach
        with np.errstate(over="ignore", invalid="ignore"):
            singles = np.atleast_1d(gamma0(spec, t)) * self._signs   # (-1)^(n+1) G(t_n)
            if self._periodic:
                # the gap sum of pulse n is sum_k (-1)^(k+1) G(t_k), k < n
                gaps = np.concatenate(([0.0], np.cumsum(singles)[:-1]))
            else:
                gaps = np.zeros(count)
                for n in range(1, count):
                    gaps[n] = np.dot(self._signs[n - 1::-1],
                                     gamma0(spec, t[n] - t[:n]))
            self._static = np.concatenate(([0.0], np.cumsum(2.0 * singles + 4.0 * gaps)))

    def _check(self, tau_min, tau_max):
        if tau_min < 0.0 or tau_max > self.schedule.horizon:
            raise ValueError(
                f"tau must lie in [0, {self.schedule.horizon}]")

    def _elapsed_args(self, taus, n):
        """Arguments tau - t_(n-k), k = 0 .. n-1, of the elapsed sum (n >= 1)."""
        if self._periodic:
            return (taus - self._starts[n]) + self._starts[:n]
        return taus - self._instants[n - 1::-1]

    def _alternating(self, args):
        """Prefix sums of (-1)^k gamma0(args[..., k]) along the last axis."""
        width = args.shape[-1]
        return np.cumsum(gamma0(self.spec, args) * self._signs[:width], axis=-1)

    def _unclamped(self, taus, counts, elapsed):
        """The exponent from its three parts, before the clamp at zero."""
        return (self._static[counts] + (-1.0) ** counts * gamma0(self.spec, taus)
                + 2.0 * elapsed)

    def _not_finite(self, tau):
        s = self.spec.s
        return ConvergenceError(
            f"exponent is not a finite double at s={s}, tau={tau}", s=s, tau=tau)

    def gamma(self, tau):
        """Exponent at a single time (pulse instants use the earlier branch)."""
        tau = float(tau)
        self._check(tau, tau)
        n = bisect_left(self.schedule.instants, tau)
        elapsed = self._alternating(self._elapsed_args(tau, n))[-1] if n else 0.0
        value = float(self._unclamped(tau, n, elapsed))
        if not math.isfinite(value):
            raise self._not_finite(tau)
        return max(value, 0.0)

    def gamma_grid(self, taus):
        """Vectorized exponent over an ascending time grid."""
        taus = np.asarray(taus, dtype=float)
        if taus.size == 0:
            return np.empty(0)
        if np.any(np.diff(taus) < 0.0):
            raise ValueError("grid must be ascending")
        self._check(float(taus[0]), float(taus[-1]))
        counts = np.searchsorted(self._instants, taus, side="left")
        # an overflowing sum is reported just below, as a non-finite exponent
        with np.errstate(over="ignore", invalid="ignore"):
            if self._periodic:
                elapsed = self._phase_sums(taus - self._starts[counts], counts)
            else:
                elapsed = np.zeros_like(taus)
                for n in np.unique(counts[counts > 0]):
                    pick = counts == n
                    args = self._elapsed_args(taus[pick][:, None], n)
                    elapsed[pick] = self._alternating(args)[:, -1]
            out = self._unclamped(taus, counts, elapsed)
        bad = ~np.isfinite(out)
        if bad.any():
            raise self._not_finite(float(taus[bad][0]))
        return np.maximum(out, 0.0)

    def _phase_sums(self, phases, counts):
        """Elapsed sums of points with phases r = tau - t_n after counts n pulses.

        Each distinct phase gets one table row of alternating prefix sums,
        from the empty sum up to its largest count. Phases go longest
        first, in blocks of at most _PHASE_BLOCK table entries, so every
        row of a block fits the block's first width.
        """
        distinct, which = np.unique(phases, return_inverse=True)
        longest = np.zeros(distinct.size, dtype=int)
        np.maximum.at(longest, which, counts)
        order = np.argsort(-longest, kind="stable")
        point_rank = np.argsort(order)[which]   # table row of each point's phase
        by_rank = np.argsort(point_rank, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(np.bincount(point_rank))))
        out = np.empty(phases.size)
        first = 0
        while first < order.size:
            width = int(longest[order[first]])
            stop = min(order.size, first + max(1, _PHASE_BLOCK // (width + 1)))
            table = np.zeros((stop - first, width + 1))
            table[:, 1:] = self._alternating(
                distinct[order[first:stop], None] + self._starts[:width])
            pts = by_rank[bounds[first]:bounds[stop]]
            out[pts] = table[point_rank[pts] - first, counts[pts]]
            first = stop
        return out


@lru_cache(maxsize=256)
def _cached_evaluator(spec, schedule):
    return PulsedDecoherence(spec, schedule)


def controlled_gamma(spec, sched, tau):
    """Pulse-controlled decoherence exponent at time tau.

    Piecewise in the number of elapsed pulses; reduces to gamma0 for an
    empty schedule and stays continuous across pulse instants.
    """
    return _cached_evaluator(spec, sched).gamma(tau)


def filter_function_sq(instants, tau, z):
    """Squared filter amplitude |y_n(z)|^2 for the pulses before tau.

    y_n(z) = 1 + (-1)^(n+1) e^(iz) + 2 sum_m (-1)^m e^(iz t_m / tau);
    with no pulses this reduces to 2 (1 - cos z), and y_n(0) = 0 for
    every n. The pulse fractions t_m / tau must lie inside (0, 1).
    z may be a scalar or an array of nonnegative phases.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ValueError("z must be nonnegative")
    inst = np.asarray(instants, dtype=float)
    n = inst.size
    if n:
        if not tau > 0.0:
            raise ValueError("tau must be positive when pulses are present")
        deltas = inst / tau
        if np.any((deltas <= 0.0) | (deltas >= 1.0)):
            raise ValueError("pulse fractions t_m/tau must lie in (0, 1)")
        signs = (-1.0) ** np.arange(1, n + 1)
        y = (1.0
             + (-1.0) ** (n + 1) * np.exp(1j * z)
             + 2.0 * np.exp(1j * np.multiply.outer(z, deltas)) @ signs)
    else:
        y = 1.0 - np.exp(1j * z)
    out = np.abs(y) ** 2
    return float(out) if out.ndim == 0 else out


def controlled_gamma_oracle(spec, sched, tau, cfg=DEFAULT_QUADRATURE):
    """Controlled exponent by quadrature of the filter-weighted spectrum.

    Integrates x^(s-2) e^-x |y_n(x tau)|^2 / 2 over frequency with the
    pulses that precede tau. Independent of the signed-sum path; used to
    cross-check it.
    """
    tau = float(tau)
    if tau < 0.0 or tau > sched.horizon:
        raise ValueError(f"tau must lie in [0, {sched.horizon}], got {tau}")
    if tau == 0.0:
        return 0.0
    s = spec.s
    prefix = np.asarray(sched.instants[: sched.pulses_before(tau)], dtype=float)
    n = prefix.size
    upper = _tail_cutoff(s, tau, cfg.abs_tol, 0.5 * (2.0 * n + 2.0) ** 2)
    deltas = prefix / tau
    end_sign = (-1.0) ** (n + 1)
    signs = (-1.0) ** np.arange(1, n + 1)

    def integrand(x):
        if x <= 0.0:
            return 0.0
        z = tau * x
        y = 1.0 + end_sign * complex(math.cos(z), math.sin(z))
        if n:
            y = y + 2.0 * np.dot(signs, np.exp(1j * z * deltas))
        return x ** (s - 2.0) * math.exp(-x) * 0.5 * abs(y) ** 2

    return oscillatory_quad(integrand, upper, tau, cfg, s=s, tau=tau)


def default_time_grid(schedule, step=None):
    """Sampling grid: uniform step plus both sides of every pulse instant.

    The default step is min(gap/20, 0.05) with gap the smallest pulse
    spacing, so the kinks at pulse instants are always bracketed; each
    instant appears once exactly and once nudged just past it, which
    makes branch continuity visible in sampled output. More than
    MAX_POINTS uniform points is a ValueError.
    """
    horizon = schedule.horizon
    inst = np.asarray(schedule.instants, dtype=float)
    if step is None:
        step = 0.05
        if inst.size:
            gaps = np.diff(np.concatenate(([0.0], inst)))
            step = min(step, float(gaps.min()) / 20.0)
    if not step > 0.0:
        raise ValueError(f"step must be > 0, got {step}")
    _check_size(horizon, step, "grid points", "time_step")
    count = max(1, int(round(horizon / step)))
    base = np.linspace(0.0, horizon, count + 1)
    if inst.size:
        base = np.concatenate([base, inst, np.nextafter(inst, np.inf)])
    grid = np.unique(base)
    return grid[(grid >= 0.0) & (grid <= horizon)]
