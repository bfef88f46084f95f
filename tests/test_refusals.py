"""Every refusal of the library, one row each, checked by one test.

A row is (call, the exception it raises[, test id]): call is a partial of the callable
and its arguments; the exception must match in type, whole message and attributes (s and
tau of a ConvergenceError). Every raise in spectral, pulses, correlations and phase has a
row, so a new refusal means a new row. A row runs here as test_refusal_in_full[<its call>],
or as the "<module>::<test>[<id>]" it names, in a module that takes its tests with
globals().update(refusal_tests(__name__)).
"""

from functools import partial as call

import numpy as np
import pytest

from dd_discord import (BellDiagonalState, ConvergenceError, NoiseSide, OhmicSpectrum,
                        PulseSchedule, QuadratureConfig, Regime, RegimeLabel,
                        classical_correlations, classify, concurrence, controlled_gamma,
                        controlled_gamma_oracle, correlation_bits, decoherence_factor,
                        default_time_grid, discord, filter_function_sq, gamma0,
                        gamma0_quadrature, gamma0_rate, mutual_information, periodic_schedule,
                        phase_diagram, spectral_density, trajectory)
from dd_discord.pulses import MAX_POINTS, PulsedDecoherence
from dd_discord.spectral import _closed_forms
from conftest import group_tests

_LIMIT = "more than the limit of 1,000,000"
_NAN, _INF, _ONE = float("nan"), float("inf"), NoiseSide.ONE_SIDED
_SPEC, _SCHED, _STATE = OhmicSpectrum(1.5), periodic_schedule(0.3, 25.0), BellDiagonalState(0.5)
_TAU = "tau must be nonnegative and finite"   # the closed forms, at any order
_IN_25 = "tau must lie in [0, 25.0]"
_FILTER = "test_pulses::test_filter_function_validation"
_SCHEDULE = "test_pulses::test_schedule_validation"
_DOMAIN = "test_pulses::test_domain_errors"
_MAP = "test_phase::test_phase_diagram_validation"

_ROWS = [   # spectral, then pulses, correlations and phase
    *[(call(OhmicSpectrum, s), ValueError(f"s must be finite and > 0, got {s}"),
       "test_spectral::test_spectrum_validation") for s in (0.0, -1.5, _INF, _NAN)],
    *[(call(spectral_density, OhmicSpectrum(0.5), omega),
       ValueError("omega must be finite and nonnegative")) for omega in (-0.5, _NAN, _INF)],
    *[(call(fn, OhmicSpectrum(s), tau), ValueError(_TAU),
       "test_spectral::test_gamma0_negative_tau_rejected") for fn, s, tau in (
        (gamma0, 1.0, -0.1), (gamma0, 0.7, _INF), (gamma0_rate, 1.0, np.array([0.0, -2.0])))],
    *[(call(*fn[:2], tau, *fn[2:]), ValueError(_TAU),
       f"test_spectral::test_nan_time_is_rejected[{kind}-{name}]")
      for name, fn in (("gamma0", (gamma0, _SPEC)), ("gamma0_rate", (gamma0_rate, _SPEC)),
                       ("curvature", (_closed_forms, 1.5, (2,))),
                       ("envelopes", (_closed_forms, 1.5, (), True)))
      for kind, tau in (("scalar", _NAN), ("array", np.array([1.0, _NAN])))],
    (call(gamma0_quadrature, OhmicSpectrum(0.5), 1.0, QuadratureConfig(1e-15, 1e-300, 1)),
     ConvergenceError("quadrature did not converge within 1 bisections at s=0.5, tau=1.0",
                      s=0.5, tau=1.0), "test_spectral::test_quadrature_reports_nonconvergence"),
    # about 6.4e6 initial panels: refused before any is summed
    (call(gamma0_quadrature, OhmicSpectrum(1.0), 1e6), ConvergenceError(
        "quadrature needs 6.37e+06 panels, more than 1,000,000, at s=1.0, tau=1000000.0",
        s=1.0, tau=1e6)),
    *[(call(QuadratureConfig, **{name: zero}), ValueError(f"{name} must be {bound}, got {zero}"),
       "test_spectral::test_quadrature_config_validation") for name, zero, bound in (
        ("rel_tol", 0.0, "> 0"), ("abs_tol", 0.0, "> 0"), ("max_subdivisions", 0, ">= 1"))],
    # Gamma(s-1) overflows past s ~ 172.6, and Gamma(s) of the rate before it;
    # a scalar time is named, not a one-point array
    *[(call(fn, OhmicSpectrum(s), tau), ConvergenceError(
        f"Gamma({x}) overflows a double at s={s}", s=s, tau=None if np.ndim(tau) else tau))
      for fn, s, tau, x in ((gamma0, 200.0, 1.0, 199.0), (gamma0, 173.0, 1.0, 172.0),
                            (gamma0_rate, 180.0, np.array([1.0, 2.0]), 180.0))],
    # the quadratures integrate in log space: a non-finite integral is a failure;
    # tau = 1 is past the first pulse only
    *[(call(*oracle, 1.0), ConvergenceError(
        f"quadrature integral is not a finite double at s={s}, tau=1.0", s=s, tau=1.0))
      for s in (200.0, np.float64(200.0)) for oracle in (
          (gamma0_quadrature, OhmicSpectrum(s)),
          (controlled_gamma_oracle, OhmicSpectrum(s), periodic_schedule(0.5, 1.0)))],
    # a pulse beyond tau, at 0, none, and pulses without an interval
    *[(call(filter_function_sq, n, interval, 1.0, 1.0),
       ValueError(f"{n} pulses at interval {interval} must lie in (0, tau), tau = 1.0"), _FILTER)
      for n, interval in ((3, 0.5), (1, 0.0), (-1, 0.5), (2, None))],
    *[(call(filter_function_sq, 1, interval, 1.0, z),
       ValueError("z must be finite and nonnegative"), _FILTER)
      for interval, z in ((0.5, -1.0), (0.3, _NAN), (0.5, _INF))],
    # a schedule is (interval, horizon): tuples of instants are refused, () aside
    *[(call(PulseSchedule, instants, 5.0),
       TypeError(f"delta_tau must be a number or None, got the tuple {instants}"), _SCHEDULE)
      for instants in ((1.0, 1.0), (2.0, 1.0), (0.0, 1.0), (3.0, 6.0), (0.4, 0.9),
                       (0.3, 0.6, 0.9), (1.0,), (_NAN,), (1.0, _NAN))],
    *[(call(periodic_schedule, dt, 25.0), ValueError(f"delta_tau must be > 0, got {dt}"),
       _SCHEDULE) for dt in (0.0, -0.5, _NAN)],
    *[(call(periodic_schedule, dt, horizon), ValueError(f"horizon must be > 0, got {horizon}"),
       _SCHEDULE) for dt in (None, 0.3) for horizon in (0.0, -1.0, _NAN)],
    # refused before a pulse is built: 3e300 of them would never finish
    *[(call(periodic_schedule, 0.3, horizon),
       ValueError(f"horizon {horizon} / dt 0.3 asks for about {size} pulses, {_LIMIT}"),
       _SCHEDULE) for horizon, size in ((1e300, "3.33e+300"), (0.3 * (MAX_POINTS + 2), "1e+06"))],
    # outside the window, in the middle of an unsorted array
    *[(call(PulsedDecoherence(OhmicSpectrum(2.5), _SCHED).gamma_grid, np.array([2.0, tau, 1.0])),
       ValueError(_IN_25)) for tau in (-0.1, 25.5)],
    *[(call(*evaluate), ValueError(message), f"test_pulses::test_nan_time_is_out_of_range[{name}]")
      for name, evaluate, message in (
          ("gamma", (controlled_gamma, _SPEC, _SCHED, _NAN), _IN_25),
          ("gamma_grid", (PulsedDecoherence(_SPEC, _SCHED).gamma_grid, [1.0, _NAN]), _IN_25),
          ("controlled_gamma_oracle", (controlled_gamma_oracle, _SPEC, _SCHED, _NAN),
           "tau must be finite and lie in [0, 25.0], got nan"),
          ("gamma0_quadrature", (gamma0_quadrature, _SPEC, _NAN),
           "tau must be finite and nonnegative, got nan"))],
    *[(call(controlled_gamma, OhmicSpectrum(1.0), periodic_schedule(1.0, 10.0), tau),
       ValueError("tau must lie in [0, 10.0]"), _DOMAIN) for tau in (-0.1, 10.5)],
    # an infinite time would make the quadrature panels zero wide
    (call(gamma0_quadrature, OhmicSpectrum(1.0), _INF),
     ValueError("tau must be finite and nonnegative, got inf"), _DOMAIN),
    (call(controlled_gamma_oracle, OhmicSpectrum(1.0), periodic_schedule(None, _INF), _INF),
     ValueError("tau must be finite and lie in [0, inf], got inf"), _DOMAIN),
    # near s = 172 the pulse sums overflow
    (call(controlled_gamma, OhmicSpectrum(172.0), _SCHED, 3.6),
     ConvergenceError("exponent is not a finite double at s=172.0, tau=3.6", s=172.0, tau=3.6)),
    (call(default_time_grid, periodic_schedule(None, 2.0), step=-1.0),
     ValueError("dt None, time_step -1.0: the grid step must be > 0")),
    (call(default_time_grid, periodic_schedule(None, 1e9)), ValueError(
        f"horizon 1000000000.0 / time_step 0.05 asks for about 2e+10 grid points, {_LIMIT}")),
    # the uniform points and two per pulse count against the limit
    (call(default_time_grid, periodic_schedule(2.5e-5, 25.0), 1.0), ValueError(
        f"horizon 25.0 / time_step 1.0 and two at each of 1,000,000 pulses asks for about "
        f"2e+06 grid points, {_LIMIT}")),
    *[(call(BellDiagonalState, c), ValueError(f"c must satisfy |c| < 1, got {c}"),
       "test_correlations::test_state_validation") for c in (1.0, -1.2)],
    *[(call(decoherence_factor, gamma, _ONE),
       ValueError(f"gamma_value must be nonnegative, got {shown}"))
      for gamma, shown in ((-0.5, "-0.5"), (np.array([0.5, -0.5]), "[ 0.5 -0.5]"), (_NAN, "nan"))],
    *[(call(correlation_bits, x), ValueError(f"x must lie in [-1, 1], got {x}"))
      for x in (2.0, _NAN)],
    *[(call(fn, _STATE, factor), ValueError(f"factor must lie in [0, 1], got {shown}"),
       "test_correlations::test_factor_domain_checks")
      for bad, array in ((-0.1, "[ 0.5 -0.1]"), (1.1, "[0.5 1.1]"))
      for fn, factor, shown in ((mutual_information, bad, bad), (classical_correlations, bad, bad),
                                (discord, bad, bad), (discord, np.array([0.5, bad]), array))],
    *[(call(concurrence, _STATE, gamma),
       ValueError(f"gamma_value must be nonnegative, got {gamma}"),
       "test_correlations::test_concurrence_validation") for gamma in (-1.0, _NAN)],
    (call(trajectory, OhmicSpectrum(1.0), periodic_schedule(None, 10.0), BellDiagonalState(0.2),
          _ONE, grid=np.empty(0)), ValueError("grid must be nonempty")),
    *[(call(classify, _STATE, factor), ValueError(f"min_factor must lie in (0, 1], got {factor}"),
       "test_phase::test_classify_validation") for factor in (0.0, 1.5)],
    *[(call(RegimeLabel, *label),
       ValueError("transition_time must be present exactly for sudden transitions"),
       "test_phase::test_regime_label_validation")
      for label in ((Regime.TIME_INVARIANT, 1.0), (Regime.SUDDEN_TRANSITION,))],
    *[(call(phase_diagram, s, c, None, _ONE), ValueError(message), _MAP) for s, c, message in (
        ([0.0, 1.0], [0.0], "s_grid values must be > 0"),
        ([1.0], [0.5, 1.0], "c_grid values must satisfy |c| < 1"))],
    # an endless window is refused by the size checks, before any integer conversion
    (call(phase_diagram, [1.0], [0.5], None, _ONE, horizon=_INF),
     ValueError("horizon inf asks for about inf regime scan steps (at least 4 per pulse interval "
                f"and one per 0.125 of time), {_LIMIT}"), _MAP),
    (call(phase_diagram, [1.0], [0.5], 0.3, _ONE, horizon=_INF),
     ValueError(f"horizon inf / dt 0.3 asks for about inf pulses, {_LIMIT}"), _MAP),
]


def _name(fn):
    """The call as source: the callable's qualified name and the repr of each argument."""
    args = [repr(a) for a in fn.args] + [f"{k}={v!r}" for k, v in fn.keywords.items()]
    return f"{fn.func.__qualname__}({', '.join(args)})"


def _check(row, request):
    fn, want, *_ = row
    with pytest.raises(Exception) as caught:
        fn()
    got = caught.value
    assert (type(got), str(got), vars(got)) == (type(want), str(want), vars(want)), _name(fn)


def refusal_tests(module):
    """Test name -> its test, of the rows whose test id is in module."""
    nodes = [(row[2] if len(row) > 2 else f"test_refusals::test_refusal_in_full[{_name(row[0])}]")
             .partition("::") for row in _ROWS]
    return group_tests([(node, row) for (where, _, node), row in zip(nodes, _ROWS)
                        if where == module], _check)


globals().update(refusal_tests(__name__))
