import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from dd_discord import (
    ConvergenceError,
    OhmicSpectrum,
    controlled_gamma,
    controlled_gamma_oracle,
    gamma0,
    gamma0_quadrature,
    gamma0_rate,
    periodic_schedule,
    recoherence_onset,
    spectral_density,
)
from dd_discord import spectral
from dd_discord.spectral import _closed_forms, _euler_gamma
from oracles import bisect_sign_change, central_difference, mp_controlled_exponent
from test_refusals import refusal_tests
globals().update(refusal_tests(__name__))   # this module's rows of the library refusal table


def test_spectral_density_values():
    spec = OhmicSpectrum(0.5)
    assert abs(spectral_density(spec, 4.0) - 2.0 * np.exp(-4.0)) < 1e-15
    assert spectral_density(OhmicSpectrum(2.0), 0.0) == 0.0
    out = spectral_density(OhmicSpectrum(1.0), np.array([0.0, 1.0, 2.0]))
    assert_allclose(out, [0.0, np.exp(-1.0), 2.0 * np.exp(-2.0)], rtol=1e-14)


def test_gamma0_reference_points():
    # s=4, tau=1 integrates in closed form to exactly 5/2
    assert abs(gamma0(OhmicSpectrum(4.0), 1.0) - 2.5) < 1e-12
    assert abs(gamma0(OhmicSpectrum(1.0), 1.0) - 0.5 * np.log(2.0)) < 1e-14
    for s in (0.3, 1.0, 2.5):
        assert gamma0(OhmicSpectrum(s), 0.0) == 0.0


def test_gamma0_long_time_plateau():
    # for s>1 the exponent saturates at Gamma(s-1); s=4 gives Gamma(3)=2
    spec = OhmicSpectrum(4.0)
    assert abs(gamma0(spec, 1e3) - 2.0) < 1e-4
    assert abs(gamma0_quadrature(spec, 1e3) - 2.0) < 1e-4


@pytest.mark.parametrize("s", [0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("tau", [0.05, 0.7, 2.0, 13.0])
def test_gamma0_closed_form_vs_quadrature(s, tau):
    spec = OhmicSpectrum(s)
    closed = gamma0(spec, tau)
    quad = gamma0_quadrature(spec, tau)
    assert abs(closed - quad) < 1e-9 * max(1.0, abs(closed))


def test_gamma0_just_outside_ohmic_branch():
    # 2e-6 from s = 1, where an Ohmic special case once took over: the
    # s >= 1/2 form holds right up to s = 1, which only it evaluates as L
    for s in (1.0 - 2e-6, 1.0 + 2e-6):
        spec = OhmicSpectrum(s)
        for tau in (0.5, 5.0, 25.0):
            assert abs(gamma0(spec, tau) - gamma0_quadrature(spec, tau)) < 1e-8


# near s = 0 and s = 1 and at small tau, where gamma0's forms must not cancel
AUDIT_S = [2.0 ** -60, 1e-16, 1e-12, 1e-10, 1e-6, 0.1, 0.3, 0.49, 0.5, 0.7, 1 - 1e-9, 1.0,
           1 + 1e-12, 1.0000011, 1.5, 3.0, 5.9, 20.0, 60.0, 150.0]
AUDIT_TAU = np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.5, 1.0, 3.0, 25.0, 1e4, 1e8])


def test_closed_forms_against_mpmath():
    # 150 digits: 1 - Re z^(1-s) cancels up to 24 digits at tau = 1e-12, and
    # Gamma(s-1) has up to 18 more near s = 0 and s = 1. Orders 1 and 2 and
    # the envelopes are measured against their moduli where those are normal
    # doubles; above s = 6 the roundings of a theta and of a log1p(u^2) / 2
    # add up to 2 a ulps.
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    for s in AUDIT_S:
        got = _closed_forms(s, AUDIT_TAU, (0, 1, 2), True)
        for j, tau in enumerate(AUDIT_TAU):
            with mpmath.workdps(150):
                free = mp_controlled_exponent(s, None, tau, dps=150)
                base, a = 1 + mpmath.mpf(tau) ** 2, mpmath.mpf(s)
                moduli = [mpmath.gamma(a + k) * base ** (-(a + k) / 2) for k in (0, 1, 2)]
                assert abs(got[0][j] / free[0] - 1) <= 2e-15, (s, tau)
                bound = 2.5e-15 + (2 * (s + 2) * eps if s > 6 else 0.0)
                for k, (value, modulus) in enumerate(zip(got[1:], moduli[:2] + moduli[1:])):
                    want = free[k + 1] if k < 2 else modulus
                    assert modulus < tiny or abs(value[j] - want) <= bound * modulus, (s, tau, k)


@pytest.mark.parametrize("s", [1e-100, 1e-300, 1e-310, 5e-324])
def test_gamma0_at_tiny_s_is_its_s_to_zero_limit(s):
    # tau arctan tau - log1p(tau^2) / 2, without an inf or a NaN from 1 / s,
    # or a subnormal s L that keeps only some of s's digits
    taus = np.array([1e-8, 1.0, 1e4])
    got = gamma0(OhmicSpectrum(s), taus)
    with mpmath.workdps(40):
        for tau, value in zip(taus, got):
            t = mpmath.mpf(tau)
            assert abs(value / (t * mpmath.atan(t) - mpmath.log1p(t * t) / 2) - 1) <= 2e-15


@pytest.mark.parametrize("s", [1e-300, 1e-310, 5e-324])
def test_rate_at_tiny_s_is_its_s_to_zero_limit(s):
    # arctan tau, with no overflow of Gamma(s) below s ~ 5.6e-309, and no
    # subnormal s arctan tau that keeps only some of its digits
    taus = np.array([1e-8, 1.0, 1e4])
    got = gamma0_rate(OhmicSpectrum(s), taus)
    with mpmath.workdps(40):
        for tau, value in zip(taus, got):
            assert abs(value / mpmath.atan(mpmath.mpf(tau)) - 1) <= 4e-16


def test_gamma0_vectorized_matches_scalar():
    # a scalar is the same double as its point in an array; ** on a numpy
    # float64 calls another pow, whose last bit 1 - cos * pow amplifies
    taus = np.linspace(0.0, 20.0, 57)
    for s in (0.1, 0.5, 0.999, 1.3, 2.5):
        spec = OhmicSpectrum(s)
        for fn in (gamma0, gamma0_rate):
            grid = fn(spec, taus)
            assert grid.shape == taus.shape
            assert [fn(spec, float(t)) for t in taus] == grid.tolist()


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0])
def test_gamma0_monotone_up_to_marginal_spectrum(s):
    taus = np.linspace(0.0, 40.0, 1000)
    vals = gamma0(OhmicSpectrum(s), taus)
    assert np.all(np.diff(vals) >= -1e-13)


@pytest.mark.parametrize("s", [2.5, 3.0, 4.0, 6.0])
def test_gamma0_first_peak_super_ohmic(s):
    # above s=2 the exponent peaks where the rate first changes sign
    taus = np.linspace(1e-3, 12.0, 4000)
    vals = gamma0(OhmicSpectrum(s), taus)
    peak = taus[np.argmax(vals)]
    step = taus[1] - taus[0]
    assert abs(peak - np.tan(np.pi / s)) < 1.5 * step


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 3.5])
@pytest.mark.parametrize("tau", [0.3, 1.7, 9.0])
def test_rate_matches_finite_difference(s, tau):
    spec = OhmicSpectrum(s)
    approx = central_difference(lambda t: gamma0(spec, t), tau)
    assert abs(gamma0_rate(spec, tau) - approx) < 1e-6


def test_rate_zero_crossing_matches_onset():
    for s in (2.5, 3.0, 4.0, 6.0):
        spec = OhmicSpectrum(s)
        # upper end chosen inside the first negative lobe of the rate
        angle = 0.5 * (np.pi + min(2.0 * np.pi, 0.5 * s * np.pi))
        root = bisect_sign_change(lambda t: gamma0_rate(spec, t),
                                  1e-3, np.tan(angle / s), xtol=1e-9)
        assert abs(root - np.tan(np.pi / s)) < 1e-6
        assert abs(root - recoherence_onset(spec)) < 1e-6


def test_rate_nonnegative_at_or_below_quadratic_spectrum():
    taus = np.linspace(0.0, 50.0, 1000)
    for s in (0.5, 1.0, 1.5, 2.0):
        rates = gamma0_rate(OhmicSpectrum(s), taus)
        assert np.all(rates >= -1e-13)
        assert recoherence_onset(OhmicSpectrum(s)) is None


def test_recoherence_onset_values():
    assert abs(recoherence_onset(OhmicSpectrum(4.0)) - 1.0) < 1e-14
    assert abs(recoherence_onset(OhmicSpectrum(3.0)) - np.sqrt(3.0)) < 1e-14
    assert recoherence_onset(OhmicSpectrum(2.0)) is None


def _curvature(spec, tau):
    return _closed_forms(spec.s, tau, (2,))[0]


def _envelopes(spec, tau):
    return _closed_forms(spec.s, tau, (), envelopes=True)


@pytest.mark.parametrize("s", [0.3, 1.0, 2.5, 5.9])
def test_curvature_and_its_envelopes(s):
    spec = OhmicSpectrum(s)
    taus = np.linspace(0.0, 12.0, 241)
    curvature = _curvature(spec, taus)
    for tau, value in zip(taus[1::40], curvature[1::40]):
        assert abs(value - central_difference(lambda t: gamma0_rate(spec, t), tau)) < 1e-6
    second, third = _envelopes(spec, taus)
    assert np.all(np.abs(curvature) <= second * (1.0 + 1e-14))
    jerk = np.abs([central_difference(lambda t: _curvature(spec, t), tau) for tau in taus[1:]])
    assert np.all(jerk <= third[1:] * (1.0 + 1e-6) + 1e-6)
    # both envelopes decrease, so the value at a time bounds every later one
    assert np.all(np.diff(second) <= 0.0) and np.all(np.diff(third) <= 0.0)


def test_quadrature_tail_is_cut_relative_to_the_integral(spy):
    # an integral of 2.35e78: a tail cut at abs_tol alone evaluated 143,299 panels
    panels = spy(spectral, "_panel_sums", lambda lo, **_: lo.size)
    spec = OhmicSpectrum(60.0)
    assert abs(gamma0_quadrature(spec, 1000.0) / gamma0(spec, 1000.0) - 1.0) < 1e-9
    assert sum(panels) < 143_299 / 2


def test_quadrature_refuses_too_many_panels_before_summing(monkeypatch):
    # tau = 1e6 asks for about 6.4e6 initial panels: refused before any is summed
    summed = []
    monkeypatch.setattr(spectral, "_panel_sums", lambda *args: summed.append(args))
    with pytest.raises(ConvergenceError):
        gamma0_quadrature(OhmicSpectrum(1.0), 1e6)
    assert not summed


def test_sub_ohmic_uses_continued_gamma():
    # 0<s<1 needs the reflected gamma function; both factors flip sign
    spec = OhmicSpectrum(0.5)
    val = gamma0(spec, 2.0)
    assert val > 0.0
    assert special.gamma(spec.s - 1.0) < 0.0


def test_gamma_prefactor_against_mpmath():
    # Gamma(s-1) in gamma0 (s >= 1/2) and Gamma(s) in gamma0_rate, against
    # 40-digit mpmath; at s = 1, gamma0 is L and evaluates no Gamma
    worst = 0.0
    with mpmath.workdps(40):
        for s in np.linspace(0.0, 7.0, 1401)[1:]:
            for x in (s - 1.0, s):
                if x == 0.0:
                    continue
                ref = mpmath.gamma(mpmath.mpf(float(x)))
                err = abs(_euler_gamma(x, s, 1.0) - ref) / math.ulp(float(ref))
                worst = max(worst, float(err))
    assert worst <= 8.0


@pytest.mark.parametrize("s", [0.3, 0.5, 1.0, 1.5, 3.0])
def test_gamma0_past_the_overflow_of_tau_squared(s):
    # 1 + tau^2 overflows a double past tau ~ 1.34e154; its logarithm does not
    want = float(mp_controlled_exponent(s, None, 1e160, dps=40)[0])
    got = gamma0(OhmicSpectrum(s), 1e160)
    assert abs(got / want - 1.0) <= 1e-13
    assert np.array_equal(gamma0(OhmicSpectrum(s), np.array([1.0, 1e160])), [gamma0(OhmicSpectrum(s), 1.0), got])


def test_gamma_overflow_is_a_convergence_error():
    # s at or below 2^-54, where s - 1 rounds to -1, a pole of Gamma(s-1):
    # the exponent is finite, and gamma0 takes the form with Gamma(s+1)
    for s in (1e-17, 2.0 ** -54, 5e-324):
        got = gamma0(OhmicSpectrum(s), np.array([1.0, 2.0]))
        assert got[0] == gamma0(OhmicSpectrum(s), 1.0)
        with mpmath.workdps(400):
            for tau, value in zip((1.0, 2.0), got):
                assert abs(value / mp_controlled_exponent(s, None, tau, dps=400)[0] - 1) <= 2e-15
    # the quadrature oracles integrate in log space: they follow the closed
    # form up to its own overflow
    one_pulse = periodic_schedule(0.5, 1.0)   # tau = 1 is past the first pulse only
    for s in (120.0, np.float64(120.0)):
        spec = OhmicSpectrum(s)
        assert abs(gamma0_quadrature(spec, 1.0) / gamma0(spec, 1.0) - 1.0) < 1e-9
        closed = controlled_gamma(spec, one_pulse, 1.0)
        assert abs(controlled_gamma_oracle(spec, one_pulse, 1.0) / closed - 1.0) < 1e-9
