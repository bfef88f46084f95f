import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from dd_discord import (
    ConvergenceError,
    OhmicSpectrum,
    PulseSchedule,
    QuadratureConfig,
    controlled_gamma_oracle,
    gamma0,
    gamma0_quadrature,
    gamma0_rate,
    recoherence_onset,
    spectral_density,
)
from dd_discord.spectral import _euler_gamma
from oracles import bisect_sign_change, central_difference


def test_spectrum_validation():
    with pytest.raises(ValueError):
        OhmicSpectrum(0.0)
    with pytest.raises(ValueError):
        OhmicSpectrum(-1.5)
    with pytest.raises(ValueError):
        OhmicSpectrum(1.0, omega_c=0.0)


def test_spectral_density_values():
    spec = OhmicSpectrum(0.5)
    assert abs(spectral_density(spec, 4.0) - 2.0 * np.exp(-4.0)) < 1e-15
    assert spectral_density(OhmicSpectrum(2.0), 0.0) == 0.0
    out = spectral_density(OhmicSpectrum(1.0), np.array([0.0, 1.0, 2.0]))
    assert_allclose(out, [0.0, np.exp(-1.0), 2.0 * np.exp(-2.0)], rtol=1e-14)
    with pytest.raises(ValueError):
        spectral_density(spec, -0.5)


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
    # the general formula must stay accurate right up to the branch window
    for s in (1.0 - 2e-6, 1.0 + 2e-6):
        spec = OhmicSpectrum(s)
        for tau in (0.5, 5.0, 25.0):
            assert abs(gamma0(spec, tau) - gamma0_quadrature(spec, tau)) < 1e-8


def test_gamma0_vectorized_matches_scalar():
    spec = OhmicSpectrum(2.5)
    taus = np.linspace(0.0, 20.0, 57)
    grid = gamma0(spec, taus)
    assert grid.shape == taus.shape
    for t, g in zip(taus[::8], grid[::8]):
        assert g == gamma0(spec, float(t))


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


def test_gamma0_negative_tau_rejected():
    with pytest.raises(ValueError):
        gamma0(OhmicSpectrum(1.0), -0.1)
    with pytest.raises(ValueError):
        gamma0_rate(OhmicSpectrum(1.0), np.array([0.0, -2.0]))


def test_quadrature_reports_nonconvergence():
    cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=1)
    with pytest.raises(ConvergenceError) as err:
        gamma0_quadrature(OhmicSpectrum(0.5), 1.0, cfg)
    assert err.value.s == 0.5
    assert err.value.tau == 1.0
    assert "s=0.5" in str(err.value)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)


def test_sub_ohmic_uses_continued_gamma():
    # 0<s<1 needs the reflected gamma function; both factors flip sign
    spec = OhmicSpectrum(0.5)
    val = gamma0(spec, 2.0)
    assert val > 0.0
    assert special.gamma(spec.s - 1.0) < 0.0


def test_gamma_prefactor_against_mpmath():
    # Gamma(s-1) in gamma0 and Gamma(s) in gamma0_rate, against 40-digit
    # mpmath; s - 1 = 0 is the pole the Ohmic branch never evaluates
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


def test_gamma_overflow_is_a_convergence_error():
    with pytest.raises(ConvergenceError) as err:
        gamma0(OhmicSpectrum(200.0), 1.0)
    assert (err.value.s, err.value.tau) == (200.0, 1.0)
    assert "s=200" in str(err.value)
    with pytest.raises(ConvergenceError) as err:
        gamma0_rate(OhmicSpectrum(180.0), np.array([1.0, 2.0]))
    assert (err.value.s, err.value.tau) == (180.0, None)
    # the quadrature oracles overflow in their tail bound x^(s-2) instead
    for s in (200.0, np.float64(120.0)):
        spec = OhmicSpectrum(s)
        for oracle in (lambda: gamma0_quadrature(spec, 1.0),
                       lambda: controlled_gamma_oracle(spec, PulseSchedule((0.5,), 2.0), 1.0)):
            with pytest.raises(ConvergenceError) as err:
                oracle()
            assert (err.value.s, err.value.tau) == (s, 1.0)
            assert f"s={s}" in str(err.value)
