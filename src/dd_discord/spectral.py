"""Ohmic-class dephasing bath: spectral density, decoherence exponent, rate.

Everything is expressed in cutoff-scaled (reduced) units: times in
1/omega_c, frequencies in omega_c. A qubit dephasing against a bosonic
bath at zero temperature accumulates the exponent

    gamma0(tau) = integral_0^inf x^(s-2) exp(-x) (1 - cos(tau x)) dx,

where s is the Ohmicity of the bath. The closed form in terms of the
Euler gamma function is the production path; `gamma0_quadrature`
evaluates the integral directly and exists as an independent
cross-check of the closed form. Only that cross-check needs scipy, so
scipy is imported inside it and the closed forms load numpy alone.
"""

import math
from dataclasses import dataclass

import numpy as np


class ConvergenceError(RuntimeError):
    """A numerical failure at (s, tau).

    Adaptive quadrature missed the requested tolerance, or a result is
    not representable as a finite double.
    """

    def __init__(self, message, s=None, tau=None):
        super().__init__(message)
        self.s = s
        self.tau = tau


@dataclass(frozen=True)
class OhmicSpectrum:
    """Bath with spectral density x^s e^(-x) in cutoff units.

    s < 1 is sub-Ohmic, s = 1 Ohmic, s > 1 super-Ohmic. omega_c fixes
    the unit system only; no reduced-unit formula depends on it.
    """

    s: float
    omega_c: float = 1.0

    def __post_init__(self):
        if not self.s > 0.0:
            raise ValueError(f"s must be > 0, got {self.s}")
        if not self.omega_c > 0.0:
            raise ValueError(f"omega_c must be > 0, got {self.omega_c}")


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the quadrature cross-check paths."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 10_000

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if not self.abs_tol > 0.0:
            raise ValueError(f"abs_tol must be > 0, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions}")


DEFAULT_QUADRATURE = QuadratureConfig()

# The gamma-function prefactor of the closed form has a pole at s = 1
# that cancels only analytically; switch to the logarithmic Ohmic form
# inside this window.
_OHMIC_WINDOW = 1e-6


def _euler_gamma(x, s, t):
    """Euler Gamma(x), the prefactor of gamma0 or its rate at times t.

    Gamma overflows a double for x above about 171.6; that is reported
    as a numerical failure at Ohmicity s (and tau, when t is a single
    time), not as a silent inf.
    """
    try:
        return math.gamma(x)
    except OverflowError:
        tau = float(t) if np.ndim(t) == 0 else None
        raise ConvergenceError(
            f"Gamma({x}) overflows a double at s={s}", s=s, tau=tau) from None


def _as_times(tau):
    arr = np.asarray(tau, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("tau must be nonnegative")
    return arr


def spectral_density(spec, omega):
    """Spectral density at reduced frequency omega, i.e. omega^s e^(-omega)."""
    x = np.asarray(omega, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("omega must be nonnegative")
    out = x ** spec.s * np.exp(-x)
    return float(out) if out.ndim == 0 else out


def gamma0(spec, tau):
    """Decoherence exponent of free (unpulsed) dephasing at time tau.

    Evaluates the closed form

        Gamma(s-1) * [1 - cos((s-1) arctan tau) / (1 + tau^2)^((s-1)/2)]

    for s != 1 (the gamma prefactor continues analytically through
    0 < s < 1) and (1/2) log(1 + tau^2) at s = 1. Accepts scalars or
    arrays; always nonnegative.
    """
    t = _as_times(tau)
    s = spec.s
    if abs(s - 1.0) < _OHMIC_WINDOW:
        out = 0.5 * np.log1p(t * t)
    else:
        a = s - 1.0
        bracket = 1.0 - np.cos(a * np.arctan(t)) * (1.0 + t * t) ** (-0.5 * a)
        # exact value is >= 0; clamp sub-epsilon rounding at tiny tau
        prefactor = _euler_gamma(a, s, t)
        out = np.maximum(prefactor * bracket, 0.0)
    return float(out) if out.ndim == 0 else out


def gamma0_rate(spec, tau):
    """Instantaneous dephasing rate, the time derivative of gamma0.

    Closed form Gamma(s) sin(s arctan tau) / (1 + tau^2)^(s/2); regular
    for every s > 0 and temporarily negative only when s > 2.
    """
    t = _as_times(tau)
    s = spec.s
    prefactor = _euler_gamma(s, s, t)
    out = prefactor * np.sin(s * np.arctan(t)) * (1.0 + t * t) ** (-0.5 * s)
    return float(out) if out.ndim == 0 else out


def recoherence_onset(spec):
    """First zero tan(pi/s) of the rate, or None when s <= 2.

    Past this time the rate turns negative and coherence partially
    rebuilds, the hallmark of non-Markovian backflow.
    """
    if spec.s <= 2.0:
        return None
    return math.tan(math.pi / spec.s)


def _tail_cutoff(power, abs_tol, envelope):
    """Upper limit X with envelope * integral_X^inf x^power e^-x dx below abs_tol/2."""
    # integral_X^inf x^p e^-x dx <= 2 X^p e^-X once X >= 2|p| + 2
    x = max(20.0, 2.0 * abs(power) + 2.0)
    while x < 700.0 and 2.0 * envelope * x ** power * math.exp(-x) > 0.5 * abs_tol:
        x *= 1.25
    return x


def oscillatory_quad(integrand, upper, osc_rate, cfg, *, s, tau):
    """Integrate on [0, upper] with panels no wider than pi/osc_rate.

    The panel cap keeps each subinterval inside half an oscillation of
    cos(osc_rate * x); panels are then integrated adaptively. Raises
    ConvergenceError naming (s, tau) if any panel exhausts
    cfg.max_subdivisions without reaching tolerance.
    """
    from scipy import integrate   # quadrature oracles only; keeps import lean

    if osc_rate > 0.0:
        n_panels = max(1, int(math.ceil(upper * osc_rate / math.pi)))
    else:
        n_panels = 1
    edges = np.linspace(0.0, upper, n_panels + 1)
    eps_abs = cfg.abs_tol / n_panels
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        out = integrate.quad(integrand, lo, hi, epsabs=eps_abs,
                             epsrel=cfg.rel_tol, limit=cfg.max_subdivisions,
                             full_output=1)
        if len(out) > 3:
            raise ConvergenceError(
                f"quadrature did not converge at s={s}, tau={tau}: {out[3]}",
                s=s, tau=tau)
        total += out[0]
    return total


def gamma0_quadrature(spec, tau, cfg=DEFAULT_QUADRATURE):
    """Decoherence exponent by direct adaptive quadrature (cross-check path).

    Independent of the closed form: integrates
    x^(s-2) e^-x * 2 sin^2(tau x / 2) on [0, X] with X chosen so the
    exponential tail sits below cfg.abs_tol.
    """
    t = float(tau)
    if t < 0.0:
        raise ValueError("tau must be nonnegative")
    if t == 0.0:
        return 0.0
    s = spec.s
    upper = _tail_cutoff(s - 2.0, cfg.abs_tol, 2.0)

    def integrand(x):
        if x <= 0.0:
            return 0.0
        half = math.sin(0.5 * t * x)
        return x ** (s - 2.0) * math.exp(-x) * 2.0 * half * half

    return oscillatory_quad(integrand, upper, t, cfg, s=s, tau=t)
