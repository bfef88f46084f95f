"""Ohmic-class dephasing bath: spectral density, decoherence exponent, rate.

Everything is expressed in cutoff-scaled (reduced) units: times in
1/omega_c, frequencies in omega_c. A qubit dephasing against a bosonic
bath at zero temperature accumulates the exponent

    gamma0(tau) = integral_0^inf x^(s-2) exp(-x) (1 - cos(tau x)) dx,

where s is the Ohmicity of the bath. The closed form in terms of the
Euler gamma function is the production path. `oscillatory_quad`, the
one quadrature of the package (Gauss-Legendre panels, numpy only), is
its independent oracle: the integral of the spectrum weighted by the
pulse filter `filter_function_sq`, with its rule, range and integrand.
"""

import math
from dataclasses import dataclass
from functools import cache

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

    s < 1 is sub-Ohmic, s = 1 Ohmic, s > 1 super-Ohmic. The cutoff
    omega_c is the unit of frequency, so it is no parameter.
    """

    s: float

    def __post_init__(self):
        if not 0.0 < self.s < math.inf:
            raise ValueError(f"s must be finite and > 0, got {self.s}")


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the quadrature cross-check paths.

    An integral is accepted once its panels' error estimates add up to at most
    max(abs_tol, rel_tol |integral|); max_subdivisions caps its panel bisections.
    """

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

# Below 2^-60 gamma0's sub-Ohmic bracket, over s, is its s -> 0 limit to 7e-16
# relative; it is taken at 2^-60, where s log(1 - i tau) is a normal double.
_TINY_S = 2.0 ** -60


def _euler_gamma(x, s, t):
    """Gamma(x) of a prefactor at times t; its overflow past x ~ 171.6 is a ConvergenceError."""
    try:
        return math.gamma(x)
    except OverflowError:
        tau = float(t) if np.ndim(t) == 0 else None
        raise ConvergenceError(f"Gamma({x}) overflows a double at s={s}", s=s, tau=tau) from None


def spectral_density(spec, omega):
    """Spectral density at reduced frequency omega, i.e. omega^s e^(-omega)."""
    x = np.asarray(omega, dtype=float)
    if not np.all((0.0 <= x) & (x < math.inf)):   # also refuses NaN
        raise ValueError("omega must be finite and nonnegative")
    out = x ** spec.s * np.exp(-x)
    return float(out) if out.ndim == 0 else out


def _closed_forms(s, tau, orders=(0,), envelopes=False, rows=0):
    """gamma0 and its time derivatives of the given orders (0, 1, 2), then two envelopes.

    With z = 1 - i tau, L = log|z| and theta = arctan tau, order k is
    Gamma(a) e^(-a L) trig(a theta), a = s - 1 + k, trig = sin, cos for
    k = 1, 2; the envelopes, Gamma(a) e^(-a L) at a = s + 1 and s + 2, are
    the moduli of orders 2 and 3: each decreases in tau, so it bounds its
    derivative at every later time as well. Their Gamma(a) trig(a theta)
    takes a = max(a, _TINY_S): Gamma(s) overflows below s ~ 5.6e-309.
    Order 0, Gamma(s-1) (1 - Re z^(1-s)), is P (expm1(x) - 2 e^x h^2 +
    [s < 1/2] 2 tau e^x h sqrt(1 - h^2)), x = -a L, h = sin(a theta / 2):
    a = s - 1 and P = -Gamma(s-1) for s >= 1/2 (L at s = 1), and for
    s < 1/2 a = max(s, _TINY_S) and P = Gamma(s+1) / ((1-s) a), the
    bracket p + tau q of p + i q = expm1(-a log z). No bracket cancels by
    more than a factor of 2 and a keeps all of s's digits, so gamma0 keeps
    its own at small tau and near s = 0 and 1. L = log B + log1p(u^2) / 2
    and e^(-s L) = B^-s e^(-s log1p(u^2) / 2), B = max(1, tau), u =
    min(1, tau) / B, do not overflow past tau ~ 1.34e154.

    s holds an Ohmicity per row and rows (broadcast against tau, which must
    be finite and nonnegative) the row of each time. Every value is the
    double of its row alone, with the row's exponents as scalars.
    """
    t = np.asarray(tau, dtype=float)
    if not np.all((0.0 <= t) & (t < math.inf)):   # also refuses NaN
        raise ValueError("tau must be nonnegative and finite")
    big = np.maximum(t, 1.0)   # |z| = big e^half, L = log(big) + half
    half, angle = 0.5 * np.log1p((np.minimum(t, 1.0) / big) ** 2), np.arctan(t)
    s = np.ravel(s).tolist()

    def per_row(values):   # one value per row, at the row of every time
        return values[0] if len(values) == 1 else np.array(values)[rows]

    def modulus(shift, trig=None):   # Gamma(a) e^(-a L) trig(a theta), a = s + shift
        a = [max(x + shift, _TINY_S) for x in s]
        out = per_row([_euler_gamma(x, y, t) for x, y in zip(a, s)]) * scale * inverse ** shift
        return out if trig is None else out * trig(per_row(a) * angle)

    def exponent():
        low = [x < 0.5 for x in s]
        a = [max(x, _TINY_S) if sub else x - 1.0 for x, sub in zip(s, low)]
        prefactor = per_row([_euler_gamma(x + 1.0, x, t) / ((1.0 - x) * b) if sub else
                             -_euler_gamma(b, x, t) if b else 0.0 for x, sub, b in zip(s, low, a)])
        log_r, a = np.log(big) + half, per_row(a)
        x, h = -a * log_r, np.sin(0.5 * a * angle)
        e = np.exp(x)
        bracket = np.expm1(x) - 2.0 * e * h * h
        if any(low):
            bracket = bracket + per_row(low) * t * e * h * 2.0 * np.sqrt(1.0 - h * h)
        # L at s = 1; adding it, or 0.0, also turns a -0 at tau = 0 into 0
        return prefactor * bracket + (per_row([y == 1.0 for y in s]) * log_r if 1.0 in s else 0.0)

    if envelopes or any(orders):   # e^(-s L), and e^(-L) that takes it to e^(-(s + shift) L)
        scale = np.power(big, -per_row(s)) * np.exp(-per_row(s) * half)
        inverse = np.exp(-half) / big
    out = [modulus(k - 1, np.sin if k == 1 else np.cos) if k else exponent() for k in orders]
    return out + [modulus(1), modulus(2)] if envelopes else out


def gamma0(spec, tau):
    """Decoherence exponent of free (unpulsed) dephasing at time tau.

    The closed form of order 0 in _closed_forms. Accepts scalars or
    arrays; always nonnegative.
    """
    out = _closed_forms(spec.s, tau)[0]
    return float(out) if out.ndim == 0 else out


def gamma0_rate(spec, tau):
    """Instantaneous dephasing rate, the time derivative of gamma0.

    Closed form Gamma(s) sin(s arctan tau) / (1 + tau^2)^(s/2); regular
    for every s > 0 and temporarily negative only when s > 2.
    """
    out = _closed_forms(spec.s, tau, (1,))[0]
    return float(out) if out.ndim == 0 else out


def recoherence_onset(spec):
    """First zero tan(pi/s) of the rate, or None when s <= 2.

    Past this time the rate turns negative and coherence partially
    rebuilds, the hallmark of non-Markovian backflow.
    """
    if spec.s <= 2.0:
        return None
    return math.tan(math.pi / spec.s)


@cache
def _gauss_legendre():
    """Nodes on [0, 1] of the 24- and 12-point rules, and each rule's weights on all 36."""
    from numpy.polynomial.legendre import leggauss   # on the first quadrature call
    (x24, w24), (x12, w12) = leggauss(24), leggauss(12)
    weights = np.zeros((36, 2))
    weights[:24, 0], weights[24:, 1] = w24, w12
    return 0.5 * (np.concatenate((x24, x12)) + 1.0), 0.5 * weights


_MAX_PANELS = 1_000_000   # panels before any split: bounds the rule's arrays
_PANEL_BLOCK = 1024       # panels per integrand call: bounds its node arrays
_EPS = float(np.finfo(float).eps)


def _panel_sums(integrand, lo, hi):
    """24-point integral of every panel [lo, hi] and its distance to the 12-point one."""
    nodes, weights = _gauss_legendre()
    sums = np.empty((lo.size, 2))
    for first in range(0, lo.size, _PANEL_BLOCK):
        block = slice(first, first + _PANEL_BLOCK)
        width = (hi - lo)[block, None]
        sums[block] = integrand(lo[block, None] + width * nodes) @ weights * width
    return sums[:, 0], np.abs(sums[:, 0] - sums[:, 1])


def filter_function_sq(n, interval, tau, z):
    """Squared filter amplitude |y_n(z)|^2 for n pulses at m * interval before tau.

    y_n(z) = 1 + (-1)^(n+1) e^(iz) + 2 sum_m (-1)^m e^(iz t_m / tau),
    t_m = m * interval, m = 1 .. n; with no pulses (interval unused, may
    be None) this reduces to 2 (1 - cos z), and y_n(0) = 0 for every n.
    The pulses must lie inside (0, tau). z may be a scalar or an array of
    nonnegative phases.

    The sum is geometric: with theta = z t_1 / tau and psi = (theta + pi) / 2,
    sum_m (-1)^m e^(i m theta) = e^(i (n+1) psi) sin(n psi) / sin(psi).
    It depends on psi only modulo pi, so it is evaluated at the reduced
    angle eps = psi - k pi, k = rint(psi / pi), as
    e^(i (n+1) eps) sin(n eps) / sin(eps), whose limit n at eps = 0
    removes the resonances sin(psi) = 0; the cost per z is then
    independent of n.
    """
    z = np.asarray(z, dtype=float)
    if not np.all((0.0 <= z) & (z < math.inf)):   # also refuses NaN
        raise ValueError("z must be finite and nonnegative")
    if n < 0 or (n > 0 and not (interval is not None and 0.0 < n * interval < tau)):
        raise ValueError(f"{n} pulses at interval {interval} must lie in (0, tau), tau = {tau}")
    end = (-1.0) ** (n + 1)
    real, imag = 1.0 + end * np.cos(z), end * np.sin(z)
    if n:
        psi = 0.5 * (z * (interval / tau) + np.pi)
        eps = psi - np.pi * np.rint(psi / np.pi)
        den = np.sin(eps)
        ratio = 2.0 * np.divide(np.sin(n * eps), den, out=np.full_like(den, n),
                                where=den != 0.0)
        real += ratio * np.cos((n + 1) * eps)
        imag += ratio * np.sin((n + 1) * eps)
    out = real * real + imag * imag
    return float(out) if out.ndim == 0 else out


def oscillatory_quad(spec, n, interval, tau, cfg):
    """Integral of x^(s-2) e^-x |y_n(tau x)|^2 / 2 over x > 0, n pulses at m * interval before tau.

    In log space, by Gauss-Legendre panels no wider than pi / max(tau, 1)
    (half an oscillation of cos(tau x), or the decay scale of e^-x), the
    first graded toward 0, where the integrand may go like x^s. A first
    pass covers [0, L], L = max(20, 2|s-2| + 2), and as much past L as one
    integrand call of _PANEL_BLOCK panels reaches. The integrand is
    nonnegative, so that pass less its error estimate bounds the integral
    below: the range ends at the first X >= L, in steps of 1.25, where the
    tail bound 2 envelope X^(s-2) e^-X (envelope 2 (n+1)^2 = max |y_n|^2 / 2)
    is below max(abs_tol, eps * that bound) / 2, eps the double's relative
    spacing, and panels up to X join the first pass. While the panels' 24-
    against 12-point differences add up to more than max(cfg.abs_tol,
    cfg.rel_tol |integral|), every panel whose difference exceeds its
    width's share of that bound is bisected. ConvergenceError names (s,
    tau) for a non-finite integral, more than _MAX_PANELS initial panels
    or more than cfg.max_subdivisions bisections.
    """
    power = spec.s - 2.0
    lead = max(20.0, 2.0 * abs(power) + 2.0)

    def failure(what):
        return ConvergenceError(f"quadrature {what} at s={spec.s}, tau={tau}", s=spec.s, tau=tau)

    def check(end):
        if not end / width <= _MAX_PANELS:
            raise failure(f"needs {end / width:.3g} panels, more than {_MAX_PANELS:,},")

    def upper(lower_bound):   # the end of the range, for a lower bound on the integral
        log_bound = math.log(max(cfg.abs_tol, _EPS * lower_bound) / (8.0 * (n + 1.0) ** 2))
        end = lead
        while power * math.log(end) - end > log_bound:
            end *= 1.25
        return end

    def integrand(x):
        return np.exp(power * np.log(x) - x) * filter_function_sq(n, interval, tau, tau * x) / 2.0

    width = math.pi / max(tau, 1.0)
    grading = width * 0.25 ** np.arange(16.0, 0.0, -1.0)
    # panels that fill the first integrand call cost no extra call
    reach = max(lead, min(upper(0.0), (_PANEL_BLOCK - grading.size) * width))
    check(reach)
    edges = np.concatenate(([0.0], grading,
                            np.linspace(width, reach, max(1, math.ceil(reach / width - 1.0)) + 1)))
    splits = 0
    # a non-finite integral is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        value, error = _panel_sums(integrand, edges[:-1], edges[1:])
        end = max(reach, upper(max(value.sum() - error.sum(), 0.0)))
        if end > reach:
            check(end)
            more = np.linspace(reach, end, max(1, math.ceil((end - reach) / width)) + 1)
            more_value, more_error = _panel_sums(integrand, more[:-1], more[1:])
            edges = np.concatenate((edges, more[1:]))
            value, error = np.concatenate((value, more_value)), np.concatenate((error, more_error))
        while True:
            lo, hi = edges[:-1], edges[1:]
            total = value.sum()
            if not math.isfinite(total):
                raise failure("integral is not a finite double")
            bound = max(cfg.abs_tol, cfg.rel_tol * abs(total))
            if error.sum() <= bound:
                return float(total)
            split = error > bound * (hi - lo) / end
            splits += np.count_nonzero(split)
            if splits > cfg.max_subdivisions:
                raise failure(f"did not converge within {cfg.max_subdivisions} bisections")
            edges = np.sort(np.concatenate((edges, 0.5 * (lo[split] + hi[split]))))
            value, error = _panel_sums(integrand, edges[:-1], edges[1:])


def gamma0_quadrature(spec, tau, cfg=DEFAULT_QUADRATURE):
    """Free exponent by quadrature: oscillatory_quad without pulses, the check of gamma0."""
    tau = float(tau)
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    return oscillatory_quad(spec, 0, None, tau, cfg)
