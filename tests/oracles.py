"""Independent reference implementations used only by the tests.

These recompute package results from first principles (explicit density
matrices, eigenvalue entropies, projective-measurement sweeps, Wootters
concurrence, finite differences, term-by-term filter sums, scipy's
adaptive quadrature, mpmath at 30 digits) so the production paths are
checked against genuinely different routes.
"""

import cmath
import math

import mpmath
import numpy as np
from scipy import integrate

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)


def bell_diagonal_rho(c, factor):
    """Explicit 4x4 state: Bell mixture with coherences scaled by factor."""
    rho = np.zeros((4, 4))
    rho[0, 0] = rho[3, 3] = (1.0 + c) / 4.0
    rho[1, 1] = rho[2, 2] = (1.0 - c) / 4.0
    rho[0, 3] = rho[3, 0] = factor * (1.0 + c) / 4.0
    rho[1, 2] = rho[2, 1] = factor * (1.0 - c) / 4.0
    return rho


def partial_trace_b(rho):
    return np.einsum("ijkj->ik", rho.reshape(2, 2, 2, 2))


def partial_trace_a(rho):
    return np.einsum("ijik->jk", rho.reshape(2, 2, 2, 2))


def von_neumann_bits(rho):
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > 1e-15]
    return float(-np.sum(vals * np.log2(vals)))


def mutual_information_oracle(c, factor):
    """S(A) + S(B) - S(AB) from the explicit matrix."""
    rho = bell_diagonal_rho(c, factor)
    return (von_neumann_bits(partial_trace_b(rho))
            + von_neumann_bits(partial_trace_a(rho))
            - von_neumann_bits(rho))


def classical_correlations_oracle(c, factor, n_theta=25, n_phi=41):
    """Projective-measurement sweep on qubit B over a Bloch-direction grid.

    The default grid has 1025 directions and contains the coordinate
    axes exactly, where the optimum sits for this state family.
    """
    rho = bell_diagonal_rho(c, factor).astype(complex)
    s_a = von_neumann_bits(partial_trace_b(rho))
    best = -np.inf
    for theta in np.linspace(0.0, np.pi, n_theta):
        for phi in np.linspace(0.0, 2.0 * np.pi, n_phi):
            direction = (np.sin(theta) * np.cos(phi) * _SX
                         + np.sin(theta) * np.sin(phi) * _SY
                         + np.cos(theta) * _SZ)
            conditional = 0.0
            for sign in (1.0, -1.0):
                proj = np.kron(_EYE2, 0.5 * (_EYE2 + sign * direction))
                sub = proj @ rho @ proj
                p = float(np.trace(sub).real)
                if p > 1e-12:
                    conditional += p * von_neumann_bits(partial_trace_b(sub) / p)
            best = max(best, s_a - conditional)
    return best


def wootters_concurrence(rho):
    """Concurrence from the spin-flipped spectrum of an explicit matrix."""
    rho = rho.astype(complex)
    yy = np.kron(_SY, _SY)
    product = rho @ yy @ rho.conj() @ yy
    vals = np.sort(np.sqrt(np.abs(np.linalg.eigvals(product).real)))
    return max(0.0, float(vals[3] - vals[2] - vals[1] - vals[0]))


def central_difference(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def bisect_sign_change(f, lo, hi, xtol):
    """Root of f by bisection; requires f(lo) and f(hi) of opposite sign."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi < 0.0, "no sign change in bracket"
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def naive_controlled_gamma(gamma0_fn, instants, tau):
    """Signed pulse expansion transcribed directly, with explicit loops."""
    past = [t for t in instants if t < tau]
    n = len(past)
    total = (-1.0) ** n * gamma0_fn(tau)
    for m in range(1, n + 1):
        total += 2.0 * (-1.0) ** (m + 1) * gamma0_fn(past[m - 1])
        total += 2.0 * (-1.0) ** (m + n) * gamma0_fn(tau - past[m - 1])
        for j in range(1, m):
            total += 4.0 * (-1.0) ** (m - 1 + j) * gamma0_fn(past[m - 1] - past[j - 1])
    return total


def general_controlled_gamma(gamma0_fn, instants, taus):
    """The expansion of naive_controlled_gamma at many times, for any instants.

    Nothing assumes equal spacing: the pair terms take gamma0 of every
    difference t_m - t_j, and a point after n pulses takes gamma0 of
    tau - t_m for each of them, the points grouped by n. gamma0_fn must
    accept arrays. Returns the exponents clamped at zero.
    """
    t = np.asarray(instants, dtype=float)
    taus = np.asarray(taus, dtype=float)
    counts = np.searchsorted(t, taus, side="left")   # pulses strictly before tau
    # static[n]: the terms of the pulses m <= n that do not involve tau
    static = np.zeros(t.size + 1)
    for m in range(1, t.size + 1):
        j = np.arange(1, m)
        pairs = np.dot(4.0 * (-1.0) ** (m - 1 + j), gamma0_fn(t[m - 1] - t[:m - 1])) if m > 1 else 0.0
        static[m] = static[m - 1] + 2.0 * (-1.0) ** (m + 1) * gamma0_fn(t[m - 1]) + pairs
    total = (-1.0) ** counts * gamma0_fn(taus) + static[counts]
    for n in np.unique(counts[counts > 0]):
        pick = counts == n
        m = np.arange(1, n + 1)
        total[pick] += gamma0_fn(taus[pick][:, None] - t[:n]) @ (2.0 * (-1.0) ** (m + n))
    return np.maximum(total, 0.0)


def naive_filter_sq(instants, tau, z):
    """|y_n(z)|^2 for the pulses `instants` before tau, one complex exponential per pulse.

    y_n(z) = 1 + (-1)^(n+1) e^(iz) + 2 sum_m (-1)^m e^(iz t_m / tau), summed
    term by term for a scalar z, with no closed form for any schedule.
    """
    n = len(instants)
    y = 1.0 + (-1.0) ** (n + 1) * cmath.exp(1j * z)
    for m, t_m in enumerate(instants, start=1):
        y += 2.0 * (-1.0) ** m * cmath.exp(1j * z * t_m / tau)
    return abs(y) ** 2


def scipy_filter_integral(s, instants, tau, rel_tol=1e-10, abs_tol=1e-12):
    """Filter-weighted bath integral by scipy's adaptive quad, panel by panel.

    Integrates x^(s-2) e^-x |y_n(tau x)|^2 / 2 over x > 0 for the pulses
    `instants` (all before tau) with a scalar integrand in linear space,
    on panels no wider than pi/tau, and cuts the tail once its bound
    envelope * 2 X^(s-2) e^-X is below abs_tol/2.
    """
    n = len(instants)
    deltas = np.asarray(instants, dtype=float) / tau
    signs = 2.0 * (-1.0) ** np.arange(1, n + 1)
    end_sign = (-1.0) ** (n + 1)
    envelope = 0.5 * (2.0 * n + 2.0) ** 2
    # integral_X^inf x^p e^-x dx <= 2 X^p e^-X once X >= 2|p| + 2
    upper = max(20.0, 2.0 * abs(s - 2.0) + 2.0)
    while 2.0 * envelope * upper ** (s - 2.0) * math.exp(-upper) > 0.5 * abs_tol:
        upper *= 1.25

    def integrand(x):
        if x <= 0.0:
            return 0.0
        z = tau * x
        y = 1.0 + end_sign * complex(math.cos(z), math.sin(z))
        y += np.dot(signs, np.exp(1j * z * deltas))
        return x ** (s - 2.0) * math.exp(-x) * 0.5 * abs(y) ** 2

    n_panels = max(1, math.ceil(upper * tau / math.pi))
    edges = np.linspace(0.0, upper, n_panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        out = integrate.quad(integrand, lo, hi, epsabs=abs_tol / n_panels,
                             epsrel=rel_tol, limit=10_000, full_output=1)
        assert len(out) == 3, f"scipy quad did not converge on [{lo}, {hi}]: {out[3]}"
        total += out[0]
    return total


def mp_controlled_exponent(s, dt, tau, dps=30):
    """Exponent, rate and curvature at tau under pulses t_m = m * dt, in mpmath.

    The pulses are the float products m * dt (as periodic_schedule builds
    them) strictly before tau; dt None is free evolution. Works at dps
    digits from the closed forms of the free exponent and its two
    derivatives, and sums the pairwise gaps t_m - t_j by their length:
    n - d pairs lie d * dt apart. Returns three mpf values.
    """
    with mpmath.workdps(dps):
        s, t = mpmath.mpf(s), mpmath.mpf(tau)
        prefactors = [mpmath.gamma(s - 1) if s != 1 else None, mpmath.gamma(s), mpmath.gamma(s + 1)]

        def free(x):
            """gamma0 and its first two derivatives at x."""
            angle, base = mpmath.atan(x), 1 + x * x
            if s == 1:
                value = mpmath.log(base) / 2
            else:
                value = prefactors[0] * (1 - mpmath.cos((s - 1) * angle) * base ** ((1 - s) / 2))
            rate = prefactors[1] * mpmath.sin(s * angle) * base ** (-s / 2)
            curvature = prefactors[2] * mpmath.cos((s + 1) * angle) * base ** (-(s + 1) / 2)
            return value, rate, curvature

        instants = [] if dt is None else [
            mpmath.mpf(m * dt) for m in range(1, int(float(tau) / dt) + 2) if m * dt < float(tau)]
        n = len(instants)
        total = [(-1) ** n * v for v in free(t)]
        singles = [free(tm)[0] for tm in instants]
        for m, tm in enumerate(instants, start=1):
            total[0] += 2 * (-1) ** (m + 1) * singles[m - 1]
            for k, v in enumerate(free(t - tm)):
                total[k] += 2 * (-1) ** (m + n) * v
        for d in range(1, n):
            total[0] += 4 * (n - d) * (-1) ** (d - 1) * singles[d - 1]
        return tuple(total)


def mp_newton(f, lo, hi, dps=30, steps=200):
    """Root of f in [lo, hi] at dps digits, where f changes sign; f(x) returns (value, slope).

    Newton steps from the midpoint, with a bisection wherever a step
    would leave the bracket, which shrinks around the sign change.
    """
    with mpmath.workdps(dps):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        rising = f(hi)[0] > f(lo)[0]
        x = (lo + hi) / 2
        for _ in range(steps):
            value, slope = f(x)
            if (value > 0) == rising:
                hi = x
            else:
                lo = x
            step = x - value / slope if slope else lo - 1
            step = step if lo < step < hi else (lo + hi) / 2
            if abs(step - x) < mpmath.mpf(10) ** (5 - dps) * max(1, abs(x)):
                return +step
            x = step
    raise AssertionError("mpmath Newton did not converge")
