"""Independent reference implementations used only by the tests.

These recompute package results from first principles (explicit density
matrices, eigenvalue entropies, projective-measurement sweeps, Wootters
concurrence, finite differences, term-by-term filter sums, scipy's
adaptive quadrature, mpmath at 30 digits) so the production paths are
checked against genuinely different routes.
"""

import cmath
import functools
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


def _mp_eig2(a, d, b):
    """Eigenvalues of the Hermitian 2x2 matrix [[a, b], [conj(b), d]]."""
    mid, radius = (a + d) / 2, mpmath.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
    return [mid - radius, mid + radius]


def _mp_entropy_bits(values):
    return -mpmath.fsum(v * mpmath.log(v, 2) for v in values if v > 0)


def mp_bell_correlations(c, factor, dps=40):
    """Mutual information, classical correlations, discord and concurrence in mpmath.

    From the explicit state of bell_diagonal_rho at dps digits: the entropies
    of its two 2x2 blocks and of its marginals, projective measurements of
    qubit B along the three coordinate axes (where the optimum sits for this
    family), and the X-state form of Wootters' concurrence,
    2 max(0, |rho_14| - sqrt(rho_22 rho_33), |rho_23| - sqrt(rho_11 rho_44)).
    Discord, their difference, is ~ min(factor, |c|)^2 / ln 4, so the work
    takes twice its decades more digits. Returns four mpf values.
    """
    c, f = mpmath.mpf(c), mpmath.mpf(factor)
    least = min(abs(c), f)
    with mpmath.workdps(dps + (2 * int(-mpmath.log10(least)) if 0 < least < 1 else 0)):
        rho = mpmath.matrix(4, 4)
        rho[0, 0] = rho[3, 3] = (1 + c) / 4
        rho[1, 1] = rho[2, 2] = (1 - c) / 4
        rho[0, 3] = rho[3, 0] = f * (1 + c) / 4
        rho[1, 2] = rho[2, 1] = f * (1 - c) / 4

        def entropy_2x2(m):
            return _mp_entropy_bits(_mp_eig2(mpmath.re(m[0][0]), mpmath.re(m[1][1]), m[0][1]))

        def trace_b(m):   # index 2 i + j is qubit A in i, qubit B in j
            return [[m[2 * i, 2 * k] + m[2 * i + 1, 2 * k + 1] for k in range(2)] for i in range(2)]

        s_a = entropy_2x2(trace_b(rho))
        s_b = entropy_2x2([[rho[j, k] + rho[2 + j, 2 + k] for k in range(2)] for j in range(2)])
        joint = _mp_entropy_bits(_mp_eig2(rho[0, 0], rho[3, 3], rho[0, 3])
                                 + _mp_eig2(rho[1, 1], rho[2, 2], rho[1, 2]))
        mutual = s_a + s_b - joint
        paulis = ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
        conditional = []
        for pauli in paulis:
            total = mpmath.mpf(0)
            for sign in (1, -1):
                project = mpmath.matrix(4, 4)   # 1 (x) (1 + sign pauli) / 2
                for i in range(2):
                    for j in range(2):
                        for k in range(2):
                            flip = sign * mpmath.mpc(pauli[j][k])
                            project[2 * i + j, 2 * i + k] = (int(j == k) + flip) / 2
                sub = project * rho * project
                p = mpmath.re(sum(sub[i, i] for i in range(4)))
                if p > 0:
                    total += p * entropy_2x2([[x / p for x in row] for row in trace_b(sub)])
            conditional.append(total)
        classical = s_a - min(conditional)
        concurrence = 2 * max(mpmath.mpf(0), abs(rho[0, 3]) - mpmath.sqrt(rho[1, 1] * rho[2, 2]),
                              abs(rho[1, 2]) - mpmath.sqrt(rho[0, 0] * rho[3, 3]))
        return mutual, classical, mutual - classical, concurrence


def _np_gamma0(s):
    """gamma0 at an array of times, transcribed from the defining closed form."""
    def fn(tau):
        tau = np.asarray(tau, dtype=float)
        if s == 1.0:
            return 0.5 * np.log1p(tau * tau)
        a = s - 1.0
        return math.gamma(a) * (1.0 - np.cos(a * np.arctan(tau)) * (1.0 + tau * tau) ** (-a / 2.0))
    return fn


@functools.lru_cache(maxsize=8)
def _mp_scan(s, dt, horizon):
    """Pulses t_m = m * dt <= horizon, a scan grid of [0, horizon] and the exponent on it.

    dt None is free evolution. The grid has 4,000 steps, every instant and
    the double just past it, so neighbours lie on one branch or straddle
    one pulse. The exponent is general_controlled_gamma's, in double, of
    the closed form transcribed in _np_gamma0. Cached: callers must not
    write to the arrays.
    """
    instants = np.array([] if dt is None else [m * dt for m in range(1, int(horizon / dt) + 2)
                                               if m * dt <= horizon])
    grid = np.unique(np.concatenate((np.linspace(0.0, horizon, 4001), instants,
                                     np.nextafter(instants, np.inf))))
    grid = grid[grid <= horizon]
    return instants, grid, general_controlled_gamma(_np_gamma0(s), instants, grid)


def mp_max_exponent(s, dt, horizon, dps=30):
    """Maximum over [0, horizon] of the exponent under pulses t_m = m * dt, in mpmath.

    dt None is free evolution. _mp_scan brackets the three highest sampled
    maxima; each is the value at its sample or at a neighbour across a
    pulse, or at the zero of the rate between the neighbours on its branch
    when the rate changes sign there.
    Every value is mp_controlled_exponent's.
    """
    instants, grid, scan = _mp_scan(s, dt, horizon)
    rising = np.append(True, scan[1:] >= scan[:-1])
    falling = np.append(scan[:-1] >= scan[1:], True)
    tops = np.nonzero(rising & falling)[0]
    best = mpmath.mpf(0)

    @functools.lru_cache(maxsize=None)
    def at(t):
        return mp_controlled_exponent(s, dt, t, dps)

    for i in tops[np.argsort(-scan[tops])][:3]:
        branch = np.searchsorted(instants, grid[i])   # pulses strictly before the sample
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        across = [t for t in (lo, hi) if np.searchsorted(instants, t) != branch]
        best = max(best, at(grid[i])[0], *(at(t)[0] for t in across))
        lo, hi = (grid[i] if t in across else t for t in (lo, hi))
        if at(lo)[1] > 0 > at(hi)[1]:
            best = max(best, at(mp_newton(lambda x: at(x)[1:], lo, hi, dps))[0])
    return best


def mp_first_crossing(s, dt, horizon, level, dps=30):
    """First time the exponent under pulses t_m = m * dt exceeds level, in mpmath.

    _mp_scan brackets it by its first sample above level: the root of
    mp_controlled_exponent - level between that sample and the one before.
    Two samples that straddle a pulse are one double apart.
    """
    _, grid, scan = _mp_scan(s, dt, horizon)
    i = int(np.argmax(scan > level))
    assert scan[i] > level, "no sample exceeds the level"

    def excess(x):
        g, rate, _ = mp_controlled_exponent(s, dt, x, dps)
        return g - level, rate

    return mp_newton(excess, grid[i - 1], grid[i], dps)
