import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from dd_discord import (
    BellDiagonalState,
    NoiseSide,
    OhmicSpectrum,
    classical_correlations,
    concurrence,
    correlation_bits,
    decoherence_factor,
    discord,
    mutual_information,
    periodic_schedule,
    trajectory,
)
from oracles import (
    bell_diagonal_rho,
    classical_correlations_oracle,
    mutual_information_oracle,
    wootters_concurrence,
)

# correlation_bits values frozen from the explicit eigenvalue route
BITS_03 = 0.065931944624509
BITS_05 = 0.18872187554086714
BITS_07 = 0.3901596952835995
MUTUAL_HALF_PURE = 1.188721875540867  # c=0.5, undamped coherences


def test_state_validation():
    BellDiagonalState(0.0)
    BellDiagonalState(-0.4)
    with pytest.raises(ValueError):
        BellDiagonalState(1.0)
    with pytest.raises(ValueError):
        BellDiagonalState(-1.2)


def test_decoherence_factor():
    assert decoherence_factor(0.0, NoiseSide.ONE_SIDED) == 1.0
    assert abs(decoherence_factor(1.0, NoiseSide.ONE_SIDED) - np.exp(-1.0)) < 1e-15
    # both qubits coupled doubles the exponent
    assert abs(decoherence_factor(1.0, NoiseSide.TWO_SIDED) - np.exp(-2.0)) < 1e-15
    # arrays in, arrays out; a scalar call is the matching array element
    gammas = np.array([0.0, 0.3, 1.0, 7.5, 1e308])
    for side in NoiseSide:
        vector = decoherence_factor(gammas, side)
        for g, from_vector in zip(gammas, vector):
            value = decoherence_factor(float(g), side)
            assert type(value) is float
            assert value == from_vector
    with pytest.raises(ValueError):
        decoherence_factor(-0.5, NoiseSide.ONE_SIDED)
    with pytest.raises(ValueError):
        decoherence_factor(np.array([0.5, -0.5]), NoiseSide.ONE_SIDED)
    with pytest.raises(ValueError, match="gamma_value"):
        decoherence_factor(np.nan, NoiseSide.ONE_SIDED)
    assert decoherence_factor(np.inf, NoiseSide.ONE_SIDED) == 0.0


def test_correlation_bits_reference_values():
    assert correlation_bits(0.0) == 0.0
    assert abs(correlation_bits(0.3) - BITS_03) < 1e-14
    assert abs(correlation_bits(0.5) - BITS_05) < 1e-14
    assert abs(correlation_bits(0.7) - BITS_07) < 1e-14
    assert correlation_bits(1.0) == 1.0
    assert correlation_bits(-0.3) == correlation_bits(0.3)
    for x in (2.0, np.nan):
        with pytest.raises(ValueError, match="x must"):
            correlation_bits(x)


def test_correlation_bits_against_mpmath():
    xs = [0.0, 1e-12, -1e-12, 0.5, -0.5, 1.0 - 1e-12, -(1.0 - 1e-12), 1.0, -1.0]

    def reference(x):
        x = mpmath.mpf(x)
        terms = [y * mpmath.log(y, 2) for y in (1 + x, 1 - x) if y != 0]
        return sum(terms) / 2

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vector = correlation_bits(np.array(xs))
        with mpmath.workdps(40):
            for x, from_vector in zip(xs, vector):
                value = correlation_bits(x)
                assert type(value) is float
                assert value == from_vector
                # values lie in [0, 1]: the error budget is absolute, two ulp of 1
                assert abs(value - reference(x)) <= 2.0 * np.finfo(float).eps


def test_correlation_bits_relative_error_against_mpmath():
    # below |x| = 1/2 the value is O(x^2): hold it to a relative budget
    xs = np.geomspace(1e-140, 0.5, 120, endpoint=False)
    xs = np.concatenate([xs, -xs, [np.nextafter(0.5, 0.0)]])

    def reference(x):
        x = mpmath.mpf(x)
        return sum(y * mpmath.log(y, 2) for y in (1 + x, 1 - x)) / 2

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = correlation_bits(xs)
    with mpmath.workdps(320):
        for x, value in zip(xs, values):
            exact = reference(float(x))
            assert abs(value - exact) <= 4.0 * np.finfo(float).eps * exact


def test_correlation_bits_monotone():
    xs = np.linspace(0.0, 1.0, 500)
    vals = correlation_bits(xs)
    assert np.all(np.diff(vals) >= 0.0)


def test_mutual_information_values():
    state = BellDiagonalState(0.5)
    assert abs(mutual_information(state, 1.0) - MUTUAL_HALF_PURE) < 1e-12
    assert abs(mutual_information(BellDiagonalState(0.0), 0.3) - BITS_03) < 1e-12
    # additivity in the two binary channels
    assert abs(mutual_information(state, 0.3)
               - (BITS_05 + BITS_03)) < 1e-12


def test_mutual_information_against_entropy_oracle():
    rng = np.random.default_rng(20260817)
    for _ in range(20):
        c = float(rng.uniform(0.0, 0.98))
        f = float(rng.uniform(0.0, 1.0))
        got = mutual_information(BellDiagonalState(c), f)
        want = mutual_information_oracle(c, f)
        assert abs(got - want) < 1e-10


def test_classical_correlations_values():
    assert abs(classical_correlations(BellDiagonalState(0.0), 0.7) - BITS_07) < 1e-12
    # below the population asymmetry the factor stops mattering
    state = BellDiagonalState(0.5)
    for f in (0.0, 0.2, 0.5):
        assert abs(classical_correlations(state, f) - BITS_05) < 1e-12
    assert abs(classical_correlations(state, 0.9) - correlation_bits(0.9)) < 1e-12


def test_classical_correlations_against_measurement_sweep():
    cases = [(0.0, 0.6), (0.3, 0.3), (0.5, 0.9), (0.7, 0.2),
             (0.9, 0.5), (0.2, 1.0), (0.8, 0.8), (0.4, 0.0)]
    for c, f in cases:
        got = classical_correlations(BellDiagonalState(c), f)
        want = classical_correlations_oracle(c, f)
        assert abs(got - want) < 1e-6


def test_discord_dichotomy():
    # above the crossover discord depends only on populations
    state = BellDiagonalState(0.4)
    for f in (0.4, 0.6, 0.8, 1.0):
        assert abs(discord(state, f) - correlation_bits(0.4)) < 1e-12
    # below it, only on the damped coherences
    for f in (0.0, 0.1, 0.3):
        assert abs(discord(state, f) - correlation_bits(f)) < 1e-12


def test_correlations_monotone_in_factor():
    state = BellDiagonalState(0.5)
    fs = np.linspace(0.0, 1.0, 200)
    mutual = np.array([mutual_information(state, f) for f in fs])
    classical = np.array([classical_correlations(state, f) for f in fs])
    disc = np.array([discord(state, f) for f in fs])
    # each scalar call is the matching element of one array call
    assert np.array_equal(mutual, mutual_information(state, fs))
    assert np.array_equal(classical, classical_correlations(state, fs))
    assert np.array_equal(disc, discord(state, fs))
    for measure in (mutual_information, classical_correlations, discord):
        assert type(measure(state, 0.3)) is float
    assert np.all(np.diff(mutual) >= -1e-13)
    assert np.all(np.diff(classical) >= -1e-13)
    assert np.all(np.diff(disc) >= -1e-13)
    assert np.all(disc >= -1e-15)


def test_discord_is_mutual_minus_classical():
    rng = np.random.default_rng(7)
    for _ in range(50):
        c = float(rng.uniform(0.0, 0.98))
        f = float(rng.uniform(0.0, 1.0))
        state = BellDiagonalState(c)
        lhs = discord(state, f)
        rhs = mutual_information(state, f) - classical_correlations(state, f)
        assert abs(lhs - rhs) < 1e-14


def test_factor_domain_checks():
    state = BellDiagonalState(0.5)
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            mutual_information(state, bad)
        with pytest.raises(ValueError):
            classical_correlations(state, bad)
        with pytest.raises(ValueError):
            discord(state, bad)
        with pytest.raises(ValueError):
            discord(state, np.array([0.5, bad]))


def test_concurrence_reference_values():
    assert abs(concurrence(BellDiagonalState(0.5), 0.0) - 0.5) < 1e-15
    # e^{-G}=0.5 at c=0.5: max{0, 0.25-0.5, 0.75-0.5} = 0.25... scaled by 1/2
    g = np.log(2.0)
    assert abs(concurrence(BellDiagonalState(0.5), g) - 0.125) < 1e-14
    # deep damping kills the entanglement entirely
    assert concurrence(BellDiagonalState(0.5), np.log(5.0)) == 0.0
    for c in (0.0, 0.3, 0.9):
        assert abs(concurrence(BellDiagonalState(c), 0.0) - c) < 1e-15
    gammas = np.array([0.0, g, np.log(5.0)])
    vector = concurrence(BellDiagonalState(0.5), gammas)
    assert vector.tolist() == [concurrence(BellDiagonalState(0.5), x) for x in gammas]
    # even in c
    assert concurrence(BellDiagonalState(-0.5), gammas).tolist() == vector.tolist()


def test_concurrence_sudden_death_threshold():
    # entanglement survives iff the factor exceeds (1-c)/(1+c)
    for c in (0.2, 0.5, 0.8):
        threshold = (1.0 - c) / (1.0 + c)
        g_star = -np.log(threshold)
        assert concurrence(BellDiagonalState(c), g_star + 1e-6) == 0.0
        assert concurrence(BellDiagonalState(c), g_star - 1e-6) > 0.0


def test_concurrence_against_wootters_oracle():
    rng = np.random.default_rng(42)
    for _ in range(30):
        c = float(rng.uniform(0.0, 0.98))
        g = float(rng.uniform(0.0, 3.0))
        for signed in (c, -c):
            got = concurrence(BellDiagonalState(signed), g)
            want = wootters_concurrence(bell_diagonal_rho(signed, np.exp(-g)))
            assert abs(got - want) < 1e-10


def test_concurrence_validation():
    with pytest.raises(ValueError):
        concurrence(BellDiagonalState(0.5), -1.0)
    with pytest.raises(ValueError, match="gamma_value"):
        concurrence(BellDiagonalState(0.5), np.nan)


def test_trajectory_uncorrelated_state_stays_classical():
    spec = OhmicSpectrum(1.0)
    sched = periodic_schedule(None, 10.0)
    out = trajectory(spec, sched, BellDiagonalState(0.0), NoiseSide.ONE_SIDED)
    assert np.all(np.abs(out.discord) < 1e-15)
    assert np.all(out.concurrence == 0.0)
    # everything that remains is classical correlation along one axis
    assert_allclose(out.classical, correlation_bits(out.factor), atol=1e-14)


def test_trajectory_columns_are_consistent():
    spec = OhmicSpectrum(4.0)
    sched = periodic_schedule(1.0, 12.0)
    state = BellDiagonalState(0.5)
    out = trajectory(spec, sched, state, NoiseSide.ONE_SIDED)
    assert out.times[0] == 0.0
    assert out.factor[0] == 1.0
    assert np.all(out.factor > 0.0)
    assert np.all(out.factor <= 1.0)
    assert_allclose(out.factor, np.exp(-out.gamma), rtol=1e-14)
    assert_allclose(out.discord, out.mutual_info - out.classical, atol=1e-14)
    assert out.concurrence is not None
    assert np.all(out.concurrence >= 0.0)
    # every column is one array call of the public function for that quantity
    side = NoiseSide.ONE_SIDED
    assert np.array_equal(out.factor, decoherence_factor(out.gamma, side))
    assert np.array_equal(out.mutual_info, mutual_information(state, out.factor))
    assert np.array_equal(out.classical, classical_correlations(state, out.factor))
    assert np.array_equal(out.discord, discord(state, out.factor))
    assert np.array_equal(out.concurrence, concurrence(state, out.gamma))


def test_trajectory_two_sided_has_no_concurrence():
    spec = OhmicSpectrum(1.0)
    sched = periodic_schedule(0.5, 5.0)
    out = trajectory(spec, sched, BellDiagonalState(0.3), NoiseSide.TWO_SIDED)
    assert out.concurrence is None
    assert_allclose(out.factor, np.exp(-2.0 * out.gamma), rtol=1e-14)
    assert np.array_equal(out.factor, decoherence_factor(out.gamma, NoiseSide.TWO_SIDED))


def test_trajectory_custom_grid():
    spec = OhmicSpectrum(1.0)
    sched = periodic_schedule(None, 10.0)
    grid = np.array([0.0, 1.0, 2.0])
    out = trajectory(spec, sched, BellDiagonalState(0.2),
                     NoiseSide.ONE_SIDED, grid=grid)
    assert_allclose(out.times, grid)
    assert out.gamma.shape == (3,)
    with pytest.raises(ValueError, match="nonempty"):
        trajectory(spec, sched, BellDiagonalState(0.2), NoiseSide.ONE_SIDED, grid=np.empty(0))
