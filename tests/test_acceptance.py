"""End-to-end acceptance battery.

One test per shipping criterion, each printing a single pass/fail line
(run with -s to see them on a green suite). Slow shared computations
live in module-scoped fixtures; wall-clock budgets are asserted where
the criterion includes one.
"""

import time

import numpy as np
import pytest

from dd_discord import (
    BellDiagonalState,
    NoiseSide,
    OhmicSpectrum,
    Regime,
    boundary_curve,
    classical_correlations,
    classify,
    controlled_gamma,
    controlled_gamma_oracle,
    correlation_bits,
    decoherence_factor,
    discord,
    gamma0,
    gamma0_quadrature,
    gamma0_rate,
    min_decoherence_factor,
    mutual_information,
    periodic_schedule,
    phase_diagram,
    transition_time,
    trajectory,
)
from oracles import bisect_sign_change

S_GRID = np.linspace(0.1, 6.0, 60)
C_GRID = np.linspace(0.0, 0.999, 50)


def _report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _invariant_cells(diagram):
    return {(i, j)
            for i, row in enumerate(diagram.labels)
            for j, label in enumerate(row)
            if label.regime is Regime.TIME_INVARIANT}


@pytest.fixture(scope="module")
def diagrams():
    """The six full-size regime maps used by the region criteria."""
    start = time.perf_counter()
    out = {}
    for side_key, side in (("two", NoiseSide.TWO_SIDED),
                           ("one", NoiseSide.ONE_SIDED)):
        for dt_key, interval in (("free", None), ("0.3", 0.3), ("3", 3.0)):
            out[side_key, dt_key] = phase_diagram(S_GRID, C_GRID, interval, side)
    out["elapsed"] = time.perf_counter() - start
    return out


def test_criterion_01_free_exponent_two_routes():
    start = time.perf_counter()
    worst = 0.0
    for s in (0.5, 1.0, 1.01, 2.0, 3.0, 4.0):
        spec = OhmicSpectrum(s)
        for tau in (0.1, 0.5, 1.0, 3.0, 10.0, 25.0):
            closed = gamma0(spec, tau)
            quad = gamma0_quadrature(spec, tau)
            worst = max(worst, abs(closed - quad) / max(1.0, abs(closed)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    _report(1, ok, f"closed form vs quadrature, worst deviation {worst:.2e} "
                   f"over 36 points in {elapsed:.2f} s")


def test_criterion_02_pulsed_sum_vs_filter_integral():
    start = time.perf_counter()
    worst = 0.0
    n_points = 0
    for s in (0.5, 1.0, 4.0):
        spec = OhmicSpectrum(s)
        for dt in (0.3, 1.0, 3.0):
            sched = periodic_schedule(dt, 25.0)
            taus = list(np.linspace(0.05, 24.95, 14))
            for k in (len(sched) // 3, (2 * len(sched)) // 3):
                t_k = sched.instants[k]
                taus += [t_k - 1e-4, t_k + 1e-4]
            taus += [sched.instants[0], 25.0]  # a pulse instant and the horizon
            assert len(taus) == 20
            for tau in taus:
                closed = controlled_gamma(spec, sched, tau)
                integral = controlled_gamma_oracle(spec, sched, tau)
                worst = max(worst, abs(closed - integral))
                n_points += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 120.0
    _report(2, ok, f"pulsed exponent two routes, worst |diff| {worst:.2e} "
                   f"over {n_points} points (83-pulse schedules included) "
                   f"in {elapsed:.1f} s")


def test_criterion_03_recoherence_onset_and_nonnegativity():
    worst = 0.0
    for s in (2.5, 3.0, 4.0, 6.0):
        spec = OhmicSpectrum(s)
        # upper end chosen inside the first negative lobe of the rate
        angle = 0.5 * (np.pi + min(2.0 * np.pi, 0.5 * s * np.pi))
        root = bisect_sign_change(lambda t: gamma0_rate(spec, t),
                                  1e-3, np.tan(angle / s), xtol=1e-9)
        worst = max(worst, abs(root - np.tan(np.pi / s)))
    grid = np.linspace(0.0, 25.0, 1000)
    min_rate = min(float(np.min(gamma0_rate(OhmicSpectrum(s), grid)))
                   for s in (1.0, 1.5, 2.0))
    ok = worst < 1e-6 and min_rate >= 0.0
    _report(3, ok, f"rate zero vs tan(pi/s), worst {worst:.2e}; "
                   f"rate minimum {min_rate:.2e} at or below quadratic spectrum")


def test_criterion_04_transition_identity():
    worst = 0.0
    for c in (0.1, 0.5, 0.9):
        state = BellDiagonalState(c)
        q_c = correlation_bits(c)
        for f in np.linspace(0.0, 1.0, 1000):
            f = float(f)
            d = discord(state, f)
            cl = classical_correlations(state, f)
            mi = mutual_information(state, f)
            if f >= c:
                worst = max(worst, abs(d - q_c))
            if f <= c:
                worst = max(worst, abs(cl - q_c))
            worst = max(worst, abs(mi - (d + cl)))
    ok = worst < 1e-12
    _report(4, ok, f"discord/classical plateau identities, worst {worst:.2e} "
                   f"over 3000 factor values")


def test_criterion_05_tight_pulsing_freezes_discord():
    start = time.perf_counter()
    spec = OhmicSpectrum(1.01)
    sched = periodic_schedule(0.3, 25.0)
    state = BellDiagonalState(0.5)
    mf = min_decoherence_factor(spec, sched, NoiseSide.ONE_SIDED)
    out = trajectory(spec, sched, state, NoiseSide.ONE_SIDED)
    plateau = correlation_bits(0.5)
    dev = float(np.max(np.abs(out.discord - plateau)))
    elapsed = time.perf_counter() - start
    ok = mf >= 0.5 and dev < 1e-10 and elapsed < 30.0
    _report(5, ok, f"min factor {mf:.4f} >= 0.5, discord pinned at "
                   f"{plateau:.6f} (max deviation {dev:.2e}) in {elapsed:.1f} s")


def test_criterion_06_sparse_pulsing_destroys_invariance():
    spec = OhmicSpectrum(4.0)
    sched = periodic_schedule(3.0, 25.0)
    state = BellDiagonalState(0.5)
    tbar = transition_time(spec, sched, state, NoiseSide.ONE_SIDED)
    g_end = controlled_gamma(spec, sched, 25.0)
    final = discord(state, decoherence_factor(g_end, NoiseSide.ONE_SIDED))
    plateau = correlation_bits(0.5)
    ok = tbar is not None and final < plateau
    detail = (f"transition at {tbar:.4f}, end-of-window discord {final:.3e} "
              f"< plateau {plateau:.6f}")
    _report(6, ok, detail)


def test_criterion_07_free_evolution_anchors():
    tbar = transition_time(OhmicSpectrum(1.0), periodic_schedule(None, 25.0),
                           BellDiagonalState(0.5), NoiseSide.ONE_SIDED)
    err_t = abs(tbar - np.sqrt(3.0))
    mf = min_decoherence_factor(OhmicSpectrum(4.0), periodic_schedule(None, 25.0),
                                NoiseSide.TWO_SIDED)
    err_f = abs(mf - np.exp(-5.0))
    ok = err_t < 1e-6 and err_f < 1e-6
    _report(7, ok, f"transition sqrt(3) off by {err_t:.2e}, "
                   f"min factor e^-5 off by {err_f:.2e}")


def test_criterion_08_region_properties(diagrams):
    sub_ohmic = {i for i, s in enumerate(S_GRID) if s < 1.0}
    high_c = {j for j, c in enumerate(C_GRID) if c >= 0.9}

    free_two = _invariant_cells(diagrams["two", "free"])
    tight_two = _invariant_cells(diagrams["two", "0.3"])
    sparse_two = _invariant_cells(diagrams["two", "3"])

    free_sub = {cell for cell in free_two if cell[0] in sub_ohmic}
    tight_sub = {cell for cell in tight_two if cell[0] in sub_ohmic}
    a_ok = (free_sub <= tight_sub
            and len(tight_sub) > len(free_sub)
            and any(i in sub_ohmic and j in high_c for i, j in tight_two))
    b_ok = sparse_two <= free_two
    c_ok = all(
        _invariant_cells(diagrams["two", key]) <= _invariant_cells(diagrams["one", key])
        for key in ("free", "0.3", "3"))
    elapsed = diagrams["elapsed"]
    ok = a_ok and b_ok and c_ok and elapsed < 600.0
    _report(8, ok, f"sub-Ohmic gain {len(free_sub)}->{len(tight_sub)} cells "
                   f"(a={a_ok}), sparse within free (b={b_ok}), one-sided "
                   f"contains two-sided (c={c_ok}); six 60x50 maps in "
                   f"{elapsed:.1f} s")


def test_criterion_09_interval_ordering_at_half():
    intervals = (0.3, 0.4, 0.5, 0.6, 1.0, 1.5, 2.0)
    state = BellDiagonalState(0.5)
    counts = []
    for dt in intervals:
        curve = boundary_curve(S_GRID, dt, NoiseSide.TWO_SIDED)
        counts.append(sum(classify(state, mf) is Regime.TIME_INVARIANT
                          for _, mf in curve))
    ok = (all(a >= b for a, b in zip(counts, counts[1:]))
          and counts[0] > 0
          and counts[-1] == min(counts))
    _report(9, ok, "invariant s-cells per interval "
                   + str(dict(zip(intervals, counts))))


def test_criterion_10_worker_count_determinism(tmp_path, run_cli):
    args = ["phase-diagram", "--dt", "0.5", "--side", "two",
            "--s-grid", "0.5:4:6", "--c-grid", "0:0.9:5",
            "--output", "map.csv"]
    blobs = {}
    for workers in ("1", "4"):
        cwd = tmp_path / f"w{workers}"
        cwd.mkdir()
        res = run_cli([*args, "--workers", workers], cwd)
        assert res.returncode == 0, res.stderr
        blobs[workers] = ((cwd / "map.csv").read_bytes(),
                          (cwd / "map-free.csv").read_bytes())
    ok = blobs["1"] == blobs["4"]
    _report(10, ok, "1-worker and 4-worker CSVs byte-identical "
                    "(diagram and free companion)")
