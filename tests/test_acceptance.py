"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
a single pass/fail line to the terminal (bypassing pytest capture).  The
randomized criteria use fixed seeds so the suite is deterministic.
"""

import math

import numpy as np

from gapline import adiabatic, bounds, graphcore, spectral
from gapline.verify import random_connected_graph, random_potential, random_tree
from potentials import random_single_basin_path_potential, random_unique_min_potential


def report(capsys, num, name, passed, detail=""):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"[{status}] criterion {num:2d}: {name}{suffix}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_1_closed_form_ground_state(capsys):
    worst_res = 0.0
    worst_e = 0.0
    for l in range(2, 15):
        g, w, _ = graphcore.build_caterpillar(l)
        psi = graphcore.caterpillar_ground_state(l)
        h = spectral.assemble(g, w)
        worst_res = max(worst_res, float(np.linalg.norm(h @ psi)))
        spec = spectral.solve_ground_and_gap(h)
        worst_e = max(worst_e, abs(spec.energy))
    ok = worst_res <= 1e-12 and worst_e <= 1e-9
    report(capsys, 1, "caterpillar ground state exact",
           ok, f"max residual {worst_res:.2e}, max |E| {worst_e:.2e}")


def test_criterion_2_gap_collapse(capsys):
    logs = []
    under_ceiling = True
    for l in range(2, 15):
        g, w, _ = graphcore.build_caterpillar(l)
        spec = spectral.solve_ground_and_gap(spectral.assemble(g, w))
        if spec.gap > 2.0 * (2.0 / 3.0) ** (2 * l - 1):
            under_ceiling = False
        logs.append((l, math.log(spec.gap)))
    # asymptotic decay rate, fit away from the small-l boundary regime
    fit = [(l, y) for l, y in logs if l >= 4]
    slope = float(np.polyfit([p[0] for p in fit], [p[1] for p in fit], 1)[0])
    target = 2.0 * math.log(2.0 / 3.0)
    slope_ok = abs(slope - target) <= 0.05 * abs(target)
    report(capsys, 2, "caterpillar gap collapse",
           under_ceiling and slope_ok,
           f"slope {slope:.4f} vs {target:.4f}, ceiling {'held' if under_ceiling else 'broken'}")


def test_criterion_3_no_local_minima(capsys):
    ok = True
    for l in range(2, 21):
        g, w, labels = graphcore.build_caterpillar(l)
        if graphcore.find_local_minima(g, w) != {labels[f"B{l}"]}:
            ok = False
        if not graphcore.is_single_basin(g, w):
            ok = False
    report(capsys, 3, "unique minimum and single basin", ok, "l = 2..20")


def test_criterion_4_conductance_sandwich(capsys):
    worst_slack = -math.inf
    ok = True
    for seed in range(1000):
        rng = np.random.default_rng([4, seed])
        n = int(rng.integers(3, 13))
        g = random_connected_graph(rng, n)
        w = random_potential(rng, n)
        spec = spectral.solve_ground_and_gap(spectral.assemble(g, w))
        sandwich = bounds.gap_sandwich(g, w, spec)
        gamma = spec.gap
        viol = max(sandwich.lower - gamma, gamma - sandwich.upper)
        worst_slack = max(worst_slack, viol)
        if viol > 1e-8:
            ok = False
    report(capsys, 4, "conductance sandwich on 1000 random graphs",
           ok, f"worst violation {worst_slack:.2e}")


def test_criterion_5_single_peaked_bound(capsys):
    checked = 0
    attempts = 0
    worst = math.inf
    ok = True
    rng = np.random.default_rng(5)
    while checked < 1000 and attempts < 20000:
        attempts += 1
        n = int(rng.integers(4, 11))
        g = random_connected_graph(rng, n)
        w = random_potential(rng, n)
        spec = spectral.solve_ground_and_gap(spectral.assemble(g, w))
        if not graphcore.is_single_peaked(g, spec.psi):
            continue
        checked += 1
        floor = 1.0 / (2.0 * (w.spread + g.max_degree) * g.n**2)
        worst = min(worst, spec.gap - floor)
        if spec.gap < floor - 1e-12:
            ok = False
    ok = ok and checked == 1000
    report(capsys, 5, "single-peaked gap floor on 1000 instances",
           ok, f"min slack {worst:.2e}, {checked} instances in {attempts} draws")


def _path_instances():
    rng = np.random.default_rng(6)
    for _ in range(200):
        l = int(rng.integers(3, 51))
        yield l, random_single_basin_path_potential(rng, l)


def test_criterion_6_path_specialization(capsys):
    ok = True
    worst = math.inf
    for l, w in _path_instances():
        g = graphcore.build_path(l)
        spec = spectral.solve_ground_and_gap(spectral.assemble(g, w))
        if not graphcore.is_single_peaked(g, spec.psi):
            ok = False
        floor = 1.0 / (2.0 * (w.spread + 2.0) * l**2)
        worst = min(worst, spec.gap - floor)
        if spec.gap < floor - 1e-12:
            ok = False
    report(capsys, 6, "path instances single-peaked with gap floor",
           ok, f"min slack {worst:.2e} over 200 instances")


def test_criterion_7_poincare(capsys):
    ok = True
    for l, w in _path_instances():
        g = graphcore.build_path(l)
        spec = spectral.solve_ground_and_gap(spectral.assemble(g, w))
        lower = bounds.poincare_bound(g, spec)
        if spec.gap < lower - 1e-10:
            ok = False
        if lower < 1.0 / (l * (l - 1)) - 1e-12:
            ok = False
    flat_ok = True
    for l in range(2, 51):
        g = graphcore.build_path(l)
        spec = spectral.solve_ground_and_gap(
            spectral.assemble(g, graphcore.Potential(np.zeros(l)))
        )
        if abs(spec.gap - 4.0 * math.sin(math.pi / (2 * l)) ** 2) > 1e-10:
            flat_ok = False
    l = 200
    spec = spectral.solve_ground_and_gap(
        spectral.assemble(graphcore.build_path(l), graphcore.Potential(np.zeros(l)))
    )
    ratio = spec.gap * l * (l - 1)
    ratio_ok = ratio <= math.pi**2 * 1.05
    report(capsys, 7, "Poincare bound and flat-chain tightness",
           ok and flat_ok and ratio_ok,
           f"gamma*l(l-1) = {ratio:.4f} at l=200, pi^2 = {math.pi**2:.4f}")


def test_criterion_8_walk_matrix_contracts(capsys):
    worst_rows = worst_balance = worst_gap = 0.0
    ok = True
    for seed in range(200):
        rng = np.random.default_rng([8, seed])
        n = int(rng.integers(3, 11))
        g = random_connected_graph(rng, n)
        w = random_potential(rng, n)
        spec = spectral.solve_ground_and_gap(spectral.assemble(g, w))
        walk = bounds.build_walk_matrix(g, w, spec)
        p, pi = walk.matrix, walk.stationary
        worst_rows = max(worst_rows, float(np.max(np.abs(p.sum(axis=1) - 1.0))))
        flow = pi[:, None] * p
        worst_balance = max(worst_balance, float(np.max(np.abs(flow - flow.T))))
        worst_gap = max(
            worst_gap, abs(-walk.shifted_energy * walk.spectral_gap() - spec.gap)
        )
    if worst_rows > 1e-12 or worst_balance > 1e-12 or worst_gap > 1e-8:
        ok = False
    report(capsys, 8, "walk matrix contracts",
           ok, f"rows {worst_rows:.1e}, balance {worst_balance:.1e}, gap {worst_gap:.1e}")


def test_criterion_9_adiabatic_sweep(capsys):
    ok = True
    worst_margin = math.inf
    for seed in range(50):
        rng = np.random.default_rng([9, seed])
        n = int(rng.integers(4, 9))
        g = random_tree(rng, n) if seed % 2 else graphcore.build_path(n)
        w, _ = adiabatic.rescale_to_unit_final_gap(random_unique_min_potential(rng, n))
        onset = adiabatic.endgame_onset(g)
        floor = adiabatic.endgame_bound(g, w).bound
        grid = list(np.linspace(0.0, onset, 12)) + list(np.linspace(onset, 1.0, 6))
        for sample in adiabatic.gap_sweep(g, w, grid):
            if sample.regime == adiabatic.BULK and sample.gamma_bound is not None:
                if sample.gamma_exact < sample.gamma_bound - 1e-12:
                    ok = False
            if sample.regime == adiabatic.ENDGAME:
                worst_margin = min(worst_margin, sample.gamma_exact - floor)
                if sample.gamma_exact < floor - 1e-8:
                    ok = False
    report(capsys, 9, "adiabatic sweep floors on 50 instances",
           ok, f"min margin of endgame gap over endgame_bound {worst_margin:.4f}")


def test_criterion_10_switching_schedule(capsys):
    s0 = adiabatic.switching_schedule(0.0)
    s1 = adiabatic.switching_schedule(1.0)
    endpoints_ok = abs(s0) <= 1e-9 and abs(s1 - 1.0) <= 1e-9
    xs = np.linspace(0.0, 1.0, 10_000)
    vals = [adiabatic.switching_schedule(float(x)) for x in xs]
    monotone = all(b >= a for a, b in zip(vals, vals[1:]))
    h = 1e-5
    deriv_dev = 0.0
    for x in np.linspace(0.02, 0.98, 49):
        fd = (
            adiabatic.switching_schedule(x + h) - adiabatic.switching_schedule(x - h)
        ) / (2 * h)
        deriv_dev = max(deriv_dev, abs(fd - adiabatic.switching_derivative(x)))
    deriv_ok = deriv_dev <= 1e-6
    report(capsys, 10, "smooth switching schedule",
           endpoints_ok and monotone and deriv_ok,
           f"s(0)={s0:.1e}, s(1)-1={s1 - 1.0:.1e}, monotone={monotone}, "
           f"deriv dev {deriv_dev:.1e}")
