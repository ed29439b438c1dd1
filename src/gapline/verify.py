"""Cross-validation suite: every analytic bound checked against the exact
eigensolver on generated instances.  Used by the `verify` CLI subcommand and
by the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import adiabatic, bounds, graphcore, spectral


def random_tree(rng: np.random.Generator, n: int) -> graphcore.Graph:
    """Uniform-attachment random tree on n vertices."""
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return graphcore.Graph(n, edges)


def random_connected_graph(
    rng: np.random.Generator, n: int, extra_edge_prob: float = 0.3
) -> graphcore.Graph:
    """random_tree's spanning tree, drawn inline, plus independent extra edges."""
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    for x in range(n):
        for y in range(x + 1, n):
            if (x, y) not in edges and rng.random() < extra_edge_prob:
                edges.add((x, y))
    return graphcore.Graph(n, sorted(edges))


def random_potential(
    rng: np.random.Generator, n: int, lo: float = -1.0, hi: float = 1.0
) -> graphcore.Potential:
    return graphcore.Potential(rng.uniform(lo, hi, size=n))


def random_single_basin_path_potential(
    rng: np.random.Generator, l: int, scale: float = 1.0
) -> graphcore.Potential:
    """Valley-shaped potential on a path: strictly decreasing to a random
    minimum position, then strictly increasing."""
    m = int(rng.integers(0, l))
    vals = np.zeros(l)
    for i in range(m - 1, -1, -1):
        vals[i] = vals[i + 1] + rng.uniform(0.05, 1.0) * scale
    for i in range(m + 1, l):
        vals[i] = vals[i - 1] + rng.uniform(0.05, 1.0) * scale
    return graphcore.Potential(vals)


def random_unique_min_potential(
    rng: np.random.Generator, n: int
) -> graphcore.Potential:
    """Random potential with a unique minimizer and distinct two lowest values."""
    while True:
        vals = rng.uniform(-1.0, 1.0, size=n)
        order = np.sort(vals)
        if order[1] - order[0] > 1e-3:
            return graphcore.Potential(vals)


@dataclass
class VerifyRow:
    check: str
    instance: str
    expected: str
    actual: str
    passed: bool


def _row(check, instance, expected, actual, passed) -> VerifyRow:
    return VerifyRow(check, instance, f"{expected}", f"{actual}", bool(passed))


def check_caterpillar_residual(lmax: int, tol: float = 1e-12) -> list[VerifyRow]:
    """Closed-form ground state annihilated by the caterpillar Hamiltonian."""
    rows = []
    for l in range(2, lmax + 1):
        g, w, _ = graphcore.build_caterpillar(l)
        psi = graphcore.caterpillar_ground_state(l)
        h = spectral.assemble(g, w)
        res = float(np.linalg.norm(h.matrix @ psi))
        rows.append(
            _row("caterpillar_residual", f"l={l}", f"<= {tol:g}", f"{res:.3e}", res <= tol)
        )
    return rows


def check_caterpillar_gap(lmax: int) -> list[VerifyRow]:
    """Solver gap under the variational ceiling 2 (2/3)^(2l-1) with its
    error bar added (gap + gap_err <= ceiling), and the exponential decay
    rate of the resolved (non-degenerate) gaps."""
    rows = []
    logs = []
    for l in range(2, lmax + 1):
        g, w, _ = graphcore.build_caterpillar(l)
        spec = spectral.solve_ground_and_gap(spectral.assemble(g, w))
        ceiling = 2.0 * (2.0 / 3.0) ** (2 * l - 1)
        if spec.degenerate:
            actual = f"unresolved, <= {spec.gap + spec.gap_err:.1e}"
        else:
            actual = f"{spec.gap:.6e} +- {spec.gap_err:.1e}"
        rows.append(
            _row(
                "caterpillar_gap",
                f"l={l}",
                f"<= {ceiling:.6e}",
                actual,
                spec.gap + spec.gap_err <= ceiling,
            )
        )
        # Small l carries boundary effects; the asymptotic decay rate is fit
        # from l = 4 up, and only when at least two such sizes are available.
        if l >= 4 and not spec.degenerate:
            logs.append((l, math.log(spec.gap)))
    if len(logs) < 2:
        return rows
    ls, ys = np.array(logs).T
    slope = float(np.polyfit(ls, ys, 1)[0])
    target = 2.0 * math.log(2.0 / 3.0)
    rows.append(
        _row(
            "caterpillar_gap_slope",
            f"l={int(ls[0])}..{int(ls[-1])}",
            f"{target:.4f} +- 5%",
            f"{slope:.4f}",
            abs(slope - target) <= 0.05 * abs(target),
        )
    )
    return rows


def check_caterpillar_basin(lmax: int) -> list[VerifyRow]:
    """Unique local minimum at the central spine vertex; single basin."""
    rows = []
    for l in range(2, lmax + 1):
        g, w, labels = graphcore.build_caterpillar(l)
        minima = graphcore.find_local_minima(g, w)
        expected = {labels[f"B{l}"]}
        rows.append(
            _row(
                "caterpillar_minima",
                f"l={l}",
                f"{sorted(expected)}",
                f"{sorted(minima)}",
                minima == expected,
            )
        )
        basin = graphcore.is_single_basin(g, w)
        rows.append(_row("caterpillar_single_basin", f"l={l}", "True", f"{basin}", basin))
    return rows


def check_flat_path_gaps(lmax: int, tol: float = 1e-10) -> list[VerifyRow]:
    """Flat-chain gap against the exact value 4 sin^2(pi / 2l)."""
    rows = []
    for l in range(2, max(lmax, 8) + 1):
        g = graphcore.build_path(l)
        spec = spectral.solve_ground_and_gap(
            spectral.assemble(g, graphcore.Potential(np.zeros(l)))
        )
        exact = 4.0 * math.sin(math.pi / (2 * l)) ** 2
        rows.append(
            _row(
                "flat_path_gap",
                f"l={l}",
                f"{exact:.12e}",
                f"{spec.gap:.12e}",
                abs(spec.gap - exact) <= tol,
            )
        )
    return rows


def check_sandwich(
    seeds: int = 100, nmax: int = 12, slack: float = 1e-8, base_seed: int = 0
) -> list[VerifyRow]:
    """Conductance sandwich against the exact gap on random instances."""
    rows = []
    for seed in range(seeds):
        rng = np.random.default_rng([base_seed, seed])
        n = int(rng.integers(3, nmax + 1))
        g = random_connected_graph(rng, n)
        w = random_potential(rng, n)
        spec = spectral.solve_ground_and_gap(spectral.assemble(g, w))
        sandwich = bounds.gap_sandwich(g, w, spec)
        gamma = spec.gap
        ok = sandwich.lower - slack <= gamma <= sandwich.upper + slack
        rows.append(
            _row(
                "conductance_sandwich",
                f"seed={seed} n={n}",
                f"{sandwich.lower:.3e} <= gap <= {sandwich.upper:.3e}",
                f"{gamma:.3e}",
                ok,
            )
        )
    return rows


def check_walk_contracts(
    seeds: int = 50, nmax: int = 10, base_seed: int = 0
) -> list[VerifyRow]:
    """Row sums, detailed balance, and gap correspondence of the walk matrix."""
    rows = []
    for seed in range(seeds):
        rng = np.random.default_rng([base_seed, 10_000 + seed])
        n = int(rng.integers(3, nmax + 1))
        g = random_connected_graph(rng, n)
        w_shifted, _ = bounds.normalize_potential(g, random_potential(rng, n))
        spec = spectral.solve_ground_and_gap(spectral.assemble(g, w_shifted))
        walk = bounds.build_walk_matrix(g, w_shifted, spec)
        p, pi = walk.matrix, walk.stationary
        row_dev = float(np.max(np.abs(p.sum(axis=1) - 1.0)))
        balance_dev = float(np.max(np.abs(pi[:, None] * p - (pi[:, None] * p).T)))
        gap_dev = abs((-spec.energy) * walk.spectral_gap() - spec.gap)
        ok = row_dev <= 1e-12 and balance_dev <= 1e-12 and gap_dev <= 1e-8
        rows.append(
            _row(
                "walk_contracts",
                f"seed={seed} n={n}",
                "rows,balance<=1e-12; gap<=1e-8",
                f"{row_dev:.1e},{balance_dev:.1e},{gap_dev:.1e}",
                ok,
            )
        )
    return rows


def check_switching() -> list[VerifyRow]:
    """Endpoints and monotonicity of the smooth switching schedule."""
    xs = np.r_[0.0, 1.0 - 1e-16, np.linspace(-0.1, 1.1, 401)]
    s0, s1, *vals = adiabatic.switching_schedule(xs)
    monotone = all(b >= a for a, b in zip(vals, vals[1:]))
    return [
        _row("switching_endpoints", "s(0),s(1)", "0, 1 (1e-9)", f"{s0:.2e}, {s1:.12f}",
             abs(s0) <= 1e-9 and abs(s1 - 1.0) <= 1e-9),
        _row("switching_monotone", "401-point grid", "nondecreasing", f"{monotone}", monotone),
    ]


def run_verification(lmax: int = 10, seed: int = 0) -> list[VerifyRow]:
    """Full cross-validation suite; `seed` seeds the randomized checks."""
    rows = []
    rows += check_caterpillar_residual(lmax)
    rows += check_caterpillar_gap(lmax)
    rows += check_caterpillar_basin(lmax)
    rows += check_flat_path_gaps(lmax)
    rows += check_sandwich(base_seed=seed)
    rows += check_walk_contracts(base_seed=seed)
    rows += check_switching()
    return rows
