"""Cross-validation suite against the exact eigensolver on generated
instances: the caterpillar's closed-form ground state, gap ceiling, gap decay
rate and single basin, all read from one build and one assembled matrix per
caterpillar; flat-chain gaps; the conductance sandwich and the walk
transform, both read from one solve of each random instance; and the
switching schedule.  The single-peaked, Poincare and endgame bounds are
checked by the test suite only.  Used by the `verify` CLI subcommand and by
the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import adiabatic, bounds, graphcore, spectral

EXTRA_EDGE_PROB = 0.3


def random_tree(rng: np.random.Generator, n: int) -> graphcore.Graph:
    """Uniform-attachment random tree on n vertices."""
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return graphcore.Graph(n, edges)


def random_connected_graph(rng: np.random.Generator, n: int) -> graphcore.Graph:
    """random_tree's spanning tree plus each other vertex pair as an edge
    with probability EXTRA_EDGE_PROB."""
    edges = set(random_tree(rng, n).edges)
    for x in range(n):
        for y in range(x + 1, n):
            if (x, y) not in edges and rng.random() < EXTRA_EDGE_PROB:
                edges.add((x, y))
    return graphcore.Graph(n, sorted(edges))


def random_potential(rng: np.random.Generator, n: int) -> graphcore.Potential:
    """Independent uniform entries on [-1, 1]."""
    return graphcore.Potential(rng.uniform(-1.0, 1.0, size=n))


@dataclass
class VerifyRow:
    check: str
    instance: str
    expected: str
    actual: str
    passed: bool


def _row(check, instance, expected, actual, passed) -> VerifyRow:
    return VerifyRow(check, instance, f"{expected}", f"{actual}", bool(passed))


def check_caterpillar(lmax: int) -> list[VerifyRow]:
    """Each caterpillar l = 2..lmax built and assembled once, its one matrix
    shared by the closed-form ground state's residual and the solve.

    Rows come in three blocks: the residuals; the solver gaps under the
    variational ceiling 2 (2/3)^(2l-1) with their error bar added
    (gap + gap_err <= ceiling), then the exponential decay rate of the
    resolved (non-degenerate) gaps; and the unique local minimum at the
    central spine vertex with its single basin.
    """
    residual_rows, gap_rows, basin_rows = [], [], []
    logs = []
    for l in range(2, lmax + 1):
        g, w, labels = graphcore.build_caterpillar(l)
        h = spectral.assemble(g, w)
        instance = f"l={l}"
        res = float(np.linalg.norm(h @ graphcore.caterpillar_ground_state(l)))
        residual_rows.append(
            _row("caterpillar_residual", instance, "<= 1e-12", f"{res:.3e}", res <= 1e-12)
        )
        spec = spectral.solve_ground_and_gap(h)
        ceiling = 2.0 * (2.0 / 3.0) ** (2 * l - 1)
        if spec.degenerate:
            actual = f"unresolved, <= {spec.gap + spec.gap_err:.1e}"
        else:
            actual = f"{spec.gap:.6e} +- {spec.gap_err:.1e}"
        gap_rows.append(
            _row(
                "caterpillar_gap",
                instance,
                f"<= {ceiling:.6e}",
                actual,
                spec.gap + spec.gap_err <= ceiling,
            )
        )
        # Small l carries boundary effects; the asymptotic decay rate is fit
        # from l = 4 up, and only when at least two such sizes are available.
        if l >= 4 and not spec.degenerate:
            logs.append((l, math.log(spec.gap)))
        minima = graphcore.find_local_minima(g, w)
        expected = {labels[f"B{l}"]}
        basin_rows.append(
            _row(
                "caterpillar_minima",
                instance,
                f"{sorted(expected)}",
                f"{sorted(minima)}",
                minima == expected,
            )
        )
        basin = graphcore.is_single_basin(g, w)
        basin_rows.append(_row("caterpillar_single_basin", instance, "True", f"{basin}", basin))
    if len(logs) >= 2:
        ls, ys = np.array(logs).T
        slope = float(np.polyfit(ls, ys, 1)[0])
        target = 2.0 * math.log(2.0 / 3.0)
        gap_rows.append(
            _row(
                "caterpillar_gap_slope",
                f"l={int(ls[0])}..{int(ls[-1])}",
                f"{target:.4f} +- 5%",
                f"{slope:.4f}",
                abs(slope - target) <= 0.05 * abs(target),
            )
        )
    return residual_rows + gap_rows + basin_rows


def check_flat_path_gaps(lmax: int) -> list[VerifyRow]:
    """Flat-chain gap against the exact value 4 sin^2(pi / 2l), to 1e-10."""
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
                abs(spec.gap - exact) <= 1e-10,
            )
        )
    return rows


def check_sandwich(base_seed: int = 0) -> list[VerifyRow]:
    """On 100 random instances with n = 3..12, each drawn and solved once:
    the conductance sandwich, with slack 1e-8, against the exact gap; and
    the walk built from the same solve, its row sums and detailed balance
    to 1e-12 and its gap -E' (1 - lambda_2(P)) to 1e-8.  The sandwich rows
    come first, then the walk rows in the same instance order."""
    sandwich_rows, walk_rows = [], []
    for seed in range(100):
        rng = np.random.default_rng([base_seed, seed])
        n = int(rng.integers(3, 13))
        g = random_connected_graph(rng, n)
        w = random_potential(rng, n)
        spec = spectral.solve_ground_and_gap(spectral.assemble(g, w))
        instance = f"seed={seed} n={n}"
        sandwich = bounds.gap_sandwich(g, w, spec)
        sandwich_rows.append(
            _row(
                "conductance_sandwich",
                instance,
                f"{sandwich.lower:.3e} <= gap <= {sandwich.upper:.3e}",
                f"{spec.gap:.3e}",
                sandwich.lower - 1e-8 <= spec.gap <= sandwich.upper + 1e-8,
            )
        )
        walk = bounds.build_walk_matrix(g, w, spec)
        p, pi = walk.matrix, walk.stationary
        row_dev = float(np.max(np.abs(p.sum(axis=1) - 1.0)))
        balance_dev = float(np.max(np.abs(pi[:, None] * p - (pi[:, None] * p).T)))
        gap_dev = abs(-walk.shifted_energy * walk.spectral_gap() - spec.gap)
        walk_rows.append(
            _row(
                "walk_contracts",
                instance,
                "rows,balance<=1e-12; gap<=1e-8",
                f"{row_dev:.1e},{balance_dev:.1e},{gap_dev:.1e}",
                row_dev <= 1e-12 and balance_dev <= 1e-12 and gap_dev <= 1e-8,
            )
        )
    return sandwich_rows + walk_rows


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
    rows += check_caterpillar(lmax)
    rows += check_flat_path_gaps(lmax)
    rows += check_sandwich(base_seed=seed)
    rows += check_switching()
    return rows
