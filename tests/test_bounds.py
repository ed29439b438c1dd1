import collections
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapline import bounds, graphcore, spectral
from gapline.errors import (
    DimensionError,
    DomainError,
    PreconditionError,
    SizeGuardError,
    StructureError,
)
from gapline.verify import (
    random_connected_graph,
    random_potential,
    random_single_basin_path_potential,
    random_tree,
)


def flat(n):
    return graphcore.Potential(np.zeros(n))


def solve(g, w):
    return spectral.solve_ground_and_gap(spectral.assemble(g, w))


class TestNormalizePotential:
    def test_path3_shift(self):
        g = graphcore.build_path(3)
        w2, shift = bounds.normalize_potential(g, flat(3))
        assert shift == 3.0
        assert np.array_equal(w2.values, [-3, -3, -3])

    def test_resulting_hamiltonian_nonpositive(self):
        rng = np.random.default_rng(0)
        g = random_connected_graph(rng, 8)
        w2, _ = bounds.normalize_potential(g, random_potential(rng, 8))
        h = spectral.assemble(g, w2).matrix
        assert np.all(h <= 0)
        assert solve(g, w2).energy < 0

    def test_gap_preserved(self):
        rng = np.random.default_rng(1)
        g = random_connected_graph(rng, 7)
        w = random_potential(rng, 7)
        w2, _ = bounds.normalize_potential(g, w)
        assert solve(g, w2).gap == pytest.approx(solve(g, w).gap, abs=1e-10)


class TestBuildWalkMatrix:
    def test_two_vertex_hand_computation(self):
        g = graphcore.build_path(2)
        w = graphcore.Potential([-3.0, -3.0])
        walk = bounds.build_walk_matrix(g, w, solve(g, w))
        np.testing.assert_allclose(
            walk.matrix, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-12
        )
        assert walk.stationary == pytest.approx([0.5, 0.5])

    def test_contracts_on_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(3, 11))
            g = random_connected_graph(rng, n)
            w, _ = bounds.normalize_potential(g, random_potential(rng, n))
            spec = solve(g, w)
            walk = bounds.build_walk_matrix(g, w, spec)
            p, pi = walk.matrix, walk.stationary
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12
            assert np.all(p >= -1e-15)
            assert np.all(np.diag(p) > 0)  # aperiodicity margin
            flow = pi[:, None] * p
            assert np.max(np.abs(flow - flow.T)) <= 1e-12  # detailed balance
            assert pi @ p == pytest.approx(pi, abs=1e-12)  # left fixed point
            # walk gap corresponds to the Hamiltonian gap
            assert (-spec.energy) * walk.spectral_gap() == pytest.approx(
                spec.gap, abs=1e-8
            )

    def test_compares_by_identity(self):
        g = graphcore.build_path(3)
        w = graphcore.Potential([-4.0, -5.0, -4.0])
        spec = solve(g, w)
        a, b = bounds.build_walk_matrix(g, w, spec), bounds.build_walk_matrix(g, w, spec)
        assert a == a and a != b and len({a, b}) == 2

    def test_unshifted_potential_rejected(self):
        g = graphcore.build_path(2)
        w = flat(2)
        with pytest.raises(PreconditionError):
            bounds.build_walk_matrix(g, w, solve(g, w))


class TestCutProfile:
    def test_path3_center_cut(self):
        g = graphcore.build_path(3)
        psi = np.ones(3) / math.sqrt(3)
        report = bounds.cut_profile(g, psi, {1})
        assert report.flow == pytest.approx(2 / 3)
        assert report.ratio == pytest.approx(2.0)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(9)
        g = random_connected_graph(rng, 8)
        psi = rng.uniform(0.1, 1.0, 8)
        psi /= np.linalg.norm(psi)
        for subset in ({0}, {1, 3}, {0, 2, 4, 6}):
            a = bounds.cut_profile(g, psi, subset)
            b = bounds.cut_profile(g, psi, set(range(8)) - subset)
            assert a.ratio == pytest.approx(b.ratio)
            assert a.flow == pytest.approx(b.flow)
        # A side far lighter than the rounding of the total mass.
        g, psi = graphcore.build_path(3), [1.0, 1.0, 1e-9]
        a, b = bounds.cut_profile(g, psi, {0, 1}), bounds.cut_profile(g, psi, {2})
        assert a.ratio == b.ratio == pytest.approx(1e9, rel=1e-15)

    def test_masses_sum_to_one_for_unit_psi(self):
        g = graphcore.build_path(4)
        psi = np.full(4, 0.5)
        report = bounds.cut_profile(g, psi, {0, 1})
        assert report.mass_inside + report.mass_outside == pytest.approx(1.0)

    def test_improper_subsets_rejected(self):
        g = graphcore.build_path(3)
        psi = np.ones(3) / math.sqrt(3)
        with pytest.raises(DomainError):
            bounds.cut_profile(g, psi, set())
        with pytest.raises(DomainError):
            bounds.cut_profile(g, psi, {0, 1, 2})

    def test_zero_mass_side_refused(self):
        # psi^2 underflows to 0 on vertex 0; the ratio has no denominator.
        g = graphcore.build_path(3)
        with pytest.raises(PreconditionError, match="zero psi\\^2 mass"):
            bounds.cut_profile(g, [1e-170, 1.0, 1.0], {0})
        with pytest.raises(PreconditionError, match="zero psi\\^2 mass"):
            bounds.cut_profile(graphcore.Graph(2, []), [0.0, 1.0], {0})


class TestConductanceExact:
    def test_path3_uniform(self):
        g = graphcore.build_path(3)
        report = bounds.conductance_exact(g, np.ones(3) / math.sqrt(3))
        assert report.phi == pytest.approx(1.0)
        assert report.minimizer.subset in ((0,), (2,))

    def test_path2_uniform(self):
        g = graphcore.build_path(2)
        report = bounds.conductance_exact(g, np.ones(2) / math.sqrt(2))
        assert report.phi == pytest.approx(1.0)

    @pytest.mark.parametrize("l", [2, 3])
    def test_caterpillar_minimizing_cut_separates_lobes(self, l):
        g, w, labels = graphcore.build_caterpillar(l)
        psi = graphcore.caterpillar_ground_state(l)
        psi = psi / np.linalg.norm(psi)
        report = bounds.conductance_exact(g, psi)
        subset = set(report.minimizer.subset)
        center = labels[f"B{l}"]
        spine_left = labels[f"B{l-1}L"]
        spine_right = labels[f"B{l-1}R"]
        crossing = {(spine_left in subset) != (center in subset),
                    (spine_right in subset) != (center in subset)}
        assert True in crossing

    def test_minimizer_reported_with_smaller_mass_side(self):
        rng = np.random.default_rng(12)
        g = random_connected_graph(rng, 9)
        psi = rng.uniform(0.1, 1.0, 9)
        psi /= np.linalg.norm(psi)
        report = bounds.conductance_exact(g, psi)
        assert report.minimizer.mass_inside <= report.minimizer.mass_outside + 1e-15

    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 13), st.integers(0, 10_000))
    def test_matches_brute_force_over_all_cuts(self, n, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n)
        psi = rng.uniform(0.05, 1.0, n)
        report = bounds.conductance_exact(g, psi)
        # Every {S, complement} pair once, vertex n - 1 in the complement.
        cuts = [
            bounds.cut_profile(g, psi, [v for v in range(n - 1) if mask >> v & 1])
            for mask in range(1, 2 ** (n - 1))
        ]
        best = min(cuts, key=lambda cut: cut.ratio)
        smaller = best.subset if best.mass_inside <= best.mass_outside else tuple(
            v for v in range(n) if v not in best.subset
        )
        assert report.phi == pytest.approx(best.ratio, rel=1e-12)
        assert report.minimizer.subset == smaller
        assert report.minimizer.ratio == pytest.approx(report.phi, rel=1e-12)
        assert report.cuts_examined == len(cuts)

    @pytest.mark.parametrize(
        "psi",
        [[1e-7, 1e-7, 1e-9, 1.0], [1e-9, 1.0, 1.0], [1.0, 1.0, 1e-9], [1.0, 1e-9, 1e-9, 1.0]],
    )
    def test_tiny_amplitudes_keep_relative_accuracy(self, psi):
        # Masses and flows far below rounding of the total: every ratio is
        # summed from its own positive terms, so Phi matches exact rational
        # arithmetic on the same floats, and no cut divides by zero.
        n = len(psi)
        g = graphcore.build_path(n)
        exact = [Fraction(p) for p in psi]

        def ratio(subset):
            flow = sum(exact[x] * exact[y] for x, y in g.edges if (x in subset) != (y in subset))
            inside = sum(exact[v] ** 2 for v in subset)
            return flow / min(inside, sum(p * p for p in exact) - inside)

        truth = min(
            ratio(set(subset)) for k in range(1, n) for subset in itertools.combinations(range(n), k)
        )
        report = bounds.conductance_exact(g, psi)
        assert abs(Fraction(report.phi) - truth) <= 1e-12 * truth
        assert ratio(set(report.minimizer.subset)) == truth

    def test_two_vertices(self):
        g = graphcore.build_path(2)
        report = bounds.conductance_exact(g, [0.6, 0.8])
        assert report.phi == pytest.approx(0.48 / 0.36, rel=1e-15)
        assert report.minimizer.subset == (0,)
        assert report.cuts_examined == 1

    def test_three_vertices(self):
        # Path 0 - 1 - 2, masses 0.09, 0.25, 0.16: {0} has ratio 0.15 / 0.09,
        # {1} 0.35 / 0.25, and {0, 1} 0.2 / 0.16, reported as its lighter
        # side {2}.
        g = graphcore.build_path(3)
        report = bounds.conductance_exact(g, [0.3, 0.5, 0.4])
        assert report.phi == pytest.approx(0.2 / 0.16, rel=1e-15)
        assert report.minimizer.subset == (2,)
        assert report.cuts_examined == 3

    def test_exact_tie_reports_smallest_bitmask(self):
        # Uniform psi: on the 4-cycle {0,1}, {1,2} and their mirrors tie at
        # 1; on the n-cycle every arc of n // 2 vertices ties, and from
        # n = 17 on the ties span more than one block of the sweep; on K6
        # every 3-set ties.
        def cycle(n):
            return graphcore.Graph(n, [(v, (v + 1) % n) for v in range(n)])

        cases = [(cycle(n), 2.0 / (n // 2), tuple(range(n // 2))) for n in (4, 6, 17, 20)]
        cases.append((graphcore.Graph(6, list(itertools.combinations(range(6), 2))), 3.0, (0, 1, 2)))
        for g, phi, subset in cases:
            report = bounds.conductance_exact(g, np.full(g.n, 0.5))
            assert report.phi == phi
            assert report.minimizer.subset == subset

    @pytest.mark.parametrize("l", [3, 4])
    def test_caterpillar_phi_is_its_minimizer_ratio(self, l):
        g, _, _ = graphcore.build_caterpillar(l)
        psi = graphcore.caterpillar_ground_state(l)
        psi = psi / np.linalg.norm(psi)
        report = bounds.conductance_exact(g, psi)
        ratio = bounds.cut_profile(g, psi, report.minimizer.subset).ratio
        assert abs(report.phi - ratio) <= 1e-12 * ratio

    def test_peak_memory_does_not_grow_with_cut_count(self):
        # The cuts are swept in fixed blocks: at n = 22 one float array over
        # all 2^21 cuts would alone take 16 MiB.
        n = 22
        rng = np.random.default_rng(22)
        g = random_connected_graph(rng, n)
        psi = rng.uniform(0.05, 1.0, n)
        tracemalloc.start()
        try:
            bounds.conductance_exact(g, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_size_guard(self):
        g = graphcore.build_path(25)
        with pytest.raises(SizeGuardError):
            bounds.conductance_exact(g, np.ones(25) / 5.0)

    def test_caterpillar_lobe_cut_upper_bound_scale(self):
        # a hand-chosen lobe cut certifies an exponentially small gap
        l = 6
        g, w, labels = graphcore.build_caterpillar(l)
        psi = graphcore.caterpillar_ground_state(l)
        psi = psi / np.linalg.norm(psi)
        left = {idx for name, idx in labels.items()
                if (name.startswith("B") and name.endswith("L"))
                or (name.startswith("C") and name[-2:] in ("LT", "LB"))}
        report = bounds.cut_profile(g, psi, left)
        gamma = solve(g, w).gap
        assert gamma <= 2 * report.ratio + 1e-12
        assert report.ratio < (2 / 3) ** l


class TestGapSandwich:
    def test_path2_flat(self):
        g = graphcore.build_path(2)
        spec = solve(g, flat(2))
        sw = bounds.gap_sandwich(g, flat(2), spec)
        # shift is W_max + d_G + 1 = 2, so E_shifted = -2
        assert sw.shifted_energy == pytest.approx(-2.0)
        assert sw.conductance.phi == pytest.approx(1.0)
        assert sw.lower == pytest.approx(0.25)
        assert sw.upper == pytest.approx(2.0)
        assert spec.gap == pytest.approx(2.0)

    def test_shift_invariance(self):
        g = graphcore.build_path(4)
        w = graphcore.Potential([0.3, -0.2, 0.1, 0.4])
        a = bounds.gap_sandwich(g, w, solve(g, w))
        b = bounds.gap_sandwich(g, w.shifted(2.5), solve(g, w.shifted(2.5)))
        assert a.lower == pytest.approx(b.lower, abs=1e-10)
        assert a.upper == pytest.approx(b.upper, abs=1e-10)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000))
    def test_sandwich_holds_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 13))
        g = random_connected_graph(rng, n)
        w = random_potential(rng, n)
        spec = solve(g, w)
        sw = bounds.gap_sandwich(g, w, spec)
        assert sw.lower - 1e-8 <= spec.gap <= sw.upper + 1e-8

    def test_barrier_potential_with_tiny_amplitudes(self):
        # psi runs from 3e-10 to 0.74: the lightest cuts weigh far less than
        # the rounding of the total mass, yet none divides by zero.
        g = graphcore.build_path(6)
        w = graphcore.Potential([1e3, 1e3, 1e3, 0.0, 0.0, 0.0])
        spec = solve(g, w)
        sw = bounds.gap_sandwich(g, w, spec)
        assert sw.lower <= spec.gap <= sw.upper
        assert sw.conductance.minimizer.ratio == pytest.approx(sw.conductance.phi, rel=1e-12)

    def test_walk_level_sandwich(self):
        # conductance of P sandwiches the walk gap
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            g = random_connected_graph(rng, n)
            w, _ = bounds.normalize_potential(g, random_potential(rng, n))
            spec = solve(g, w)
            walk = bounds.build_walk_matrix(g, w, spec)
            phi_p = bounds.conductance_exact(g, spec.psi).phi / (-spec.energy)
            gap_p = walk.spectral_gap()
            assert phi_p**2 / 2 - 1e-10 <= gap_p <= 2 * phi_p + 1e-10

    def test_disconnected_rejected(self):
        g = graphcore.Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(StructureError):
            bounds.gap_sandwich(g, flat(4), solve(g, flat(4)))


class TestSinglePeakedGapBound:
    def test_path3_flat(self):
        g = graphcore.build_path(3)
        bound = bounds.single_peaked_gap_bound(g, flat(3), solve(g, flat(3)))
        assert bound == pytest.approx(1 / 36)

    def test_bound_below_gap_when_applicable(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 50:
            n = int(rng.integers(3, 11))
            g = random_connected_graph(rng, n)
            w = random_potential(rng, n)
            spec = solve(g, w)
            try:
                bound = bounds.single_peaked_gap_bound(g, w, spec)
            except PreconditionError:
                continue
            assert spec.gap >= bound - 1e-12
            checked += 1

    def test_path_specialization_formula(self):
        rng = np.random.default_rng(43)
        l = 12
        g = graphcore.build_path(l)
        w = random_single_basin_path_potential(rng, l)
        bound = bounds.single_peaked_gap_bound(g, w, solve(g, w))
        assert bound == pytest.approx(1 / (2 * (w.spread + 2) * l**2))

    def test_caterpillar_two_lobes_rejected(self):
        g, w, _ = graphcore.build_caterpillar(4)
        with pytest.raises(PreconditionError, match="components"):
            bounds.single_peaked_gap_bound(g, w, solve(g, w))

    def test_one_vertex_refused(self):
        g = graphcore.Graph(1, [])
        with pytest.raises(DomainError, match="at least 2 vertices"):
            bounds.single_peaked_gap_bound(g, flat(1), spectrum_with([1.0]))


class TestPoincareBound:
    def test_flat_two_vertex(self):
        g = graphcore.build_path(2)
        assert bounds.poincare_bound(g, solve(g, flat(2))) == pytest.approx(1.0)

    @pytest.mark.parametrize("l", [3, 8, 20])
    def test_lower_bounds_gap(self, l):
        rng = np.random.default_rng(l)
        g = graphcore.build_path(l)
        w = random_single_basin_path_potential(rng, l)
        spec = solve(g, w)
        bound = bounds.poincare_bound(g, spec)
        assert spec.gap >= bound - 1e-10
        assert bound >= 1 / (l * (l - 1)) - 1e-12

    def test_flat_path_ratio_approaches_pi_squared(self):
        l = 200
        g = graphcore.build_path(l)
        spec = solve(g, flat(l))
        gamma = spec.gap
        bound = bounds.poincare_bound(g, spec)
        assert gamma / bound <= math.pi**2 * 1.05
        # and l(l-1) itself is within the pi^2 window
        assert gamma * l * (l - 1) <= math.pi**2 * 1.05

    def test_scale_of_psi_does_not_matter(self):
        # kappa' grows as |psi|^2; only the unit ground state gives the bound.
        g = graphcore.build_path(5)
        spec = solve(g, flat(5))
        unit = bounds.poincare_bound(g, spec)
        for scale in (1e-3, 0.1, 3.0):
            scaled = spectrum_with(scale * spec.psi)
            assert bounds.poincare_bound(g, scaled) == pytest.approx(unit, rel=1e-15, abs=0)
        assert unit <= spec.gap

    def test_one_vertex_refused(self):
        with pytest.raises(DomainError, match="at least 2 vertices"):
            bounds.poincare_bound(graphcore.Graph(1, []), spectrum_with([1.0]))

    def test_works_on_general_graphs(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            g = random_connected_graph(rng, n)
            w = random_potential(rng, n)
            spec = solve(g, w)
            assert spec.gap >= bounds.poincare_bound(g, spec) - 1e-10


def relabelled(rng, g, w):
    """Isomorphic copy of (g, w) under a random vertex permutation."""
    perm = rng.permutation(g.n)
    values = np.empty(g.n)
    values[perm] = w.values
    edges = [(perm[x], perm[y]) for x, y in g.edges]
    return graphcore.Graph(g.n, edges), graphcore.Potential(values)


def bfs_tree(g, x):
    """Hop distances from x by a deque BFS, and the predecessors
    pred[v] = min{u ~ v : dist[u] = dist[v] - 1}, pred[x] = x."""
    dist = {x: 0}
    queue = collections.deque([x])
    while queue:
        v = queue.popleft()
        for u in g.neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    pred = {v: min((u for u in g.neighbors(v) if dist[u] == dist[v] - 1), default=v) for v in dist}
    return dist, pred


def bfs_paths(g):
    """Canonical paths for every ordered pair, built without gapline's BFS:
    the path from x to y > x traced back through the predecessors of
    bfs_tree(g, x), and (y, x) its reverse."""
    paths = {}
    for x in range(g.n):
        _, pred = bfs_tree(g, x)
        for y in range(x + 1, g.n):
            back = [y]
            while back[-1] != x:
                back.append(pred[back[-1]])
            paths[(x, y)] = tuple(reversed(back))
            paths[(y, x)] = tuple(back)
    return paths


def path_load_kappa(g, psi, paths):
    """kappa' as the largest edge load of `paths`, one ordered pair at a time."""
    load = {e: 0.0 for e in g.edges}
    for (x, y), path in paths.items():
        weight = psi[x] ** 2 * psi[y] ** 2
        inv_flow = sum(1 / (psi[a] * psi[b]) for a, b in zip(path, path[1:]))
        for a, b in zip(path, path[1:]):
            load[(min(a, b), max(a, b))] += weight * inv_flow
    return max(load.values())


def reference_bound(g, spec):
    return 1 / path_load_kappa(g, spec.psi, bfs_paths(g))


def graph_of(family, rng, n):
    """A random connected graph, a star or a uniform-attachment tree on n vertices."""
    if family == "star":
        return graphcore.Graph(n, [(0, v) for v in range(1, n)])
    return (random_tree if family == "tree" else random_connected_graph)(rng, n)


def exact_kappa(g, psi):
    """kappa' at unit psi in exact rationals, one pair at a time: each pair
    loads every edge of its canonical path, traced through bfs_tree."""
    q = [Fraction(v) for v in psi]
    norm2 = sum(v * v for v in q)
    load = {e: Fraction(0) for e in g.edges}
    for x in range(g.n):
        _, pred = bfs_tree(g, x)
        for y in range(x + 1, g.n):
            path = [y]
            while path[-1] != x:
                path.append(pred[path[-1]])
            edges = [(min(a, b), max(a, b)) for a, b in zip(path, path[1:])]
            weight = 2 * q[x] ** 2 * q[y] ** 2 * sum(1 / (q[a] * q[b]) for a, b in edges)
            for e in edges:
                load[e] += weight
    return max(load.values()) / norm2


def spectrum_with(psi):
    return spectral.Spectrum(energy=0.0, gap=1.0, psi=np.asarray(psi), residual=0.0)


class TestBfsPredecessors:
    """_bfs_tree against a plain deque BFS from every source."""

    def check(self, g):
        for x in range(g.n):
            order, pred = bounds._bfs_tree(g, x)
            ref_dist, ref_pred = bfs_tree(g, x)
            assert order[0] == x and sorted(order) == list(range(g.n))
            hops = [ref_dist[v] for v in order]
            assert hops == sorted(hops)
            assert pred == [ref_pred[v] for v in range(g.n)]

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 30), st.floats(0.0, 0.8), st.integers(0, 10_000))
    def test_random_graphs(self, n, density, seed):
        self.check(random_connected_graph(np.random.default_rng(seed), n, density))

    @pytest.mark.parametrize("n", [4, 5, 9])
    def test_cycles_break_ties_by_lowest_index(self, n):
        self.check(graphcore.Graph(n, [(v, (v + 1) % n) for v in range(n)]))

    def test_complete_bipartite(self):
        # Every vertex of one side reaches the other side's vertices through
        # all of them; the lowest index must win.
        self.check(graphcore.Graph(7, [(a, b) for a in range(3) for b in range(3, 7)]))

    def test_dense_graph(self):
        # About 5000 directed edges: each vertex two hops out has dozens of
        # neighbours one hop out, and the lowest index must win.
        self.check(random_connected_graph(np.random.default_rng(3), 80, 0.8))

    def test_complete_graph(self):
        # Every other vertex of K300 is one hop from the source.
        n = 300
        g = graphcore.Graph(n, list(itertools.combinations(range(n), 2)))
        for x in range(n):
            order, pred = bounds._bfs_tree(g, x)
            assert order[0] == x and sorted(order) == list(range(n))
            assert pred == [x] * n

    @pytest.mark.parametrize("l", [2, 6])
    def test_relabelled_caterpillars(self, l):
        g, _ = relabelled(np.random.default_rng(l), *graphcore.build_caterpillar(l)[:2])
        self.check(g)


class TestTreePoincare:
    """poincare_bound walks BFS trees, or the tree itself when the graph is
    one; it must equal the generic load over the independently built path
    set of bfs_paths."""

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(["graph", "star", "tree"]), st.integers(2, 30), st.integers(0, 10_000))
    def test_matches_path_set_on_random_graphs(self, family, n, seed):
        rng = np.random.default_rng(seed)
        g, w = relabelled(rng, graph_of(family, rng, n), random_potential(rng, n))
        spec = solve(g, w)
        assert bounds.poincare_bound(g, spec) == pytest.approx(reference_bound(g, spec), rel=1e-12)

    @settings(deadline=None, max_examples=15)
    @given(st.integers(2, 8), st.integers(0, 10_000))
    def test_matches_path_set_on_relabelled_caterpillars(self, l, seed):
        g, w = relabelled(np.random.default_rng(seed), *graphcore.build_caterpillar(l)[:2])
        spec = solve(g, w)
        assert bounds.poincare_bound(g, spec) == pytest.approx(reference_bound(g, spec), rel=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(2, 50), st.integers(0, 10_000))
    def test_matches_path_set_on_paths(self, l, seed):
        rng = np.random.default_rng(seed)
        psi = rng.uniform(0.05, 1.0, l)
        spec = spectrum_with(psi / np.linalg.norm(psi))
        g = graphcore.build_path(l)
        assert bounds.poincare_bound(g, spec) == pytest.approx(reference_bound(g, spec), rel=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_tree_pass_matches_exact_rationals(self, seed):
        # Amplitudes spread over 120 decades.  Forming a subtree's outside
        # mass as total minus inside loses it next to an O(1) mass and fails
        # this test; every sum in the tree pass, and in the BFS sweep that
        # the "graph" family and the hexagon reach, has positive terms only.
        rng = np.random.default_rng(seed)
        inputs = []
        for family in ("tree", "star", "path", "graph"):
            n = int(rng.integers(2, 25))
            g = graphcore.build_path(n) if family == "path" else graph_of(family, rng, n)
            g, _ = relabelled(rng, g, flat(n))
            inputs.append((g, 10.0 ** rng.uniform(-120, 0, n)))
        # On the hexagon 0-2-3-4-1-5 the heaviest pair, (2, 4), runs 2-3-4
        # through the two tiny amplitudes t^2 and t.  In the BFS tree of 2,
        # vertex 1 also hangs below edge (2, 3), but the canonical path of
        # (1, 2) is 1-5-0-2, so that edge carries nothing of it.  Its term
        # psi_1^2 length[1] there outweighs the load of (2, 4) by about 1/t^2:
        # the sweep's sum over y > x, formed as (all y) - (y <= x), would lose
        # the heaviest load.  Drawn last, so the draws above are unchanged.
        hexagon = graphcore.Graph(6, [(0, 2), (2, 3), (3, 4), (1, 4), (1, 5), (0, 5)])
        assert bfs_tree(hexagon, 2)[1][1] == 4 and bfs_paths(hexagon)[(1, 2)] == (1, 5, 0, 2)
        t = 10.0 ** rng.uniform(-40, -9)
        inputs.append((hexagon, rng.uniform(0.5, 1.0, 6) * np.array([1, 1, 1, t * t, t, 1])))
        for g, psi in inputs:
            psi /= math.hypot(*psi)
            kappa = 1 / bounds.poincare_bound(g, spectrum_with(psi))
            exact = exact_kappa(g, psi)
            assert abs(Fraction(kappa) / exact - 1) <= 1e-14

    def test_bfs_sweep_runs_only_off_trees(self, monkeypatch):
        caterpillar, w, _ = graphcore.build_caterpillar(6)
        path = graphcore.build_path(50)
        trees = [(caterpillar, solve(caterpillar, w)), (path, solve(path, flat(50)))]
        expected = [reference_bound(g, spec) for g, spec in trees]

        def refuse(g, psi):
            raise AssertionError("BFS sweep")

        monkeypatch.setattr(bounds, "_kappa_bfs_sweep", refuse)
        for (g, spec), reference in zip(trees, expected):
            assert bounds.poincare_bound(g, spec) == pytest.approx(reference, rel=1e-12)
        cycle = graphcore.Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(AssertionError, match="BFS sweep"):
            bounds.poincare_bound(cycle, spectrum_with([0.5] * 4))

    def test_cycle_tie_break(self):
        # (0, 2) has two shortest paths on the 4-cycle; the lowest-index
        # predecessor routes it through 1, and through 3 kappa' would differ.
        g = graphcore.Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        spec = spectrum_with(np.array([0.2, 0.7, 0.3, 0.6]) / math.sqrt(0.98))
        paths = bfs_paths(g)
        assert paths[(0, 2)] == (0, 1, 2)
        detour = {**paths, (0, 2): (0, 3, 2), (2, 0): (2, 3, 0)}
        bound = bounds.poincare_bound(g, spec)
        assert bound == pytest.approx(reference_bound(g, spec), rel=1e-12)
        assert bound != pytest.approx(1 / path_load_kappa(g, spec.psi, detour), rel=1e-3)

    def test_underflowing_ground_state_refused(self):
        # W = [0, 1e3, ..., 1e3]: psi falls to about 1e-177 along the chain.
        g = graphcore.build_path(60)
        spec = solve(g, graphcore.Potential(np.r_[0.0, np.full(59, 1e3)]))
        with pytest.raises(PreconditionError, match="smallest ground-state amplitude"):
            bounds.poincare_bound(g, spec)

    def test_zero_amplitude_refused(self):
        g = graphcore.build_path(3)
        with pytest.raises(PreconditionError, match=re.escape("is 0.000e+00")):
            bounds.poincare_bound(g, spectrum_with([0.6, 0.8, 0.0]))


class TestPathKappa:
    """kappa' on a path graph, through poincare_bound."""

    def test_negative_rounding_noise_refused_as_precondition(self):
        # A sign flip at rounding level is an unresolved amplitude, not bad input.
        g = graphcore.build_path(3)
        with pytest.raises(PreconditionError, match=re.escape("is -1.000e-17")):
            bounds.poincare_bound(g, spectrum_with([1.0, 0.5, -1e-17]))


class TestSpectrumInput:
    @pytest.mark.parametrize("smallest, psi_err", [(0.0, 0.0), (1e-9, 1e-8), (0.3, math.inf)])
    def test_unresolved_ground_state_refused(self, smallest, psi_err):
        g = graphcore.build_path(3)
        psi = np.array([smallest, 0.8, math.sqrt(0.36 - smallest**2)])
        spec = spectral.Spectrum(
            energy=0.0, gap=1.0, psi=psi, residual=0.0, psi_err=psi_err
        )
        for bound in (bounds.gap_sandwich, bounds.single_peaked_gap_bound):
            with pytest.raises(PreconditionError, match="resolved positive"):
                bound(g, flat(3), spec)

    def test_plateau_tolerance_is_psi_err(self):
        # A plateau dented by 1e-9 is level within an error bar of 1e-8.
        g = graphcore.build_path(3)
        psi = np.array([0.5 + 1e-9, 0.5, 0.5 + 1e-9])
        psi /= np.linalg.norm(psi)

        def bound(psi_err):
            spec = spectral.Spectrum(
                energy=0.0, gap=1.0, psi=psi, residual=0.0, psi_err=psi_err
            )
            return bounds.single_peaked_gap_bound(g, flat(3), spec)

        with pytest.raises(PreconditionError, match="not single-peaked"):
            bound(0.0)
        assert bound(1e-8) == pytest.approx(1 / 36)

    def test_spectrum_of_another_graph_rejected(self):
        g = graphcore.build_path(4)
        spec = solve(graphcore.build_path(5), flat(5))
        with pytest.raises(DimensionError):
            bounds.gap_sandwich(g, flat(4), spec)
        with pytest.raises(DimensionError):
            bounds.single_peaked_gap_bound(g, flat(4), spec)
        with pytest.raises(DimensionError):
            bounds.poincare_bound(g, spec)
