import math

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
        assert sw.phi == pytest.approx(1.0)
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


class TestCanonicalPaths:
    def test_path_graph_unique_choice(self):
        g = graphcore.build_path(4)
        paths = bounds.default_canonical_paths(g)
        assert paths.paths[(0, 3)] == (0, 1, 2, 3)
        assert paths.paths[(3, 0)] == (3, 2, 1, 0)

    def test_cycle_tie_break(self):
        g = graphcore.Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        paths = bounds.default_canonical_paths(g)
        assert paths.paths[(0, 2)] == (0, 1, 2)

    def test_all_ordered_pairs_covered(self):
        rng = np.random.default_rng(47)
        g = random_connected_graph(rng, 7)
        paths = bounds.default_canonical_paths(g)
        assert len(paths.paths) == 7 * 6
        paths.validate(g)

    def test_invalid_path_rejected(self):
        g = graphcore.build_path(3)
        bad = bounds.CanonicalPathSet(paths={(0, 2): (0, 2)})
        with pytest.raises(DomainError, match="non-edge"):
            bad.validate(g)


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


class TestTreePoincare:
    """poincare_bound without paths walks BFS trees; it must equal the
    generic load over default_canonical_paths."""

    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 30), st.integers(0, 10_000))
    def test_matches_path_set_on_random_graphs(self, n, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n)
        spec = solve(g, random_potential(rng, n))
        tree = bounds.poincare_bound(g, spec)
        generic = bounds.poincare_bound(g, spec, bounds.default_canonical_paths(g))
        assert tree == pytest.approx(generic, rel=1e-12)

    @settings(deadline=None, max_examples=15)
    @given(st.integers(2, 8), st.integers(0, 10_000))
    def test_matches_path_set_on_relabelled_caterpillars(self, l, seed):
        g, w = relabelled(np.random.default_rng(seed), *graphcore.build_caterpillar(l)[:2])
        spec = solve(g, w)
        tree = bounds.poincare_bound(g, spec)
        generic = bounds.poincare_bound(g, spec, bounds.default_canonical_paths(g))
        assert tree == pytest.approx(generic, rel=1e-12)

    def test_underflowing_ground_state_refused(self):
        # W = [0, 1e3, ..., 1e3]: psi falls to about 1e-177 along the chain.
        g = graphcore.build_path(60)
        spec = solve(g, graphcore.Potential(np.r_[0.0, np.full(59, 1e3)]))
        with pytest.raises(PreconditionError, match="smallest ground-state amplitude"):
            bounds.poincare_bound(g, spec)
        with pytest.raises(PreconditionError, match="smallest ground-state amplitude"):
            bounds.poincare_bound(g, spec, bounds.default_canonical_paths(g))
        with pytest.raises(PreconditionError, match="smallest ground-state amplitude"):
            bounds.path_kappa(spec.psi)

    def test_zero_amplitude_refused(self):
        g = graphcore.build_path(3)
        spec = spectral.Spectrum(
            energy=0.0, gap=1.0, psi=np.array([0.6, 0.8, 0.0]), residual=0.0, tol=1e-10
        )
        with pytest.raises(PreconditionError, match="0.000e"):
            bounds.poincare_bound(g, spec)


class TestSpectrumInput:
    def test_spectrum_of_another_graph_rejected(self):
        g = graphcore.build_path(4)
        spec = solve(graphcore.build_path(5), flat(5))
        with pytest.raises(DimensionError):
            bounds.gap_sandwich(g, flat(4), spec)
        with pytest.raises(DimensionError):
            bounds.single_peaked_gap_bound(g, flat(4), spec)
        with pytest.raises(DimensionError):
            bounds.poincare_bound(g, spec)


class TestPathKappa:
    def test_two_vertex_uniform(self):
        assert bounds.path_kappa(np.ones(2) / math.sqrt(2)) == pytest.approx(1.0)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(2, 50), st.integers(0, 10_000))
    def test_agrees_with_generic_kappa(self, l, seed):
        rng = np.random.default_rng(seed)
        psi = rng.uniform(0.05, 1.0, l)
        psi /= np.linalg.norm(psi)
        g = graphcore.build_path(l)
        paths = bounds.default_canonical_paths(g)
        load = {e: 0.0 for e in g.edges}
        for (x, y), path in paths.paths.items():
            weight = psi[x] ** 2 * psi[y] ** 2
            inv_flow = sum(1 / (psi[a] * psi[b]) for a, b in zip(path, path[1:]))
            for a, b in zip(path, path[1:]):
                load[(min(a, b), max(a, b))] += weight * inv_flow
        assert bounds.path_kappa(psi) == pytest.approx(max(load.values()), rel=1e-12)

    def test_single_peaked_kappa_at_most_l_l_minus_one(self):
        rng = np.random.default_rng(59)
        for l in (5, 12, 30):
            g = graphcore.build_path(l)
            w = random_single_basin_path_potential(rng, l)
            psi = solve(g, w).psi
            assert bounds.path_kappa(psi) <= l * (l - 1) + 1e-9

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            bounds.path_kappa([1.0, -1.0])
