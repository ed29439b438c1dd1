import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gapline import cli, graphcore, spectral
from gapline.errors import DimensionError, DomainError, SolverError
from gapline.verify import random_connected_graph, random_potential


def flat(n):
    return graphcore.Potential(np.zeros(n))


class TestAssemble:
    def test_single_edge_laplacian(self):
        h = spectral.assemble(graphcore.build_path(2), flat(2))
        assert np.array_equal(h.matrix, [[1, -1], [-1, 1]])

    def test_diagonal_shift(self):
        h = spectral.assemble(graphcore.build_path(2), graphcore.Potential([-3, -3]))
        assert np.array_equal(h.matrix, [[-2, -1], [-1, -2]])

    def test_caterpillar_null_vector(self):
        g, w, _ = graphcore.build_caterpillar(4)
        h = spectral.assemble(g, w)
        psi = graphcore.caterpillar_ground_state(4)
        assert np.linalg.norm(h.matrix @ psi) < 1e-13

    def test_symmetry_and_sparsity(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 9)
        h = spectral.assemble(g, random_potential(rng, 9)).matrix
        assert np.array_equal(h, h.T)
        edge_set = set(g.edges)
        for x in range(9):
            for y in range(x + 1, 9):
                assert h[x, y] == (-1.0 if (x, y) in edge_set else 0.0)

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            spectral.assemble(graphcore.build_path(3), flat(2))


class TestSolveGroundAndGap:
    def test_path3_flat(self):
        spec = spectral.solve_ground_and_gap(spectral.assemble(graphcore.build_path(3), flat(3)))
        assert spec.energy == pytest.approx(0.0, abs=1e-12)
        assert spec.gap == pytest.approx(1.0, abs=1e-12)
        assert spec.psi == pytest.approx(np.ones(3) / math.sqrt(3), abs=1e-12)

    def test_two_by_two_by_hand(self):
        spec = spectral.solve_ground_and_gap(
            spectral.assemble(graphcore.build_path(2), graphcore.Potential([-3, -3]))
        )
        assert spec.energy == pytest.approx(-3.0)
        assert spec.gap == pytest.approx(2.0)

    @pytest.mark.parametrize("l", [2, 5, 10, 40])
    def test_flat_path_gap_closed_form(self, l):
        spec = spectral.solve_ground_and_gap(spectral.assemble(graphcore.build_path(l), flat(l)))
        assert spec.gap == pytest.approx(4 * math.sin(math.pi / (2 * l)) ** 2, abs=1e-10)

    def test_huge_potential_residual_does_not_overflow(self):
        # Residual entries near eps * 1e170 would overflow once squared in the norm.
        g = graphcore.Graph(3, [(0, 1), (0, 2), (1, 2)])
        spec = spectral.solve_ground_and_gap(
            spectral.assemble(g, graphcore.Potential([0.0, 0.0, -1e170]))
        )
        assert spec.residual <= spectral.RESIDUAL_TOL
        assert spec.energy == pytest.approx(-1e170)
        assert math.isfinite(spec.gap_err)

    def test_results_compare_by_identity(self):
        h = spectral.assemble(graphcore.build_path(3), flat(3))
        h2 = spectral.assemble(graphcore.build_path(3), flat(3))
        spec, spec2 = spectral.solve_ground_and_gap(h), spectral.solve_ground_and_gap(h2)
        assert h == h and h != h2 and len({h, h2}) == 2
        assert spec == spec and spec != spec2 and len({spec, spec2}) == 2

    def test_psi_positive_unit(self):
        rng = np.random.default_rng(7)
        g = random_connected_graph(rng, 10)
        spec = spectral.solve_ground_and_gap(spectral.assemble(g, random_potential(rng, 10)))
        assert np.all(spec.psi > 0)
        assert np.linalg.norm(spec.psi) == pytest.approx(1.0)
        assert spec.positive

    def test_disconnected_flagged(self):
        g = graphcore.Graph(4, [(0, 1), (2, 3)])
        spec = spectral.solve_ground_and_gap(spectral.assemble(g, flat(4)))
        assert not spec.positive
        assert spec.degenerate  # two components share eigenvalue 0

    @pytest.mark.parametrize(
        "n, edges",
        [
            (6, [(0, 2), (0, 5), (1, 4), (3, 5)]),
            (7, [(0, 3), (0, 4), (0, 5), (1, 6), (3, 6), (4, 6), (5, 6)]),
        ],
    )
    def test_exactly_repeated_ground_pair(self, n, edges):
        # Inverse iteration on the two lowest pairs alone fails here: LAPACK
        # raises, or returns vectors far from the eigenspace.
        g = graphcore.Graph(n, edges)
        spec = spectral.solve_ground_and_gap(spectral.assemble(g, flat(n)))
        assert spec.residual <= spectral.RESIDUAL_TOL
        assert spec.energy == pytest.approx(0.0, abs=1e-12)
        assert spec.degenerate and not spec.positive

    def test_gap_invariant_under_shift(self):
        rng = np.random.default_rng(11)
        g = random_connected_graph(rng, 8)
        w = random_potential(rng, 8)
        a = spectral.solve_ground_and_gap(spectral.assemble(g, w))
        b = spectral.solve_ground_and_gap(spectral.assemble(g, w.shifted(5.5)))
        assert b.energy == pytest.approx(a.energy + 5.5, abs=1e-10)
        assert b.gap == pytest.approx(a.gap, abs=1e-10)
        assert b.psi == pytest.approx(a.psi, abs=1e-9)

    def test_laplacian_psd_and_ones_kernel(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(3, 10)))
            vals = np.linalg.eigvalsh(spectral.laplacian(g))
            assert vals[0] > -1e-12
            assert abs(vals[0]) < 1e-12
            assert vals[1] > 1e-12  # connected: eigenvalue 0 simple

    def test_laplacian_matches_edge_loop(self):
        rng = np.random.default_rng(19)
        for n in (1, 2, 7, 12):
            g = random_connected_graph(rng, n)
            expected = np.zeros((n, n))
            for x, y in g.edges:
                expected[x, y] = expected[y, x] = -1.0
                expected[x, x] += 1.0
                expected[y, y] += 1.0
            assert np.array_equal(spectral.laplacian(g), expected)

    def test_laplacian_norm_at_most_twice_max_degree(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(3, 12)))
            vals = np.linalg.eigvalsh(spectral.laplacian(g))
            assert vals[-1] <= 2 * g.max_degree + 1e-12

    def test_bad_inputs(self):
        one = spectral.Hamiltonian(matrix=np.zeros((1, 1)))
        with pytest.raises(DomainError):
            spectral.solve_ground_and_gap(one)


def assembled(instance):
    """The Hamiltonian named by a flag-regression id."""
    if instance.startswith("caterpillar"):
        g, w, _ = graphcore.build_caterpillar(int(instance.split("=")[1]))
    else:
        g, w = graphcore.build_path(3), graphcore.Potential([1e308, 1e308, 0.0])
    return spectral.assemble(g, w)


class TestErrorBars:
    """degenerate and positive are read off gap_err and psi_err."""

    @pytest.mark.parametrize(
        "instance, degenerate, positive",
        [
            ("caterpillar l=41", True, False),   # min psi is about -0.17
            ("caterpillar l=42", True, False),   # bit-equal lowest eigenvalues
            ("caterpillar l=30", False, False),  # min psi 3e-7, psi resolved to 4e-4
            ("caterpillar l=20", False, True),
            ("path W=[1e308, 1e308, 0]", False, False),  # psi = [0, 0, 1]
        ],
    )
    def test_flags(self, instance, degenerate, positive):
        spec = spectral.solve_ground_and_gap(assembled(instance))
        assert spec.degenerate is degenerate
        assert spec.positive is positive
        assert (spec.psi_err == math.inf) is degenerate

    def test_bars_from_the_residual(self):
        h = spectral.assemble(graphcore.build_path(6), graphcore.Potential([3.0, 0, 1, 0, 2, 5]))
        spec = spectral.solve_ground_and_gap(h)
        scale = max(1.0, np.linalg.norm(h.matrix, np.inf))
        # At most 3 nonzeros in a row of a path Hamiltonian: rounding 4 eps.
        eps = np.finfo(float).eps
        assert spec.gap_err == pytest.approx(2 * (spec.residual + 4 * eps) * scale)
        bar = math.sqrt(2) * spec.gap_err / 2 / (spec.gap - spec.gap_err)
        assert spec.psi_err == pytest.approx(bar)

    @pytest.mark.parametrize("l", [2, 5, 10, 40, 120])
    def test_flat_path_gap_within_bar(self, l):
        spec = spectral.solve_ground_and_gap(spectral.assemble(graphcore.build_path(l), flat(l)))
        assert abs(spec.gap - 4 * math.sin(math.pi / (2 * l)) ** 2) <= spec.gap_err
        assert np.linalg.norm(spec.psi - 1 / math.sqrt(l)) <= spec.psi_err

    @pytest.mark.parametrize("l", [2, 8, 16, 24, 30])
    def test_caterpillar_psi_within_bar(self, l):
        spec = spectral.solve_ground_and_gap(assembled(f"caterpillar l={l}"))
        exact = graphcore.caterpillar_ground_state(l)
        assert np.linalg.norm(spec.psi - exact / np.linalg.norm(exact)) <= spec.psi_err

    def test_hand_built_spectrum_is_exact(self):
        spec = spectral.Spectrum(
            energy=0.0, gap=1.0, psi=np.array([0.6, 0.8]), residual=0.0
        )
        assert (spec.gap_err, spec.psi_err) == (0.0, 0.0)
        assert spec.positive and not spec.degenerate


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 9),
    st.integers(1, 9),
    st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
    st.integers(0, 10_000),
)
def test_disconnected_graph_never_positive(a, b, scale, seed):
    # Two components under a random labelling: Perron positivity fails, and
    # the error bars say so without any connectivity test.
    rng = np.random.default_rng(seed)
    left, right = random_connected_graph(rng, a), random_connected_graph(rng, b)
    perm = rng.permutation(a + b)
    edges = [(perm[x], perm[y]) for x, y in left.edges]
    edges += [(perm[x + a], perm[y + a]) for x, y in right.edges]
    g = graphcore.Graph(a + b, edges)
    w = graphcore.Potential(scale * rng.uniform(-1.0, 1.0, a + b))
    assert not spectral.solve_ground_and_gap(spectral.assemble(g, w)).positive


class TestTwoLowestPairs:
    """The partial solve must agree with a full dense reference."""

    @staticmethod
    def check_against_full_reference(g, w):
        h = spectral.assemble(g, w)
        spec = spectral.solve_ground_and_gap(h)
        ref = np.linalg.eigvalsh(h.matrix)
        tol = 1e-12 * max(1.0, np.linalg.norm(h.matrix, 2))
        assert spec.energy == pytest.approx(ref[0], abs=tol)
        assert spec.gap == pytest.approx(ref[1] - ref[0], abs=tol)
        assert np.linalg.norm(spec.psi) == pytest.approx(1.0, abs=1e-12)
        assert spec.psi[np.argmax(np.abs(spec.psi))] > 0
        assert spec.residual <= spectral.RESIDUAL_TOL

    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 40), st.integers(0, 10_000))
    def test_random_connected_graphs(self, n, seed):
        rng = np.random.default_rng(seed)
        self.check_against_full_reference(
            random_connected_graph(rng, n), random_potential(rng, n)
        )

    @settings(deadline=None, max_examples=15)
    @given(st.integers(2, 8), st.integers(0, 10_000))
    def test_relabelled_caterpillars(self, l, seed):
        g, w, _ = graphcore.build_caterpillar(l)
        perm = np.random.default_rng(seed).permutation(g.n)
        values = np.empty(g.n)
        values[perm] = w.values
        edges = [(perm[x], perm[y]) for x, y in g.edges]
        self.check_against_full_reference(
            graphcore.Graph(g.n, edges), graphcore.Potential(values)
        )

    def test_perturbed_pair_raises_solver_error(self, tmp_path, capsys, monkeypatch):
        exact = scipy.linalg.eigh

        def perturbed(a, **kwargs):
            vals, vecs = exact(a, **kwargs)
            return vals + 1e-3, vecs

        monkeypatch.setattr(spectral.scipy.linalg, "eigh", perturbed)
        g = graphcore.build_path(5)
        with pytest.raises(SolverError) as info:
            spectral.solve_ground_and_gap(spectral.assemble(g, flat(5)))
        assert info.value.residual > spectral.RESIDUAL_TOL
        path = tmp_path / "p.json"
        path.write_text(graphcore.write_graph(g))
        assert cli.main(["gap", str(path)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: eigensolver residual")

    def test_large_potential_within_tolerance(self):
        g = graphcore.build_path(6)
        w = graphcore.Potential([0.0, 1.0, 2.0, 1e8, 3.0, 4.0])
        spec = spectral.solve_ground_and_gap(spectral.assemble(g, w))
        assert spec.residual <= spectral.RESIDUAL_TOL


class TestResidualAndRayleigh:
    @pytest.mark.parametrize("l", range(2, 21))
    def test_caterpillar_closed_form_residual(self, l):
        g, w, _ = graphcore.build_caterpillar(l)
        h = spectral.assemble(g, w)
        psi = graphcore.caterpillar_ground_state(l)
        assert np.linalg.norm(h.matrix @ psi) / np.linalg.norm(psi) <= 1e-12


class TestTwoLobeTrialState:
    @pytest.mark.parametrize("l", range(2, 12))
    def test_orthogonal_to_ground_state(self, l):
        psi = graphcore.caterpillar_ground_state(l)
        phi = spectral.two_lobe_trial_state(l, psi)
        assert abs(phi @ psi) < 1e-14

    def test_l4_unnormalized_energy(self):
        g, w, _ = graphcore.build_caterpillar(4)
        h = spectral.assemble(g, w)
        psi = graphcore.caterpillar_ground_state(4)
        phi = spectral.two_lobe_trial_state(4, psi)
        assert phi @ (h.matrix @ phi) == pytest.approx(2 * (2 / 3) ** 7, rel=1e-12)

    @pytest.mark.parametrize("l", range(2, 12))
    def test_norm_exceeds_one_and_bounds_gap(self, l):
        g, w, _ = graphcore.build_caterpillar(l)
        h = spectral.assemble(g, w)
        psi = graphcore.caterpillar_ground_state(l)
        phi = spectral.two_lobe_trial_state(l, psi)
        assert phi @ phi > 1.0
        assert phi @ (h.matrix @ phi) / (phi @ phi) <= 2 * (2 / 3) ** (2 * l - 1)

    def test_wrong_dimension(self):
        with pytest.raises(DimensionError):
            spectral.two_lobe_trial_state(4, np.ones(5))


@given(st.integers(2, 8), st.floats(-3, 3, allow_nan=False))
def test_spectrum_shift_property(n, c):
    g = graphcore.build_path(n)
    base = spectral.solve_ground_and_gap(spectral.assemble(g, flat(n)))
    shifted = spectral.solve_ground_and_gap(
        spectral.assemble(g, graphcore.Potential(np.full(n, c)))
    )
    assert shifted.gap == pytest.approx(base.gap, abs=1e-9)
    assert shifted.energy == pytest.approx(base.energy + c, abs=1e-9)
