import math

import numpy as np
import pytest

from gapline import adiabatic, graphcore, spectral
from gapline.errors import DimensionError, DomainError, PreconditionError
from gapline.verify import random_tree, random_unique_min_potential


def flat(n):
    return graphcore.Potential(np.zeros(n))


def interpolated(g, w, s):
    """H(s) = (1-s) L_G + s diag(W), the matrix gap_sweep solves at s."""
    return (1 - s) * spectral.laplacian(g) + s * np.diag(w.values)


class TestInterpolatedHamiltonian:
    """H(s) as gap_sweep builds it and checks its inputs."""

    def test_out_of_range(self):
        g = graphcore.build_path(2)
        with pytest.raises(DomainError, match="inside"):
            adiabatic.gap_sweep(g, flat(2), [0.5, 1.5])

    def test_potential_length_mismatch(self):
        with pytest.raises(DimensionError):
            adiabatic.gap_sweep(graphcore.build_path(4), flat(2), [0.5])

    def test_sweep_matrices_match(self, monkeypatch):
        g, w, _ = graphcore.build_caterpillar(3)
        grid = [0.0, 0.3, 0.77, 0.999]
        seen = []
        original = adiabatic.solve_ground_and_gap

        def recording(h, **kwargs):
            seen.append(h.matrix)
            return original(h, **kwargs)

        monkeypatch.setattr(adiabatic, "solve_ground_and_gap", recording)
        adiabatic.gap_sweep(g, w, grid)
        for s, m in zip(grid, seen, strict=True):
            assert np.array_equal(m, interpolated(g, w, s))


class TestGapSweep:
    def test_flat_potential_scales_linearly(self):
        g = graphcore.build_path(5)
        samples = adiabatic.gap_sweep(g, flat(5), [0.0, 0.25, 0.5, 0.9])
        gamma0 = samples[0].gamma_exact
        for s in samples:
            assert s.gamma_exact == pytest.approx((1 - s.s) * gamma0, abs=1e-10)
            assert s.gamma_bound is not None
            assert s.gamma_exact >= s.gamma_bound - 1e-10

    def test_s_zero_bound_and_algebraic_connectivity(self):
        g = graphcore.build_path(4)
        w = graphcore.Potential([0.0, 1.0, 2.0, 3.0])
        [sample] = adiabatic.gap_sweep(g, w, [0.0])
        assert sample.gamma_bound == pytest.approx(1 / (2 * 2 * 16))
        lap_vals = np.linalg.eigvalsh(spectral.laplacian(g))
        assert sample.gamma_exact == pytest.approx(lap_vals[1], abs=1e-10)

    def test_rescaled_gap_identity(self):
        g = graphcore.build_path(4)
        w = graphcore.Potential([1.0, 0.0, 2.0, 3.0])
        for s in (0.2, 0.5, 0.99):
            [sample] = adiabatic.gap_sweep(g, w, [s])
            h_hat = interpolated(g, w, s) / (1 - s)
            vals = np.linalg.eigvalsh(h_hat)
            assert sample.gamma_exact == pytest.approx((1 - s) * (vals[1] - vals[0]), abs=1e-9)

    def test_s_one_by_diagonal_inspection(self):
        g = graphcore.build_path(3)
        w = graphcore.Potential([2.0, 0.0, 0.7])
        [sample] = adiabatic.gap_sweep(g, w, [1.0])
        assert sample.gamma_exact == pytest.approx(0.7)
        assert sample.regime == adiabatic.ENDGAME

    def test_endgame_tagging(self):
        g = graphcore.build_path(5)  # d_G = 2, onset at 1 - 1/16
        samples = adiabatic.gap_sweep(g, flat(5), [0.9, 0.94, 0.95])
        assert [s.regime for s in samples] == ["bulk", adiabatic.ENDGAME, adiabatic.ENDGAME]

    def test_potential_length_checked_before_any_point(self):
        # s = 1 is read off W directly; a wrong-length W must still be refused.
        with pytest.raises(DimensionError):
            adiabatic.gap_sweep(graphcore.build_path(4), graphcore.Potential([0, 1]), [1.0])

    @pytest.mark.parametrize("n", [1, 3])
    def test_graph_without_edges_refused(self, n):
        g = graphcore.Graph(n, [])
        with pytest.raises(PreconditionError, match="edges"):
            adiabatic.endgame_onset(g)
        with pytest.raises(PreconditionError, match="edges"):
            adiabatic.gap_sweep(g, flat(n), [0.0, 1.0])

    def test_default_grid(self):
        grid = adiabatic.default_sweep_grid()
        assert len(grid) == 118 and grid[0] == 0.0 and grid[-1] == 1.0
        assert grid[101] == 0.995 and grid == sorted(grid)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            adiabatic.gap_sweep(graphcore.build_path(3), flat(3), [])

    def test_endgame_floor_on_rescaled_instances(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 9))
            g = random_tree(rng, n)
            w, _ = adiabatic.rescale_to_unit_final_gap(random_unique_min_potential(rng, n))
            onset = adiabatic.endgame_onset(g)
            grid = list(np.linspace(onset, 1.0, 7))
            floor = adiabatic.endgame_bound(g, w).bound
            for sample in adiabatic.gap_sweep(g, w, grid):
                assert sample.gamma_exact >= floor - 1e-8


class TestEndgameBound:
    def test_degree_two(self):
        g = graphcore.build_path(5)
        w = graphcore.Potential([4.0, 2.0, 0.0, 1.0, 3.0])
        eb = adiabatic.endgame_bound(g, w)
        assert eb.s_star == pytest.approx(1 - 1 / 16)
        assert eb.bound == pytest.approx(7 / 16)

    def test_degree_four_caterpillar(self):
        g, w, _ = graphcore.build_caterpillar(4)
        eb = adiabatic.endgame_bound(g, w)
        assert eb.s_star == pytest.approx(31 / 32)
        assert eb.bound == pytest.approx(15 / 32)

    def test_reports_rescale_factor(self):
        g = graphcore.build_path(3)
        w = graphcore.Potential([0.0, 0.5, 2.0])
        assert adiabatic.endgame_bound(g, w).scale == pytest.approx(0.5)

    def test_graph_without_edges_refused(self):
        with pytest.raises(PreconditionError, match="edges"):
            adiabatic.endgame_bound(graphcore.Graph(2, []), graphcore.Potential([0.0, 1.0]))

    def test_degenerate_minimum_rejected(self):
        g = graphcore.build_path(3)
        with pytest.raises(PreconditionError):
            adiabatic.endgame_bound(g, graphcore.Potential([0.0, 0.0, 1.0]))

    def test_combined_floor_positive(self):
        g = graphcore.build_path(6)
        w, _ = adiabatic.rescale_to_unit_final_gap(
            graphcore.Potential([5.0, 3.0, 1.0, 0.0, 2.0, 4.0])
        )
        onset = adiabatic.endgame_onset(g)
        bulk_floor = min(
            adiabatic.bulk_gap_floor(g, w, s) for s in np.linspace(0, onset, 50)
        )
        assert min(bulk_floor, adiabatic.endgame_bound(g, w).bound) > 0


class TestSwitchingSchedule:
    def test_symmetry_midpoint(self):
        assert adiabatic.switching_schedule(0.5) == pytest.approx(0.5, abs=1e-12)

    def test_support(self):
        assert adiabatic.switching_schedule(-1.0) == 0.0
        assert adiabatic.switching_schedule(2.0) == 1.0
        assert adiabatic.switching_derivative(-0.5) == 0.0
        assert adiabatic.switching_derivative(1.5) == 0.0

    def test_endpoints_after_normalization(self):
        assert adiabatic.switching_schedule(0.0) == pytest.approx(0.0, abs=1e-9)
        assert adiabatic.switching_schedule(1.0) == pytest.approx(1.0, abs=1e-9)

    def test_normalization_constant(self):
        import scipy.integrate

        total, _ = scipy.integrate.quad(
            lambda y: math.exp(-1.0 / (y * (1.0 - y))), 0.0, 1.0,
            epsabs=1e-14, epsrel=1e-12,
        )
        assert adiabatic.switching_derivative(0.5) == pytest.approx(
            math.exp(-4.0) / total, rel=1e-10
        )

    def test_monotone_dense_grid(self):
        xs = np.linspace(-0.05, 1.05, 2001)
        vals = [adiabatic.switching_schedule(float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_array_form_matches_scalar_form(self):
        # One cumulative quadrature over the sorted folded points; shuffled
        # input order must not matter, and the near-duplicate folded points
        # (x and 1 - x' a rounding apart) must not trip quad.
        xs = np.linspace(-0.05, 1.05, 2001)
        scalar = np.array([adiabatic.switching_schedule(float(x)) for x in xs])
        perm = np.random.default_rng(0).permutation(len(xs))
        vals = np.empty(len(xs))
        vals[perm] = adiabatic.switching_schedule(xs[perm])
        assert np.max(np.abs(vals - scalar)) <= 1e-14
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] == 0.0 and vals[-1] == 1.0
        assert isinstance(adiabatic.switching_schedule(0.3), float)

    def test_nan_refused(self):
        with pytest.raises(DomainError, match="NaN"):
            adiabatic.switching_schedule(math.nan)
        with pytest.raises(DomainError, match="NaN"):
            adiabatic.switching_schedule(np.array([0.2, math.nan, 0.7]))

    def test_infinities_saturate(self):
        assert adiabatic.switching_schedule(-math.inf) == 0.0
        assert adiabatic.switching_schedule(math.inf) == 1.0
        vals = adiabatic.switching_schedule(np.array([math.inf, 0.5, -math.inf]))
        assert vals[0] == 1.0 and vals[2] == 0.0

    def test_derivative_matches_finite_differences(self):
        h = 1e-5
        for x in np.linspace(0.05, 0.95, 19):
            fd = (
                adiabatic.switching_schedule(x + h) - adiabatic.switching_schedule(x - h)
            ) / (2 * h)
            assert abs(fd - adiabatic.switching_derivative(x)) <= 1e-6
