import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapline import graphcore
from gapline.errors import DimensionError, DomainError, InvalidSizeError, ParseError


class TestGraph:
    def test_basic_queries(self):
        g = graphcore.Graph(4, [(0, 1), (1, 2), (3, 2)])
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert g.degree(1) == 2
        assert g.max_degree == 2
        assert g.neighbors(2) == (1, 3)
        assert g.is_connected()

    def test_rejects_self_loop(self):
        with pytest.raises(DomainError, match="self-loop"):
            graphcore.Graph(2, [(0, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(DomainError, match="duplicate"):
            graphcore.Graph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            graphcore.Graph(2, [(0, 2)])

    def test_disconnected(self):
        assert not graphcore.Graph(3, [(0, 1)]).is_connected()


class TestBuildPath:
    def test_degenerate_single_vertex(self):
        g = graphcore.build_path(1)
        assert g.n == 1 and g.edges == ()

    def test_single_edge(self):
        g = graphcore.build_path(2)
        assert g.edges == ((0, 1),)
        assert g.degree(0) == g.degree(1) == 1

    def test_five_vertices(self):
        g = graphcore.build_path(5)
        assert g.n == 5 and len(g.edges) == 4
        assert [g.degree(x) for x in range(5)] == [1, 2, 2, 2, 1]
        assert g.is_connected() and g.max_degree == 2

    def test_zero_rejected(self):
        with pytest.raises(InvalidSizeError):
            graphcore.build_path(0)


class TestBuildCaterpillar:
    def test_l4_shape(self):
        g, w, labels = graphcore.build_caterpillar(4)
        assert g.n == 23
        assert len(g.edges) == 22
        assert g.is_connected()
        assert g.max_degree == 4
        # spine endpoints bare, interior spine carries two legs per side
        assert g.degree(labels["B0L"]) == 1
        assert g.degree(labels["B0R"]) == 1
        for name in ("B1L", "B2L", "B3L", "B4", "B3R"):
            assert g.degree(labels[name]) == 4
        for name, idx in labels.items():
            if name.startswith("C"):
                assert g.degree(idx) == 1

    def test_l4_potential_values(self):
        g, w, labels = graphcore.build_caterpillar(4)
        assert w.values[labels["B4"]] == pytest.approx(-0.75)
        assert w.values[labels["B0L"]] == 0.0
        assert w.values[labels["C4T"]] == 7.0
        # the central leg potential dwarfs everything else
        others = [v for i, v in enumerate(w.values) if i not in
                  (labels["C4T"], labels["C4B"])]
        assert 7.0 > 9 * max(others)

    @pytest.mark.parametrize("l", range(2, 12))
    def test_invariants(self, l):
        g, w, labels = graphcore.build_caterpillar(l)
        assert g.n == 6 * l - 1
        assert len(g.edges) == 6 * l - 2
        assert g.is_connected()
        assert g.max_degree == 4
        assert len(labels) == g.n
        assert sorted(labels.values()) == list(range(g.n))

    def test_mirror_symmetry(self):
        l = 5
        g, w, labels = graphcore.build_caterpillar(l)
        psi = graphcore.caterpillar_ground_state(l)
        for j in range(l):
            assert w.values[labels[f"B{j}L"]] == w.values[labels[f"B{j}R"]]
            assert psi[labels[f"B{j}L"]] == psi[labels[f"B{j}R"]]
        for j in range(1, l):
            name = "C1" if j == 1 else f"C{j}"
            assert w.values[labels[f"{name}LT"]] == w.values[labels[f"{name}RT"]]
            assert psi[labels[f"{name}LB"]] == psi[labels[f"{name}RB"]]

    def test_small_l_rejected(self):
        with pytest.raises(InvalidSizeError):
            graphcore.build_caterpillar(1)
        with pytest.raises(InvalidSizeError):
            graphcore.caterpillar_ground_state(1)


class TestCaterpillarGroundState:
    def test_l4_values(self):
        _, _, labels = graphcore.build_caterpillar(4)
        psi = graphcore.caterpillar_ground_state(4)
        assert psi[labels["B4"]] == pytest.approx((2 / 3) ** 4)
        assert psi[labels["C4T"]] == pytest.approx((1 / 8) * (2 / 3) ** 4)
        assert psi[labels["B0L"]] == psi[labels["B0R"]] == pytest.approx(2 / 3)

    @pytest.mark.parametrize("l", range(2, 10))
    def test_strictly_positive(self, l):
        assert np.all(graphcore.caterpillar_ground_state(l) > 0)


class TestFindLocalMinima:
    def test_interior_minimum(self):
        g = graphcore.build_path(3)
        assert graphcore.find_local_minima(g, graphcore.Potential([0, -1, 0])) == {1}

    def test_constant_potential_all_vertices(self):
        g = graphcore.build_path(3)
        assert graphcore.find_local_minima(g, graphcore.Potential([0, 0, 0])) == {0, 1, 2}

    @pytest.mark.parametrize("l", range(2, 21))
    def test_caterpillar_unique_minimum(self, l):
        g, w, labels = graphcore.build_caterpillar(l)
        assert graphcore.find_local_minima(g, w) == {labels[f"B{l}"]}

    def test_size_mismatch(self):
        g = graphcore.build_path(3)
        with pytest.raises(DimensionError):
            graphcore.find_local_minima(g, graphcore.Potential([0, 0]))


class TestIsSingleBasin:
    def test_monotone_side_valley(self):
        g = graphcore.build_path(3)
        assert graphcore.is_single_basin(g, graphcore.Potential([3, 1, 2]))

    def test_double_well_rejected(self):
        g = graphcore.build_path(3)
        assert not graphcore.is_single_basin(g, graphcore.Potential([1, 2, 1]))

    @pytest.mark.parametrize("l", range(2, 21))
    def test_caterpillar_single_basin(self, l):
        g, w, _ = graphcore.build_caterpillar(l)
        assert graphcore.is_single_basin(g, w)

    @given(
        # dyadic values keep the shifted comparison exact in float arithmetic
        st.lists(st.integers(-40, 40).map(lambda k: k / 8.0), min_size=2, max_size=8),
        st.integers(-800, 800).map(lambda k: k / 8.0),
    )
    def test_invariant_under_constant_shift(self, vals, c):
        g = graphcore.build_path(len(vals))
        w = graphcore.Potential(vals)
        assert graphcore.is_single_basin(g, w) == graphcore.is_single_basin(g, w.shifted(c))


class TestLocalMaxima:
    @staticmethod
    def reference(g, psi, tol):
        return {
            x for x in range(g.n) if all(psi[x] >= psi[y] - tol for y in g.neighbors(x))
        }

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(1, 12),
        st.integers(0, 10_000),
        st.sampled_from([0.0, 0.05, 0.1, 0.3]),
        st.booleans(),
    )
    def test_matches_neighbour_loop(self, n, seed, tol, with_nan):
        rng = np.random.default_rng(seed)
        pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
        g = graphcore.Graph(n, [e for e in pairs if rng.random() < 0.4])
        # One decimal forces exact ties and ties within tol.
        psi = np.round(rng.uniform(0.0, 1.0, n), 1)
        if with_nan:
            psi[rng.integers(n)] = np.nan
        assert graphcore.local_maxima(g, psi, tol=tol) == self.reference(g, psi, tol)


class TestIsSinglePeaked:
    def test_single_interior_peak(self):
        g = graphcore.build_path(3)
        assert graphcore.is_single_peaked(g, [1, 2, 1])

    def test_two_peaks(self):
        g = graphcore.build_path(3)
        assert not graphcore.is_single_peaked(g, [2, 1, 2])

    def test_constant_plateau(self):
        g = graphcore.build_path(3)
        assert graphcore.is_single_peaked(g, [1, 1, 1])

    @given(st.integers(2, 8), st.floats(0.1, 10))
    def test_any_constant_vector(self, n, value):
        g = graphcore.build_path(n)
        assert graphcore.is_single_peaked(g, [value] * n)

    def test_nonpositive_rejected(self):
        g = graphcore.build_path(2)
        with pytest.raises(DomainError):
            graphcore.is_single_peaked(g, [1.0, 0.0])


class TestGraphIO:
    def test_round_trip(self):
        g, w, labels = graphcore.build_caterpillar(3)
        text = graphcore.write_graph(g, w, labels)
        g2, w2, labels2 = graphcore.read_graph(text)
        assert g2 == g
        assert np.array_equal(w2.values, w.values)
        assert labels2 == labels
        assert graphcore.write_graph(g2, w2, labels2) == text

    def test_missing_potential_defaults_to_zero(self):
        g, w, _ = graphcore.read_graph('{"n": 3, "edges": [[0, 1], [1, 2]]}')
        assert g.n == 3
        assert np.array_equal(w.values, np.zeros(3))

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop"):
            graphcore.read_graph('{"n": 2, "edges": [[0, 0]]}')

    def test_bad_json(self):
        with pytest.raises(ParseError):
            graphcore.read_graph("{")

    def test_missing_n(self):
        with pytest.raises(ParseError, match='"n"'):
            graphcore.read_graph('{"edges": []}')

    def test_wrong_potential_length(self):
        with pytest.raises(ParseError, match='"potential"'):
            graphcore.read_graph('{"n": 2, "edges": [[0, 1]], "potential": [1.0]}')

    def test_out_of_range_edge(self):
        with pytest.raises(ParseError, match='"edges"'):
            graphcore.read_graph('{"n": 2, "edges": [[0, 5]]}')

    def test_bad_label(self):
        with pytest.raises(ParseError, match='"labels"'):
            graphcore.read_graph('{"n": 2, "edges": [[0, 1]], "labels": {"a": 9}}')

    def test_edges_sorted_smaller_first(self):
        g = graphcore.Graph(3, [(2, 1), (1, 0)])
        doc = json.loads(graphcore.write_graph(g))
        assert doc["edges"] == [[0, 1], [1, 2]]
