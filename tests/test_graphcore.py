import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapline import graphcore, spectral
from gapline.errors import (
    DimensionError,
    DomainError,
    InvalidSizeError,
    ParseError,
    StructureError,
)


class TestGraph:
    def test_basic_queries(self):
        g = graphcore.Graph(4, [(0, 1), (1, 2), (3, 2)])
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert len(g.neighbors(1)) == 2
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


class TestPotential:
    def test_compares_and_hashes_by_value(self):
        a, b = graphcore.Potential([0.0, 1.0, 2.0]), graphcore.Potential([0, 1, 2])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != graphcore.Potential([0.0, 1.0, 3.0])
        assert a != graphcore.Potential([0.0, 1.0])
        assert a != a.values
        assert graphcore.Potential([0.0]) == graphcore.Potential([-0.0])
        assert hash(graphcore.Potential([0.0])) == hash(graphcore.Potential([-0.0]))


class TestBuildPath:
    def test_degenerate_single_vertex(self):
        g = graphcore.build_path(1)
        assert g.n == 1 and g.edges == ()

    def test_single_edge(self):
        g = graphcore.build_path(2)
        assert g.edges == ((0, 1),)
        assert len(g.neighbors(0)) == len(g.neighbors(1)) == 1

    def test_five_vertices(self):
        g = graphcore.build_path(5)
        assert g.n == 5 and len(g.edges) == 4
        assert [len(g.neighbors(x)) for x in range(5)] == [1, 2, 2, 2, 1]
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
        assert len(g.neighbors(labels["B0L"])) == 1
        assert len(g.neighbors(labels["B0R"])) == 1
        for name in ("B1L", "B2L", "B3L", "B4", "B3R"):
            assert len(g.neighbors(labels[name])) == 4
        for name, idx in labels.items():
            if name.startswith("C"):
                assert len(g.neighbors(idx)) == 1

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

    def test_l3_anchor_table(self):
        # spine 0..6, then legs at depth 1 (left, right), depth 2, centre
        assert graphcore.caterpillar_anchors(3) == [
            0, 1, 2, 3, 4, 5, 6, 1, 1, 5, 5, 2, 2, 4, 4, 3, 3,
        ]

    def test_small_l_rejected(self):
        with pytest.raises(InvalidSizeError):
            graphcore.build_caterpillar(1)
        with pytest.raises(InvalidSizeError):
            graphcore.caterpillar_ground_state(1)
        with pytest.raises(InvalidSizeError):
            graphcore.caterpillar_anchors(1)


# sha256 of write_graph(*build_caterpillar(l)), and of the little-endian
# float64 bytes of caterpillar_ground_state(l) and of its two-lobe trial
# state: pins vertex order, labels and every bit of W, psi and the trial state.
CATERPILLAR_DIGESTS = {
    2: ("fb76957767d1673e0f84dd24aec7178714333a266ba9306ef099cc9b12f565f2",
        "8bb04ba8915808257e0cb3c61fb02dc09225e132a378589c06de1b4b1455f488",
        "ecc4c114c3eeb171b69075ef769da7c0c52f9ae2eed8aa393ef9f2a8f9e4ca4d"),
    3: ("6a3e509e4fb711325013f8d009b66c0b0a4f99939889bc4b02ec0936b55fc9e2",
        "a005565b0c38def4ac7be1c38b5da62e96511e89bb218b10b07ae0648ab4c316",
        "42bb9ca604b5dc696c5ccc9d52fcb69bd9e83f716f48a3d487826ff745941904"),
    4: ("4bef0b3c9e6b2430552c40a7ed552ef269db1bdc0a0d0294a05a39e0144baa63",
        "2ff4e8f5819a2433d096e852dab08f4472ba3cca41fc97c6d61d4b1e7bcc0221",
        "7e184da9db20b908acd048c4a6127334fccaab306cb1e6168a7c45e063eeb7ac"),
    7: ("ae46485f4840599753bc3d732940e41ace2a88a3d53673be1dcdbb10b3a61964",
        "dbb9fdf3fba16500f6903a9e8af433bb9bdb99a347b75163482874a2203ccf64",
        "98da7809d49c0fbfb6d54a785d91355f0c2541ce53da973b1f56fc97ee238293"),
    41: ("b5e41803a52d01bcbb2461aa43280e3247641c245f88563abfbd6fde4ebdd8a8",
         "c94c0b1ffcb7cfb932d723daffd3a749e0a621503d97cca03dd6f31adae602d0",
         "4e11956f525122eebef95b5cbc5327695e319440a525ea7855e4fb97cec5bb7c"),
}


@pytest.mark.parametrize("l", sorted(CATERPILLAR_DIGESTS))
def test_caterpillar_bytes_pinned(l):
    psi = graphcore.caterpillar_ground_state(l)
    blobs = (
        graphcore.write_graph(*graphcore.build_caterpillar(l)).encode(),
        psi.tobytes(),
        spectral.two_lobe_trial_state(l, psi).tobytes(),
    )
    assert tuple(hashlib.sha256(b).hexdigest() for b in blobs) == CATERPILLAR_DIGESTS[l]


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

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 13), st.integers(0, 10_000))
    def test_matches_neighbour_loop(self, n, seed):
        rng = np.random.default_rng(seed)
        pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
        g = graphcore.Graph(n, [e for e in pairs if rng.random() < 0.4])
        # Few integer levels force ties between neighbours.
        w = graphcore.Potential(rng.integers(-2, 3, n))
        vals = w.values
        expected = {
            x for x in range(g.n) if all(vals[x] <= vals[y] for y in g.neighbors(x))
        }
        assert graphcore.find_local_minima(g, w) == expected


class TestConnectedComponents:
    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 14), st.integers(0, 10_000), st.sampled_from([0.0, 0.2, 0.5]))
    def test_matches_scipy(self, n, seed, subset_p):
        from scipy.sparse import csr_array
        from scipy.sparse.csgraph import connected_components

        rng = np.random.default_rng(seed)
        pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
        g = graphcore.Graph(n, [e for e in pairs if rng.random() < 0.3])
        # subset_p 0 keeps every vertex; the empty set and single vertices
        # come from small n and the random drops.
        vertices = [x for x in range(n) if rng.random() >= subset_p]
        parts = graphcore.connected_components(g, vertices)
        index = {x: i for i, x in enumerate(vertices)}
        sub = [(index[x], index[y]) for x, y in g.edges if x in index and y in index]
        rows, cols = zip(*sub) if sub else ((), ())
        adj = csr_array((np.ones(len(sub)), (rows, cols)), shape=(len(vertices),) * 2)
        count, label = connected_components(adj, directed=False)
        expected = {frozenset(x for x in vertices if label[index[x]] == c) for c in range(count)}
        assert {frozenset(p) for p in parts} == expected
        assert len(parts) == count
        assert graphcore.is_connected_subset(g, vertices) == (count <= 1)

    @pytest.mark.parametrize("vertices, expected", [([], []), ([2], [{2}])])
    def test_empty_and_single_vertex(self, vertices, expected):
        g = graphcore.build_path(4)
        assert graphcore.connected_components(g, vertices) == expected
        assert graphcore.is_connected_subset(g, vertices)


def sublevel_scan(g, w):
    """Reference: every strict sublevel set, one per distinct value of W,
    tested for connectivity."""
    vals = w.values
    return all(
        graphcore.is_connected_subset(g, [x for x in range(g.n) if vals[x] < threshold])
        for threshold in np.unique(vals)
    )


class TestIsSingleBasin:
    def test_monotone_side_valley(self):
        g = graphcore.build_path(3)
        assert graphcore.is_single_basin(g, graphcore.Potential([3, 1, 2]))

    def test_double_well_rejected(self):
        g = graphcore.build_path(3)
        assert not graphcore.is_single_basin(g, graphcore.Potential([1, 2, 1]))

    def test_draining_plateau_is_not_a_sink(self):
        # Vertex 1 is a local minimum, but its level neighbour 2 drains to 3.
        g = graphcore.build_path(4)
        w = graphcore.Potential([2, 1, 1, 0])
        assert graphcore.find_local_minima(g, w) == {1, 3}
        assert graphcore.is_single_basin(g, w)
        double_well = graphcore.Potential([2, 1, 1, 2, 0])
        assert not graphcore.is_single_basin(graphcore.build_path(5), double_well)

    def test_flat_potential_is_one_sink(self):
        g = graphcore.Graph(5, [(x, y) for x in range(5) for y in range(x + 1, 5)])
        assert graphcore.is_single_basin(g, graphcore.Potential(np.zeros(5)))
        assert graphcore.is_single_basin(graphcore.build_path(1), graphcore.Potential([3.0]))

    def test_disconnected_graph_refused(self):
        with pytest.raises(StructureError):
            graphcore.is_single_basin(graphcore.Graph(3, [(0, 1)]), graphcore.Potential([0, 1, 2]))

    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 13), st.integers(0, 10_000), st.sampled_from([0.0, 0.15, 0.4]))
    def test_matches_sublevel_scan(self, n, seed, extra_edge_prob):
        rng = np.random.default_rng(seed)
        # A random spanning tree keeps the graph connected; few integer
        # levels force plateaus, draining and not.
        edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
        pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
        edges |= {e for e in pairs if rng.random() < extra_edge_prob}
        g = graphcore.Graph(n, sorted(edges))
        w = graphcore.Potential(rng.integers(-2, 3, n))
        assert graphcore.is_single_basin(g, w) == sublevel_scan(g, w)

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
