"""Graphs, vertex potentials, named generators, and structural classifiers.

Vertices are dense 0-based integers.  Label maps (used by the caterpillar
generator) are metadata only and never affect identity.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    InvalidSizeError,
    ParseError,
    StructureError,
)


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Immutable after construction; safe to share across threads.
    """

    def __init__(self, n: int, edges) -> None:
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise DomainError(f"vertex count must be a positive integer, got {n!r}")
        normalized = []
        seen = set()
        for e in edges:
            x, y = e
            x, y = int(x), int(y)
            if x == y:
                raise DomainError(f"self-loop at vertex {x}")
            if not (0 <= x < n and 0 <= y < n):
                raise DomainError(f"edge ({x},{y}) has endpoint outside [0,{n})")
            if x > y:
                x, y = y, x
            if (x, y) in seen:
                raise DomainError(f"duplicate edge ({x},{y})")
            seen.add((x, y))
            normalized.append((x, y))
        normalized.sort()
        self._n = int(n)
        self._edges = tuple(normalized)
        adj: list[list[int]] = [[] for _ in range(self._n)]
        for x, y in self._edges:
            adj[x].append(y)
            adj[y].append(x)
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (smaller, larger) pairs in lexicographic order."""
        return self._edges

    def neighbors(self, x: int) -> tuple[int, ...]:
        return self._adj[x]

    @property
    def degrees(self) -> np.ndarray:
        return np.array([len(nbrs) for nbrs in self._adj], dtype=np.int64)

    @property
    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self._adj), default=0)

    @functools.cached_property
    def edge_index(self) -> np.ndarray:
        """Edges as a read-only (2, m) integer array, rows x < y."""
        index = np.array(self._edges, dtype=np.intp).reshape(-1, 2).T
        index.flags.writeable = False
        return index

    def is_connected(self) -> bool:
        return len(connected_components(self, range(self._n))) == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self._n == other._n
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, edges={len(self._edges)})"


def connected_components(g: Graph, vertices) -> list[set[int]]:
    """Connected components of the subgraph induced on `vertices`."""
    remaining = set(vertices)
    parts = []
    while remaining:
        start = next(iter(remaining))
        comp = {start}
        queue = [start]
        for v in queue:  # breadth first: the list grows as it is walked
            for u in g._adj[v]:
                if u in remaining and u not in comp:
                    comp.add(u)
                    queue.append(u)
        parts.append(comp)
        remaining -= comp
    return parts


def is_connected_subset(g: Graph, vertices) -> bool:
    """True iff the induced subgraph on `vertices` is connected (empty counts)."""
    return len(connected_components(g, vertices)) <= 1


@dataclass(frozen=True, eq=False)
class Potential:
    """Real-valued potential on the vertices of a graph; a value, like Graph."""

    values: np.ndarray

    def __init__(self, values) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            raise DomainError("potential must be a flat vector")
        if not np.all(np.isfinite(arr)):
            raise DomainError("potential entries must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def spread(self) -> float:
        """|W| = max - min; zero iff constant."""
        return float(self.values.max() - self.values.min())

    def __len__(self) -> int:
        return len(self.values)

    def shifted(self, c: float) -> "Potential":
        return Potential(self.values + c)

    def __eq__(self, other) -> bool:
        return isinstance(other, Potential) and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash(tuple(self.values.tolist()))


def check_length(g: Graph, length: int, what: str) -> None:
    """Raise DimensionError naming `what` unless `length` equals g.n."""
    if length != g.n:
        raise DimensionError(f"{what} has length {length}, graph has {g.n} vertices")


def build_path(l: int) -> Graph:
    """Path graph on l vertices: edges (i, i+1)."""
    if l < 1:
        raise InvalidSizeError(f"path needs at least 1 vertex, got {l}")
    return Graph(l, [(i, i + 1) for i in range(l - 1)])


def caterpillar_anchors(l: int) -> list[int]:
    """Spine vertex each vertex of the 6l-1 caterpillar hangs from, in vertex order.

    The spine 0..2l anchors itself; its depth j = min(a, 2l - a) runs from 0
    at the ends to l at the central minimum B_l.  Legs follow, four per
    depth j = 1..l-1 (anchors j, j, 2l-j, 2l-j), then the two central legs
    (anchor l).  An anchor below l is on the left side, above l on the right.
    """
    if l < 2:
        raise InvalidSizeError(f"caterpillar needs l >= 2, got {l}")
    legs = [a for j in range(1, l) for a in (j, j, 2 * l - j, 2 * l - j)]
    return list(range(2 * l + 1)) + legs + [l, l]


def _leg_ratio(l: int, j: int) -> float:
    """Amplitude a_j of a leg at depth j relative to its spine vertex."""
    if j == l:
        return 0.125
    if j == 1:
        return 11.0 / 12.0 - 1.0 / (8 * l)
    return 2.0 / 3.0 - j / (8.0 * l)


def build_caterpillar(l: int) -> tuple[Graph, Potential, dict[str, int]]:
    """Caterpillar graph on 6l-1 vertices with its single-basin potential.

    The spine potential decreases monotonically toward the central vertex
    B_l, and each leg's potential 1/a_j - 1 exceeds that of the spine vertex
    it hangs from, so the unique local minimum is B_l.  That leg potential
    makes H psi vanish on every leg of `caterpillar_ground_state`; which
    spine vertices carry legs (all but the two endpoints; two legs per side
    per position, two at the center) is fixed by requiring that it vanish on
    the spine too, which the residual test enforces.  Labels are B{j}{side}
    on the spine and C{j}{side}{T|B} on legs, side L, R, or empty at B_l.
    """
    anchors = caterpillar_anchors(l)
    edges = [(p, p + 1) for p in range(2 * l)]
    edges += [(a, v) for v, a in enumerate(anchors) if a != v]
    g = Graph(len(anchors), edges)

    w = np.zeros(len(anchors))
    labels: dict[str, int] = {}
    for v, a in enumerate(anchors):
        j = min(a, 2 * l - a)
        side = "L" if a < l else "R" if a > l else ""
        if a == v:
            w[v] = 0.0 if j == 0 else -0.5 - j / (4.0 * l)
            labels[f"B{j}{side}"] = v
        else:
            w[v] = 1.0 / _leg_ratio(l, j) - 1.0
            labels[f"C{j}{side}{'B' if anchors[v - 1] == a else 'T'}"] = v
    return g, Potential(w), labels


def caterpillar_ground_state(l: int) -> np.ndarray:
    """Closed-form unnormalized zero-energy ground state of the caterpillar.

    Two mirror-symmetric lobes peaking at the spine endpoints, with
    amplitude (2/3)^l at the central minimum.
    """
    anchors = caterpillar_anchors(l)
    psi = np.zeros(len(anchors))
    for v, a in enumerate(anchors):
        j = min(a, 2 * l - a)
        psi[v] = (2.0 / 3.0) ** max(j, 1) if a == v else _leg_ratio(l, j) * psi[a]
    return psi


def find_local_minima(g: Graph, w: Potential) -> set[int]:
    """Vertices whose potential is <= that of every neighbor."""
    check_length(g, len(w), "potential")
    return local_maxima(g, -w.values)


def is_single_basin(g: Graph, w: Potential) -> bool:
    """True iff every strict sublevel set {x : W(x) < E} is connected.

    That holds iff there is one sink: a component of the local minima, in
    the subgraph they induce, with no edge to a vertex of equal W outside
    them.  Downhill from any vertex below E stays below E and ends in a sink;
    a second sink is cut off from the first in the sublevel set just above
    its own level.  Adjacent minima have equal W, so each sink plateau is one
    such component.  O(n + m); the graph must be connected.
    """
    minima = find_local_minima(g, w)
    if not g.is_connected():
        raise StructureError("single-basin test requires a connected graph")
    x, y = g.edge_index
    in_minima = np.isin(np.arange(g.n), list(minima))
    leaks = (w.values[x] == w.values[y]) & (in_minima[x] != in_minima[y])
    leaky = set(x[leaks].tolist() + y[leaks].tolist())
    return sum(not c & leaky for c in connected_components(g, minima)) == 1


def local_maxima(g: Graph, psi, tol: float = 0.0) -> set[int]:
    """Non-strict local maxima of psi; `tol` widens plateaus for solver noise."""
    psi = np.asarray(psi, dtype=float)
    check_length(g, len(psi), "vector")
    x, y = g.edge_index
    beaten = np.zeros(g.n, dtype=bool)
    beaten[x[~(psi[x] >= psi[y] - tol)]] = True
    beaten[y[~(psi[y] >= psi[x] - tol)]] = True
    return set(np.flatnonzero(~beaten).tolist())


def is_single_peaked(g: Graph, psi, tol: float = 0.0) -> bool:
    """True iff the set of local maxima of psi induces a connected subgraph."""
    psi = np.asarray(psi, dtype=float)
    check_length(g, len(psi), "vector")
    if np.any(psi <= 0):
        raise DomainError("single-peaked test requires strictly positive amplitudes")
    return is_connected_subset(g, local_maxima(g, psi, tol=tol))


def read_graph(text: str) -> tuple[Graph, Potential, dict[str, int] | None]:
    """Parse the JSON graph document; see `write_graph` for the format.

    A missing "potential" defaults to all zeros; "labels" is optional
    metadata and is returned as-is (or None).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if "n" not in doc:
        raise ParseError('missing field "n"')
    # Exact type tests, not isinstance: JSON true/false load as bool, a
    # subclass of int, and are neither counts, vertex indices nor potentials.
    n = doc["n"]
    if type(n) is not int or n < 1:
        raise ParseError('"n" must be a positive integer')
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise ParseError('"edges" must be a list of pairs')
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e)):
            raise ParseError(f'"edges" entry {e!r} is not an integer pair')
    try:
        g = Graph(n, edges)
    except DomainError as exc:
        raise ParseError(f'"edges": {exc}') from exc
    raw_w = doc.get("potential")
    if raw_w is None:
        w = Potential(np.zeros(n))
    else:
        if not (
            isinstance(raw_w, list)
            and len(raw_w) == n
            and all(type(v) in (int, float) for v in raw_w)
        ):
            raise ParseError(f'"potential" must be a list of {n} numbers')
        try:
            w = Potential(raw_w)
        except DomainError as exc:
            raise ParseError(f'"potential": {exc}') from exc
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, dict):
            raise ParseError('"labels" must be an object mapping names to vertices')
        for k, v in labels.items():
            if type(v) is not int or not 0 <= v < n:
                raise ParseError(f'"labels" entry {k!r}: {v!r} is not a vertex index')
    return g, w, labels


def write_graph(g: Graph, w: Potential | None = None, labels: dict[str, int] | None = None) -> str:
    """Serialize to the canonical JSON document.

    Format: {"n": int, "edges": [[a,b],...], "potential": [...], "labels": {...}}.
    Edges are emitted smaller-index first in lexicographic order.
    """
    if w is None:
        w = Potential(np.zeros(g.n))
    check_length(g, len(w), "potential")
    doc: dict = {
        "n": g.n,
        "edges": [[x, y] for x, y in g.edges],
        "potential": list(w.values),
    }
    if labels is not None:
        doc["labels"] = dict(sorted(labels.items()))
    return json.dumps(doc, indent=None)
