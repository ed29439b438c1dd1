"""Graphs, vertex potentials, named generators, and structural classifiers.

Vertices are dense 0-based integers.  Label maps (used by the caterpillar
generator) are metadata only and never affect identity.
"""

from __future__ import annotations

import functools
import json
from collections import deque
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

    def degree(self, x: int) -> int:
        return len(self._adj[x])

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
        return len(_component_of(self._adj, 0, range(self._n))) == self._n

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


def _component_of(adj, start, allowed) -> set[int]:
    """Vertices reachable from `start` walking only through `allowed`."""
    allowed = set(allowed)
    if start not in allowed:
        return set()
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u in allowed and u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


def connected_components(g: Graph, vertices) -> list[set[int]]:
    """Connected components of the subgraph induced on `vertices`."""
    remaining = set(vertices)
    parts = []
    while remaining:
        comp = _component_of(g._adj, next(iter(remaining)), remaining)
        parts.append(comp)
        remaining -= comp
    return parts


def is_connected_subset(g: Graph, vertices) -> bool:
    """True iff the induced subgraph on `vertices` is connected (empty counts)."""
    vertices = set(vertices)
    if len(vertices) <= 1:
        return True
    return len(_component_of(g._adj, next(iter(vertices)), vertices)) == len(vertices)


@dataclass(frozen=True)
class Potential:
    """Real-valued potential on the vertices of a graph."""

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


def check_length(g: Graph, length: int, what: str) -> None:
    """Raise DimensionError naming `what` unless `length` equals g.n."""
    if length != g.n:
        raise DimensionError(f"{what} has length {length}, graph has {g.n} vertices")


def build_path(l: int) -> Graph:
    """Path graph on l vertices: edges (i, i+1)."""
    if l < 1:
        raise InvalidSizeError(f"path needs at least 1 vertex, got {l}")
    return Graph(l, [(i, i + 1) for i in range(l - 1)])


def caterpillar_layout(l: int) -> dict:
    """Vertex index layout of the 6l-1 caterpillar.

    Spine runs left to right at indices 0..2l: B_j left at j, the central
    minimum B_l at l, B_j right at 2l-j.  Legs follow, four per interior
    spine position (left/right side, two slots each), then the two central
    legs.  Returns index lists for the spine, the legs keyed by (side, j),
    and the left/right/center vertex partition.
    """
    if l < 2:
        raise InvalidSizeError(f"caterpillar needs l >= 2, got {l}")
    spine = list(range(2 * l + 1))
    legs: dict[tuple[str, int], list[int]] = {}
    nxt = 2 * l + 1
    for j in range(1, l):
        legs[("left", j)] = [nxt, nxt + 1]
        legs[("right", j)] = [nxt + 2, nxt + 3]
        nxt += 4
    legs[("center", l)] = [nxt, nxt + 1]
    left = set(range(l)) | {v for (side, _), vs in legs.items() if side == "left" for v in vs}
    right = set(range(l + 1, 2 * l + 1)) | {
        v for (side, _), vs in legs.items() if side == "right" for v in vs
    }
    center = {l} | set(legs[("center", l)])
    return {"l": l, "spine": spine, "legs": legs, "left": left, "right": right, "center": center}


def _caterpillar_leg_potential(l: int, j: int) -> float:
    if j == 1:
        return 1.0 / (11.0 / 12.0 - 1.0 / (8 * l)) - 1.0
    if j == l:
        return 7.0
    return 1.0 / (2.0 / 3.0 - j / (8.0 * l)) - 1.0


def build_caterpillar(l: int) -> tuple[Graph, Potential, dict[str, int]]:
    """Caterpillar graph on 6l-1 vertices with its single-basin potential.

    The spine potential decreases monotonically toward the central vertex
    B_l, and each leg's potential exceeds that of the spine vertex it hangs
    from, so the unique local minimum is B_l.  Which spine vertices carry
    legs (all but the two endpoints; two legs per side per position, two at
    the center) is fixed by requiring that the closed-form ground state
    from `caterpillar_ground_state` is an exact null vector of the
    Hamiltonian; the residual test enforces this.
    """
    layout = caterpillar_layout(l)
    edges = [(p, p + 1) for p in range(2 * l)]
    for (side, j), leg_vertices in layout["legs"].items():
        spine_idx = j if side == "left" else (l if side == "center" else 2 * l - j)
        for v in leg_vertices:
            edges.append((spine_idx, v))
    g = Graph(6 * l - 1, edges)

    w = np.zeros(6 * l - 1)
    for p in layout["spine"]:
        j = p if p <= l else 2 * l - p
        w[p] = 0.0 if j == 0 else -0.5 - j / (4.0 * l)
    for (side, j), leg_vertices in layout["legs"].items():
        jj = l if side == "center" else j
        for v in leg_vertices:
            w[v] = _caterpillar_leg_potential(l, jj)

    labels: dict[str, int] = {}
    for p in layout["spine"]:
        if p < l:
            labels[f"B{p}L"] = p
        elif p == l:
            labels[f"B{l}"] = p
        else:
            labels[f"B{2 * l - p}R"] = p
    for (side, j), leg_vertices in layout["legs"].items():
        if side == "center":
            labels[f"C{l}T"], labels[f"C{l}B"] = leg_vertices
        else:
            code = "L" if side == "left" else "R"
            labels[f"C{j}{code}T"], labels[f"C{j}{code}B"] = leg_vertices
    return g, Potential(w), labels


def caterpillar_ground_state(l: int) -> np.ndarray:
    """Closed-form unnormalized zero-energy ground state of the caterpillar.

    Two mirror-symmetric lobes peaking at the spine endpoints, with
    amplitude (2/3)^l at the central minimum.
    """
    layout = caterpillar_layout(l)
    psi = np.zeros(6 * l - 1)
    for p in layout["spine"]:
        j = p if p <= l else 2 * l - p
        psi[p] = 2.0 / 3.0 if j == 0 else (2.0 / 3.0) ** j
    for (side, j), leg_vertices in layout["legs"].items():
        if side == "center":
            amp = 0.125 * (2.0 / 3.0) ** l
        elif j == 1:
            amp = (2.0 / 3.0) * (11.0 / 12.0 - 1.0 / (8 * l))
        else:
            amp = (2.0 / 3.0 - j / (8.0 * l)) * (2.0 / 3.0) ** j
        for v in leg_vertices:
            psi[v] = amp
    return psi


def find_local_minima(g: Graph, w: Potential) -> set[int]:
    """Vertices whose potential is <= that of every neighbor."""
    check_length(g, len(w), "potential")
    vals = w.values
    return {
        x for x in range(g.n) if all(vals[x] <= vals[y] for y in g.neighbors(x))
    }


def is_single_basin(g: Graph, w: Potential) -> bool:
    """True iff every strict sublevel set {x : W(x) < E} is connected.

    Connectivity can only change at the distinct values of W, so those are
    the only thresholds tested.
    """
    check_length(g, len(w), "potential")
    if not g.is_connected():
        raise StructureError("single-basin test requires a connected graph")
    vals = w.values
    for threshold in np.unique(vals):
        sub = [x for x in range(g.n) if vals[x] < threshold]
        if not is_connected_subset(g, sub):
            return False
    return True


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
