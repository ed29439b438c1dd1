"""Markov-chain gap bounds: conductance sandwich, single-peaked lower bound,
and Poincare canonical-path bounds.

The bridge between Hamiltonians and random walks is the similarity transform
P = (1/E) D^-1 H D with D = diag(psi), valid once the potential has been
shifted below -d_G so that E < 0 and the walk is aperiodic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DomainError,
    PreconditionError,
    SizeGuardError,
    StructureError,
)
from .graphcore import Graph, Potential, check_length, connected_components, local_maxima
from .spectral import Spectrum, assemble

# 2^(n-1) - 1 cuts; above this, use cut_profile on chosen cuts instead.
CUT_ENUMERATION_LIMIT = 24

ROW_SUM_TOL = 1e-9

# Plateau tolerance for single-peaked tests on solver output: eigensolver
# noise of about 1e-16 must not split a flat maximum into components.
PLATEAU_TOL = 1e-12

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def normalize_potential(g: Graph, w: Potential) -> tuple[Potential, float]:
    """Shift w down by W_max + d_G + 1 so all entries fall strictly below -d_G.

    The extra +1 beyond the minimal shift keeps every walk diagonal strictly
    positive (aperiodicity margin).  Gap and ground state are unchanged;
    returns (shifted potential, shift).
    """
    shift = float(w.values.max()) + g.max_degree + 1.0
    return w.shifted(-shift), shift


@dataclass(frozen=True)
class WalkMatrix:
    """Row-stochastic reversible walk similar to H/E."""

    matrix: np.ndarray        # P
    stationary: np.ndarray    # pi = psi^2 (unit psi)
    energy: float             # ground energy E < 0 used in the transform
    graph: Graph

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def spectral_gap(self) -> float:
        """1 minus the second-largest eigenvalue of P.

        P is reversible, so diag(sqrt(pi)) P diag(1/sqrt(pi)) is symmetric
        with the same eigenvalues; it is symmetrized exactly before eigvalsh.
        """
        root = np.sqrt(self.stationary)
        a = root[:, np.newaxis] * self.matrix / root[np.newaxis, :]
        vals = np.linalg.eigvalsh((a + a.T) / 2.0)
        return float(1.0 - vals[-2])


def build_walk_matrix(g: Graph, w_shifted: Potential, spectrum: Spectrum) -> WalkMatrix:
    """Similarity transform of the Hamiltonian into a random walk.

    Requires the shifted potential strictly below -d_G (so E < 0 and the
    walk is ergodic).  The stationary distribution is psi^2.
    """
    if np.any(w_shifted.values >= -g.max_degree):
        raise PreconditionError(
            "walk transform requires all potential entries strictly below -d_G; "
            "apply normalize_potential first"
        )
    if spectrum.energy >= 0:
        raise DomainError(
            f"walk transform undefined for ground energy {spectrum.energy} >= 0"
        )
    h = assemble(g, w_shifted).matrix
    psi = spectrum.psi
    p = (h * psi[np.newaxis, :] / psi[:, np.newaxis]) / spectrum.energy
    rows = p.sum(axis=1)
    if np.max(np.abs(rows - 1.0)) > ROW_SUM_TOL:
        raise ConsistencyError(
            f"walk matrix row sums deviate by {np.max(np.abs(rows - 1.0)):.3e}"
        )
    pi = psi**2
    pi = pi / pi.sum()
    return WalkMatrix(matrix=p, stationary=pi, energy=spectrum.energy, graph=g)


@dataclass(frozen=True)
class CutReport:
    """Flow and masses of one vertex cut, in Hamiltonian units.

    flow = sum of psi(x)psi(y) over cut edges; ratio = flow / min(masses).
    """

    subset: tuple[int, ...]
    flow: float
    mass_inside: float
    mass_outside: float
    ratio: float


@dataclass(frozen=True)
class ConductanceReport:
    """Exact conductance with its minimizing cut."""

    phi: float
    minimizer: CutReport
    cuts_examined: int


def cut_profile(g: Graph, psi, subset) -> CutReport:
    """Flow, masses, and ratio for one cut; 2*ratio upper-bounds the gap."""
    psi = np.asarray(psi, dtype=float)
    check_length(g, len(psi), "vector")
    s = set(subset)
    if not s or len(s) == g.n:
        raise DomainError("cut subset must be nonempty and proper")
    if not all(0 <= v < g.n for v in s):
        raise DomainError("cut subset contains out-of-range vertices")
    flow = sum(psi[x] * psi[y] for x, y in g.edges if (x in s) != (y in s))
    psi2 = psi**2
    inside = float(sum(psi2[v] for v in s))
    outside = float(psi2.sum() - inside)
    return CutReport(
        subset=tuple(sorted(s)),
        flow=float(flow),
        mass_inside=inside,
        mass_outside=outside,
        ratio=float(flow) / min(inside, outside),
    )


def conductance_exact(g: Graph, psi) -> ConductanceReport:
    """Exhaustive-minimum conductance Phi_H over all proper cuts.

    Enumerates each {S, complement} pair once (vertex n-1 pinned to the
    complement).  Ties broken by smallest subset bitmask; the minimizer is
    reported with its smaller-mass side.
    """
    psi = np.asarray(psi, dtype=float)
    n = g.n
    check_length(g, len(psi), "vector")
    if n < 2:
        raise DomainError("conductance needs at least 2 vertices")
    if n > CUT_ENUMERATION_LIMIT:
        raise SizeGuardError(
            f"exhaustive conductance is limited to n <= {CUT_ENUMERATION_LIMIT} "
            f"(got n = {n}); evaluate chosen cuts with cut_profile instead"
        )
    if np.any(psi <= 0):
        raise DomainError("conductance requires strictly positive amplitudes")
    masks = np.arange(1, 1 << (n - 1), dtype=np.int64)
    psi2 = psi**2
    total = float(psi2.sum())
    mass = np.zeros(len(masks))
    for v in range(n - 1):
        mass += psi2[v] * ((masks >> v) & 1)
    flow = np.zeros(len(masks))
    for x, y in g.edges:
        flow += (psi[x] * psi[y]) * (((masks >> x) ^ (masks >> y)) & 1)
    ratio = flow / np.minimum(mass, total - mass)
    best = int(np.argmin(ratio))  # first occurrence = smallest bitmask
    mask = int(masks[best])
    subset = [v for v in range(n) if (mask >> v) & 1]
    if sum(psi2[v] for v in subset) > total / 2:
        subset = [v for v in range(n) if not (mask >> v) & 1]
    report = cut_profile(g, psi, subset)
    return ConductanceReport(
        phi=float(ratio[best]), minimizer=report, cuts_examined=len(masks)
    )


@dataclass(frozen=True)
class SandwichBounds:
    """Two-sided conductance bounds on the gap of H_{G,W}."""

    lower: float
    upper: float
    phi: float
    shifted_energy: float
    conductance: ConductanceReport


def gap_sandwich(g: Graph, w: Potential, spectrum: Spectrum) -> SandwichBounds:
    """Conductance sandwich -Phi^2/(2E) <= gap <= 2 Phi.

    `spectrum` is the solved spectrum of the unshifted assemble(g, w).  The
    potential is shifted below -d_G, which leaves psi unchanged and moves
    the ground energy to E - shift; the lower bound uses that shifted
    energy, so the extra aperiodicity margin in the shift only loosens
    (never invalidates) the bound.
    """
    if not g.is_connected():
        raise StructureError("conductance sandwich requires a connected graph")
    check_length(g, len(spectrum.psi), "spectrum psi")
    _, shift = normalize_potential(g, w)
    energy = spectrum.energy - shift
    report = conductance_exact(g, spectrum.psi)
    phi = report.phi
    return SandwichBounds(
        lower=-phi * phi / (2.0 * energy),
        upper=2.0 * phi,
        phi=phi,
        shifted_energy=energy,
        conductance=report,
    )


def single_peaked_gap_bound(
    g: Graph, w: Potential, spectrum: Spectrum, plateau_tol: float = PLATEAU_TOL
) -> float:
    """Lower bound 1 / (2 (|W| + d_G) |V|^2), valid when the ground state
    of assemble(g, w), given as its solved `spectrum`, is single-peaked;
    raises PreconditionError naming the disconnected plateau components
    otherwise.
    """
    if not g.is_connected():
        raise StructureError("single-peaked bound requires a connected graph")
    check_length(g, len(spectrum.psi), "spectrum psi")
    maxima = local_maxima(g, spectrum.psi, tol=plateau_tol)
    parts = connected_components(g, maxima)
    if len(parts) > 1:
        listing = "; ".join(str(sorted(p)) for p in parts)
        raise PreconditionError(
            f"ground state is not single-peaked: maxima split into {len(parts)} "
            f"components: {listing}"
        )
    return 1.0 / (2.0 * (w.spread + g.max_degree) * g.n**2)


@dataclass(frozen=True)
class CanonicalPathSet:
    """One edge-simple path per ordered vertex pair; reverse pairs reversed."""

    paths: dict[tuple[int, int], tuple[int, ...]]

    def validate(self, g: Graph) -> None:
        edge_set = set(g.edges)
        for (x, y), path in self.paths.items():
            if path[0] != x or path[-1] != y:
                raise DomainError(f"path for ({x},{y}) does not join its endpoints")
            used = set()
            for a, b in zip(path, path[1:]):
                e = (min(a, b), max(a, b))
                if e not in edge_set:
                    raise DomainError(f"path for ({x},{y}) uses non-edge ({a},{b})")
                if e in used:
                    raise DomainError(f"path for ({x},{y}) repeats edge ({a},{b})")
                used.add(e)


def _bfs_predecessors(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Hop distances dist[x, v] and BFS-tree predecessors pred[x, v], all sources.

    pred[x, v] is the lowest-index neighbour u of v with
    dist(x, u) = dist(x, v) - 1, and pred[x, x] = x.  The graph must be
    connected.
    """
    # Deferred: only canonical paths pay for importing scipy.sparse.
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import shortest_path

    n = g.n
    x, y = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    adjacency = coo_array((np.ones(len(x)), (x, y)), shape=(n, n)).tocsr()
    dist = shortest_path(adjacency, directed=False, unweighted=True).astype(np.intp)
    pred = np.empty((n, n), dtype=np.intp)
    for v in range(n):
        nbrs = np.array(g.neighbors(v), dtype=np.intp)
        if len(nbrs):
            # argmax picks the first hit; neighbours are in ascending order.
            pred[:, v] = nbrs[np.argmax(dist[:, nbrs] == dist[:, v, np.newaxis] - 1, axis=1)]
    pred[np.diag_indices(n)] = np.arange(n)
    return dist, pred


def default_canonical_paths(g: Graph) -> CanonicalPathSet:
    """Breadth-first shortest paths, lowest-index predecessor tie-break.

    The path for (x, y) with x < y follows the BFS tree of x; (y, x) is its
    reverse.  On path graphs this reproduces the unique valid choice.
    """
    if not g.is_connected():
        raise StructureError("canonical paths require a connected graph")
    pred = _bfs_predecessors(g)[1].tolist()
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    for x in range(g.n):
        for y in range(g.n):
            if y < x:
                paths[(x, y)] = tuple(reversed(paths[(y, x)]))
            elif y > x:
                chain = [y]
                while chain[-1] != x:
                    chain.append(pred[x][chain[-1]])
                paths[(x, y)] = tuple(reversed(chain))
    return CanonicalPathSet(paths=paths)


def _require_finite_kappa(psi: np.ndarray) -> None:
    """Refuse amplitudes for which kappa' is not a finite positive float64.

    Every partial sum of kappa' is at most 2 n (sum psi^2)^2 / min(psi)^2,
    so checking that bound in logarithms, before any division, keeps every
    step finite and free of overflow.
    """
    smallest = float(np.min(psi))
    if not smallest > 0.0 or (
        math.log(2.0 * len(psi)) + 2.0 * math.log(float(psi @ psi)) - 2.0 * math.log(smallest)
        >= _LOG_FLOAT_MAX
    ):
        raise PreconditionError(
            f"kappa' needs every ground-state amplitude positive and large enough "
            f"to stay finite in float64; the smallest ground-state amplitude is "
            f"{smallest:.3e}"
        )


def _tree_kappa(g: Graph, psi: np.ndarray) -> float:
    """kappa' for default_canonical_paths, from one BFS tree per source.

    For each source x, length[x, v] is the inverse-flow length of the tree
    path from x to v, and below[x, v] sums psi_y^2 length[x, y] over the
    y > x in the subtree of v.  The edge (pred[x, v], v) then carries
    2 psi_x^2 below[x, v]; the factor 2 counts the reversed pairs.  All
    sources are swept together, one hop level at a time: O(n (n + m)) work
    and O(n^2) memory.
    """
    n = g.n
    dist, pred = _bfs_predecessors(g)
    # Entries (x, v) sorted by hop level, so that each level is one slice and
    # the n diagonal entries (level 0) come first.  length and below are
    # indexed by this sorted position.
    order = np.argsort(dist, axis=None, kind="stable")
    level_end = np.cumsum(np.bincount(dist.ravel()))
    levels = [slice(a, b) for a, b in zip(np.r_[0, level_end[:-1]], level_end)]
    rows, cols = np.divmod(order, n)
    parents = pred.ravel()[order]
    position = np.empty(n * n, dtype=np.intp)
    position[order] = np.arange(n * n)
    up = position[rows * n + parents]    # sorted position of each tree parent
    step = 1.0 / (psi[cols] * psi[parents])
    length = np.zeros(n * n)
    for lv in levels[1:]:
        length[lv] = length[up[lv]] + step[lv]
    p2 = psi**2
    below = np.where(cols > rows, p2[cols] * length, 0.0)
    for parent_lv, lv in zip(levels[-2::-1], levels[:0:-1]):
        below[parent_lv] += np.bincount(
            up[lv] - parent_lv.start, weights=below[lv], minlength=parent_lv.stop - parent_lv.start
        )
    edge_id = np.zeros((n, n), dtype=np.intp)
    x, y = np.array(g.edges).T
    edge_id[x, y] = edge_id[y, x] = np.arange(len(g.edges))
    off = slice(n, None)
    load = np.bincount(
        edge_id[parents[off], cols[off]],
        weights=2.0 * p2[rows[off]] * below[off],
        minlength=len(g.edges),
    )
    return float(load.max())


def poincare_bound(
    g: Graph, spectrum: Spectrum, paths: CanonicalPathSet | None = None
) -> float:
    """Poincare lower bound 1/kappa' on the gap of H_{G,W}.

    kappa' is computed with the unit-normalized ground state of the solved
    `spectrum`; the ground energy cancels from the final bound, so no shift
    is needed.  Without `paths`, kappa' for default_canonical_paths comes
    from the BFS trees directly and no path set is built.  Raises
    PreconditionError when the ground state has an entry <= 0 or so small
    that kappa' is not finite in float64.
    """
    if not g.is_connected():
        raise StructureError("Poincare bound requires a connected graph")
    check_length(g, len(spectrum.psi), "spectrum psi")
    psi = spectrum.psi
    _require_finite_kappa(psi)
    if paths is None:
        return 1.0 / _tree_kappa(g, psi)
    paths.validate(g)
    load: dict[tuple[int, int], float] = {e: 0.0 for e in g.edges}
    for (x, y), path in paths.paths.items():
        weight = psi[x] ** 2 * psi[y] ** 2
        inv_flow = sum(
            1.0 / (psi[a] * psi[b]) for a, b in zip(path, path[1:])
        )
        for a, b in zip(path, path[1:]):
            load[(min(a, b), max(a, b))] += weight * inv_flow
    kappa = max(load.values())
    return 1.0 / kappa


def path_kappa(psi) -> float:
    """kappa' on a path graph by the specialized double sum.

    For each edge j, sums R(s,f) = psi(s)^2 psi(f)^2 * (inverse-flow length
    of the segment) over pairs s <= j < f, doubled for the reverse paths.
    Raises PreconditionError when an entry is so small that kappa' is not
    finite in float64.
    """
    psi = np.asarray(psi, dtype=float)
    if np.any(psi <= 0):
        raise DomainError("path kappa requires strictly positive amplitudes")
    l = len(psi)
    if l < 2:
        raise DomainError("path kappa needs at least 2 vertices")
    _require_finite_kappa(psi)
    p2 = psi**2
    # t[k] = sum over edges (v, v+1) with v < k of 1/(psi(v) psi(v+1))
    t = np.concatenate(([0.0], np.cumsum(1.0 / (psi[:-1] * psi[1:]))))
    left_mass = np.cumsum(p2)            # sum_{s <= j} psi(s)^2
    left_wt = np.cumsum(p2 * t)          # sum_{s <= j} psi(s)^2 t[s]
    right_mass = np.cumsum(p2[::-1])[::-1]
    right_wt = np.cumsum((p2 * t)[::-1])[::-1]
    kappa = 0.0
    for j in range(l - 1):
        total = left_mass[j] * right_wt[j + 1] - left_wt[j] * right_mass[j + 1]
        kappa = max(kappa, 2.0 * total)
    return float(kappa)
