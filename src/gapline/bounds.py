"""Markov-chain gap bounds: conductance sandwich, single-peaked lower bound,
and Poincare canonical-path bounds.

The bridge between Hamiltonians and random walks is the similarity transform
P = (1/E) D^-1 H D with D = diag(psi), valid once the potential has been
shifted below -d_G so that E < 0 and the walk is aperiodic.
"""

from __future__ import annotations

from collections import deque
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
    g: Graph, w: Potential, spectrum: Spectrum, plateau_tol: float = 0.0
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


def default_canonical_paths(g: Graph) -> CanonicalPathSet:
    """Breadth-first shortest paths, lowest-index predecessor tie-break.

    On path graphs this reproduces the unique valid choice.
    """
    if not g.is_connected():
        raise StructureError("canonical paths require a connected graph")
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    for src in range(g.n):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        pred = {}
        for v in range(g.n):
            if v != src:
                pred[v] = min(u for u in g.neighbors(v) if dist[u] == dist[v] - 1)
        for dst in range(g.n):
            if dst == src:
                continue
            chain = [dst]
            while chain[-1] != src:
                chain.append(pred[chain[-1]])
            paths[(src, dst)] = tuple(reversed(chain))
    # Reverse pairs share the same vertex sequence reversed by construction
    # only if predecessors agree both ways; enforce the convention directly.
    for x in range(g.n):
        for y in range(x + 1, g.n):
            paths[(y, x)] = tuple(reversed(paths[(x, y)]))
    return CanonicalPathSet(paths=paths)


def poincare_bound(
    g: Graph, spectrum: Spectrum, paths: CanonicalPathSet | None = None
) -> float:
    """Poincare lower bound 1/kappa' on the gap of H_{G,W}.

    kappa' is computed with the unit-normalized ground state of the solved
    `spectrum`; the ground energy cancels from the final bound, so no shift
    is needed.
    """
    if not g.is_connected():
        raise StructureError("Poincare bound requires a connected graph")
    check_length(g, len(spectrum.psi), "spectrum psi")
    if paths is None:
        paths = default_canonical_paths(g)
    paths.validate(g)
    psi = spectrum.psi
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
    """
    psi = np.asarray(psi, dtype=float)
    if np.any(psi <= 0):
        raise DomainError("path kappa requires strictly positive amplitudes")
    l = len(psi)
    if l < 2:
        raise DomainError("path kappa needs at least 2 vertices")
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
