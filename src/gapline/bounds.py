"""Markov-chain gap bounds: conductance sandwich, single-peaked lower bound,
and Poincare canonical-path bounds, whose load takes O(n) on a tree.

The bridge between Hamiltonians and random walks is the similarity transform
P = (1/E) D^-1 H D with D = diag(psi); build_walk_matrix first shifts the
potential below -d_G, so that E < 0 and the walk is aperiodic.
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

# Cuts per block of the conductance sweep: 256 KiB per float temporary.
_CUT_BLOCK = 1 << 15

ROW_SUM_TOL = 1e-9

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _shift(g: Graph, w: Potential) -> float:
    """W_max + d_G + 1: taken off w, it puts every entry below -d_G with a
    margin of 1 that keeps every walk diagonal positive (aperiodicity)."""
    check_length(g, len(w), "potential")
    return float(w.values.max()) + g.max_degree + 1.0


@dataclass(frozen=True, eq=False)
class WalkMatrix:
    """Row-stochastic reversible walk similar to H'/E', H' = H shifted by -shift."""

    matrix: np.ndarray        # P
    stationary: np.ndarray    # pi = psi^2 (unit psi)
    shifted_energy: float     # E' = E - shift < 0; gap of H = -E' (1 - lambda_2(P))

    def spectral_gap(self) -> float:
        """1 minus the second-largest eigenvalue of P.

        P is reversible, so diag(sqrt(pi)) P diag(1/sqrt(pi)) is symmetric
        with the same eigenvalues; it is symmetrized exactly before eigvalsh.
        """
        root = np.sqrt(self.stationary)
        a = root[:, np.newaxis] * self.matrix / root[np.newaxis, :]
        vals = np.linalg.eigvalsh((a + a.T) / 2.0)
        return float(1.0 - vals[-2])


def build_walk_matrix(g: Graph, w: Potential, spectrum: Spectrum) -> WalkMatrix:
    """Similarity transform P = (1/E') D^-1 H' D, D = diag(psi), into a walk.

    `spectrum` is the solved spectrum of the unshifted assemble(g, w), whose
    psi must be resolved positive (else PreconditionError).  H' has w shifted
    below -d_G, so E' = E - shift < 0 and P >= 0 with a positive diagonal.
    """
    _require_positive(g, spectrum, "walk transform")
    shift = _shift(g, w)
    energy = spectrum.energy - shift
    h = assemble(g, w.shifted(-shift))
    psi = spectrum.psi
    p = (h * psi[np.newaxis, :] / psi[:, np.newaxis]) / energy
    deviation = np.max(np.abs(p.sum(axis=1) - 1.0))
    if not deviation <= ROW_SUM_TOL:
        raise ConsistencyError(f"walk matrix row sums deviate by {deviation:.3e}")
    pi = psi**2
    pi = pi / pi.sum()
    return WalkMatrix(matrix=p, stationary=pi, shifted_energy=energy)


@dataclass(frozen=True)
class CutReport:
    """Flow and ratio of one vertex cut, in Hamiltonian units.

    flow = sum of psi(x)psi(y) over cut edges; ratio = flow / min(masses),
    each side's mass the sum of its psi(x)^2.
    """

    subset: tuple[int, ...]
    flow: float
    ratio: float


@dataclass(frozen=True)
class ConductanceReport:
    """Exact conductance with its minimizing cut."""

    phi: float
    minimizer: CutReport
    cuts_examined: int


def cut_profile(g: Graph, psi, subset) -> CutReport:
    """Flow and ratio for one cut; 2*ratio upper-bounds the gap."""
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
    outside = float(sum(psi2[v] for v in range(g.n) if v not in s))
    if min(inside, outside) == 0.0:
        raise PreconditionError("cut ratio undefined: one side of the cut has zero psi^2 mass")
    return CutReport(
        subset=tuple(sorted(s)),
        flow=float(flow),
        ratio=float(flow) / min(inside, outside),
    )


def conductance_exact(g: Graph, psi) -> ConductanceReport:
    """Exhaustive-minimum conductance Phi_H over all proper cuts.

    Enumerates each {S, complement} pair once (vertex n-1 pinned to the
    complement), as bitmasks m = m2 2^h1 + m1 over vertices 0..n-2, meet in
    the middle: m1 holds the low h1 = ceil((n-1)/2) bits and m2 the rest, so
    the cuts form a 2^h2 x 2^h1 table in mask order.  With B_i the bit
    matrix of half i, B_i' = 1 - B_i and w_xy = psi_x psi_y,

        mass[m] = M2[m2] + M1[m1],  M_i = B_i psi^2,
        flow[m] = F2[m2] + F1[m1] + (B2 W21 B1'^T + B2' W21 B1^T)[m2, m1],

    with W21 the edges between the halves and F_i the flow out of the half's
    subset within the half and to vertex n-1; the complement's mass is summed
    alike.  All terms are positive, so every ratio keeps its relative accuracy
    however small.  Blocks of up to 2^15 cuts take their flows from a matmul
    [B2 W21 | B2' W21 | F2 | 1] @ [B1'^T ; B1^T ; 1 ; F1], O(2^n n) flops in
    O(2^(n/2) n) memory.  Ties go to the smallest bitmask; the minimizer is
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
    psi2 = psi**2
    if np.any(psi <= 0) or np.any(psi2 == 0):
        raise DomainError("conductance requires amplitudes positive even when squared")
    weights = np.zeros((n, n))
    x, y = g.edge_index
    weights[x, y] = weights[y, x] = psi[x] * psi[y]
    h1, h2 = n // 2, (n - 1) // 2
    low, high = slice(0, h1), slice(h1, n - 1)
    b1 = ((np.arange(1 << h1)[:, np.newaxis] >> np.arange(h1)) & 1).astype(float)
    b2 = b1[: 1 << h2, :h2]
    left, right = np.ones((len(b2), 2 * h1 + 2)), np.ones((2 * h1 + 2, len(b1)))
    left[:, :h1], left[:, h1:-2] = b2 @ weights[high, low], (1 - b2) @ weights[high, low]
    right[:h1], right[h1:-2] = 1 - b1.T, b1.T
    for b, part, half_flow in ((b2, high, left[:, -2]), (b1, low, right[-1])):
        half_flow[:] = ((b @ weights[part, part]) * (1 - b)).sum(axis=1) + b @ weights[part, -1]
    # [M2 | 1] @ [1 ; M1] broadcasts the masses, the complement's likewise.
    mass_left, mass_right = np.ones((2, len(b2), 2)), np.ones((2, 2, len(b1)))
    mass_left[:, :, 0] = b2 @ psi2[high], (1 - b2) @ psi2[high] + psi2[-1]
    mass_right[:, 1] = b1 @ psi2[low], (1 - b1) @ psi2[low]
    # Equal blocks (powers of 2) in buffers made once: fresh ones are new mmaps.
    cols = len(b1)
    rows = min(len(b2), _CUT_BLOCK // cols)
    flow, masses = np.empty((rows, cols)), np.empty((2, rows, cols))
    best, best_mask = math.inf, 0
    for start in range(0, len(b2), rows):
        np.matmul(left[start : start + rows], right, out=flow)
        np.matmul(mass_left[:, start : start + rows], mass_right, out=masses)
        denom = np.minimum(masses[0], masses[1], out=masses[0])
        if start == 0:
            flow[0, 0], denom[0, 0] = math.inf, 1.0  # the empty cut, mask 0
        ratio = np.divide(flow, denom, out=flow)
        i = int(ratio.argmin())  # first occurrence in row-major = smallest bitmask
        if ratio.flat[i] < best:
            best, best_mask = float(ratio.flat[i]), start * cols + i
    subset = [v for v in range(n) if (best_mask >> v) & 1]
    if 2.0 * sum(psi2[v] for v in subset) > psi2.sum():
        subset = [v for v in range(n) if not (best_mask >> v) & 1]
    report = cut_profile(g, psi, subset)
    return ConductanceReport(phi=best, minimizer=report, cuts_examined=(1 << (n - 1)) - 1)


@dataclass(frozen=True)
class SandwichBounds:
    """Two-sided conductance bounds on the gap of H_{G,W}."""

    lower: float
    upper: float
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
    _require_positive(g, spectrum, "conductance sandwich")
    energy = spectrum.energy - _shift(g, w)
    report = conductance_exact(g, spectrum.psi)
    phi = report.phi
    return SandwichBounds(
        lower=-phi * phi / (2.0 * energy),
        upper=2.0 * phi,
        shifted_energy=energy,
        conductance=report,
    )


def _require_positive(g: Graph, spectrum: Spectrum, what: str) -> None:
    check_length(g, len(spectrum.psi), "spectrum psi")
    if not spectrum.positive:
        raise PreconditionError(
            f"{what} needs a ground state resolved positive; the smallest ground-state "
            f"amplitude is {np.min(spectrum.psi):.3e}, its error bar {spectrum.psi_err:.3e}"
        )


def single_peaked_gap_bound(g: Graph, w: Potential, spectrum: Spectrum) -> float:
    """Lower bound 1 / (2 (|W| + d_G) |V|^2), valid when the ground state
    of assemble(g, w), given as its solved `spectrum`, is single-peaked;
    entries within psi_err of a neighbour count as level.  Raises
    DomainError below 2 vertices, and PreconditionError when psi is not
    resolved positive, or naming the disconnected plateau components.
    """
    if g.n < 2:
        raise DomainError("single-peaked bound needs at least 2 vertices")
    check_length(g, len(w), "potential")
    _require_positive(g, spectrum, "single-peaked bound")
    maxima = local_maxima(g, spectrum.psi, tol=spectrum.psi_err)
    parts = connected_components(g, maxima)
    if len(parts) > 1:
        listing = "; ".join(str(sorted(p)) for p in parts)
        raise PreconditionError(
            f"ground state is not single-peaked: maxima split into {len(parts)} "
            f"components: {listing}"
        )
    return 1.0 / (2.0 * (w.spread + g.max_degree) * g.n**2)


def _bfs_tree(g: Graph, root: int) -> tuple[list[int], list[int]]:
    """Vertices in breadth-first order from root, and their BFS-tree
    predecessors: pred[v] is the lowest-index neighbour of v one hop nearer
    the root, and pred[root] = root.  Each hop level is scanned in ascending
    order, so the first vertex to reach v is that neighbour.  The graph must
    be connected.
    """
    pred, order, level = [-1] * g.n, [root], [root]
    pred[root] = root
    while level:
        reached = []
        for v in level:
            for u in g.neighbors(v):
                if pred[u] < 0:
                    pred[u] = v
                    reached.append(u)
        reached.sort()
        order += reached
        level = reached
    return order, pred


def _unit_amplitudes(psi: np.ndarray) -> np.ndarray:
    """psi scaled to unit norm, refusing amplitudes for which kappa' is not
    a finite positive float64.

    kappa' scales as |psi|^2, so the bound is only a bound at unit norm.
    Every partial sum of kappa' is then at most 2 n / min(psi)^2, so
    checking that bound in logarithms, before any division, keeps every step
    finite and free of overflow.
    """
    smallest = float(np.min(psi))
    if smallest > 0.0:
        psi = psi / math.hypot(*psi.tolist())
        smallest = float(np.min(psi))
    if not smallest > 0.0 or math.log(2.0 * len(psi)) - 2.0 * math.log(smallest) >= _LOG_FLOAT_MAX:
        raise PreconditionError(
            f"kappa' needs every ground-state amplitude positive and large enough "
            f"to stay finite in float64; the smallest ground-state amplitude is "
            f"{smallest:.3e}"
        )
    return psi


def _kappa_tree_pass(g: Graph, psi: np.ndarray) -> float:
    """kappa' of a tree, whose only paths are its canonical paths, in O(n).

    Rooted at 0, the edge from v to its child c carries the pairs with one
    end in the subtree of c and the other outside it.  With S the psi^2 mass
    in the subtree (sub) or outside it (out), Q_sub that mass weighted by the
    inverse-flow length to c, branch = Q_sub + S_sub / (psi_c psi_v) the same
    length taken to v, and Q_out the outside mass weighted by its length to v,
    the edge carries 2 (S_out branch + S_sub Q_out).  One pass up the BFS
    order sums the subtrees; one pass down takes each child's outside terms
    from v's own, v itself and its siblings, which a forward and a backward
    sweep over the children add in.  No sum is formed as a difference, so
    every load keeps its relative accuracy however small psi gets.
    """
    n, p, amp = g.n, (psi * psi).tolist(), psi.tolist()
    order, parent = _bfs_tree(g, 0)
    children = [[] for _ in range(n)]
    for c in order[1:]:
        children[parent[c]].append(c)
    step = [0.0] + [1.0 / (amp[c] * amp[parent[c]]) for c in range(1, n)]
    s_sub, q_sub, branch = p[:], [0.0] * n, [0.0] * n
    for c in order[:0:-1]:
        branch[c] = q_sub[c] + step[c] * s_sub[c]
        s_sub[parent[c]] += s_sub[c]
        q_sub[parent[c]] += branch[c]
    s_out, q_out = [0.0] * n, [0.0] * n
    for v in order:
        s_acc, q_acc = s_out[v] + p[v], q_out[v] + step[v] * s_out[v]
        for c in children[v]:
            s_out[c], q_out[c] = s_acc, q_acc
            s_acc, q_acc = s_acc + s_sub[c], q_acc + branch[c]
        s_acc = q_acc = 0.0
        for c in reversed(children[v]):
            s_out[c] += s_acc
            q_out[c] += q_acc
            s_acc, q_acc = s_acc + s_sub[c], q_acc + branch[c]
    return 2.0 * max(s_out[c] * branch[c] + s_sub[c] * q_out[c] for c in order[1:])


def _kappa_bfs_sweep(g: Graph, psi: np.ndarray) -> float:
    """kappa' for the canonical paths of poincare_bound, from one BFS tree
    per source.

    For each source x, length[v] is the inverse-flow length of the tree path
    from x to v, summed down the BFS order, and below[v] sums
    psi_y^2 length[y] over the y > x in the subtree of v, summed back up it.
    The edge (pred[v], v) then carries 2 psi_x^2 below[v]; the factor 2
    counts the reversed pairs.  O(n (n + m)) time and O(n + m) memory.
    """
    n, p, amp = g.n, (psi * psi).tolist(), psi.tolist()
    edge_id = {}
    for i, (a, b) in enumerate(g.edges):
        edge_id[a, b] = edge_id[b, a] = i
    load = [0.0] * len(g.edges)
    for x in range(n - 1):
        order, pred = _bfs_tree(g, x)
        length = [0.0] * n
        for v in order[1:]:
            length[v] = length[pred[v]] + 1.0 / (amp[v] * amp[pred[v]])
        below = [p[y] * length[y] if y > x else 0.0 for y in range(n)]
        weight = 2.0 * p[x]
        for v in order[:0:-1]:
            below[pred[v]] += below[v]
            load[edge_id[pred[v], v]] += weight * below[v]
    return max(load)


def poincare_bound(g: Graph, spectrum: Spectrum) -> float:
    """Poincare lower bound 1/kappa' on the gap of H_{G,W}.

    The canonical path for x < y is the breadth-first shortest path in the
    BFS tree of x, whose predecessors break ties by lowest index; (y, x)
    takes its reverse.  kappa' is the largest edge load, where the path of
    (x, y) puts psi_x^2 psi_y^2 sum_{(a,b) on the path} 1/(psi_a psi_b) on
    each of its edges.  It is computed with the unit-normalized ground state
    of the solved `spectrum`; the ground energy cancels from the final
    bound, so no shift is needed.  On a tree every path is the tree path, so
    kappa' takes one pass up and one down the tree, O(n); other graphs sweep
    all BFS trees, O(n (n + m)) time and O(n + m) memory.  Raises DomainError
    below 2 vertices, and PreconditionError when the ground state has an
    entry <= 0 or so small that kappa' is not finite in float64.
    """
    if g.n < 2:
        raise DomainError("Poincare bound needs at least 2 vertices")
    if not g.is_connected():
        raise StructureError("Poincare bound requires a connected graph")
    check_length(g, len(spectrum.psi), "spectrum psi")
    psi = _unit_amplitudes(spectrum.psi)
    # A connected graph with n - 1 edges is a tree.
    kappa = _kappa_tree_pass if len(g.edges) == g.n - 1 else _kappa_bfs_sweep
    return 1.0 / kappa(g, psi)
