"""Hamiltonian assembly and dense symmetric eigensolving.

The Hamiltonian of a graph with a potential is the graph Laplacian plus
the potential on the diagonal.  The two lowest eigenpairs are computed by
partial dense diagonalization, and only they are exposed; ground states on
connected graphs are sign-fixed positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, DomainError, SolverError
from .graphcore import Graph, Potential, caterpillar_layout, check_length

DEFAULT_TOL = 1e-10

# |Delta^2 psi| at or below this is treated as exactly zero (plateau noise).
CURVATURE_TOL = 1e-12


@dataclass(frozen=True)
class Hamiltonian:
    """Symmetric matrix d_x + W(x) on the diagonal, -1 on graph edges."""

    matrix: np.ndarray
    graph: Graph | None = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Two lowest eigenpairs of a graph Hamiltonian."""

    energy: float          # ground energy E
    gap: float             # second-lowest eigenvalue minus E
    psi: np.ndarray        # unit-norm ground vector, sign-fixed positive
    residual: float        # max residual of the two eigenpairs over max(1, ||H||_inf)
    tol: float
    degenerate: bool = False   # gap below tol, reported as-is
    positive: bool = True      # Perron positivity guaranteed (graph connected)


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L_G: degrees on the diagonal, -1 on edges."""
    m = np.zeros((g.n, g.n))
    x, y = g.edge_index
    m[x, y] = m[y, x] = -1.0
    m[np.diag_indices(g.n)] = g.degrees
    return m


def assemble(g: Graph, w: Potential) -> Hamiltonian:
    """Hamiltonian for graph g and potential w."""
    check_length(g, len(w), "potential")
    m = laplacian(g)
    m[np.diag_indices(g.n)] += w.values
    return Hamiltonian(matrix=m, graph=g)


def solve_ground_and_gap(h: Hamiltonian, tol: float = DEFAULT_TOL) -> Spectrum:
    """Two lowest eigenpairs by partial dense diagonalization.

    Only the two lowest pairs are computed.  Their residuals are checked
    relative to max(1, ||H||_inf), which bounds every |eigenvalue|.  The
    ground vector is normalized and sign-fixed by the sign of its
    largest-magnitude entry.  A gap below tol is flagged degenerate, never
    rounded to zero.  On a disconnected graph, positivity of the ground
    vector is not guaranteed and the result is flagged.
    """
    if h.n < 2:
        raise DomainError("need at least 2 vertices to define a gap")
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    vals, vecs = scipy.linalg.eigh(h.matrix, subset_by_index=[0, 1])
    energy = float(vals[0])
    gap = float(vals[1] - vals[0])
    psi = vecs[:, 0]
    top = psi[np.argmax(np.abs(psi))]
    if top < 0:
        psi = -psi
    scale = max(1.0, float(np.linalg.norm(h.matrix, np.inf)))
    res = float(np.linalg.norm(h.matrix @ vecs - vecs * vals, axis=0).max()) / scale
    if res > tol:
        raise SolverError(
            f"eigensolver residual {res:.3e} exceeds tolerance {tol:.3e}",
            residual=res,
        )
    connected = h.graph.is_connected() if h.graph is not None else bool(np.all(psi > 0))
    return Spectrum(
        energy=energy,
        gap=gap,
        psi=psi,
        residual=res,
        tol=tol,
        degenerate=gap < tol,
        positive=connected,
    )


def eigen_residual(h: Hamiltonian, v, lam: float) -> float:
    """Relative eigenpair residual ||Hv - lam v|| / ||v||."""
    v = np.asarray(v, dtype=float)
    if len(v) != h.n:
        raise DimensionError(f"vector has length {len(v)}, matrix is {h.n}x{h.n}")
    norm = np.linalg.norm(v)
    if norm == 0:
        raise DomainError("residual of the zero vector is undefined")
    return float(np.linalg.norm(h.matrix @ v - lam * v) / norm)


def rayleigh_quotient(h: Hamiltonian, v) -> float:
    """<v|H|v> / <v|v>; upper-bounds excited energies for v orthogonal to psi."""
    v = np.asarray(v, dtype=float)
    if len(v) != h.n:
        raise DimensionError(f"vector has length {len(v)}, matrix is {h.n}x{h.n}")
    nrm2 = float(v @ v)
    if nrm2 == 0:
        raise DomainError("Rayleigh quotient of the zero vector is undefined")
    return float(v @ (h.matrix @ v)) / nrm2


def two_lobe_trial_state(l: int, psi) -> np.ndarray:
    """Sign-flipped trial state for the caterpillar: +psi on the left lobe,
    -psi on the right, zero at the center spine vertex and its two legs.

    Orthogonal to psi by mirror symmetry; its Rayleigh quotient upper-bounds
    the gap by 2 (2/3)^(2l-1).
    """
    psi = np.asarray(psi, dtype=float)
    layout = caterpillar_layout(l)
    if len(psi) != 6 * l - 1:
        raise DimensionError(
            f"vector has length {len(psi)}, caterpillar l={l} has {6 * l - 1} vertices"
        )
    phi = np.zeros_like(psi)
    for v in layout["left"]:
        phi[v] = psi[v]
    for v in layout["right"]:
        phi[v] = -psi[v]
    return phi


def discrete_curvature(g: Graph, psi) -> np.ndarray:
    """Delta^2 psi(x) = -d_x psi(x) + sum of psi over neighbors (= -L psi)."""
    psi = np.asarray(psi, dtype=float)
    check_length(g, len(psi), "vector")
    return -(laplacian(g) @ psi)


def negative_curvature_set(g: Graph, psi, tol: float = CURVATURE_TOL) -> set[int]:
    """S[psi] = vertices of strictly negative discrete curvature.

    Values within tol of zero are treated as zero and excluded.
    """
    curv = discrete_curvature(g, psi)
    return {x for x in range(g.n) if curv[x] < -tol}
