"""Hamiltonian assembly and dense symmetric eigensolving.

The Hamiltonian of a graph with a potential is the graph Laplacian plus
the potential on the diagonal.  The two lowest eigenpairs are computed by
partial dense diagonalization, and only they are exposed; ground states on
connected graphs are sign-fixed positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, DomainError, SolverError
from .graphcore import Graph, Potential, caterpillar_anchors, check_length

RESIDUAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Two lowest eigenpairs of a graph Hamiltonian and their error bars
    (both 0, i.e. exact, for a hand-built spectrum)."""

    energy: float          # ground energy E
    gap: float             # second-lowest eigenvalue minus E
    psi: np.ndarray        # unit-norm ground vector, sign-fixed positive
    residual: float        # max residual of the two eigenpairs over max(1, ||H||_inf)
    gap_err: float = 0.0   # first-order bound on |gap - exact gap|
    psi_err: float = 0.0   # first-order bound on ||psi - exact psi||; inf when degenerate

    @property
    def degenerate(self) -> bool:
        """The gap is not resolved from zero."""
        return self.gap <= self.gap_err

    @property
    def positive(self) -> bool:
        """Every ground amplitude is resolved positive (Perron positivity)."""
        return bool(np.min(self.psi) > self.psi_err)


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L_G: degrees on the diagonal, -1 on edges."""
    m = np.zeros((g.n, g.n))
    x, y = g.edge_index
    m[x, y] = m[y, x] = -1.0
    m[np.diag_indices(g.n)] = g.degrees
    return m


def assemble(g: Graph, w: Potential) -> np.ndarray:
    """Dense Hamiltonian for graph g and potential w: d_x + W(x) on the
    diagonal, -1 on graph edges."""
    check_length(g, len(w), "potential")
    m = laplacian(g)
    m[np.diag_indices(g.n)] += w.values
    return m


def solve_ground_and_gap(h: np.ndarray) -> Spectrum:
    """Two lowest eigenpairs by partial dense diagonalization.

    The residual ||r|| of both pairs is divided by max(1, ||H||_inf), which
    bounds every |eigenvalue|, before its norm is taken (so that no square
    overflows); above the fixed RESIDUAL_TOL it raises SolverError.  The
    unit ground vector is sign-fixed by its largest-magnitude entry.
    gap_err = 2 (||r|| + (k + 1) eps ||H||_inf), with k the most nonzeros in
    a row of H, adds the rounding of the residual itself (to first order);
    psi_err = sqrt(2) (gap_err / 2) / (gap - gap_err) is the Davis-Kahan
    bound on ||psi - exact psi|| (Parlett, ch. 11), inf once the gap is not
    resolved.  README states the premises of both.
    """
    if len(h) < 2:
        raise DomainError("need at least 2 vertices to define a gap")
    scale = max(1.0, float(np.linalg.norm(h, np.inf)))
    res = math.inf
    # Inverse iteration on the partial range cannot split an exactly
    # repeated lowest pair (LAPACK fails or returns non-eigenvectors); the
    # full solve can, and runs only then.
    for subset in ([0, 1], None):
        try:
            vals, vecs = scipy.linalg.eigh(h, subset_by_index=subset)
        except np.linalg.LinAlgError:
            continue
        vals, vecs = vals[:2], vecs[:, :2]
        res = float(np.linalg.norm((h @ vecs - vecs * vals) / scale, axis=0).max())
        if res <= RESIDUAL_TOL:
            break
    if res > RESIDUAL_TOL:
        raise SolverError(
            f"eigensolver residual {res:.3e} exceeds tolerance {RESIDUAL_TOL:.3e}",
            residual=res,
        )
    energy = float(vals[0])
    gap = float(vals[1] - vals[0])
    psi = vecs[:, 0]
    top = psi[np.argmax(np.abs(psi))]
    if top < 0:
        psi = -psi
    rounding = (np.count_nonzero(h, axis=1).max() + 1) * np.finfo(float).eps
    gap_err = 2.0 * (res + float(rounding)) * scale
    psi_err = math.sqrt(2.0) * gap_err / 2.0 / (gap - gap_err) if gap > gap_err else math.inf
    return Spectrum(
        energy=energy,
        gap=gap,
        psi=psi,
        residual=res,
        gap_err=gap_err,
        psi_err=psi_err,
    )


def two_lobe_trial_state(l: int, psi) -> np.ndarray:
    """Sign-flipped trial state for the caterpillar: +psi on the left lobe,
    -psi on the right, zero at the center spine vertex and its two legs.

    Orthogonal to psi by mirror symmetry; its Rayleigh quotient upper-bounds
    the gap by 2 (2/3)^(2l-1).
    """
    psi = np.asarray(psi, dtype=float)
    anchor = np.array(caterpillar_anchors(l))
    if len(psi) != len(anchor):
        raise DimensionError(
            f"vector has length {len(psi)}, caterpillar l={l} has {len(anchor)} vertices"
        )
    return np.where(anchor < l, psi, np.where(anchor > l, -psi, 0.0))
