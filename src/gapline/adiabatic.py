"""Gap sweeps along the interpolation schedule, the analytic piecewise gap
floor, and the smooth switching function.

The interpolation is H(s) = (1-s) L_G + s diag(W).  For s < 1 the rescaled
H(s)/(1-s) is again a graph Hamiltonian, so the single-peaked gap floor
applies pointwise; close to s = 1 a Gershgorin/Weyl argument takes over.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .graphcore import Graph, Potential, check_length, is_single_peaked
from .spectral import laplacian, solve_ground_and_gap

BULK = "bulk"
ENDGAME = "endgame"


@dataclass(frozen=True)
class ScheduleSample:
    """Exact gap and analytic floor at one point of the schedule."""

    s: float
    gamma_exact: float
    gamma_bound: float | None   # None when the single-peaked precondition fails
    regime: str                 # BULK or ENDGAME


def bulk_gap_floor(g: Graph, w: Potential, s: float) -> float:
    """Analytic floor (1-s) / (2 ((s/(1-s))|W| + d_G) |V|^2), valid for
    single-peaked ground states at s < 1."""
    if not 0.0 <= s < 1.0:
        raise DomainError(f"bulk floor defined for s in [0,1), got {s}")
    scaled_spread = s / (1.0 - s) * w.spread
    return (1.0 - s) / (2.0 * (scaled_spread + g.max_degree) * g.n**2)


def endgame_onset(g: Graph) -> float:
    """Start of the endgame window, 1 - 1/(8 d_G)."""
    if g.max_degree < 1:
        raise PreconditionError("endgame window requires a graph with edges")
    return 1.0 - 1.0 / (8.0 * g.max_degree)


def gap_sweep(g: Graph, w: Potential, grid) -> list[ScheduleSample]:
    """Exact gap and analytic floor at each grid point.

    At each s < 1 the ground state, solved under the fixed residual gate
    spectral.RESIDUAL_TOL, is tested for single-peakedness; samples failing
    the test carry gamma_bound = None rather than a floor that does not
    apply.  s = 1 is handled by direct diagonal inspection.
    """
    grid = list(grid)
    if not grid:
        raise DomainError("sweep grid must be nonempty")
    if any(not 0.0 <= s <= 1.0 for s in grid):
        raise DomainError("sweep grid must lie inside [0,1]")
    check_length(g, len(w), "potential")
    onset = endgame_onset(g)
    lap = laplacian(g)
    samples = []
    for s in grid:
        if s == 1.0:
            vals = np.sort(w.values)
            samples.append(
                ScheduleSample(
                    s=1.0,
                    gamma_exact=float(vals[1] - vals[0]),
                    gamma_bound=None,
                    regime=ENDGAME,
                )
            )
            continue
        m = (1.0 - s) * lap
        m[np.diag_indices(g.n)] += s * w.values
        spectrum = solve_ground_and_gap(m)
        # Close to s = 1 amplitudes fall below their error bar; the peak
        # structure is then not certifiable and the bulk floor is withheld.
        peaked = spectrum.positive and is_single_peaked(g, spectrum.psi, tol=spectrum.psi_err)
        samples.append(
            ScheduleSample(
                s=float(s),
                gamma_exact=spectrum.gap,
                gamma_bound=bulk_gap_floor(g, w, s) if peaked else None,
                regime=ENDGAME if s >= onset else BULK,
            )
        )
    return samples


def default_sweep_grid() -> list[float]:
    """101 uniform points on [0, 0.99], a 16-point geometric tail into the
    endgame, and s = 1 itself."""
    grid = list(np.linspace(0.0, 0.99, 101))
    grid.extend(1.0 - 0.01 * 0.5**k for k in range(1, 17))
    grid.append(1.0)
    return grid


@dataclass(frozen=True)
class EndgameBound:
    """Gap floor near the end of the schedule, after rescaling W to final gap 1."""

    s_star: float        # endgame onset 1 - 1/(8 d_G)
    bound: float         # 1/2 - 1/(8 d_G); at least 7/16 once d_G >= 2


def endgame_bound(g: Graph, w: Potential) -> EndgameBound:
    """Gershgorin/Weyl floor gamma(s) >= 1/2 - 1/(8 d_G) on [s_star, 1].

    The floor holds once W is rescaled so the second-lowest value exceeds
    the lowest by exactly 1; rescale_to_unit_final_gap refuses a repeated
    minimum with PreconditionError.
    """
    rescale_to_unit_final_gap(w)
    return EndgameBound(s_star=endgame_onset(g), bound=0.5 - 1.0 / (8.0 * g.max_degree))


def rescale_to_unit_final_gap(w: Potential) -> tuple[Potential, float]:
    """Divide W by the difference between its two lowest values."""
    vals = np.sort(w.values)
    delta = float(vals[1] - vals[0])
    if delta == 0.0:
        raise PreconditionError("rescale requires a unique minimizer of W")
    return Potential(w.values / delta), delta


# Composite Gauss-Legendre rule on [0, 1/2]: 16 equal panels of 12 nodes.
_PANEL_EDGES = np.linspace(0.0, 0.5, 17)
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(12)


def _bump(x: np.ndarray) -> np.ndarray:
    # exp(-1/q) underflows to 0 once q = x(1-x) < 1/745, and q <= 0 outside
    # (0, 1); flooring q at 1e-3 gives those points exactly 0 and keeps 1/q
    # from overflowing at subnormal x.
    return np.exp(-1.0 / np.maximum(x * (1.0 - x), 1e-3))


def _cumulative_integral(f, points: np.ndarray) -> np.ndarray:
    """Integral of f from 0 to each of the sorted, distinct `points` in
    [0, 1/2], by the composite rule applied to every gap between the points
    and the panel edges."""
    cuts = np.union1d(points, _PANEL_EDGES)
    half = np.diff(cuts) / 2.0
    nodes = cuts[:-1, None] + half[:, None] * (1.0 + _NODES)
    pieces = half * (f(nodes) @ _WEIGHTS)
    return np.r_[0.0, np.cumsum(pieces)][np.searchsorted(cuts, points)]


@functools.cache
def _beta() -> float:
    """Normalization making the bump integrate to 1 over [0,1]."""
    return 0.5 / float(_cumulative_integral(_bump, np.array([0.5]))[0])


def switching_derivative(x: float | np.ndarray) -> float | np.ndarray:
    """g(x) = beta exp(-1/(x(1-x))) on (0,1), zero elsewhere; C-infinity.
    `x` is a scalar or an array.  NaN raises DomainError; -inf and inf map
    to 0."""
    xs = np.asarray(x, dtype=float)
    if np.isnan(xs).any():
        raise DomainError("switching derivative is undefined at NaN")
    g = _beta() * _bump(xs)
    return float(g) if xs.ndim == 0 else g


def switching_schedule(x: float | np.ndarray) -> float | np.ndarray:
    """Smooth schedule s(x): 0 below 0, 1 above 1, monotone in between.

    s is the integral of switching_derivative; s(1/2) = 1/2 by symmetry.
    `x` is a scalar or a 1-D array.  Points above 1/2 fold to 1 - x, so the
    saturated right tail stays exactly monotone instead of wobbling at
    machine precision.  The folded points are sorted and integrated in one
    pass of a fixed composite Gauss-Legendre rule on [0, 1/2], 16 equal
    panels of 12 nodes: against a 40-digit reference it errs by at most
    9.2e-17, under one unit in the last place (8 panels of 8 nodes err by
    8.6e-14, 4 panels of 8 by 3.1e-10).  The weights are positive and the
    integrand nonnegative, so s is monotone by construction.  NaN raises
    DomainError; -inf and inf map to 0 and 1.
    """
    xs = np.asarray(x, dtype=float)
    if np.isnan(xs).any():
        raise DomainError("switching schedule is undefined at NaN")
    right = np.atleast_1d(xs) > 0.5
    folded = np.clip(np.where(right, 1.0 - xs, xs), 0.0, 0.5)
    points, position = np.unique(folded, return_inverse=True)
    # The rule reaches 1/2 only up to rounding; the cap keeps the left half
    # below the folded right half.
    s = np.minimum(_cumulative_integral(switching_derivative, points), 0.5)[position]
    s = np.where(right, 1.0 - s, s)
    return float(s[0]) if xs.ndim == 0 else s
