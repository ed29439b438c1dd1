"""Gap sweeps along the interpolation schedule, the analytic piecewise gap
floor, and the smooth switching function.

The interpolation is H(s) = (1-s) L_G + s diag(W).  For s < 1 the rescaled
H(s)/(1-s) is again a graph Hamiltonian, so the single-peaked gap floor
applies pointwise; close to s = 1 a Gershgorin/Weyl argument takes over.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .graphcore import Graph, Potential, check_length, is_single_peaked
from .spectral import Hamiltonian, laplacian, solve_ground_and_gap

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
        spectrum = solve_ground_and_gap(Hamiltonian(m))
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


def _bump(y: float) -> float:
    # quad's nodes lie inside (0, 1), so the NaN check is off its path.
    if 0.0 < y < 1.0:
        return math.exp(-1.0 / (y * (1.0 - y)))
    if math.isnan(y):
        raise DomainError("switching derivative is undefined at NaN")
    return 0.0


@functools.cache
def _beta() -> float:
    """Normalization making the bump integrate to 1 over [0,1]."""
    # Deferred: importing scipy.integrate costs about 0.3 s, and only the
    # switching schedule needs it.
    from scipy.integrate import quad

    total, _ = quad(_bump, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12)
    return 1.0 / total


def switching_derivative(x: float) -> float:
    """g(x) = beta exp(-1/(x(1-x))) on (0,1), zero elsewhere; C-infinity.
    NaN raises DomainError; -inf and inf map to 0."""
    return _beta() * _bump(x)


def switching_schedule(x: float | np.ndarray) -> float | np.ndarray:
    """Smooth schedule s(x): 0 below 0, 1 above 1, monotone in between.

    s is the integral of the normalized bump; s(1/2) = 1/2 by symmetry.
    `x` is a scalar or a 1-D array.  Points above 1/2 fold to 1 - x, so the
    saturated right tail stays exactly monotone instead of wobbling at
    machine precision; the folded points are sorted and the bump integrated
    once over each gap between neighbours.  A scalar is a single integral.
    NaN raises DomainError; -inf and inf map to 0 and 1.
    """
    xs = np.asarray(x, dtype=float)
    if np.isnan(xs).any():
        raise DomainError("switching schedule is undefined at NaN")
    right = np.atleast_1d(xs) > 0.5
    folded = np.clip(np.where(right, 1.0 - xs, xs), 0.0, 0.5)
    points, position = np.unique(folded, return_inverse=True)
    from scipy.integrate import quad

    # quad cannot split a gap as narrow as the rounding of its ends (folding
    # x and 1 - x' leaves such gaps) and warns.  The midpoint rule errs by at
    # most (b - a)^3 max|g''| / 24 < 4 (b - a)^3: below 1e-9, nothing.
    pieces = [
        quad(switching_derivative, a, b, epsabs=1e-13, epsrel=1e-12)[0]
        if b - a > 1e-9 else (b - a) * switching_derivative((a + b) / 2.0)
        for a, b in zip(np.r_[0.0, points[:-1]], points)
    ]
    s = np.cumsum(pieces)[position]
    s = np.where(right, 1.0 - s, s)
    return float(s[0]) if xs.ndim == 0 else s
