"""Interpolated Hamiltonians, gap sweeps along the schedule, the analytic
piecewise gap floor, the smooth switching function, and runtime estimates.

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
from .spectral import DEFAULT_TOL, Hamiltonian, laplacian, solve_ground_and_gap

BULK = "bulk"
ENDGAME = "endgame"


def interpolated_hamiltonian(g: Graph, w: Potential, s: float) -> Hamiltonian:
    """H(s) = (1-s) L_G + s diag(W)."""
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"interpolation parameter must lie in [0,1], got {s}")
    check_length(g, len(w), "potential")
    return Hamiltonian(matrix=_interpolate(laplacian(g), w, s))


def _interpolate(lap: np.ndarray, w: Potential, s: float) -> np.ndarray:
    """(1-s) lap + s diag(W), the matrix of H(s) given L_G."""
    m = (1.0 - s) * lap
    m[np.diag_indices(len(w))] += s * w.values
    return m


@dataclass(frozen=True)
class ScheduleSample:
    """Exact gap and analytic floor at one point of the schedule."""

    s: float
    gamma_exact: float
    gamma_bound: float | None   # None when the single-peaked precondition fails
    regime: str                 # BULK or ENDGAME
    single_peaked: bool


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


def gap_sweep(g: Graph, w: Potential, grid, tol: float = DEFAULT_TOL) -> list[ScheduleSample]:
    """Exact gap and analytic floor at each grid point.

    At each s < 1 the solved ground state is tested for single-peakedness;
    samples failing the test carry gamma_bound = None rather than a floor
    that does not apply.  s = 1 is handled by direct diagonal inspection.
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
                    single_peaked=False,
                )
            )
            continue
        spectrum = solve_ground_and_gap(Hamiltonian(_interpolate(lap, w, s)), tol=tol)
        # Close to s = 1 amplitudes fall below their error bar; the peak
        # structure is then not certifiable and the bulk floor is withheld.
        peaked = spectrum.positive and is_single_peaked(g, spectrum.psi, tol=spectrum.psi_err)
        samples.append(
            ScheduleSample(
                s=float(s),
                gamma_exact=spectrum.gap,
                gamma_bound=bulk_gap_floor(g, w, s) if peaked else None,
                regime=ENDGAME if s >= onset else BULK,
                single_peaked=peaked,
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
    scale: float         # factor the potential was divided by


def endgame_bound(g: Graph, w: Potential) -> EndgameBound:
    """Gershgorin/Weyl floor gamma(s) >= 1/2 - 1/(8 d_G) on [s_star, 1].

    Requires a unique minimizer of W; W is rescaled so the second-lowest
    value exceeds the lowest by exactly 1, and the factor is reported.
    """
    _, delta = rescale_to_unit_final_gap(w)
    return EndgameBound(
        s_star=endgame_onset(g),
        bound=0.5 - 1.0 / (8.0 * g.max_degree),
        scale=delta,
    )


def rescale_to_unit_final_gap(w: Potential) -> tuple[Potential, float]:
    """Divide W by the difference between its two lowest values."""
    vals = np.sort(w.values)
    delta = float(vals[1] - vals[0])
    if delta == 0.0:
        raise PreconditionError("rescale requires a unique minimizer of W")
    return Potential(w.values / delta), delta


def _bump(y: float) -> float:
    if y <= 0.0 or y >= 1.0:
        return 0.0
    return math.exp(-1.0 / (y * (1.0 - y)))


@functools.cache
def _beta() -> float:
    """Normalization making the bump integrate to 1 over [0,1]."""
    # Deferred: importing scipy.integrate costs about 0.3 s, and only the
    # switching schedule needs it.
    from scipy.integrate import quad

    total, _ = quad(_bump, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12)
    return 1.0 / total


def switching_derivative(x: float) -> float:
    """g(x) = beta exp(-1/(x(1-x))) on (0,1), zero elsewhere; C-infinity."""
    return _beta() * _bump(x)


def switching_schedule(x: float | np.ndarray) -> float | np.ndarray:
    """Smooth schedule s(x): 0 below 0, 1 above 1, monotone in between.

    s is the integral of the normalized bump; s(1/2) = 1/2 by symmetry.
    `x` is a scalar or a 1-D array.  Points above 1/2 fold to 1 - x, so the
    saturated right tail stays exactly monotone instead of wobbling at
    machine precision; the folded points are sorted and the bump integrated
    once over each gap between neighbours.  A scalar is a single integral.
    """
    xs = np.asarray(x, dtype=float)
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


@dataclass(frozen=True)
class RuntimeEstimate:
    """Adiabatic runtime formulas with big-O constants fixed to 1.

    tau_cubic is the constant-rate estimate, tau_smooth the smooth-schedule
    one; both are raw ratios, up to the adiabatic theorem's constant.
    """

    gamma_min: float
    dh_ds_norm: float
    tau_cubic: float
    tau_smooth: float
    log_vanishes: bool    # gamma_min >= 1 makes the log factor vanish


def runtime_estimate(gamma_min: float, dh_norm: float) -> RuntimeEstimate:
    """tau_cubic = |dH/ds|^2 / gamma^3; tau_smooth = ln(1/gamma)^12 / gamma^2."""
    if gamma_min <= 0 or dh_norm <= 0:
        raise DomainError("runtime estimate requires positive gap and norm")
    log_term = math.log(1.0 / gamma_min)
    return RuntimeEstimate(
        gamma_min=gamma_min,
        dh_ds_norm=dh_norm,
        tau_cubic=dh_norm**2 / gamma_min**3,
        tau_smooth=max(log_term, 0.0) ** 12 / gamma_min**2,
        log_vanishes=log_term <= 0.0,
    )


def schedule_derivative_norm(g: Graph, w: Potential) -> float:
    """Exact operator norm of dH/ds = diag(W) - L_G (largest |eigenvalue|)."""
    m = np.diag(w.values) - laplacian(g)
    vals = np.linalg.eigvalsh(m)
    return float(np.max(np.abs(vals)))
