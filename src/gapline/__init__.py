"""Spectral gap bounds for graph Hamiltonians.

Constructs Hamiltonians L_G + W on graphs, computes ground states and gaps,
and cross-validates the analytic gap bounds: the caterpillar counterexample's
variational ceiling, the conductance sandwich, the single-peaked lower bound,
Poincare canonical-path bounds, and the adiabatic-schedule analysis.
"""

from .adiabatic import (
    EndgameBound,
    ScheduleSample,
    bulk_gap_floor,
    default_sweep_grid,
    endgame_bound,
    gap_sweep,
    rescale_to_unit_final_gap,
    switching_derivative,
    switching_schedule,
)
from .bounds import (
    ConductanceReport,
    CutReport,
    SandwichBounds,
    WalkMatrix,
    build_walk_matrix,
    conductance_exact,
    cut_profile,
    gap_sandwich,
    poincare_bound,
    single_peaked_gap_bound,
)
from .graphcore import (
    Graph,
    Potential,
    build_caterpillar,
    build_path,
    caterpillar_ground_state,
    find_local_minima,
    is_single_basin,
    is_single_peaked,
    read_graph,
    write_graph,
)
from .spectral import (
    Spectrum,
    assemble,
    laplacian,
    solve_ground_and_gap,
    two_lobe_trial_state,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
