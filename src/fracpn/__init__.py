"""Numerical laboratory for fractional-operator layer dynamics.

Modules:
    fracop    -- fractional-operator plans (line / periodic / spectral)
    potential -- periodic multi-well potentials and space-time forcing
    layer     -- standing transition profiles and their drive correctors
    cell      -- cell evolutions on the torus and effective speeds
    homog     -- oscillatory problems, effective laws, convergence reports
    hull      -- hull-function ansatz, residual and speed-law checks
    runio     -- run configs and deterministic result files
    cli       -- `fracpn` batch entry point
"""

from .fracop import GridField, TailModel, normalization_constant, plan_for
from .potential import Forcing, ForcingTerm, PeriodicPotential
from .layer import CorrectorSolution, LayerSolution, solve_corrector_psi, solve_layer
from .cell import CellProblemSpec, as_rational, hbar, hbar_table, solve_cell_evolution
from .homog import (
    DriveLaw,
    EffectiveProblemSpec,
    EpsProblemSpec,
    InitialProfile,
    SlopeLaw,
    branch_exponents,
    convergence_report,
    solve_effective,
    solve_eps_problem,
)
from .hull import CutoffFunction, HullAnsatz, build_ansatz, nl_residual, orowan_check

__version__ = "0.1.0"
