"""Energy construction and decay verification for 1-D degenerate parabolic models.

The package builds an integral quantity E[u] = int L(x, u, u_x) dx whose
convexity profile in the gradient slot is manufactured, via an auxiliary
curve system, to make E decay along solutions of a given quasilinear or
fully nonlinear evolution.  The pieces:

- :mod:`paralyap.models` declares the evolution (coefficient callbacks,
  boundary conditions, optional closed-form references) and validates it.
- :mod:`paralyap.characteristics` integrates the auxiliary curve system
  and exposes the log-weight g through interchangeable providers
  (analytic, reduced 1-D quadrature, curves traced back to x = 0).
- :mod:`paralyap.lagrangian` assembles the density L from the weight
  exp(g) times the second-order coefficient and evaluates L, L_p, L_pp.
- :mod:`paralyap.solver` evolves the PDE on a uniform grid.
- :mod:`paralyap.energy` traces E along a simulation and checks the
  decay identities.
- :mod:`paralyap.cli` wraps the pipeline in a batch command and writes
  every artifact.
"""

__version__ = "0.1.0"

from .characteristics import (
    CharacteristicsError,
    CharControls,
    CharState,
    CharTrajectory,
    GProvider,
    ReducedGError,
    Termination,
    analytic_g,
    integrate_characteristics,
    reduced_g,
    reduced_ode_g,
    tabulate_g,
)
from .energy import (
    DecayValue,
    EnergyTrace,
    VerifyReport,
    decay_formula,
    energy_of_frame,
    energy_trace,
    filtration_energy,
    node_gradient,
    standard_pme_energy,
    verify_decay,
)
from .lagrangian import (
    Lagrangian,
    LagrangianError,
    LagrangianOptions,
    build_lagrangian,
    compare_closed_form,
    eval_L,
    eval_Lp,
    eval_Lpp,
    second_difference_lpp,
)
from .models import (
    BoundaryCondition,
    ClosedForms,
    Filtration,
    ProblemSpec,
    SampleBox,
    StructureFlags,
    ValidationReport,
    from_descriptor,
    validate_spec,
)
from .quadrature import QuadratureError, adaptive_simpson, integrate_batch
from .solver import (
    Grid1D,
    SimulationResult,
    SolverControls,
    SolverError,
    StateFrame,
    simulate,
    step,
)

__all__ = [
    "__version__",
    "BoundaryCondition",
    "CharacteristicsError",
    "CharControls",
    "CharState",
    "CharTrajectory",
    "ClosedForms",
    "DecayValue",
    "EnergyTrace",
    "Filtration",
    "GProvider",
    "Grid1D",
    "Lagrangian",
    "LagrangianError",
    "LagrangianOptions",
    "ProblemSpec",
    "QuadratureError",
    "ReducedGError",
    "SampleBox",
    "SimulationResult",
    "SolverControls",
    "SolverError",
    "StateFrame",
    "StructureFlags",
    "Termination",
    "ValidationReport",
    "VerifyReport",
    "adaptive_simpson",
    "analytic_g",
    "build_lagrangian",
    "compare_closed_form",
    "decay_formula",
    "energy_of_frame",
    "energy_trace",
    "eval_L",
    "eval_Lp",
    "eval_Lpp",
    "filtration_energy",
    "from_descriptor",
    "integrate_batch",
    "integrate_characteristics",
    "node_gradient",
    "reduced_g",
    "reduced_ode_g",
    "second_difference_lpp",
    "simulate",
    "standard_pme_energy",
    "step",
    "tabulate_g",
    "validate_spec",
    "verify_decay",
]
