"""Finite-volume Markov approximation of density-transport operators.

The package discretizes the continuity equation of an ODE flow with a
first-order upwind finite volume scheme, packages the one-step map as a
sparse stochastic matrix, and builds density evolution, convergence
studies, and grid-based Bayesian filtering on top of it.
"""

from .bench import (
    ConvergenceRow,
    convergence_study,
    format_convergence_table,
    run_level,
    write_convergence_csv,
)
from .density import (
    Density,
    Moments,
    count_modes,
    gaussian_pdf,
    l1_distance,
    load_density,
    marginal,
    moments,
    normalize,
    project,
    refine,
    save_density,
    uniform_density,
)
from .filtering import (
    FilterState,
    History,
    ObservationSequence,
    ZeroEvidence,
    bayes_update,
    gaussian_abs_position_model,
    predict,
    read_observations,
    run_filter,
    simulate_truth,
    synthesize_observations,
    write_observations,
    write_run_report,
)
from .grid import (
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    BoxDomain,
    Grid,
    build_grid,
)
from .operator import (
    CflReport,
    CflViolation,
    MarkovReport,
    TransitionOperator,
    assemble,
    evolve,
    export_operator,
    max_stable_dt,
    step,
    step_count,
    verify_markov,
)
from .velocity import (
    EdgeFluxes,
    VelocityField,
    compute_fluxes,
    constant_field,
    field_from_name,
    flow,
    pendulum_field,
    rotation_field,
)

__version__ = "0.1.0"
