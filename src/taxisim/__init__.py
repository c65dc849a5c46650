"""Desk-scale numerical laboratory for a doubly degenerate nutrient-taxis
system: finite-volume simulation of the epsilon-regularized equations plus
the diagnostic functionals and functional-inequality checks used to probe
its boundedness and dissipation structure."""

__version__ = "0.1.0"

from .grid import (  # noqa: F401
    Domain,
    Grid,
    ScalarField,
    integrate,
    laplacian,
    lp_norm,
    read_field,
    write_field,
)
from .model import (  # noqa: F401
    InvalidInitialData,
    ModelParams,
    PositivityViolation,
    State,
    regularize_initial,
    stability_dt,
)
from .stepper import StepControl, StepFailure, run_until, step  # noqa: F401
from .diagnostics import (  # noqa: F401
    FunctionalRecord,
    dissipations,
    energy_G,
    full_record,
    weighted_gradient,
)
from .inequalities import (  # noqa: F401
    IneqReport,
    check_ineq_61,
    check_ineq_64,
    cosine_family,
    fit_constant,
)
from .config import ConfigError, RunConfig, load_config, parse_config  # noqa: F401
from .presets import make_initial  # noqa: F401
