"""Distributionally robust linear-quadratic Gaussian control.

Computes nature's worst-case Gaussian noise covariances over divergence
ambiguity balls with a Frank-Wolfe method whose direction-finding oracles
reduce to univariate bisections, and extracts the decision maker's optimal
linear output-feedback policy via Kalman filtering and dynamic programming.
"""

__version__ = "0.1.0"

from .divergences import (
    AmbiguityBall,
    DivergenceKind,
    MomentPair,
    entropic_ot,
    entropic_ot_squared,
    fisher_gaussian,
    gelbrich,
    kl_t_divergence,
    membership,
    zero_mean_feasibility_check,
)
from .errors import (
    ConditioningError,
    InstabilityError,
    InvalidInputError,
    NumericError,
    OracleError,
    RobustLqgError,
    StabilizabilityError,
    UnsupportedDivergenceError,
)
from .frank_wolfe import BallProfile, FwConfig, FwTrace, NominalModel, fw_gap, solve
from .gradient import GradientProfile, fd_gradient, lqg_gradient
from .instances import generate_instance
from .lqg import (
    CovarianceProfile,
    LqgSolution,
    SystemInstance,
    kalman_forward,
    lqg_value,
    riccati_backward,
    simulate_closed_loop,
)
from .matops import (
    SpdCertificate,
    loewner_geq,
    solve_discrete_lyapunov,
    spectral_radius,
    sym_sqrt,
    symmetrize,
)
from .oracles import (
    OracleResult,
    brute_force_oracle,
    fisher_oracle,
    kl_oracle,
    oracle_pass,
    solve_oracle,
    wasserstein_oracle,
)
from .stacked import (
    AffinePolicy,
    ConvertDirection,
    StackedSystem,
    affine_objective,
    build_stacked,
    kalman_policy_to_purified,
    optimal_intercept,
    policy_convert,
    solve_inner_policy,
)
from .stationary import (
    StationarySolution,
    StationarySystem,
    solve_dare,
    solve_filter_are,
    solve_stationary_fw,
    stationary_cost,
    stationary_gradient,
)
