"""Numerical laboratory for adapted fixed-point constructions of monotone SPDEs.

The package simulates Q-Wiener noise (directly and through the dyadic
midpoint construction), solves frozen-coefficient stochastic heat and porous
medium equations on a 1D Dirichlet grid, applies the shifted dyadic averaging
projection to trajectories, and builds pathwise fixed points of the composed
map projection-after-solve, block by dyadic block. Monte Carlo estimators
check every inequality the construction relies on: energy bounds, continuity
moduli, time regularity, and the tail/covariance statistics of the noise.
"""

__version__ = "0.1.0"

from stf_spde.grids import (
    Field,
    SpatialGrid,
    TripleKind,
    laplacian_eigenvalue,
    norm,
)
from stf_spde.wiener import (
    NoisePath,
    QWienerLCPath,
    QWienerSpec,
    lc_q_wiener,
    lc_scalar_bm,
    load_noise_path,
    sample_increments,
    sample_increments_batch,
    save_noise_path,
    tail_bound_probe,
)
from stf_spde.projection import (
    HaarLevel,
    RateFit,
    TimeGrid,
    Trajectory,
    fractional_seminorm,
    haar_rate_experiment,
    proj_shifted,
    smoothed_seed,
    trajectory_from_csv,
    trajectory_lp_norm,
    trajectory_to_csv,
)
from stf_spde.solver import (
    HypothesisReport,
    NewtonDivergence,
    ProblemSpec,
    SolverConfig,
    check_hypotheses,
    solve_frozen,
)
from stf_spde.fixed_point import (
    ContinuityResult,
    FixedPointDiagnostics,
    RegularityTable,
    continuity_probe,
    picard_iterate,
    staircase_construct,
    time_regularity_probe,
    xnorm_power_distance,
)
from stf_spde.estimators import (
    EnergyReport,
    EstimateInvalid,
    energy_report,
    integral_v_power,
    mc_mean_stderr,
    pathwise_sup_H,
)
