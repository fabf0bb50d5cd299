"""shadowlab: periodic pseudotrajectory shadowing on concrete systems.

Construct periodic pseudotrajectories (including the witness families that
defeat Lipschitz shadowing at nonhyperbolic fixed points), solve for exact
periodic shadowing orbits, measure Lipschitz shadowing constants, and analyze
the hyperbolicity data of periodic orbits.
"""

from .errors import (
    ConfigError,
    ConstraintViolatedError,
    DegenerateMatrixError,
    InapplicableError,
    LostPrecisionError,
    NonhyperbolicMonodromyError,
    NonhyperbolicOrbitError,
    NotAnOrbitError,
    NotPeriodicError,
    OrbitEscapeError,
    PullbackFailedError,
    ShadowlabError,
    SingularJacobianError,
    StepLimitError,
    TooManyPeriodicPointsError,
    VectorNotUnstableError,
)
from .hyperbolicity import (
    ExpansionCertificate,
    HyperbolicityConstants,
    PeriodicOrbitRecord,
    SplittingAngles,
    analyze_periodic_orbit,
    enumerate_periodic_points_exact,
    enumerate_periodic_points_toral,
    expansion_certificate,
    extract_uniform_constants,
    subspace_angle,
    subspace_angles,
    verify_growth_bound,
)
from .pseudo import (
    PeriodicPseudotrajectory,
    WitnessMeta,
    defect,
    homoclinic_point,
    load_pseudotrajectory,
    make_pseudotrajectory,
    perturb_orbit,
    save_pseudotrajectory,
    splice_cycle,
    witness_eigenvalue_one,
    witness_jordan,
    witness_jordan_general,
    witness_orbit_pullback,
    witness_rotation,
)
from .shadow import (
    JordanWitnessFamily,
    LipschitzScan,
    PerturbedOrbitFamily,
    ScanRow,
    ShadowOptions,
    ShadowSolution,
    closed_form_linear_shadow,
    direct_shadow_lower_bound,
    find_periodic_shadow,
    format_scan_table,
    lipschitz_scan,
    theoretical_linear_lipschitz_bound,
    toral_orbit_with_period,
    verify_periodicity_by_expansivity,
    write_scan_csv,
)
from .systems import (
    DiscreteSystem,
    JordanModel,
    PhaseSpace,
    ToralAutomorphism,
    cat_map,
    estimate_norm_bound,
    evaluate,
    jordan_model,
    linear_system,
    low_discrepancy_sample,
    orbit_segment,
    perturbed_toral,
    toral_automorphism,
)

# the complete operation surface; the CLI coverage test checks every entry is
# reachable from at least one command
PUBLIC_OPERATIONS = (
    evaluate,
    orbit_segment,
    estimate_norm_bound,
    defect,
    witness_eigenvalue_one,
    witness_jordan,
    witness_jordan_general,
    witness_rotation,
    witness_orbit_pullback,
    splice_cycle,
    find_periodic_shadow,
    closed_form_linear_shadow,
    theoretical_linear_lipschitz_bound,
    lipschitz_scan,
    direct_shadow_lower_bound,
    verify_periodicity_by_expansivity,
    analyze_periodic_orbit,
    expansion_certificate,
    verify_growth_bound,
    extract_uniform_constants,
    subspace_angle,
    subspace_angles,
    enumerate_periodic_points_toral,
)

__version__ = "0.1.0"
