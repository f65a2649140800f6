"""Exact enumeration and growth analysis of 132-avoiding permutations
with bounded adjacent differences.

The package builds the finite endpoint-state system behind these counts,
solves it exactly into rational generating functions and linear
recurrences, and extracts exponential growth constants from the spectral
radii of the cyclic components, all cross-validated against brute-force
enumeration.
"""

from .core_combinatorics import (
    DEFAULT_ORACLE_CAP,
    OracleCapError,
    block_construction_count,
    brute_force_count,
    c_kp,
    c_kp_table,
    catalan,
    is_132_avoiding,
    is_m_bounded,
    iter_constrained_avoiders,
)
from .gf_solver import (
    CountTable,
    Recurrence,
    SingularBlockError,
    dp_counts,
    generating_function,
    recurrence,
    recurrence_order_bound,
    solve_system,
)
from .growth_analysis import (
    DominantPole,
    GrowthReport,
    catalan_lower_bound,
    component_radius,
    dominant_pole_asymptotics,
    full_growth_report,
    growth_constants,
    nth_root_estimate,
    spectral_radius_at,
)
from .polynomial_algebra import (
    ExactPoly,
    RationalFn,
    poly_add,
    poly_gcd,
    poly_mat_det,
    poly_mul,
    poly_sub,
    real_roots_positive,
    rf_reduce,
    series_coeffs,
)
from .state_system import (
    INF,
    ComponentInfo,
    StateSystem,
    StructureError,
    build_system,
    component_matrix,
    output_accessible,
    simple_cycle_weights,
    to_dot,
    weighted_period,
)

__version__ = "0.1.0"
