"""Exact enumeration and growth analysis of 132-avoiding permutations
with bounded adjacent differences.

The package builds the finite endpoint-state system behind these counts,
solves it exactly into rational generating functions and linear
recurrences, and extracts exponential growth constants from the spectral
radii of the cyclic components, all cross-validated against brute-force
enumeration.
"""

from .core_combinatorics import brute_force_count, catalan
from .gf_solver import dp_counts, generating_function, recurrence, recurrence_order_bound
from .growth_analysis import dominant_pole_asymptotics, growth_constants
from .polynomial_algebra import series_coeffs
from .state_system import build_system, component_matrix, output_accessible, to_dot

__version__ = "0.1.0"
