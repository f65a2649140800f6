"""Counting 132-avoiding permutations with bounded adjacent differences.

Three independent routes to the same numbers: brute-force enumeration,
the finite-state count recursion, and Taylor coefficients of the exact
rational generating function.
"""

from math import inf

from bounded_catalan import (
    brute_force_count,
    catalan,
    dp_counts,
    generating_function,
    series_coeffs,
)

M = 3
N = 11  # the brute-force oracle is capped at length 11

print(f"gap bound m = {M}, lengths 0..{N}\n")

oracle = [brute_force_count(M, n) for n in range(N + 1)]
dp = dp_counts(M, N, [(inf, inf)]).unrestricted()
series = [int(c) for c in series_coeffs(generating_function(M), N)]

print(f"{'n':>4} {'oracle':>8} {'recursion':>10} {'series':>8} {'catalan':>9}")
for n in range(N + 1):
    print(f"{n:>4} {oracle[n]:>8} {dp[n]:>10} {series[n]:>8} {catalan(n):>9}")

assert oracle == dp == series
print("\nall three methods agree; the Catalan column shows how much the")
print("adjacency bound cuts away as n grows.")

# the same machinery with both endpoint deficiencies pinned down
print("\ncounts with first and last entry forced close to n (thresholds 1, 1):")
restricted = [brute_force_count(M, n, 1, 1) for n in range(1, 9)]
print("  n = 1..8:", restricted)
