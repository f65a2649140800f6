"""Exponential growth constants from the two large cyclic components.

For each component the spectral radius of W_C(x) increases strictly in
x; bisection locates the point where it crosses 1, certified at every
step by Collatz-Wielandt bounds.  The growth constant is the larger of
the two reciprocal radii, always below the Catalan constant 4 and
squeezed from below by the block-construction bound.
"""

from bounded_catalan import growth_constants

MS = list(range(2, 11)) + [20, 50]

print(f"{'m':>4} {'lambda_U':>9} {'lambda_V':>9} {'alpha':>7} {'lower':>7} {'dominant':>9}")
for m in MS:
    r = growth_constants(m)
    print(
        f"{m:>4} {r.lambda_U:>9.3f} {r.lambda_V:>9.3f} {r.alpha:>7.3f} "
        f"{r.lower_bound:>7.3f} {r.dominant_component:>9}"
    )
print("\nthe U component dominates up to m = 4, the V component from m = 5 on;")
print("both rates, and the sandwich lower bound, creep toward 4 as m grows.")
