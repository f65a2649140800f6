"""Exact rational generating functions and the recurrences they induce.

The endpoint-state system (I - W(x)) F = x * 1 is solved exactly over
the rationals, block by block in the topological order of its strongly
connected components.  The reduced fraction for the unrestricted count
comes out in closed form, and its denominator is the recurrence.
"""

from math import inf

from bounded_catalan import (
    dp_counts,
    generating_function,
    recurrence,
    recurrence_order_bound,
)

for m in (1, 2, 3, 4):
    gf = generating_function(m)
    rec = recurrence(m)
    print(f"m = {m}")
    print(f"  A(x) = ({gf.num})")
    print(f"         / ({gf.den})")
    coeffs = ", ".join(str(c) for c in rec.lag_coeffs)
    print(f"  recurrence order {rec.order}, valid for n >= {rec.valid_from}:")
    print(f"    a(n) = sum of ({coeffs}) times a(n-1), a(n-2), ...")
    print(f"  denominator degree {gf.den.degree} <= order bound {recurrence_order_bound(m)}")
    print()

# replay the m = 4 recurrence against the exact count recursion
m = 4
rec = recurrence(m)
seq = dp_counts(m, rec.valid_from + 10, [(inf, inf)]).unrestricted()
replay = rec.extend(seq[: rec.valid_from], 10)
print(f"m = {m} replay of 10 terms past n = {rec.valid_from}:")
print("  recursion :", seq[rec.valid_from : rec.valid_from + 10])
print("  recurrence:", replay)
assert replay == seq[rec.valid_from : rec.valid_from + 10]
