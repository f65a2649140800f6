"""Simple-pole asymptotics: a(n) ~ kappa * alpha^n.

The dominant pole rho of the reduced generating function is isolated by
exact sign bisection (Descartes counts first); when it is a simple pole the
residue gives the constant kappa, and the exact counts converge to
kappa * alpha^n at an exponential rate.
"""

from math import inf

from bounded_catalan import dominant_pole_asymptotics, dp_counts

for m in (2, 3):
    pole = dominant_pole_asymptotics(m)
    alpha = 1.0 / pole.rho
    print(f"m = {m}: rho = {pole.rho:.9f}, alpha = {alpha:.6f}")
    print(f"       simple pole: {pole.pole_simple}, kappa = {pole.kappa:.6f}")
    if pole.next_pole_modulus:
        print(f"       next positive real pole at {pole.next_pole_modulus:.6f}")
    seq = dp_counts(m, 60, [(inf, inf)]).unrestricted()
    print(f"       {'n':>4} {'a(n)':>16} {'a(n) / (kappa alpha^n)':>24}")
    for n in (10, 20, 30, 40, 50, 60):
        ratio = seq[n] / (pole.kappa * alpha**n)
        print(f"       {n:>4} {seq[n]:>16} {ratio:>24.6f}")
    print()
