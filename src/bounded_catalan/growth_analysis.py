"""Growth constants from the cyclic components of the state system.

For a cyclic component C the matrix W_C(x) is nonnegative and irreducible
for x > 0, and its spectral radius phi_C(x) increases strictly from 0 to
phi_C(1) >= 1.  The component radius r_C is the unique solution of
phi_C(r_C) = 1 in (0, 1]; its reciprocal lambda_C is the component growth
rate.  The exponential growth constant of the unrestricted counts is
alpha = max(lambda_U, lambda_V), attained at the dominant pole
rho = min(r_U, r_V) of the generating function.

The search never builds W: every product W_C(x) v comes from
state_system.component_product, which reads the c_kp table alone and
costs O(m^2), on the members of U, V and I given by the paper's
structure (cyclic_members).  Float range ends at m = 519 (see
check_numeric_range).

Numerics: spectral radii are bracketed by Collatz-Wielandt ratios
(min_i (Bv)_i / v_i <= spr(B) <= max_i (Bv)_i / v_i for any positive v;
Wielandt 1950), which are valid bounds however the probe vector v was
obtained.  Every radius question, spectral_radius_at and each point of
component_radius, is keyed by m and a component tag ("U", "V" or "I")
and runs through one loop, _cw_bracket, with one cap of
RADIUS_MAX_STEPS power steps.  The power iteration runs on
W_C(x) + I/4.  The shift keeps a periodic component from stalling it
(at m = 2, V is a 2-cycle), and it is small because a shift s contracts
the iterate near the radius by max |l + s| / (1 + s) per step, over the
eigenvalues l other than spr = 1.  Dense spectra at the radius
(m = 3..10, 20, 30, 50) give a second modulus |l2| of 0.03-0.26 on U
and 0.37-0.53 on V, and contractions of 0.50-0.55 (U) and 0.49-0.70 (V)
for s = 1 against 0.20-0.28 and 0.41-0.53 for s = 1/4.  The searches of
the table's m-list (2..10, 20, 50, 100) take 1,452 products with I/4
and 1,806 with I.

Bisection on x decides the sign of phi_C(x) - 1 through those certified
bounds, and the probe vector is warm-started: each step iterates on
from the vector the previous step ended with.  Only when a point is
numerically indistinguishable from the radius does bisection fall back
to the midpoint estimate.

spectral_radius_at reaches a width of 1e-12 within 473 steps for
m = 2..10 and x in [0.01, 0.9], and within 252 steps for m = 20, 50 and
100 at x up to 1.1 times the radius.  Far above the radius it can fail
under any shift, and then raises RuntimeError after the cap: the
bracket stalls at one ulp of a large spectral radius (m = 50, U at 1.5
times the radius: spr = 1.66e7, width 1.9e-9), or it stays wide
(m = 30, V at x = 0.9: [2.5e4, 6.6e7]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .core_combinatorics import catalan
from .gf_solver import denominator_factors, dp_counts, generating_function
from .polynomial_algebra import ExactPoly, real_roots_positive
from .state_system import component_product

DEFAULT_TOL = 1e-10

# Below 1/4 every component spectral radius is < 1 (the row sums of
# W_C(1/4) are bounded by 3/4), so bisection can start at 1/4.
RADIUS_LOWER = 0.25

# Power steps of one Collatz-Wielandt bracket: in spectral_radius_at, and
# at each point component_radius tests.
RADIUS_MAX_STEPS = 3000


@dataclass(frozen=True)
class GrowthReport:
    """Radii, rates, and dominance data for one gap bound m.

    ``r_U``/``r_V`` are certified brackets (lo, hi) of width < tol; the
    lambdas and alpha are reciprocals of the bracket midpoints.  The pole
    fields stay None unless filled in from dominant_pole_asymptotics.
    ``next_pole_modulus`` is estimated from positive real roots only;
    complex poles are not searched (they cannot be dominant).
    """

    m: int
    tol: float
    alpha: float
    lower_bound: float
    r_U: tuple[float, float] | None = None
    r_V: tuple[float, float] | None = None
    lambda_U: float | None = None
    lambda_V: float | None = None
    dominant_component: str | None = None
    rho: float | None = None
    pole_simple: bool | None = None
    kappa: float | None = None
    next_pole_modulus: float | None = None


@dataclass(frozen=True)
class DominantPole:
    """Location and simple-pole data of the dominant singularity.

    ``pole_simple`` is True when |D'(rho)| clears the documented
    threshold (1e-6 times the largest denominator coefficient) and None
    ("unknown") below it; multiplicity is never asserted numerically.
    ``next_pole_modulus`` only scans positive real roots of the reduced
    denominator; complex poles are out of scope and affect error terms
    only.
    """

    m: int
    rho: float
    pole_simple: bool | None
    kappa: float | None
    next_pole_modulus: float | None


def _positive(v: np.ndarray) -> np.ndarray:
    v = v / v.max()
    return np.maximum(v, 1e-250)


def _cw_bracket(
    product,
    v: np.ndarray,
    tol: float,
    stop_above: float | None = None,
    stop_below: float | None = None,
) -> tuple[float, float, np.ndarray]:
    """Certified bounds on spr(B) from Collatz-Wielandt ratios, where
    ``product`` is the map v -> B v of a nonnegative matrix B.

    Each iterate v yields the valid bounds min/max of (Bv)/v, and the best
    pair seen is kept; the next iterate is (B + I/4) v.  Runs at most
    RADIUS_MAX_STEPS steps, and stops early once the bracket is narrower
    than ``tol`` or clears ``stop_above``/``stop_below``.
    """
    best_lo, best_hi = 0.0, math.inf
    for _ in range(RADIUS_MAX_STEPS):
        bv = product(v)
        ratios = bv / v
        best_lo = max(best_lo, float(ratios.min()))
        best_hi = min(best_hi, float(ratios.max()))
        if stop_above is not None and best_lo > stop_above:
            break
        if stop_below is not None and best_hi < stop_below:
            break
        if best_hi - best_lo < tol:
            break
        v = _positive(bv + 0.25 * v)
    return best_lo, best_hi, v


def spectral_radius_at(m: int, tag: str, x: float, tol: float = 1e-12) -> float:
    """spr(W_C(x)) of the component ``tag`` ("U", "V" or "I") of gap bound
    m, for x > 0, converged to a Collatz-Wielandt bracket of width < tol
    (midpoint reported).  Raises ValueError for x <= 0, for m > 519 (see
    check_numeric_range) and for a tag or m that component_product
    rejects, and RuntimeError when the bracket is still wider than tol
    after RADIUS_MAX_STEPS steps, which can happen above the radius (see
    the module docstring)."""
    if x <= 0:
        raise ValueError("x must be positive")
    check_numeric_range(m)
    cp = component_product(m, tag)
    lo, hi, _ = _cw_bracket(cp.at(x), np.ones(cp.n), tol)
    if not hi - lo < tol:
        raise RuntimeError(
            f"spectral radius at x = {x} not converged after {RADIUS_MAX_STEPS} steps: "
            f"bracket [{lo}, {hi}] is wider than tol = {tol}"
        )
    return 0.5 * (lo + hi)


def component_radius(m: int, tag: str, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Bracket (lo, hi) of width < tol around the radius r_C of the
    component ``tag`` ("U", "V" or "I") of gap bound m.

    The radius is the unique x in (0, 1] with spr(W_C(x)) = 1.  The top
    endpoint is tested first: when the Collatz-Wielandt upper bound at
    x = 1 certifies spr <= 1, the radius is exactly 1 (the spectral
    radius at 1 is also >= 1 for every cyclic component).  Otherwise
    bisection on (1/4, 1) decides each midpoint through certified
    bounds; an undecidable midpoint (radius within float noise) falls
    back to the bracket midpoint estimate.  Raises ValueError for a tol
    below the float spacing at 1 (see check_tol), for m > 519 (see
    check_numeric_range) and for a tag or m that component_product rejects.
    """
    check_tol(tol)
    check_numeric_range(m)
    cp = component_product(m, tag)
    _, hi1, v = _cw_bracket(cp.at(1.0), np.ones(cp.n), 1e-13, stop_above=1.0)
    if hi1 <= 1.0 + 1e-12:
        return (1.0, 1.0)

    lo, hi = RADIUS_LOWER, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        blo, bhi, v = _cw_bracket(cp.at(mid), v, 1e-14, stop_above=1.0, stop_below=1.0)
        if blo > 1.0:
            hi = mid
        elif bhi < 1.0:
            lo = mid
        elif 0.5 * (blo + bhi) >= 1.0:
            hi = mid
        else:
            lo = mid
    return (lo, hi)


def _log_big(n: int) -> float:
    shift = max(0, n.bit_length() - 900)
    return math.log(n >> shift) + shift * math.log(2.0)


def catalan_lower_bound(m: int) -> float:
    """catalan(m-1) ** (1 / (m+1)), via log-domain arithmetic so that
    arbitrarily large Catalan numbers stay in float range."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return math.exp(_log_big(catalan(m - 1)) / (m + 1))


def check_numeric_range(m: int) -> None:
    """Raise ValueError when the radius search of gap bound m leaves float
    range.  Its first product W_U(1) 1 has the row sum catalan(0) + ... +
    catalan(m-1) at state (m-1, inf), which overflows a float from
    m = 520 on.  The partial sums grow with k, so the check stops at the
    first that overflows: at most 520 Catalan numbers for any m."""
    total = 0
    try:
        for k in range(m):
            total += catalan(k)
            float(total)
    except OverflowError:
        raise ValueError(
            f"m = {m} is beyond the growth analysis limit m <= 519: "
            f"the row sum of W_U(1) overflows a float"
        ) from None


def check_tol(tol: float) -> None:
    """Raise ValueError unless tol >= ulp(1.0) (about 2.2e-16): bisection
    on (1/4, 1] cannot narrow a bracket below the float spacing, so a
    smaller, zero, negative or NaN tol would never be met."""
    if not tol >= math.ulp(1.0):
        raise ValueError(f"tol must be >= {math.ulp(1.0)} (ulp of 1.0), got {tol}")


@lru_cache(maxsize=None)
def growth_constants(m: int, tol: float = DEFAULT_TOL) -> GrowthReport:
    """Component radii, growth rates, and the growth constant alpha.

    For m = 1 the counts are eventually constant and alpha = 1.  For
    m >= 2, alpha = max(lambda_U, lambda_V) with a dominance tie declared
    when the two rates are within 10 * tol of each other (ties are
    reported, never silently broken).  The radii come from
    component_radius on the paper's U and V; W is never built.  Raises
    ValueError for m > 519 (see check_numeric_range) or a tol below
    ulp(1.0) (see check_tol) before any work.
    """
    check_tol(tol)
    if m < 1:
        raise ValueError("m must be >= 1")
    check_numeric_range(m)
    lower = catalan_lower_bound(m)
    if m == 1:
        return GrowthReport(m=1, tol=tol, alpha=1.0, lower_bound=lower, rho=1.0)
    r_u = component_radius(m, "U", tol)
    r_v = component_radius(m, "V", tol)
    mid_u = 0.5 * (r_u[0] + r_u[1])
    mid_v = 0.5 * (r_v[0] + r_v[1])
    lam_u = 1.0 / mid_u
    lam_v = 1.0 / mid_v
    if abs(lam_u - lam_v) < 10.0 * tol:
        dominant = "tie"
    elif lam_u > lam_v:
        dominant = "U"
    else:
        dominant = "V"
    return GrowthReport(
        m=m,
        tol=tol,
        alpha=max(lam_u, lam_v),
        lower_bound=lower,
        r_U=r_u,
        r_V=r_v,
        lambda_U=lam_u,
        lambda_V=lam_v,
        dominant_component=dominant,
        rho=min(mid_u, mid_v),
    )


def _pole_roots(den: ExactPoly, factors: tuple[ExactPoly, ...], tol: float) -> list[float]:
    """The positive real roots <= 2 of the reduced denominator ``den``.

    When den is +-(the product of the factors) / its content, as for every
    m from 3 to 14, the roots of each factor are isolated on (0, 2] and
    merged; otherwise (m = 2, where reduction cancels a common factor) the
    roots of den itself.  Every isolating interval is a dyadic subinterval
    of (0, 2] that real_roots_positive halves to the first width <= tol,
    so a root comes out as the same float from either polynomial whenever
    neither isolation has to go below that width; isolating on a factor
    costs a fraction of isolating on the whole product (at m = 14 about a
    tenth).
    """
    product = ExactPoly.one()
    for f in factors:
        product = product * f
    content = math.gcd(*product.coeffs)
    if den.coeffs not in (
        tuple(c // content for c in product.coeffs),
        tuple(-c // content for c in product.coeffs),
    ):
        return real_roots_positive(den, (0, 2), tol=tol)
    return sorted({r for f in factors for r in real_roots_positive(f, (0, 2), tol=tol)})


def dominant_pole_asymptotics(m: int, tol: float = DEFAULT_TOL) -> DominantPole:
    """Dominant pole of the reduced generating function and its residue.

    rho is the smallest positive real root of the reduced denominator,
    cross-checked against min(r_U, r_V) from the component radii.  When
    the pole is (numerically) simple, kappa = -N(rho) / (rho * D'(rho))
    gives the asymptotic a_n ~ kappa * alpha^n.
    """
    if m < 2:
        raise ValueError("dominant pole analysis needs m >= 2")
    gf = generating_function(m)
    roots = _pole_roots(gf.den, denominator_factors(m), min(tol, 1e-9))
    if not roots:
        raise RuntimeError("reduced denominator has no positive real root <= 2")
    rho = roots[0]
    report = growth_constants(m, tol)
    if abs(rho - report.rho) > max(10.0 * tol, 1e-8):
        raise RuntimeError(
            f"pole location {rho} disagrees with component radius {report.rho}"
        )
    dden = gf.den.derivative()
    scale = max(abs(c) for c in gf.den.coeffs)
    slope = float(dden(rho))
    simple = True if abs(slope) > 1e-6 * float(scale) else None
    kappa = None
    if simple:
        kappa = -float(gf.num(rho)) / (rho * slope)
    next_pole = roots[1] if len(roots) > 1 else None
    return DominantPole(
        m=m, rho=rho, pole_simple=simple, kappa=kappa, next_pole_modulus=next_pole
    )


def full_growth_report(
    m: int, tol: float = DEFAULT_TOL, include_pole: bool | None = None
) -> GrowthReport:
    """Growth constants, optionally merged with dominant-pole data.

    ``include_pole`` defaults to m <= 8, where the exact solve of the
    generating function is cheap.
    """
    report = growth_constants(m, tol)
    if include_pole is None:
        include_pole = 2 <= m <= 8
    if include_pole and m >= 2:
        pole = dominant_pole_asymptotics(m, tol)
        report = replace(
            report,
            rho=pole.rho,
            pole_simple=pole.pole_simple,
            kappa=pole.kappa,
            next_pole_modulus=pole.next_pole_modulus,
        )
    return report


def nth_root_estimate(m: int, n: int) -> float:
    """(a_n)^(1/n) from the exact count table; a direct empirical check
    of the growth constant."""
    value = dp_counts(m, n, [(math.inf, math.inf)]).unrestricted()[n]
    return math.exp(_log_big(value) / n)
