"""Growth constants from the cyclic components of the state system.

For a cyclic component C the matrix W_C(x) is nonnegative and irreducible
for x > 0, and its spectral radius phi_C(x) increases strictly from 0 to
phi_C(1) >= 1.  The component radius r_C is the unique solution of
phi_C(r_C) = 1 in (0, 1]; its reciprocal lambda_C is the component growth
rate.  The exponential growth constant of the unrestricted counts is
alpha = max(lambda_U, lambda_V), attained at the dominant pole
rho = min(r_U, r_V) of the generating function.

Numerics: spectral radii are bracketed by Collatz-Wielandt ratios
(min_i (Bv)_i / v_i <= spr(B) <= max_i (Bv)_i / v_i for any positive v),
which are valid bounds regardless of how the probe vector v was obtained.
Power iteration runs on W_C(x) + I so that periodic components cannot
stall it, and for large components the probe vector is seeded by a sparse
ARPACK solve.  Bisection on x decides the sign of phi_C(x) - 1 through
those certified bounds; only when a point is numerically indistinguishable
from the radius does it fall back to the midpoint estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core_combinatorics import catalan
from .gf_solver import dp_counts, generating_function
from .polynomial_algebra import real_roots_positive
from .state_system import ComponentInfo, StateSystem, build_system, component_edges

DEFAULT_TOL = 1e-10

# Below 1/4 every component spectral radius is < 1 (the row sums of
# W_C(1/4) are bounded by 3/4), so bisection can start at 1/4.
RADIUS_LOWER = 0.25

# Power-iteration caps of one Collatz-Wielandt bracket: in
# spectral_radius_at, and at each point component_radius tests.
SPR_MAX_STEPS = 50000
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


class _ComponentMatrix:
    """Numeric evaluations W_C(x) of one component's polynomial matrix."""

    def __init__(self, sys: StateSystem, comp: ComponentInfo):
        members = [sys.index[s] for s in comp.members]
        rows, cols, pos = component_edges(sys, members)
        order = np.lexsort((cols, rows))  # canonical CSR: columns sorted per row
        pos = pos[order]
        self.n = len(members)
        self._indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=self.n))))
        self._indices = cols[order]
        self._coeffs = sys.coeffs_float[sys.pred_cidx[pos]]
        self._degs = sys.pred_deg[pos].astype(np.float64)

    def at(self, x: float) -> sp.csr_matrix:
        data = self._coeffs * np.power(x, self._degs)
        return sp.csr_matrix((data, self._indices, self._indptr), shape=(self.n, self.n))


def _positive(v: np.ndarray) -> np.ndarray:
    v = v / v.max()
    return np.maximum(v, 1e-250)


def _perron_seed(matrix: sp.csr_matrix, v0: np.ndarray) -> np.ndarray:
    """A probe vector close to the Perron vector of W + I.

    ARPACK for anything nontrivial; the result only seeds the certified
    Collatz-Wielandt bracket, so a sloppy solve is harmless and an
    ARPACK failure falls back to v0.  Any other error propagates.
    """
    n = matrix.shape[0]
    if n < 16:
        return v0
    shifted = matrix + sp.identity(n, format="csr")
    try:
        _, vecs = spla.eigs(shifted, k=1, which="LM", v0=v0, tol=1e-12)
    except spla.ArpackError:
        return v0
    vec = np.abs(vecs[:, 0].real)
    if vec.max() > 0:
        return _positive(vec)
    return v0


def _cw_bracket(
    matrix: sp.csr_matrix,
    v: np.ndarray,
    tol: float,
    max_steps: int,
    stop_above: float | None = None,
    stop_below: float | None = None,
) -> tuple[float, float, np.ndarray]:
    """Certified bounds on spr(matrix) from Collatz-Wielandt ratios.

    Iterates v <- (matrix + I) v; each iterate yields valid lower/upper
    bounds min/max of (Bv/v) - 1, and the best pair seen is kept.  Stops
    early once the bracket clears ``stop_above``/``stop_below``.
    """
    best_lo, best_hi = 0.0, math.inf
    for _ in range(max_steps):
        w = matrix @ v + v
        ratios = w / v
        best_lo = max(best_lo, float(ratios.min()) - 1.0)
        best_hi = min(best_hi, float(ratios.max()) - 1.0)
        if stop_above is not None and best_lo > stop_above:
            break
        if stop_below is not None and best_hi < stop_below:
            break
        if best_hi - best_lo < tol:
            break
        v = _positive(w)
    return best_lo, best_hi, v


def spectral_radius_at(
    sys: StateSystem,
    comp: ComponentInfo,
    x: float,
    tol: float = 1e-12,
) -> float:
    """spr(W_C(x)) for x > 0, converged to a Collatz-Wielandt bracket of
    width < tol (midpoint reported)."""
    if not comp.cyclic:
        raise ValueError("spectral radius is defined on cyclic components")
    if x <= 0:
        raise ValueError("x must be positive")
    cm = _ComponentMatrix(sys, comp)
    matrix = cm.at(x)
    v = _perron_seed(matrix, np.ones(cm.n))
    lo, hi, _ = _cw_bracket(matrix, v, tol, SPR_MAX_STEPS)
    return 0.5 * (lo + hi)


def component_radius(
    sys: StateSystem,
    comp: ComponentInfo,
    tol: float = DEFAULT_TOL,
) -> tuple[float, float]:
    """Bracket (lo, hi) of width < tol around the component radius r_C.

    The radius is the unique x in (0, 1] with spr(W_C(x)) = 1.  The top
    endpoint is tested first: when the Collatz-Wielandt upper bound at
    x = 1 certifies spr <= 1, the radius is exactly 1 (the spectral
    radius at 1 is also >= 1 for every cyclic component).  Otherwise
    bisection on (1/4, 1) decides each midpoint through certified
    bounds; an undecidable midpoint (radius within float noise) falls
    back to the bracket midpoint estimate.
    """
    if not comp.cyclic:
        raise ValueError("component radius is defined on cyclic components")
    cm = _ComponentMatrix(sys, comp)
    ones = np.ones(cm.n)

    matrix = cm.at(1.0)
    v = _perron_seed(matrix, ones)
    _, hi1, v = _cw_bracket(matrix, v, 1e-13, RADIUS_MAX_STEPS, stop_above=1.0)
    if hi1 <= 1.0 + 1e-12:
        return (1.0, 1.0)

    lo, hi = RADIUS_LOWER, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        matrix = cm.at(mid)
        v = _perron_seed(matrix, v)
        blo, bhi, v = _cw_bracket(
            matrix, v, 1e-14, RADIUS_MAX_STEPS, stop_above=1.0, stop_below=1.0
        )
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
    """Raise ValueError when the numeric W of gap bound m is not
    representable: its largest coefficient catalan(m-1) overflows a float
    from m = 521 on."""
    try:
        float(catalan(m - 1))
    except OverflowError:
        raise ValueError(
            f"m = {m} is beyond the growth analysis limit m <= 520: "
            f"catalan({m - 1}) overflows a float"
        ) from None


@lru_cache(maxsize=None)
def growth_constants(m: int, tol: float = DEFAULT_TOL) -> GrowthReport:
    """Component radii, growth rates, and the growth constant alpha.

    For m = 1 the counts are eventually constant and alpha = 1.  For
    m >= 2, alpha = max(lambda_U, lambda_V) with a dominance tie declared
    when the two rates are within 10 * tol of each other (ties are
    reported, never silently broken).  Raises ValueError for m > 520
    (see check_numeric_range) before building anything.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    check_numeric_range(m)
    lower = catalan_lower_bound(m)
    if m == 1:
        return GrowthReport(m=1, tol=tol, alpha=1.0, lower_bound=lower, rho=1.0)
    sys = build_system(m)
    comp_u = next(c for c in sys.sccs if c.tag == "U")
    comp_v = next(c for c in sys.sccs if c.tag == "V")
    r_u = component_radius(sys, comp_u, tol)
    r_v = component_radius(sys, comp_v, tol)
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
    roots = real_roots_positive(gf.den, (0, 2), tol=min(tol, 1e-9))
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
    value = dp_counts(m, n).unrestricted()[n]
    return math.exp(_log_big(value) / n)
