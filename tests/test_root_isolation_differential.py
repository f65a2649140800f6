"""Real root isolation against sympy.

``real_roots_positive`` isolates the distinct roots in (lo, hi] by
Descartes' rule of signs on a dyadic bisection of the interval.  Its
roots are compared with ``sympy.Poly.real_roots`` on integer polynomials
built from planted factors b x - a, some of them squared, times a random
integer cofactor.  Roots are planted at both endpoints (lo is excluded,
hi included), at dyadic bisection points such as 1/2, 3/4 and 1, and
inside non-dyadic intervals such as (1/3, 5/3).
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bounded_catalan.polynomial_algebra import ExactPoly, _mul_i, real_roots_positive  # noqa: E402

X = sympy.Symbol("x")
INTERVALS = [
    (Fraction(0), Fraction(2)),
    (Fraction(0), Fraction(1)),
    (Fraction(1, 3), Fraction(5, 3)),
]
DYADIC = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(3, 2)]


def trimmed(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def planted(cofactor, roots):
    """cofactor * prod (b x - a)^mult over roots (a/b, mult)."""
    poly = cofactor
    for r, mult in roots:
        for _ in range(mult):
            poly = _mul_i(poly, [-r.numerator, r.denominator])
    return poly


@st.composite
def cases(draw):
    lo, hi = draw(st.sampled_from(INTERVALS))
    points = st.one_of(
        st.sampled_from([lo, hi, *DYADIC]),
        st.builds(Fraction, st.integers(-4, 16), st.integers(1, 8)),
    )
    roots = draw(st.lists(st.tuples(points, st.integers(1, 2)), max_size=4))
    cofactor = draw(
        st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(trimmed).filter(bool)
    )
    return planted(cofactor, roots), lo, hi


def sympy_roots(poly, lo, hi):
    """Distinct real roots of poly in (lo, hi], ascending, exact."""
    lo_s, hi_s = sympy.Rational(lo), sympy.Rational(hi)
    found = sympy.Poly(list(reversed(poly)), X, domain="ZZ").real_roots(multiple=False)
    return [r for r, _ in found if lo_s < r <= hi_s]


END_POINTS = [(Fraction(1, 3), 2), (Fraction(5, 3), 1), (Fraction(1, 2), 2), (Fraction(1), 1)]


@settings(max_examples=200, deadline=None)
@given(cases(), st.sampled_from([1e-6, 1e-9, 1e-12]))
@example((planted([1], END_POINTS), Fraction(1, 3), Fraction(5, 3)), 1e-9)
@example((planted([1, 0, -1], [(Fraction(2), 1), (Fraction(3, 4), 2)]), 0, 2), 1e-10)
@example((planted([-1, 1, 1], [(Fraction(0), 1), (Fraction(1, 2), 1)]), 0, 1), 1e-12)
def test_real_roots_match_sympy(case, tol):
    poly, lo, hi = case
    want = sympy_roots(poly, lo, hi)
    got = real_roots_positive(ExactPoly(poly), (lo, hi), tol)
    assert len(got) == len(want)
    for found, exact in zip(got, want):
        assert abs(found - float(exact)) <= tol
