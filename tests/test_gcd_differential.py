"""The integer gcd and its modular coprimality certificate against sympy.

``_gcd_i`` answers coprime operands from one gcd image mod 2^31 - 1 and
runs the integer pseudo-remainder sequence otherwise; both routes are
compared with ``sympy.gcd`` after primitive and sign normalisation.
``rf_reduce`` is compared with ``sympy.cancel`` the same way.
"""

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import bounded_catalan.polynomial_algebra as pa  # noqa: E402
from bounded_catalan import gf_solver  # noqa: E402
from bounded_catalan.polynomial_algebra import ExactPoly, _gcd_i, _mul_i, rf_reduce  # noqa: E402

X = sympy.Symbol("x")
P = pa._P


def to_sympy(c):
    return sympy.Poly(list(reversed(c)), X, domain="ZZ")


def sympy_gcd(a, b):
    """Primitive gcd with positive leading coefficient, as an int list."""
    g = sympy.gcd(to_sympy(a), to_sympy(b))
    _, prim = g.primitive()
    coeffs = [int(c) for c in reversed(prim.all_coeffs())]
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    return coeffs


def trimmed(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


coeff_lists = st.lists(st.integers(-60, 60), min_size=0, max_size=9).map(trimmed)
factors = st.lists(st.integers(-9, 9), min_size=2, max_size=4).map(trimmed).filter(
    lambda c: len(c) >= 2
)


@settings(max_examples=300, deadline=None)
@given(coeff_lists, coeff_lists)
def test_gcd_matches_sympy(a, b):
    if not a and not b:
        with pytest.raises(ValueError):
            _gcd_i(a, b)
        return
    assert _gcd_i(a, b) == sympy_gcd(a, b)


@settings(max_examples=300, deadline=None)
@given(coeff_lists, coeff_lists, factors)
def test_gcd_matches_sympy_with_planted_factor(a, b, f):
    a, b = _mul_i(a, f), _mul_i(b, f)
    if not a and not b:
        return
    g = _gcd_i(a, b)
    assert g == sympy_gcd(a, b)
    assert len(g) >= len(f)


@pytest.mark.parametrize(
    "a, b, want",
    [
        ([7], [3, 0, 5], [1]),
        ([-4], [6], [1]),
        ([], [6, -4], [-3, 2]),
        ([0, 0, -2], [], [0, 0, 1]),
        ([], [-5], [1]),
    ],
)
def test_gcd_constant_and_zero_operands(a, b, want):
    assert _gcd_i(a, b) == want == sympy_gcd(a, b)


def counting_prem(monkeypatch):
    calls = []
    real = pa._prem_i

    def spy(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(pa, "_prem_i", spy)
    return calls


def test_unlucky_prime_goes_through_prs(monkeypatch):
    # (P x + 1)(x + 1) and (P x + 1)(x + 2) share P x + 1 over Z, but mod P
    # they reduce to the coprime x + 1 and x + 2: the image loses the
    # common factor because P divides the leading coefficients.
    shared = [1, P]
    a, b = _mul_i(shared, [1, 1]), _mul_i(shared, [2, 1])
    assert a[-1] % P == 0 and b[-1] % P == 0
    image_a, image_b = trimmed(c % P for c in a), trimmed(c % P for c in b)
    assert (image_a, image_b) == ([1, 1], [2, 1])
    calls = counting_prem(monkeypatch)
    assert _gcd_i(a, b) == shared == sympy_gcd(a, b)
    assert calls
    # one unlucky leading coefficient is enough to bypass the certificate
    calls.clear()
    c = _mul_i([1, P], [3, 1])
    assert _gcd_i(c, [3, 1]) == [3, 1] == sympy_gcd(c, [3, 1])
    assert calls


def raw_generating_function(m, monkeypatch):
    """The unreduced (num, den) that generating_function hands to rf_reduce."""
    captured = []

    def capture(num, den):
        captured.append((num, den))
        return rf_reduce(num, den)

    with monkeypatch.context() as patch:
        patch.setattr(gf_solver, "rf_reduce", capture)
        gf_solver.generating_function.__wrapped__(m)
    (pair,) = captured
    return pair


def test_m2_nontrivial_gcd_goes_through_prs(monkeypatch):
    num, den = raw_generating_function(2, monkeypatch)
    a, b = list(num.coeffs), list(den.coeffs)
    assert pa._gcd_degree_mod_p(a, b) == 1
    calls = counting_prem(monkeypatch)
    g = _gcd_i(a, b)
    assert calls
    assert g == sympy_gcd(a, b)
    assert len(g) == 2


def test_certificate_skips_prs_for_m3(monkeypatch):
    num, den = raw_generating_function(3, monkeypatch)
    calls = counting_prem(monkeypatch)
    assert _gcd_i(list(num.coeffs), list(den.coeffs)) == [1]
    assert not calls


def normalised(poly, scale):
    """ExactPoly of a sympy Poly over ZZ, divided exactly by the integer scale."""
    coeffs = [int(c) for c in reversed(poly.all_coeffs())]
    assert all(c % scale == 0 for c in coeffs)
    return ExactPoly([c // scale for c in coeffs])


@pytest.mark.parametrize("m", range(2, 7))
def test_rf_reduce_matches_sympy_cancel(m, monkeypatch):
    num, den = raw_generating_function(m, monkeypatch)
    reduced = rf_reduce(num, den)
    ratio = to_sympy(list(num.coeffs)).as_expr() / to_sympy(list(den.coeffs)).as_expr()
    p, q = (sympy.Poly(e, X) for e in sympy.fraction(sympy.cancel(ratio)))
    q0 = int(q.eval(0))
    assert q0 in (1, -1)
    assert reduced.num == normalised(p, q0)
    assert reduced.den == normalised(q, q0)


def sympy_reduced(num, den):
    """num/den cancelled by sympy, then scaled to coprime integer
    polynomials with no common content and a positive constant term in
    the denominator."""
    ratio = to_sympy(num).as_expr() / to_sympy(den).as_expr()
    p, q = (sympy.Poly(e, X, domain="QQ") for e in sympy.fraction(sympy.cancel(ratio)))
    coeffs = [sympy.Rational(c) for c in p.all_coeffs() + q.all_coeffs()]
    lcm, gcd = sympy.ilcm(*(c.q for c in coeffs)), sympy.igcd(*(c.p for c in coeffs))
    scale = sympy.Rational(lcm, gcd)
    if q.eval(0) < 0:
        scale = -scale
    return tuple(
        [int(c * scale) for c in reversed(poly.all_coeffs())] for poly in (p, q)
    )


nonzero_lists = coeff_lists.filter(bool)


@settings(max_examples=200, deadline=None)
@given(nonzero_lists, nonzero_lists, st.integers(-12, 12).filter(bool), factors)
@example([3, 6], [2, 4], 2, [1, 1])  # num/den = 3/2: den(0) stays 2
@example([-4], [-6, 2], -6, [2, 1])  # den(0) < 0 and a common content of 2
def test_rf_reduce_matches_sympy_cancel_random(num, den, den0, f):
    """Random integer num/den times a planted common factor; den(0) is
    set to den0, which is often neither 1 nor -1."""
    den = [den0] + den[1:]
    num, den = _mul_i(num, f), _mul_i(den, f)
    if not den[0]:
        return
    reduced = rf_reduce(ExactPoly(num), ExactPoly(den))
    want_num, want_den = sympy_reduced(num, den)
    assert list(reduced.num.coeffs) == want_num
    assert list(reduced.den.coeffs) == want_den
