"""The integer gcd and its modular coprimality certificate against sympy.

``_gcd_i`` answers coprime operands from one gcd image mod 2^61 - 1 and
runs the integer pseudo-remainder sequence otherwise; both routes are
compared with ``sympy.gcd`` after primitive and sign normalisation.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import bounded_catalan.polynomial_algebra as pa  # noqa: E402
from bounded_catalan import gf_solver  # noqa: E402
from bounded_catalan.polynomial_algebra import ExactPoly, _gcd_i, _mul_i, rf_reduce  # noqa: E402

X = sympy.Symbol("x")
P = (1 << 61) - 1


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
    a, b = num.int_coeffs(), den.int_coeffs()
    assert pa._gcd_degree_mod_p(a, b) == 1
    calls = counting_prem(monkeypatch)
    g = _gcd_i(a, b)
    assert calls
    assert g == sympy_gcd(a, b)
    assert len(g) == 2


def test_certificate_skips_prs_for_m3(monkeypatch):
    num, den = raw_generating_function(3, monkeypatch)
    calls = counting_prem(monkeypatch)
    assert _gcd_i(num.int_coeffs(), den.int_coeffs()) == [1]
    assert not calls


def normalised(poly, scale):
    """ExactPoly of a sympy Poly over ZZ, divided by the integer scale."""
    return ExactPoly([Fraction(int(c), int(scale)) for c in reversed(poly.all_coeffs())])


@pytest.mark.parametrize("m", range(2, 7))
def test_rf_reduce_matches_sympy_cancel(m, monkeypatch):
    num, den = raw_generating_function(m, monkeypatch)
    reduced = rf_reduce(num, den)
    ratio = to_sympy(num.int_coeffs()).as_expr() / to_sympy(den.int_coeffs()).as_expr()
    p, q = (sympy.Poly(e, X) for e in sympy.fraction(sympy.cancel(ratio)))
    q0 = q.eval(0)
    assert reduced.num == normalised(p, q0)
    assert reduced.den == normalised(q, q0)
