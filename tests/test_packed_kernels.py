"""The polynomial kernels against plain reference loops.

``_mul_i`` packs long operands into one integer each (Kronecker
substitution), ``_divexact_i`` is long division, ``_descartes`` counts
sign variations after two Taylor shifts, and ``_gcd_degree_mod_p`` runs
Euclid over GF(2^31 - 1) in numpy.  The references are a schoolbook
product, a long division that raises on the first inexact step, the
expansion of (1+t)^d p((a + b t)/(1+t)) by polynomial products (the
homogeneous Horner composition the package used before), and Euclid on
residue lists (``tests/reference.py``).
"""

import random
from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bounded_catalan.gf_solver import generating_function  # noqa: E402
from bounded_catalan.polynomial_algebra import (  # noqa: E402
    _P,
    _descartes,
    _divexact_i,
    _gcd_degree_mod_p,
    _mul_i,
)
from reference import gcd_degree_mod_p_list  # noqa: E402


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            seg = out[i : i + len(b)]
            out[i : i + len(b)] = [u + x * y for u, y in zip(seg, b)]
    return trimmed(out)


def ref_divexact(a, b):
    r = a[:]
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        t, rem = divmod(r[len(b) - 1 + i], b[-1])
        if rem:
            raise ArithmeticError("inexact")
        q[i] = t
        for j, y in enumerate(b):
            r[i + j] -= t * y
    if any(r):
        raise ArithmeticError("inexact")
    return trimmed(q)


def ref_descartes(p, a, b):
    """Sign variations of den^d (1+t)^d p((a + b t)/(1+t)) by Horner."""
    den = lcm(a.denominator, b.denominator)
    num = [int(a * den), int(b * den)]
    acc, pw = [p[-1]], [1]
    for c in reversed(p[:-1]):
        pw = ref_mul(pw, [den, den])
        step = ref_mul(acc, num)
        scaled = [c * x for x in pw]
        width = max(len(step), len(scaled))
        acc = trimmed(
            [
                (step[i] if i < len(step) else 0) + (scaled[i] if i < len(scaled) else 0)
                for i in range(width)
            ]
        )
    signs = [c > 0 for c in acc if c]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def trimmed(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


@st.composite
def polys(draw, max_len=300, max_bits=400):
    """A nonzero trimmed integer polynomial: length 1..max_len, coefficients
    of up to max_bits bits, mixed or one-signed, with interior zeros."""
    n = draw(st.integers(1, max_len))
    bits = draw(st.sampled_from([1, 3, 20, 62, 64, 65, 130, max_bits]))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.9]))
    signs = draw(st.sampled_from(["mixed", "positive", "negative"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    out = []
    for _ in range(n):
        c = 0 if rng.random() < zeros else rng.randrange(1, 1 << bits)
        if signs == "negative" or (signs == "mixed" and rng.random() < 0.5):
            c = -c
        out.append(c)
    out[-1] = out[-1] or rng.choice([1, -1]) << rng.randrange(bits)
    return out


BINOMIAL_40 = [1]
for _ in range(40):
    BINOMIAL_40 = ref_mul(BINOMIAL_40, [1, 1])
ALTERNATING_40 = [(-1) ** i * c for i, c in enumerate(BINOMIAL_40)]


@settings(max_examples=100, deadline=None)
@given(polys(), polys())
@example([1] * 12, [-1] * 12)
@example([2**400 - 1] * 13, [-(2**400) + 1] * 300)
@example(BINOMIAL_40, ALTERNATING_40)
def test_mul_matches_schoolbook(a, b):
    assert _mul_i(a, b) == ref_mul(a, b)
    assert _mul_i(b, a) == ref_mul(a, b)


def test_mul_of_zero_polynomial():
    assert _mul_i([], [1] * 20) == [] and _mul_i([1] * 20, []) == []


@settings(max_examples=80, deadline=None)
@given(polys(), polys())
@example(BINOMIAL_40, ALTERNATING_40)
@example([1] * 12, [0] * 11 + [1])
def test_divexact_recovers_either_factor(a, b):
    product = ref_mul(a, b)
    assert _divexact_i(product, a) == b
    assert _divexact_i(product, b) == a


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), st.data())
def test_divexact_rejects_perturbed_product(a, b, data):
    # a divides product + x^i only if a is a unit monomial +-x^j
    assume(sum(1 for c in a if c) > 1 or abs(a[-1]) != 1)
    product = ref_mul(a, b)
    i = data.draw(st.integers(0, len(product) - 1))
    product[i] += 1
    product = trimmed(product)
    with pytest.raises(ArithmeticError):
        ref_divexact(product, a)
    with pytest.raises(ArithmeticError):
        _divexact_i(product, a)


@settings(max_examples=120, deadline=None)
@given(polys(max_len=60, max_bits=64), polys(max_len=40, max_bits=64))
def test_divexact_agrees_with_long_division(a, b):
    try:
        want = ref_divexact(a, b)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            _divexact_i(a, b)
    else:
        assert _divexact_i(a, b) == want


def test_divexact_edge_cases():
    with pytest.raises(ZeroDivisionError):
        _divexact_i([1] * 20, [])
    assert _divexact_i([], [1] * 20) == []
    with pytest.raises(ArithmeticError):
        _divexact_i([1] * 12, [1] * 13)


@st.composite
def residue_operands(draw):
    """An integer polynomial of 1..60 terms whose leading coefficient P
    does not divide: random, of small coefficients (so that images share
    factors), or with every coefficient below the leading one a multiple
    of P (so that the image is a monomial)."""
    kind = draw(st.sampled_from(["random", "small", "vanishing"]))
    if kind == "random":
        a = draw(polys(max_len=60, max_bits=130))
    else:
        n = draw(st.integers(1, 60))
        small = st.integers(-3, 3)
        a = draw(st.lists(small, min_size=n, max_size=n))
        if kind == "vanishing":
            a = [c * _P for c in a]
        a[-1] = draw(small.filter(bool))
    assume(a[-1] % _P)
    return a


@settings(max_examples=200, deadline=None)
@given(
    residue_operands(),
    residue_operands(),
    st.sampled_from([[1], [1, 1], [-2, 0, 1], [3, -1, 0, 5]]),
)
@example([7], [1] * 60, [1])
@example([5 * _P, 0, 2], [_P, 3], [1])
@example([-_P, 1], [_P] * 59 + [1], [1, 1])
@example([1, 1] * 30, [1, -1, 1], [1])
def test_gcd_degree_mod_p_matches_list_euclid(a, b, f):
    """Both argument orders against the list loop, with a planted common
    factor f on some draws so that the image gcd has positive degree."""
    a, b = ref_mul(a, f), ref_mul(b, f)
    want = gcd_degree_mod_p_list(a, b)
    assert want >= len(f) - 1
    assert _gcd_degree_mod_p(a, b) == want
    assert _gcd_degree_mod_p(b, a) == want


INTERVALS = [
    (Fraction(0), Fraction(2)),
    (Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(2, 3)),
    (Fraction(1, 2), Fraction(3, 4)),
    (Fraction(1, 3), Fraction(5, 3)),
    (Fraction(2, 7), Fraction(3, 5)),
    (Fraction(-1, 2), Fraction(1, 3)),
]


@st.composite
def root_cases(draw):
    lo, hi = draw(st.sampled_from(INTERVALS))
    points = st.one_of(
        st.sampled_from([lo, hi, (lo + hi) / 2, Fraction(1, 2), Fraction(1)]),
        st.builds(Fraction, st.integers(-6, 12), st.integers(1, 9)),
    )
    poly = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=8).map(trimmed).filter(bool))
    for r in draw(st.lists(points, max_size=6)):
        poly = ref_mul(poly, [-r.numerator, r.denominator])
    return poly, lo, hi


@settings(max_examples=200, deadline=None)
@given(root_cases())
@example(([5], Fraction(0), Fraction(1)))
@example(([-3], Fraction(1, 3), Fraction(5, 3)))
@example(([-1, 2], Fraction(0), Fraction(1)))
@example(([-1, 2], Fraction(1, 2), Fraction(1)))
@example(([1, 3], Fraction(0), Fraction(2)))
@example(([1, -1], Fraction(0), Fraction(1)))
@example(([-1, 3], Fraction(1, 3), Fraction(5, 3)))
def test_descartes_matches_horner(case):
    poly, lo, hi = case
    assert _descartes(poly, lo, hi) == ref_descartes(poly, lo, hi)


def test_descartes_on_generating_function_denominators():
    for m in (2, 3, 5):
        den = list(generating_function(m).den.coeffs)
        for lo, hi in INTERVALS + [(Fraction(1, 4), Fraction(3, 8)), (Fraction(0), Fraction(1, 64))]:
            assert _descartes(den, lo, hi) == ref_descartes(den, lo, hi)
