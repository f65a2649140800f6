"""The packed-integer kernels against the list loops they replace.

``_mul_i`` and ``_divexact_i`` pack long operands into one integer each
(Kronecker substitution) and ``_descartes`` counts sign variations after
two Taylor shifts.  The references below are the coefficient loops and
the homogeneous Horner composition that the package used before: a
schoolbook product, a long division that raises on the first inexact
step, and the expansion of (1+t)^d p((a + b t)/(1+t)) by polynomial
products.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import bounded_catalan.polynomial_algebra as pa  # noqa: E402
from bounded_catalan.gf_solver import generating_function  # noqa: E402
from bounded_catalan.polynomial_algebra import _descartes, _divexact_i, _mul_i  # noqa: E402


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


def test_divexact_doubles_the_slot(monkeypatch):
    """(1+x)^40 (1-x)^40 / (1-x)^40: the quotient needs a wider slot than
    the dividend, so the first packed division fails its check."""
    widths = []
    pack = pa._pack
    monkeypatch.setattr(pa, "_pack", lambda a, nb: widths.append(nb) or pack(a, nb))
    product = ref_mul(BINOMIAL_40, ALTERNATING_40)
    assert _divexact_i(product, ALTERNATING_40) == BINOMIAL_40
    assert len(set(widths)) == 2 and widths[-1] == 2 * widths[0]


def test_divexact_half_integral_quotient_reaches_the_list_loop(monkeypatch):
    """2 q = c with c(2^k) even but q not integral: every packed division
    leaves no remainder, every unpacked quotient fails its check, and the
    list loop raises once the slot passes the Mignotte size."""
    calls = []
    loop = pa._divexact_list
    monkeypatch.setattr(pa, "_divexact_list", lambda a, b: calls.append(1) or loop(a, b))
    b = [2] + [1] * 19
    c = [2] + [1] * 19
    with pytest.raises(ArithmeticError):
        _divexact_i(ref_mul(b, c), [2 * x for x in b])
    assert calls == [1]


def test_divexact_edge_cases():
    with pytest.raises(ZeroDivisionError):
        _divexact_i([1] * 20, [])
    assert _divexact_i([], [1] * 20) == []
    with pytest.raises(ArithmeticError):
        _divexact_i([1] * 12, [1] * 13)


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
