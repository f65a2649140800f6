"""Exact polynomial arithmetic: ring ops, gcd, series, root isolation."""

import random
from fractions import Fraction

import pytest

from bounded_catalan.polynomial_algebra import (
    ExactPoly,
    RationalFn,
    poly_gcd,
    real_roots_positive,
    rf_reduce,
    series_coeffs,
)
from reference import poly_mat_det, solve_sparse_list


def naive_mul(a, b):
    """Independent convolution oracle for products of coefficient lists."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    while out and out[-1] == 0:
        out.pop()
    return out


def naive_divmod(a, b):
    """Independent long division oracle over the rationals: the quotient
    and remainder of coefficient lists a / b, as lists of Fractions."""
    r = [Fraction(c) for c in a]
    den = [Fraction(c) for c in b]
    q = [Fraction(0)] * max(0, len(r) - len(den) + 1)
    while len(r) >= len(den) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(den):
            break
        shift = len(r) - len(den)
        factor = r[-1] / den[-1]
        q[shift] = factor
        for i, c in enumerate(den):
            r[shift + i] -= factor * c
    while r and r[-1] == 0:
        r.pop()
    return q, r


def test_mul_trivia():
    one_minus_x = ExactPoly([1, -1])
    assert one_minus_x * ExactPoly([1, 1]) == ExactPoly([1, 0, -1])
    assert (one_minus_x * ExactPoly.zero()).is_zero()


def test_mul_matches_convolution_oracle():
    # expansion of (1-x)^2 (1-x-x^3), which is the m=2 denominator
    expected = naive_mul(naive_mul([1, -1], [1, -1]), [1, -1, 0, -1])
    assert expected == [1, -3, 3, -2, 2, -1]
    product = ExactPoly([1, -1]) ** 2 * ExactPoly([1, -1, 0, -1])
    assert list(product.coeffs) == expected


def test_ring_axioms_randomized():
    rng = random.Random(4217)

    def rand_poly():
        degree = rng.randrange(0, 6)
        return ExactPoly([rng.randrange(-9, 10) for _ in range(degree + 1)])

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a


def test_gcd_goldens():
    assert poly_gcd(ExactPoly([-1, 0, 1]), ExactPoly([-1, 1])) == ExactPoly([-1, 1])
    assert poly_gcd(ExactPoly([2, 5, 7]), ExactPoly.one()) == ExactPoly.one()
    d2 = ExactPoly([1, -1]) ** 2 * ExactPoly([1, -1, 0, -1])
    g = poly_gcd(d2, ExactPoly([1, -1]) * ExactPoly([1, 1]))
    assert g == ExactPoly([-1, 1])  # 1 - x up to monic normalization


def test_gcd_divides_both_inputs():
    rng = random.Random(99)
    for _ in range(40):
        shared = ExactPoly([rng.randrange(-3, 4) for _ in range(3)] + [1])
        a = shared * ExactPoly([rng.randrange(-3, 4) for _ in range(2)] + [1])
        b = shared * ExactPoly([rng.randrange(-3, 4) for _ in range(2)] + [1])
        g = poly_gcd(a, b)
        for poly in (a, b):
            q, r = naive_divmod(poly.coeffs, g.coeffs)
            assert not r
            assert naive_mul(q, g.coeffs) == list(poly.coeffs)
        assert g.degree >= shared.degree or shared.is_zero()


def test_gcd_of_zeros_rejected():
    with pytest.raises(ValueError):
        poly_gcd(ExactPoly.zero(), ExactPoly.zero())


def test_rf_reduce_goldens():
    rf = rf_reduce(ExactPoly([0, 1, 1]), ExactPoly([1, -1]))
    assert rf == RationalFn(ExactPoly([0, 1, 1]), ExactPoly([1, -1]))
    rf = rf_reduce(ExactPoly([0, 1]) * ExactPoly([1, -1]), ExactPoly([1, -1]) ** 2)
    assert rf == RationalFn(ExactPoly([0, 1]), ExactPoly([1, -1]))
    # a raw solve output for m=1: (x + x^2)/(1 - x) plus 1 gives (1 + x^2)/(1 - x)
    raw_num = ExactPoly([1, -1]) + ExactPoly([0, 1, 1])
    assert rf_reduce(raw_num, ExactPoly([1, -1])) == RationalFn(
        ExactPoly([1, 0, 1]), ExactPoly([1, -1])
    )


def test_rf_reduce_normalizes_lowest_den_coeff():
    rf = rf_reduce(ExactPoly([0, 2]), ExactPoly([-2, 2]))
    assert rf.den.coeffs[0] == 1
    assert rf == RationalFn(ExactPoly([0, -1]), ExactPoly([1, -1]))


def test_rf_reduce_rejects_bad_denominators():
    with pytest.raises(ZeroDivisionError):
        rf_reduce(ExactPoly.one(), ExactPoly.zero())
    with pytest.raises(ValueError):
        rf_reduce(ExactPoly.one(), ExactPoly([0, 1]))


def test_series_goldens():
    a1 = rf_reduce(ExactPoly([1, 0, 1]), ExactPoly([1, -1]))
    assert series_coeffs(a1, 5) == [1, 1, 2, 2, 2, 2]
    geo = rf_reduce(ExactPoly([0, 1]), ExactPoly([1, -1]))
    assert series_coeffs(geo, 3) == [0, 1, 1, 1]
    m2 = rf_reduce(
        ExactPoly([1, -2, 2, 0, -1, 0, -1]),
        ExactPoly([1, -1]) ** 2 * ExactPoly([1, -1, 0, -1]),
    )
    assert series_coeffs(m2, 11) == [1, 1, 2, 5, 8, 12, 18, 26, 37, 53, 76, 109]


def test_series_of_non_integral_input():
    # coefficients are integers: a Fraction or a float is rejected
    for bad in (Fraction(1, 3), Fraction(4, 2), 0.5, 1.0):
        with pytest.raises(TypeError):
            ExactPoly([1, bad])
    # 1 / (2 - x) = sum x^n / 2^(n+1) has no integer series: den(0) = 2 is rejected
    f = RationalFn(ExactPoly.one(), ExactPoly([2, -1]))
    with pytest.raises(ValueError):
        series_coeffs(f, 8)


def test_series_requires_unit_constant_term():
    f = RationalFn(ExactPoly.one(), ExactPoly([0, 1]))
    with pytest.raises(ValueError):
        series_coeffs(f, 3)


def test_series_invariants_randomized():
    rng = random.Random(2024)
    for _ in range(30):
        num = ExactPoly([rng.randrange(-5, 6) for _ in range(rng.randrange(1, 5))])
        den = ExactPoly([1] + [rng.randrange(-3, 4) for _ in range(rng.randrange(1, 4))])
        scale = ExactPoly([1] + [rng.randrange(-2, 3) for _ in range(2)])
        if num.is_zero():
            continue
        plain = series_coeffs(RationalFn(num, den), 25)
        blown = series_coeffs(RationalFn(num * scale, den * scale), 25)
        reduced = series_coeffs(rf_reduce(num * scale, den * scale), 25)
        assert plain == blown == reduced
        # convolution identity: series * den == num up to the truncation order
        n_max = 25
        for n in range(min(n_max, num.degree + den.degree + 1)):
            conv = sum(
                den.coefficient(j) * plain[n - j] for j in range(0, min(n, den.degree) + 1)
            )
            assert conv == num.coefficient(n)


def test_pseudo_remainder_is_constant_multiple_of_true_remainder():
    """The primitive gcd sequence needs remainders up to constant factors."""
    from bounded_catalan.polynomial_algebra import _prem_i

    rng = random.Random(5)
    for _ in range(300):
        a = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 8))]
        b = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 6))]
        while a and a[-1] == 0:
            a.pop()
        while b and b[-1] == 0:
            b.pop()
        if not a or not b:
            continue
        got = _prem_i(a, b)
        _, want = naive_divmod(a, b)
        if not want:
            assert not got
            continue
        assert len(got) == len(want)
        ratio = Fraction(got[-1]) / want[-1]
        assert all(Fraction(g) == ratio * w for g, w in zip(got, want))


def test_real_roots_goldens():
    roots = real_roots_positive(ExactPoly([1, -1, 0, -1]), (0, 1), 1e-9)
    assert len(roots) == 1
    assert abs(roots[0] - 0.682) < 1e-3
    roots = real_roots_positive(ExactPoly([1, -2, 1, -1, -1, 1]), (0, 1), 1e-9)
    assert len(roots) == 1
    assert abs(roots[0] - 0.547) < 1e-3
    assert real_roots_positive(ExactPoly([1, -1]), (0, 2), 1e-9) == [1.0]


def test_real_roots_with_multiplicities_and_many_roots():
    # (1-x)^2 (1-x-x^3): double root at 1 reported once, one root inside
    poly = ExactPoly([1, -1]) ** 2 * ExactPoly([1, -1, 0, -1])
    roots = real_roots_positive(poly, (0, 2), 1e-10)
    assert len(roots) == 2
    assert abs(roots[0] - 0.6823278) < 1e-6
    assert roots[1] == 1.0
    # (4x - 1)(2x - 1)(4x - 3) has three roots in (0, 1): 1/4, 1/2 and 3/4
    cubic = ExactPoly([-1, 4]) * ExactPoly([-1, 2]) * ExactPoly([-3, 4])
    roots = real_roots_positive(cubic, (0, 1), 1e-12)
    assert len(roots) == 3
    for found, want in zip(roots, (0.25, 0.5, 0.75)):
        assert abs(found - want) < 1e-9


def test_sparse_solver_against_fraction_oracle():
    """Random feedback systems (I - W) x = b checked by exact substitution.

    W gets random monomial entries with zero constant term, so I - W is
    always nonsingular; the packed solver's output must satisfy every
    equation exactly, sum_j A[i][j] * x_j == b_i * den, and give the
    ratios of the list-based reference elimination.
    """
    from bounded_catalan.polynomial_algebra import _solve_sparse_int

    rng = random.Random(7311)
    for trial in range(60):
        k = rng.randrange(1, 9)
        rows = []
        matrix = []
        for i in range(k):
            row = {i: [1]}
            for j in range(k):
                if rng.random() < 0.4:
                    degree = rng.randrange(1, 4)
                    coeff = rng.randrange(-3, 4)
                    if coeff:
                        entry = [0] * degree + [-coeff]
                        row[j] = [
                            a + b
                            for a, b in zip(
                                row.get(j, []) + [0] * 8, entry + [0] * 8
                            )
                        ]
                        while row[j] and row[j][-1] == 0:
                            row[j].pop()
                        if not row[j]:
                            del row[j]
            rows.append(row)
            matrix.append({c: list(p) for c, p in row.items()})
        rhs = [
            [rng.randrange(-4, 5) for _ in range(rng.randrange(1, 4))] for _ in range(k)
        ]
        rhs = [r if any(r) else [1] for r in rhs]
        rhs_copy = [list(r) for r in rhs]
        nums, den = _solve_sparse_int(rows, rhs_copy)
        assert den, trial
        den_poly = ExactPoly(den)
        ref_rows = [{c: list(p) for c, p in row.items()} for row in matrix]
        ref_nums, ref_den, det = solve_sparse_list(ref_rows, [list(r) for r in rhs])
        assert ExactPoly(det).coeffs[0] == 1  # constant term of det(I - W)
        for num, ref_num in zip(nums, ref_nums):
            assert ExactPoly(num) * ExactPoly(ref_den) == ExactPoly(ref_num) * den_poly
        for i in range(k):
            lhs = ExactPoly.zero()
            for c, poly in matrix[i].items():
                lhs = lhs + ExactPoly(poly) * ExactPoly(nums[c])
            assert lhs == ExactPoly(rhs[i]) * den_poly, (trial, i)


def test_sparse_solver_rejects_singular_systems():
    from bounded_catalan.polynomial_algebra import SingularBlockError, _solve_sparse_int

    rows = [{0: [0, 1], 1: [0, 1]}, {0: [0, 1], 1: [0, 1]}]
    with pytest.raises(SingularBlockError):
        _solve_sparse_int(rows, [[1], [1]])


def test_poly_mat_det_small():
    x = ExactPoly([0, 1])
    mat = [[ExactPoly([1]), x], [x, ExactPoly([1])]]
    assert poly_mat_det(mat) == ExactPoly([1, 0, -1])
    two = ExactPoly([2])
    assert poly_mat_det([[two, ExactPoly.zero()], [x, two]]) == ExactPoly([4])
    singular = [[x, x], [x, x]]
    assert poly_mat_det(singular).is_zero()


def test_poly_str_rendering():
    assert str(ExactPoly([1, -2, 2, 0, -1, 0, -1])) == "1 - 2*x + 2*x^2 - x^4 - x^6"
    assert str(ExactPoly.zero()) == "0"
    assert str(ExactPoly([0, -1])) == "-x"
    with pytest.raises(TypeError):
        ExactPoly([Fraction(1, 2), 1])
