"""Exact univariate polynomial and rational-function arithmetic.

Coefficients are Python integers: every count, generating function and
recurrence of the paper is integral, and every denominator built here
has constant term +-1.  Polynomials are dense, indexed by degree, with
trailing zeros trimmed.  On top of the ring arithmetic this module
provides the primitive gcd over Z[x], reduction of rational functions,
power-series coefficient extraction, isolation of positive real roots by
Descartes' rule of signs, and the exact solve of sparse polynomial
systems.

Every gcd goes through ``_gcd_i``, which first tries a coprimality
certificate: the primitive operands are reduced modulo the prime
P = 2^31 - 1 and their gcd is taken over GF(P) in numpy int64 (every
product of two residues stays below 2^62).  When P divides neither
leading coefficient, the degree of that image is at least the degree of
the gcd over Q (Brown 1971; von zur Gathen & Gerhard, *Modern Computer
Algebra*, ch. 6), so an image of degree 0 proves the operands coprime.
That is the common case for the generating functions here (every m >= 3
tried), and it costs milliseconds where the integer pseudo-remainder sequence
costs seconds.  Only when the image has positive degree, or P divides a
leading coefficient, does the integer sequence run.

Every path runs on raw integer coefficient lists, and the ring
operations of ``ExactPoly`` call the same kernels.  All operations are
pure functions of their inputs.  Three kernels carry them, each exact by
construction:

- ``_mul_i`` multiplies long operands by Kronecker substitution (von zur
  Gathen & Gerhard, §8.4): each operand is evaluated at 2^k by packing
  its coefficients into k-bit slots of one integer, the two integers are
  multiplied once, and the product is unpacked.  The slot is wide enough
  for every product coefficient, and balanced base-2^k digits are unique,
  so the unpacked digits are the coefficients.
- ``_descartes`` counts sign variations after two Taylor shifts, each a
  run of prefix sums (Collins & Akritas 1976).  The polynomial it builds
  is a nonzero multiple of the reversal of the one a Horner composition
  gives, so the counts, the isolation tree and every root bracket are
  the same.
- ``_solve_sparse_int`` solves a block A y = rhs once at X = 2^k: the
  block is packed into integers, the integer system is eliminated
  fraction-free, and the solution's balanced base-2^k digits are
  returned once a certificate at a second, wider point proves
  A nums = rhs den in Z[x].  The first slot is sized from the block;
  a failed certificate widens it.

Products whose shorter factor has fewer than ``_PACK_MIN`` terms go
through the schoolbook loop, which is cheaper there.  Exact division
(``_divexact_i``) is long division on the coefficient lists.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd as int_gcd
from math import lcm as int_lcm
from operator import index, mul
from typing import Iterable


class SingularBlockError(RuntimeError):
    """A linear block expected to be invertible turned out singular."""


# ---------------------------------------------------------------------------
# Integer-coefficient polynomial helpers (dense lists, index = degree).
# These run the hot loops.  ExactPoly hands them its coefficient tuples,
# which _add_i, _sub_i, _mul_i, _scale_i and _gcd_i read like lists.
# ---------------------------------------------------------------------------

IntPoly = list


def _trim(c: IntPoly) -> IntPoly:
    while c and c[-1] == 0:
        c.pop()
    return c


def _add_i(a: IntPoly, b: IntPoly) -> IntPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return _trim(out)


def _sub_i(a: IntPoly, b: IntPoly) -> IntPoly:
    out = list(a) + [0] * (len(b) - len(a))
    for i, v in enumerate(b):
        out[i] -= v
    return _trim(out)


# Products whose shorter factor has at least this many terms go through
# packed integers; below it the schoolbook loop is cheaper (packing every
# operand made the generating functions for m = 2..10 about 30-40% slower).
_PACK_MIN = 12


def _bits(a: IntPoly) -> int:
    """Bit length of the largest coefficient magnitude of a nonempty a."""
    return max(max(a), -min(a)).bit_length()


def _bias(nb: int, n: int) -> int:
    """2^(8 nb - 1) in each of n slots of nb bytes: the sum of the slot biases."""
    return int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")


def _unpack(v: int, nb: int, n: int) -> IntPoly:
    """The n balanced base-2^k digits of v (each in [-2^(k-1), 2^(k-1))),
    lowest first, for k = 8 nb.

    Adding the n slot biases makes every digit a nonnegative slot, so the
    bytes of the sum are the digits biased by 2^(k-1).  Raises
    OverflowError when v has no such n-digit representation.
    """
    half = 1 << (8 * nb - 1)
    raw = (v + _bias(nb, n)).to_bytes(nb * n, "little")
    return [int.from_bytes(raw[i : i + nb], "little") - half for i in range(0, nb * n, nb)]


def _value(p: IntPoly, nb: int) -> int:
    """p(2^k) for k = 8 nb bits, exact whatever the size of the coefficients."""
    k = 8 * nb
    return sum([c << (k * i) for i, c in enumerate(p) if c])


def _mul_list(a: IntPoly, b: IntPoly) -> IntPoly:
    """Schoolbook product, one row of a at a time; len(a) <= len(b)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            seg = out[i : i + len(b)]
            out[i : i + len(b)] = [x + ai * y for x, y in zip(seg, b)]
    return _trim(out)


def _mul_i(a: IntPoly, b: IntPoly) -> IntPoly:
    """Product of integer polynomials (Kronecker substitution when long).

    Each product coefficient is a sum of at most n = min(len a, len b)
    terms, so its magnitude is below 2^(bits a + bits b + bitlen n).  A
    slot of k >= that + 2 bits holds it as a balanced digit, and balanced
    base-2^k digits are unique, so one integer product a(2^k) b(2^k)
    unpacks to the exact coefficients.
    """
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    if len(a) < _PACK_MIN:
        return _mul_list(a, b)
    nb = (_bits(a) + _bits(b) + len(a).bit_length() + 9) // 8
    return _trim(_unpack(_value(a, nb) * _value(b, nb), nb, len(a) + len(b) - 1))


def _scale_i(a: IntPoly, k: int) -> IntPoly:
    if k == 0:
        return []
    return [c * k for c in a]


def _divexact_i(a: IntPoly, b: IntPoly) -> IntPoly:
    """Quotient a / b by long division when it is exact in Z[x]; raises
    ArithmeticError otherwise."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    lb = b[-1]
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        head = r[len(b) - 1 + i]
        if head == 0:
            continue
        t, rem = divmod(head, lb)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        q[i] = t
        for j, bj in enumerate(b):
            r[i + j] -= t * bj
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return _trim(q)


def _content_i(a: IntPoly) -> int:
    g = 0
    for c in a:
        g = int_gcd(g, c)
        if g == 1:
            break
    return g


def _primitive_i(a: IntPoly) -> IntPoly:
    """Divide out the (positive) integer content; preserves signs."""
    if not a:
        return []
    g = _content_i(a)
    return [c // g for c in a] if g > 1 else list(a)


def _prem_i(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder of a by b: lc(b)^t times the true remainder, t >= 0."""
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return a[:]
    r = a[:]
    lb = b[-1]
    for i in range(da - db, -1, -1):
        coef = r[db + i]
        r = [lb * c for c in r]
        for j in range(db + 1):
            r[i + j] -= coef * b[j]
    return _trim(r)


_P = (1 << 31) - 1  # Mersenne prime modulus of the coprimality certificate


def _gcd_degree_mod_p(a: IntPoly, b: IntPoly) -> int:
    """Degree of gcd(a mod P, b mod P) over GF(P), by Euclid in numpy int64.

    P must divide neither leading coefficient, so the images keep the
    degrees of a and b.  Residues are below 2^31, so every product of two
    stays below 2^62.
    """
    # numpy is imported here, not at module level: the package loads it
    # anyway (state_system), but a module-level import here, ahead of the
    # modules that follow, raised the resident set of the imported CLI by
    # about 0.6 MB, which every forked command carries.
    import numpy as np

    a = np.array([c % _P for c in a], dtype=np.int64)
    b = np.array([c % _P for c in b], dtype=np.int64)
    # a shorter than b passes the first step unreduced, which swaps them
    while b.size:
        db = b.size - 1
        inv = pow(int(b[-1]), -1, _P)
        body = b[:-1]
        for i in range(a.size - 1, db - 1, -1):
            q = int(a[i]) * inv % _P
            if q:
                off = i - db
                a[off:i] = (a[off:i] - q * body) % _P
        nz = np.flatnonzero(a[:db])
        a, b = b, a[: nz[-1] + 1 if nz.size else 0]
    return a.size - 1


def _gcd_i(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd of integer polynomials (positive leading coefficient).

    Coprime operands are recognised by the modular certificate of the
    module docstring and answered with ``[1]`` without any integer
    remainder.  Otherwise (the image mod P has positive degree, P divides
    a leading coefficient, or an operand is zero) a primitive
    pseudo-remainder sequence runs; denominators are cleared to primitive
    integer polynomials before each remainder step so the coefficients
    stay controlled.
    """
    a, b = _primitive_i(a), _primitive_i(b)
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    if a and b and a[-1] % _P and b[-1] % _P and _gcd_degree_mod_p(a, b) == 0:
        return [1]
    while b:
        a, b = b, _primitive_i(_prem_i(a, b))
    if a[-1] < 0:
        a = [-c for c in a]
    return a


# ---------------------------------------------------------------------------
# Public exact types
# ---------------------------------------------------------------------------


class ExactPoly:
    """Dense univariate polynomial with integer coefficients.

    Each coefficient passes through ``operator.index``, so a rational or a
    float is rejected with TypeError.  Sums, differences and products run
    on the integer kernels above.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        self.coeffs = tuple(_trim([index(c) for c in coeffs]))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ExactPoly":
        return cls()

    @classmethod
    def one(cls) -> "ExactPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "ExactPoly":
        return cls([0] * degree + [coeff])

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial given degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def coefficient(self, degree: int) -> int:
        if 0 <= degree < len(self.coeffs):
            return self.coeffs[degree]
        return 0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ExactPoly") -> "ExactPoly":
        return ExactPoly(_add_i(self.coeffs, other.coeffs))

    def __sub__(self, other: "ExactPoly") -> "ExactPoly":
        return ExactPoly(_sub_i(self.coeffs, other.coeffs))

    def __neg__(self) -> "ExactPoly":
        return ExactPoly(_scale_i(self.coeffs, -1))

    def __mul__(self, other) -> "ExactPoly":
        if isinstance(other, ExactPoly):
            return ExactPoly(_mul_i(self.coeffs, other.coeffs))
        return ExactPoly(_scale_i(self.coeffs, index(other)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ExactPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ExactPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x):
        """Horner evaluation; exact when x is an int or a rational."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "ExactPoly":
        return ExactPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    # -- comparison / rendering ---------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for deg, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if deg == 0:
                body = str(mag)
            else:
                xpow = "x" if deg == 1 else f"x^{deg}"
                body = xpow if mag == 1 else f"{mag}*{xpow}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"ExactPoly({list(self.coeffs)!r})"


class RationalFn:
    """Reduced ratio of two ExactPoly; construct via :func:`rf_reduce`.

    Invariants: num and den have no common factor in Z[x], neither a
    polynomial one nor an integer one, and den(0) > 0.  Every generating
    function built here has den(0) = 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: ExactPoly, den: ExactPoly):
        self.num = num
        self.den = den

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalFn)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RationalFn({self.num!r}, {self.den!r})"


# ---------------------------------------------------------------------------
# Gcd, reduction, series
# ---------------------------------------------------------------------------


def poly_gcd(a: ExactPoly, b: ExactPoly) -> ExactPoly:
    """Greatest common divisor in Z[x]: primitive, with a positive leading
    coefficient.

    The integer gcd runs the modular coprimality certificate first, then,
    when it does not apply, a primitive pseudo-remainder sequence.
    """
    return ExactPoly(_gcd_i(a.coeffs, b.coeffs))


def rf_reduce(num: ExactPoly, den: ExactPoly) -> RationalFn:
    """Reduce num/den: divide out the gcd and the common integer content,
    then make den(0) positive.

    When the reduced denominator's constant term is +-1, as for every
    generating function of this package, that makes den(0) = 1.
    """
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if den.constant_term() == 0:
        raise ValueError("denominator must have nonzero constant term")
    if num.is_zero():
        return RationalFn(ExactPoly(), ExactPoly.one())
    ni, di = list(num.coeffs), list(den.coeffs)
    g = _gcd_i(ni, di)
    if len(g) > 1:
        ni = _divexact_i(ni, g)
        di = _divexact_i(di, g)
    content = int_gcd(_content_i(ni), _content_i(di))
    if di[0] < 0:
        content = -content
    return RationalFn(
        ExactPoly([c // content for c in ni]),
        ExactPoly([c // content for c in di]),
    )


def series_coeffs(f: RationalFn, n_max: int) -> list[int]:
    """First n_max + 1 Taylor coefficients of f at 0, via the linear
    recurrence induced by the denominator.

    Needs den(0) == 1, which every generating function built by this
    package has; the coefficients are then integers.  Raises ValueError
    otherwise.
    """
    num, tail = f.num.coeffs, f.den.coeffs[1:]
    if f.den.constant_term() != 1:
        raise ValueError("series coefficients need a denominator with constant term 1")
    out: list[int] = []
    for n in range(n_max + 1):
        acc = num[n] if n < len(num) else 0
        k = min(n, len(tail))
        if k:
            acc -= sum(map(mul, tail[:k], reversed(out[n - k :])))
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Descartes' rule of signs and positive real root isolation
# ---------------------------------------------------------------------------


def _sign_at(p: IntPoly, x: Fraction) -> int:
    """Sign of p(x) by homogeneous integer Horner.

    With x = a/b and b > 0, b^d p(a/b) = sum_i c_i a^i b^(d-i) has the
    sign of p(x) and needs no rational arithmetic.
    """
    a, b = x.numerator, x.denominator
    acc = p[-1]
    bpow = 1
    for c in reversed(p[:-1]):
        bpow *= b
        acc = acc * a + c * bpow
    return (acc > 0) - (acc < 0)


def _shift_one(c: IntPoly) -> IntPoly:
    """Coefficients of p(x + 1), highest degree first, from those of p.

    Taylor shift by d passes of prefix sums: pass i adds each coefficient
    into the next lower one, from the top down, over the first d + 1 - i.
    """
    c = c[:]
    for n in range(len(c), 1, -1):
        c[:n] = accumulate(c[:n])
    return c


def _descartes(p: IntPoly, a: Fraction, b: Fraction) -> int:
    """Sign variations in the coefficients of (1+t)^d p((a + b t)/(1+t)).

    d = deg p.  The map t -> (a + b t)/(1+t) takes (0, inf) onto (a, b),
    so by Descartes' rule of signs the count bounds the number of roots
    of p in the open interval (a, b), exceeds it by an even number, and
    is exact when it is 0 or 1.

    With a = A/D and b = B/D over a common denominator D, the polynomial
    s(u) = p(a + (b - a) u), times A^d D^d, comes from one Taylor shift:
    g(w) = D^d p(A w / D) has the coefficients p_i A^i D^(d-i), g(1 + u)
    is p(a + a u) times D^d, and multiplying its coefficient of u^j by
    (B - A)^j A^(d-j) substitutes u = (b - a) u' / a.  (For A = 0, s has
    the coefficients p_j B^j D^(d-j) directly.)  Then
    (1+t)^d s(t/(1+t)) is the reversal of rev(s)(1 + t), a second shift.
    Neither reversal nor a nonzero common factor changes the number of
    sign variations (Collins & Akritas 1976).
    """
    d = len(p) - 1
    den = int_lcm(a.denominator, b.denominator)
    lo, hi = int(a * den), int(b * den)
    if lo:
        g = [c * lo**i * den ** (d - i) for i, c in enumerate(p)]
        h = _shift_one(g[::-1])[::-1]
        s = [c * (hi - lo) ** j * lo ** (d - j) for j, c in enumerate(h)]
    else:
        s = [c * hi**j * den ** (d - j) for j, c in enumerate(p)]
    signs = [c > 0 for c in _shift_one(s) if c]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def real_roots_positive(
    p: ExactPoly, interval: tuple | None = None, tol: float = 1e-9
) -> list[float]:
    """Distinct real roots of p in the half-open interval (lo, hi].

    Dyadic bisection of (lo, hi] isolates single-root subintervals, each
    certified by Descartes' rule of signs on the square-free part of p
    (Collins & Akritas 1976); each root is then bracketed by sign
    bisection on that part down to width < tol.  Signs are evaluated
    exactly at rational points (by integer Horner on the numerator and
    denominator), so the brackets are rigorous; the reported root is the
    bracket midpoint (or the exact point when a bisection point happens
    to be a root).  Defaults to the interval (0, 1].
    """
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi = interval if interval is not None else (0, 1)
    lo_f, hi_f = Fraction(lo), Fraction(hi)
    if not lo_f < hi_f:
        raise ValueError("empty interval")

    pi = _primitive_i(p.coeffs)
    dpi = _trim([i * c for i, c in enumerate(pi)][1:])
    sf = _divexact_i(pi, _gcd_i(pi, dpi)) if dpi else pi
    tol_f = Fraction(tol)

    roots: list[float] = []

    def refine(a: Fraction, b: Fraction) -> None:
        # exactly one root in (a, b], sf(a) != 0
        if _sign_at(sf, b) == 0:
            roots.append(float(b))
            return
        sign_a = _sign_at(sf, a)
        while b - a > tol_f:
            mid = (a + b) / 2
            v = _sign_at(sf, mid)
            if v == 0:
                roots.append(float(mid))
                return
            if v == sign_a:
                a = mid
            else:
                b = mid
        roots.append(float((a + b) / 2))

    def isolate(a: Fraction, b: Fraction) -> None:
        # bounds the distinct roots in (a, b]; exact when 0 or 1
        count = _descartes(sf, a, b) + (_sign_at(sf, b) == 0)
        if count == 0:
            return
        if count == 1 and _sign_at(sf, a) != 0:
            refine(a, b)
            return
        mid = (a + b) / 2
        isolate(a, mid)
        isolate(mid, b)

    isolate(lo_f, hi_f)
    return sorted(roots)


# ---------------------------------------------------------------------------
# Exact solve of sparse polynomial systems, packed at one point
# ---------------------------------------------------------------------------


def _digits(v: int, nb: int) -> IntPoly:
    """The balanced base-2^k digits of v, k = 8 nb, lowest first, trimmed."""
    return _trim(_unpack(v, nb, abs(v).bit_length() // (8 * nb) + 2))


def _first_slot(rows: list[dict[int, IntPoly]], rhs: list[IntPoly]) -> int:
    """Bits of the first slot of the packed solve: a guess, sized from the
    block, at the largest coefficient of its solution.

    The solution's denominator is a determinant, whose degree is at most
    D = the sum over the rows of their largest entry degree, and each
    numerator also carries the right-hand side.  On the blocks of the
    generating functions (I - W over the entries c_kp(k, p) x^k) the
    determinant takes fewer than D / 5 bits (0.15-0.2 D for m = 8..21),
    so the guess is bits(rhs) + D / 5 + 4.  For m = 2..21 it holds every
    block's solution at the first try; rounded up to whole bytes, it is
    1.01-1.39 times the bits the solution needs for m = 8..21 (more below
    m = 8, where one byte already exceeds the need).  The guess is not a
    bound: the certificate decides, and a failed one widens the slot.
    """
    degree = sum(max(map(len, row.values()), default=1) - 1 for row in rows)
    rbits = max((_bits(r) for r in rhs if r), default=0)
    return rbits + degree // 5 + 4


def _eliminate(rows: list[dict[int, int]], rhs: list[int]):
    """Solve the integer system rows * y = rhs fraction-free.

    Returns (nums, den) with y_i = nums[i] / den, or None when the matrix
    is singular.  ``rows`` and ``rhs`` are consumed.
    """
    k = len(rows)
    col_rows: list[set[int]] = [set() for _ in range(k)]
    for i, row in enumerate(rows):
        for c in row:
            col_rows[c].add(i)
    active = set(range(k))
    unit_pivots: list[int] = []
    while True:
        best = None
        for r in active:
            if rows[r].get(r) == 1:
                cost = (len(col_rows[r]) - 1) * (len(rows[r]) - 1)
                if best is None or cost < best[0]:
                    best = (cost, r)
        if best is None:
            break
        r = best[1]
        pivot_row = rows[r]
        for i in list(col_rows[r]):
            if i == r or i not in active:
                continue
            row_i = rows[i]
            f = row_i.pop(r)
            col_rows[r].discard(i)
            for c, v in pivot_row.items():
                if c == r:
                    continue
                cur = row_i.get(c, 0) - f * v
                if cur:
                    row_i[c] = cur
                    col_rows[c].add(i)
                else:
                    row_i.pop(c, None)
                    col_rows[c].discard(i)
            rhs[i] -= f * rhs[r]
        active.discard(r)
        unit_pivots.append(r)

    core = sorted(active)
    kk = len(core)
    M = [[rows[r].get(c, 0) for c in core] + [rhs[r]] for r in core]
    prev = 1
    pivots: list[int] = []
    for t in range(kk):
        cand = [i for i in range(t, kk) if M[i][t]]
        if not cand:
            return None
        piv_i = min(cand, key=lambda i: (abs(M[i][t]).bit_length(), sum(1 for z in M[i] if z)))
        if piv_i != t:
            M[t], M[piv_i] = M[piv_i], M[t]
        row_t = M[t]
        piv = row_t[t]
        for i in range(t + 1, kk):
            row_i = M[i]
            mult = row_i[t]
            if mult:
                for j in range(t + 1, kk + 1):
                    q, rem = divmod(piv * row_i[j] - mult * row_t[j], prev)
                    if rem:
                        raise ArithmeticError("inexact Bareiss step")
                    row_i[j] = q
                row_i[t] = 0
            else:
                for j in range(t + 1, kk + 1):
                    if row_i[j]:
                        q, rem = divmod(piv * row_i[j], prev)
                        if rem:
                            raise ArithmeticError("inexact Bareiss step")
                        row_i[j] = q
        pivots.append(piv)
        prev = piv

    den = pivots[-1] if pivots else 1
    nums = [0] * k
    for t in range(kk - 1, -1, -1):
        acc = M[t][kk] * den
        for j in range(t + 1, kk):
            if M[t][j]:
                acc -= M[t][j] * nums[core[j]]
        q, rem = divmod(acc, pivots[t])
        if rem:
            raise ArithmeticError("inexact back substitution")
        nums[core[t]] = q
    for r in reversed(unit_pivots):
        acc = rhs[r] * den
        for c, v in rows[r].items():
            if c != r:
                acc -= v * nums[c]
        nums[r] = acc
    return nums, den


def _certified(
    rows: list[dict[int, IntPoly]], rhs: list[IntPoly], nums: list[IntPoly], den: IntPoly
) -> bool:
    """Whether A nums = rhs den holds in Z[x], decided at one point 2^k.

    A coefficient of a product a b is at most ||a||_1 max|b|, so with B
    the largest sum over the rows of the two sides' bounds, the
    difference of the two sides has coefficients of magnitude <= B.  A
    nonzero integer polynomial has no root beyond 1 + B (Cauchy), so
    equality at 2^k > 1 + B is equality of the polynomials.  The entries
    of A are sparse, so each term of a row is a shifted small multiple.
    """
    top = [max(max(p), -min(p)) if p else 0 for p in nums]
    den_top = max(max(den), -min(den))
    den_l1 = sum(map(abs, den))
    bound = 0
    for row, r in zip(rows, rhs):
        b = sum(sum(map(abs, p)) * top[c] for c, p in row.items())
        if r:
            b += min(sum(map(abs, r)) * den_top, max(max(r), -min(r)) * den_l1)
        bound = max(bound, b)
    nb = (bound.bit_length() + 10) // 8
    k = 8 * nb
    vals = [_value(p, nb) for p in nums]
    dv = _value(den, nb)
    for row, r in zip(rows, rhs):
        acc = 0
        for c, p in row.items():
            v = vals[c]
            for d, coef in enumerate(p):
                if coef:
                    acc += (coef * v) << (k * d)
        if acc != _value(r, nb) * dv:
            return False
    return True


def _solve_sparse_int(
    rows: list[dict[int, IntPoly]], rhs: list[IntPoly]
) -> tuple[list[IntPoly], IntPoly]:
    """Solve a square integer-polynomial system A y = rhs by one packed solve.

    ``rows[i]`` maps column index to a nonzero integer polynomial; neither
    ``rows`` nor ``rhs`` is changed.  Returns ``(nums, den)``, den
    nonzero, such that A nums = rhs den in Z[x], so the solution is
    y_i = nums[i] / den.  Raises SingularBlockError when A is singular.

    The block and its right-hand sides are evaluated once at X = 2^k
    (Kronecker substitution; von zur Gathen & Gerhard, *Modern Computer
    Algebra*, section 8.4), and the integer system is solved exactly by
    _eliminate: Markowitz unit-pivot substitution, one-step Bareiss on
    the dense core and back substitution.  Evaluation at X is a ring map,
    so when every coefficient of the polynomial solution fits a balanced
    k-bit digit, the balanced base-2^k digits of the integers are that
    solution.  Fitting is not assumed: the digits are returned only when
    _certified proves A nums = rhs den, which proves the ratios
    nums[i] / den.  It does not prove den = +-det A (that holds whenever
    the slot held den).  A failed certificate doubles k.

    The first k comes from _first_slot.  A singular A(X) proves A
    singular only when X lies beyond the Cauchy root bound 1 + B of every
    nonzero det A, B = the product of the rows' coefficient 1-norms;
    closer in, X may be a root of det A, and k doubles.
    """
    nb = -(-_first_slot(rows, rhs) // 8)
    det_bits = None
    while True:
        solved = _eliminate(
            [{c: _value(p, nb) for c, p in row.items()} for row in rows],
            [_value(r, nb) for r in rhs],
        )
        if solved is None:
            if det_bits is None:
                bound = 1
                for row in rows:
                    bound *= sum(sum(map(abs, p)) for p in row.values())
                det_bits = bound.bit_length()
            if 8 * nb > det_bits:
                raise SingularBlockError("singular block in exact solve")
        else:
            nums = [_digits(v, nb) for v in solved[0]]
            den = _digits(solved[1], nb)
            if _certified(rows, rhs, nums, den):
                return nums, den
        nb *= 2
