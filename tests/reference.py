"""Slow reference implementations that only the tests read.

``solve_sparse_list`` is the fraction-free elimination of polynomial
matrices on coefficient lists that the packed solve replaced, and
``poly_mat_det`` the determinant it gives; the packed solver and the
state-system determinants are checked against them.
``gcd_degree_mod_p_list`` is Euclid over GF(P) on residue lists, the
loop that the numpy kernel of the coprimality certificate replaced.
"""

from bounded_catalan.polynomial_algebra import (
    _P,
    ExactPoly,
    SingularBlockError,
    _divexact_i,
    _mul_i,
    _scale_i,
    _sub_i,
)


def solve_sparse_list(rows, rhs):
    """Bareiss (fraction-free) elimination of a square integer-polynomial matrix.

    ``rows[i]`` maps column index to a nonzero integer polynomial; the
    structures are consumed.  Returns ``(nums, den, det)`` such that the
    solution of A x = rhs is x_i = nums[i] / den with den = +-det(A).
    Raises SingularBlockError when A is singular.

    While some active diagonal entry is the constant 1, that row is
    eliminated by plain substitution, choosing the cheapest pivot by
    Markowitz count.  The remaining dense core is processed by one-step
    Bareiss elimination (divisions by the previous pivot are exact), and
    the solution is recovered by fraction-free back substitution over the
    core determinant.
    """
    k = len(rows)
    col_rows = [set() for _ in range(k)]
    for i, row in enumerate(rows):
        for c in row:
            col_rows[c].add(i)
    active = set(range(k))
    unit_pivots = []
    while True:
        best = None
        for r in active:
            if rows[r].get(r) == [1]:
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
            f = rows[i].pop(r)
            col_rows[r].discard(i)
            for c, poly in pivot_row.items():
                if c == r:
                    continue
                cur = _sub_i(rows[i].get(c, []), _mul_i(f, poly))
                if cur:
                    rows[i][c] = cur
                    col_rows[c].add(i)
                else:
                    rows[i].pop(c, None)
                    col_rows[c].discard(i)
            rhs[i] = _sub_i(rhs[i], _mul_i(f, rhs[r]))
        active.discard(r)
        unit_pivots.append(r)

    core = sorted(active)
    kk = len(core)
    M = [[rows[r].get(c, []) for c in core] + [rhs[r]] for r in core]
    sign = 1
    prev = [1]
    pivots = []
    for t in range(kk):
        cand = [i for i in range(t, kk) if M[i][t]]
        if not cand:
            raise SingularBlockError("singular block in exact solve")
        piv_i = min(cand, key=lambda i: (len(M[i][t]), sum(1 for z in M[i] if z)))
        if piv_i != t:
            M[t], M[piv_i] = M[piv_i], M[t]
            sign = -sign
        piv = M[t][t]
        for i in range(t + 1, kk):
            mult = M[i][t]
            row_i, row_t = M[i], M[t]
            if mult:
                for j in range(t + 1, kk + 1):
                    row_i[j] = _divexact_i(
                        _sub_i(_mul_i(piv, row_i[j]), _mul_i(mult, row_t[j])), prev
                    )
                row_i[t] = []
            else:
                for j in range(t + 1, kk + 1):
                    if row_i[j]:
                        row_i[j] = _divexact_i(_mul_i(piv, row_i[j]), prev)
        pivots.append(piv)
        prev = piv

    det_core = pivots[-1] if pivots else [1]
    nums = [None] * k
    core_sol = [[] for _ in range(kk)]
    for t in range(kk - 1, -1, -1):
        acc = _mul_i(M[t][kk], det_core)
        for j in range(t + 1, kk):
            if M[t][j] and core_sol[j]:
                acc = _sub_i(acc, _mul_i(M[t][j], core_sol[j]))
        core_sol[t] = _divexact_i(acc, pivots[t])
    for t, c in enumerate(core):
        nums[c] = core_sol[t]
    for r in reversed(unit_pivots):
        acc = _mul_i(rhs[r], det_core)
        for c, poly in rows[r].items():
            if c != r and nums[c]:
                acc = _sub_i(acc, _mul_i(poly, nums[c]))
        nums[r] = acc
    return nums, det_core, _scale_i(det_core, sign)


def poly_mat_det(mat):
    """Determinant of a square ExactPoly matrix by fraction-free elimination:
    the solve of A x = 0, whose singular case is the zero determinant."""
    k = len(mat)
    if any(len(row) != k for row in mat):
        raise ValueError("matrix must be square")
    rows = [{j: list(e.coeffs) for j, e in enumerate(row) if not e.is_zero()} for row in mat]
    try:
        _, _, det = solve_sparse_list(rows, [[] for _ in range(k)])
    except SingularBlockError:
        return ExactPoly.zero()
    return ExactPoly(det)


def gcd_degree_mod_p_list(a, b):
    """Degree of gcd(a mod P, b mod P) over GF(P), P = 2^31 - 1, by Euclid
    on residue lists; P must divide neither leading coefficient."""
    a = [c % _P for c in a]
    b = [c % _P for c in b]
    if len(a) < len(b):
        a, b = b, a
    while b:
        db = len(b) - 1
        inv = pow(b[-1], -1, _P)
        body = b[:-1]
        for i in range(len(a) - 1, db - 1, -1):
            q = a.pop() * inv % _P
            if q:
                off = i - db
                a[off:i] = [(x - q * y) % _P for x, y in zip(a[off:i], body)]
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    return len(a) - 1
