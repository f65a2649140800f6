"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
"""

from math import inf

from bounded_catalan.core_combinatorics import (
    brute_force_count,
    c_kp,
    iter_constrained_avoiders,
)
from bounded_catalan.gf_solver import (
    dp_counts,
    generating_function,
    recurrence,
    recurrence_order_bound,
    solve_system,
)
from bounded_catalan.growth_analysis import (
    component_radius,
    dominant_pole_asymptotics,
    growth_constants,
    spectral_radius_at,
)
from bounded_catalan.polynomial_algebra import (
    ExactPoly,
    real_roots_positive,
    series_coeffs,
)
from bounded_catalan.state_system import build_system, component_matrix, output_accessible
from reference import poly_mat_det

A2_SEQ = [1, 1, 2, 5, 8, 12, 18, 26, 37, 53, 76, 109]
A3_SEQ = [1, 1, 2, 5, 14, 28, 55, 108, 214, 412, 787, 1497, 2841, 5364, 10088]
ORACLE_CAP = 11

TABLE_1 = {
    2: ("1.466", "1.000", "1.466", "1.000"),
    3: ("1.827", "1.691", "1.827", "1.189"),
    4: ("2.100", "2.091", "2.100", "1.380"),
    5: ("2.312", "2.352", "2.352", "1.552"),
    6: ("2.480", "2.536", "2.536", "1.706"),
    7: ("2.615", "2.675", "2.675", "1.841"),
    8: ("2.728", "2.786", "2.786", "1.961"),
    9: ("2.822", "2.876", "2.876", "2.068"),
    10: ("2.902", "2.953", "2.953", "2.164"),
    20: ("3.333", "3.357", "3.357", "2.756"),
    50: ("3.676", "3.682", "3.682", "3.339"),
    100: ("3.817", "3.819", "3.819", "3.614"),
}


def _verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{label}]: {status}{suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"


def identity_minus(mat):
    k = len(mat)
    return [
        [(ExactPoly.one() if i == j else ExactPoly.zero()) - mat[i][j] for j in range(k)]
        for i in range(k)
    ]


def test_criterion_1_golden_sequences():
    ok = True
    for m, golden in ((2, A2_SEQ), (3, A3_SEQ)):
        n_top = len(golden) - 1
        dp = dp_counts(m, n_top).unrestricted()
        ser = [int(c) for c in series_coeffs(generating_function(m), n_top)]
        oracle = [brute_force_count(m, n) for n in range(min(n_top, ORACLE_CAP) + 1)]
        ok = ok and dp == golden and ser == golden
        ok = ok and oracle == golden[: len(oracle)]
    _verdict(1, "golden sequences", ok)


def test_criterion_2_golden_generating_functions():
    g1 = generating_function(1)
    ok = g1.num == ExactPoly([1, 0, 1]) and g1.den == ExactPoly([1, -1])
    g2 = generating_function(2)
    ok = ok and g2.num == ExactPoly([1, -2, 2, 0, -1, 0, -1])
    ok = ok and g2.den == ExactPoly([1, -1]) ** 2 * ExactPoly([1, -1, 0, -1])
    g3 = generating_function(3)
    ok = ok and g3.num == ExactPoly([1, -1, -1, 1, 4, 0, -4, -3, -3, -5, -3, 2, 2])
    ok = ok and g3.den == ExactPoly([1, -2, -1, 1, 1, 2, 2, 2, -4, -2, 1, -2, 0, 1])
    _verdict(2, "golden generating functions", ok)


def test_criterion_3_golden_recurrence():
    rec = recurrence(3)
    ok = rec.order == 13
    ok = ok and [int(c) for c in rec.lag_coeffs] == [2, 1, -1, -1, -2, -2, -2, 4, 2, -1, 2, 0, -1]
    seq = dp_counts(3, rec.valid_from + 50).unrestricted()
    replay = rec.extend(seq[: rec.valid_from], 50)
    ok = ok and replay == seq[rec.valid_from : rec.valid_from + 50]
    _verdict(3, "golden recurrence", ok)


def test_criterion_4_component_determinants():
    sys2, sys3 = build_system(2), build_system(3)
    comps2 = {c.tag: c for c in sys2.sccs if c.cyclic}
    comps3 = {c.tag: c for c in sys3.sccs if c.cyclic}
    det_u2 = poly_mat_det(identity_minus(component_matrix(sys2, comps2["U"])))
    det_v3 = poly_mat_det(identity_minus(component_matrix(sys3, comps3["V"])))
    det_u3 = poly_mat_det(identity_minus(component_matrix(sys3, comps3["U"])))
    ok = det_u2 == ExactPoly([1, -1, 0, -1])
    ok = ok and det_v3 == ExactPoly([1, 0, -1, -2, -1, -1, -1])
    ok = ok and det_u3 == ExactPoly([1, 1]) * ExactPoly([1, -2, 1, -1, -1, 1])
    _verdict(4, "component determinants", ok)


def test_criterion_5_structure_m_2_to_30():
    ok = True
    for m in range(2, 31):
        sys_m = build_system(m)
        cyclic = {c.tag: c for c in sys_m.sccs if c.cyclic}
        ok = ok and set(cyclic) == {"U", "V", "I"}
        ok = ok and len(cyclic["U"].members) == m
        ok = ok and len(cyclic["V"].members) == (m - 1) * (m + 2) // 2
        ok = ok and all(
            len(c.members) == 1 and c.tag == "acyclic_singleton"
            for c in sys_m.sccs
            if not c.cyclic
        )
        ok = ok and cyclic["U"].weighted_period == 1
        ok = ok and cyclic["V"].weighted_period == (2 if m == 2 else 1)
        ok = ok and all(output_accessible(sys_m, cyclic[t]) for t in ("U", "V", "I"))
        if not ok:
            break
    _verdict(5, "component structure m=2..30", ok)


def test_criterion_6_table_reproduction():
    ok = True
    bad = ""
    for m, (lu, lv, alpha, lb) in TABLE_1.items():
        report = growth_constants(m)
        got = (
            f"{report.lambda_U:.3f}",
            f"{report.lambda_V:.3f}",
            f"{report.alpha:.3f}",
            f"{report.lower_bound:.3f}",
        )
        if got != (lu, lv, alpha, lb):
            ok = False
            bad = f"m={m}: got {got}, want {(lu, lv, alpha, lb)}"
            break
    _verdict(6, "growth-rate table m=2..10,20,50,100", ok, bad)


def test_criterion_7_asymptotics():
    p2 = dominant_pole_asymptotics(2)
    p3 = dominant_pole_asymptotics(3)
    ok = abs(p2.rho - 0.682) < 0.001 and abs(p2.kappa - 1.51) < 0.01
    ok = ok and abs(p3.rho - 0.547) < 0.001 and abs(p3.kappa - 2.99) < 0.01
    ok = ok and p2.pole_simple is True and p3.pole_simple is True
    for m, pole in ((2, p2), (3, p3)):
        a60 = dp_counts(m, 60).unrestricted()[60]
        ratio = a60 / (pole.kappa * (1.0 / pole.rho) ** 60)
        ok = ok and 0.99 <= ratio <= 1.01
    _verdict(7, "dominant-pole asymptotics", ok)


def test_criterion_8_property_suite():
    ok = True
    detail = ""

    # three-way count agreement for m <= 5, n <= 10, all threshold pairs
    for m in range(1, 6):
        table = dp_counts(m, 10)
        sys_m = build_system(m)
        series = {s: series_coeffs(f, 10) for s, f in solve_system(sys_m).items()}
        for n in range(1, 11):
            defs = [(n - p[0], n - p[-1]) for p in iter_constrained_avoiders(n, m)]
            for p in list(range(m)) + [inf]:
                for q in list(range(m)) + [inf]:
                    brute = sum(1 for d1, d2 in defs if d1 <= p and d2 <= q)
                    if table.values[(p, q)][n] != brute or series[(p, q)][n] != brute:
                        ok, detail = False, f"three-way mismatch m={m} n={n} ({p},{q})"

    # count recursion vs series coefficients, m <= 8, n <= 200
    if ok:
        for m in range(1, 9):
            seq = dp_counts(m, 200).unrestricted()
            ser = series_coeffs(generating_function(m), 200)
            if [int(c) for c in ser] != seq or any(c.denominator != 1 for c in ser):
                ok, detail = False, f"dp/series mismatch m={m}"

    # first-entry coefficients against direct enumeration, k <= 9
    if ok:
        for k in range(1, 10):
            avoiders = list(iter_constrained_avoiders(k - 1, None))
            for p in list(range(k + 1)) + [inf]:
                direct = (
                    1
                    if k == 1
                    else sum(1 for s in avoiders if p == inf or k - s[0] <= p)
                )
                if c_kp(k, p) != direct:
                    ok, detail = False, f"c_kp mismatch k={k} p={p}"

    # strict monotonicity of the component spectral radius in x
    if ok:
        for m in (2, 3, 4):
            for tag in "UVI":
                values = [spectral_radius_at(m, tag, x) for x in (0.05, 0.25, 0.5, 0.9)]
                if any(a >= b + 1e-12 for a, b in zip(values, values[1:])):
                    ok, detail = False, f"spectral radius not increasing m={m}"

    # bisection radius vs determinant root for U_m, m <= 6
    if ok:
        tol = 1e-10
        for m in range(2, 7):
            sys_m = build_system(m)
            comp = next(c for c in sys_m.sccs if c.tag == "U")
            lo, hi = component_radius(m, "U", tol)
            det = poly_mat_det(identity_minus(component_matrix(sys_m, comp)))
            root = real_roots_positive(det, (0, 1), tol)[0]
            if abs(root - 0.5 * (lo + hi)) > 2 * tol:
                ok, detail = False, f"radius/root mismatch m={m}"

    # reduced denominator degree within the order bound, m <= 8
    if ok:
        for m in range(2, 9):
            if generating_function(m).den.degree > recurrence_order_bound(m):
                ok, detail = False, f"denominator degree exceeds bound m={m}"

    # alpha monotone in m and inside [lower bound, 4), m <= 50
    if ok:
        tol = 1e-10
        previous = None
        for m in range(2, 51):
            report = growth_constants(m)
            if not (report.lower_bound <= report.alpha < 4.0):
                ok, detail = False, f"alpha outside bounds m={m}"
                break
            if previous is not None and not previous <= report.alpha + 2 * tol:
                ok, detail = False, f"alpha not monotone at m={m}"
                break
            previous = report.alpha

    _verdict(8, "property suite", ok, detail)
