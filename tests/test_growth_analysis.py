"""Perron radii, growth constants, dominant-pole asymptotics."""

import sys

import pytest

from bounded_catalan import growth_analysis, state_system
from bounded_catalan.gf_solver import dp_counts, generating_function
from bounded_catalan.growth_analysis import (
    catalan_lower_bound,
    component_radius,
    dominant_pole_asymptotics,
    full_growth_report,
    growth_constants,
    nth_root_estimate,
    spectral_radius_at,
)
from bounded_catalan.polynomial_algebra import ExactPoly, real_roots_positive
from bounded_catalan.state_system import MAX_GRAPH_M, build_system, component_matrix
from reference import poly_mat_det


def test_spectral_radius_trivia():
    assert spectral_radius_at(2, "I", 1.0) == pytest.approx(1.0, abs=1e-12)
    rho2 = 0.6823278038280193
    assert spectral_radius_at(2, "U", rho2) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        spectral_radius_at(2, "U", -1.0)


@pytest.mark.parametrize("m", (2, 3, 4))
def test_spectral_radius_strictly_increasing(m):
    for tag in "UVI":
        values = [spectral_radius_at(m, tag, x) for x in (0.01, 0.1, 0.3, 0.5, 0.9)]
        for a, b in zip(values, values[1:]):
            assert a < b + 1e-12


def test_spectral_radius_raises_when_not_converged(monkeypatch):
    monkeypatch.setattr(growth_analysis, "RADIUS_MAX_STEPS", 1)
    with pytest.raises(RuntimeError, match="bracket"):
        spectral_radius_at(3, "U", 0.5)


@pytest.mark.parametrize(
    "m, tag", [(5, "W"), (5, "acyclic_singleton"), (5, None), (1, "U"), (520, "U"), (520, "V")]
)
def test_radius_api_rejects_unknown_tag_and_m_out_of_range(m, tag):
    with pytest.raises(ValueError):
        component_radius(m, tag)
    with pytest.raises(ValueError):
        spectral_radius_at(m, tag, 0.3)


def test_radius_api_beyond_graph_range_never_builds_w(monkeypatch):
    def refuse(m):
        raise AssertionError(f"build_system({m}) was called")

    # every binding, by-name imports included
    real = state_system.build_system
    for name, module in list(sys.modules.items()):
        if name.startswith("bounded_catalan"):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, refuse)
    m = MAX_GRAPH_M + 1  # W is refused here, and never needed
    report = growth_constants.__wrapped__(m)
    for tag, expected in (("U", report.r_U), ("V", report.r_V)):
        assert [x.hex() for x in component_radius(m, tag)] == [x.hex() for x in expected]
        assert spectral_radius_at(m, tag, 0.25) < 1.0  # below every radius


def test_component_radius_exact_ones():
    for m in (2, 3, 4, 5, 6):
        assert component_radius(m, "I") == (1.0, 1.0)
        lo, hi = component_radius(m, "U")
        assert hi < 1.0  # r_U < 1 always
    assert component_radius(2, "V") == (1.0, 1.0)


@pytest.mark.parametrize("m", range(2, 7))
def test_radius_agrees_with_determinant_root(m):
    """Bisection radius of U_m == smallest positive root of det(I - W_U)."""
    tol = 1e-10
    sys_m = build_system(m)
    lo, hi = component_radius(m, "U", tol)
    mat = component_matrix(sys_m, next(c for c in sys_m.sccs if c.tag == "U"))
    k = len(mat)
    iw = [
        [(ExactPoly.one() if i == j else ExactPoly.zero()) - mat[i][j] for j in range(k)]
        for i in range(k)
    ]
    det = poly_mat_det(iw)
    roots = real_roots_positive(det, (0, 1), tol)
    assert roots
    assert abs(roots[0] - 0.5 * (lo + hi)) <= 2 * tol


# (r_U, r_V) brackets at the default tol over the table's m-list, as
# float.hex, recorded from a search whose probe vectors came from a sparse
# eigensolver.  Every bisection step is decided by a certified bound, so
# the brackets must not depend on the probe vector.
RADIUS_BRACKETS = {
    2: (
        ("0x1.5d5a11e480000p-1", "0x1.5d5a11e540000p-1"),
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ),
    3: (
        ("0x1.1850ac2380000p-1", "0x1.1850ac2440000p-1"),
        ("0x1.2eb51577c0000p-1", "0x1.2eb5157880000p-1"),
    ),
    4: (
        ("0x1.e7835e5100000p-2", "0x1.e7835e5280000p-2"),
        ("0x1.e99b307400000p-2", "0x1.e99b307580000p-2"),
    ),
    5: (
        ("0x1.bae2392600000p-2", "0x1.bae2392780000p-2"),
        ("0x1.b3770df280000p-2", "0x1.b3770df400000p-2"),
    ),
    6: (
        ("0x1.9cf44c9580000p-2", "0x1.9cf44c9700000p-2"),
        ("0x1.93d2cd8600000p-2", "0x1.93d2cd8780000p-2"),
    ),
    7: (
        ("0x1.8785c89f00000p-2", "0x1.8785c8a080000p-2"),
        ("0x1.7ec8f6a900000p-2", "0x1.7ec8f6aa80000p-2"),
    ),
    8: (
        ("0x1.776c8c0f80000p-2", "0x1.776c8c1100000p-2"),
        ("0x1.6f9816c480000p-2", "0x1.6f9816c600000p-2"),
    ),
    9: (
        ("0x1.6ae2a2ec80000p-2", "0x1.6ae2a2ee00000p-2"),
        ("0x1.640026a800000p-2", "0x1.640026a980000p-2"),
    ),
    10: (
        ("0x1.60d6bee500000p-2", "0x1.60d6bee680000p-2"),
        ("0x1.5acd711380000p-2", "0x1.5acd711500000p-2"),
    ),
    20: (
        ("0x1.33319fec00000p-2", "0x1.33319fed80000p-2"),
        ("0x1.310d86cc80000p-2", "0x1.310d86ce00000p-2"),
    ),
    50: (
        ("0x1.1692e16780000p-2", "0x1.1692e16900000p-2"),
        ("0x1.161dbf6100000p-2", "0x1.161dbf6280000p-2"),
    ),
    100: (
        ("0x1.0c3f5dff00000p-2", "0x1.0c3f5e0080000p-2"),
        ("0x1.0c1cf1d780000p-2", "0x1.0c1cf1d900000p-2"),
    ),
}


def test_table_searches_make_at_most_1500_products(monkeypatch):
    """The 24 radius searches of the table's m-list make 1,452 products
    W_C(x) v on W_C(x) + I/4 (1,806 on W_C(x) + I); the count is
    deterministic."""
    real = growth_analysis.component_product
    products = []

    def counting(m, tag):
        cp = real(m, tag)

        def at(x):
            product = cp.at(x)

            def counted(v):
                products.append(m)
                return product(v)

            return counted

        return cp._replace(at=at)

    monkeypatch.setattr(growth_analysis, "component_product", counting)
    for m in RADIUS_BRACKETS:
        growth_constants.__wrapped__(m)  # uncached: the search runs here
    assert sorted(set(products)) == sorted(RADIUS_BRACKETS)
    assert len(products) <= 1500


def test_radius_brackets_pinned_and_every_step_certified(monkeypatch):
    real = growth_analysis._cw_bracket
    decisions = []

    def checked(product, v, tol, stop_above=None, stop_below=None):
        blo, bhi, v = real(product, v, tol, stop_above, stop_below)
        if stop_below is not None:  # a bisection step, not the test at x = 1
            decisions.append(blo > 1.0 or bhi < 1.0)
        return blo, bhi, v

    monkeypatch.setattr(growth_analysis, "_cw_bracket", checked)
    for m, expected in RADIUS_BRACKETS.items():
        brackets = tuple(tuple(x.hex() for x in component_radius(m, tag)) for tag in "UV")
        assert brackets == expected, m
    assert decisions and all(decisions)


# (r_U, r_V) brackets beyond the table, recorded from the search on the
# sparse W built by build_system.
LARGE_RADIUS_BRACKETS = {
    150: (
        ("0x1.0891656e80000p-2", "0x1.0891657000000p-2"),
        ("0x1.0880d15a00000p-2", "0x1.0880d15b80000p-2"),
    ),
    200: (
        ("0x1.06a593ba00000p-2", "0x1.06a593bb80000p-2"),
        ("0x1.069bc0e800000p-2", "0x1.069bc0e980000p-2"),
    ),
}


@pytest.mark.parametrize("m", sorted(LARGE_RADIUS_BRACKETS))
def test_radius_brackets_pinned_beyond_table(m):
    report = growth_constants(m)
    brackets = tuple(tuple(x.hex() for x in r) for r in (report.r_U, report.r_V))
    assert brackets == LARGE_RADIUS_BRACKETS[m]


def test_every_step_certified_at_m300(monkeypatch):
    real = growth_analysis._cw_bracket
    decisions = []

    def checked(product, v, tol, stop_above=None, stop_below=None):
        blo, bhi, v = real(product, v, tol, stop_above, stop_below)
        if stop_below is not None:
            decisions.append(blo > 1.0 or bhi < 1.0)
        return blo, bhi, v

    monkeypatch.setattr(growth_analysis, "_cw_bracket", checked)
    report = growth_constants.__wrapped__(300)  # uncached: the search runs here
    assert decisions and all(decisions)
    assert report.lower_bound <= report.alpha < 4.0
    assert growth_constants(200).alpha <= report.alpha


def test_growth_goldens_small_m():
    r2 = growth_constants(2)
    assert (round(r2.lambda_U, 3), round(r2.lambda_V, 3)) == (1.466, 1.000)
    assert round(r2.alpha, 3) == 1.466
    assert r2.dominant_component == "U"
    assert 0.25 < r2.rho <= 1.0
    r5 = growth_constants(5)
    assert (round(r5.lambda_U, 3), round(r5.lambda_V, 3)) == (2.312, 2.352)
    assert round(r5.alpha, 3) == 2.352
    assert r5.dominant_component == "V"


def test_growth_m1_degenerate():
    r1 = growth_constants(1)
    assert r1.alpha == 1.0
    assert r1.lambda_U is None and r1.lambda_V is None
    assert r1.lower_bound == 1.0


def test_catalan_lower_bound_values():
    assert f"{catalan_lower_bound(2):.3f}" == "1.000"
    assert f"{catalan_lower_bound(10):.3f}" == "2.164"
    assert f"{catalan_lower_bound(50):.3f}" == "3.339"
    # log-domain path must survive Catalan numbers far beyond float range
    assert 3.97 < catalan_lower_bound(3000) < 4.0


def test_dominant_pole_goldens():
    p2 = dominant_pole_asymptotics(2)
    assert abs(p2.rho - 0.682) < 1e-3
    assert p2.pole_simple is True
    assert abs(p2.kappa - 1.51) < 0.01
    assert p2.next_pole_modulus == pytest.approx(1.0, abs=1e-9)
    p3 = dominant_pole_asymptotics(3)
    assert abs(p3.rho - 0.547) < 1e-3
    assert p3.pole_simple is True
    assert abs(p3.kappa - 2.99) < 0.01
    with pytest.raises(ValueError):
        dominant_pole_asymptotics(1)


@pytest.mark.parametrize("m", range(2, 7))
def test_pole_location_matches_component_radius(m):
    # dominant_pole_asymptotics cross-checks rho against min(r_U, r_V)
    # internally and raises on disagreement; run it for the range
    pole = dominant_pole_asymptotics(m)
    report = growth_constants(m)
    assert abs(pole.rho - report.rho) <= 2e-10


@pytest.mark.parametrize("m", (2, 3))
def test_asymptotic_ratio(m):
    pole = dominant_pole_asymptotics(m)
    alpha = 1.0 / pole.rho
    a60 = dp_counts(m, 60).unrestricted()[60]
    ratio = a60 / (pole.kappa * alpha ** 60)
    assert 0.99 <= ratio <= 1.01


@pytest.mark.parametrize("m", range(2, 7))
def test_nth_root_convergence(m):
    estimate = nth_root_estimate(m, 400)
    assert abs(estimate - growth_constants(m).alpha) < 0.02


def test_alpha_monotone_and_bounded_small_range():
    tol = 1e-10
    previous = None
    for m in range(2, 13):
        report = growth_constants(m)
        assert report.lower_bound <= report.alpha < 4.0
        assert 0.25 < report.rho <= 1.0
        if previous is not None:
            assert previous <= report.alpha + 2 * tol
        previous = report.alpha


def test_full_growth_report_merges_pole_data():
    report = full_growth_report(3)
    assert report.pole_simple is True
    assert abs(report.kappa - 2.99) < 0.01
    assert report.rho == dominant_pole_asymptotics(3).rho
    bare = full_growth_report(3, include_pole=False)
    assert bare.kappa is None


# Roots of the reduced denominators in (0, 2], as float.hex: exact sign
# evaluation fixes every bisection bracket, so the reported midpoints must
# not move by one bit.
POLE_DEN_ROOTS = {
    3: [
        "0x1.1850ac23c0000p-1",
        "0x1.2eb5157840000p-1",
        "0x1.0000000000000p+0",
        "0x1.944a9f2920000p+0",
    ],
    5: [
        "0x1.b3770df380000p-2",
        "0x1.bae2392680000p-2",
        "0x1.0000000000000p+0",
        "0x1.1ff84bb820000p+0",
        "0x1.bbe0403de0000p+0",
    ],
    8: [
        "0x1.6f9816c580000p-2",
        "0x1.776c8c1080000p-2",
        "0x1.9c79f48b40000p-1",
        "0x1.0000000000000p+0",
        "0x1.573294ac20000p+0",
        "0x1.a4dcd2a2e0000p+0",
    ],
    9: [
        "0x1.640026a980000p-2",
        "0x1.6ae2a2ec80000p-2",
        "0x1.7c792933c0000p-1",
        "0x1.0000000000000p+0",
        "0x1.4360722a60000p+0",
        "0x1.8901f5fe20000p+0",
        "0x1.d3a6749520000p+0",
    ],
    10: [
        "0x1.5acd711480000p-2",
        "0x1.60d6bee680000p-2",
        "0x1.62d15e3f40000p-1",
        "0x1.0000000000000p+0",
        "0x1.3284676e60000p+0",
        "0x1.737c993ca0000p+0",
        "0x1.b2a3e82a60000p+0",
    ],
    12: [
        "0x1.4d0875e680000p-2",
        "0x1.51baa87480000p-2",
        "0x1.3c9b38ccc0000p-1",
        "0x1.0000000000000p+0",
        "0x1.15b719abe0000p+0",
        "0x1.544c2276a0000p+0",
        "0x1.84f2ddc060000p+0",
        "0x1.bca76200a0000p+0",
    ],
}


@pytest.mark.parametrize("m", sorted(POLE_DEN_ROOTS))
def test_denominator_roots_pinned(m):
    roots = real_roots_positive(generating_function(m).den, (0, 2), 1e-10)
    assert [r.hex() for r in roots] == POLE_DEN_ROOTS[m]
