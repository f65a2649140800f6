"""Perron radii, growth constants, dominant-pole asymptotics."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bounded_catalan.gf_solver import dp_counts, generating_function
from bounded_catalan.growth_analysis import (
    _perron_seed,
    catalan_lower_bound,
    component_radius,
    dominant_pole_asymptotics,
    full_growth_report,
    growth_constants,
    nth_root_estimate,
    spectral_radius_at,
)
from bounded_catalan.polynomial_algebra import ExactPoly, poly_mat_det, real_roots_positive
from bounded_catalan.state_system import build_system, component_matrix


def cyclic_by_tag(sys):
    return {c.tag: c for c in sys.sccs if c.cyclic}


def test_spectral_radius_trivia():
    sys2 = build_system(2)
    comps = cyclic_by_tag(sys2)
    assert spectral_radius_at(sys2, comps["I"], 1.0) == pytest.approx(1.0, abs=1e-12)
    rho2 = 0.6823278038280193
    assert spectral_radius_at(sys2, comps["U"], rho2) == pytest.approx(1.0, abs=1e-8)
    acyclic = next(c for c in sys2.sccs if not c.cyclic)
    with pytest.raises(ValueError):
        spectral_radius_at(sys2, acyclic, 0.5)
    with pytest.raises(ValueError):
        spectral_radius_at(sys2, comps["U"], -1.0)


@pytest.mark.parametrize("m", (2, 3, 4))
def test_spectral_radius_strictly_increasing(m):
    sys_m = build_system(m)
    for comp in sys_m.sccs:
        if not comp.cyclic:
            continue
        values = [
            spectral_radius_at(sys_m, comp, x) for x in (0.01, 0.1, 0.3, 0.5, 0.9)
        ]
        for a, b in zip(values, values[1:]):
            assert a < b + 1e-12


def test_perron_seed_falls_back_only_on_arpack_errors(monkeypatch):
    matrix = sp.csr_matrix(np.ones((16, 16)))
    v0 = np.ones(16)

    def raising(exc):
        def eigs(*args, **kwargs):
            raise exc

        return eigs

    no_convergence = spla.ArpackNoConvergence("no convergence", None, None)
    monkeypatch.setattr(spla, "eigs", raising(no_convergence))
    assert _perron_seed(matrix, v0) is v0
    monkeypatch.setattr(spla, "eigs", raising(TypeError("program fault")))
    with pytest.raises(TypeError):
        _perron_seed(matrix, v0)


def test_component_radius_exact_ones():
    for m in (2, 3, 4, 5, 6):
        sys_m = build_system(m)
        comps = cyclic_by_tag(sys_m)
        assert component_radius(sys_m, comps["I"]) == (1.0, 1.0)
        lo, hi = component_radius(sys_m, comps["U"])
        assert hi < 1.0  # r_U < 1 always
    sys2 = build_system(2)
    assert component_radius(sys2, cyclic_by_tag(sys2)["V"]) == (1.0, 1.0)


@pytest.mark.parametrize("m", range(2, 7))
def test_radius_agrees_with_determinant_root(m):
    """Bisection radius of U_m == smallest positive root of det(I - W_U)."""
    tol = 1e-10
    sys_m = build_system(m)
    comp = cyclic_by_tag(sys_m)["U"]
    lo, hi = component_radius(sys_m, comp, tol)
    mat = component_matrix(sys_m, comp)
    k = len(mat)
    iw = [
        [(ExactPoly.one() if i == j else ExactPoly.zero()) - mat[i][j] for j in range(k)]
        for i in range(k)
    ]
    det = poly_mat_det(iw)
    roots = real_roots_positive(det, (0, 1), tol)
    assert roots
    assert abs(roots[0] - 0.5 * (lo + hi)) <= 2 * tol


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
}


@pytest.mark.parametrize("m", sorted(POLE_DEN_ROOTS))
def test_denominator_roots_pinned(m):
    roots = real_roots_positive(generating_function(m).den, (0, 2), 1e-10)
    assert [r.hex() for r in roots] == POLE_DEN_ROOTS[m]
