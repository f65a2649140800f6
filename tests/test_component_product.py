"""The build-free component product against W's stored entries, the
paper's component structure against Tarjan, and a growth path that never
builds W."""

import sys

import numpy as np
import pytest

from bounded_catalan import cli, state_system
from bounded_catalan.growth_analysis import growth_constants
from bounded_catalan.state_system import build_system, component_product, cyclic_members

TABLE_M = list(range(2, 11)) + [20, 50, 100]
XS = (0.26, 0.5, 0.9, 1.0)


def reference_product(m, members, x, v):
    """W_C(x) v summed entry by entry from build_system(m)'s pred_* arrays
    and exact coefficients."""
    sys_m = build_system(m)
    local = {int(s): i for i, s in enumerate(members)}
    out = np.zeros(len(members))
    for i, t in enumerate(members):
        for j in range(sys_m.pred_ptr[t], sys_m.pred_ptr[t + 1]):
            src = local.get(int(sys_m.pred_src[j]))
            if src is not None:
                coeff = float(sys_m.coeffs[sys_m.pred_cidx[j]])
                out[i] += coeff * x ** int(sys_m.pred_deg[j]) * v[src]
    return out


def max_relative_error(got, want):
    assert np.all(want > 0)  # every member of a cyclic component has an entry inside it
    return float(np.max(np.abs(got - want) / want))


@pytest.mark.parametrize("m", range(2, 31))
def test_product_matches_stored_entries(m):
    rng = np.random.default_rng(m)
    for tag, members in cyclic_members(m).items():
        cp = component_product(m, tag)
        assert cp.n == len(members)
        v = rng.uniform(0.1, 1.0, cp.n)
        for x in XS:
            got = cp.at(x)(v)
            assert max_relative_error(got, reference_product(m, members, x, v)) <= 1e-13, (
                tag,
                x,
            )


def test_product_matches_stored_entries_hypothesis():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        m = data.draw(st.integers(2, 12), label="m")
        tag = data.draw(st.sampled_from("UVI"), label="tag")
        x = data.draw(st.floats(0.25, 1.0), label="x")
        members = cyclic_members(m)[tag]
        v = np.array(
            data.draw(
                st.lists(
                    st.floats(1e-3, 1e3), min_size=len(members), max_size=len(members)
                ),
                label="v",
            )
        )
        got = component_product(m, tag).at(x)(v)
        assert max_relative_error(got, reference_product(m, members, x, v)) <= 1e-13

    check()


# The product has tail terms only for the targets of U, V and I, so it is
# keyed by tag and takes no set of states, the members of V included.
@pytest.mark.parametrize(
    "m, tag",
    [
        (5, "W"),
        (5, "acyclic_singleton"),
        (5, None),
        (5, "u"),
        (1, "U"),
        (0, "V"),
        (5, cyclic_members(5)["V"]),
        (5, [8, 13]),
    ],
)
def test_product_rejects_a_bad_tag_or_m(m, tag):
    with pytest.raises(ValueError):
        component_product(m, tag)


@pytest.mark.parametrize("m", range(2, 31))
def test_cyclic_members_match_tarjan(m):
    sys_m = build_system(m)
    tagged = {c.tag: c.members for c in sys_m.sccs if c.cyclic}
    members = cyclic_members(m)
    assert sorted(members) == sorted(tagged) == ["I", "U", "V"]
    for tag, want in tagged.items():
        assert members[tag].tolist() == [sys_m.index[s] for s in want], tag
    with pytest.raises(ValueError):
        cyclic_members(1)


def test_growth_path_never_builds_the_system(monkeypatch, capsys):
    def refuse(m):
        raise AssertionError(f"build_system({m}) was called")

    # every binding, by-name imports and the package re-export included
    real = state_system.build_system
    for name, module in list(sys.modules.items()):
        if name == "bounded_catalan" or name.startswith("bounded_catalan."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, refuse)
    growth_constants.cache_clear()
    for m in TABLE_M:
        report = growth_constants(m)
        assert report.lower_bound <= report.alpha < 4.0
    growth_constants.cache_clear()
    assert cli.main(["table", "--m-list", "2-10,20,50,100"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "100,3.817,3.819,3.819,3.614"
    growth_constants.cache_clear()
    assert cli.main(["growth", "--m", "20", "--pole", "off"]) == 0
    assert "alpha = 3.356796" in capsys.readouterr().out
