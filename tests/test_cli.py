"""CLI behavior: outputs, formats, exit codes, round-trips."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from bounded_catalan import cli, gf_solver, growth_analysis, state_system
from bounded_catalan.core_combinatorics import MAX_ORACLE_CAP
from bounded_catalan.gf_solver import MAX_GF_M
from bounded_catalan.state_system import MAX_GRAPH_M


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_all_agrees(capsys):
    code, out, _ = run(capsys, ["enumerate", "--m", "2", "--n", "11"])
    assert code == 0
    assert "1, 1, 2, 5, 8, 12, 18, 26, 37, 53, 76, 109" in out
    assert out.strip().endswith("AGREE")


def test_enumerate_m1(capsys):
    code, out, _ = run(capsys, ["enumerate", "--m", "1", "--n", "5", "--method", "dp"])
    assert code == 0
    assert "1, 1, 2, 2, 2, 2" in out


def test_enumerate_dp_m3(capsys):
    code, out, _ = run(
        capsys, ["enumerate", "--m", "3", "--n", "14", "--method", "dp", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines()[0] == "n,dp"
    assert out.splitlines()[-1] == "14,10088"


def test_enumerate_oracle_cap_violation(capsys):
    code, _, err = run(capsys, ["enumerate", "--m", "2", "--n", "20", "--method", "oracle"])
    assert code == 2
    assert "oracle" in err


def test_enumerate_oracle_column_truncated_beyond_cap(capsys):
    code, out, _ = run(
        capsys, ["enumerate", "--m", "2", "--n", "13", "--format", "plain"]
    )
    assert code == 0
    oracle_line = next(line for line in out.splitlines() if line.startswith(" oracle"))
    assert oracle_line.rstrip().endswith("-, -")
    assert "AGREE" in out


def test_enumerate_disagree_exit_code(capsys, monkeypatch):
    class Corrupt:
        def unrestricted(self):
            return [1, 1, 3, 3, 3, 3, 3]

    monkeypatch.setattr(cli, "dp_counts", lambda m, n, states: Corrupt())
    code, out, err = run(capsys, ["enumerate", "--m", "2", "--n", "5"])
    assert code == 3
    assert "DISAGREE" in out
    assert "disagree" in err


def test_gf_plain_golden(capsys):
    code, out, _ = run(capsys, ["gf", "--m", "2"])
    assert code == 0
    assert (
        out.strip()
        == "(1 - 2*x + 2*x^2 - x^4 - x^6) / (1 - 3*x + 3*x^2 - 2*x^3 + 2*x^4 - x^5)"
    )


def test_gf_json_round_trip(capsys):
    code, out, _ = run(capsys, ["gf", "--m", "3", "--format", "json"])
    assert code == 0
    line = out.strip()
    payload = json.loads(line)
    assert json.dumps(payload, sort_keys=True) == line
    assert payload["m"] == 3
    assert payload["recurrence"]["order"] == 13
    assert payload["recurrence"]["coeffs"][0] == "2"
    assert payload["bound_d_m"] == 25
    assert payload["den"][0] == "1"


def test_recurrence_plain(capsys):
    code, out, _ = run(capsys, ["recurrence", "--m", "1"])
    assert code == 0
    assert out.strip() == "a(n) = a(n-1)   for n >= 3   (order 1)"


def test_growth_json_round_trip(capsys):
    code, out, _ = run(capsys, ["growth", "--m", "2", "--format", "json"])
    assert code == 0
    line = out.strip()
    payload = json.loads(line)
    assert json.dumps(payload, sort_keys=True) == line
    assert round(payload["alpha"], 3) == 1.466
    assert payload["pole_simple"] is True
    assert payload["dominant_component"] == "U"


def test_growth_pole_off(capsys):
    code, out, _ = run(capsys, ["growth", "--m", "2", "--pole", "off", "--format", "json"])
    assert code == 0
    assert json.loads(out)["kappa"] is None


def test_growth_m1_plain(capsys):
    code, out, _ = run(capsys, ["growth", "--m", "1"])
    assert code == 0
    assert "alpha = 1.000000" in out
    assert "lambda_U" not in out  # no component rates in the degenerate case


def test_enumerate_rejects_negative_n(capsys):
    code, _, err = run(capsys, ["enumerate", "--m", "2", "--n", "-1"])
    assert code == 2
    assert ">= 0" in err


@pytest.mark.parametrize("method", ("all", "oracle"))
def test_enumerate_rejects_negative_oracle_cap(capsys, monkeypatch, method):
    def no_work(*args, **kwargs):
        raise AssertionError("counting started for a rejected --oracle-cap")

    for name in ("brute_force_count", "dp_counts", "generating_function"):
        monkeypatch.setattr(cli, name, no_work)
    argv = ["enumerate", "--m", "2", "--n", "5", "--method", method, "--oracle-cap", "-1"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "--oracle-cap must be >= 0" in err


@pytest.mark.parametrize("method", ("all", "oracle"))
def test_enumerate_rejects_oracle_cap_above_ceiling(capsys, monkeypatch, method):
    def no_work(*args, **kwargs):
        raise AssertionError("counting started for a rejected --oracle-cap")

    for name in ("brute_force_count", "dp_counts", "generating_function"):
        monkeypatch.setattr(cli, name, no_work)
    cap = str(MAX_ORACLE_CAP + 1)
    argv = ["enumerate", "--m", "2", "--n", "5", "--method", method, "--oracle-cap", cap]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"--oracle-cap must be <= {MAX_ORACLE_CAP}" in err


@pytest.mark.parametrize(
    "argv",
    (
        ["gf"],
        ["gf", "--format", "json"],
        ["recurrence"],
        ["growth", "--pole", "on"],
        ["enumerate", "--n", "5", "--method", "series"],
        ["enumerate", "--n", "5", "--method", "all"],
    ),
)
def test_exact_route_rejects_m_above_ceiling(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("counting or solving started above MAX_GF_M")

    for module, name in (
        (gf_solver, "build_system"),
        (gf_solver, "_solve_states"),
        (gf_solver, "dp_counts"),
        (growth_analysis, "growth_constants"),
        (cli, "brute_force_count"),
        (cli, "dp_counts"),
        (cli, "full_growth_report"),
    ):
        monkeypatch.setattr(module, name, no_work)
    gf_solver.generating_function.cache_clear()
    code, out, err = run(capsys, [argv[0], "--m", str(MAX_GF_M + 1), *argv[1:]])
    assert code == 2
    assert out == ""
    assert f"MAX_GF_M={MAX_GF_M}" in err


def test_growth_without_pole_is_not_limited_by_the_gf_ceiling(capsys):
    for pole in ("auto", "off"):
        code, out, _ = run(capsys, ["growth", "--m", str(MAX_GF_M + 1), "--pole", pole])
        assert code == 0
        assert "kappa" not in out and "alpha" in out


def test_graph_dot(capsys):
    code, out, _ = run(capsys, ["graph", "--m", "2"])
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("style=dashed") == 3
    assert out.count("->") == 14  # the 14 edges of the m=2 dependency graph
    assert 'label="k=2"' in out


def test_graph_plain(capsys):
    code, out, _ = run(capsys, ["graph", "--m", "3", "--format", "plain"])
    assert code == 0
    assert "V:" in out and "U:" in out and "I:" in out
    assert "weighted_period=1" in out


def test_graph_rejects_m_above_ceiling(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("W was assembled above MAX_GRAPH_M")

    monkeypatch.setattr(state_system, "c_kp_table", no_work)
    for fmt in ("dot", "plain"):
        code, out, err = run(capsys, ["graph", "--m", str(MAX_GRAPH_M + 1), "--format", fmt])
        assert code == 2
        assert out == ""
        assert f"MAX_GRAPH_M={MAX_GRAPH_M}" in err


def test_table_csv(capsys):
    code, out, _ = run(capsys, ["table", "--m-list", "2-3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,lambda_U,lambda_V,alpha,lower_bound"
    assert lines[1] == "2,1.466,1.000,1.466,1.000"
    assert lines[2] == "3,1.827,1.691,1.827,1.189"


def test_table_json(capsys):
    code, out, _ = run(capsys, ["table", "--m-list", "1,2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["m"] == 1 and payload[0]["alpha"] == 1.0
    assert payload[1]["m"] == 2


def test_table_runs_in_order_on_calling_thread(capsys, monkeypatch):
    calls = []
    real = cli.growth_constants

    def recording(m, tol):
        calls.append((m, threading.current_thread()))
        return real(m, tol)

    monkeypatch.setattr(cli, "growth_constants", recording)
    code, out, _ = run(capsys, ["table", "--m-list", "3,2,3"])
    assert code == 0
    assert calls == [(m, threading.main_thread()) for m in (3, 2, 3)]
    rows = out.strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["3", "2", "3"]
    assert rows[0] == rows[2] == "3,1.827,1.691,1.827,1.189"


def no_build(m, *args):
    raise AssertionError(f"the system or a product of m = {m} built for a rejected tol")


def refuse_builds(monkeypatch):
    for module in (state_system, gf_solver, cli):
        monkeypatch.setattr(module, "build_system", no_build)
    monkeypatch.setattr(growth_analysis, "component_product", no_build)


@pytest.mark.parametrize("tol", ("0", "1e-16", "nan"))
def test_growth_rejects_tol_below_float_spacing(capsys, monkeypatch, tol):
    # bisection cannot narrow a bracket below ulp(1.0): such a tol is never met
    refuse_builds(monkeypatch)
    code, out, err = run(capsys, ["growth", "--m", "3", "--pole", "off", "--tol", tol])
    assert code == 2
    assert out == ""
    assert "tol" in err


def test_table_rejects_zero_tol(capsys, monkeypatch):
    refuse_builds(monkeypatch)
    code, out, err = run(capsys, ["table", "--m-list", "2-3", "--tol", "0"])
    assert code == 2
    assert out == ""
    assert "tol" in err


def test_table_bad_m_list(capsys):
    code, _, err = run(capsys, ["table", "--m-list", "2-x"])
    assert code == 2
    assert "m-list" in err
    code, _, _ = run(capsys, ["table", "--m-list", "5-2"])
    assert code == 2


def test_parse_m_list():
    assert cli.parse_m_list("2-10,20,50,100") == list(range(2, 11)) + [20, 50, 100]
    assert cli.parse_m_list("7") == [7]
    with pytest.raises(cli.ValidationError):
        cli.parse_m_list("0")
    with pytest.raises(cli.ValidationError):
        cli.parse_m_list("")


def test_commands_never_import_scipy():
    # a fresh interpreter: scipy in this process may come from other tests
    script = """
import contextlib, io, sys
from bounded_catalan import cli
for argv in [
    ["gf", "--m", "5"],
    ["graph", "--m", "4", "--format", "dot"],
    ["growth", "--m", "5", "--pole", "on"],
    ["table", "--m-list", "2-4"],
    ["enumerate", "--m", "3", "--n", "8", "--method", "all"],
]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
