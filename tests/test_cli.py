"""CLI behavior: outputs, formats, exit codes, round-trips."""

import json
import threading

import pytest

from bounded_catalan import cli


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

    monkeypatch.setattr(cli, "dp_counts", lambda m, n: Corrupt())
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
