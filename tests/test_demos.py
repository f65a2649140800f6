"""Every demo script runs to the end, prints its heading and then exactly
the stdout recorded in demo_goldens.json; demo 03's DOT file is what
``graph --m 3`` prints."""

import json
import runpy
import shutil
from pathlib import Path

import pytest

from bounded_catalan import cli

DEMOS = Path(__file__).resolve().parents[1] / "demos"
DEMO_GOLDENS = json.loads(Path(__file__).with_name("demo_goldens.json").read_text())

FIRST_LINES = {
    "01_sequences.py": "gap bound m = 3, lengths 0..11",
    "02_generating_functions.py": "m = 1",
    "03_state_graph.py": "m = 3: 16 states, 33 edges",
    "04_growth_table.py": "   m  lambda_U  lambda_V   alpha   lower  dominant",
    "05_asymptotics.py": "m = 2: rho = 0.682327804, alpha = 1.465571",
}


def run_demo(name, tmp_path, capsys):
    """The stdout of demo ``name``, run from a copy so that files a demo
    writes next to itself land in tmp_path."""
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    runpy.run_path(str(script), run_name="__main__")
    return capsys.readouterr().out


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(FIRST_LINES)


def test_every_demo_has_recorded_stdout():
    assert sorted(DEMO_GOLDENS) == sorted(FIRST_LINES)


@pytest.mark.parametrize("name", sorted(FIRST_LINES))
def test_demo_runs(name, tmp_path, capsys):
    # Run a copy so files a demo writes next to itself land in tmp_path.
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.splitlines()[0] == FIRST_LINES[name]


@pytest.mark.parametrize("name", sorted(DEMO_GOLDENS))
def test_demo_stdout_is_byte_stable(name, tmp_path, capsys):
    assert run_demo(name, tmp_path, capsys) == DEMO_GOLDENS[name]


def test_demo_dot_file_is_graph_output(tmp_path, capsys):
    run_demo("03_state_graph.py", tmp_path, capsys)
    assert cli.main(["graph", "--m", "3"]) == 0
    assert (tmp_path / "dependency_m3.dot").read_text() == capsys.readouterr().out
