"""Smoke test: every demo script runs to the end and prints its heading."""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

FIRST_LINES = {
    "01_sequences.py": "gap bound m = 3, lengths 0..11",
    "02_generating_functions.py": "m = 1",
    "03_state_graph.py": "m = 3: 16 states, 33 edges",
    "04_growth_table.py": "   m  lambda_U  lambda_V   alpha   lower  dominant",
    "05_asymptotics.py": "m = 2: rho = 0.682327804, alpha = 1.465571",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(FIRST_LINES)


@pytest.mark.parametrize("name", sorted(FIRST_LINES))
def test_demo_runs(name, tmp_path, capsys):
    # Run a copy so files a demo writes next to itself land in tmp_path.
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.splitlines()[0] == FIRST_LINES[name]
