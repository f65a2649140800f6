"""Byte-level goldens for the exact route.

``exact_goldens.json`` holds the sha256 of the stdout of ``gf`` and
``recurrence`` (``--format json``) for m = 2..12 and of ``growth --pole on
--format json`` for m = 2..10, together with ``float.hex`` of every root
that ``real_roots_positive`` reports for the reduced denominator on
(0, 2], m = 2..12.  They were recorded with the coefficient-loop kernels
(schoolbook product, long division, Horner Descartes test), so they pin
the packed kernels to the same generating functions, recurrences, poles
and root brackets, bit for bit.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bounded_catalan import cli
from bounded_catalan.gf_solver import generating_function
from bounded_catalan.polynomial_algebra import real_roots_positive

GOLDENS = json.loads((Path(__file__).parent / "exact_goldens.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDENS["commands"]))
def test_cli_output_digest(capsys, command):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDENS["commands"][command]


@pytest.mark.parametrize("m", sorted(GOLDENS["roots"], key=int))
def test_denominator_roots_bit_identical(m):
    roots = real_roots_positive(generating_function(int(m)).den, (0, 2))
    assert [r.hex() for r in roots] == GOLDENS["roots"][m]
