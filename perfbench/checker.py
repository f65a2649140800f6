"""Output checks for every benchmark command.

``reference.json`` holds each command's stdout as recorded by
``record.py``.  Exact outputs (``gf`` and ``enumerate``: sequences,
``num``/``den`` strings, recurrence coefficients, ``valid_from``,
``bound_d_m``) must match it byte for byte.  Growth reports mix exact and
floating-point fields; their floats are checked at the precision the
engine states, so a different but correct radius search still passes:

- ``lambda_U``, ``lambda_V``, ``alpha`` and ``lower_bound`` against the
  paper's growth table (``TABLE_1``) at three decimals;
- ``r_U``/``r_V``: a bracket narrower than ``tol`` that overlaps the
  reference bracket;
- ``rho``, ``kappa`` and ``next_pole_modulus`` to 1e-8 relative.

``m``, ``tol``, ``dominant_component`` and ``pole_simple`` are exact.
Keys a report has beyond these are not checked.
"""

from __future__ import annotations

import json
import os

from harness import EXIT_WARM_CACHE, run_command

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# The paper's growth table: m -> (lambda_U, lambda_V, alpha, lower bound).
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
TABLE_FIELDS = ("lambda_U", "lambda_V", "alpha", "lower_bound")
EXACT_FIELDS = ("m", "tol", "dominant_component", "pole_simple")
RELATIVE_FIELDS = ("rho", "kappa", "next_pole_modulus")
RELATIVE_TOL = 1e-8


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_reference() -> dict[str, str]:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_bracket(field: str, got, want, tol: float) -> list[str]:
    if want is None or got is None:
        return [] if got is want else [f"{field}: {got!r} where reference has {want!r}"]
    if not (isinstance(got, list) and len(got) == 2 and all(map(_is_number, got))):
        return [f"{field}: not a bracket: {got!r}"]
    lo, hi = got
    problems = []
    if not (lo <= hi and hi - lo < tol):
        problems.append(f"{field}: bracket {got} is not narrower than tol {tol}")
    if not (lo <= want[1] and want[0] <= hi):
        problems.append(f"{field}: bracket {got} misses reference {want}")
    return problems


def check_report(got, want: dict) -> list[str]:
    """Problems with one growth report against its reference."""
    if not isinstance(got, dict):
        return [f"report is not an object: {got!r}"]
    missing = [k for k in want if k not in got]
    if missing:
        return [f"m={want['m']}: missing fields {missing}"]
    problems = []
    for field in EXACT_FIELDS:
        if json.dumps(got[field]) != json.dumps(want[field]):
            problems.append(f"{field}: {got[field]!r} != {want[field]!r}")
    golden = TABLE_1.get(want["m"])
    for i, field in enumerate(TABLE_FIELDS):
        expected = golden[i] if golden else f"{want[field]:.3f}"
        if not _is_number(got[field]) or f"{got[field]:.3f}" != expected:
            problems.append(
                f"m={want['m']} {field}: {got[field]!r} is not {expected} at 3 decimals"
            )
    for field in ("r_U", "r_V"):
        problems += _check_bracket(f"m={want['m']} {field}", got[field], want[field], want["tol"])
    for field in RELATIVE_FIELDS:
        g, w = got[field], want[field]
        if w is None or g is None:
            if g is not w:
                problems.append(f"m={want['m']} {field}: {g!r} where reference has {w!r}")
        elif not _is_number(g) or abs(g - w) > RELATIVE_TOL * abs(w):
            problems.append(f"m={want['m']} {field}: {g!r} differs from {w!r} beyond 1e-8 relative")
    return problems


def _first_difference(a: str, b: str) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def check(argv: list[str], code: int, stdout: bytes, reference: dict[str, str]) -> list[str]:
    """Problems with one command's result; empty when it is correct."""
    problems = [] if code == 0 else [f"exit code {code}"]
    if code == EXIT_WARM_CACHE:
        problems.append("cold-start guard found a warm cache")
    want = reference.get(command_key(argv))
    if want is None:
        return problems + ["no reference output for this command"]
    try:
        text = stdout.decode("utf-8")
    except UnicodeDecodeError:
        return problems + ["stdout is not UTF-8"]
    if argv[0] in ("gf", "enumerate"):
        if text != want:
            at = _first_difference(text, want)
            problems.append(f"output differs from the reference at byte {at}: {text[at:at + 40]!r}")
        return problems
    try:
        got = json.loads(text)
    except ValueError:
        return problems + [f"stdout is not JSON: {text[:80]!r}"]
    want_obj = json.loads(want)
    if argv[0] == "table":
        if not isinstance(got, list) or len(got) != len(want_obj):
            return problems + ["table has the wrong number of rows"]
        for g, w in zip(got, want_obj):
            problems += check_report(g, w)
    else:
        problems += check_report(got, want_obj)
    return problems


def _flip_digit(text: str, start: int) -> str:
    i = next(i for i in range(start, len(text)) if text[i].isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1 :]


def self_test(reference: dict[str, str]) -> list[str]:
    """Show the checker rejects a flipped digit and a non-zero exit code.

    Also shows the cold-start guard fires: a child that warms ``c_kp``
    before the guard must exit with EXIT_WARM_CACHE.  Returns the
    self-test's own failures.
    """
    failures = []
    gf_argv = ["gf", "--m", "3", "--format", "json"]
    table_argv = ["table", "--m-list", "2-10,20,50,100", "--format", "json"]
    gf_text = reference[command_key(gf_argv)]
    table_text = reference[command_key(table_argv)]
    cases = [
        ("reference gf output", gf_argv, 0, gf_text, True),
        ("reference table output", table_argv, 0, table_text, True),
        (
            "gf digit flipped in den",
            gf_argv,
            0,
            _flip_digit(gf_text, gf_text.index('"den"')),
            False,
        ),
        (
            "table digit flipped in lambda_U",
            table_argv,
            0,
            _flip_digit(table_text, table_text.index('"lambda_U": ') + len('"lambda_U": 1.')),
            False,
        ),
        ("gf exit code 3", gf_argv, 3, gf_text, False),
    ]
    for label, argv, code, text, should_pass in cases:
        passed = not check(argv, code, text.encode(), reference)
        if passed != should_pass:
            failures.append(f"checker self-test: {label} {'failed' if should_pass else 'passed'}")

    def warm():
        from bounded_catalan import core_combinatorics

        os.dup2(os.open(os.devnull, os.O_WRONLY), 2)  # silence the expected report
        core_combinatorics.c_kp(3, 1)

    guarded = run_command(gf_argv, before=warm)
    if guarded.code != EXIT_WARM_CACHE or "cold-start guard" not in " ".join(
        check(gf_argv, guarded.code, guarded.stdout, reference)
    ):
        failures.append(f"cold-start guard self-test: child exited {guarded.code}")
    return failures
