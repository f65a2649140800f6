"""Record reference.json: the stdout of every benchmark command.

Run from the repository root on a commit whose outputs are trusted:

    python3 perfbench/record.py

Before writing, the recorded outputs are cross-checked against the
paper's goldens: the sequences for m = 2 and 3, the generating functions
for m = 2 and 3, the order-13 recurrence for m = 3, and the growth table
(``TABLE_1``, through the checker).  Nothing is written if one fails.
"""

from __future__ import annotations

import json
import os
import sys

from workloads import WORKLOADS

A2_SEQ = [1, 1, 2, 5, 8, 12, 18, 26, 37, 53, 76, 109]
A3_SEQ = [1, 1, 2, 5, 14, 28, 55, 108, 214, 412, 787, 1497, 2841, 5364, 10088]
GF_2 = ([1, -2, 2, 0, -1, 0, -1], [[1, -1], [1, -1], [1, -1, 0, -1]])  # num, den factors
GF_3 = (
    [1, -1, -1, 1, 4, 0, -4, -3, -3, -5, -3, 2, 2],
    [[1, -2, -1, 1, 1, 2, 2, 2, -4, -2, 1, -2, 0, 1]],
)
RECURRENCE_3 = [2, 1, -1, -1, -2, -2, -2, 4, 2, -1, 2, 0, -1]


def _product(factors: list[list[int]]) -> list[int]:
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def golden_problems(reference: dict[str, str]) -> list[str]:
    from checker import check

    problems = []
    for m, golden in ((2, A2_SEQ), (3, A3_SEQ)):
        got = json.loads(reference[f"enumerate --m {m} --n 11 --method all --format json"])
        seqs = got["sequences"]
        if not (got["agree"] and seqs["dp"] == seqs["series"] == seqs["oracle"] == golden[:12]):
            problems.append(f"enumerate m={m} does not reproduce the golden sequence")
    for m, (num, den) in ((2, GF_2), (3, GF_3)):
        got = json.loads(reference[f"gf --m {m} --format json"])
        if got["num"] != [str(c) for c in num] or got["den"] != [str(c) for c in _product(den)]:
            problems.append(f"gf m={m} is not the golden generating function")
    rec = json.loads(reference["gf --m 3 --format json"])["recurrence"]
    if rec["order"] != 13 or rec["coeffs"] != [str(c) for c in RECURRENCE_3]:
        problems.append("gf m=3 does not give the golden order-13 recurrence")
    for key, text in reference.items():
        if key.startswith(("table", "growth")):
            argv = key.split()
            problems += [f"{key}: {p}" for p in check(argv, 0, text.encode(), reference)]
    return problems


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    import bounded_catalan.cli  # noqa: F401  imported once; commands run only in children
    from checker import REFERENCE_PATH, command_key
    from harness import run_command

    reference = {}
    for commands in WORKLOADS.values():
        for argv in commands:
            result = run_command(argv)
            if result.code != 0:
                print(f"{command_key(argv)} exited {result.code}", file=sys.stderr)
                return 1
            reference[command_key(argv)] = result.stdout.decode("utf-8")
    problems = golden_problems(reference)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(reference)} reference outputs to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
