"""The benchmark's workloads: CLI commands, one pass = each command once.

The inputs are the paper's fixed cases, which the reference outputs and
goldens check; the seed only sets the order of the commands in a pass.
Why each workload was chosen is in README.md.
"""

from __future__ import annotations

import random

TABLE_M_LIST = "2-10,20,50,100"

# The exact generating functions and the three counting routes share one
# workload.  As two workloads in 35-second runs, their pass times spread
# by 0.13-0.24 (interquartile range over median, ten runs) on a 2-core
# host whose speed drifts by up to 1.5x over a minute, against a bound of
# 0.25; merged and run for 60 seconds, by 0.04-0.13.  The run budget
# allows 60-second runs for two workloads, not three.
EXACT_GF = [["gf", "--m", str(m), "--format", "json"] for m in range(2, 11)] + [
    ["growth", "--m", str(m), "--pole", "on", "--format", "json"] for m in (3, 5, 8)
]
COUNTS = [
    ["enumerate", "--m", str(m), "--n", "11", "--method", "all", "--format", "json"]
    for m in (2, 3, 4)
] + [
    ["enumerate", "--m", "30", "--n", "500", "--method", "dp", "--format", "json"],
    ["enumerate", "--m", "8", "--n", "500", "--method", "series", "--format", "json"],
]
WORKLOADS: dict[str, list[list[str]]] = {
    "growth-table": [["table", "--m-list", TABLE_M_LIST, "--format", "json"]],
    "exact": EXACT_GF + COUNTS,
}


def pass_orders(workload: str, seed: int):
    """Yield the command order of each successive pass."""
    rng = random.Random(seed)
    commands = WORKLOADS[workload]
    while True:
        order = list(commands)
        rng.shuffle(order)
        yield order
