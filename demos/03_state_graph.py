"""Anatomy of the dependency graph on endpoint states.

Removing the maximum element maps each threshold pair (p, q) to other
threshold pairs; the resulting digraph has exactly three cyclic strongly
connected components (the feedback loops of the recursion), and every
other state is an acyclic pass-through.  The script prints the
classification and writes a Graphviz rendering.
"""

from pathlib import Path

from bounded_catalan import build_system, component_matrix, output_accessible, to_dot

M = 3
sys_m = build_system(M)

print(f"m = {M}: {len(sys_m.states)} states, {len(sys_m.entries)} edges\n")
for comp in sys_m.sccs:
    if comp.cyclic:
        reach = output_accessible(sys_m, comp)
        print(
            f"cyclic component {comp.tag}: {len(comp.members)} state(s), "
            f"weighted period {comp.weighted_period}, "
            f"reaches output: {reach}"
        )
        for row in component_matrix(sys_m, comp):
            print("   [" + ", ".join(f"{str(e):>5}" for e in row) + "]")
print(
    "\nacyclic singletons:",
    sum(1 for c in sys_m.sccs if not c.cyclic),
    "states (no feedback, solved by substitution)",
)

out = Path(__file__).with_name(f"dependency_m{M}.dot")
out.write_text("".join(to_dot(sys_m)))
print(f"\nDOT graph written to {out.name}; render with: dot -Tpdf {out.name}")
