"""
A miniature Monte-Carlo sweep
=============================

Compares the uniform and solved-design variants on the adaptive family
at a few budgets, with a reduced replication count so it finishes in
seconds.  The same comparison at full scale is `fbbai sweep --preset
adaptive`.
"""

from fbbai.harness import SweepPoint, format_csv, run_point

R = 200
rows = []
for variant in ("gse-uniform", "gse-fwg"):
    for budget in (150, 300, 600):
        point = SweepPoint("adaptive-demo", "adaptive", {"d": 7}, "budget",
                           float(budget), variant, budget)
        row = run_point(point, R, seed=11)
        rows.append(row)
        print(f"{variant:12s} B={budget:4d}"
              f" accuracy={row.accuracy:.3f} +- {row.stderr:.3f}")

print("\nas CSV (wall time excluded):\n")
print(format_csv(rows, include_wall_time=False))
