"""
Solving and rounding a G-optimal design
=======================================

Runs the Frank-Wolfe solver on a small arm set, checks the optimality
certificate, and rounds the continuous weights into integer pull counts.
"""

import numpy as np

from fbbai.design import fw_g_optimal, kw_certificate, round_allocation

# three informative directions plus a redundant midpoint arm
arms = np.array([
    [1.0, 0.0],
    [0.0, 1.0],
    [1.0, 1.0],
    [0.5, 0.5],
])

design = fw_g_optimal(arms, tol=0.01)
print(f"g value      : {design.g_value:.6f}  (dimension is {arms.shape[1]})")
print(f"iterations   : {design.iterations_used}")
print(f"certified    : {design.certified}")
print(f"certificate  : {kw_certificate(design, arms)}")
for i, w in enumerate(design.weights):
    print(f"  arm {i}: weight {w:.4f}")

# the midpoint duplicates arm 2 at half scale, so it earns no weight
assert design.weights[3] < 0.05

# rounding keeps every supported arm alive even at small budgets
for n in (4, 10, 25):
    counts = round_allocation(n, design)
    print(f"n={n:2d} counts={counts.tolist()} total={counts.sum()}")
