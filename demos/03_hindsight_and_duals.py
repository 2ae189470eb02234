"""Offline side of the story: window programs, duals, and error bounds.

The online guarantees lean on the static program over a window of mean
slot functions being well behaved: a bounded dual optimum and a dual
function that falls away at a linear rate once you leave the optimal
set. Both are things you can measure, and this script measures them.
"""

import numpy as np

from pdomd import (
    DualPoint,
    build_synthetic_problem,
    dual_function,
    estimate_multipliers,
    hindsight_optimum,
    weak_ebc_probe,
)

problem = build_synthetic_problem(d=8, n_ineq=2, n_eq=2, seed=4)
window = (0, 256)
print(f"problem {problem.name}, window start {window[0]} length {window[1]}")

point, value = hindsight_optimum(problem, *window)
print(f"hindsight optimum  {value:.6f}")
print(f"  at point         {np.round(point, 4)}")
g_at_opt = problem.means.inequalities.values(point)
print(f"  mean g at point  {np.round(g_at_opt, 4)}  (<= 0 is feasible)")

duals, bound = estimate_multipliers(problem, *window)
print()
print(f"optimal multipliers: lam {np.round(duals.ineq, 4)} eta {np.round(duals.eq, 4)}")
print(f"dual norm (boundedness certificate) {bound:.4f}")
print(f"dual value at the multipliers {dual_function(problem, *window, duals):.6f}")

# weak duality: every dual point sits at or below the primal optimum
rng = np.random.default_rng(0)
worst_gap = np.inf
for _ in range(500):
    lam = rng.uniform(0.0, 4.0, size=problem.n_ineq)
    eta = rng.normal(0.0, 3.0, size=problem.n_eq)
    gap = value - dual_function(problem, *window, DualPoint(ineq=lam, eq=eta))
    worst_gap = min(worst_gap, gap)
print(f"500 random dual points, smallest primal-dual gap {worst_gap:.3e} (>= 0)")

# error-bound probe: how fast does the dual fall off away from the optimum
c0, l0 = weak_ebc_probe(problem, *window, n_samples=40, radius_grid=(0.05, 0.1, 0.2, 0.4, 0.8))
print()
if c0 > 0.0:
    print(f"dual decay held from radius {l0}: q* - q(x) >= {c0:.4f} * distance")
else:
    print("no radius on the grid certified a linear decay (flat dual face?)")
