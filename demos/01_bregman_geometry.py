"""Tour of the geometry layer: divergences, proximal steps, pushback.

Every proximal step here is closed form: exponentiated gradient on the
simplex under entropy, the Euclidean projection on the simplex, and a
clipped gradient step on boxes.
"""

import numpy as np

from pdomd import (
    Box,
    EuclideanGeometry,
    NegativeEntropyGeometry,
    Simplex,
    mirror_step,
    mix_toward_uniform,
    pushback_check,
)

entropy = NegativeEntropyGeometry()
euclid = EuclideanGeometry()
rng = np.random.default_rng(7)

print("== divergences ==")
p = np.array([0.5, 0.3, 0.2])
q = np.array([0.2, 0.5, 0.3])
kl = entropy.divergence(p, q)
l1 = np.abs(p - q).sum()
print(f"KL(p, q)          = {kl:.6f}")
print(f"0.5 * ||p-q||_1^2 = {0.5 * l1 ** 2:.6f}   (Pinsker floor)")
print(f"euclid D(p, q)    = {euclid.divergence(p, q):.6f}")

print()
print("== proximal step on the simplex ==")
grad = np.array([1.0, -0.5, 0.2])
alpha = 4.0
stepped = mirror_step(entropy, Simplex(3), p, grad, alpha)
weights = p * np.exp(-grad / alpha)  # exponentiated gradient, spelled in numpy
closed = weights / weights.sum()
print(f"start    {np.round(p, 4)}")
print(f"gradient {np.round(grad, 4)}  weight {alpha}")
print(f"step     {np.round(stepped, 6)}")
print(f"EG form  {np.round(closed, 6)}   (same thing, spelled directly)")

print()
print("== proximal step on a box ==")
box = Box(np.zeros(3), np.full(3, 2.0))
y = np.array([0.5, 1.9, 1.0])
moved = mirror_step(euclid, box, y, np.array([3.0, -1.0, 0.0]), 2.0)
print(f"start {y} -> {moved}  (gradient step, clipped to the box)")

print()
print("== pushback inequality ==")
# The prox minimizer does not just win, it wins by at least the
# divergence to any competitor. Probe a few random competitors.
worst = np.inf
for _ in range(200):
    z = rng.dirichlet(np.ones(3))
    res = pushback_check(entropy, Simplex(3), grad, p, alpha, z)
    worst = min(worst, res.residual)
    assert res.holds
print(f"200 random probes, all held; smallest slack {worst:.3e}")

print()
print("== uniform mixing ==")
corner = np.array([0.98, 0.01, 0.01])
for theta in (0.1, 0.01):
    mixed = mix_toward_uniform(corner, theta)
    cap = np.log(3.0 / theta)
    div = entropy.divergence(np.array([1.0, 0.0, 0.0]), mixed)
    print(
        f"theta={theta:<5} floor {mixed.min():.4f} "
        f"divergence from a vertex {div:.4f} <= log(d/theta) = {cap:.4f}"
    )
