"""The staircase mapping: strongly nonexpansive but not super strongly.

Per segment the map is a contraction with factor beta_m < 1, yet beta_m
increases to 1, and the segment-endpoint pairs give a squared-norm gap
d_n = 4^{-n} -> 0 whose displacement gap tends to (0, -1) instead of 0.
"""

import numpy as np

from mosk import certify, gallery

p = gallery.default_staircase()

print("per-segment contraction factors:")
for m in range(1, 9):
    print(f"  m={m}: a_m={p.a[m]:>6.0f}  beta_m={p.beta[m]:.12f}")

print("\nsampled Lipschitz ratio on each region D_m (10^4 pairs):")
rng = np.random.default_rng(1)
for m in range(1, 9):
    u = np.stack([rng.uniform(-2, p.a[m], 10_000), rng.uniform(-5, 5, 10_000)], axis=1)
    v = np.stack([rng.uniform(-2, p.a[m], 10_000), rng.uniform(-5, 5, 10_000)], axis=1)
    d = np.linalg.norm(u - v, axis=1)
    keep = d > 0
    r = np.linalg.norm(gallery.staircase_eval(u) - gallery.staircase_eval(v), axis=1)
    print(f"  m={m}: sup ratio = {np.max(r[keep] / d[keep]):.12f}  (beta_m = {p.beta[m]:.12f})")

print("\nwitness pairs x_n = (a_n, 0), y_n = (a_{n-1}, 0):")
print(f"  {'n':>3} {'d_n':>14} {'4^-n':>14} {'gap norm':>12}")
for n in (1, 2, 5, 10, 20, 30):
    x, y, d, g = gallery.staircase_witnesses(n)
    print(f"  {n:>3} {d:>14.6e} {4.0**(-n):>14.6e} {g:>12.9f}")

print("\nsequential probe (ssne mode): premise d_n vanishes, gap persists")
OBSERVED = ("premise_tail_max", "gap_tail_min", "final_separation")
T = gallery.mapping("staircase")
rep = certify.check_sequential(T, gallery.witnesses("staircase"), "ssne", 30)
print(f"  verdict: {rep.verdict}")
print(f"  observed: { {k: rep.params[k] for k in OBSERVED} }")

print("\nsame probe in sne mode: the separations are unbounded, so this")
print("family cannot refute strong nonexpansiveness (and indeed the map is SNE):")
rep = certify.check_sequential(T, gallery.witnesses("staircase"), "sne", 30)
print(f"  verdict: {rep.verdict} (bounded separations: {rep.params['bounded']})")
