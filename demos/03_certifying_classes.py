"""Sampling certifiers across the nonexpansiveness class lattice.

Certifiers refute with a replayable witness or report consistency at the
configured sample size; asymptotic classes get an extra scale probe on
geometrically growing rings.
"""

from mosk import certify, core, gallery
from mosk.certify import SamplerConfig
from mosk.combine import negate

cfg1 = SamplerConfig.symmetric(seed=7, sample_count=100_000, dim=1, half_width=50.0)
cfg2 = SamplerConfig.symmetric(seed=7, sample_count=100_000, dim=2, half_width=20.0)

clamp = gallery.mapping("clamp-sin-map")
rot = gallery.mapping("rotator")

print("Lipschitz / nonexpansiveness estimates:")
for name, T, cfg in [("clamp-sin", clamp, cfg1), ("rotator", rot, cfg2)]:
    c = certify.certify_lipschitz(T, cfg)
    print(f"  {name:<10} sup ratio = {c.estimates[0]['value']:.9f}  -> {c.verdict}")

print("\nBanach contraction vs contraction for large distances (clamp-sin):")
cb = certify.certify_banach_contraction(clamp, cfg1)
cc = certify.certify_cld(clamp, [0.01, 0.1, 1.0, 5.0], cfg1)
print(f"  banach: {cb.verdict} (sup ratio {cb.estimates[0]['value']:.7f})")
for row in cc.estimates:
    print(f"  beta({row['probe']:<5}) = {row['value']:.7f}")
print(f"  cld verdict: {cc.verdict}")

print("\naveragedness: the clamped sine is averaged, its negative is not")
print(f"  clamp 1/2-averaged: {certify.certify_averaged(clamp, 0.5, cfg1).verdict}")
print(f"  -clamp 0.99-averaged: {certify.certify_averaged(negate(clamp), 0.99, cfg1).verdict}")

print("\nuniform monotonicity via the empirical modulus:")
for name, op, cfg in [
    ("identity", gallery.operator("identity", 2), cfg2),
    ("rotator", gallery.operator("rotator"), cfg2),
    ("cubic", gallery.operator("cubic"), cfg1),
]:
    est = certify.estimate_modulus(op, [0.5, 1.0, 2.0], cfg)
    table = ", ".join(f"phi({t})={v:.4g}" for t, v in est.table)
    print(f"  {name:<10} {est.verdict:<10} {table}")

print("\nwitness replay: the rotator's refutation reproduces exactly")
est = certify.estimate_modulus(gallery.operator("rotator"), [0.5, 1.0], cfg2)
print(f"  stored value {est.witness_value:.3e}, replayed {certify.replay(est):.3e}")

print("\nthe scale probe refutes what no finite box can: cbrt's modulus decays")
inv = core.invert(gallery.operator("cubic"))
cfgw = SamplerConfig.symmetric(seed=7, sample_count=100_000, dim=1, half_width=1000.0)
est = certify.estimate_modulus(inv, [0.5, 1.0], cfgw)
print(f"  verdict: {est.verdict} ({est.notes})")
for row in est.params["rings"][:8]:
    print(f"  ring radius {row['radius']:>6.0f}: min product {row['min_product']}")
