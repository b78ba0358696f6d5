"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import time

import numpy as np
import pytest

from mosk import certify, core, gallery, split
from mosk.certify import CONSISTENT, REFUTED, SamplerConfig
from mosk.exceptions import StepSizeOutOfRange


def _report(criterion, ok, detail=""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


def test_c01_cardano_resolvent_identity():
    x = np.linspace(-1000.0, 1000.0, 10_000)
    t0 = time.perf_counter()
    j = gallery.cubic_resolvent(x)
    residual = np.max(np.abs(j + j**3 - x))
    elapsed = time.perf_counter() - t0
    _report(
        "C01 cardano-resolvent",
        residual <= 1e-10 and elapsed < 1.0,
        f"max residual {residual:.3e}, runtime {elapsed:.3f}s",
    )


def test_c02_staircase_witnesses():
    rel_errs = []
    for n in range(1, 21):
        _, _, d, _ = gallery.staircase_witnesses(n)
        rel_errs.append(abs(d - 4.0 ** (-n)) / 4.0 ** (-n))
    _, _, _, g30 = gallery.staircase_witnesses(30)
    ok = max(rel_errs) <= 1e-9 and 1.0 - 1e-6 <= g30 <= 1.0 + 1e-6
    _report(
        "C02 staircase-witnesses",
        ok,
        f"max rel err {max(rel_errs):.3e}, g_30 = {g30:.12f}",
    )


def test_c03_staircase_region_contraction():
    p = gallery.default_staircase()
    rng = np.random.default_rng(303)
    worst_slack = np.inf
    for m in range(1, 9):
        n = 10_000
        u = np.stack([rng.uniform(-2.0, p.a[m], n), rng.uniform(-5.0, 5.0, n)], axis=1)
        v = np.stack([rng.uniform(-2.0, p.a[m], n), rng.uniform(-5.0, 5.0, n)], axis=1)
        # include same-height pairs in the top segment (the extremal ones)
        k = n // 4
        u[:k, 0] = rng.uniform(p.a[m - 1], p.a[m], k)
        v[:k, 0] = rng.uniform(p.a[m - 1], p.a[m], k)
        v[:k, 1] = u[:k, 1]
        d = np.linalg.norm(u - v, axis=1)
        keep = d > 0
        ratio = np.linalg.norm(
            gallery.staircase_eval(u) - gallery.staircase_eval(v), axis=1
        )[keep] / d[keep]
        slack = p.beta[m] + 1e-9 - ratio.max()
        worst_slack = min(worst_slack, slack)
        if slack < 0:
            break
    _report(
        "C03 staircase-contraction",
        worst_slack >= 0,
        f"min slack to beta_m + 1e-9 across m=1..8: {worst_slack:.3e}",
    )


def test_c04_clamp_sin_cld_profile():
    T = gallery.mapping("clamp-sin-map")
    cfg = SamplerConfig.symmetric(seed=404, sample_count=1_000_000, dim=1, half_width=50.0)
    cert = certify.certify_cld(T, [0.01, 0.1, 1.0, 5.0], cfg)
    vals = [row["value"] for row in cert.estimates]
    ok = (
        cert.verdict == CONSISTENT
        and vals[0] >= 0.9999
        and vals[2] <= 0.999
        and all(a >= b for a, b in zip(vals, vals[1:]))
    )
    _report(
        "C04 clamp-sin-cld",
        ok,
        f"beta(0.01)={vals[0]:.6f} beta(1.0)={vals[2]:.6f} verdict={cert.verdict}",
    )


def test_c05_pr_oscillation():
    A = gallery.operator("normal-cone-zero", 1)
    B = gallery.operator("zero", 1)
    tr = split.peaceman_rachford(A, B, [1.0], split.StoppingRule(max_iter=50))
    exact = all(tr.iterates[n][0] == (-1.0) ** n for n in range(51))
    _report(
        "C05 pr-oscillation",
        exact and tr.period2,
        f"iterates exact (-1)^n: {exact}, period-2 flag: {tr.period2}",
    )


def test_c06_truncated_shift_weak_vs_strong():
    N = 256
    A = gallery.operator("normal-cone-zero", N)
    B = gallery.operator("shift", N)
    x0 = np.zeros(N)
    x0[0] = 1.0
    tr = split.peaceman_rachford(
        A, B, x0, split.StoppingRule(max_iter=300), probe_coords=[0]
    )
    norms = np.linalg.norm(tr.iterates, axis=1)
    norms_ok = all(norms[n] == 1.0 for n in range(N))
    probes_ok = all(tr.iterates[n][0] == 0.0 for n in range(1, N))
    _report(
        "C06 truncated-shift",
        norms_ok and probes_ok,
        f"|x_n|=1 exactly for n<256: {norms_ok}, <e1,x_n>=0 exactly: {probes_ok}",
    )


def test_c07_dr_strong_convergence():
    A = gallery.operator("cubic")
    B = gallery.operator("identity", 1)
    tr = split.douglas_rachford(A, B, [10.0], split.StoppingRule(max_iter=250))
    shadow_norms = np.linalg.norm(tr.shadows, axis=1)
    hit = np.nonzero(shadow_norms <= 1e-8)[0]
    fejer = split.fejer_check(tr, [0.0])
    ok = hit.size > 0 and hit[0] <= 200 and fejer.nonincreasing
    _report(
        "C07 dr-strong-convergence",
        ok,
        f"|y_n|<=1e-8 at n={hit[0] if hit.size else 'never'}, "
        f"fejer violation: {fejer.first_violation}",
    )


def test_c08_fb_convergence_and_step_guard():
    A = gallery.operator("identity", 1)
    B = gallery.operator("cubic")
    tr = split.forward_backward(A, B, 0.5, [5.0], split.StoppingRule(max_iter=150))
    norms = np.linalg.norm(tr.iterates, axis=1)
    hit = np.nonzero(norms <= 1e-8)[0]
    rejected = False
    try:
        split.forward_backward(A, B, 2.5, [5.0])
    except StepSizeOutOfRange:
        rejected = True
    ok = hit.size > 0 and hit[0] <= 100 and rejected
    _report(
        "C08 fb-convergence",
        ok,
        f"|x_n|<=1e-8 at n={hit[0] if hit.size else 'never'}, gamma=2.5 rejected: {rejected}",
    )


def test_c09_reflected_modulus_inequality():
    A = gallery.operator("cubic")
    # modulus pre-validation by the sampling estimator at the stated shells
    cfg_mod = SamplerConfig.symmetric(seed=909, sample_count=100_000, dim=1, half_width=40.0)
    est = certify.estimate_modulus(A, [0.5, 1.0, 2.0, 4.0], cfg_mod)
    shells_ok = all(v >= t**4 / 4.0 - 1e-6 for t, v in est.table)
    phi = certify.Modulus(name="t^4/4")
    cfg = SamplerConfig.symmetric(seed=910, sample_count=100_000, dim=1, half_width=10.0)
    rep = certify.check_lemma_3_5(A, phi, cfg)
    worst = rep.estimates[0]["value"]
    ok = shells_ok and worst <= 1e-9
    _report(
        "C09 reflected-modulus-inequality",
        ok,
        f"shells >= t^4/4 - 1e-6: {shells_ok}, max violation {worst:.3e}",
    )


def test_c10_identity_layer():
    ops = [
        gallery.operator("cubic"),
        gallery.operator("normal-cone-zero", 2),
        gallery.operator("zero", 2),
        gallery.operator("identity", 2),
        gallery.operator("rotator"),
        gallery.operator("staircase"),
        gallery.operator("clamp-sin-op"),
        gallery.operator("quartic-mixed"),
        gallery.operator("shift", 16),
    ]
    worst_refl = 0.0
    worst_firm = -np.inf
    worst_minty = 0.0
    for A in ops:
        cfg = SamplerConfig.symmetric(seed=1010, sample_count=100_000, dim=A.dim, half_width=50.0)
        X, Y = certify.pair_batches(cfg)
        refl = np.max(
            np.abs(
                core.reflected_resolvent(core.invert(A), X)
                + core.reflected_resolvent(A, X)
            )
        )
        worst_refl = max(worst_refl, refl)
        JX, JY = A.resolvent(X), A.resolvent(Y)
        firm = np.max(
            np.sum((JX - JY) ** 2, axis=1)
            + np.sum(((X - JX) - (Y - JY)) ** 2, axis=1)
            - np.sum((X - Y) ** 2, axis=1)
        )
        worst_firm = max(worst_firm, firm)
        if A.direct_eval is not None:
            Z = np.random.default_rng(1011).uniform(-50, 50, (10_000, A.dim))
            gs = core.minty_sample(A, Z)
            minty = np.max(
                np.linalg.norm(np.atleast_2d(gs.x + A.direct_eval(gs.x) - Z), axis=-1)
            )
            worst_minty = max(worst_minty, minty)
    ok = worst_refl <= 1e-12 and worst_firm <= 1e-9 and worst_minty <= 1e-8
    _report(
        "C10 identity-layer",
        ok,
        f"refl-duality {worst_refl:.2e} (<=1e-12), firm {worst_firm:.2e} (<=1e-9), "
        f"minty {worst_minty:.2e} (<=1e-8)",
    )


def test_c11_selfduality_triptych():
    clamp = gallery.operator("clamp-sin-op")
    cfg_c = SamplerConfig.symmetric(seed=1111, sample_count=200_000, dim=1, half_width=50.0)
    rep_c = certify.check_selfdual(clamp, cfg_c)
    cubic = gallery.operator("cubic")
    cfg_q = SamplerConfig.symmetric(seed=1112, sample_count=200_000, dim=1, half_width=1000.0)
    rep_q = certify.check_selfdual(cubic, cfg_q)
    ok = rep_c.verdicts == (CONSISTENT, CONSISTENT, CONSISTENT) and rep_q.verdicts == (
        CONSISTENT,
        REFUTED,
        REFUTED,
    )
    _report(
        "C11 selfduality-triptych",
        ok,
        f"clamp-sin {rep_c.verdicts}, cubic {rep_q.verdicts}",
    )


def test_c12_inverse_solvers_and_appendix_agreement():
    worst = 0.0
    for solver, fwd in [
        (gallery.g_solver, lambda t: t + np.sin(t)),
        (gallery.h_solver, lambda t: t - np.sin(t)),
    ]:
        lo, hi = solver.range()
        vals = np.linspace(lo + 1e-9, hi - 1e-9, 10_000)
        t = solver.solve(vals)
        worst = max(worst, float(np.max(np.abs(fwd(t) - vals))))
    x = np.linspace(-5.0, 5.0, 10_000)
    Tx = gallery.clamp_sin(x)
    y = 0.5 * (x + Tx)
    agree = float(np.max(np.abs(gallery.clamp_sin_operator_eval(y) - (x - y))))
    ok = worst <= 1e-12 and agree <= 1e-10
    _report(
        "C12 inverse-solvers",
        ok,
        f"g/h residual {worst:.2e} (<=1e-12), closed-form agreement {agree:.2e} (<=1e-10)",
    )
