import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mosk import certify, core, gallery
from mosk.certify import CONSISTENT, REFUTED, SamplerConfig
from mosk.combine import negate
from mosk.core import NonexpansiveMap
from mosk.exceptions import DomainError, NumericalFailure


def cfg1(n=50_000, seed=101, width=50.0):
    return SamplerConfig.symmetric(seed=seed, sample_count=n, dim=1, half_width=width)


def cfg2(n=50_000, seed=102, width=20.0):
    return SamplerConfig.symmetric(seed=seed, sample_count=n, dim=2, half_width=width)


HALF = NonexpansiveMap(1, lambda x: 0.5 * np.asarray(x, float), "half")
NEG = NonexpansiveMap(1, lambda x: -np.asarray(x, float), "neg")
DOUBLE = NonexpansiveMap(1, lambda x: 2.0 * np.asarray(x, float), "double")
IDENT = NonexpansiveMap(1, lambda x: np.asarray(x, float), "ident")


def test_sampler_config_validation():
    with pytest.raises(DomainError):
        SamplerConfig(seed=0, sample_count=0, box_low=[-1.0], box_high=[1.0])
    with pytest.raises(DomainError):
        SamplerConfig(seed=0, sample_count=10, box_low=[1.0], box_high=[-1.0])


def test_certify_lipschitz_examples():
    c = certify.certify_lipschitz(gallery.mapping("rotator"), cfg2())
    assert c.verdict == CONSISTENT
    assert c.estimates[0]["value"] == pytest.approx(1.0, abs=1e-12)
    c = certify.certify_lipschitz(HALF, cfg1())
    assert c.verdict == CONSISTENT
    assert c.estimates[0]["value"] == pytest.approx(0.5, abs=1e-12)
    c = certify.certify_lipschitz(gallery.mapping("staircase"), cfg2(width=200.0))
    assert c.verdict == CONSISTENT
    assert c.estimates[0]["value"] <= 1.0 + 1e-9


def test_certify_reflected_cubic_small_box():
    # a cancelling cubic resolvent made R_cubic look expansive near 0
    R = core.reflected_map(gallery.operator("cubic"))
    c = certify.certify_lipschitz(R, cfg1(width=1e-6))
    assert c.verdict == CONSISTENT


def test_certify_firm_examples():
    J = core.resolvent_map(gallery.operator("cubic"))
    assert certify.certify_firm(J, cfg1()).verdict == CONSISTENT
    c = certify.certify_firm(NEG, cfg1())
    assert c.verdict == REFUTED
    assert c.witness is not None
    # the stated witness reproduces the violation
    assert certify.replay(c, NEG) == pytest.approx(c.witness_value, abs=1e-12)
    assert certify.certify_firm(HALF, cfg1()).verdict == CONSISTENT


def test_certify_firm_explicit_pair():
    # |T1 - T0|^2 + |2(1-0)|^2 = 5 > 1 at (x, y) = (1, 0) for T = -Id
    c = certify.ClassCertificate(
        class_name="firmly-nonexpansive", params={}, estimates=[], verdict=REFUTED,
        witness=[[1.0], [0.0]], witness_value=None, seed=0, sample_count=0,
    )
    assert certify.replay(c, NEG) == pytest.approx(4.0)


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


@settings(max_examples=40, deadline=None)
@given(
    log_width=st.floats(-3.0, 300.0),
    seed=st.integers(0, 2**32 - 1),
    firm=st.booleans(),
)
def test_certify_cubic_extreme_boxes_fail_closed(log_width, seed, firm):
    # a certificate either holds only finite numbers or is not issued
    A = gallery.operator("cubic")
    cfg = SamplerConfig.symmetric(seed=seed, sample_count=500, dim=1,
                                  half_width=10.0**log_width)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            if firm:
                c = certify.certify_firm(core.resolvent_map(A), cfg)
            else:
                c = certify.certify_lipschitz(core.reflected_map(A), cfg)
        except NumericalFailure:
            return
    numbers = list(_numbers(c.to_json_dict())) + [c.witness_value or 0.0]
    assert all(math.isfinite(v) for v in numbers)


def test_certify_averaged_examples():
    assert certify.certify_averaged(HALF, 0.5, cfg1()).verdict == CONSISTENT
    neg_clamp = negate(gallery.mapping("clamp-sin-map"))
    for alpha in (0.5, 0.9, 0.99):
        assert certify.certify_averaged(neg_clamp, alpha, cfg1()).verdict == REFUTED
    for alpha in (0.3, 0.5, 0.9):
        assert certify.certify_averaged(NEG, alpha, cfg1()).verdict == REFUTED
    with pytest.raises(DomainError):
        certify.certify_averaged(HALF, 1.0, cfg1())


def test_lemma_5_1_battery():
    # a Banach contraction is averaged with averaged negative
    assert certify.certify_averaged(HALF, 0.5, cfg1()).verdict == CONSISTENT
    neg_half = NonexpansiveMap(1, lambda x: -0.5 * np.asarray(x, float), "-half")
    assert certify.certify_averaged(neg_half, 0.75, cfg1()).verdict == CONSISTENT
    c = certify.certify_lipschitz(HALF, cfg1())
    assert c.estimates[0]["value"] == pytest.approx(0.5, abs=1e-12)


def test_certify_cld_examples():
    c = certify.certify_cld(gallery.mapping("clamp-sin-map"), [1.0], cfg1())
    assert c.verdict == CONSISTENT
    assert c.estimates[0]["value"] < 1.0
    c = certify.certify_cld(NEG, [0.5, 1.0], cfg1())
    assert c.verdict == REFUTED
    assert c.estimates[0]["value"] == pytest.approx(1.0, abs=1e-12)
    assert certify.replay(c, NEG) == pytest.approx(1.0, abs=1e-12)
    # reflected resolvent of the cubic: ratio tends to one far out
    R = core.reflected_map(gallery.operator("cubic"))
    c = certify.certify_cld(R, [1.0], cfg1(width=1000.0))
    assert c.verdict == REFUTED
    assert "ring" in c.notes


def test_certify_cld_monotone_in_eps():
    c = certify.certify_cld(
        gallery.mapping("clamp-sin-map"), [0.01, 0.1, 1.0, 5.0], cfg1(n=200_000)
    )
    vals = [row["value"] for row in c.estimates]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_certify_banach():
    assert certify.certify_banach_contraction(HALF, cfg1()).verdict == CONSISTENT
    assert certify.certify_banach_contraction(NEG, cfg1()).verdict == REFUTED
    # CLD but not Banach: near-isometric pairs at the origin refute
    assert (
        certify.certify_banach_contraction(gallery.mapping("clamp-sin-map"), cfg1()).verdict
        == REFUTED
    )


def test_class_lattice_consistency():
    # nonexpansiveness refuted forces firm refuted
    lip = certify.certify_lipschitz(DOUBLE, cfg1())
    firm = certify.certify_firm(DOUBLE, cfg1())
    assert lip.verdict == REFUTED and firm.verdict == REFUTED
    # averaged-consistent maps are nonexpansive-consistent
    for T in (HALF, IDENT):
        if certify.certify_averaged(T, 0.5, cfg1()).verdict == CONSISTENT:
            assert certify.certify_lipschitz(T, cfg1()).verdict == CONSISTENT
    # Banach-consistent maps are CLD-consistent at every probed eps
    for T in (HALF, gallery.mapping("clamp-sin-map"), NEG):
        if certify.certify_banach_contraction(T, cfg1()).verdict == CONSISTENT:
            c = certify.certify_cld(T, [0.5, 1.0, 2.0], cfg1())
            assert c.verdict == CONSISTENT


def test_estimate_modulus_identity():
    est = certify.estimate_modulus(
        gallery.operator("identity", 2), [0.5, 1.0, 2.0], cfg2()
    )
    assert est.verdict == CONSISTENT
    for t, v in est.table:
        assert v == pytest.approx(t * t, rel=0.1)
        assert v >= t * t - 1e-9


def test_estimate_modulus_rotator_refuted():
    est = certify.estimate_modulus(gallery.operator("rotator"), [0.5, 1.0], cfg2())
    assert est.verdict == REFUTED
    for _, v in est.table:
        assert abs(v) <= 1e-12
    # witness is replayable
    assert certify.replay(est.certificate()) == pytest.approx(est.witness_value, abs=1e-12)


def test_estimate_modulus_cubic_quartic_profile():
    est = certify.estimate_modulus(
        gallery.operator("cubic"), [0.5, 1.0, 2.0, 4.0], cfg1(n=100_000, width=40.0)
    )
    assert est.verdict == CONSISTENT
    for t, v in est.table:
        assert v >= t**4 / 4.0 - 1e-6
        # grid-minimization oracle puts the infimum at t^4/4; the sampled
        # infimum should sit within the bin just above it
        assert v <= (1.05 * t) ** 4 / 4.0 + 0.25


def test_estimate_modulus_inverse_cubic_decays():
    est = certify.estimate_modulus(
        core.invert(gallery.operator("cubic")), [0.5, 1.0], cfg1(width=1000.0)
    )
    assert est.verdict == REFUTED
    assert "ring" in est.notes
    # in-box bin values are strictly positive: only the scale probe refutes
    assert all(v > certify.TOL_POS for _, v in est.table if np.isfinite(v))


def test_estimate_modulus_normal_cone_vacuous():
    est = certify.estimate_modulus(
        gallery.operator("normal-cone-zero", 2), [0.5, 1.0], cfg2()
    )
    assert est.verdict == CONSISTENT
    assert all(not np.isfinite(v) for _, v in est.table)


def test_modulus_value_and_tighten():
    est = certify.Modulus(table=((0.5, 0.3), (1.0, 1.2), (2.0, 5.0)))
    assert est.value(0.75) == pytest.approx(0.3)
    assert est.value(1.5) == pytest.approx(1.2)
    assert est.value(0.25) == 0.0
    m = certify.tighten_modulus(est, 4.0)
    assert m.quadratic_bound(2.0) == pytest.approx(4.0)
    m2 = certify.tighten_modulus(est, 1.0)
    assert m2.quadratic_bound(2.0**3) == pytest.approx(0.25 * 4.0**3)
    m3 = certify.tighten_modulus(est, 0.5)
    assert m3.quadratic_bound(1.0) == pytest.approx(0.125)
    # tightened value dominates the table for large t
    assert m.value(4.0) == pytest.approx(16.0)
    with pytest.raises(DomainError):
        certify.tighten_modulus(est, 0.0)
    with pytest.raises(DomainError):
        m.quadratic_bound(0.5)
    with pytest.raises(DomainError):
        est.quadratic_bound(2.0)


def test_certify_strongly_monotone():
    JS = core.resolvent_map(gallery.operator("rotator"))
    c = certify.certify_strongly_monotone(JS, cfg2())
    assert c.verdict == CONSISTENT
    assert c.estimates[0]["value"] == pytest.approx(0.5, abs=1e-9)
    c = certify.certify_strongly_monotone(gallery.operator("rotator"), cfg2())
    assert c.verdict == REFUTED
    c = certify.certify_strongly_monotone(gallery.operator("identity", 2), cfg2())
    assert c.verdict == CONSISTENT


def test_replay_strongly_monotone_graph_witness():
    # replay gives the stored ratio sigma, not the bare product <x-y, x*-y*>
    cfg = SamplerConfig.symmetric(seed=3, sample_count=20_000, dim=8, half_width=50.0)
    c = certify.certify_strongly_monotone(gallery.operator("shift", 8), cfg)
    assert c.verdict == REFUTED and len(c.witness) == 4
    assert certify.replay(c) == pytest.approx(c.witness_value, rel=1e-9)


def test_replay_strongly_monotone_map_witness():
    # a map target stores the pair (x, y); replay evaluates the map
    c = certify.certify_strongly_monotone(NEG, cfg1(n=2_000))
    assert c.verdict == REFUTED and len(c.witness) == 2
    assert certify.replay(c, NEG) == pytest.approx(-1.0)


def test_check_sequential_staircase():
    fam = gallery.witnesses("staircase")
    T = gallery.mapping("staircase")
    rep = certify.check_sequential(T, fam, "ssne", 30)
    assert rep.verdict == REFUTED
    assert rep.params["gap_tail_min"] >= 0.999
    # d_n tabulated at moderate n matches 4^{-n}
    k = 5
    assert rep.estimates[k - 1]["value"] == pytest.approx(4.0**-k, rel=1e-6)
    # SNE mode: separations unbounded, no refutation claimed
    rep2 = certify.check_sequential(T, fam, "sne", 30)
    assert rep2.verdict == CONSISTENT and not rep2.params["bounded"]


def test_check_sequential_scaled_families():
    C = gallery.operator("cubic")
    R = core.reflected_map(C)
    fam = certify.scaled_pair_family([1.0], [1.0], n_cap=45)
    assert certify.check_sequential(R, fam, "ssne", 45).verdict == REFUTED
    assert certify.check_sequential(negate(R), fam, "ssne", 45).verdict == CONSISTENT
    # clamp-sin map on growing pairs: premise stays large, no refutation
    Tc = negate(core.reflected_map(gallery.operator("clamp-sin-op")))
    grow = certify.WitnessFamily(
        "grow", lambda n: (np.array([float(n)]), np.array([0.0])), n_cap=60
    )
    assert certify.check_sequential(Tc, grow, "ssne", 40).verdict == CONSISTENT
    # identity with constant gap: premise and gap both vanish
    const = certify.WitnessFamily(
        "const", lambda n: (np.array([float(n)]), np.array([float(n) - 2.0])), n_cap=60
    )
    rep = certify.check_sequential(IDENT, const, "ssne", 40)
    assert rep.verdict == CONSISTENT and rep.params["gap_tail_min"] == 0.0
    with pytest.raises(DomainError):
        certify.check_sequential(IDENT, const, "bogus", 10)


def test_check_growth():
    pairs = [gallery.cone_subdiff_witnesses(n) for n in range(1, 101)]
    rep = certify.check_growth(pairs)
    assert rep.estimates[0]["value"] == 0.0 and rep.verdict == REFUTED
    # identity graph: ratio identically one
    rng = np.random.default_rng(1)
    z = rng.uniform(-10, 10, size=(500, 2))
    g1 = core.minty_sample(gallery.operator("identity", 2), z)
    g2 = core.minty_sample(gallery.operator("identity", 2), -z)
    rep = certify.check_growth((g1, g2))
    assert rep.estimates[0]["value"] == pytest.approx(1.0, abs=1e-12)
    # cubic on antipodal pairs: ratio grows like dist^2 / 4
    zc = np.linspace(0.5, 4.0, 200)
    gc1 = core.minty_sample(gallery.operator("cubic"), zc + zc**3)
    gc2 = core.minty_sample(gallery.operator("cubic"), -(zc + zc**3))
    rows = [a.reshape(-1, 1) for a in (*gc1, *gc2)]
    dist, ratios = certify.CLASSES["growth-condition"].statistic(*rows, {})
    assert np.allclose(ratios, dist**2 / 4.0, rtol=1e-8)
    # the estimate is the smallest ratio of the largest-separation decile
    top = np.argsort(dist)[-20:]
    assert certify.check_growth((gc1, gc2)).estimates[0]["value"] == np.min(ratios[top])


def test_check_coercive():
    rng = np.random.default_rng(2)
    S = gallery.operator("rotator")
    z = rng.uniform(-20, 20, size=(4000, 2))
    gs = core.minty_sample(S, z)
    direct = certify.GraphSample(x=z, xstar=gallery.rotator_eval(z))
    rep = certify.check_coercive(direct)
    assert rep.verdict == REFUTED
    assert max(abs(row["value"]) for row in rep.estimates if row["value"] is not None) <= 1e-9
    witnesses = [gallery.cone_subdiff_witnesses(n)[0] for n in range(1, 101)]
    rep = certify.check_coercive(witnesses)
    assert rep.verdict == CONSISTENT
    ident = certify.GraphSample(x=z, xstar=z)
    assert certify.check_coercive(ident).verdict == CONSISTENT


def test_check_lemma_3_5():
    C = gallery.operator("cubic")
    phi = certify.Modulus(closed_form=lambda t: 0.25 * t**4)
    rep = certify.check_lemma_3_5(C, phi, cfg1(width=10.0))
    assert rep.estimates[0]["value"] <= 1e-9
    I1 = gallery.operator("identity", 1)
    phi_sq = certify.Modulus(closed_form=lambda t: t * t)
    rep = certify.check_lemma_3_5(I1, phi_sq, cfg1(width=10.0))
    assert rep.estimates[0]["value"] <= 1e-9  # equality case
    S = gallery.operator("rotator")
    rep = certify.check_lemma_3_5(S, phi_sq, cfg2(width=10.0))
    assert rep.estimates[0]["value"] > 1e-9 and rep.witness is not None


def test_check_lemma_3_5_witness_is_the_statistic():
    # the stored value is the class statistic on the stored pair (x, y)
    S = gallery.operator("rotator")
    phi_sq = lambda t: t * t  # noqa: E731
    rep = certify.check_lemma_3_5(S, phi_sq, cfg2(n=5_000, width=10.0))
    assert rep.verdict == REFUTED
    x, y = (np.array([p]) for p in rep.witness)
    _, value = certify.CLASSES["reflected-modulus"].statistic(
        x, S.resolvent(x), y, S.resolvent(y), {"phi": phi_sq})
    assert value[0] == rep.witness_value == rep.estimates[0]["value"]


def test_replay_refuses_reflected_modulus():
    # phi is not in the certificate, so replay cannot evaluate the statistic
    S = gallery.operator("rotator")
    rep = certify.check_lemma_3_5(S, lambda t: t * t, cfg2(n=5_000, width=10.0))
    assert rep.witness is not None
    with pytest.raises(DomainError, match="phi"):
        certify.replay(rep, S.resolvent)


def test_check_lemma_3_5_fails_closed():
    # squares of |x - y| overflow on this box: no certificate, not nan
    phi = certify.Modulus(closed_form=lambda t: 0.25 * t**4)
    cfg = SamplerConfig.symmetric(seed=4, sample_count=2_000, dim=1, half_width=1e200)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalFailure):
        certify.check_lemma_3_5(gallery.operator("cubic"), phi, cfg)


def test_check_selfdual_patterns():
    clamp = gallery.operator("clamp-sin-op")
    rep = certify.check_selfdual(clamp, cfg1(n=100_000))
    assert rep.verdicts == (CONSISTENT, CONSISTENT, CONSISTENT)
    assert rep.agrees
    cubic = gallery.operator("cubic")
    rep = certify.check_selfdual(cubic, cfg1(n=100_000, width=1000.0))
    assert rep.verdicts == (CONSISTENT, REFUTED, REFUTED)
    assert rep.agrees
    rot = gallery.operator("rotator")
    rep = certify.check_selfdual(rot, cfg2())
    assert rep.verdicts[0] == REFUTED and rep.verdicts[1] == REFUTED
    assert rep.agrees
    payload = rep.to_json_dict()
    assert payload["verdicts"]["uniformly-monotone"] == REFUTED


def test_compare_with_declaration():
    C = gallery.operator("cubic")
    est = certify.estimate_modulus(C, [0.5, 1.0], cfg1(n=20_000, width=40.0))
    row = certify.compare_with_declaration(C, est.certificate())
    assert row["declared"] is True and row["agrees"] is True
    R = gallery.operator("rotator")
    est = certify.estimate_modulus(R, [0.5, 1.0], cfg2(n=20_000))
    row = certify.compare_with_declaration(R, est.certificate())
    assert row["declared"] is False and row["agrees"] is None
    assert row["verdict"] == REFUTED


def test_determinism_bit_identical():
    cfg = cfg1(n=30_000, seed=77)
    T = gallery.mapping("clamp-sin-map")
    a = certify.certify_cld(T, [0.1, 1.0], cfg)
    b = certify.certify_cld(T, [0.1, 1.0], cfg)
    assert a.estimates == b.estimates
    est1 = certify.estimate_modulus(gallery.operator("cubic"), [0.5, 1.0], cfg)
    est2 = certify.estimate_modulus(gallery.operator("cubic"), [0.5, 1.0], cfg)
    assert est1.table == est2.table


def test_pair_batches_strategies():
    # three equal shares in STRATEGIES order: independent, antithetic, radial shells
    cfg = SamplerConfig(seed=5, sample_count=300, box_low=[-1.0, -1.0], box_high=[1.0, 1.0])
    X, Y = certify.pair_batches(cfg)
    assert np.allclose(X[100:200], -Y[100:200])
    X, Y = certify.pair_batches(cfg, shell_distances=[0.25])
    assert np.allclose(np.linalg.norm(X[200:] - Y[200:], axis=1), 0.25)


def test_certify_imports_only_core_and_exceptions():
    # the certifiers sit below the data layer: nothing of gallery is imported
    tree = ast.parse(Path(certify.__file__).read_text())
    sources = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sources.add(f"{'.' * node.level}{node.module or ''}")
        elif isinstance(node, ast.Import):
            sources.update(alias.name for alias in node.names)
    assert not any("gallery" in src for src in sources)
    assert {src for src in sources if src.startswith(".")} == {".core", ".exceptions"}


def test_traced_names_are_certify_attributes():
    # the benchmark's tracer patches these names on mosk.certify; read its
    # list without importing the tracer
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text())
    traced = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "CERTIFIERS" for t in node.targets)
    )
    assert "check_lemma_3_5" in traced
    for name in (*traced, "pair_batches", "_ring_pair_batches", "minty_sample"):
        assert callable(getattr(certify, name, None)), name
