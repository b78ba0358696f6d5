import ast
import importlib
import inspect
import json
import math
import struct
import tracemalloc
import warnings
from dataclasses import replace
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
    # np.random.default_rng would reject it only at the first draw
    with pytest.raises(DomainError, match="seed must be >= 0"):
        SamplerConfig.symmetric(-1, 10, 1, 1.0)


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
    # pairs with x_n = y_n carry no evidence; a family of nothing else is no probe
    same = certify.WitnessFamily("same", lambda n: (np.array([float(n)]),) * 2, n_cap=10)
    with pytest.raises(DomainError, match="x_n != y_n"):
        certify.check_sequential(IDENT, same, "ssne", 10)
    with pytest.raises(DomainError, match="n_max"):
        certify.check_sequential(IDENT, const, "ssne", 0)


def test_empty_given_points_are_domain_errors():
    # a family with no index to probe, and empty sequences of given points
    for cap in (0, -3):
        empty = certify.scaled_pair_family([1.0], [1.0], name="empty", n_cap=cap)
        with pytest.raises(DomainError, match="'empty' has no index"):
            certify.check_sequential(IDENT, empty, "sne", 10)
        with pytest.raises(DomainError, match="'empty' has no index"):
            certify.certify_sequential(IDENT, "strongly-nonexpansive", cfg1(n=100), [empty])
    with pytest.raises(DomainError, match="no graph points"):
        certify.check_growth([])
    with pytest.raises(DomainError, match="no graph points"):
        certify.check_coercive([])
    # an empty batched sample stays vacuous
    none = core.GraphSample(np.empty((0, 2)), np.empty((0, 2)))
    assert certify.check_growth((none, none)).notes.startswith("vacuous")
    assert certify.check_coercive(none).notes.startswith("vacuous")


@pytest.mark.parametrize("mode", ["sne", "ssne"])
def test_check_sequential_fails_closed(mode):
    # exp overflows to inf along the family, so the premise is nan from n = 10:
    # no certificate, not a consistent verdict
    EXP = NonexpansiveMap(1, np.exp, "exp")
    fam = certify.scaled_pair_family([1.0], [1.0], n_cap=40)
    with np.errstate(over="ignore"), pytest.raises(NumericalFailure):
        certify.check_sequential(EXP, fam, mode, 40)
    name = {"sne": "strongly-nonexpansive", "ssne": "super-strongly-nonexpansive"}[mode]
    with np.errstate(over="ignore"), pytest.raises(NumericalFailure):
        certify.certify_sequential(EXP, name, cfg1(), [fam])


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
    gc1 = core.minty_sample(gallery.operator("cubic"), (zc + zc**3).reshape(-1, 1))
    gc2 = core.minty_sample(gallery.operator("cubic"), -(zc + zc**3).reshape(-1, 1))
    rows = [a.reshape(-1, 1) for a in (*gc1, *gc2)]
    g = certify._Geometry(*rows)
    dist, ratios = g.dist, certify.CLASSES["growth-condition"].statistic(g, {})
    assert np.allclose(ratios, dist**2 / 4.0, rtol=1e-8)
    # the estimate is the smallest ratio of the largest-separation decile
    top = np.argsort(dist)[-20:]
    assert certify.check_growth((gc1, gc2)).estimates[0]["value"] == np.min(ratios[top])


def test_graph_checks_take_batches_of_shape_n_dim():
    # one pair of 2-D graph points passed bare is not a batch of scalars
    with pytest.raises(DomainError, match=r"\(n, dim\)"):
        certify.check_growth(gallery.cone_subdiff_witnesses(3))
    with pytest.raises(DomainError, match=r"\(n, dim\)"):
        certify.check_coercive(gallery.cone_subdiff_witnesses(3)[0])
    # in a list it is a pair of the graph, and its witness is that pair
    rep = certify.check_growth([gallery.cone_subdiff_witnesses(3)])
    assert rep.verdict == REFUTED
    assert rep.witness == [[3.0, 0.0], [6.0, 0.0], [3.0, 3.0], [6.0, 0.0]]


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
    phi = certify.Modulus(name="t^4/4")
    rep = certify.check_lemma_3_5(C, phi, cfg1(width=10.0))
    assert rep.estimates[0]["value"] <= 1e-9
    I1 = gallery.operator("identity", 1)
    phi_sq = certify.Modulus(name="t^2")
    rep = certify.check_lemma_3_5(I1, phi_sq, cfg1(width=10.0))
    assert rep.estimates[0]["value"] <= 1e-9  # equality case
    S = gallery.operator("rotator")
    rep = certify.check_lemma_3_5(S, phi_sq, cfg2(width=10.0))
    assert rep.estimates[0]["value"] > 1e-9 and rep.witness is not None


def test_check_lemma_3_5_witness_is_the_statistic():
    # the stored value is the class statistic on the stored pair (x, y)
    S = gallery.operator("rotator")
    phi_sq = certify.Modulus(name="t^2")
    rep = certify.check_lemma_3_5(S, phi_sq, cfg2(n=5_000, width=10.0))
    assert rep.verdict == REFUTED
    x, y = (np.array([p]) for p in rep.witness)
    value = certify.CLASSES["reflected-modulus"].statistic(
        certify._Geometry(x, S.resolvent(x), y, S.resolvent(y)), rep.params)
    assert value[0] == rep.witness_value == rep.estimates[0]["value"]


def test_replay_reflected_modulus():
    # phi is data in the certificate's params, so the witness replays, also
    # from params that went through JSON
    S = gallery.operator("rotator")
    rep = certify.check_lemma_3_5(S, certify.Modulus(name="t^2"), cfg2(n=5_000, width=10.0))
    assert rep.verdict == REFUTED and rep.params["phi"]["name"] == "t^2"
    assert certify.replay(rep, S.resolvent) == rep.witness_value
    loaded = replace(rep, params=json.loads(json.dumps(rep.params)))
    assert certify.replay(loaded, S.resolvent) == rep.witness_value
    # a certificate built by hand without phi cannot replay
    with pytest.raises(DomainError, match="phi"):
        certify.replay(replace(rep, params={}), S.resolvent)


def test_modulus_names_a_closed_form():
    assert certify.Modulus(name="t^4/4").value(2.0) == 4.0
    with pytest.raises(DomainError, match="t\\^3"):
        certify.Modulus(name="t^3")
    # neither a name nor a table: no modulus to evaluate
    with pytest.raises(DomainError, match="name or a table"):
        certify.Modulus()


def test_estimate_modulus_ring_samples_validation():
    A, cfg = gallery.operator("cubic"), cfg1(n=300)
    with pytest.raises(DomainError, match="ring_samples"):
        certify.estimate_modulus(A, [0.5, 1.0], cfg, ring_samples=-1)
    est = certify.estimate_modulus(A, [0.5, 1.0], cfg, ring_samples=0)
    assert all(ring["pairs"] == 0 for ring in est.params["rings"])


def test_replay_needs_a_witness_and_a_known_class():
    c = certify.certify_lipschitz(HALF, cfg1(n=200))
    assert c.witness is None
    with pytest.raises(DomainError, match="no witness"):
        certify.replay(c, HALF)
    with pytest.raises(DomainError, match="no replay rule"):
        certify.replay(replace(c, class_name="mystery", witness=[[1.0], [0.0]]), HALF)


def test_check_lemma_3_5_fails_closed():
    # squares of |x - y| overflow on this box: no certificate, not nan
    phi = certify.Modulus(name="t^4/4")
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


def test_rings_below_the_first_knot_hold_no_pairs():
    # a first knot of 10 leaves the ladder no room on the rings r = 1, 2, 4
    # (2r < 10); they report no pairs and no value, and every later ring
    # that measures pairs at their sampled distance has enough of them
    cfg = cfg1(n=5000, seed=7)
    zero = gallery.operator("zero")
    clamp = gallery.mapping("clamp-sin-map")
    est = certify.estimate_modulus(zero, [10.0, 20.0], cfg)
    cld = certify.certify_cld(clamp, [10.0, 20.0], cfg)
    rep = certify.check_selfdual(zero, cfg, t_list=[10.0, 20.0], eps_list=[10.0, 40.0])
    # A^-1 = N_{0}: its graph pairs all share x, so its rings stay empty
    probes = [(est, "min_product", True), (cld, "sup_ratio", True),
              (rep.modulus_primal, "min_product", True),
              (rep.modulus_inverse, "min_product", False), (rep.cld, "sup_ratio", True)]
    for cert, key, full in probes:
        rings = cert.params["rings"]
        assert len(rings) == certify.RING_COUNT
        assert [(g["radius"], g["pairs"], g[key]) for g in rings[:3]] == [
            (1.0, 0, None), (2.0, 0, None), (4.0, 0, None)]
        if full:
            assert all(g["pairs"] >= certify.MIN_RING_PAIRS for g in rings[3:])
    assert rep.verdicts == (REFUTED, CONSISTENT, REFUTED) and cld.verdict == CONSISTENT
    for cert, target in ((est, None), (rep.modulus_primal, None), (rep.cld, core.reflected_map(zero))):
        assert cert.witness is not None
        assert certify.replay(cert, target) == cert.witness_value


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


# What the benchmark's tracer patches outside mosk.certify, each with the
# leading parameters of its signature (the tracer's counters read arguments
# by position).
TRACED_OUTSIDE_CERTIFY = {
    "core.solve_increasing": ("fun", "target"),
    "core.minty_sample": ("A", "z"),
    "core.scale": ("A", "gamma"),
    "combine.scale": ("A", "gamma"),
    "gallery.solve_increasing": ("fun", "target"),
    "gallery.operator": ("name", "dim"),
    "gallery.mapping": ("name", "dim"),
    "gallery.fenchel_conjugate_1d": ("entry", "xstar"),
    "gallery.clamp_sin_operator_eval": ("x",),
    "gallery.h_value": ("s",),
    "gallery.ScalarInverseSolver.solve": ("self", "value"),
    "split.pr_operator": ("A", "B"),
    "split.dr_operator": ("A", "B"),
    "split.fb_operator": ("A", "B", "gamma"),
    "split.iterate": ("T", "x0", "stop"),
    "split.IterationTrace.write_csv": ("self", "path", "config"),
    "cli.main": ("argv",),
    "cli._write_json": ("path", "payload"),
    "cli.minty_sample": ("A", "z"),
}


def _tracer_patches() -> set:
    """``owner.attribute`` of every ``_patch`` call in the benchmark's tracer,
    with the tuples its ``for`` loops run over substituted."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text())
    tuples = {t.id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
              for t in node.targets if isinstance(t, ast.Name)}
    found = set()

    def visit(node, env):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            it = node.iter
            values = (tuples[it.id] if isinstance(it, ast.Name)
                      else [getattr(e, "id", getattr(e, "value", None)) for e in it.elts])
            for value in values:
                for child in node.body:
                    visit(child, {**env, node.target.id: value})
            return
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_patch"):
            owner, attr = node.args[0], node.args[1]
            owner = env.get(owner.id, owner.id) if isinstance(owner, ast.Name) else ast.unparse(owner)
            attr = env[attr.id] if isinstance(attr, ast.Name) else attr.value
            found.add(f"{owner}.{attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, env)

    visit(tree, {})
    return found


def test_traced_names_outside_certify_keep_their_signatures():
    patched = {name for name in _tracer_patches() if not name.startswith("certify.")}
    assert patched == set(TRACED_OUTSIDE_CERTIFY)
    for name, leading in TRACED_OUTSIDE_CERTIFY.items():
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"mosk.{module}")
        for attr in attrs:
            obj = getattr(obj, attr)
        params = tuple(inspect.signature(obj).parameters)
        assert params[:len(leading)] == leading, name


def test_statistics_run_only_in_the_engine_and_replay():
    # every check measures through _measure, so none skips its fail-closed
    # guard; replay evaluates one witness row
    tree = ast.parse(Path(certify.__file__).read_text())
    callers = set()
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "statistic"):
                callers.add(getattr(top, "name", "<module>"))
    assert callers == {"_measure", "replay"}


# ---------------------------------------------------------------------------
# The row kernels and the samplers against their numpy reference forms
# ---------------------------------------------------------------------------


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _extreme_rows(n, d, seed):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 301, size=(n, d))
    p[::11] = -0.0                   # rows of -0.0 only
    p[3::13, 0] = -0.0
    p[5::17, -1] = np.inf
    p[6::19, 0] = -np.inf
    p[7::23, d // 2] = np.nan
    p[8::29] = 1e300                 # sums that overflow
    return p


@pytest.mark.parametrize("d", range(1, 17))
def test_rowsum_is_numpy_sum_bit_for_bit(d):
    p = _extreme_rows(4000, d, seed=d)
    q = _extreme_rows(4000, d, seed=100 + d)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(_bits(certify._rowsum(p)), _bits(np.sum(p, axis=1)))
        f = np.asfortranarray(p)
        assert np.array_equal(_bits(certify._rowsum(f)), _bits(np.sum(f, axis=1)))
        assert np.array_equal(_bits(certify._sq(p)), _bits(np.sum(p**2, axis=1)))
        assert np.array_equal(_bits(certify._dot(p, q)), _bits(np.sum(p * q, axis=1)))
        assert np.array_equal(_bits(certify._norm(p)), _bits(np.linalg.norm(p, axis=1)))


def _unit_dirs_reference(rng, n, d):
    if d == 1:
        return rng.choice(np.array([-1.0, 1.0]), size=(n, 1))
    v = rng.standard_normal((n, d))
    return v / np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-300)


def _pair_batches_reference(cfg, shell_distances=None):
    # the uniform/resize/concatenate form the sampler replaced
    rng = np.random.default_rng(cfg.seed)
    d, k = cfg.dim, len(certify.STRATEGIES)
    counts = [cfg.sample_count // k] * k
    counts[0] += cfg.sample_count - sum(counts)
    if shell_distances is None or len(shell_distances) == 0:
        ladder = float(np.linalg.norm(cfg.box_high - cfg.box_low)) * 2.0 ** (-np.arange(8.0))
    else:
        ladder = np.asarray(sorted(shell_distances), dtype=float)
    xs, ys = [], []
    for strat, m in zip(certify.STRATEGIES, counts):
        if m <= 0:
            continue
        x = rng.uniform(cfg.box_low, cfg.box_high, size=(m, d))
        xs.append(x)
        if strat == "independent":
            ys.append(rng.uniform(cfg.box_low, cfg.box_high, size=(m, d)))
        elif strat == "antithetic":
            ys.append(-x)
        else:
            dirs = _unit_dirs_reference(rng, m, d)
            ys.append(x + np.resize(ladder, m)[:, None] * dirs)
    return np.concatenate(xs), np.concatenate(ys)


def _ring_pair_batches_reference(rng, dim, dist_floor, ring_base, ring_count, ring_samples):
    rings = []
    for k in range(ring_count):
        r = ring_base * 2.0**k
        if 2.0 * r < dist_floor:
            rings.append((r, None, None))
            continue
        dirs = _unit_dirs_reference(rng, ring_samples, dim)
        x = dirs * (r * (1.0 + rng.random(ring_samples)))[:, None]
        dirs2 = _unit_dirs_reference(rng, ring_samples, dim)
        n_lad = int(np.floor(np.log2(2.0 * r / dist_floor))) + 1
        s = np.resize(dist_floor * 2.0 ** np.arange(n_lad), ring_samples)
        rings.append((r, x, x + s[:, None] * dirs2))
    return rings


def _boxes(d):
    lo = -3.0 - 0.37 * np.arange(d)
    hi = 1e-3 + 2.9 * np.arange(1, d + 1) ** 1.5
    return [(np.full(d, -50.0), np.full(d, 50.0)), (lo, hi)]


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_pair_batches_match_the_uniform_reference(d):
    for box, (lo, hi) in enumerate(_boxes(d)):
        for n in (1, 2, 1001, 20_000):
            cfg = SamplerConfig(seed=31 * d + box + n, sample_count=n, box_low=lo, box_high=hi)
            for shells in (None, [0.5, 3.0, 0.1]):
                X, Y = certify.pair_batches(cfg, shell_distances=shells)
                Xr, Yr = _pair_batches_reference(cfg, shells)
                assert np.array_equal(_bits(X), _bits(Xr)) and np.array_equal(_bits(Y), _bits(Yr))


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_pair_stream_blocks_are_the_reference_rows(d):
    # every block is rows [k * step, (k + 1) * step) of the whole draw; at
    # 3 step + 5 rows block 1 straddles the independent/antithetic boundary
    # (step + 3) and block 2 the antithetic/radial one (2 step + 4)
    step = certify._block_rows(d)
    lo, hi = _boxes(d)[1]
    for n in (1, 2, step - 1, step, step + 1, 3 * step + 5):
        cfg = SamplerConfig(seed=7 * d + n, sample_count=n, box_low=lo, box_high=hi)
        for shells in (None, [0.5, 3.0, 0.1]):
            Xr, Yr = _pair_batches_reference(cfg, shells)
            blocks = list(certify._pair_stream(cfg, shells))
            assert len(blocks) == -(-n // step)
            for k, (x, y) in enumerate(blocks):
                rows = slice(k * step, (k + 1) * step)
                assert np.array_equal(_bits(x), _bits(Xr[rows]))
                assert np.array_equal(_bits(y), _bits(Yr[rows]))


@pytest.mark.parametrize("d", [1, 3])
def test_radial_shells_on_a_1e200_box_are_finite(d):
    # the plain norm of the box diagonal overflows from about 1.3e154 on
    cfg = SamplerConfig.symmetric(0, 20_000, d, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X, Y = certify.pair_batches(cfg)
    radial = slice(20_000 - 20_000 // 3, None)
    sep = Y[radial] - X[radial]
    assert np.isfinite(sep).all()
    top = np.max(np.abs(sep), axis=1)
    ladder = 2e200 * np.sqrt(d) * 2.0 ** -np.arange(8.0)
    assert np.allclose(top * np.linalg.norm(sep / top[:, None], axis=1),
                       certify._cycle(ladder, len(top)), rtol=1e-12)
    # a finite plain norm keeps its bits
    box = SamplerConfig.symmetric(0, 1, d, 1e150)
    assert certify._diagonal(box.box_low, box.box_high) == np.linalg.norm(2e150 * np.ones(d))


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_ring_pair_batches_match_the_resize_reference(d):
    for floor, samples in ((0.5, 2048), (3.0, 1000), (1e3, 7)):
        got = certify._ring_pair_batches(np.random.default_rng(d), d, floor, samples)
        ref = _ring_pair_batches_reference(np.random.default_rng(d), d, floor, certify.RING_BASE,
                                           certify.RING_COUNT, samples)
        assert len(got) == len(ref)
        for (r, x, y), (rr, xr, yr) in zip(got, ref):
            assert r == rr
            if xr is None:
                assert x.shape == y.shape == (0, d)
            else:
                assert np.array_equal(_bits(x), _bits(xr)) and np.array_equal(_bits(y), _bits(yr))


# The row kernels against the broadcast forms they replaced, bit for bit


@pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
def test_uniform_is_rng_uniform_bit_for_bit(d):
    signed = (np.where(np.arange(d) % 2, -0.0, 0.0), np.full(d, 1e-300))
    wide = (np.full(d, -1e300), np.full(d, 1e300))
    for lo, hi in [*_boxes(d), signed, wide]:
        bounds = certify._box_bounds(lo, hi)
        # a box the same in every coordinate is scaled by floats, others by rows
        same = d == 1 or lo[0] == lo[1] and hi[0] == hi[1]
        assert all(type(b) is (float if same else np.ndarray) for b in bounds)
        for n in (0, 1, 7, 4096):
            got = np.empty((n, d))
            certify._uniform(np.random.default_rng(n + d), got, *bounds)
            want = np.random.default_rng(n + d).uniform(lo, hi, (n, d))
            assert np.array_equal(_bits(got), _bits(want))


def _scale_factors(n, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, size=n)
    c[::7], c[1::11], c[2::13], c[3::17] = -0.0, 0.0, np.inf, np.nan
    c[4::19], c[5::23] = 5e-324, -np.inf
    return c


@pytest.mark.parametrize("d", range(1, 10))
def test_scale_rows_is_the_row_broadcast_bit_for_bit(d):
    c = _scale_factors(3000, seed=d)
    for order in "CF":
        v = np.array(_extreme_rows(3000, d, seed=50 + d), order=order)
        v[9::31] = -5e-324  # subnormal rows
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            for divide in (False, True):
                got = v.copy(order=order)
                assert certify._scale_rows(got, c, divide=divide) is got
                want = v / c[:, None] if divide else v * c[:, None]
                assert np.array_equal(_bits(got), _bits(want)), (order, divide)


def test_points_are_the_lists_of_python_floats_of_before():
    rows = [np.array([1.5, -0.0, np.nan, -np.inf, 5e-324]), np.float64(-2.5), np.array(3.0),
            np.arange(3), np.array([0.1, -7.0], dtype=np.float32), np.empty(0)]
    got = certify._points(*rows)
    want = [[float(v) for v in np.atleast_1d(a)] for a in rows]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is list and all(type(v) is float for v in g)
        assert [struct.pack("<d", v) for v in g] == [struct.pack("<d", v) for v in w]


def test_row_reductions_only_in_rowsum_and_no_resize():
    # np.sum / np.linalg.norm over rows and a [:, None] row broadcast loop per
    # row in numpy; the row kernels are column adds (_rowsum) and column
    # scaling (_scale_rows), and np.resize is a slow cycle
    tree = ast.parse(Path(certify.__file__).read_text())
    bad = []
    for top in tree.body:
        for node in ast.walk(top):
            name = ast.unparse(node) if isinstance(node, ast.Attribute) else None
            if name == "np.resize":
                bad.append((node.lineno, name))
            if (isinstance(node, ast.Subscript) and ast.unparse(node).endswith("[:, None]")
                    and getattr(top, "name", None) != "_scale_rows"):
                bad.append((node.lineno, ast.unparse(node)))
            if (isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.sum", "np.linalg.norm")
                    and any(kw.arg == "axis" for kw in node.keywords)
                    and getattr(top, "name", None) != "_rowsum"):
                bad.append((node.lineno, ast.unparse(node.func)))
    assert bad == []


# ---------------------------------------------------------------------------
# The block engine against the whole-batch reductions it replaced
# ---------------------------------------------------------------------------


def _measure_reference(name, arrays, graph, params=None):
    # the whole batch measured at once; a batch is (points, keep, dist, value)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = certify._Geometry(*arrays)
        dist, value = g.dist, certify.CLASSES[name].statistic(g, params)
    keep = dist > 0
    if not np.all(np.isfinite(dist)):
        raise NumericalFailure(f"non-finite {name} distance on the sampled pairs")
    if np.all(keep):
        keep = None
    else:
        dist, value = dist[keep], value[keep]
    if not np.all(np.isfinite(value)):
        raise NumericalFailure(f"non-finite {name} statistic on the sampled pairs")
    return (arrays if graph else arrays[::2], keep, dist, value)


def _extreme_reference(name, batches, select=None):
    # one reduction per selection over the batches' concatenation
    pick, best, count = certify.CLASSES[name].extreme, certify._EMPTY, 0
    for points, keep, dist, value in batches:
        mask = None if select is None else select(dist)
        vals = value if mask is None else value[mask]
        if vals.size == 0:
            continue
        count += vals.size
        j = int(pick(vals))
        if best.value is None or pick([best.value, vals[j]]) == 1:
            row = j if mask is None else np.flatnonzero(mask)[j]
            row = row if keep is None else np.flatnonzero(keep)[row]
            best = certify._Extreme(float(vals[j]), certify._points(*(a[row] for a in points)), 0)
    return best._replace(count=count)


BLOCK = certify._block_rows(1)


def _tied_pairs(n, seed):
    # pairs on an integer grid: distances and ratios repeat, so the worst
    # value ties across blocks; every 7th pair has x = y
    rng = np.random.default_rng(seed)
    X = rng.integers(-4, 5, size=(n, 1)).astype(float)
    Y = rng.integers(-4, 5, size=(n, 1)).astype(float)
    Y[3::7] = X[3::7]
    return X, Y


def _quantized(x):
    return np.floor(0.5 * x)


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("name, graph", [("contraction-large-distances", False),
                                         ("uniformly-monotone", True)])
def test_engine_matches_the_whole_batch_reference(n, name, graph):
    main = _tied_pairs(n, seed=n)
    # an empty ring and rings below, at and above MIN_RING_PAIRS
    rings = [_tied_pairs(m, seed=n + m) for m in (0, 10, certify.MIN_RING_PAIRS, 300)]
    knots = [0.5, 1.0, 2.0, 4.0, 1e6]  # nothing reaches the last knot
    lift = lambda x, y: (x, _quantized(x), y, _quantized(y))  # noqa: E731
    every, bins, shells = certify._Worst(), certify._Worst(knots), certify._Worst(knots, True)
    ends = [certify._Worst(knots[:1]) for _ in rings]
    folds = [[every, bins, shells]] + [[shells, e] for e in ends]
    certify._measure([certify._Probe(name, graph, folds)],
                     [certify._blocks(*b) for b in [main] + rings], lift)

    batches = [_measure_reference(name, lift(x, y), graph) for x, y in [main] + rings]
    edges = knots + [np.inf]
    assert every.found == [_extreme_reference(name, batches[:1])]
    assert bins.found == [
        _extreme_reference(name, batches[:1], lambda d, lo=lo, hi=hi: (d >= lo) & (d < hi))
        for lo, hi in zip(edges, edges[1:])]
    assert shells.found == [_extreme_reference(name, batches, lambda d, e=e: d >= e)
                            for e in knots]
    assert [e.found[0] for e in ends] == [_extreme_reference(name, [b], lambda d: d >= knots[0])
                                          for b in batches[1:]]
    assert bins.found[-1] == certify._EMPTY and ends[0].found[0] == certify._EMPTY
    if n > 2 * BLOCK:  # the worst value recurs in later blocks, where the first one must win
        _, keep, _, value = batches[0]
        rows = np.arange(n) if keep is None else np.flatnonzero(keep)
        pick = certify.CLASSES[name].extreme
        assert np.any(rows[value == value[pick(value)]] >= BLOCK)


# The class statistics as they were before the pair geometry: each builds
# x - y, u - v and |x - y| itself and returns (distance, value).


def _ref_ratio(x, u, y, v, params):
    dist = certify._norm(x - y)
    return dist, certify._norm(u - v) / dist


def _ref_firm(x, u, y, v, params):
    d2 = certify._sq(x - y)
    return np.sqrt(d2), certify._sq(u - v) + certify._sq((x - u) - (y - v)) - d2


def _ref_averaged(x, u, y, v, params):
    a, d2 = params["alpha"], certify._sq(x - y)
    return np.sqrt(d2), ((1.0 - a) * certify._sq((x - u) - (y - v))
                         - a * (d2 - certify._sq(u - v)))


def _ref_product(x, u, y, v, params):
    dx = x - y
    return certify._norm(dx), certify._dot(dx, u - v)


def _ref_sigma(x, u, y, v, params):
    dx = x - y
    d2 = certify._sq(dx)
    return np.sqrt(d2), certify._dot(dx, u - v) / d2


def _ref_slope(x, u, y, v, params):
    dx = x - y
    dist = certify._norm(dx)
    return dist, certify._dot(dx, u - v) / dist


def _ref_reflected_modulus(x, u, y, v, params):
    d2 = certify._sq(x - y)
    phi = certify.Modulus(**params["phi"]).value(certify._norm(u - v))
    return np.sqrt(d2), 4.0 * phi - (d2 - certify._sq((2.0 * u - x) - (2.0 * v - y)))


def _ref_sne(x, u, y, v, params):
    b = certify._norm(x - y)
    return b, b - certify._norm(u - v)


def _ref_ssne(x, u, y, v, params):
    b, tb = certify._norm(x - y), certify._norm(u - v)
    return b, b * b - tb * tb


_REF_STATISTICS = {f.__name__[4:]: f for f in (
    _ref_ratio, _ref_firm, _ref_averaged, _ref_product, _ref_sigma, _ref_slope,
    _ref_reflected_modulus, _ref_sne, _ref_ssne)}


def _geometry_rows(dim, seed):
    """(x, u, y, v) of 40 pairs: random rows with special values strewn in,
    and rows of x = y, of signed zeros, of subnormals, of +-1e300 (whose
    squares overflow) and with a NaN."""
    rng = np.random.default_rng(seed)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]
    x, u, y, v = (rng.standard_normal((40, dim)) * 10.0 ** rng.integers(-3, 4, (40, 1))
                  for _ in range(4))
    for a in (x, u, y, v):
        a.flat[rng.integers(0, a.size, 2 * dim)] = rng.choice(special, 2 * dim)
    y[0] = x[0]
    x[1], y[1], u[1], v[1] = -0.0, 0.0, 0.0, -0.0
    x[2], y[2], u[2], v[2] = 5e-324, -5e-324, -5e-324, 5e-324
    x[3], y[3], u[3] = 1e300, -1e300, 1e300
    u[4, dim // 2] = np.nan
    y[5, 0] = np.nan
    return x, u, y, v


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9, 15, 16, 17])
@pytest.mark.parametrize("order", ["C", "F"])
def test_statistics_on_the_geometry_are_the_old_kernels_bit_for_bit(dim, order):
    params = {"alpha": 0.3, "phi": {"name": "t^4/4", "table": (), "supercoercive_bound": 0.5}}
    table = {**params,
             "phi": {"name": None, "table": ((0.5, 0.1), (2.0, 3.0)), "supercoercive_bound": None}}
    arrays = tuple(np.asarray(a, order=order) for a in _geometry_rows(dim, seed=dim))
    assert all(a.flags[f"{order}_CONTIGUOUS"] for a in arrays)
    # the whole batch, and single rows as replay measures a witness
    batches = [arrays] + [tuple(a[i:i + 1] for a in arrays) for i in range(6)]
    names = set()
    for spec in certify.CLASSES.values():
        ref = _REF_STATISTICS[spec.statistic.__name__]
        names.add(spec.statistic.__name__)
        for p in (params, table):
            for batch in batches:
                with np.errstate(all="ignore"):
                    want_dist, want = ref(*batch, p)
                    g = certify._Geometry(*batch)
                    got = spec.statistic(g, p)
                assert g.dist.tobytes() == want_dist.tobytes(), spec.statistic.__name__
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (spec.statistic.__name__, dim, order)
    assert names == set(_REF_STATISTICS)


def _srg(g):
    """The scaled-relative-graph point of each pair of a geometry, the input
    difference d and the output difference w, as (Re z, |Im z|): Re z =
    <d, w>/|d|^2 and |Im z| = |w_perp|/|d| for the part w_perp of w
    orthogonal to d, which keeps its digits where sqrt(|d|^2|w|^2 - <d, w>^2)
    cancels."""
    re = certify._dot(g.d, g.w) / g.dd
    return re, certify._norm(g.w - re[:, None] * g.d) / g.dist


@pytest.mark.parametrize("name", [n for n in gallery.names()
                                  if "operator" in gallery.entry(n).kinds])
def test_reflected_resolvent_srg_is_the_moebius_image_of_the_operators(name):
    # graph points (J_A x, a_x) with a_x = x - J_A x: the pair (p, q) with
    # p = J_A x - J_A y, q = a_x - a_y has x - y = p + q and R_A x - R_A y =
    # p - q, so R_A's point is (1 - z)/(1 + z) for A's point z, up to
    # conjugation (Ryu, Hannah & Yin, Math. Program. 194, 2022)
    A = gallery.operator(name, 8 if name == "shift" else None)
    rng = np.random.default_rng(13)
    x, y = (rng.uniform(-50.0, 50.0, (20_000, A.dim)) for _ in range(2))
    gx, gy, R = core.minty_sample(A, x), core.minty_sample(A, y), core.reflected_map(A)
    graph = certify._Geometry(gx.x, gx.xstar, gy.x, gy.xstar)
    keep = graph.dist > 0
    if name == "normal-cone-zero":  # J_A is 0: no pair has J_A x != J_A y
        assert not keep.any()
        return
    assert keep.all()
    re, im = _srg(graph)
    moebius = (1.0 - (re + 1j * im)) / (1.0 + (re + 1j * im))
    reflected = certify._Geometry(x, R(x), y, R(y))
    re_r, im_r = _srg(reflected)
    err = np.maximum(np.abs(moebius.real - re_r), np.abs(np.abs(moebius.imag) - im_r))
    # d, p and q carry rounding of about eps (|x| + |y|), relative to |d|, and
    # the map z -> (1 - z)/(1 + z) has slope 2/|1 + z|^2 <= 2 for Re z >= 0;
    # the largest error seen is 2 such units (cubic, 5.8e-13)
    bound = 8.0 * np.finfo(float).eps * (certify._norm(x) + certify._norm(y)) / reflected.dist
    assert (err <= bound).all(), (name, float(np.max(err / bound)))


def test_engine_raises_an_earlier_value_before_a_later_distance():
    n = 3 * BLOCK + 5
    X, Y = np.ones((n, 1)), np.zeros((n, 1))
    U, V = 0.5 * X, 0.5 * Y
    U[5] = np.nan                     # block 0: a non-finite ratio
    X[2 * BLOCK + 3] = 1e300          # block 2: |x - y|^2 overflows
    probe = certify._Probe("nonexpansive", False, [[certify._Worst()]] * 2)
    lifted = []

    def lift(*block):
        lifted.append(len(block[0]))
        return block

    with np.errstate(over="ignore"):
        with pytest.raises(NumericalFailure, match="non-finite nonexpansive statistic"):
            certify._measure([probe], [certify._blocks(X, U, Y, V)] * 2, lift)
        assert len(lifted) == 1  # the first non-finite number stops the run
        U[5] = 0.5
        lifted.clear()
        with pytest.raises(NumericalFailure, match="non-finite nonexpansive distance"):
            certify._measure([probe], [certify._blocks(X, U, Y, V)] * 2, lift)
        assert len(lifted) == 3


def test_engine_raises_the_first_failing_probe_of_the_first_failing_block():
    # the first probe's value fails in the second batch, the second probe's
    # distance in the first: the first batch's failure raises
    draw = [certify._blocks(np.ones((10, 1)), np.zeros((10, 1))),
            certify._blocks(np.full((10, 1), 7.0), np.zeros((10, 1)))]
    half = lambda x: np.where(x == 7.0, np.nan, 0.5 * x)  # noqa: E731
    first = certify._Probe("nonexpansive", False, [[certify._Worst()]] * 2,
                           arrays=lambda x, y: (x, half(x), y, half(y)))
    second = certify._Probe("strongly-monotone", False, [[certify._Worst()]] * 2,
                            arrays=lambda x, y: (1e200 * x, x, 1e200 * y, y))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalFailure, match="non-finite strongly-monotone distance"):
            certify._measure([first, second], draw)
        with pytest.raises(NumericalFailure, match="non-finite nonexpansive statistic"):
            certify._measure([first, second], draw[1:])


# ---------------------------------------------------------------------------
# Memory: a certifier holds one block and its scale rings
# ---------------------------------------------------------------------------


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [100_000, 1_000_000])
@pytest.mark.parametrize("case", ["lipschitz-shift", "modulus-cubic", "selfdual-cubic"])
def test_certifier_peak_is_one_block_plus_its_rings(case, n):
    ring_bytes = 0
    if case == "lipschitz-shift":
        cfg, T = SamplerConfig.symmetric(1, n, 8, 50.0), gallery.mapping("shift", 8)
        run = lambda: certify.certify_lipschitz(T, cfg)  # noqa: E731
    else:
        cfg, A = SamplerConfig.symmetric(1, n, 1, 50.0), gallery.operator("cubic")
        rings = certify._ring_pair_batches(np.random.default_rng(cfg.seed + 1), 1, 0.5,
                                           certify.RING_SAMPLES)
        ring_bytes = sum(x.nbytes + y.nbytes for _, x, y in rings)
        del rings
        run = ((lambda: certify.estimate_modulus(A, certify.PROBES, cfg)) if case == "modulus-cubic"
               else (lambda: certify.check_selfdual(A, cfg)))
    assert _traced_peak(run) <= ring_bytes + 2 * 2**20
