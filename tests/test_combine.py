import numpy as np
import pytest

from mosk import certify, core, gallery
from mosk.combine import (
    compose,
    convex_combination,
    dr_operator,
    fb_operator,
    negate,
    pr_operator,
    predicted_sign,
)
from mosk.core import NonexpansiveMap
from mosk.exceptions import DimensionMismatch, DomainError, StepSizeOutOfRange, UnsupportedOperator

IDENT = NonexpansiveMap(1, lambda x: np.asarray(x, float), "id")
NEG = NonexpansiveMap(1, lambda x: -np.asarray(x, float), "neg")
HALF = NonexpansiveMap(1, lambda x: 0.5 * np.asarray(x, float), "half")


def test_compose_examples():
    assert compose([IDENT, IDENT])(np.array([3.0]))[0] == 3.0
    got = compose([NEG, HALF])(np.array([4.0]))
    assert got[0] == -2.0
    N0 = gallery.operator("normal-cone-zero", 1)
    Z = gallery.operator("zero", 1)
    T = compose([core.reflected_map(N0), core.reflected_map(Z)])
    xs = np.linspace(-3, 3, 7).reshape(-1, 1)
    assert np.allclose(T(xs), -xs)
    with pytest.raises(DomainError):
        compose([])
    with pytest.raises(DimensionMismatch):
        compose([IDENT, gallery.mapping("rotator")])


def test_compose_associativity():
    rng = np.random.default_rng(3)
    T1, T2, T3 = HALF, NEG, gallery.mapping("clamp-sin-map")
    xs = rng.uniform(-10, 10, size=(200, 1))
    left = compose([compose([T1, T2]), T3])
    right = compose([T1, compose([T2, T3])])
    assert np.max(np.abs(left(xs) - right(xs))) <= 1e-12


@pytest.mark.parametrize(
    "signs,expected",
    [((-1, -1), 1), ((-1, 1), -1), ((-1, -1, -1), -1), ((1, 1), 1)],
)
def test_predicted_sign(signs, expected):
    assert predicted_sign(signs) == expected


def test_predicted_sign_validation():
    with pytest.raises(DomainError):
        predicted_sign([1, 0])
    with pytest.raises(DomainError):
        predicted_sign([])


def test_convex_combination_examples():
    zero = convex_combination(IDENT, NEG, 0.5)
    xs = np.linspace(-2, 2, 9).reshape(-1, 1)
    assert np.allclose(zero(xs), 0.0)
    N0 = gallery.operator("normal-cone-zero", 1)
    Z = gallery.operator("zero", 1)
    dr = convex_combination(IDENT, pr_operator(N0, Z), 0.5)
    assert np.allclose(dr(xs), 0.0)
    clamp = gallery.mapping("clamp-sin-map")
    same = convex_combination(clamp, clamp, 0.5)
    assert np.allclose(same(xs), clamp(xs))
    with pytest.raises(DomainError):
        convex_combination(IDENT, NEG, 1.0)


def test_pr_operator_examples():
    N0 = gallery.operator("normal-cone-zero", 1)
    Z = gallery.operator("zero", 1)
    xs = np.linspace(-4, 4, 9).reshape(-1, 1)
    assert np.allclose(pr_operator(N0, Z)(xs), -xs)
    assert np.allclose(pr_operator(Z, Z)(xs), xs)
    # shift-based second operator gives the right shift
    N = 8
    A = gallery.operator("normal-cone-zero", N)
    B = gallery.operator("shift", N)
    T = pr_operator(A, B)
    e1 = np.zeros(N)
    e1[0] = 1.0
    assert np.allclose(T(e1), gallery.shift_eval(e1))


def test_dr_operator_examples():
    N0 = gallery.operator("normal-cone-zero", 1)
    Z = gallery.operator("zero", 1)
    xs = np.linspace(-4, 4, 9).reshape(-1, 1)
    assert np.allclose(dr_operator(N0, Z)(xs), 0.0)
    assert np.allclose(dr_operator(Z, Z)(xs), xs)
    C = gallery.operator("cubic")
    I1 = gallery.operator("identity", 1)
    assert dr_operator(C, I1)(np.array([2.0]))[0] == pytest.approx(1.0, abs=1e-12)


def test_dr_equals_half_identity_plus_pr():
    C = gallery.operator("cubic")
    Q = gallery.operator("quartic-mixed")
    rng = np.random.default_rng(4)
    xs = rng.uniform(-50, 50, size=(500, 1))
    dr = dr_operator(C, Q)(xs)
    comb = convex_combination(IDENT, pr_operator(C, Q), 0.5)(xs)
    assert np.max(np.abs(dr - comb)) <= 1e-14 * (1 + np.max(np.abs(xs)))


def test_fb_operator_examples():
    I1 = gallery.operator("identity", 1)
    C = gallery.operator("cubic")
    T = fb_operator(I1, C, 1.0)
    xs = np.linspace(-5, 5, 11)
    assert np.max(np.abs(T(xs))) <= 1e-10  # x - x = 0, J(0) = 0
    with pytest.raises(StepSizeOutOfRange):
        fb_operator(I1, C, 2.5)
    with pytest.raises(StepSizeOutOfRange):
        fb_operator(I1, C, 0.0)
    Z = gallery.operator("zero", 1)
    T = fb_operator(I1, Z, 0.5)
    assert np.allclose(T(xs), xs / 2.0)
    # forward operator must declare cocoercivity and expose direct eval
    with pytest.raises(UnsupportedOperator):
        fb_operator(gallery.operator("normal-cone-zero", 1), C, 0.5)
    with pytest.raises(UnsupportedOperator):
        fb_operator(gallery.operator("cubic"), Z, 0.5)


def test_cld_absorption_through_composition():
    # composing the clamped sine with the one-dimensional isometry -Id keeps
    # the contraction-for-large-distances profile
    clamp = gallery.mapping("clamp-sin-map")
    for maps in ([NEG, clamp], [clamp, NEG]):
        T = compose(maps)
        cfg = certify.SamplerConfig.symmetric(seed=31, sample_count=50_000, dim=1, half_width=50.0)
        c = certify.certify_cld(T, [1.0, 5.0], cfg)
        assert c.verdict == certify.CONSISTENT
        assert all(row["value"] < 1.0 for row in c.estimates)


def test_sign_rule_empirical_battery():
    # -R_A is SSNE-declared for the cubic; the predicted sign of the
    # singleton battery is -1 and the sequential probe agrees: the signed
    # composition passes while the opposite sign is refuted.
    C = gallery.operator("cubic")
    RA = core.reflected_map(C)
    assert predicted_sign([-1]) == -1
    fam = certify.scaled_pair_family([1.0], [1.3], n_cap=45)
    good = certify.check_sequential(negate(RA), fam, "ssne", 45)
    bad = certify.check_sequential(RA, fam, "ssne", 45)
    assert good.verdict == certify.CONSISTENT and bad.verdict == certify.REFUTED
    # two negative declarations compose to a plus: R_B R_A with B the
    # clamp-sin operator passes the battery under the predicted +1 sign
    B = gallery.operator("clamp-sin-op")
    RB = core.reflected_map(B)
    assert predicted_sign([-1, -1]) == 1
    T = compose([RA, RB])
    rep = certify.check_sequential(T, fam, "ssne", 45)
    assert rep.verdict == certify.CONSISTENT
