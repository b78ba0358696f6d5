import ast
from pathlib import Path

import numpy as np
import pytest

from mosk import certify, combine, core, gallery
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
from mosk.exceptions import (
    DimensionMismatch,
    DomainError,
    MoskError,
    StepSizeOutOfRange,
    UnsupportedOperator,
)

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


def test_combinations_reject_mixed_dimensions():
    R2 = gallery.mapping("rotator")
    with pytest.raises(DimensionMismatch):
        convex_combination(IDENT, R2, 0.5)
    with pytest.raises(DimensionMismatch):
        fb_operator(gallery.operator("identity", 1), gallery.operator("zero", 2), 0.5)


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


# The hand-written evaluators the splitting operators had before they were
# composed from core.reflected_map and core.resolvent_map: references that
# the compositions must match bit for bit.
def _ref_pr(A, B):
    ja, jb = A.resolvent, B.resolvent

    def ev(x):
        x = np.asarray(x, dtype=float)
        j = ja(x)
        ra = j + j - x
        k = jb(ra)
        return k + k - ra

    return ev


def _ref_dr(A, B):
    pr = _ref_pr(A, B)
    return lambda x: 0.5 * (np.asarray(x, dtype=float) + pr(x))


def _ref_fb(A, B, gamma):
    gb, a = core.scale(B, gamma), A.direct_eval

    def ev(x):
        x = np.asarray(x, dtype=float)
        return core.resolvent(gb, x - gamma * a(x))

    return ev


TINY = np.finfo(float).tiny
EXTREMES = [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, 1e-310, -2.5e-320,
            TINY, -TINY]
SPLIT_PAIRS = [(a, b) for a in ("cubic", "normal-cone-zero", "zero", "identity",
                                "clamp-sin-op", "quartic-mixed")
               for b in ("cubic", "zero", "identity", "clamp-sin-op", "quartic-mixed")]


def _outcome(f, x):
    """The bits of ``f(x)``, or the type and message of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(f(x), dtype=float)
    except MoskError as exc:
        return type(exc), str(exc)


def _points(dim, seed):
    rng = np.random.default_rng(seed)
    rows = [np.full(dim, v) for v in EXTREMES] + list(rng.normal(size=(8, dim)) * 10.0)
    return rows + [rng.normal(size=(64, dim)) * 100.0]


def _assert_same(got, want, subnormal_ok=False):
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.shape == want.shape
    moved = got.view(np.uint64) != want.view(np.uint64)
    if subnormal_ok:
        # fl(0.5 x + 0.5 y) and fl(0.5 (x + y)) round apart only below tiny
        moved &= ~((np.abs(got) < TINY) & (np.abs(want) < TINY))
    assert not moved.any(), (got[moved], want[moved])


@pytest.mark.parametrize("a,b", SPLIT_PAIRS)
def test_pr_dr_equal_the_hand_written_references(a, b):
    A, B = gallery.operator(a), gallery.operator(b)
    for x in _points(1, 5):
        _assert_same(_outcome(pr_operator(A, B), x), _outcome(_ref_pr(A, B), x))
        _assert_same(_outcome(dr_operator(A, B), x), _outcome(_ref_dr(A, B), x),
                     subnormal_ok=True)


@pytest.mark.parametrize("a,b,dim", [("normal-cone-zero", "shift", 8), ("rotator", "zero", 2),
                                     ("identity", "rotator", 2), ("zero", "normal-cone-zero", 3)])
def test_pr_dr_equal_the_references_in_higher_dimensions(a, b, dim):
    A, B = gallery.operator(a, dim), gallery.operator(b, dim)
    for x in _points(dim, 6):
        _assert_same(_outcome(pr_operator(A, B), x), _outcome(_ref_pr(A, B), x))
        _assert_same(_outcome(dr_operator(A, B), x), _outcome(_ref_dr(A, B), x),
                     subnormal_ok=True)


@pytest.mark.parametrize("b", ["cubic", "zero", "identity", "normal-cone-zero", "clamp-sin-op",
                               "quartic-mixed"])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5])
def test_fb_equals_the_hand_written_reference(b, gamma):
    A, B = gallery.operator("identity"), gallery.operator(b)
    for x in _points(1, 7):
        _assert_same(_outcome(fb_operator(A, B, gamma), x), _outcome(_ref_fb(A, B, gamma), x))


def test_dr_moves_bits_only_below_tiny_and_beyond_overflow():
    # (1 - lam) T1 + lam T2 halves before it adds: it rounds apart from
    # 0.5 * (x + PR x) on subnormals, and stays finite where x + PR x overflows
    N0, Z = gallery.operator("normal-cone-zero"), gallery.operator("zero")
    x = np.array([5e-324, 1e308, -1.5e308])
    assert dr_operator(Z, Z)(x[:1])[0] == 0.0 and _ref_dr(Z, Z)(x[:1])[0] == 5e-324
    with np.errstate(over="ignore"):
        assert np.array_equal(_ref_dr(N0, N0)(x[1:]), [np.inf, -np.inf])
    assert np.array_equal(dr_operator(N0, N0)(x[1:]), x[1:])


def test_fb_checks_the_dimension_of_its_point():
    A, B = gallery.operator("identity", 2), gallery.operator("zero", 2)
    T = fb_operator(A, B, 0.5)
    for fb in (T, _ref_fb(A, B, 0.5)):
        with pytest.raises(DimensionMismatch):
            fb(np.ones(3))
    assert T(np.ones(2)).shape == (2,)


def test_splitting_operators_keep_their_names():
    A, B = gallery.operator("cubic"), gallery.operator("zero")
    assert pr_operator(A, B).name == "PR[cubic,zero]"
    assert dr_operator(A, B).name == "DR[cubic,zero]"
    assert fb_operator(gallery.operator("identity"), B, 0.5).name == "FB[identity,zero;0.5]"


def test_combine_reads_no_resolvent_attribute():
    # the splitting operators reach resolvents only through core's maps
    tree = ast.parse(Path(combine.__file__).read_text(encoding="utf-8"))
    read = [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == "resolvent"]
    assert read == []
