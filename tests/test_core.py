import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mosk import core, gallery
from mosk.exceptions import (
    DimensionMismatch,
    DomainError,
    NumericalFailure,
    UnsupportedOperator,
)

RNG = np.random.default_rng(20240517)


def test_as_point_validation():
    p = core.as_point([1.0, 2.0])
    assert p.shape == (1, 2)[1:] or p.shape == (2,)
    with pytest.raises(DomainError):
        core.as_point([np.nan, 0.0])
    with pytest.raises(DomainError):
        core.as_point([np.inf])
    with pytest.raises(DimensionMismatch):
        core.as_point([1.0, 2.0], dim=3)
    with pytest.raises(DomainError, match="1-D"):
        core.as_point([[1.0, 2.0]])


@pytest.mark.parametrize("x,expected", [(2.0, 1.0), (0.0, 0.0), (10.0, 2.0)])
def test_resolvent_cubic_examples(x, expected):
    A = gallery.operator("cubic")
    assert core.resolvent(A, x) == pytest.approx(expected, abs=1e-12)


def test_reflected_resolvent_examples():
    N0 = gallery.operator("normal-cone-zero", 3)
    x = np.array([1.0, -2.0, 0.5])
    assert np.allclose(core.reflected_resolvent(N0, x), -x)
    Z = gallery.operator("zero", 3)
    assert np.allclose(core.reflected_resolvent(Z, x), x)
    C = gallery.operator("cubic")
    assert core.reflected_resolvent(C, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_invert_examples():
    C = gallery.operator("cubic")
    assert core.resolvent(core.invert(C), 2.0) == pytest.approx(1.0, abs=1e-12)
    N0 = gallery.operator("normal-cone-zero", 2)
    x = np.array([3.0, -4.0])
    assert np.allclose(core.resolvent(core.invert(N0), x), x)
    S = gallery.operator("rotator")
    xs = RNG.normal(size=(50, 2))
    want = 0.5 * (xs + gallery.rotator_eval(xs))
    assert np.allclose(core.resolvent(core.invert(S), xs), want, atol=1e-14)
    with pytest.raises(DimensionMismatch):
        core.resolvent(S, [1.0, 2.0, 3.0])


def test_invert_roundtrip_and_properties():
    I1 = gallery.operator("identity", 2)
    inv = core.invert(I1)
    assert inv.declared("cocoercive") == 1.0
    assert inv.declared("strongly-monotone") == 1.0
    back = core.invert(inv)
    x = RNG.normal(size=(10, 2))
    assert np.allclose(back.resolvent(x), I1.resolvent(x))
    assert back.direct_eval is not None


def test_from_neg_reflected_staircase_point():
    T = gallery.mapping("staircase")
    A = core.from_neg_reflected(T)
    got = core.resolvent(A, np.array([2.0, 0.0]))
    want = np.array([(2.0 - np.sqrt(3.0)) / 2.0, -np.sqrt(3.0) / 4.0])
    assert np.allclose(got, want, atol=1e-14)
    # zero fixed point
    assert np.allclose(core.resolvent(A, np.array([0.0, 0.0])), 0.0)


def test_from_neg_reflected_clamp_sin():
    T = gallery.mapping("clamp-sin-map")
    A = core.from_neg_reflected(T)
    assert core.resolvent(A, np.pi / 2) == pytest.approx((np.pi / 2 - 1.0) / 2.0, abs=1e-14)


def test_from_firmly_nonexpansive():
    half = core.NonexpansiveMap(1, lambda x: 0.5 * np.asarray(x, float), "half")
    A = core.from_firmly_nonexpansive(half)
    # J(x) = x/2 is the identity operator's resolvent
    xs = np.linspace(-5, 5, 11)
    assert np.allclose(core.resolvent(A, xs), xs / 2)
    zero_map = core.NonexpansiveMap(1, lambda x: np.zeros_like(np.asarray(x, float)), "0")
    A0 = core.from_firmly_nonexpansive(zero_map)
    assert np.allclose(core.resolvent(A0, xs), 0.0)
    ident = core.NonexpansiveMap(1, lambda x: np.asarray(x, float), "id")
    Aid = core.from_firmly_nonexpansive(ident)
    assert np.allclose(core.resolvent(Aid, xs), xs)


def test_minty_sample_examples():
    C = gallery.operator("cubic")
    gs = core.minty_sample(C, 2.0)
    assert gs.x == pytest.approx(1.0, abs=1e-12)
    assert gs.xstar == pytest.approx(1.0, abs=1e-12)
    N0 = gallery.operator("normal-cone-zero", 1)
    gs = core.minty_sample(N0, np.array([5.0]))
    assert gs.x[0] == 0.0 and gs.xstar[0] == 5.0
    A = gallery.operator("clamp-sin-op")
    gs = core.minty_sample(A, np.pi / 2)
    assert gs.x == pytest.approx((np.pi / 2 - 1.0) / 2.0, abs=1e-12)
    assert gs.xstar == pytest.approx((np.pi / 2 + 1.0) / 2.0, abs=1e-12)


def test_minty_identity_sampled():
    # residual <= 1e-8 for every direct-eval operator, 1e4 z each
    rng = np.random.default_rng(7)
    ops = [
        gallery.operator("cubic"),
        gallery.operator("zero", 2),
        gallery.operator("identity", 2),
        gallery.operator("rotator"),
        gallery.operator("clamp-sin-op"),
        gallery.operator("quartic-mixed"),
    ]
    for A in ops:
        z = rng.uniform(-40, 40, size=(10_000, A.dim))
        gs = core.minty_sample(A, z)
        res = np.linalg.norm(
            np.atleast_2d(gs.x + A.direct_eval(gs.x) - z), axis=-1
        )
        assert res.max() <= 1e-8, A.name


def test_graph_monotonicity_sampled():
    rng = np.random.default_rng(8)
    for name, dim in [("cubic", 1), ("rotator", 2), ("clamp-sin-op", 1), ("staircase", 2)]:
        A = gallery.operator(name, dim if name != "cubic" else None)
        z1 = rng.uniform(-30, 30, size=(2000, A.dim))
        z2 = rng.uniform(-30, 30, size=(2000, A.dim))
        g1, g2 = core.minty_sample(A, z1), core.minty_sample(A, z2)
        prod = np.sum((g1.x - g2.x) * (g1.xstar - g2.xstar), axis=-1)
        assert prod.min() >= -1e-10, name


def test_reflection_duality_pointwise():
    rng = np.random.default_rng(9)
    for name, dim in [("cubic", None), ("rotator", None), ("clamp-sin-op", None), ("identity", 3)]:
        A = gallery.operator(name, dim)
        x = rng.uniform(-20, 20, size=(500, A.dim))
        s = core.reflected_resolvent(core.invert(A), x) + core.reflected_resolvent(A, x)
        assert np.max(np.abs(s)) <= 1e-12, name


def test_fixed_point_identity():
    for name in ("cubic", "clamp-sin-op"):
        A = gallery.operator(name)
        zero = np.array([0.0])
        assert np.linalg.norm(core.resolvent(A, zero) - zero) <= 1e-10
        assert np.linalg.norm(core.reflected_resolvent(A, zero) - zero) <= 1e-10


@pytest.mark.parametrize(
    "a,x,expected",
    [
        (gallery.quartic_mixed_fprime, 2.5, 1.0),
        (lambda y: np.asarray(y, float) ** 3, 10.0, 2.0),
        (lambda y: np.asarray(y, float), 4.0, 2.0),
    ],
)
def test_solve_scalar_monotone_examples(a, x, expected):
    y = core.solve_scalar_monotone(a, x)
    assert y == pytest.approx(expected, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    x=st.floats(-100.0, 100.0),
    c1=st.floats(0.0, 5.0),
    c3=st.floats(0.0, 5.0),
)
def test_solve_scalar_monotone_residual_property(x, c1, c3):
    a = lambda t: c1 * t + c3 * t**3
    y = core.solve_scalar_monotone(a, x)
    assert abs(y + a(y) - x) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(
    exponent=st.floats(-3.0, 15.0),
    negative=st.booleans(),
    gamma=st.floats(0.0, 3.0, exclude_min=True),
)
def test_root_found_scaled_resolvent_returns_at_every_magnitude(exponent, negative, gamma):
    # clamp-sin-op has no scaled closed form: core.scale root-finds it, and
    # from |x| ~ 1e5 up one ulp of x exceeds TOL_RESOLVENT_ROOT
    A = gallery.operator("clamp-sin-op")
    x = -(10.0**exponent) if negative else 10.0**exponent
    y = core.resolvent(core.scale(A, gamma), x)
    assert abs(y + gamma * A.direct_eval(y) - x) <= max(1e-10, 4.0 * np.spacing(abs(x)))


def test_scale_examples():
    N0 = gallery.operator("normal-cone-zero", 1)
    assert core.resolvent(core.scale(N0, 7.0), 3.0) == 0.0
    I1 = gallery.operator("identity", 1)
    assert core.resolvent(core.scale(I1, 3.0), 4.0) == pytest.approx(1.0, abs=1e-14)
    C = gallery.operator("cubic")
    assert core.resolvent(core.scale(C, 2.0), 3.0) == pytest.approx(1.0, abs=1e-10)
    # gamma = 1 returns the operator unchanged
    assert core.scale(C, 1.0) is C
    with pytest.raises(DomainError):
        core.scale(C, -0.5)
    # an infinite factor would give a resolvent of NaN
    for gamma in (np.inf, np.nan):
        with pytest.raises(DomainError, match="finite"):
            core.scale(C, gamma)


def test_scale_unsupported():
    A = core.MonotoneOperator(dim=2, resolvent=lambda x: 0.5 * np.asarray(x, float))
    with pytest.raises(UnsupportedOperator):
        core.scale(A, 2.0)


def test_scale_quartic_root_found():
    Q = gallery.operator("quartic-mixed")
    g = 0.7
    B = core.scale(Q, g)
    x = np.linspace(-8, 8, 101)
    y = core.resolvent(B, x)
    assert np.max(np.abs(y + g * gallery.quartic_mixed_fprime(y) - x)) <= 1e-10


def test_quartic_closed_form_matches_root_finder():
    # the closed form against the 1-d root-finder path of scale()
    Q = gallery.operator("quartic-mixed")
    R = dataclasses.replace(
        Q,
        resolvent=lambda x: core.solve_scalar_monotone(gallery.quartic_mixed_fprime, x),
        scaled_resolvent=None,
    )
    for g in (0.25, 0.5, 0.7, 1.0, 3.0):
        breaks = np.array([-(1.0 + 8.0 * g), 0.0, 1.0 + 1.5 * g])
        x = np.concatenate([
            np.linspace(-40.0, 40.0, 2001),
            breaks,
            np.nextafter(breaks, -np.inf),
            np.nextafter(breaks, np.inf),
        ])
        closed = core.resolvent(core.scale(Q, g), x)
        rooted = core.resolvent(core.scale(R, g), x)
        assert np.max(np.abs(closed - rooted)) <= 1e-9, g


def test_solve_increasing_bracket_failure():
    # a bounded function never reaches far targets
    with pytest.raises(NumericalFailure):
        core.solve_increasing(lambda t: np.tanh(t), 5.0, tol=1e-10)
    # a NaN target never meets the residual tolerance
    with pytest.raises(NumericalFailure):
        core.solve_increasing(lambda t: t, np.array([1.0, np.nan]))


def test_quartic_resolvent_tiny_targets():
    # the root sits on the sqrt branch, whose slope is infinite at 0: the
    # bracket must shrink below every absolute floor before the residual drops
    Q = gallery.operator("quartic-mixed")
    x = np.array([1e-300, 1e-10, 1.42e-10])
    y = core.resolvent(Q, x)
    assert np.all(y >= 0.0)
    assert np.max(np.abs(y + gallery.quartic_mixed_fprime(y) - x)) <= core.TOL_RESOLVENT_ROOT


def test_firm_nonexpansiveness_of_resolvents_sampled():
    rng = np.random.default_rng(10)
    for name, dim in [
        ("cubic", None),
        ("normal-cone-zero", 2),
        ("identity", 2),
        ("rotator", None),
        ("clamp-sin-op", None),
        ("staircase", None),
    ]:
        A = gallery.operator(name, dim)
        x = rng.uniform(-25, 25, size=(5000, A.dim))
        y = rng.uniform(-25, 25, size=(5000, A.dim))
        jx, jy = A.resolvent(x), A.resolvent(y)
        lhs = np.sum((jx - jy) ** 2, axis=-1) + np.sum(
            ((x - jx) - (y - jy)) ** 2, axis=-1
        )
        viol = lhs - np.sum((x - y) ** 2, axis=-1)
        assert viol.max() <= 1e-9, name
