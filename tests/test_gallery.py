import ast
import math
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mosk import certify, core, gallery
from mosk.core import WitnessFamily
from mosk.exceptions import DomainError, NumericalFailure, SequenceOverflow, UnsupportedOperator


# ---------------------------------------------------------------------------
# staircase: high-precision oracle evaluating the piecewise formula literally
# ---------------------------------------------------------------------------


def _mp_a(m):
    return mp.mpf(0) if m == 0 else mp.mpf(2) ** (m + 1) - 2


def _mp_kw(j):
    K = mp.sqrt(mp.mpf(4) ** j - mp.mpf(4) ** (-j))
    den = mp.sqrt(mp.mpf(4) ** j + 1)
    return K * mp.mpf(2) ** j / den, K / den


def _mp_staircase(x1):
    if x1 <= 0:
        return mp.mpf(0), mp.mpf(0)
    m = 1
    while _mp_a(m) < x1:
        m += 1
    s0 = s1 = mp.mpf(0)
    for j in range(1, m):
        k0, k1 = _mp_kw(j)
        s0 += k0
        s1 += k1
    frac = (x1 - _mp_a(m - 1)) / mp.mpf(2) ** m
    k0, k1 = _mp_kw(m)
    return s0 + frac * k0, s1 + frac * k1


@pytest.fixture(scope="module", autouse=True)
def _mp_precision():
    old = mp.mp.dps
    mp.mp.dps = 60
    yield
    mp.mp.dps = old


def test_staircase_params_invariants():
    p = gallery.default_staircase()
    assert p.a[0] == 0.0
    assert np.all(p.a[1:] == 2.0 ** (np.arange(1, p.cap + 1) + 1) - 2.0)
    # unit directions
    assert np.max(np.abs(np.linalg.norm(p.w, axis=1) - 1.0)) <= 1e-14
    # K and beta strictly increasing while float resolution lasts
    assert np.all(np.diff(p.K) > 0)
    assert np.all(np.diff(p.beta[:13]) > 0)
    assert np.all(p.beta[1:13] < 1.0)
    assert np.all(np.diff(p.beta) >= 0)


def test_staircase_eval_paper_points():
    assert np.allclose(gallery.staircase_eval([-3.0, 7.0]), [0.0, 0.0])
    got = gallery.staircase_eval([2.0, 0.0])
    assert np.allclose(got, [np.sqrt(3.0), np.sqrt(3.0) / 2.0], atol=1e-14)
    # output is independent of the second coordinate
    assert np.allclose(gallery.staircase_eval([2.0, 5.0]), got)


def test_staircase_eval_matches_mp_oracle():
    xs = [0.5, 1.0, 2.0, 3.0, 6.0, 14.0, 100.0, 1000.5, 250000.0]
    got = gallery.staircase_eval(np.array([[x, 0.0] for x in xs]))
    for i, x in enumerate(xs):
        ref0, ref1 = _mp_staircase(mp.mpf(x))
        assert got[i, 0] == pytest.approx(float(ref0), rel=1e-13)
        assert got[i, 1] == pytest.approx(float(ref1), rel=1e-13)


def _staircase_eval_reference(x):
    # the np.where form, on the strided first column
    p = gallery.default_staircase()
    pts = np.asarray(x, dtype=float)
    x1 = pts[..., 0]
    idx = np.searchsorted(p.a, x1, side="left")
    safe = np.clip(idx, 1, p.cap)
    frac = (x1 - p.a.take(safe - 1)) / p.pow2.take(safe)
    vals = p.prefix.take(safe - 1, axis=0)
    vals += frac[..., None] * p.kw.take(safe, axis=0)
    return np.where((idx == 0)[..., None], 0.0, vals)


def test_staircase_eval_is_the_reference_bit_for_bit():
    p = gallery.default_staircase()
    ends = p.a[: p.cap + 1]
    x1 = np.concatenate([
        [np.nan, -np.inf, -0.0, 0.0, -1e-300, -5.0, 5e-324],  # NaN, -0.0 and x1 <= 0
        ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)[:-1],  # segment ends
        np.random.default_rng(7).uniform(-10.0, p.a[20], 500),
    ])
    pts = np.stack([x1, np.linspace(-3.0, 3.0, x1.size)], axis=1)
    got, want = gallery.staircase_eval(pts), _staircase_eval_reference(pts)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    assert np.array_equal(got[finite].view(np.int64), want[finite].view(np.int64))
    assert np.all(np.isnan(got[0]))
    assert np.array_equal(got[1:3].view(np.int64), np.zeros((2, 2), np.int64))  # +0.0
    for row in pts[[2, 4, 10, 20]]:  # single points keep their shape
        one = gallery.staircase_eval(row)
        assert one.shape == (2,)
        assert np.array_equal(one.view(np.int64), _staircase_eval_reference(row).view(np.int64))


def test_staircase_overflow_guard():
    p = gallery.default_staircase()
    with pytest.raises(SequenceOverflow):
        gallery.staircase_eval([p.a[p.cap] * 2.1, 0.0])
    with pytest.raises(SequenceOverflow):
        gallery.staircase_witnesses(p.cap + 1)
    with pytest.raises(DomainError):
        gallery.staircase_witnesses(0)


def test_staircase_eval_non_finite_first_coordinate():
    # NaN sorts past the last breakpoint; its row is NaN, so the engine's
    # non-finite check refutes nothing on it
    got = gallery.staircase_eval(np.array([[np.nan, 0.0], [-np.inf, 1.0], [2.0, 0.0]]))
    assert np.isnan(got[0]).all()
    assert np.array_equal(got[1], [0.0, 0.0])
    assert np.array_equal(got[2], gallery.staircase_eval([2.0, 0.0]))
    with pytest.raises(SequenceOverflow):
        gallery.staircase_eval(np.array([[np.inf, 0.0]]))
    x, y = np.array([[np.nan, 0.0], [1.0, 0.0]]), np.array([[1.0, 1.0], [3.0, 0.0]])
    T = gallery.staircase_eval
    with pytest.raises(NumericalFailure):
        certify._kept("nonexpansive", (x, T(x), y, T(y)))


def test_staircase_witnesses_match_mp_oracle():
    # d_n evaluated literally at 60 digits equals 4^{-n}; the analytic
    # production value must match to 1e-9 relative (it is exact).
    for n in range(1, 21):
        x, y, d, g = gallery.staircase_witnesses(n)
        tx = _mp_staircase(mp.mpf(x[0]))
        ty = _mp_staircase(mp.mpf(y[0]))
        d_ref = (mp.mpf(x[0]) - mp.mpf(y[0])) ** 2 - (
            (tx[0] - ty[0]) ** 2 + (tx[1] - ty[1]) ** 2
        )
        g_ref = mp.sqrt(
            ((mp.mpf(x[0]) - mp.mpf(y[0])) - (tx[0] - ty[0])) ** 2 + (tx[1] - ty[1]) ** 2
        )
        assert abs(d - float(d_ref)) <= 1e-9 * abs(float(d_ref))
        assert float(d_ref) == pytest.approx(4.0 ** (-n), rel=1e-40)
        assert g == pytest.approx(float(g_ref), abs=1e-12)


def test_staircase_witness_values():
    _, _, d5, _ = gallery.staircase_witnesses(5)
    assert d5 == pytest.approx(4.0**-5, rel=1e-12)
    _, _, d1, g1 = gallery.staircase_witnesses(1)
    assert d1 == pytest.approx(0.25, rel=1e-12)
    _, _, _, g30 = gallery.staircase_witnesses(30)
    assert abs(g30 - 1.0) <= 1e-6


def test_staircase_global_nonexpansive_sampled():
    rng = np.random.default_rng(21)
    u = rng.uniform(-1e4, 1e4, size=(100_000, 2))
    v = rng.uniform(-1e4, 1e4, size=(100_000, 2))
    d = np.linalg.norm(u - v, axis=1)
    keep = d > 0
    r = np.linalg.norm(
        gallery.staircase_eval(u) - gallery.staircase_eval(v), axis=1
    )[keep] / d[keep]
    assert r.max() <= 1.0 + 1e-9


def test_staircase_region_contraction_sampled():
    p = gallery.default_staircase()
    rng = np.random.default_rng(22)
    for m in range(1, 9):
        u = np.stack(
            [rng.uniform(-2.0, p.a[m], 2000), rng.uniform(-5.0, 5.0, 2000)], axis=1
        )
        v = np.stack(
            [rng.uniform(-2.0, p.a[m], 2000), rng.uniform(-5.0, 5.0, 2000)], axis=1
        )
        d = np.linalg.norm(u - v, axis=1)
        keep = d > 0
        r = np.linalg.norm(
            gallery.staircase_eval(u) - gallery.staircase_eval(v), axis=1
        )[keep] / d[keep]
        assert r.max() <= p.beta[m] + 1e-9


# ---------------------------------------------------------------------------
# clamped sine and the scalar inverse solvers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x,expected", [(0.0, 0.0), (10.0, 1.0), (-np.pi, -1.0)])
def test_clamp_sin_examples(x, expected):
    assert gallery.clamp_sin(x) == expected


def _clamp_sin_reference(x):
    # the nested-where form the single clip replaced
    x = np.asarray(x, dtype=float)
    inner = np.sin(np.clip(x, -gallery.HALF_PI, gallery.HALF_PI))
    return np.where(x >= gallery.HALF_PI, 1.0, np.where(x <= -gallery.HALF_PI, -1.0, inner))


def test_clamp_sin_matches_the_nested_where_reference():
    h = gallery.HALF_PI
    x = np.concatenate([
        [h, -h, np.nextafter(h, 0.0), np.nextafter(h, 4.0), np.nextafter(-h, 0.0),
         np.nextafter(-h, -4.0), np.inf, -np.inf, np.nan, 0.0, -0.0, 1e300, -1e-300],
        np.random.default_rng(7).uniform(-4.0, 4.0, 10_000),
    ])
    got, ref = gallery.clamp_sin(x), _clamp_sin_reference(x)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    assert np.sin(h) == 1.0 and np.sin(-h) == -1.0


def _cubic_resolvent_reference(x):
    # the form that took cbrt of the whole batch and both 1e150 passes always
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    big = ax > 1e150
    u = 9.0 * np.where(big, 0.0, ax)
    a = np.cbrt(12.0 * (u + np.sqrt(u * u + 12.0)))
    a2 = a * a
    t = a2 + 6.0
    return np.where(big, np.cbrt(x), np.copysign(4.0 * u * a2 / (t * t + 108.0), x))


def test_cubic_resolvent_matches_the_whole_batch_reference():
    rng = np.random.default_rng(11)
    small = rng.standard_normal(5000) * 10.0 ** rng.integers(-300, 150, 5000)
    big = rng.standard_normal(50) * 10.0 ** rng.integers(151, 308, 50)
    edge = [1e150, -1e150, np.nextafter(1e150, np.inf), -np.nextafter(1e150, np.inf),
            np.inf, -np.inf, 0.0, -0.0, np.nan]
    for x in (np.concatenate([small, big, edge]), small, small.reshape(-1, 1)):
        got, ref = gallery.cubic_resolvent(x), _cubic_resolvent_reference(x)
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_cubic_resolvent_sweep_is_the_reference_bit_for_bit():
    # cubic_resolvent skips the two 1e150 passes when nothing is that large;
    # type, shape and bits stay those of the form that always takes them
    tens = 10.0 ** np.arange(-300, 301)
    edge = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e150, -1e150,
            np.nextafter(1e150, 0.0), np.nextafter(-1e150, 0.0),
            np.nextafter(1e150, np.inf), np.nextafter(-1e150, -np.inf)]
    sweep = np.concatenate([tens, -tens, edge])
    inputs = [sweep, sweep.reshape(-1, 1), sweep[:600], sweep[:600].reshape(20, 30),
              np.array([]), [1.0, -2.0], 3.0, -0.0]
    inputs += [np.float64(v) for v in sweep] + [np.array(v) for v in sweep]
    inputs += [np.array([v]) for v in sweep]
    for x in inputs:
        got, ref = gallery.cubic_resolvent(x), _cubic_resolvent_reference(x)
        assert type(got) is type(ref) is np.ndarray
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes(), x


def test_solver_examples():
    assert gallery.g_solver.solve(0.0) == pytest.approx(0.0, abs=1e-13)
    assert gallery.g_solver.solve(1.0 + np.pi / 2) == pytest.approx(
        np.pi / 2, abs=1e-12
    )
    # independent oracle: mpmath root of t + sin t = 1
    ref = float(mp.findroot(lambda t: t + mp.sin(t) - 1, mp.mpf("0.5")))
    assert gallery.g_solver.solve(1.0) == pytest.approx(ref, abs=1e-13)
    assert ref == pytest.approx(0.510973, abs=1e-6)


def test_solver_domain_error():
    with pytest.raises(DomainError):
        gallery.g_solver.solve(10.0)


def test_solver_residual_grids():
    for solver, fwd in [
        (gallery.g_solver, lambda t: t + np.sin(t)),
        (gallery.h_solver, lambda t: t - np.sin(t)),
    ]:
        lo, hi = solver.range()
        vals = np.linspace(lo + 1e-9, hi - 1e-9, 10_000)
        t = solver.solve(vals)
        assert np.max(np.abs(fwd(t) - vals)) <= 1e-12


def test_h_value_matches_solver_across_cutoff():
    s = np.array([1e-18, 1e-9, 1e-5, 0.0035, 0.004, 0.0045, 0.1, 1.5])
    t = gallery.h_value(s)
    assert np.max(np.abs(t - np.sin(t) - s)) <= 1e-12
    # relative accuracy near the degenerate point
    tiny = gallery.h_value(1e-12)
    assert tiny == pytest.approx(float(mp.findroot(lambda u: u - mp.sin(u) - mp.mpf(1e-12), mp.mpf(2e-4))), rel=1e-10)


@pytest.mark.parametrize(
    "x,expected",
    [
        (0.0, 0.0),
        ((np.pi + 2.0) / 4.0, (np.pi - 2.0) / 4.0),
        (-2.0, -1.0),
    ],
)
def test_clamp_sin_operator_eval_examples(x, expected):
    assert gallery.clamp_sin_operator_eval(x) == pytest.approx(expected, abs=1e-12)


def test_clamp_sin_operator_pair_mutually_inverse():
    x = np.linspace(-6, 6, 2001)
    fwd = gallery.clamp_sin_operator_eval(x)
    assert np.max(np.abs(gallery.clamp_sin_operator_inverse_eval(fwd) - x)) <= 1e-10
    inv = gallery.clamp_sin_operator_inverse_eval(x)
    assert np.max(np.abs(gallery.clamp_sin_operator_eval(inv) - x)) <= 1e-10


def test_appendix_consistency_resolvent_algebra():
    # forward closed form agrees with the (Id - T)/2-derived algebra:
    # with J = (Id - T)/2 the inverse resolvent is Id - J, so the forward
    # branch formula must send (x + T(x))/2 to (x - T(x))/2.
    x = np.linspace(-5, 5, 10_001)
    Tx = gallery.clamp_sin(x)
    y = 0.5 * (x + Tx)
    assert np.max(np.abs(gallery.clamp_sin_operator_eval(y) - (x - y))) <= 1e-10


# ---------------------------------------------------------------------------
# cubic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x,expected", [(0.0, 0.0), (2.0, 1.0), (-10.0, -2.0)])
def test_cubic_resolvent_examples(x, expected):
    assert gallery.cubic_resolvent(x) == pytest.approx(expected, abs=1e-12)


def test_cubic_resolvent_identity_grid():
    x = np.linspace(-1000.0, 1000.0, 10_000)
    j = gallery.cubic_resolvent(x)
    assert np.max(np.abs(j + j**3 - x)) <= 1e-10


def test_cubic_matches_root_finder():
    # dual route: Cardano closed form against the root finder, bisecting
    # and taking Newton steps on the derivative
    from mosk.core import solve_increasing

    x = np.linspace(-1000.0, 1000.0, 10_000)
    closed = gallery.cubic_resolvent(x)
    rooted = solve_increasing(lambda t: t + t**3, x, tol=1e-12, center=x)
    assert np.max(np.abs(closed - rooted)) <= 1e-9
    calls = []

    def fun(t):
        calls.append(1)
        return t**3 + t

    newton = solve_increasing(fun, x, dfun=lambda t: 3.0 * t * t + 1.0, bracket=(-10.0, 10.0))
    assert np.max(np.abs(closed - newton)) <= 1e-12
    assert len(calls) <= 20  # bisection alone takes about 50


def test_cubic_resolvent_huge_arguments():
    # 81 x^2 overflows beyond about 1e153; there the resolvent is cbrt(x)
    x = np.array([1e153, 1e200, 1e308])
    with np.errstate(all="raise"):
        y = gallery.cubic_resolvent(x)
        assert np.array_equal(gallery.cubic_resolvent(-x), -y)
        assert np.all(np.isfinite(y))
        assert np.max(np.abs(y + y**3 - x) / x) <= 1e-15


@pytest.mark.parametrize("x", [1e-300, 1e-20, 1e-8, 1.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_cubic_resolvent_relative_accuracy_near_zero(x, sign):
    # a/6 - 2/a cancels as x -> 0; the resolvent must stay relative-accurate
    x = sign * x
    y = float(gallery.cubic_resolvent(x))
    assert abs(y + y**3 - x) <= 1e-14 * abs(x)


# ---------------------------------------------------------------------------
# piecewise quartic/sqrt derivative and Fenchel conjugation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x,expected", [(-1.0, -8.0), (0.25, 0.75), (2.0, 3.0)])
def test_quartic_mixed_fprime_examples(x, expected):
    assert gallery.quartic_mixed_fprime(x) == pytest.approx(expected, abs=1e-14)


def test_quartic_mixed_pieces_do_not_overflow():
    # each piece is evaluated on its own interval only
    with np.errstate(over="raise"):
        fp = gallery.quartic_mixed_fprime(np.array([-1e200, 1e200]))
        f = gallery.quartic_mixed_f(np.array([-1e100, 1e100]))
    assert fp.tolist() == [-8e200, 1.5e200]
    x = 1e100
    assert f.tolist() == [4.0 * x * x - 2.0, 0.75 * x * x + 0.25]


def test_quartic_mixed_fprime_nondecreasing():
    x = np.linspace(-30.0, 30.0, 100_000)
    f = gallery.quartic_mixed_fprime(x)
    assert np.all(np.diff(f) >= 0)
    # modulus estimate near zero tends to zero: not strongly monotone
    pairs = np.linspace(-0.1, 0.1, 400)
    u, v = np.meshgrid(pairs, pairs)
    d2 = (u - v) ** 2
    keep = d2 > 0
    ratio = (
        (u - v) * (gallery.quartic_mixed_fprime(u) - gallery.quartic_mixed_fprime(v))
    )[keep] / d2[keep]
    assert ratio.min() <= 0.1


def test_quartic_mixed_f_continuous_at_breaks():
    for b in (-1.0, 0.0, 1.0):
        left = gallery.quartic_mixed_f(b - 1e-9)
        right = gallery.quartic_mixed_f(b + 1e-9)
        assert left == pytest.approx(right, abs=1e-7)


_QUARTIC_X = st.floats(-1e300, 1e300, allow_subnormal=False)
_QUARTIC_GAMMA = st.floats(1e-3, 1e3)
_TINY = np.finfo(float).tiny


@settings(max_examples=300, deadline=None)
@given(x=_QUARTIC_X, gamma=_QUARTIC_GAMMA)
def test_quartic_resolvent_relative_residual_property(x, gamma):
    # subnormal x carry fewer than 53 bits, so no relative bound holds there;
    # on the sqrt piece y is about (x/(1.5 gamma))^2, which leaves the normal
    # range below x ~ 2e-154 gamma, and f' has infinite slope at 0, so
    # there only the size of y is checked
    y = float(gallery.quartic_mixed_resolvent(x, gamma))
    res = abs(y + gamma * float(gallery.quartic_mixed_fprime(y)) - x)
    assert (y >= 0.0) == (x >= 0.0)
    if abs(y) >= _TINY or x <= 0.0:
        assert res <= 1e-14 * abs(x)
    else:
        assert 0.0 <= y < _TINY and x < 1e-153 * gamma


@settings(max_examples=300, deadline=None)
@given(x1=_QUARTIC_X, x2=_QUARTIC_X, gamma=_QUARTIC_GAMMA)
def test_quartic_resolvent_nondecreasing_property(x1, x2, gamma):
    # the quotient forms are not monotone in rounding: a few ulp of slack
    lo, hi = sorted((x1, x2))
    ylo = float(gallery.quartic_mixed_resolvent(lo, gamma))
    yhi = float(gallery.quartic_mixed_resolvent(hi, gamma))
    assert ylo <= yhi + 1e-14 * abs(yhi)


@pytest.mark.parametrize("gamma", [1e-3, 0.5, 1.0, 3.0, 1e3])
def test_quartic_resolvent_breakpoints_and_extremes(gamma):
    breaks = np.array([-(1.0 + 8.0 * gamma), 1.0 + 1.5 * gamma])
    x = np.concatenate([
        breaks, np.nextafter(breaks, -np.inf), np.nextafter(breaks, np.inf),
        [-1e300, -1e150, -1e-300, 0.0, 1e-150, 1e150, 1e300],
    ])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        y = gallery.quartic_mixed_resolvent(x, gamma)
        assert np.all(np.isfinite(gallery.quartic_mixed_resolvent([-1.7e308, 1.7e308], gamma)))
    res = np.abs(y + gamma * gallery.quartic_mixed_fprime(y) - x)
    assert np.all(res <= 1e-14 * np.abs(x))
    assert np.array_equal(y >= 0.0, x >= 0.0)
    # y = (x/(1.5 gamma))^2 nearly underflows to 0 (see the property above)
    assert gallery.quartic_mixed_resolvent(1e-300, gamma) == 0.0
    with pytest.raises(DomainError):
        gallery.quartic_mixed_resolvent(1.0, 0.0)


def test_fenchel_conjugate_examples():
    quart = gallery.FunctionEntry(
        "x^4/4",
        eval_f=lambda x: 0.25 * np.asarray(x, float) ** 4,
        eval_fprime=lambda x: np.asarray(x, float) ** 3,
    )
    assert gallery.fenchel_conjugate_1d(quart, 1.0) == pytest.approx(0.75, abs=1e-10)
    entry = gallery.function("quartic-mixed")
    assert gallery.fenchel_conjugate_1d(entry, 1.5) == pytest.approx(0.5, abs=1e-10)
    clamp = gallery.function("clamp-sin-op")
    assert clamp.eval_fstar(1.0) == pytest.approx(1.5, abs=1e-12)
    assert gallery.fenchel_conjugate_1d(clamp, 1.0) == pytest.approx(1.5, abs=1e-8)


@settings(max_examples=200, deadline=None)
@given(y=st.floats(-8.0, 8.0))
def test_fenchel_young_equality_clamp_sin(y):
    entry = gallery.function("clamp-sin-op")
    xstar = float(entry.eval_fprime(y))
    lhs = float(entry.eval_f(y)) + float(entry.eval_fstar(xstar))
    assert lhs == pytest.approx(xstar * y, abs=1e-8)


def test_fenchel_young_equality_cubic():
    entry = gallery.function("cubic")
    ys = np.linspace(-5, 5, 101)
    xs = entry.eval_fprime(ys)
    gap = entry.eval_f(ys) + entry.eval_fstar(xs) - xs * ys
    assert np.max(np.abs(gap)) <= 1e-8


def test_conjugate_agrees_with_closed_form():
    entry = gallery.function("clamp-sin-op")
    for xstar in np.linspace(-3.0, 3.0, 31):
        num = gallery.fenchel_conjugate_1d(entry, float(xstar))
        assert num == pytest.approx(float(entry.eval_fstar(xstar)), abs=1e-8)


def test_cubic_conjugate_takes_newton_steps():
    entry = gallery.function("cubic")
    s = np.random.default_rng(0).uniform(-20.0, 20.0, 10_000)
    counts = []
    for fsecond in (entry.eval_fsecond, None):
        calls = []

        def fprime(x):
            calls.append(1)
            return entry.eval_fprime(x)

        counted = replace(entry, eval_fprime=fprime, eval_fsecond=fsecond)
        gallery.fenchel_conjugate_1d(counted, s)
        counts.append(len(calls))
    # 18 evaluations with Newton steps, 50 by bisection alone
    assert counts[0] <= 20 < 40 <= counts[1]


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(["cubic", "quartic-mixed"]),
    log_abs=st.floats(-8.0, 12.0),
    negative=st.booleans(),
)
def test_conjugate_newton_matches_bisection(name, log_abs, negative):
    # the residual stop is relative to |x*|, so both paths keep their
    # accuracy for small |x*| too (an absolute 1e-12 let quartic-mixed's
    # paths drift 2e-8 apart at 1e-8); quartic-mixed needs 207 of
    # MAX_STEPS evaluations at 1e-30, so the range stops at 1e-8
    xstar = (-1.0 if negative else 1.0) * 10.0**log_abs
    entry = gallery.function(name)
    newton = gallery.fenchel_conjugate_1d(entry, xstar)
    bisect = gallery.fenchel_conjugate_1d(replace(entry, eval_fsecond=None), xstar)
    assert abs(newton - bisect) <= 1e-12 * abs(bisect)
    if name == "cubic":
        want = 0.75 * abs(xstar) ** (4.0 / 3.0)
        assert abs(newton - want) <= 1e-12 * want


@pytest.mark.parametrize("xstar", [1e4, 3e4, 1e5, -1e5, 1e40, 1e-8, -1e-8, 1e-20, 1e-30])
def test_cubic_conjugate_large_arguments(xstar):
    # an absolute residual of 1e-12 is below one ulp of x* for the large
    # arguments and far above it for the small ones (1e-30 gave 0.0)
    got = gallery.fenchel_conjugate_1d(gallery.function("cubic"), xstar)
    want = 0.75 * abs(xstar) ** (4.0 / 3.0)
    assert abs(got - want) <= 1e-14 * want


def _quartic_mixed_conjugate(s):
    # f*(s) = s y - f(y) at f'(y) = s, piece by piece: y = s/8 on s <= -8
    # (f = 4y^2 - 2); y = -(|s|/8)^(1/3) on (-8, 0) (f = 2y^4, so
    # f* = 8(|s|/8)^(4/3) - 2(|s|/8)^(4/3)); y = (s/1.5)^2 on [0, 1.5)
    # (f = y^1.5, so f* = s^3/2.25 - s^3/3.375); y = s/1.5 beyond
    # (f = 3y^2/4 + 1/4)
    if s <= -8.0:
        return s * s / 16.0 + 2.0
    if s < 0.0:
        return 6.0 * (-s / 8.0) ** (4.0 / 3.0)
    if s < 1.5:
        return 4.0 * s * s * s / 27.0
    return s * s / 3.0 - 0.25


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(["cubic", "quartic-mixed"]),
    u=st.floats(-300.0, 15.0),
    negative=st.booleans(),
)
def test_conjugate_is_right_or_fails_closed(name, u, negative):
    # a root below what MAX_STEPS steps reach (cubic |x*| <= 1e-126,
    # quartic-mixed near 0 from either side) must raise, not come back
    # unconverged, as quartic-mixed's -4.26e-109 at x* = 1e-40 did
    xstar = (-1.0 if negative else 1.0) * 10.0**u
    want = (0.75 * abs(xstar) ** (4.0 / 3.0) if name == "cubic"
            else _quartic_mixed_conjugate(xstar))
    try:
        got = gallery.fenchel_conjugate_1d(gallery.function(name), xstar)
    except NumericalFailure:
        return
    assert got >= 0.0 and abs(got - want) <= 1e-12 * want


def test_root_finder_raises_on_an_element_still_running():
    # 1e-40 is within the absolute tol after MAX_STEPS halvings of [0, 1],
    # but its relative stop is never met and its bracket never collapses
    entry = gallery.function("quartic-mixed")
    with pytest.raises(NumericalFailure, match="did not stop"):
        gallery.fenchel_conjugate_1d(entry, [1.0, 1e-40])
    with pytest.raises(NumericalFailure, match="did not stop"):
        core.solve_increasing(entry.eval_fprime, 1e-40, tol=1e-12, rtol=1e-12)


@pytest.mark.parametrize("name,breaks", [("cubic", ()), ("quartic-mixed", (-1.0, 0.0, 1.0))])
def test_fsecond_is_the_derivative_of_fprime(name, breaks):
    entry = gallery.function(name)
    x = np.linspace(-3.0, 3.0, 601)
    for b in breaks:
        x = x[np.abs(x - b) > 0.02]
    h = 1e-6
    central = (entry.eval_fprime(x + h) - entry.eval_fprime(x - h)) / (2.0 * h)
    assert np.allclose(entry.eval_fsecond(x), central, rtol=1e-6, atol=1e-6)


def test_quartic_mixed_fsecond_is_plus_inf_at_both_zeros():
    # f' is nondecreasing, so its Newton slope is never negative: -0.0 lies in
    # the [0, 1) piece and is taken there as +0.0
    f2 = gallery.quartic_mixed_fsecond
    for x in (0.0, -0.0, np.array(-0.0), np.array([-0.0, 0.0])):
        got = f2(x)
        assert np.all(np.isposinf(got)), x
    # no other element moves
    assert f2(np.array([-1e-300, 1e-300, 0.25])).tolist() == [0.0, 0.75 / math.sqrt(1e-300), 1.5]


def test_clamp_sin_branch_formulas_return_nan_for_nan():
    fns = (gallery.clamp_sin_operator_eval, gallery.clamp_sin_operator_inverse_eval,
           gallery.clamp_sin_f, gallery.clamp_sin_fstar)
    for fn in fns:
        assert np.isnan(fn(np.nan)) and np.ndim(fn(np.nan)) == 0, fn.__name__
        got = fn(np.array([np.nan, 0.3, -np.nan, -5.0, 5.0]))
        assert np.isnan(got[[0, 2]]).all() and np.isfinite(got[[1, 3, 4]]).all(), fn.__name__
    # the registry operator evaluates through the inverse formula
    op = gallery.operator("clamp-sin-op")
    assert np.isnan(op.direct_eval(np.array([[np.nan], [0.2]]))[0, 0])


def test_gallery_has_no_integer_powers():
    # numpy's generic pow is ~50x slower than products on float64 arrays
    src = Path(gallery.__file__).read_text(encoding="utf-8")
    bad = [
        node.lineno
        for node in ast.walk(ast.parse(src))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and isinstance(node.right, ast.Constant)
        and isinstance(node.right.value, (int, float))
        and float(node.right.value).is_integer()
        and node.right.value >= 3
    ]
    assert bad == []


def test_normal_cone_zero_resolvents_are_float_zeros_of_the_input_shape():
    A = gallery.operator("normal-cone-zero", 3)
    for J in (A.resolvent, A.scaled_resolvent(0.5)):
        for x in (2.5, [1, 2, 3], np.arange(6).reshape(2, 3), np.ones((4, 3))[:, ::2]):
            got = J(x)
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.shape == np.shape(x) and not got.any()


# ---------------------------------------------------------------------------
# piecewise oracles: each piece on its own elements, bit for bit the
# whole-array forms that evaluated every piece everywhere and then selected
# ---------------------------------------------------------------------------


def _ref_h_value(s):
    s = np.asarray(s, dtype=float)
    small = np.abs(s) <= gallery._H_SERIES_CUTOFF
    ss = np.where(small, s, 0.0)
    w = np.cbrt(6.0 * ss)
    t = w + w * w * w / 60.0
    for _ in range(3):
        f = gallery._t_minus_sin_series(t) - ss
        d = 2.0 * np.sin(0.5 * t) ** 2
        t = np.where(d > 0, t - f / np.where(d > 0, d, 1.0), t)
    big = gallery.h_solver.solve(np.where(small, 0.0, s))
    return np.where(small, t, big)


def _ref_clamp_sin_operator_eval(x):
    x = np.asarray(x, dtype=float)
    mid = np.abs(x) < gallery.BREAK_OUTER
    xm = np.where(mid, x, 0.0)
    mid_vals = gallery.g_solver.solve(2.0 * xm) - xm
    mid_vals = np.where(np.isnan(x), x, mid_vals)  # a NaN is returned as it is
    return np.where(x <= -gallery.BREAK_OUTER, x + 1.0,
                    np.where(x >= gallery.BREAK_OUTER, x - 1.0, mid_vals))


def _ref_clamp_sin_operator_inverse_eval(x):
    x = np.asarray(x, dtype=float)
    mid = np.abs(x) < gallery.BREAK_INNER
    xm = np.where(mid, x, 0.0)
    mid_vals = _ref_h_value(2.0 * xm) - xm
    mid_vals = np.where(np.isnan(x), x, mid_vals)  # a NaN is returned as it is
    return np.where(x <= -gallery.BREAK_INNER, x - 1.0,
                    np.where(x >= gallery.BREAK_INNER, x + 1.0, mid_vals))


def _ref_clamp_sin_resolvent(x):
    x = np.asarray(x, dtype=float)
    small = np.abs(x) <= gallery._H_SERIES_CUTOFF
    series = 0.5 * gallery._t_minus_sin_series(np.where(small, x, 0.0))
    return np.where(small, series, 0.5 * (x - gallery.clamp_sin(x)))


def _ref_clamp_sin_f(x):
    x = np.asarray(x, dtype=float)
    mid = np.abs(x) < gallery.BREAK_OUTER
    xm = np.where(mid, x, 0.0)
    g = gallery.g_solver.solve(2.0 * xm)
    mid_vals = 0.5 * (2.0 * xm * g - 0.5 * g * g + np.cos(g) - xm * xm - 0.5 * (np.pi - 1.0))
    mid_vals = np.where(np.isnan(x), x, mid_vals)  # a NaN is returned as it is
    return np.where(x <= -gallery.BREAK_OUTER, 0.5 * (x + 1.0) ** 2,
                    np.where(x >= gallery.BREAK_OUTER, 0.5 * (x - 1.0) ** 2, mid_vals))


def _ref_clamp_sin_fstar(x):
    x = np.asarray(x, dtype=float)
    mid = np.abs(x) < gallery.BREAK_INNER
    xm = np.where(mid, x, 0.0)
    h = _ref_h_value(2.0 * xm)
    mid_vals = 0.5 * (2.0 * xm * h - 0.5 * h * h - np.cos(h) - xm * xm + 0.5 * (np.pi - 1.0))
    mid_vals = np.where(np.isnan(x), x, mid_vals)  # a NaN is returned as it is
    return np.where(x <= -gallery.BREAK_INNER, 0.5 * (x * x - 2.0 * x),
                    np.where(x >= gallery.BREAK_INNER, 0.5 * (x * x + 2.0 * x), mid_vals))


def _ref_quartic_mixed_f(x):
    x = np.asarray(x, dtype=float)
    xn, xp = np.clip(x, -1.0, 0.0), np.clip(x, 0.0, 1.0)
    return np.select([x <= -1.0, x < 0.0, x < 1.0],
                     [4.0 * x * x - 2.0, 2.0 * np.square(np.square(xn)), xp**1.5],
                     default=0.75 * x * x + 0.25)


def _ref_quartic_mixed_fprime(x):
    x = np.asarray(x, dtype=float)
    xn, xp = np.clip(x, -1.0, 0.0), np.clip(x, 0.0, 1.0)
    return np.select([x <= -1.0, x < 0.0, x < 1.0],
                     [8.0 * x, 8.0 * xn * xn * xn, 1.5 * np.sqrt(xp)], default=1.5 * x)


def _ref_quartic_mixed_fsecond(x):
    x = np.asarray(x, dtype=float)
    xn, xp = np.clip(x, -1.0, 0.0), np.clip(x, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        right = 0.75 / np.sqrt(xp + 0.0)  # -0.0 is taken as +0.0: +inf
    # a NaN lies on no piece and is returned as it is
    return np.select([x <= -1.0, x < 0.0, x < 1.0, x >= 1.0], [8.0, 24.0 * xn * xn, right, 1.5],
                     default=x)


def _ref_quartic_mixed_resolvent(x, gamma=1.0):
    if not gamma > 0:
        raise DomainError("gamma must be positive")
    x = np.asarray(x, dtype=float)
    lo, hi = -(1.0 + 8.0 * gamma), 1.0 + 1.5 * gamma
    c = math.sqrt(8.0 * gamma)
    neg = gallery.cubic_resolvent(c * np.clip(x, lo, 0.0)) / c
    xp = np.clip(x, 0.0, hi)
    s = 2.0 * xp / (1.5 * gamma + np.sqrt(2.25 * gamma * gamma + 4.0 * xp))
    return np.select([x <= lo, x < 0.0, x < hi], [x / (1.0 + 8.0 * gamma), neg, s * s],
                     default=x / hi)


def _ref_staircase_eval(x):
    p = gallery.default_staircase()
    pts = np.asarray(x, dtype=float)
    x1 = pts[..., 0].copy()
    if np.any(x1 > p.a[p.cap]):
        raise SequenceOverflow(
            f"first coordinate beyond segment cap a[{p.cap}] = {p.a[p.cap]:.4g}")
    idx = np.searchsorted(p.a, x1, side="left")
    safe = np.clip(idx, 1, p.cap)
    frac = (x1 - p.a.take(safe - 1)) / p.pow2.take(safe)
    vals = p.prefix.take(safe - 1, axis=0)
    vals += frac[..., None] * p.kw.take(safe, axis=0)
    vals[idx == 0] = 0.0
    return vals


_GAMMAS = (1e-3, 0.5, 1.0, 3.0, 1e3)
_PIECEWISE = {
    "h_value": (gallery.h_value, _ref_h_value),
    "clamp_sin_operator_eval": (gallery.clamp_sin_operator_eval, _ref_clamp_sin_operator_eval),
    "clamp_sin_operator_inverse_eval": (gallery.clamp_sin_operator_inverse_eval,
                                        _ref_clamp_sin_operator_inverse_eval),
    "clamp_sin_resolvent": (gallery.clamp_sin_resolvent, _ref_clamp_sin_resolvent),
    "clamp_sin_f": (gallery.clamp_sin_f, _ref_clamp_sin_f),
    "clamp_sin_fstar": (gallery.clamp_sin_fstar, _ref_clamp_sin_fstar),
    "quartic_mixed_f": (gallery.quartic_mixed_f, _ref_quartic_mixed_f),
    "quartic_mixed_fprime": (gallery.quartic_mixed_fprime, _ref_quartic_mixed_fprime),
    "quartic_mixed_fsecond": (gallery.quartic_mixed_fsecond, _ref_quartic_mixed_fsecond),
    **{f"quartic_mixed_resolvent-{g}": (
        lambda x, g=g: gallery.quartic_mixed_resolvent(x, g),
        lambda x, g=g: _ref_quartic_mixed_resolvent(x, g)) for g in _GAMMAS},
}


def _both_sides(points):
    p = np.asarray(points, dtype=float)
    return np.concatenate([p, np.nextafter(p, -np.inf), np.nextafter(p, np.inf)])


def _piecewise_points():
    """Both sides of every breakpoint of the piecewise oracles, the special
    values, and a spread over each piece."""
    h_lo, h_hi = gallery.h_solver.range()
    cut = gallery._H_SERIES_CUTOFF
    breaks = [gallery.BREAK_INNER, gallery.BREAK_OUTER, cut, cut / 2.0, 1.0, 0.0,
              2.0 * gallery.BREAK_INNER, 2.0 * gallery.BREAK_OUTER, h_hi]
    breaks += [1.0 + 1.5 * g for g in _GAMMAS] + [1.0 + 8.0 * g for g in _GAMMAS]
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300, 1e300, -1e300,
               np.inf, -np.inf]
    rng = np.random.default_rng(27)
    spread = np.concatenate([rng.uniform(-4.0, 4.0, 400), rng.uniform(-0.01, 0.01, 100),
                             rng.standard_normal(100) * 10.0 ** rng.integers(-300, 300, 100)])
    return np.concatenate([_both_sides(breaks), -_both_sides(breaks), special, spread])


def _outcome(fn, x):
    # the whole-array forms also warned on the pieces they threw away (as
    # clamp_sin_fstar(-inf) on inf - inf), so only results and errors count
    try:
        with np.errstate(all="ignore"):
            return fn(x)
    except Exception as exc:  # the same error, raised by both forms
        return exc


def _assert_same(got, want, what):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (what, got, want)
        return
    assert type(got) is type(want) is np.ndarray, (what, type(got))
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


@pytest.mark.parametrize("name", sorted(_PIECEWISE))
def test_piecewise_oracles_are_the_whole_array_forms_bit_for_bit(name):
    fn, ref = _PIECEWISE[name]
    points = _piecewise_points()
    if name == "h_value":
        # h lives on the range of t - sin t; beyond it both forms raise DomainError
        lo, hi = gallery.h_solver.range()
        points = points[(points >= lo) & (points <= hi)]
        nan_batch, wide = np.append(points, np.nan), np.array([0.1, 2.0 * hi])
    else:
        nan_batch, wide = np.append(points, np.nan), None
    inputs = [points, points.reshape(-1, 1), points[:60].reshape(6, 10), np.array([]),
              np.empty((0, 1)), nan_batch, points[::-1]]
    inputs += [float(v) for v in points[::7]] + [np.array(v) for v in points[::5]]
    inputs += [np.array([v]) for v in points[::3]] + [np.nan, [np.nan, 0.5]]
    if wide is not None:
        inputs += [wide, float(wide[1])]
    for x in inputs:
        _assert_same(_outcome(fn, x), _outcome(ref, x), (name, x))


@pytest.mark.parametrize("name", sorted(set(_PIECEWISE) - {"h_value"}))
def test_piecewise_oracles_map_nan_to_nan(name):
    # a NaN lies on no piece, so it comes back as it went in, in every shape
    # (h raises at NaN instead: test_piecewise_oracles_raise_as_the_whole_array_forms)
    fn = _PIECEWISE[name][0]
    mixed = np.array([np.nan, 0.5, -3.0, np.nan, 20.0])
    for x in (np.nan, np.array(np.nan), mixed, mixed.reshape(-1, 1), np.full((3, 1), np.nan)):
        out = fn(x)
        assert isinstance(out, np.ndarray) and out.shape == np.shape(x)
        assert (np.isnan(out) == np.isnan(x)).all(), (name, x, out)


def test_piecewise_oracles_raise_as_the_whole_array_forms():
    # out-of-range, NaN and 0-d inputs of h take the error path in both forms
    lo, hi = gallery.h_solver.range()
    for x in ([0.1, 2.0 * hi], 2.0 * lo, [np.nan], np.nan, [0.001, np.nan]):
        want = _outcome(_ref_h_value, x)
        assert isinstance(want, Exception)
        _assert_same(_outcome(gallery.h_value, x), want, x)
    for g in (0.0, -1.0, np.nan):
        want = _outcome(lambda x: _ref_quartic_mixed_resolvent(x, g), 1.0)
        assert isinstance(want, DomainError)
        _assert_same(_outcome(lambda x: gallery.quartic_mixed_resolvent(x, g), 1.0), want, g)


def test_staircase_eval_is_the_whole_array_form_bit_for_bit():
    p = gallery.default_staircase()
    x1 = np.concatenate([_both_sides(p.a), _both_sides([0.0, -1.0]), _piecewise_points()])
    x1 = x1[~(x1 > p.a[p.cap])]
    x1 = np.concatenate([x1, [np.nan, -np.nan, -0.0]])
    pts = np.stack([x1, np.linspace(-3.0, 3.0, x1.size)], axis=1)
    inputs = [pts, pts[::-1], pts[:40].reshape(4, 10, 2), np.empty((0, 2)), pts[:, ::-1].T.T,
              np.asfortranarray(pts), [np.nan, 1.0], [0.0, 2.0], [3.0, -1.0], [-0.0, 0.0]]
    inputs += [row for row in pts[::9]] + [pts[i:i + 1] for i in range(0, len(pts), 11)]
    inputs += [[p.a[p.cap] * 2.1, 0.0], [[1.0, 0.0], [np.inf, 0.0]], [[1.0, 0.0, 5.0]]]
    for x in inputs:
        _assert_same(_outcome(gallery.staircase_eval, x),
                     _outcome(_ref_staircase_eval, x), x)


def test_gallery_has_no_np_select():
    # np.select evaluates every piece on every element; gallery's piecewise
    # oracles gather each piece's own elements instead
    src = Path(gallery.__file__).read_text(encoding="utf-8")
    bad = [
        node.lineno
        for node in ast.walk(ast.parse(src))
        if isinstance(node, ast.Attribute) and node.attr == "select"
        or isinstance(node, ast.Name) and node.id == "select"
    ]
    assert bad == []


# ---------------------------------------------------------------------------
# rotator, cone witnesses, shift
# ---------------------------------------------------------------------------


# The forms the column-wise oracles replaced: a stack, zeros_like with a
# shifted slice, and a boolean row scatter of frac[:, None] * kw rows.
def _stack_rotator_eval(x):
    x = np.asarray(x, dtype=float)
    return np.stack([-x[..., 1], x[..., 0]], axis=-1)


def _slice_shift_eval(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[..., 1:] = x[..., :-1]
    return out


def _row_scatter_staircase_eval(x):
    p = gallery.default_staircase()
    pts = np.asarray(x, dtype=float)
    x1 = pts[..., 0]
    if np.any(x1 > p.a[p.cap]):
        raise SequenceOverflow(
            f"first coordinate beyond segment cap a[{p.cap}] = {p.a[p.cap]:.4g}")
    vals = np.zeros(x1.shape + (2,))
    right = ~(x1 <= 0.0)
    xr = x1[right]
    seg = np.minimum(np.searchsorted(p.a, xr, side="left"), p.cap)
    frac = (xr - p.a.take(seg - 1)) / p.pow2.take(seg)
    walk = p.prefix.take(seg - 1, axis=0)
    walk += frac[:, None] * p.kw.take(seg, axis=0)
    vals[right] = walk
    return vals


def _layouts(pts):
    """``pts`` of shape ``(n, d)`` as 1-d, 2-d, 3-d, empty, transposed,
    strided-slice and Fortran input."""
    d = pts.shape[1]
    return [pts, pts[0], pts[5], pts[:36].reshape(3, 12, d), pts[:36].reshape(12, 3, d)[:, 1],
            np.empty((0, d)), np.empty((2, 0, d)), np.ascontiguousarray(pts.T).T, pts[::3],
            pts[1::2, :], np.asfortranarray(pts), pts[:, :].tolist(), pts[-1].tolist()]


def _oracle_points(n, d, seed, cap=None):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 301, size=(n, d))
    pts[::7, 0], pts[1::11, -1], pts[2::13, 0] = -0.0, 0.0, np.nan
    pts[3::17, -1], pts[4::19, 0], pts[5::23, -1] = np.inf, -np.inf, 5e-324
    pts[6::29, 0] = -5e-324
    pts[:40, 0] = rng.uniform(-50.0, 50.0, 40)
    if cap is not None:  # keep the first coordinate within the staircase's cap
        pts[:, 0] = np.where(pts[:, 0] > cap, -pts[:, 0], pts[:, 0])
    return pts


@pytest.mark.parametrize("name,fn,before,dims", [
    ("rotator", gallery.rotator_eval, _stack_rotator_eval, (2, 3)),
    ("shift", gallery.shift_eval, _slice_shift_eval, (1, 2, 3, 8, 9)),
    ("staircase", gallery.staircase_eval, _row_scatter_staircase_eval, (2, 3)),
])
def test_columnwise_oracles_are_their_former_forms_bit_for_bit(name, fn, before, dims):
    cap = gallery.default_staircase().a[-1]
    for d in dims:
        pts = _oracle_points(400, d, seed=d, cap=cap if name == "staircase" else None)
        for x in _layouts(pts):
            _assert_same(_outcome(fn, x), _outcome(before, x), (name, d, np.shape(x)))
    # 0-d input, one column, a first coordinate beyond the staircase's cap
    for x in (np.array(1.0), np.ones((3, 1)), [[cap * 2.0, 0.0]]):
        _assert_same(_outcome(fn, x), _outcome(before, x), (name, np.shape(x)))


def test_rotator_examples():
    s = gallery.rotator_eval(np.array([1.0, 0.0]))
    assert np.allclose(s, [0.0, 1.0])
    x = np.array([3.0, 4.0])
    assert np.dot(gallery.rotator_eval(x), x) == 0.0
    x = np.array([1.0, 1.0])
    assert np.dot(gallery.rotator_resolvent(x), x) == pytest.approx(
        0.5 * np.dot(x, x), abs=1e-14
    )


def test_cone_subdiff_witnesses():
    first, second = gallery.cone_subdiff_witnesses(1)
    assert np.allclose(first.x, [1.0, 0.0]) and np.allclose(first.xstar, [2.0, 0.0])
    assert np.allclose(second.x, [1.0, 1.0]) and np.allclose(second.xstar, [2.0, 0.0])
    for n in (1, 3, 10):
        a, b = gallery.cone_subdiff_witnesses(n)
        assert np.linalg.norm(a.xstar - b.xstar) == 0.0
        probe = np.dot(a.xstar, a.x) / np.dot(a.x, a.x)
        assert probe == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(DomainError):
        gallery.cone_subdiff_witnesses(0)


def test_shift_examples():
    e1 = np.zeros(4)
    e1[0] = 1.0
    out = gallery.shift_eval(e1)
    assert np.allclose(out, [0.0, 1.0, 0.0, 0.0])
    assert np.allclose(gallery.shift_eval(np.ones(4)), [0.0, 1.0, 1.0, 1.0])
    x = e1.copy()
    for _ in range(5):
        x = gallery.shift_eval(x)
        assert np.dot(e1, x) == 0.0


def test_registry_contract():
    expected = {
        "cubic",
        "normal-cone-zero",
        "zero",
        "identity",
        "rotator",
        "staircase",
        "clamp-sin-map",
        "clamp-sin-op",
        "quartic-mixed",
        "cone-subdiff",
        "shift",
    }
    assert set(gallery.names()) == expected
    with pytest.raises(UnsupportedOperator):
        gallery.entry("nope")
    with pytest.raises(UnsupportedOperator):
        gallery.operator("cone-subdiff")
    with pytest.raises(DomainError):
        gallery.operator("cubic", dim=3)
    assert gallery.operator("shift", 8).dim == 8
    assert gallery.mapping("shift", 8).dim == 8
    fam = gallery.witnesses("staircase")
    x, y = fam.generator(3)
    assert x[0] == gallery.default_staircase().a[3]
    assert isinstance(fam, WitnessFamily)
    assert (fam.name, fam.n_cap) == ("staircase-ssne", gallery.default_staircase().cap)
    cone = gallery.witnesses("cone-subdiff")
    assert isinstance(cone, WitnessFamily)
    assert (cone.name, cone.n_cap) == ("cone-subdiff-growth", 200)
    assert cone.generator is gallery.cone_subdiff_witnesses
    # `mosk gallery` lists the kinds in makers order
    assert gallery.entry("staircase").kinds == ("map", "operator", "witnesses")


ACCESSORS = {
    "operator": gallery.operator,
    "map": gallery.mapping,
    "function": gallery.function,
    "witnesses": gallery.witnesses,
}


@pytest.mark.parametrize("name", gallery.names())
def test_each_listed_kind_builds_and_no_other(name):
    kinds = gallery.entry(name).kinds
    assert kinds and set(kinds) <= set(ACCESSORS)
    for kind, access in ACCESSORS.items():
        if kind in kinds:
            assert access(name) is not None
        else:
            with pytest.raises(UnsupportedOperator, match="exposes no"):
                access(name)


# What each target kind of a certify.CLASSES row runs on, per entry: the
# object's type and name, or the UnsupportedOperator an entry without an
# operator raises.  "map" classes run on the entry's map, else on R_A; firm
# nonexpansiveness on J_A, else on the map; "graph" classes on the
# operator, else on the witness pairs.
TARGET_KINDS = ("map", "resolvent", "operator", "graph")
_MAP, _OP = core.NonexpansiveMap, core.MonotoneOperator
_NO_OP = (UnsupportedOperator, "exposes no operator")
TARGETS = {
    "cubic": ((_MAP, "R[cubic]"), (_MAP, "J[cubic]"), (_OP, "cubic"), (_OP, "cubic")),
    "normal-cone-zero": ((_MAP, "R[normal-cone-zero]"), (_MAP, "J[normal-cone-zero]"),
                         (_OP, "normal-cone-zero"), (_OP, "normal-cone-zero")),
    "zero": ((_MAP, "R[zero]"), (_MAP, "J[zero]"), (_OP, "zero"), (_OP, "zero")),
    "identity": ((_MAP, "R[identity]"), (_MAP, "J[identity]"), (_OP, "identity"),
                 (_OP, "identity")),
    "rotator": ((_MAP, "rotator"), (_MAP, "J[rotator]"), (_OP, "rotator"), (_OP, "rotator")),
    "staircase": ((_MAP, "staircase"), (_MAP, "J[staircase-op]"), (_OP, "staircase-op"),
                  (_OP, "staircase-op")),
    "clamp-sin-map": ((_MAP, "clamp-sin-map"), (_MAP, "clamp-sin-map"), _NO_OP, _NO_OP),
    "clamp-sin-op": ((_MAP, "R[clamp-sin-op]"), (_MAP, "J[clamp-sin-op]"),
                     (_OP, "clamp-sin-op"), (_OP, "clamp-sin-op")),
    "quartic-mixed": ((_MAP, "R[quartic-mixed]"), (_MAP, "J[quartic-mixed]"),
                      (_OP, "quartic-mixed"), (_OP, "quartic-mixed")),
    "cone-subdiff": (_NO_OP, _NO_OP, _NO_OP, (WitnessFamily, "cone-subdiff-growth")),
    "shift": ((_MAP, "shift[256]"), (_MAP, "J[shift-op[256]]"), (_OP, "shift-op[256]"),
              (_OP, "shift-op[256]")),
}


def test_target_kinds_are_the_class_table_kinds():
    assert set(TARGETS) == set(gallery.names())
    kinds = {spec.target for spec in certify.CLASSES.values() if spec.run is not None}
    assert kinds == set(TARGET_KINDS)


@pytest.mark.parametrize("name", gallery.names())
def test_target_and_families_of_each_entry(name):
    for kind, (want_type, want) in zip(TARGET_KINDS, TARGETS[name]):
        if want_type is UnsupportedOperator:
            with pytest.raises(UnsupportedOperator) as exc:
                gallery.target(name, kind)
            assert str(exc.value) == f"gallery entry {name!r} {want}", kind
        else:
            got = gallery.target(name, kind)
            assert type(got) is want_type and got.name == want, kind
    assert [f.name for f in gallery.families(name)] == (
        ["staircase-ssne"] if name == "staircase" else [])
    for kind in ("function", "witnesses", "Map", ""):
        with pytest.raises(DomainError, match="unknown target kind"):
            gallery.target(name, kind)


def test_target_passes_the_dimension():
    assert gallery.target("shift", "map", 8).dim == 8
    assert gallery.target("zero", "resolvent", 3).dim == 3
    with pytest.raises(DomainError):
        gallery.target("cubic", "operator", 3)



# the tags some code reads: compare_with_declaration reads the two class
# names, fb_operator the cocoercivity constant
READ_TAGS = {"uniformly-monotone", "strongly-monotone", "cocoercive"}


@pytest.mark.parametrize("name", [n for n in gallery.names() if "operator" in gallery.entry(n).kinds])
def test_operators_declare_only_tags_that_are_read(name):
    A = gallery.operator(name)
    ops = [A, core.invert(A), core.from_firmly_nonexpansive(core.resolvent_map(A))]
    try:
        ops.append(core.scale(A, 0.5))
    except UnsupportedOperator:
        pass
    for op in ops:
        assert set(op.declared_properties) <= READ_TAGS, op.name
