"""Concrete operators, mappings, convex functions, and witness sequences.

Every entry is registered under a string identifier (part of the CLI
contract): ``cubic``, ``normal-cone-zero``, ``zero``, ``identity``,
``rotator``, ``staircase``, ``clamp-sin-map``, ``clamp-sin-op``,
``quartic-mixed``, ``cone-subdiff``, ``shift``.  An entry's ``makers``
table maps each kind it exposes (``operator``, ``map``, ``function``,
``witnesses``, the last a :class:`WitnessFamily`) to its builder, which
:func:`operator`, :func:`mapping`, :func:`function` and :func:`witnesses`
look up; a kind the entry does not list raises ``UnsupportedOperator``.

Sign conventions for the clamped-sine pair: with ``T`` the clamped sine,
the registry operator ``clamp-sin-op`` is the one with resolvent
``(Id - T)/2`` (so its reflected resolvent is ``-T``); its pointwise
evaluation is the ``h``-based branch formula
:func:`clamp_sin_operator_inverse_eval`.  The ``g``-based branch formula
:func:`clamp_sin_operator_eval` evaluates the *inverse* of that operator
(reflected resolvent ``+T``).  The two closed forms are mutual inverses and
the test suite verifies each against the resolvent algebra of the other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from .core import (
    GraphSample,
    MonotoneOperator,
    NonexpansiveMap,
    WitnessFamily,
    from_neg_reflected,
    reflected_map,
    resolvent_map,
    solve_increasing,
)
from .exceptions import DomainError, SequenceOverflow, UnsupportedOperator

HALF_PI = np.pi / 2.0
# Branch points of the clamped-sine closed forms.
BREAK_OUTER = (np.pi + 2.0) / 4.0
BREAK_INNER = (np.pi - 2.0) / 4.0


# ---------------------------------------------------------------------------
# Scalar inverse solvers (the strictly increasing maps t -> t +/- sin t)
# ---------------------------------------------------------------------------


# Both inverse solvers guarantee an absolute residual of INVERSE_TOL.
INVERSE_BRACKET = (-(np.pi + 2.0) / 2.0, (np.pi + 2.0) / 2.0)
INVERSE_TOL = 1e-12
# Convergence target, relative to the solved value: the inverse error is the
# residual amplified by 1/derivative, and h's derivative vanishes cubically
# at 0, so an absolute target would lose all nearby accuracy.  Values below
# float resolution stop on bracket collapse instead.
INVERSE_RTOL = 1e-15


@dataclass(frozen=True)
class ScalarInverseSolver:
    """Inverts a strictly increasing scalar map on ``INVERSE_BRACKET`` by
    safeguarded Newton steps on ``dforward`` (:func:`solve_increasing`);
    bisection covers where the derivative vanishes (``t - sin t`` at 0).
    """

    forward: Callable[[np.ndarray], np.ndarray]
    dforward: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    name: str = "inverse-solver"

    def range(self) -> Tuple[float, float]:
        lo, hi = INVERSE_BRACKET
        return float(self.forward(np.float64(lo))), float(self.forward(np.float64(hi)))

    def solve(self, value):
        v = np.asarray(value, dtype=float)
        vlo, vhi = self.range()
        if np.any(v < vlo - 1e-12) or np.any(v > vhi + 1e-12):
            raise DomainError(
                f"{self.name}: value outside the range [{vlo:.6g}, {vhi:.6g}]"
            )
        return solve_increasing(
            self.forward,
            np.clip(v, vlo, vhi),
            bracket=INVERSE_BRACKET,
            dfun=self.dforward,
            tol=INVERSE_TOL,
            rtol=INVERSE_RTOL,
        )


g_solver = ScalarInverseSolver(
    forward=lambda t: t + np.sin(t),
    dforward=lambda t: 1.0 + np.cos(t),
    name="g",
)

h_solver = ScalarInverseSolver(
    forward=lambda t: t - np.sin(t),
    dforward=lambda t: 1.0 - np.cos(t),
    name="h",
)


def _t_minus_sin_series(t):
    # relative-accurate t - sin t for |t| <= 0.3
    t2 = t * t
    return (
        t
        * t2
        * (1.0 / 6.0 + t2 * (-1.0 / 120.0 + t2 * (1.0 / 5040.0 - t2 / 362880.0)))
    )


_H_SERIES_CUTOFF = 0.004


def _piecewise(x: np.ndarray, *pieces) -> np.ndarray:
    """``x`` evaluated piece by piece: ``out[mask] = fn(x[mask])`` for each
    ``(mask, fn)`` of ``pieces``, whose masks partition the elements of
    ``x``.  A piece sees only its own elements, so no piece's work is thrown
    away, and a piece without elements is not evaluated.  The result is an
    ndarray of ``x``'s shape, 0-d for 0-d ``x``."""
    if x.ndim == 0:
        # a 0-d x takes its one piece on the numpy scalar, as it always has:
        # a scalar's ``**`` is pow, which can round apart from the array loop
        fn = next(fn for mask, fn in pieces if mask)
        return np.asarray(fn(x[()]), dtype=float)
    out = np.empty(x.shape)
    for mask, fn in pieces:
        if np.count_nonzero(mask):  # cheaper than mask.any() on a few elements
            out[mask] = fn(x[mask])
    return out


def _h_series(s):
    # series seed plus three Newton steps on the series form of t - sin t
    w = np.cbrt(6.0 * s)
    t = w + w * w * w / 60.0
    for _ in range(3):
        f = _t_minus_sin_series(t) - s
        d = 2.0 * np.sin(0.5 * t) ** 2
        t = np.where(d > 0, t - f / np.where(d > 0, d, 1.0), t)
    return t


def h_value(s):
    """Evaluate ``h`` (inverse of ``t -> t - sin t``) to full relative accuracy.

    ``t - sin t`` is sub-ulp for small ``t``, so the generic solver loses the
    root near the cubic degeneracy; below the cutoff a series seed plus
    Newton steps on the series form keeps the inverse relative-accurate.
    """
    s = np.asarray(s, dtype=float)
    small = np.abs(s) <= _H_SERIES_CUTOFF
    return _piecewise(s, (small, _h_series), (~small, h_solver.solve))


# ---------------------------------------------------------------------------
# Clamped sine: the map, the operator pair, and the conjugate function pair
# ---------------------------------------------------------------------------


def clamp_sin(x):
    """The clamped sine: ``sin`` on ``(-pi/2, pi/2)``, saturating at +/-1.

    Nonexpansive, not a Banach contraction, yet a contraction for large
    distances.
    """
    # sin(+/-HALF_PI) is exactly +/-1.0 in float64, so the clip saturates
    return np.sin(np.clip(np.asarray(x, dtype=float), -HALF_PI, HALF_PI))


def _branch_pieces(x: np.ndarray, brk: float, below, mid, above) -> np.ndarray:
    """A clamped-sine branch formula: ``below`` on ``x <= -brk``, ``mid``
    between, ``above`` on ``x >= brk``, each on its own elements.  A NaN lies
    in no piece and is returned as it is."""
    lo, hi, nan = x <= -brk, x >= brk, np.isnan(x)
    return _piecewise(x, (lo, below), (hi, above), (nan, lambda v: v),
                      (~(lo | hi | nan), mid))


def clamp_sin_operator_eval(x):
    """Branch formula (via ``g``) for the operator whose reflected resolvent
    is the clamped sine.

    ``x + 1`` below ``-(pi+2)/4``, ``g(2x) - x`` in between, ``x - 1`` above,
    where ``g`` inverts ``t -> t + sin t``.  This is the inverse of the
    registry operator ``clamp-sin-op``.
    """
    return _branch_pieces(np.asarray(x, dtype=float), BREAK_OUTER, lambda v: v + 1.0,
                          lambda v: g_solver.solve(2.0 * v) - v, lambda v: v - 1.0)


def clamp_sin_operator_inverse_eval(x):
    """Branch formula (via ``h``) for the operator whose reflected resolvent
    is *minus* the clamped sine; the evaluation behind ``clamp-sin-op``.

    ``x - 1`` below ``-(pi-2)/4``, ``h(2x) - x`` in between, ``x + 1`` above,
    where ``h`` inverts ``t -> t - sin t``.
    """
    return _branch_pieces(np.asarray(x, dtype=float), BREAK_INNER, lambda v: v - 1.0,
                          lambda v: h_value(2.0 * v) - v, lambda v: v + 1.0)


def clamp_sin_resolvent(x):
    """Resolvent ``(Id - T)/2`` of the ``clamp-sin-op`` operator.

    Equal to ``(x - clamp_sin(x))/2`` everywhere; the small-argument branch
    evaluates ``(x - sin x)/2`` by series so the cubic leading term survives
    where ``fl(sin x) == x``.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) <= _H_SERIES_CUTOFF
    return _piecewise(x, (small, lambda v: 0.5 * _t_minus_sin_series(v)),
                      (~small, lambda v: 0.5 * (v - clamp_sin(v))))


def clamp_sin_f(x):
    """Antiderivative of :func:`clamp_sin_operator_eval`.

    The integration constant is chosen so that :func:`clamp_sin_fstar` is the
    exact convex conjugate (Fenchel-Young holds with equality along the
    graph of the derivative).
    """

    def mid(v):
        g = g_solver.solve(2.0 * v)
        return 0.5 * (2.0 * v * g - 0.5 * g * g + np.cos(g) - v * v - 0.5 * (np.pi - 1.0))

    return _branch_pieces(np.asarray(x, dtype=float), BREAK_OUTER,
                          lambda v: 0.5 * (v + 1.0) ** 2, mid, lambda v: 0.5 * (v - 1.0) ** 2)


def clamp_sin_fstar(x):
    """Convex conjugate of :func:`clamp_sin_f`; its derivative is
    :func:`clamp_sin_operator_inverse_eval`."""

    def mid(v):
        h = h_value(2.0 * v)
        return 0.5 * (2.0 * v * h - 0.5 * h * h - np.cos(h) - v * v + 0.5 * (np.pi - 1.0))

    return _branch_pieces(np.asarray(x, dtype=float), BREAK_INNER,
                          lambda v: 0.5 * (v * v - 2.0 * v), mid,
                          lambda v: 0.5 * (v * v + 2.0 * v))


# ---------------------------------------------------------------------------
# Cubic operator (x -> x^3) with Cardano resolvent
# ---------------------------------------------------------------------------


def cubic_resolvent(x):
    """Closed-form resolvent of ``x -> x^3``: solves ``y + y^3 = x``.

    Cardano gives ``a/6 - 2/a`` with ``a = cbrt(12(u + sqrt(u^2 + 12)))``,
    ``u = 9|x|``, and odd reflection for negative ``x``; the reflection
    avoids the cancellation the radicand suffers for large negative
    arguments.  ``a/6 - 2/a`` itself cancels as ``x -> 0``, so it is
    evaluated as the equal quotient ``4u a^2 / ((a^2 + 6)^2 + 108)`` of
    positive terms (from ``a^6 - 1728 = 24u a^3``), which is
    relative-accurate for every ``x``.  Beyond ``|x| = 1e150`` it is
    ``cbrt(x)``.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    # above 1e150 cbrt(x) is exact in float64 (the correction is about
    # x^(-1/3)/3), and below it u^2 cannot overflow
    big = ax > 1e150
    any_big = big.any()
    u = 9.0 * (np.where(big, 0.0, ax) if any_big else ax)
    a = np.cbrt(12.0 * (u + np.sqrt(u * u + 12.0)))
    a2 = a * a
    t = a2 + 6.0
    y = np.copysign(4.0 * u * a2 / (t * t + 108.0), x)
    # an ndarray on either branch, also for 0-d input, as np.where returns
    return np.where(big, np.cbrt(x), y) if any_big else np.asarray(y)


# ---------------------------------------------------------------------------
# Piecewise quartic/sqrt convex function (uniformly convex, not strongly)
# ---------------------------------------------------------------------------


def _quartic_pieces(x: np.ndarray, lo: float, hi: float, *fns) -> np.ndarray:
    """The four ``fns`` of a quartic-mixed formula on ``(-inf, lo]``, ``(lo,
    0)``, ``[0, hi)`` and the rest (``[hi, inf)`` and NaN), each evaluated
    on its own elements only, so no piece can overflow."""
    neg, below = x < 0.0, x < hi
    first = x <= lo
    return _piecewise(x, *zip((first, neg & ~first, below & ~neg, ~below), fns))


def quartic_mixed_f(x):
    """Piecewise convex function: ``4x^2-2``, ``2x^4``, ``x^{3/2}``,
    ``3x^2/4 + 1/4`` on ``(-inf,-1], (-1,0), [0,1), [1,inf)``."""
    return _quartic_pieces(
        np.asarray(x, dtype=float), -1.0, 1.0,
        lambda v: 4.0 * v * v - 2.0, lambda v: 2.0 * np.square(np.square(v)),
        lambda v: v**1.5, lambda v: 0.75 * v * v + 0.25,
    )


def quartic_mixed_fprime(x):
    """Derivative of :func:`quartic_mixed_f`: continuous and strictly
    increasing, with flattening of order ``x^3`` at the origin."""
    return _quartic_pieces(
        np.asarray(x, dtype=float), -1.0, 1.0,
        lambda v: 8.0 * v, lambda v: 8.0 * v * v * v, lambda v: 1.5 * np.sqrt(v),
        lambda v: 1.5 * v,
    )


def quartic_mixed_fsecond(x):
    """Second derivative of :func:`quartic_mixed_f`: ``8``, ``24x^2``,
    ``0.75/sqrt(x)``, ``1.5`` on the pieces; ``+inf`` at ``0.0`` and at
    ``-0.0``, which the ``[0, 1)`` piece takes as ``+0.0``."""
    with np.errstate(divide="ignore"):
        return _quartic_pieces(
            np.asarray(x, dtype=float), -1.0, 1.0,
            lambda v: 8.0, lambda v: 24.0 * v * v, lambda v: 0.75 / np.sqrt(v + 0.0),
            lambda v: 1.5,
        )


def quartic_mixed_resolvent(x, gamma: float = 1.0):
    """Closed-form resolvent of ``gamma`` times :func:`quartic_mixed_fprime`:
    solves ``y + gamma f'(y) = x``, one explicit formula per piece of ``f'``.

    ``x/(1 + 8 gamma)`` up to ``-(1 + 8 gamma)``; ``cubic_resolvent(c x)/c``
    with ``c = sqrt(8 gamma)`` below 0, since ``y + 8 gamma y^3 = x`` is the
    cubic case rescaled; ``s^2`` with ``s = 2x/(1.5 gamma + sqrt(2.25
    gamma^2 + 4x))``, the cancellation-free root of ``s^2 + 1.5 gamma s = x``,
    below ``1 + 1.5 gamma``; ``x/(1 + 1.5 gamma)`` beyond.
    """
    if not gamma > 0:
        raise DomainError("gamma must be positive")
    lo, hi = -(1.0 + 8.0 * gamma), 1.0 + 1.5 * gamma
    c = math.sqrt(8.0 * gamma)

    def sqrt_piece(v):
        s = 2.0 * v / (1.5 * gamma + np.sqrt(2.25 * gamma * gamma + 4.0 * v))
        return s * s

    return _quartic_pieces(
        np.asarray(x, dtype=float), lo, hi,
        lambda v: v / (1.0 + 8.0 * gamma), lambda v: cubic_resolvent(c * v) / c, sqrt_piece,
        lambda v: v / hi,
    )


# ---------------------------------------------------------------------------
# One-dimensional Fenchel conjugation through the derivative
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionEntry:
    """A differentiable convex function with optional closed-form conjugate
    and optional second derivative (Newton steps for the conjugate)."""

    name: str
    eval_f: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    eval_fprime: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    eval_fstar: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, repr=False
    )
    eval_fsecond: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, repr=False
    )


# Residual tolerance of the conjugate's root finder, relative to max(1, |x*|).
CONJUGATE_TOL = 1e-12


def fenchel_conjugate_1d(entry: FunctionEntry, xstar):
    """Evaluate the convex conjugate ``f*(x*) = x* y - f(y)`` where ``y``
    solves ``f'(y) = x*`` (by :func:`solve_increasing`, with Newton steps on
    ``eval_fsecond`` when the entry has one).

    Requires ``eval_fprime`` continuous, strictly increasing and surjective
    onto a neighbourhood of ``x*``.  An element stops once its residual is
    at most ``CONJUGATE_TOL * |x*|`` or its bracket has collapsed (as at
    ``x* = 0``), so small ``|x*|`` keep their relative accuracy; the result
    is accepted with residuals up to ``CONJUGATE_TOL * max(1, |x*|)``, since
    an absolute tolerance falls below one ulp of ``x*`` once ``|x*|``
    exceeds about ``1e4``.
    """
    xs = np.asarray(xstar, dtype=float)
    y = solve_increasing(
        entry.eval_fprime,
        xs,
        tol=CONJUGATE_TOL * np.maximum(1.0, np.abs(xs)),
        rtol=CONJUGATE_TOL,
        dfun=entry.eval_fsecond,
    )
    return xs * y - entry.eval_f(y)


# ---------------------------------------------------------------------------
# Rotator by a quarter turn
# ---------------------------------------------------------------------------


def rotator_eval(x):
    """The planar quarter-turn ``(x1, x2) -> (-x2, x1)``."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[:-1] + (2,))
    # a column at a time: a stack of the two columns copies row by row
    np.negative(x[..., 1], out=out[..., 0])
    out[..., 1] = x[..., 0]
    return out


def rotator_resolvent(x):
    """Resolvent of the rotator: ``(Id - S)/2`` since ``S^2 = -Id``."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (x - rotator_eval(x))


# ---------------------------------------------------------------------------
# Cone-restricted quadratic subdifferential witnesses
# ---------------------------------------------------------------------------


def cone_subdiff_witnesses(n: int) -> Tuple[GraphSample, GraphSample]:
    """Graph-point pair ``((n,0),(2n,0))`` and ``((n,n),(2n,0))`` of the
    subdifferential of the cone-restricted quadratic.

    The pair has ``x* - y* = 0`` while ``|x - y| = n``, so the ratio
    ``|x*-y*|/|x-y|`` vanishes for every ``n``: coercivity without the
    graph growth condition.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    fn = float(n)
    first = GraphSample(np.array([fn, 0.0]), np.array([2.0 * fn, 0.0]))
    second = GraphSample(np.array([fn, fn]), np.array([2.0 * fn, 0.0]))
    return first, second


def cone_subdiff_witness_family() -> WitnessFamily:
    """The pairs of :func:`cone_subdiff_witnesses` at ``n = 1..200``."""
    return WitnessFamily(name="cone-subdiff-growth", generator=cone_subdiff_witnesses, n_cap=200)


# ---------------------------------------------------------------------------
# Truncated right shift
# ---------------------------------------------------------------------------


def shift_eval(x):
    """Right shift on the trailing axis: ``(x1,...,xN) -> (0,x1,...,x_{N-1})``.

    The truncation drops the last coordinate, so the norm is nonincreasing
    and the map is (firmly) nonexpansive-compatible as a reflected
    resolvent building block.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    # one flat copy shifted by an element; each row's first entry, which
    # took the previous row's last, is then zeroed
    out.reshape(-1)[1:] = x.reshape(-1)[:-1]
    out[..., :1] = 0.0
    return out


# ---------------------------------------------------------------------------
# Staircase mapping (strongly nonexpansive, not super strongly nonexpansive)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaircaseParams:
    """Precomputed segment data for the staircase mapping.

    ``a[m] = 2^{m+1} - 2`` are the segment breakpoints, ``w[m]`` the unit
    directions with decreasing slope, ``K[m] = sqrt(4^m - 4^{-m})`` the
    segment rises, ``beta[m] = K[m]/2^m < 1`` the per-segment contraction
    factors, ``pow2[m] = 2^m`` the segment lengths.  ``prefix[m]``
    holds the compensated partial sums ``sum_{j<=m} K_j w_j``.  Everything
    is precomputed up to ``cap`` and read-only afterwards.
    """

    cap: int
    pow2: np.ndarray
    a: np.ndarray
    K: np.ndarray
    w: np.ndarray
    beta: np.ndarray
    kw: np.ndarray
    prefix: np.ndarray


@functools.lru_cache(maxsize=None)
def default_staircase() -> StaircaseParams:
    """The staircase segment data up to index ``cap = 40`` (``a[40] ~
    2^41``), built on first use."""
    cap = 40
    m = np.arange(cap + 1)
    pow2 = 2.0**m
    pow4 = 4.0**m
    a = np.where(m == 0, 0.0, 2.0 * pow2 - 2.0)
    K = np.sqrt(pow4 - 4.0 ** (-m.astype(float)))
    w = np.stack([pow2, np.ones_like(pow2)], axis=-1) / np.sqrt(pow4 + 1.0)[:, None]
    beta = K / pow2
    # rho_m = K_m / sqrt(4^m + 1), computed as a single ratio for stability
    rho = np.sqrt((pow4 - 4.0 ** (-m.astype(float))) / (pow4 + 1.0))
    kw = np.stack([pow2 * rho, rho], axis=-1)
    prefix = np.zeros((cap + 1, 2))
    for mm in range(1, cap + 1):
        prefix[mm, 0] = math.fsum(kw[1 : mm + 1, 0])
        prefix[mm, 1] = math.fsum(kw[1 : mm + 1, 1])
    return StaircaseParams(cap=cap, pow2=pow2, a=a, K=K, w=w, beta=beta, kw=kw, prefix=prefix)


def staircase_eval(x):
    """Evaluate the staircase mapping at points of shape ``(..., 2)``.

    Zero on the left half-plane; on the segment ``a[m-1] <= x1 <= a[m]`` the
    image walks the precomputed partial sum plus the fractional step along
    ``K_m w_m``.  The output is independent of the second coordinate.
    Raises ``SequenceOverflow`` beyond the segment cap; a NaN first
    coordinate gives a NaN row.
    """
    p = default_staircase()
    pts = np.asarray(x, dtype=float)
    x1 = pts[..., 0].reshape(-1)
    # only the rows right of the origin walk the staircase, the NaN rows too;
    # the gather leaves them contiguous, where np.searchsorted is fast, and
    # an index gather and scatter are cheaper than boolean ones
    right = np.flatnonzero(~(x1 <= 0.0))
    xr = x1.take(right)
    if np.any(xr > p.a[p.cap]):
        raise SequenceOverflow(
            f"first coordinate beyond segment cap a[{p.cap}] = {p.a[p.cap]:.4g}"
        )
    vals = np.zeros(pts.shape[:-1] + (2,))
    # searchsorted puts NaN past the last breakpoint
    seg = np.minimum(np.searchsorted(p.a, xr, side="left"), p.cap)
    frac = (xr - p.a.take(seg - 1)) / p.pow2.take(seg)
    # one coordinate at a time, so that no numpy loop runs per row
    rows = vals.reshape(-1, 2)
    for j in range(2):
        walk = p.prefix[:, j].take(seg - 1)
        walk += frac * p.kw[:, j].take(seg)
        rows[:, j][right] = walk
    return vals


def staircase_witnesses(n: int):
    """Witness pair ``x_n = (a_n, 0)``, ``y_n = (a_{n-1}, 0)`` together with
    the squared-norm gap ``d_n`` and the displacement gap norm ``g_n``.

    Across one segment the image difference is exactly ``K_n w_n``, so
    ``d_n = 4^n - K_n^2 = 4^{-n}`` and the displacement gap tends to
    ``(0, -1)``.  Both are returned in cancellation-free form: the direct
    float64 evaluation of ``|x-y|^2 - |Tx-Ty|^2`` underflows to zero for
    ``n >~ 13`` while the true value is ``4^{-n}``.
    """
    p = default_staircase()
    if n < 1:
        raise DomainError("witness index must be >= 1")
    if n > p.cap:
        raise SequenceOverflow(f"witness index beyond cap {p.cap}")
    x = np.array([p.a[n], 0.0])
    y = np.array([p.a[n - 1], 0.0])
    d = 4.0 ** (-n)
    # 1 - rho_n^2 = (1 + 4^{-n}) / (4^n + 1); gap = (2^n (1-rho), -rho)
    u = (1.0 + 4.0 ** (-n)) / (4.0**n + 1.0)
    rho = math.sqrt(1.0 - u)
    gap1 = 2.0**n * u / (1.0 + rho)
    g = math.hypot(gap1, rho)
    return x, y, d, g


def staircase_witness_family() -> WitnessFamily:
    def gen(n: int):
        x, y, _, _ = staircase_witnesses(n)
        return x, y

    return WitnessFamily(name="staircase-ssne", generator=gen, n_cap=default_staircase().cap)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GalleryEntry:
    """A registry entry.  ``makers`` maps each kind the entry exposes
    (``operator``, ``map``, ``function``, ``witnesses``), in listing order,
    to its builder: ``dim -> MonotoneOperator`` or ``dim -> NonexpansiveMap``,
    ``() -> FunctionEntry`` or ``() -> WitnessFamily``."""

    name: str
    default_dim: int
    parametric_dim: bool
    summary: str
    makers: Mapping[str, Callable] = field(repr=False)

    @property
    def kinds(self) -> Tuple[str, ...]:
        return tuple(self.makers)


def _cube(x):
    x = np.asarray(x, dtype=float)
    return x * x * x


def _op_cubic(dim: int) -> MonotoneOperator:
    return MonotoneOperator(
        dim=1,
        resolvent=cubic_resolvent,
        name="cubic",
        direct_eval=_cube,
        inverse_direct_eval=np.cbrt,
        declared_properties={"uniformly-monotone": None},
        scaled_resolvent=lambda g: (
            lambda x, _s=math.sqrt(g): cubic_resolvent(_s * np.asarray(x, dtype=float)) / _s
        ),
    )


def _op_normal_cone_zero(dim: int) -> MonotoneOperator:
    return MonotoneOperator(
        dim=dim,
        resolvent=lambda x: np.zeros(np.shape(x)),
        name="normal-cone-zero",
        declared_properties={"strongly-monotone": None, "uniformly-monotone": None},
        scaled_resolvent=lambda g: (lambda x: np.zeros(np.shape(x))),
    )


def _op_zero(dim: int) -> MonotoneOperator:
    return MonotoneOperator(
        dim=dim,
        resolvent=lambda x: np.asarray(x, dtype=float),
        name="zero",
        direct_eval=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        inverse_direct_eval=None,
        scaled_resolvent=lambda g: (lambda x: np.asarray(x, dtype=float)),
    )


def _op_identity(dim: int) -> MonotoneOperator:
    return MonotoneOperator(
        dim=dim,
        resolvent=lambda x: 0.5 * np.asarray(x, dtype=float),
        name="identity",
        direct_eval=lambda x: np.asarray(x, dtype=float),
        inverse_direct_eval=lambda x: np.asarray(x, dtype=float),
        declared_properties={
            "uniformly-monotone": None,
            "strongly-monotone": 1.0,
            "cocoercive": 1.0,
        },
        scaled_resolvent=lambda g: (lambda x: np.asarray(x, dtype=float) / (1.0 + g)),
    )


def _op_rotator(dim: int) -> MonotoneOperator:
    return MonotoneOperator(
        dim=2,
        resolvent=rotator_resolvent,
        name="rotator",
        direct_eval=rotator_eval,
        inverse_direct_eval=lambda x: -rotator_eval(x),
    )


def _op_clamp_sin(dim: int) -> MonotoneOperator:
    return MonotoneOperator(
        dim=1,
        resolvent=clamp_sin_resolvent,
        name="clamp-sin-op",
        direct_eval=clamp_sin_operator_inverse_eval,
        inverse_direct_eval=clamp_sin_operator_eval,
        declared_properties={"uniformly-monotone": None},
    )


def _op_quartic(dim: int) -> MonotoneOperator:
    return MonotoneOperator(
        dim=1,
        resolvent=quartic_mixed_resolvent,
        name="quartic-mixed",
        direct_eval=quartic_mixed_fprime,
        declared_properties={"uniformly-monotone": None},
        scaled_resolvent=lambda g: lambda x: quartic_mixed_resolvent(x, g),
    )


def _map_staircase(dim: int) -> NonexpansiveMap:
    return NonexpansiveMap(2, staircase_eval, name="staircase")


def _op_staircase(dim: int) -> MonotoneOperator:
    return replace(from_neg_reflected(_map_staircase(2)), name="staircase-op")


def _map_clamp_sin(dim: int) -> NonexpansiveMap:
    return NonexpansiveMap(1, clamp_sin, name="clamp-sin-map")


def _map_rotator(dim: int) -> NonexpansiveMap:
    return NonexpansiveMap(2, rotator_eval, name="rotator")


def _map_shift(dim: int) -> NonexpansiveMap:
    return NonexpansiveMap(dim, shift_eval, name=f"shift[{dim}]")


def _op_shift(dim: int) -> MonotoneOperator:
    return replace(from_neg_reflected(_map_shift(dim)), name=f"shift-op[{dim}]")


def _fn_cubic() -> FunctionEntry:
    return FunctionEntry(
        name="cubic",
        eval_f=lambda x: 0.25 * np.square(np.square(np.asarray(x, dtype=float))),
        eval_fprime=_cube,
        eval_fstar=lambda s: 0.75 * np.abs(np.asarray(s, dtype=float)) ** (4.0 / 3.0),
        eval_fsecond=lambda x: 3.0 * np.square(np.asarray(x, dtype=float)),
    )


def _fn_quartic() -> FunctionEntry:
    return FunctionEntry(
        name="quartic-mixed",
        eval_f=quartic_mixed_f,
        eval_fprime=quartic_mixed_fprime,
        eval_fstar=None,
        eval_fsecond=quartic_mixed_fsecond,
    )


def _fn_clamp_sin() -> FunctionEntry:
    return FunctionEntry(
        name="clamp-sin",
        eval_f=clamp_sin_f,
        eval_fprime=clamp_sin_operator_eval,
        eval_fstar=clamp_sin_fstar,
    )


_REGISTRY: Dict[str, GalleryEntry] = {}


def _register(entry: GalleryEntry):
    _REGISTRY[entry.name] = entry


_register(
    GalleryEntry(
        name="cubic",
        default_dim=1,
        parametric_dim=False,
        summary="x -> x^3 with Cardano resolvent; uniformly monotone, inverse is not",
        makers={"operator": _op_cubic, "function": _fn_cubic},
    )
)
_register(
    GalleryEntry(
        name="normal-cone-zero",
        default_dim=1,
        parametric_dim=True,
        summary="normal cone of {0}: resolvent == 0, reflected resolvent == -Id",
        makers={"operator": _op_normal_cone_zero},
    )
)
_register(
    GalleryEntry(
        name="zero",
        default_dim=1,
        parametric_dim=True,
        summary="zero operator: resolvent == Id, reflected resolvent == Id",
        makers={"operator": _op_zero},
    )
)
_register(
    GalleryEntry(
        name="identity",
        default_dim=1,
        parametric_dim=True,
        summary="identity operator: 1-strongly monotone and 1-cocoercive",
        makers={"operator": _op_identity},
    )
)
_register(
    GalleryEntry(
        name="rotator",
        default_dim=2,
        parametric_dim=False,
        summary="quarter-turn rotation: isometry, monotone but not uniformly",
        makers={"operator": _op_rotator, "map": _map_rotator},
    )
)
_register(
    GalleryEntry(
        name="staircase",
        default_dim=2,
        parametric_dim=False,
        summary="piecewise-linear staircase: strongly nonexpansive, not super strongly",
        makers={
            "map": _map_staircase,
            "operator": _op_staircase,
            "witnesses": staircase_witness_family,
        },
    )
)
_register(
    GalleryEntry(
        name="clamp-sin-map",
        default_dim=1,
        parametric_dim=False,
        summary="clamped sine: contraction for large distances, not Banach",
        makers={"map": _map_clamp_sin},
    )
)
_register(
    GalleryEntry(
        name="clamp-sin-op",
        default_dim=1,
        parametric_dim=False,
        summary="operator with reflected resolvent -clamp_sin; self-dually uniformly monotone",
        makers={"operator": _op_clamp_sin, "function": _fn_clamp_sin},
    )
)
_register(
    GalleryEntry(
        name="quartic-mixed",
        default_dim=1,
        parametric_dim=False,
        summary="piecewise quartic/sqrt derivative: uniformly but not strongly monotone",
        makers={"operator": _op_quartic, "function": _fn_quartic},
    )
)
_register(
    GalleryEntry(
        name="cone-subdiff",
        default_dim=2,
        parametric_dim=False,
        summary="cone-restricted quadratic subdifferential: coercive, growth condition fails",
        makers={"witnesses": cone_subdiff_witness_family},
    )
)
_register(
    GalleryEntry(
        name="shift",
        default_dim=256,
        parametric_dim=True,
        summary="truncated right shift; operator realized through J = (Id - R)/2",
        makers={"map": _map_shift, "operator": _op_shift},
    )
)


def names() -> Tuple[str, ...]:
    return tuple(_REGISTRY)


def entry(name: str) -> GalleryEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnsupportedOperator(f"unknown gallery entry {name!r}") from None


def dimension(name: str, dim: Optional[int] = None) -> int:
    """The dimension an entry is built in: ``dim``, or the entry's default
    when ``None``; a usage error when it is below 1 or the entry's
    dimension is fixed to another value."""
    e = entry(name)
    if dim is None:
        return e.default_dim
    if dim < 1:
        raise DomainError(f"dimension must be >= 1, got {dim}")
    if not e.parametric_dim and dim != e.default_dim:
        raise DomainError(f"{name} has fixed dimension {e.default_dim}")
    return dim


def _maker(name: str, kind: str, noun: str) -> Callable:
    """The entry's builder of ``kind``; ``UnsupportedOperator`` naming the
    ``noun`` when the entry exposes none."""
    make = entry(name).makers.get(kind)
    if make is None:
        raise UnsupportedOperator(f"gallery entry {name!r} exposes no {noun}")
    return make


def operator(name: str, dim: Optional[int] = None) -> MonotoneOperator:
    return _maker(name, "operator", "operator")(dimension(name, dim))


def mapping(name: str, dim: Optional[int] = None) -> NonexpansiveMap:
    return _maker(name, "map", "mapping")(dimension(name, dim))


def function(name: str) -> FunctionEntry:
    return _maker(name, "function", "function")()


def witnesses(name: str) -> WitnessFamily:
    return _maker(name, "witnesses", "witnesses")()


def target(name: str, kind: str, dim: Optional[int] = None):
    """What a ``certify.CLASSES`` row of target ``kind`` runs on for entry
    ``name``: for ``map`` its map, else ``R_A``; for ``resolvent`` ``J_A``,
    else its map; for ``operator`` ``A``; for ``graph`` ``A``, else its witnesses."""
    kinds = entry(name).kinds
    if kind == "graph" and "operator" not in kinds and "witnesses" in kinds:
        return witnesses(name)
    if kind in ("operator", "graph"):
        return operator(name, dim)
    if kind == "resolvent" and "operator" in kinds:
        return resolvent_map(operator(name, dim))
    if kind not in ("map", "resolvent"):
        raise DomainError(f"unknown target kind {kind!r}")
    return mapping(name, dim) if "map" in kinds else reflected_map(operator(name, dim))


def families(name: str) -> list:
    """The entry's own witness families, probed by the SNE and SSNE rows."""
    return [witnesses(name)] if {"map", "witnesses"} <= set(entry(name).kinds) else []
