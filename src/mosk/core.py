"""Ambient vector arithmetic, the monotone-operator abstraction, and the
resolvent identity layer.

An operator ``A`` is represented primarily by its resolvent oracle
``J = (Id + A)^{-1}``; a direct single-valued evaluation ``x -> A(x)`` is
optional metadata (set-valued operators such as the normal cone of ``{0}``
have a trivial resolvent but no function evaluation).  Everything in this
module is a pure function of its inputs; operators are immutable after
construction.

Oracle convention: all oracles are vectorized over leading axes.  Operators
with ``dim >= 2`` map arrays of shape ``(..., dim)`` to the same shape;
one-dimensional operators act elementwise on arrays of any shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from .exceptions import (
    DimensionMismatch,
    DomainError,
    NumericalFailure,
    UnsupportedOperator,
)

Oracle = Callable[[np.ndarray], np.ndarray]

# Root-found resolvents stop on this absolute residual.  Closed-form
# resolvents are exact up to rounding, which grows with |x|, so no absolute
# bound holds for them.
TOL_RESOLVENT_ROOT = 1e-10

# Bracket expansion doubles an initial radius of 1 up to 2**60 before failing.
BRACKET_RADIUS0 = 1.0
BRACKET_CAP = 2.0**60
MAX_STEPS = 240


def as_point(x, dim: Optional[int] = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 vector.

    Raises ``DomainError`` on non-finite coordinates and
    ``DimensionMismatch`` when ``dim`` is given and does not match.
    """
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1 or p.size < 1:
        raise DomainError(f"expected a 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DomainError("point has non-finite coordinates")
    if dim is not None and p.size != dim:
        raise DimensionMismatch(f"expected dim {dim}, got {p.size}")
    return p


@dataclass(frozen=True)
class MonotoneOperator:
    """A maximally monotone operator represented by its resolvent oracle.

    ``direct_eval`` (if present) evaluates ``A`` itself and must satisfy the
    parametrization identity ``J(x) + A(J(x)) = x``.  ``inverse_direct_eval``
    optionally carries a closed form for ``A^{-1}`` so that :func:`invert`
    round-trips exactly.  ``declared_properties`` maps trusted class tags
    to an optional parameter value.  Three tags are read:
    ``"uniformly-monotone"`` and ``"strongly-monotone"`` by
    ``certify.compare_with_declaration``, and ``"cocoercive"``, whose value
    is the constant ``combine.fb_operator`` needs; certifiers never read
    them.  ``scaled_resolvent``, when registered, returns a closed form
    resolvent oracle for ``gamma * A``.
    """

    dim: int
    resolvent: Oracle = field(repr=False)
    name: str = "A"
    direct_eval: Optional[Oracle] = field(default=None, repr=False)
    inverse_direct_eval: Optional[Oracle] = field(default=None, repr=False)
    declared_properties: Mapping[str, Optional[float]] = field(default_factory=dict)
    scaled_resolvent: Optional[Callable[[float], Oracle]] = field(default=None, repr=False)

    def declares(self, tag: str) -> bool:
        return tag in self.declared_properties

    def declared(self, tag: str) -> Optional[float]:
        return self.declared_properties.get(tag)


@dataclass(frozen=True)
class NonexpansiveMap:
    """A single-valued mapping declared (or certified) nonexpansive."""

    dim: int
    eval: Oracle = field(repr=False)
    name: str = "T"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.eval(x)


class GraphSample(NamedTuple):
    """A graph point ``(x, x*)`` with ``x* in A(x)``, possibly batched."""

    x: np.ndarray
    xstar: np.ndarray


@dataclass(frozen=True)
class WitnessFamily:
    """An indexed family of point pairs used by the sequential certifiers."""

    name: str
    generator: Callable[[int], Tuple[np.ndarray, np.ndarray]] = field(repr=False)
    n_cap: int = 60


def _check_dim(dim: int, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if dim > 1 and (x.ndim == 0 or x.shape[-1] != dim):
        raise DimensionMismatch(f"operator of dim {dim}, point of shape {x.shape}")
    return x


def resolvent(A: MonotoneOperator, x) -> np.ndarray:
    """Evaluate ``J_A(x)``."""
    return A.resolvent(_check_dim(A.dim, x))


def reflected_resolvent(A: MonotoneOperator, x) -> np.ndarray:
    """Evaluate ``R_A(x) = 2 J_A(x) - x``."""
    x = _check_dim(A.dim, x)
    return 2.0 * A.resolvent(x) - x


def resolvent_map(A: MonotoneOperator) -> NonexpansiveMap:
    """The resolvent as a (firmly nonexpansive) mapping."""
    return NonexpansiveMap(A.dim, A.resolvent, name=f"J[{A.name}]")


def reflected_map(A: MonotoneOperator) -> NonexpansiveMap:
    """The reflected resolvent as a nonexpansive mapping."""
    return NonexpansiveMap(
        A.dim, lambda x: 2.0 * A.resolvent(x) - x, name=f"R[{A.name}]"
    )


_INVERT_SWAP = {"strongly-monotone": "cocoercive", "cocoercive": "strongly-monotone"}


def invert(A: MonotoneOperator) -> MonotoneOperator:
    """The inverse operator, realized through ``J_{A^{-1}} = Id - J_A``.

    Declared ``"strongly-monotone"`` and ``"cocoercive"`` swap with the same
    constant; ``"uniformly-monotone"`` is dropped, because it does not
    transfer in general.
    """
    props = {_INVERT_SWAP[tag]: value for tag, value in A.declared_properties.items()
             if tag in _INVERT_SWAP}
    res = A.resolvent
    return MonotoneOperator(
        dim=A.dim,
        resolvent=lambda x: np.asarray(x, dtype=float) - res(x),
        name=f"{A.name}^-1",
        direct_eval=A.inverse_direct_eval,
        inverse_direct_eval=A.direct_eval,
        declared_properties=props,
    )


def from_neg_reflected(T: NonexpansiveMap) -> MonotoneOperator:
    """The maximally monotone operator whose reflected resolvent is ``-T``.

    Its resolvent is ``x -> (x - T(x)) / 2``; maximal monotonicity follows
    from the nonexpansiveness of ``T``.
    """
    ev = T.eval
    return MonotoneOperator(
        dim=T.dim,
        resolvent=lambda x: 0.5 * (np.asarray(x, dtype=float) - ev(x)),
        name=f"opneg[{T.name}]",
    )


def from_firmly_nonexpansive(F: NonexpansiveMap) -> MonotoneOperator:
    """The maximally monotone operator whose resolvent is ``F``."""
    return MonotoneOperator(
        dim=F.dim,
        resolvent=F.eval,
        name=f"op[{F.name}]",
    )


def minty_sample(A: MonotoneOperator, z) -> GraphSample:
    """Graph point produced by the parametrization ``z -> (J z, z - J z)``.

    Batched: ``z`` of shape ``(n, dim)`` yields batched graph samples.
    """
    z = _check_dim(A.dim, z)
    jz = A.resolvent(z)
    return GraphSample(x=jz, xstar=z - jz)


def solve_increasing(
    fun: Callable[[np.ndarray], np.ndarray],
    target,
    *,
    tol: float = 1e-12,
    rtol: float = 0.0,
    center=0.0,
    bracket: Optional[Tuple[float, float]] = None,
    dfun: Optional[Callable[[np.ndarray], np.ndarray]] = None,
):
    """Solve ``fun(t) = target`` elementwise for a continuous nondecreasing
    ``fun``.

    The bracket is ``bracket = (lo, hi)``, which must enclose every root, or
    else grows by doubling a radius of ``BRACKET_RADIUS0`` around ``center``
    up to ``BRACKET_CAP``.  A step is Newton's on ``dfun`` when given and
    strictly inside the bracket, else bisection.  An element stops once
    ``|fun(t) - target| <= rtol * |target|`` (``tol`` when ``rtol`` is 0) or
    no float is left inside its bracket.  An element is accepted only when
    it stopped within ``MAX_STEPS`` steps and its residual is at most
    ``tol``, which may be an array broadcasting against ``target`` (one
    tolerance per element); otherwise ``NumericalFailure`` is raised, also
    for an element still running whose residual is within ``tol``.
    """
    scalar = np.ndim(target) == 0
    tgt = np.atleast_1d(np.asarray(target, dtype=float))
    if bracket is not None:
        lo = np.full_like(tgt, bracket[0])
        hi = np.full_like(tgt, bracket[1])
    else:
        c = np.zeros_like(tgt) + center
        r = np.full_like(tgt, BRACKET_RADIUS0)
        lo = c - r
        hi = c + r
        # every pass doubles some radius, so the cap ends the expansion
        while True:
            need_lo = fun(lo) - tgt > 0
            need_hi = fun(hi) - tgt < 0
            if not (need_lo.any() or need_hi.any()):
                break
            if np.any(r > BRACKET_CAP):
                raise NumericalFailure("bracket expansion exceeded configured cap")
            r = np.where(need_lo | need_hi, 2.0 * r, r)
            lo = np.where(need_lo, c - r, lo)
            hi = np.where(need_hi, c + r, hi)
    stop = rtol * np.abs(tgt) if rtol > 0 else tol

    t = 0.5 * (lo + hi)
    f = fun(t) - tgt
    # the last pass only judges the last step's evaluation
    for step in range(MAX_STEPS + 1):
        lo = np.where(f < 0, t, lo)
        hi = np.where(f > 0, t, hi)
        nxt = 0.5 * (lo + hi)
        # done: the residual is small (or NaN, which the final check rejects),
        # or the rounded midpoint is an end point, which happens exactly when
        # no float is left strictly inside the bracket
        done = ~(np.abs(f) > stop) | (nxt == lo) | (nxt == hi)
        if done.all():
            break
        if step == MAX_STEPS:
            raise NumericalFailure(
                f"root finder did not stop within {MAX_STEPS} steps "
                f"({int(np.count_nonzero(~done))} elements still running)"
            )
        if dfun is not None:
            # a zero derivative gives an infinite or NaN step: bisect there
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = t - f / dfun(t)
            nxt = np.where((newton > lo) & (newton < hi), newton, nxt)
        t = np.where(done, t, nxt)
        f = fun(t) - tgt
    if not np.all(np.abs(f) <= tol):
        raise NumericalFailure(
            f"root finder stalled above residual tolerance {float(np.max(tol))}"
        )
    return float(t[0]) if scalar else t


def solve_scalar_monotone(a: Callable[[np.ndarray], np.ndarray], x):
    """Solve ``y + a(y) = x`` for a continuous nondecreasing scalar ``a``.

    Returns ``y`` with ``|y + a(y) - x| <= TOL_RESOLVENT_ROOT``; the root
    finder behind resolvents of one-dimensional operators that lack a
    closed form.
    """
    return solve_increasing(lambda t: t + a(t), x, tol=TOL_RESOLVENT_ROOT, center=x)


def scale(A: MonotoneOperator, gamma: float) -> MonotoneOperator:
    """The operator ``gamma * A`` (``gamma > 0``), resolvent included.

    Uses a registered closed form when the operator provides one, falls back
    to the scalar root finder for one-dimensional operators with a direct
    evaluation, and raises ``UnsupportedOperator`` otherwise.
    """
    if not 0 < gamma < np.inf:  # NaN fails too
        raise DomainError("gamma must be positive and finite")
    if gamma == 1.0:
        return A
    props = {}
    for tag, value in A.declared_properties.items():
        if tag == "cocoercive" and value is not None:
            props[tag] = value / gamma
        elif tag == "strongly-monotone" and value is not None:
            props[tag] = value * gamma
        else:
            props[tag] = value

    if A.scaled_resolvent is not None:
        res = A.scaled_resolvent(gamma)
    elif A.dim == 1 and A.direct_eval is not None:
        def res(x, _g=gamma, _a=A.direct_eval):
            return solve_scalar_monotone(lambda t: _g * _a(t), x)

    else:
        raise UnsupportedOperator(
            f"no closed-form scaling and no usable direct evaluation for {A.name}"
        )

    direct_eval = None
    if A.direct_eval is not None:
        direct_eval = lambda x, _g=gamma, _a=A.direct_eval: _g * _a(x)  # noqa: E731

    return MonotoneOperator(
        dim=A.dim,
        resolvent=res,
        name=f"{gamma}*{A.name}",
        direct_eval=direct_eval,
        declared_properties=props,
    )
