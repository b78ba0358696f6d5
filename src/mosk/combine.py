"""Composition calculus for nonexpansive mappings and the splitting-operator
builders (Peaceman-Rachford, Douglas-Rachford, forward-backward).

The splitting operators are built by :func:`compose` and
:func:`convex_combination` from ``core.reflected_map`` and
``core.resolvent_map``: ``R_B R_A``, ``(Id + R_B R_A)/2``, ``J_{gB}(Id - gA)``.

Class metadata does not propagate automatically through composition:
:func:`predicted_sign` is a separate declarative calculator for the sign
carried by a composition of maps that are (super) strongly nonexpansive up
to sign, given the sign of each declaration; the certifiers provide the
empirical cross-check.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import MonotoneOperator, NonexpansiveMap, _check_dim, reflected_map, resolvent_map, scale
from .exceptions import DimensionMismatch, DomainError, StepSizeOutOfRange, UnsupportedOperator


def compose(maps: Sequence[NonexpansiveMap]) -> NonexpansiveMap:
    """Composition ``x -> T_m(...T_1(x)...)`` of the given list (applied in
    list order)."""
    maps = list(maps)
    if not maps:
        raise DomainError("need at least one map")
    dim = maps[0].dim
    for T in maps:
        if T.dim != dim:
            raise DimensionMismatch("all maps must share one dimension")

    evals = [T.eval for T in maps]

    def ev(x):
        for f in evals:
            x = f(x)
        return x

    name = "*".join(T.name for T in reversed(maps))
    return NonexpansiveMap(dim, ev, name=name)


def predicted_sign(signs: Sequence[int]) -> int:
    """Sign ``(-1)^{#negative declarations}``: the signed multiple of the
    composition that carries the declared class.  Each map's sign is the one
    under which its (super) strong nonexpansiveness is declared: ``+1`` means
    the map itself carries the class, ``-1`` means its negative does."""
    signs = list(signs)
    if not signs:
        raise DomainError("need at least one sign")
    if any(s not in (-1, 1) for s in signs):
        raise DomainError("sign must be +1 or -1")
    return -1 if signs.count(-1) % 2 else 1


def negate(T: NonexpansiveMap) -> NonexpansiveMap:
    return NonexpansiveMap(T.dim, lambda x: -T.eval(x), name=f"-{T.name}")


def convex_combination(T1: NonexpansiveMap, T2: NonexpansiveMap,
                       lam: float) -> NonexpansiveMap:
    """Pointwise combination ``(1 - lam) T1 + lam T2`` with ``lam`` in (0,1)."""
    if not 0.0 < lam < 1.0:
        raise DomainError("lambda must lie in (0, 1)")
    if T1.dim != T2.dim:
        raise DimensionMismatch("maps live in different dimensions")
    return NonexpansiveMap(
        T1.dim,
        lambda x: (1.0 - lam) * T1.eval(x) + lam * T2.eval(x),
        name=f"comb[{T1.name},{T2.name};{lam}]",
    )


def pr_operator(A: MonotoneOperator, B: MonotoneOperator) -> NonexpansiveMap:
    """The Peaceman-Rachford operator ``x -> R_B(R_A(x))``."""
    if A.dim != B.dim:
        raise DimensionMismatch("operators live in different dimensions")
    pr = compose([reflected_map(A), reflected_map(B)])
    return NonexpansiveMap(A.dim, pr.eval, name=f"PR[{A.name},{B.name}]")


def dr_operator(A: MonotoneOperator, B: MonotoneOperator) -> NonexpansiveMap:
    """The Douglas-Rachford operator ``x -> (x + R_B(R_A(x))) / 2``."""
    ident = NonexpansiveMap(A.dim, lambda x: np.asarray(x, dtype=float), name="Id")
    dr = convex_combination(ident, pr_operator(A, B), 0.5)
    return NonexpansiveMap(A.dim, dr.eval, name=f"DR[{A.name},{B.name}]")


def fb_operator(A: MonotoneOperator, B: MonotoneOperator, gamma: float) -> NonexpansiveMap:
    """The forward-backward operator ``x -> J_{gamma B}(x - gamma A(x))``.

    Requires ``A`` to expose a direct evaluation and a declared cocoercivity
    constant ``beta``; the step size must satisfy ``0 < gamma < 2 beta``.
    """
    if A.dim != B.dim:
        raise DimensionMismatch("operators live in different dimensions")
    if A.direct_eval is None:
        raise UnsupportedOperator("forward operator needs a direct evaluation")
    beta = A.declared("cocoercive")
    if beta is None:
        raise UnsupportedOperator("forward operator must declare cocoercive(beta)")
    if not 0.0 < gamma < 2.0 * beta:
        raise StepSizeOutOfRange(
            f"gamma = {gamma} outside (0, {2.0 * beta}) for beta = {beta}"
        )
    a, dim = A.direct_eval, A.dim

    def forward(x):
        x = _check_dim(dim, x)
        return x - gamma * a(x)

    fb = compose([NonexpansiveMap(dim, forward), resolvent_map(scale(B, gamma))])
    return NonexpansiveMap(dim, fb.eval, name=f"FB[{A.name},{B.name};{gamma}]")
