"""Sampling-based certifiers for nonexpansiveness classes and monotonicity
moduli.

A certifier can only *refute* a class (with a replayable witness) or report
*consistency* of the evidence gathered at the configured sample size; it
never claims a proof.  Pair sampling mixes three deterministic strategies
driven by one seed: independent uniform pairs, antithetic pairs
(``y = -x``, which attain the modulus infimum of odd operators), and radial
shells (pairs at prescribed separations, needed for per-``t`` estimates).

Asymptotic classes (uniform monotonicity, contraction for large distances,
Banach contraction) cannot be refuted by thresholding statistics on a fixed
box: the cube-root inverse of ``x -> x^3`` has a strictly positive sampled
modulus on every bounded box although the class fails globally.  The
certifiers therefore add a geometric *scale probe*: the same statistic is
re-estimated on rings of radius ``RING_BASE * 2^k`` and a monotone decay of
the statistic across rings (below ``DECAY_THRESHOLD``) counts as a
refutation, with the extremal pair of the last ring as witness.

The class table :data:`CLASSES` is the one class-name dispatch, for the
library, the CLI and :func:`replay`.  Every check measures its pairs through
the one engine (:func:`_measure`) and returns a :class:`ClassCertificate`
whose params hold every parameter of its statistic, ``phi`` included, and
whose refutation carries a witness, on which :func:`replay` evaluates the
row's statistic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    GraphSample,
    MonotoneOperator,
    NonexpansiveMap,
    WitnessFamily,
    minty_sample,
)
from .exceptions import DomainError, NumericalFailure

STRATEGIES = ("independent", "antithetic", "radial-shells")

# Absolute tolerance on inequality violations; calibrated against 64-bit
# rounding of the gallery's closed forms.
TOL_CERT = 1e-9
# "Strictly positive" threshold for modulus verdicts.
TOL_POS = 1e-12

CONSISTENT = "consistent"
REFUTED = "refuted"

# Scale probe of the profile certifiers (modulus and CLD).
RING_BASE, RING_COUNT, RING_SAMPLES = 1.0, 15, 2048
DECAY_THRESHOLD, MIN_RING_PAIRS = 0.05, 24

# Banach margin, coercivity shells and the sequential probe's thresholds
# (see check_sequential).
BANACH_MARGIN, COERCIVE_SHELLS = 1e-4, 8
SEQ_DECAY_TOL, SEQ_GAP_FLOOR, SEQ_BOUNDED_FACTOR, SEQ_PREMISE_ULPS = 1e-6, 1e-3, 10.0, 512.0

# Default shell radii t and CLD probes eps (check_selfdual, mosk certify).
PROBES = (0.5, 1.0, 2.0, 4.0)

# Floats of a lifted block (x, u, y, v): the sampler draws and the engine
# lifts, measures and folds a block of rows at a time, so that a certifier
# holds one block and its scale rings.
_BLOCK_FLOATS = 32768


def _block_rows(dim: int) -> int:
    """Rows of a block of ``dim``-vectors: four such arrays hold
    ``_BLOCK_FLOATS`` floats."""
    return max(1, _BLOCK_FLOATS // (4 * dim))


# ---------------------------------------------------------------------------
# Deterministic pair sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplerConfig:
    """Seeded sampling plan for pair-based certifiers.

    Every draw mixes the ``STRATEGIES`` in equal shares, the remainder going
    to the first.  The draw is one PCG64 stream of ``seed`` in a fixed
    layout (:func:`_pair_stream`), so estimates are bit-identical across
    runs, whether the pairs are drawn whole or a block at a time.
    """

    seed: int
    sample_count: int
    box_low: np.ndarray
    box_high: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.box_low, dtype=float))
        hi = np.atleast_1d(np.asarray(self.box_high, dtype=float))
        object.__setattr__(self, "box_low", lo)
        object.__setattr__(self, "box_high", hi)
        if self.seed < 0:  # np.random.default_rng rejects it at the first draw
            raise DomainError("seed must be >= 0")
        if self.sample_count < 1:
            raise DomainError("sample_count must be >= 1")
        if lo.shape != hi.shape or not np.all(lo < hi):
            raise DomainError("need box_low < box_high coordinatewise")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(hi - lo)):
                raise DomainError("need finite box bounds with a finite width")

    @property
    def dim(self) -> int:
        return self.box_low.size

    @staticmethod
    def symmetric(seed: int, sample_count: int, dim: int, half_width: float) -> "SamplerConfig":
        w = float(half_width)
        return SamplerConfig(seed, sample_count, box_low=np.full(dim, -w), box_high=np.full(dim, w))

    def describe(self) -> dict:
        return {
            "seed": int(self.seed),
            "sample_count": int(self.sample_count),
            "box_low": [float(v) for v in self.box_low],
            "box_high": [float(v) for v in self.box_high],
            "pair_strategy": list(STRATEGIES),
        }


def _unit_dirs(rng: np.random.Generator, n: int, d: int, out=None) -> np.ndarray:
    """``n`` random unit vectors of ``R^d``, written to ``out`` when given;
    they are normalised a block of rows at a time, so that the squares
    never span more than a block."""
    v = np.empty((n, d)) if out is None else out
    if d == 1:  # the draws of rng.choice([-1.0, 1.0], size=(n, 1))
        np.multiply(rng.integers(0, 2, size=(n, 1)), 2.0, out=v)
        v -= 1.0
        return v
    rng.standard_normal(out=v)
    step = _block_rows(d)
    for lo in range(0, n, step):
        rows = v[lo:lo + step]
        _scale_rows(rows, np.maximum(_norm(rows), 1e-300), divide=True)
    return v


def _scale_rows(v: np.ndarray, c: np.ndarray, divide: bool = False) -> np.ndarray:
    """``v *= c[:, None]``, or ``v /= c[:, None]`` when ``divide``, in place
    and bit for bit.  Below 5 columns it scales one column at a time: the
    broadcast runs numpy's inner loop once per row, on a handful of
    entries."""
    op = np.divide if divide else np.multiply
    if v.shape[1] < 5:
        for j in range(v.shape[1]):
            op(v[:, j], c, out=v[:, j])
    else:
        op(v, c[:, None], out=v)
    return v


def _box_bounds(lo: np.ndarray, hi: np.ndarray):
    """``(lo, hi)``, as two floats when the box is the same in every
    coordinate, so that :func:`_uniform` scales by scalars and not by a
    broadcast row.  A signed zero compares equal to the other, and it may
    then stand for it: the scaled draw ``(hi - lo) * r`` is never -0.0."""
    if (lo == lo[0]).all() and (hi == hi[0]).all():
        return float(lo[0]), float(hi[0])
    return lo, hi


def _uniform(rng: np.random.Generator, out: np.ndarray, lo, hi):
    """Fill ``out`` with ``rng.uniform(lo, hi, out.shape)`` bit for bit: the
    same draws in C order, scaled in place as ``lo + (hi - lo) * r``.  The
    bounds are arrays of a coordinate each or floats (:func:`_box_bounds`)."""
    rng.random(out=out)
    out *= hi - lo
    out += lo


def _cycle(ladder: np.ndarray, m: int, start: int = 0) -> np.ndarray:
    """Entries ``start .. start + m - 1`` of ``ladder`` repeated."""
    s = start % ladder.size
    return np.tile(ladder, -(-(s + m) // ladder.size))[s:s + m]


def _diagonal(lo: np.ndarray, hi: np.ndarray) -> float:
    """``|hi - lo|``.  The squares overflow from about 1.3e154 on; only
    then is the width rescaled by its largest magnitude, so every finite
    plain norm keeps its bits."""
    w = hi - lo
    with np.errstate(over="ignore"):
        diam = float(np.linalg.norm(w))
    if np.isinf(diam):
        s = float(np.max(np.abs(w)))
        diam = s * float(np.linalg.norm(w / s))
    return diam


def _pair_stream(cfg: SamplerConfig, shell_distances: Optional[Sequence[float]] = None):
    """The rows of :func:`pair_batches` as blocks ``(x, y)``, cut at rows
    ``k * _block_rows(dim)``, so a block may straddle two strategies.

    The draws of one seed's PCG64 stream are laid out as the whole draw
    takes them: the independent ``x`` then ``y``, the antithetic ``x``,
    the radial ``x``, then the radial directions.  A uniform float takes one
    64-bit draw, so each uniform segment reads from its own generator
    advanced to its offset; the directions are the last segment and are
    read in order, since normal and sign draws take a varying number.
    """
    n, d = cfg.sample_count, cfg.dim
    k = len(STRATEGIES)
    counts = [n // k] * k
    counts[0] += n - sum(counts)
    if shell_distances is None or len(shell_distances) == 0:
        ladder = _diagonal(cfg.box_low, cfg.box_high) * 2.0 ** (-np.arange(8.0))
    else:
        ladder = np.asarray(sorted(shell_distances), dtype=float)
    lo, hi = _box_bounds(cfg.box_low, cfg.box_high)
    m0, m1, m2 = counts

    def cursor(offset: int) -> np.random.Generator:
        rng = np.random.default_rng(cfg.seed)
        rng.bit_generator.advance(offset * d)
        return rng

    xs, ys, anti, rad, dirs = (cursor(o) for o in (0, m0, 2 * m0, 2 * m0 + m1, n + m0))

    def independent(x, y, i):
        _uniform(xs, x, lo, hi)
        _uniform(ys, y, lo, hi)

    def antithetic(x, y, i):
        _uniform(anti, x, lo, hi)
        np.negative(x, out=y)

    def radial(x, y, i):  # y = x + t * dir
        _uniform(rad, x, lo, hi)
        _scale_rows(_unit_dirs(dirs, len(y), d, out=y), _cycle(ladder, len(y), i))
        y += x

    segments = [(0, m0, independent), (m0, m1, antithetic), (m0 + m1, m2, radial)]
    step = _block_rows(d)
    for a in range(0, n, step):
        b = min(a + step, n)
        x, y = np.empty((b - a, d)), np.empty((b - a, d))
        for first, m, fill in segments:
            p, q = max(a, first), min(b, first + m)
            if p < q:
                fill(x[p - a:q - a], y[p - a:q - a], p - first)
        yield x, y


def pair_batches(cfg: SamplerConfig, shell_distances: Optional[Sequence[float]] = None):
    """Draw the configured mix of point pairs; returns ``(X, Y)`` of shape
    ``(n, dim)`` each, the blocks of :func:`_pair_stream` end to end.  The
    certifiers measure the stream itself, so they never hold the whole
    draw."""
    X, Y = np.empty((cfg.sample_count, cfg.dim)), np.empty((cfg.sample_count, cfg.dim))
    at = 0
    for x, y in _pair_stream(cfg, shell_distances):
        X[at:at + len(x)], Y[at:at + len(x)] = x, y
        at += len(x)
    return X, Y


def _ring_pair_batches(rng, dim, dist_floor, ring_samples, k):
    """Ring ``k`` of the scale probe as ``[(r, x, y)]``: pairs with ``|x| in
    [r, 2r)``, ``r = RING_BASE * 2^k``, separated by a geometric ladder
    starting at ``dist_floor``; a ring too small for the ladder holds no
    pairs.  The rings read ``rng`` in order of ``k``.  The triple comes in a
    list, and not from a generator, because tools that trace the library
    count the ring pairs on the triples a call returns."""
    r = RING_BASE * 2.0**k
    if 2.0 * r < dist_floor:
        return [(r, np.empty((0, dim)), np.empty((0, dim)))]
    x = _unit_dirs(rng, ring_samples, dim)
    _scale_rows(x, (rng.random(ring_samples) + 1.0) * r)
    y = _unit_dirs(rng, ring_samples, dim)
    n_lad = int(np.floor(np.log2(2.0 * r / dist_floor))) + 1
    _scale_rows(y, _cycle(dist_floor * 2.0 ** np.arange(n_lad), ring_samples))
    y += x
    return [(r, x, y)]


def _draw(cfg: SamplerConfig, knots, ring_samples=RING_SAMPLES):
    """The batches of blocks ``(x, y)`` of a profile probe, each drawn when the
    engine reaches it: the sampled batch with shells at ``knots``, then the rings."""
    yield _pair_stream(cfg, knots)
    rng = np.random.default_rng(cfg.seed + 1)
    for k in range(RING_COUNT):
        for _, x, y in _ring_pair_batches(rng, cfg.dim, knots[0], ring_samples, k):
            yield _blocks(x, y)


def _knots(values, label: str) -> list:
    knots = sorted(float(v) for v in values)
    if not knots or not all(0.0 < k < np.inf for k in knots):  # NaN fails too
        raise DomainError(f"{label} must be positive and finite")
    return knots


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass
class ClassCertificate:
    """Outcome of one sampling certifier run.

    ``estimates`` is a probe -> value table (``probe`` is an epsilon, a
    shell radius ``t``, or a nominal bound), ``witness`` the refuting pair
    as plain coordinate lists (re-checkable via :func:`replay`).
    """

    class_name: str
    params: dict
    estimates: list
    verdict: str
    witness: Optional[list]
    witness_value: Optional[float]
    seed: int
    sample_count: int
    notes: str = ""

    def to_json_dict(self) -> dict:
        return {
            "class": self.class_name,
            "params": self.params,
            "estimates": self.estimates,
            "verdict": self.verdict,
            "witness": self.witness,
            "seed": int(self.seed),
            "samples": int(self.sample_count),
            "notes": self.notes,
        }


class ModulusEstimate(ClassCertificate):
    """The ``uniformly-monotone`` certificate of :func:`estimate_modulus`;
    ``table`` reads its estimates as ``(t, phi_hat(t))`` rows, ``inf`` for
    an empty bin."""

    @property
    def table(self) -> tuple:
        return tuple((row["probe"], np.inf if row["value"] is None else row["value"])
                     for row in self.estimates)

    def certificate(self) -> "ModulusEstimate":
        """The certificate itself: an estimate is one."""
        return self


def _points(*arrays) -> list:
    """The arrays as lists of Python floats."""
    return [np.atleast_1d(np.asarray(a, dtype=float)).tolist() for a in arrays]


# ---------------------------------------------------------------------------
# The certifier engine
# ---------------------------------------------------------------------------
#
# Sampled pairs (x, y) are lifted to four arrays (x, u, y, v): u = T(x) and
# v = T(y) for a map, the graph points (x, u) and (y, v) for an operator.
# Their geometry (_Geometry) gives every pair its distance |x - y|, and a
# class statistic, a formula on it, a value.  Pairs at distance 0 carry no
# evidence and are dropped; a non-finite distance or kept value raises
# NumericalFailure, so failed arithmetic never passes for consistency.  The
# class extreme over a selection of pairs is the estimate and its pair the
# witness: (x, y) for a map, (x, u, y, v) for an operator.  The engine
# (_measure) does all of this one block of rows at a time, as the draw yields
# them (_pair_stream, then each scale ring when the engine reaches it), and
# folds each block into running worst pairs, so no array spans the whole draw.


def _rowsum(p, squares: bool = False):
    """``np.sum(p, axis=1)`` bit for bit.  Below 8 columns numpy adds a
    row's entries in order; from 8 to 15 it adds the first eight as the tree
    ``((p0+p1)+(p2+p3))+((p4+p5)+(p6+p7))`` and then the rest in order;
    either sum then goes onto 0.0.  Column adds build these sums without
    numpy's per-row loop, the tree only in a C-ordered block; other blocks
    keep ``np.sum``.  The add onto 0.0 only turns -0.0 into 0.0, so it is
    left out for ``squares``, which are never -0.0."""
    d = p.shape[1]
    if 0 < d < 8:
        out, rest = (p[:, 0] + p[:, 1], range(2, d)) if d > 1 else (p[:, 0], ())
    elif 8 <= d < 16 and p.flags.c_contiguous:
        out = p[:, 0] + p[:, 1]
        out += p[:, 2] + p[:, 3]
        high = p[:, 4] + p[:, 5]
        high += p[:, 6] + p[:, 7]
        out += high
        rest = range(8, d)
    else:
        return np.sum(p, axis=1)
    for j in rest:
        out += p[:, j]
    return out if squares else out + 0.0


def _sq(a):
    return _rowsum(a * a, squares=True)


def _dot(a, b):
    return _rowsum(a * b)


def _norm(a):
    """``np.linalg.norm(a, axis=1)`` bit for bit: the root of the row sum of
    squares."""
    return np.sqrt(_sq(a))


class _Geometry:
    """The geometry of a block of pairs ``(x, u)``, ``(y, v)``, built once for
    all its statistics: the four arrays, ``d = x - y``, ``w = u - v``, ``dd =
    |d|^2`` and the pair distance ``dist = |d|``; ``wn()`` computes ``|w|``."""

    __slots__ = ("x", "u", "y", "v", "d", "w", "dd", "dist")

    def __init__(self, x, u, y, v):
        self.x, self.u, self.y, self.v = x, u, y, v
        self.d, self.w = x - y, u - v
        self.dd = _sq(self.d)
        self.dist = np.sqrt(self.dd)

    def wn(self):
        return _norm(self.w)


def _ratio(g, params):
    """``|u - v| / |x - y|``: Lipschitz ratio of a map, growth ratio of a graph."""
    return g.wn() / g.dist


def _firm(g, params):
    """Violation of ``|u-v|^2 + |(x-u)-(y-v)|^2 <= |x-y|^2``."""
    return _sq(g.w) + _sq((g.x - g.u) - (g.y - g.v)) - g.dd


def _averaged(g, params):
    """Violation of ``(1-a)|(x-u)-(y-v)|^2 <= a(|x-y|^2 - |u-v|^2)``."""
    a = params["alpha"]
    return (1.0 - a) * _sq((g.x - g.u) - (g.y - g.v)) - a * (g.dd - _sq(g.w))


def _product(g, params):
    """The monotonicity product ``<x-y, u-v>``."""
    return _dot(g.d, g.w)


def _sigma(g, params):
    """The strong-monotonicity ratio ``<x-y, u-v> / |x-y|^2``."""
    return _dot(g.d, g.w) / g.dd


def _slope(g, params):
    """``<x-y, u-v> / |x-y|``; against ``(y, v) = (0, 0)`` the coercivity
    value ``<x, x*> / |x|``."""
    return _dot(g.d, g.w) / g.dist


def _reflected_modulus(g, params):
    """Violation of ``|x-y|^2 - |Rx-Ry|^2 >= 4 phi(|u-v|)`` on ``u = J x``,
    ``v = J y`` and ``R = 2 J - Id``, with ``phi`` the :class:`Modulus`
    whose fields ``params["phi"]`` holds."""
    phi = Modulus(**params["phi"]).value(g.wn())
    return 4.0 * phi - (g.dd - _sq((2.0 * g.u - g.x) - (2.0 * g.v - g.y)))


def _sne(g, params):
    """The strong-nonexpansiveness premise ``|x-y| - |u-v|``, ``u = Tx``."""
    return g.dist - g.wn()


def _ssne(g, params):
    """The super-strong premise ``|x-y|^2 - |u-v|^2``, ``u = Tx``."""
    wn = g.wn()
    return g.dist * g.dist - wn * wn


class ClassSpec(NamedTuple):
    """A class table row: ``statistic(g, params)``, a formula on the block's
    :class:`_Geometry` ``g``, gives the per-pair value, ``extreme``
    (``np.argmax`` or ``np.argmin``) picks the worst pair and ``refutes(value,
    params)`` is the refutation threshold of a worst value, where it has one.
    ``run(target, cfg, *, alpha, t, eps, families)`` runs the certifier on a
    ``target`` of the named kind (``map``, ``resolvent``, ``operator`` or
    ``graph``; :func:`mosk.gallery.target` resolves it for a gallery entry
    and :func:`mosk.gallery.families` gives ``families``), looking the
    certifier up by name at the call, so patches of it apply."""

    statistic: Callable
    extreme: Optional[Callable]
    refutes: Optional[Callable]
    target: Optional[str] = None
    run: Optional[Callable] = None


# the rows with a runner, in this order, are the CLI's --class values
CLASSES = {
    "nonexpansive": ClassSpec(_ratio, np.argmax, lambda v, p: v > 1.0 + TOL_CERT, "map",
                              lambda T, cfg, **_: certify_lipschitz(T, cfg)),
    "banach-contraction": ClassSpec(_ratio, np.argmax, lambda v, p: v >= 1.0 - p["margin"], "map",
                                    lambda T, cfg, **_: certify_banach_contraction(T, cfg)),
    "firmly-nonexpansive": ClassSpec(_firm, np.argmax, lambda v, p: v > TOL_CERT, "resolvent",
                                     lambda F, cfg, **_: certify_firm(F, cfg)),
    "averaged": ClassSpec(_averaged, np.argmax, lambda v, p: v > TOL_CERT, "map",
                          lambda T, cfg, *, alpha, **_: certify_averaged(T, alpha, cfg)),
    "contraction-large-distances": ClassSpec(
        _ratio, np.argmax, lambda v, p: v >= 1.0 - TOL_CERT, "map",
        lambda T, cfg, *, eps, **_: certify_cld(T, eps, cfg)),
    "uniformly-monotone": ClassSpec(_product, np.argmin, lambda v, p: v <= TOL_POS, "operator",
                                    lambda A, cfg, *, t, **_: estimate_modulus(A, t, cfg)),
    "strongly-monotone": ClassSpec(_sigma, np.argmin, lambda v, p: v <= TOL_CERT, "operator",
                                   lambda A, cfg, **_: certify_strongly_monotone(A, cfg)),
    # no worst pair and no threshold: only check_sequential's tail test judges
    "strongly-nonexpansive": ClassSpec(
        _sne, None, None, "map", lambda T, cfg, *, families, **_:
        certify_sequential(T, "strongly-nonexpansive", cfg, families)),
    "super-strongly-nonexpansive": ClassSpec(
        _ssne, None, None, "map", lambda T, cfg, *, families, **_:
        certify_sequential(T, "super-strongly-nonexpansive", cfg, families)),
    "coercive": ClassSpec(_slope, np.argmin, None, "graph",
                          lambda G, cfg, **_: certify_graph(G, "coercive", cfg)),
    "growth-condition": ClassSpec(_ratio, np.argmin, lambda v, p: v <= 1e-6, "graph",
                                  lambda G, cfg, **_: certify_graph(G, "growth-condition", cfg)),
    # no runner: the check needs a modulus phi (check_lemma_3_5)
    "reflected-modulus": ClassSpec(_reflected_modulus, np.argmax, lambda v, p: v > TOL_CERT),
}


class _Extreme(NamedTuple):
    value: Optional[float]  # None when no pair was selected
    witness: Optional[list]
    count: int              # pairs selected


_EMPTY = _Extreme(None, None, 0)


def _lead(pick, best: _Extreme, value, mask, points) -> _Extreme:
    """``best`` after one more block of pairs: their ``value`` where
    ``mask`` holds (all when ``None``).  The block's worst pair takes the
    lead only when strictly worse, so an earlier block wins a tie, and
    within the block the first index ``pick`` returns does, as in one
    ``pick`` over the concatenation.  The witness is copied from the
    block's ``points`` at that index as it takes the lead."""
    n = value.size if mask is None else int(np.count_nonzero(mask))
    if n == 0:
        return best
    top = pick is np.argmax
    j = int(pick(value if mask is None else np.where(mask, value, -np.inf if top else np.inf)))
    v = float(value[j])
    if best.value is not None and not (v > best.value if top else v < best.value):
        return best._replace(count=best.count + n)
    return _Extreme(v, _points(*(a[j] for a in points)), best.count + n)


class _Worst:
    """Running worst pairs of a probe over its selections by distance:
    every kept pair when ``edges`` is ``None``, else per edge ``e_i`` the
    shell ``d >= e_i`` when ``nested`` and the bin ``[e_i, e_{i+1})``, the
    last one unbounded, when not.  The edges are positive knots
    (:func:`_knots`), so ``d >= e_i`` holds for kept pairs only."""

    def __init__(self, edges=None, nested=False):
        self.edges, self.nested = edges, nested
        self.found = [_EMPTY] * (1 if edges is None else len(edges))

    def fold(self, pick, dist, value, points, keep):
        if self.edges is None:
            masks = [keep]
        else:
            masks = [dist >= e for e in self.edges]
            if not self.nested:  # in [e_i, e_{i+1}): d >= e_i but not d >= e_{i+1}
                masks = [a > b for a, b in zip(masks, masks[1:])] + masks[-1:]
        self.found = [_lead(pick, w, value, m, points) for w, m in zip(self.found, masks)]


class _Kept:
    """Every pair's distance, value and keep flag among ``n`` given pairs,
    for the checks that take their points as given and reduce them whole."""

    def __init__(self, n: int):
        self.dist, self.value, self.keep, self.at = np.empty(n), np.empty(n), np.empty(n, bool), 0

    def fold(self, pick, dist, value, points, keep):
        at, self.at = self.at, self.at + dist.size
        self.dist[at:self.at], self.value[at:self.at] = dist, value
        self.keep[at:self.at] = True if keep is None else keep


class _Probe(NamedTuple):
    """One class statistic measured on a draw.  ``folds[i]`` are the
    selections the pairs of the draw's batch ``i`` fold into;
    ``arrays(*lifted)`` gives the statistic's ``(x, u, y, v)`` from the
    engine's lifted block (``None``: the block itself).  A witness is
    ``(x, u, y, v)`` when ``graph``, else ``(x, y)``."""

    name: str
    graph: bool
    folds: list
    params: Optional[dict] = None
    arrays: Optional[Callable] = None


def _lift(target):
    """``(x, y) -> (x, u, y, v)``: graph points of an operator, values of a map."""
    if isinstance(target, MonotoneOperator):
        return lambda x, y: (*minty_sample(target, x), *minty_sample(target, y))
    return lambda x, y: (x, target(x), y, target(y))


def _blocks(*arrays) -> list:
    """Given ``(n, dim)`` arrays as a batch: their blocks of
    ``_block_rows(dim)`` rows, in order (an empty batch has none)."""
    n, step = len(arrays[0]), _block_rows(arrays[0].shape[1])
    return [tuple(a[lo:lo + step] for a in arrays) for lo in range(0, n, step)]


def _measure(probes: Sequence[_Probe], draw, lift=None) -> None:
    """The engine's block loop.  Each batch of ``draw`` is an iterable of
    blocks, tuples of arrays of the same rows (:func:`_blocks`,
    :func:`_pair_stream`), which ``lift`` maps to the oracle's arrays
    (``None``: as given).  For each probe, the block's :class:`_Geometry`
    gives every pair its distance and the class statistic its value, the
    pairs at distance 0 are dropped, and each of the probe's selections
    folds the block with the keep mask (``None`` when every pair is kept).

    Failed arithmetic raises :class:`NumericalFailure` at once, so it never
    passes for consistency: for each block and probe, a non-finite distance
    raises, and then so does a non-finite kept value."""
    for i, batch in enumerate(draw):
        for block in batch:
            lifted = block if lift is None else lift(*block)
            for probe in probes:
                spec = CLASSES[probe.name]
                arrays = lifted if probe.arrays is None else probe.arrays(*lifted)
                with np.errstate(divide="ignore", invalid="ignore"):
                    g = _Geometry(*arrays)
                    dist, value = g.dist, spec.statistic(g, probe.params)
                del g  # its block-sized arrays are freed before the folds allocate theirs
                if not np.isfinite(dist).all():
                    raise NumericalFailure(f"non-finite {probe.name} distance on the sampled pairs")
                keep = dist > 0
                keep = None if keep.all() else keep
                if not np.isfinite(value if keep is None else value[keep]).all():
                    raise NumericalFailure(f"non-finite {probe.name} statistic on the sampled pairs")
                points = arrays if probe.graph else arrays[::2]
                for fold in probe.folds[i]:
                    fold.fold(spec.extreme, dist, value, points, keep)


def _kept(name: str, arrays, *more) -> tuple:
    """``(dist, value, kept)`` of the kept pairs of given ``(x, u, y, v)``:
    their distances, their values and, in ``kept``, their rows of
    ``arrays`` and of the arrays ``more`` that go with them."""
    kept = _Kept(len(arrays[0]))
    _measure([_Probe(name, False, [[kept]])], [_blocks(*arrays)])
    keep = slice(None) if kept.keep.all() else kept.keep
    return kept.dist[keep], kept.value[keep], tuple(a[keep] for a in (*arrays, *more))


def _certificate(name: str, params: dict, estimates: list, refuted: bool, seed: int,
                 samples: int, hit: Optional[_Extreme] = None, notes: str = ""):
    """The one place certificates are built; a refuting ``hit`` is the
    witness."""
    hit = hit if refuted and hit is not None else _EMPTY
    return (ModulusEstimate if name == "uniformly-monotone" else ClassCertificate)(
        class_name=name,
        params=params,
        estimates=estimates,
        verdict=REFUTED if refuted else CONSISTENT,
        witness=hit.witness,
        witness_value=hit.value,
        seed=seed,
        sample_count=samples,
        notes=notes,
    )


def _judge(name: str, worst: _Extreme, seed: int, samples: int, params: dict, probe: float):
    """Certificate of a class from its worst pair; ``seed`` and ``samples``
    record the draw the pairs came from."""
    vacuous = worst.value is None
    return _certificate(
        name, params, [{"probe": probe, "value": worst.value}],
        not vacuous and CLASSES[name].refutes(worst.value, params), seed, samples,
        worst, notes="vacuous: no sampled pair has x != y" if vacuous else "",
    )


def _certify(name: str, target, cfg: SamplerConfig, params: dict, probe: float):
    """Certificate of a class from one batch of sampled pairs."""
    worst = _Worst()
    _measure([_Probe(name, isinstance(target, MonotoneOperator), [[worst]], params)],
             [_pair_stream(cfg)], _lift(target))
    return _judge(name, worst.found[0], cfg.seed, cfg.sample_count,
                  {**params, "sampler": cfg.describe()}, probe)


def _ring_probe(probe: _Probe, decaying=float):
    """The scale probe: per ring ``(RING_BASE * 2^k, worst pair at distance
    >= floor)`` and, when ``decaying(value)`` falls geometrically across the
    rings with at least ``MIN_RING_PAIRS`` pairs (never up by more than 30 %,
    the last at most ``DECAY_THRESHOLD`` times the first), the last such
    ring's worst pair."""
    ends = [(RING_BASE * 2.0**k, folds[-1].found[0]) for k, folds in enumerate(probe.folds[1:])]
    valid = [e for _, e in ends if e.count >= MIN_RING_PAIRS]
    seq = [decaying(e.value) for e in valid]
    decays = (
        len(seq) >= 4
        and seq[0] > 0.0
        and all(nxt <= prev * 1.3 for prev, nxt in zip(seq, seq[1:]))
        and seq[-1] <= DECAY_THRESHOLD * seq[0]
    )
    return ends, (valid[-1] if decays else None)


# ---------------------------------------------------------------------------
# Map classes
# ---------------------------------------------------------------------------


def certify_lipschitz(T: NonexpansiveMap, cfg: SamplerConfig) -> ClassCertificate:
    """Estimate the supremal Lipschitz ratio; refute nonexpansiveness when
    it exceeds ``1 + TOL_CERT``."""
    return _certify("nonexpansive", T, cfg, {}, 1.0)


def certify_firm(F: NonexpansiveMap, cfg: SamplerConfig) -> ClassCertificate:
    """Max violation of ``|Fx-Fy|^2 + |(Id-F)x-(Id-F)y|^2 <= |x-y|^2``."""
    return _certify("firmly-nonexpansive", F, cfg, {}, 0.0)


def certify_averaged(T: NonexpansiveMap, alpha: float, cfg: SamplerConfig) -> ClassCertificate:
    """Max violation of the alpha-averagedness inequality."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    return _certify("averaged", T, cfg, {"alpha": float(alpha)}, float(alpha))


def certify_banach_contraction(T: NonexpansiveMap, cfg: SamplerConfig) -> ClassCertificate:
    """Refuted when the sampled Lipschitz ratio comes within ``BANACH_MARGIN``
    of 1 (near-isometric pairs exist, so no uniform factor below one is
    credible)."""
    return _certify("banach-contraction", T, cfg, {"margin": BANACH_MARGIN}, 1.0 - BANACH_MARGIN)


def certify_cld(T: NonexpansiveMap, eps_list: Sequence[float],
                cfg: SamplerConfig) -> ClassCertificate:
    """Contraction-for-large-distances profile ``eps -> beta(eps)``.

    ``beta(eps)`` is the supremal ratio over sampled pairs at distance at
    least ``eps`` (nonincreasing in ``eps`` by construction).  Refuted when
    some ``beta(eps)`` reaches ``1 - TOL_CERT``, or when ``1 - beta``
    measured on geometrically growing rings decays below
    ``DECAY_THRESHOLD`` (ratio tending to one at infinity).
    """
    eps = _knots(eps_list, "eps_list")
    probe = _cld_probe(eps)
    _measure([probe], _draw(cfg, eps), _lift(T))
    return _cld(probe, eps, cfg)


def _cld_probe(eps, arrays=None) -> _Probe:
    """The CLD probe of a :func:`_draw`: the shells ``d >= eps`` pooled over
    the sampled batch and the ``RING_COUNT`` rings, and per ring its pairs
    at distance at least ``eps[0]``."""
    shells = _Worst(eps, nested=True)
    rings = [[shells, _Worst(eps[:1])] for _ in range(RING_COUNT)]
    return _Probe("contraction-large-distances", False, [[shells]] + rings, arrays=arrays)


def _cld(probe: _Probe, eps, cfg) -> ClassCertificate:
    name = probe.name
    betas = probe.folds[0][0].found
    # the shells are nested, so the first holds every pair of the others
    absolute = betas[0].value is not None and CLASSES[name].refutes(betas[0].value, {})
    ends, decay = _ring_probe(probe, lambda v: 1.0 - v)
    return _certificate(
        name,
        {
            "eps_list": eps,
            "sampler": cfg.describe(),
            "rings": [{"radius": r, "sup_ratio": e.value, "pairs": e.count} for r, e in ends],
        },
        [{"probe": e, "value": b.value} for e, b in zip(eps, betas)],
        absolute or decay is not None, cfg.seed, cfg.sample_count,
        betas[0] if absolute else decay,
        notes="refuted by ring decay of 1 - beta" if decay and not absolute else "",
    )


# ---------------------------------------------------------------------------
# Monotonicity moduli
# ---------------------------------------------------------------------------


# Closed-form moduli by name; integer powers are products
CLOSED_FORMS = {
    "t^2": lambda t: t * t,
    "t^4/4": lambda t: 0.25 * (t * t) * (t * t),
}


@dataclass(frozen=True)
class Modulus:
    """A modulus function, as plain data: the ``name`` of a closed form in
    :data:`CLOSED_FORMS` or an empirical lower-bound table.

    ``table`` rows are ``(t, phi_hat(t))`` with ``phi_hat`` the binned
    infimum of graph products; ``value`` evaluates the closed form when one
    is named and the step interpolation of the table otherwise, raised to the
    supercoercive quadratic bound when one has been attached by
    :func:`tighten_modulus`.
    """

    name: Optional[str] = None
    table: Tuple[Tuple[float, float], ...] = ()
    supercoercive_bound: Optional[float] = None

    def __post_init__(self):
        if self.name is None and len(self.table) == 0:
            raise DomainError("a modulus needs a closed-form name or a table")
        if self.name is not None and self.name not in CLOSED_FORMS:
            raise DomainError(f"no closed-form modulus {self.name!r} in CLOSED_FORMS")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.name is not None:
            base = np.asarray(CLOSED_FORMS[self.name](t), dtype=float)
        else:
            knots = np.array([row[0] for row in self.table])
            vals = np.array([row[1] for row in self.table])
            idx = np.searchsorted(knots, t, side="right") - 1
            base = np.where(idx >= 0, vals[np.maximum(idx, 0)], 0.0)
        if self.supercoercive_bound is not None:
            quad = np.where(t >= 1.0, self.supercoercive_bound * t * t, 0.0)
            base = np.maximum(base, quad)
        return base

    def quadratic_bound(self, t):
        """The doubling-derived bound ``(phi_hat(1)/4) t^2``, valid for t >= 1."""
        if self.supercoercive_bound is None:
            raise DomainError("no supercoercive bound attached; run tighten_modulus")
        t = np.asarray(t, dtype=float)
        if np.any(t < 1.0):
            raise DomainError("quadratic bound is only claimed for t >= 1")
        return self.supercoercive_bound * t * t


def estimate_modulus(A: MonotoneOperator, t_list: Sequence[float], cfg: SamplerConfig,
                     *, ring_samples: int = RING_SAMPLES) -> ModulusEstimate:
    """Empirical modulus ``phi_hat(t) = inf <x-y, x*-y*>`` over sampled graph
    pairs with ``|x-y|`` in ``[t_i, t_{i+1})``.

    Graph pairs are drawn through the resolvent parametrization of ``A``.
    The verdict is refuted when a bin infimum fails strict positivity
    (``TOL_POS``) or when the infimum at the smallest ``t`` decays
    geometrically across scale rings of ``ring_samples`` pairs each.
    """
    knots = _knots(t_list, "t_list")
    if ring_samples < 0:
        raise DomainError("ring_samples must be >= 0")
    probe = _modulus_probe(knots)
    _measure([probe], _draw(cfg, knots, ring_samples), _lift(A))
    return _modulus(probe, knots, cfg)


def _modulus_probe(knots, arrays=None) -> _Probe:
    """The modulus probe of a :func:`_draw`: the bins ``[t_i, t_{i+1})`` of
    the sampled batch, and per ring (``RING_COUNT`` of them) its pairs at
    distance at least ``t_0``."""
    rings = [[_Worst(knots[:1])] for _ in range(RING_COUNT)]
    return _Probe("uniformly-monotone", True, [[_Worst(knots)]] + rings, arrays=arrays)


def _modulus(probe: _Probe, knots, cfg) -> ModulusEstimate:
    name = probe.name
    bins = probe.folds[0][0].found
    hit = next((e for e in bins if e.value is not None and CLASSES[name].refutes(e.value, {})),
               None)
    ends, decay = _ring_probe(probe)
    by_decay = hit is None and decay is not None
    return _certificate(
        name,
        {
            "rings": [{"radius": r, "min_product": e.value, "pairs": e.count} for r, e in ends],
            "sampler": cfg.describe(),
        },
        [{"probe": t, "value": e.value} for t, e in zip(knots, bins)],
        hit is not None or by_decay, cfg.seed, cfg.sample_count,
        decay if by_decay else hit,
        notes="refuted by ring decay of the modulus" if by_decay else "",
    )


def tighten_modulus(m: Modulus, alpha_at_1: float) -> Modulus:
    """Attach the doubling bound: a positive modulus value ``alpha`` at 1
    implies ``phi(2^k) >= 4^k alpha``, hence ``phi(t) >= (alpha/4) t^2`` for
    ``t >= 1``."""
    if not alpha_at_1 > 0:
        raise DomainError("alpha_at_1 must be positive")
    return replace(m, supercoercive_bound=alpha_at_1 / 4.0)


def certify_strongly_monotone(A: Union[MonotoneOperator, NonexpansiveMap],
                              cfg: SamplerConfig) -> ClassCertificate:
    """Infimal ratio ``<x-y, x*-y*> / |x-y|^2`` over sampled graph pairs."""
    return _certify("strongly-monotone", A, cfg, {}, 0.0)


# ---------------------------------------------------------------------------
# Sequential (SNE / SSNE) probes on witness families
# ---------------------------------------------------------------------------


def scaled_pair_family(direction, gap, name: str = "scaled-pair",
                       n_cap: int = 60) -> WitnessFamily:
    """Family ``(x_n, y_n) = (2^n u, 2^n u + c)``: geometrically growing base
    points with a constant displacement ``c``."""
    u = np.atleast_1d(np.asarray(direction, dtype=float))
    c = np.atleast_1d(np.asarray(gap, dtype=float))

    def gen(n: int):
        base = (2.0**n) * u
        return base, base + c

    return WitnessFamily(name=name, generator=gen, n_cap=n_cap)


def check_sequential(T: NonexpansiveMap, family: WitnessFamily, mode: str,
                     n_max: int) -> ClassCertificate:
    """Evaluate the sequential nonexpansiveness definitions along a family.

    In ``ssne`` mode the premise is ``d_n = b_n^2 - |Tx_n - Ty_n|^2``; in
    ``sne`` mode it is ``r_n = b_n - |Tx_n - Ty_n|`` and the separations
    ``b_n = |x_n - y_n|`` must stay bounded for a refutation to count.  A
    family whose premise tail vanishes while the displacement gap
    ``g_n = |(x_n-y_n) - (Tx_n-Ty_n)|`` stays above ``SEQ_GAP_FLOOR`` is a
    refutation witness for the class.

    "Vanishes" is judged against ``SEQ_DECAY_TOL`` plus the float64 error
    bar of the evaluated statistic (``SEQ_PREMISE_ULPS`` units of
    ``eps * b_n^2``, resp. ``eps * b_n``): along families with growing base
    points the difference of squares cannot be resolved below that bar,
    although the true value tends to zero.

    The engine measures the premise, so pairs with ``x_n = y_n`` are dropped
    and a non-finite premise raises :class:`NumericalFailure`.  The
    estimates are the premise at each kept ``n``; a refutation's witness is
    the tail pair ``(x_n, y_n)`` of the largest gap.  Seed and samples are 0.
    """
    if mode not in ("sne", "ssne"):
        raise DomainError("mode must be 'sne' or 'ssne'")
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    name = "strongly-nonexpansive" if mode == "sne" else "super-strongly-nonexpansive"
    ns = np.arange(1, min(n_max, family.n_cap) + 1)
    if ns.size == 0:
        raise DomainError(f"family {family.name!r} has no index n in 1..{n_max} "
                          f"(n_cap {family.n_cap})")
    X, Y = _rows([family.generator(int(n)) for n in ns])
    TX, TY = T(X), T(Y)
    b, premise, (X, TX, Y, TY, ns) = _kept(name, (X, TX, Y, TY), ns)
    if ns.size == 0:
        raise DomainError(f"family {family.name!r} has no pair with x_n != y_n")
    gap = _norm((X - Y) - (TX - TY))
    scale = b if mode == "sne" else b * b
    tail = max(3, len(ns) // 4)
    bars = SEQ_DECAY_TOL + SEQ_PREMISE_ULPS * np.finfo(float).eps * scale[-tail:]
    gap_tail = float(np.min(gap[-tail:]))
    bounded = bool(np.max(b) <= SEQ_BOUNDED_FACTOR * max(np.min(b), 1e-300))
    vanishes = bool(np.all(np.abs(premise[-tail:]) <= bars))
    refuted = vanishes and gap_tail >= SEQ_GAP_FLOOR and (mode == "ssne" or bounded)
    j = len(ns) - tail + int(np.argmax(gap[-tail:]))
    params = {
        "family": family.name,
        "bounded": bounded,
        "premise_tail_max": float(np.max(np.abs(premise[-tail:]))),
        "gap_tail_min": gap_tail,
        "final_separation": float(b[-1]),
    }
    return _certificate(
        name, params, [{"probe": float(n), "value": float(p)} for n, p in zip(ns, premise)],
        refuted, 0, 0, _Extreme(float(premise[j]), _points(X[j], Y[j]), 1),
    )


def certify_sequential(T: NonexpansiveMap, name: str, cfg: SamplerConfig,
                       families: Sequence[WitnessFamily] = ()) -> ClassCertificate:
    """SNE or SSNE certificate (``name`` is the class) from sequential
    probes on ``families`` plus four scaled-pair families drawn from
    ``cfg.seed``; refuted when any family refutes, with the first refuting
    family's witness."""
    mode = "sne" if name == "strongly-nonexpansive" else "ssne"
    rng = np.random.default_rng(cfg.seed)
    families = list(families)
    for i in range(4):
        u = rng.standard_normal(T.dim)
        u /= max(np.linalg.norm(u), 1e-300)
        c = rng.uniform(0.5, 2.0) * rng.standard_normal(T.dim)
        families.append(scaled_pair_family(u, c, name=f"scaled-{i}", n_cap=40))
    checks = [check_sequential(T, fam, mode, n_max=40) for fam in families]
    first = next((c for c in checks if c.verdict == REFUTED), None)
    return _certificate(
        name,
        {"families": [c.params["family"] for c in checks]},
        [{"probe": float(i), "value": c.params["premise_tail_max"]}
         for i, c in enumerate(checks)],
        first is not None, cfg.seed, cfg.sample_count,
        None if first is None else _Extreme(first.witness_value, first.witness, 1),
        notes="sequential probe over witness families",
    )


# ---------------------------------------------------------------------------
# Graph-sample checks: growth condition, coercivity, modulus inequality
# ---------------------------------------------------------------------------


def _rows(points) -> tuple:
    """The ``(n, dim)`` rows ``(X, X*)`` of a batched GraphSample, whose
    arrays must have that shape, or of a sequence of single graph points."""
    if isinstance(points, GraphSample):
        arrays = tuple(np.asarray(a, dtype=float) for a in points)
        # a lone 2-D point would pass for a batch of scalars
        if any(a.ndim != 2 for a in arrays):
            raise DomainError("a batched GraphSample must hold (n, dim) arrays")
        return arrays
    if len(points) == 0:
        raise DomainError("no graph points given")
    return tuple(np.stack([np.atleast_1d(np.asarray(p, dtype=float)) for p in col])
                 for col in zip(*points))


def _pair_rows(pairs) -> tuple:
    """``(X, X*, Y, Y*)`` of two batched GraphSamples or of a sequence of
    graph-point pairs ``(first, second)``; an empty sequence is rejected by
    :func:`_rows`."""
    batched = isinstance(pairs, tuple) and len(pairs) == 2 and isinstance(pairs[0], GraphSample)
    first, second = pairs if batched else (tuple(zip(*pairs)) or ((), ()))
    return (*_rows(first), *_rows(second))


def _top_decile(dist):
    """Mask of the largest-separation decile (at least one pair)."""
    mask = np.zeros(dist.size, dtype=bool)
    mask[np.argsort(dist)[-max(1, dist.size // 10):]] = True
    return mask


def check_growth(pairs) -> ClassCertificate:
    """Growth-condition certificate of graph-point pairs, given as two
    batched GraphSamples of ``(n, dim)`` arrays or as a sequence of pairs
    ``(first, second)`` of single graph points: the smallest ratio
    ``|x*-y*| / |x-y|`` over the largest-separation decile proxies the
    liminf at infinity.  Pairs that all have ``x = y`` hold it vacuously.
    The certificate's seed and sample count are 0: the pairs come as given."""
    name = "growth-condition"
    dist, value, arrays = _kept(name, _pair_rows(pairs))
    worst = _lead(CLASSES[name].extreme, _EMPTY, value, _top_decile(dist), arrays)
    return _judge(name, worst, 0, 0, {}, 0.9)


def check_coercive(samples) -> ClassCertificate:
    """Coercivity certificate of graph points, given as a batched
    GraphSample of ``(n, dim)`` arrays or as a sequence of single graph
    points: the minima of ``<x, x*>/|x|`` over ``COERCIVE_SHELLS`` quantile
    shells of ``|x|``, keyed by each shell's outer edge, must rise.  A
    refutation's witness is the minimising point ``(x, x*, 0, 0)`` of the
    shell that breaks the rise.  Points at ``x = 0`` are dropped; a graph
    with every point there is vacuous.  The certificate's seed and sample
    count are 0: the points come as given."""
    name = "coercive"
    X, XS = _rows(samples)
    origin = np.zeros_like(X)
    dist, value, arrays = _kept(name, (X, XS, origin, origin))
    if dist.size == 0:  # _judge's vacuous case, with a note in coercivity's terms
        return _certificate(name, {}, [{"probe": 0.0, "value": None}], False, 0, 0,
                            notes="vacuous: every sampled x is 0")
    edges = np.quantile(dist, np.linspace(0.0, 1.0, COERCIVE_SHELLS + 1))
    shells = [_lead(CLASSES[name].extreme, _EMPTY, value, (dist >= lo) & (dist <= hi), arrays)
              for lo, hi in zip(edges, edges[1:])]
    # the minima rise: two shells or more, no drop beyond 1e-12, the last above
    # the first by 1e-9; else the first dropping shell (or the last) refutes
    mins = [e for e in shells if e.value is not None]
    drops = [b for a, b in zip(mins, mins[1:]) if b.value - a.value < -1e-12]
    rises = not drops and len(mins) >= 2 and mins[-1].value > mins[0].value + 1e-9
    return _certificate(
        name, {}, [{"probe": float(hi), "value": e.value} for hi, e in zip(edges[1:], shells)],
        not rises, 0, 0, (drops or mins[-1:])[0],
    )


def certify_graph(target, name: str, cfg: SamplerConfig) -> ClassCertificate:
    """Coercivity or growth-condition certificate (``name`` is the class).

    ``target`` is an operator, whose graph is sampled through its resolvent
    from ``cfg``, or a :class:`WitnessFamily` whose generator yields
    graph-point pairs ``(first, second)``, probed at ``n = 1..n_cap``.
    Coercivity reads both points of every pair.
    """
    if isinstance(target, MonotoneOperator):
        Z1, Z2 = pair_batches(cfg)
        pairs = (minty_sample(target, Z1), minty_sample(target, Z2))
    else:
        pairs = [target.generator(n) for n in range(1, target.n_cap + 1)]
    if name == "growth-condition":
        cert = check_growth(pairs)
    else:
        X, XS, Y, YS = _pair_rows(pairs)
        cert = check_coercive(GraphSample(np.concatenate([X, Y]), np.concatenate([XS, YS])))
    return replace(cert, seed=cfg.seed, sample_count=cfg.sample_count)


def check_lemma_3_5(A: MonotoneOperator, phi: Modulus, cfg: SamplerConfig) -> ClassCertificate:
    """Sampled check of the reflected-resolvent modulus inequality
    ``|x-y|^2 - |R_A x - R_A y|^2 >= 4 phi(|J_A x - J_A y|)``.  The estimate
    is the largest violation, and a refutation's witness is its pair
    ``(x, y)``.  The certificate records the fields of ``phi`` under
    ``params["phi"]``, so :func:`replay` reproduces the witness value with
    ``J_A`` as its map."""
    return _certify("reflected-modulus", A.resolvent, cfg, {"phi": asdict(phi)}, 0.0)


# ---------------------------------------------------------------------------
# Self-duality triptych
# ---------------------------------------------------------------------------


@dataclass
class SelfDualReport:
    """Verdict triple (A uniformly monotone, A^{-1} uniformly monotone,
    reflected resolvent a contraction for large distances) plus whether the
    pattern matches the self-duality equivalence
    ``(first and second) <-> third``."""

    operator: str
    modulus_primal: ModulusEstimate
    modulus_inverse: ModulusEstimate
    cld: ClassCertificate
    verdicts: Tuple[str, str, str]
    agrees: bool

    def to_json_dict(self) -> dict:
        return {
            "operator": self.operator,
            "verdicts": {
                "uniformly-monotone": self.verdicts[0],
                "inverse-uniformly-monotone": self.verdicts[1],
                "reflected-resolvent-cld": self.verdicts[2],
            },
            "agrees_with_selfduality": self.agrees,
            "modulus_primal": self.modulus_primal.to_json_dict(),
            "modulus_inverse": self.modulus_inverse.to_json_dict(),
            "cld": self.cld.to_json_dict(),
        }


def check_selfdual(A: MonotoneOperator, cfg: SamplerConfig,
                   t_list: Sequence[float] = PROBES,
                   eps_list: Sequence[float] = PROBES) -> SelfDualReport:
    """Run the modulus estimator on ``A`` and ``A^{-1}`` and the CLD
    certifier on the reflected resolvent, and compare the verdict pattern
    against the self-duality equivalence.

    ``J_A`` runs once per drawn point: ``A^{-1}``'s graph and ``R_A`` follow
    from it as ``Id - J_A`` and ``2 J_A - Id``.  The probes are grouped by
    the knots their draw is laid out on, and each distinct draw is measured
    in one pass over its blocks: one for all three when ``eps_list`` and
    ``t_list`` hold the same values.
    """
    knots, eps = _knots(t_list, "t_list"), _knots(eps_list, "eps_list")

    def graph(x, y):
        return x, y, minty_sample(A, x), minty_sample(A, y)

    # A^-1's graph and R_A by the expressions of invert() and reflected_map()
    def inverse(x, y, g, h):
        return g.xstar, x - g.xstar, h.xstar, y - h.xstar

    def reflected(x, y, g, h):
        return x, g.x + g.x - x, y, h.x + h.x - y

    m1 = _modulus_probe(knots, lambda x, y, g, h: (*g, *h))
    m2 = _modulus_probe(knots, inverse)
    c3 = _cld_probe(eps, reflected)  # every draw yields RING_COUNT rings, one at a time
    groups = {}
    for at, probe in ((knots, m1), (knots, m2), (eps, c3)):
        groups.setdefault(tuple(at), []).append(probe)
    for at, probes in groups.items():
        _measure(probes, _draw(cfg, at), graph)
    m1, m2 = (_modulus(m, knots, cfg) for m in (m1, m2))
    c3 = _cld(c3, eps, cfg)
    verdicts = (m1.verdict, m2.verdict, c3.verdict)
    agrees = (verdicts[:2] == (CONSISTENT, CONSISTENT)) == (c3.verdict == CONSISTENT)
    return SelfDualReport(
        operator=A.name,
        modulus_primal=m1,
        modulus_inverse=m2,
        cld=c3,
        verdicts=verdicts,
        agrees=agrees,
    )


def compare_with_declaration(op: MonotoneOperator, cert: ClassCertificate) -> dict:
    """Compare a certificate's verdict with the operator's trusted
    declaration of the same class tag.

    Certifiers never read declarations while testing; this report-side
    comparison is the only place the two meet.  ``agrees`` is ``None`` when
    the operator declares nothing about the class.
    """
    declared = op.declares(cert.class_name)
    return {
        "class": cert.class_name,
        "declared": declared,
        "verdict": cert.verdict,
        "agrees": (cert.verdict == CONSISTENT) if declared else None,
    }


# ---------------------------------------------------------------------------
# Witness replay
# ---------------------------------------------------------------------------


def replay(cert: ClassCertificate, target=None) -> float:
    """Recompute the violating statistic from a certificate's stored witness.

    The class table's statistic runs on the witness's geometry as a one-row
    batch, with the certificate's params.  A two-point witness ``(x, y)``
    needs its map as ``target`` (``J_A`` for ``reflected-modulus``); a
    four-point one ``(x, x*, y, y*)`` carries both graph points.  Any other
    witness, or a certificate that lacks a parameter of its statistic (built
    by hand or loaded from JSON), raises :class:`DomainError`.
    """
    if cert.witness is None:
        raise DomainError("certificate has no witness to replay")
    spec = CLASSES.get(cert.class_name)
    if spec is None:
        raise DomainError(f"no replay rule for class {cert.class_name!r}")
    pts = [np.asarray(p, dtype=float)[None, :] for p in cert.witness]
    if len(pts) == 2 and target is not None:
        pts = _lift(target)(*pts)
    elif len(pts) != 4:
        raise DomainError(f"cannot replay a {len(pts)}-point witness"
                          + (" without its map" if len(pts) == 2 else ""))
    try:
        return float(spec.statistic(_Geometry(*pts), cert.params)[0])
    except KeyError as missing:
        raise DomainError(f"the {cert.class_name!r} certificate does not hold the "
                          f"parameter {missing} its statistic needs") from None
