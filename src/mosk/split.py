"""Fixed-point and splitting iterations with full trace recording.

Traces record iterates, optional shadow iterates ``y_n = J_A(x_n)``,
residuals and weak-convergence probes (fixed coordinates of the iterate);
:func:`fejer_check` audits the distances to a candidate fixed point.  The
paper-level stopping questions are resolved by a :class:`StoppingRule` with
explicit defaults; a period-two oscillation (the failure mode of
Peaceman-Rachford without uniform monotonicity of the second operator) is
detected and flagged on the trace.

The splitting operator must be a function of its input's bits: an iterate
that repeats an earlier one bit for bit ends its evaluations, and the rest of
the trace is filled from the cycle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .core import MonotoneOperator, NonexpansiveMap, as_point
from .combine import dr_operator, fb_operator, pr_operator
from .exceptions import DomainError, NumericalFailure

TERM_CONVERGED = "converged"
TERM_MAX_ITER = "max-iter"
TERM_DIVERGED = "diverged"

# Detection threshold for the flagged period-2 pattern, and the number of
# trailing iterates it inspects.
PERIOD2_TOL = 1e-12
PERIOD2_WINDOW = 6

# Rise of a distance that the Fejer audit still counts as nonincreasing.
FEJER_SLACK = 1e-12

# Fields converted to Python floats at a time when writing a trace CSV.
CSV_BLOCK_VALUES = 4096

# A block of a trace CSV formats each distinct float once when at most this
# share of its float fields hold distinct bit patterns.  On 7 x 522 blocks of
# uniform values (numpy 2.4.6, one core) that path costs about a third of the
# block's one %-format at 10 % distinct and two thirds at 50 %, breaks even
# between 60 and 75 %, and costs 1.2-1.5 times as much above.
CSV_REPEAT_SHARE = 0.5


@dataclass(frozen=True)
class StoppingRule:
    """Stop on small steps, iteration budget, or norm blow-up."""

    max_iter: int = 100_000
    tol_residual: float = 1e-10
    divergence_guard: float = 1e12

    def __post_init__(self):
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")
        if not self.tol_residual >= 0:  # NaN fails too
            raise DomainError("tol_residual must be >= 0")
        if not self.divergence_guard > 0:
            raise DomainError("divergence_guard must be > 0")


@dataclass
class IterationTrace:
    """Recorded splitting run.

    ``iterates`` has shape ``(n_steps + 1, dim)``; ``residuals[n]`` is
    ``|x_{n+1} - x_n|`` (one entry per step taken).  ``shadows`` mirror the
    iterates when a shadow map was supplied.  ``weak_probes`` reads the
    ``probe_coords`` columns of the iterates.  ``cycle = (c, p)`` records an
    exact cycle that :func:`iterate` found: ``x_{c+p}`` is the first iterate
    to repeat an earlier one bit for bit, namely ``x_c``.  It is None for
    runs without a cycle and for traces built by hand.
    """

    iterates: np.ndarray
    residuals: np.ndarray
    termination: str
    shadows: Optional[np.ndarray] = None
    probe_coords: Tuple[int, ...] = ()
    period2: bool = False
    cycle: Optional[Tuple[int, int]] = None

    @property
    def n_steps(self) -> int:
        return len(self.iterates) - 1

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def final_shadow(self) -> Optional[np.ndarray]:
        return None if self.shadows is None else self.shadows[-1]

    @property
    def weak_probes(self) -> Optional[np.ndarray]:
        return self.iterates[:, list(self.probe_coords)] if self.probe_coords else None

    def write_csv(self, path, config: Optional[dict] = None):
        """Write the trace as CSV through ``_write_table``: one row per
        iterate, and an empty residual field on the rows past the last step.
        An optional leading ``#`` comment line embeds the resolved run
        configuration as JSON."""
        n, d = self.iterates.shape
        header = ["iter"] + [f"x_{i}" for i in range(d)]
        columns = [range(n), self.iterates]
        if self.shadows is not None:
            header += [f"y_{i}" for i in range(d)]
            columns.append(self.shadows)
        stepped = min(len(self.residuals), n)
        header.append("residual")
        columns.append(self.residuals[:stepped])
        if self.probe_coords:
            header += [f"probe_{k}" for k in self.probe_coords]
            columns.append(self.weak_probes)
        _write_table(path, config, header, columns, stepped, self.cycle)


def _write_table(path, config: Optional[dict], header: Sequence[str], columns, stepped: int,
                 cycle: Optional[Tuple[int, int]] = None):
    """Write ``columns`` (1-D or 2-D arrays, laid side by side) as CSV under
    ``header``: ``%d`` for the first field, which holds whole numbers below
    ``2**53``, 17 significant digits for the others, ``\r\n`` line ends,
    and a leading ``#`` comment line holding ``config`` as JSON unless it is
    None.  The first column sets the number of rows, and a ``range`` column
    is made floats one block at a time.  Rows from ``stepped`` on print
    their ``residual`` field empty, and a column may end at ``stepped``.

    The file is written in blocks of about ``CSV_BLOCK_VALUES`` fields, and
    no work is repeated that the bytes do not need.  A block whose fields
    repeat (:func:`_repeated_block`) formats each distinct float once, and
    only the ones the previous such block did not have.  With ``cycle = (c,
    p)`` (see :class:`IterationTrace`) and a period of at most one block of
    fields, rows ``c .. c+p-1`` are formatted once, and each later stepped
    row whose float fields equal its period row's bit for bit is its row
    number followed by that text.  The bytes depend on the columns alone,
    not on ``cycle`` nor on the path a block takes."""
    n, width = len(columns[0]), len(header)
    fields = ["%d"] + ["%.17g"] * (width - 1)
    row = ",".join(fields) + "\r\n"
    blank = None
    if stepped < n:
        blank = header.index("residual")
        fields[blank] = "%.0s"
    unstepped_row = ",".join(fields) + "\r\n"
    # the float table and its Python floats exist one block of rows (about
    # CSV_BLOCK_VALUES fields) at a time, so writing adds little memory
    block = max(1, CSV_BLOCK_VALUES // width)
    copied, period = stepped, None
    if cycle is not None:
        c, p = cycle
        if 0 <= c and 0 < p and p * width <= CSV_BLOCK_VALUES and c + p < stepped:
            copied = c + p
            floats = _rows(columns, c, copied)[:, 1:]
            # each period row's float fields, with their leading commas and
            # the line end; no formatted number holds a space
            text = (",%.17g" * (width - 1) + "\r\n ") * p % tuple(floats.ravel().tolist())
            period = (c, floats.view(np.int64), np.array(text.split(" ")[:-1], dtype=object))
    segments = ((row, None, 0, copied, None), (row, None, copied, stepped, period),
                (unstepped_row, blank, stepped, n, None))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if config is not None:
            fh.write("# " + json.dumps(config, sort_keys=True) + "\n")
        fh.write(",".join(header) + "\r\n")
        carried = None
        for fmt, empty, lo, hi, period in segments:
            for b in range(lo, hi, block):
                table = _rows(columns, b, min(b + block, hi))
                text = None
                if period is not None:
                    text = _copied_block(table, b, *period)
                if text is None:
                    text, carried = _repeated_block(table, empty, carried)
                if text is None:
                    text = (fmt * len(table)) % tuple(table.ravel().tolist())
                fh.write(text)


def _rows(columns, lo: int, hi: int) -> np.ndarray:
    """Rows ``lo .. hi-1`` of ``columns`` side by side as one float table; a
    ``range`` column is made floats here, and a column that ends before
    ``hi`` (the residuals, past the last step) is padded with zeros."""
    parts = []
    for col in columns:
        if isinstance(col, range):
            r = col[lo:hi]
            part = np.arange(r.start, r.stop, r.step, dtype=float)
        else:
            part = col[lo:hi]
            if len(part) < hi - lo:
                part = np.concatenate([part, np.zeros(hi - lo - len(part))])
        parts.append(part)
    return np.column_stack(parts)


def _copied_block(table: np.ndarray, first: int, c: int, bits: np.ndarray,
                  tails: np.ndarray) -> Optional[str]:
    """The CSV rows ``first ..`` of a table whose rows from ``c`` on cycle
    through the period ``bits``: each row is written as its number and the
    text ``tails`` of its period row, when the float fields of every row of
    ``table`` equal that period row's bit for bit; None otherwise."""
    k = (np.arange(first, first + len(table)) - c) % len(tails)
    if not np.array_equal(table[:, 1:].view(np.int64), bits[k]):
        return None
    out = np.empty((len(table), 2), dtype=object)
    # the row numbers are whole, and %d prints an int as it prints its float
    out[:, 0] = table[:, 0].astype(np.int64)
    out[:, 1] = tails[k]
    return "%d%s" * len(table) % tuple(out.ravel().tolist())


def _repeated_block(table: np.ndarray, empty: Optional[int], carried):
    """``(text, carry)``.  ``text`` is the CSV rows of ``table`` with each
    distinct float formatted once, or None when more than
    ``CSV_REPEAT_SHARE`` of its float fields (all but the first column) hold
    distinct values.  Values are told apart by their bit patterns, so
    ``-0.0`` keeps its sign; field ``empty`` prints empty unless it is None.
    ``carried`` is the previous repeated block's carry or None, and
    ``carry`` this block's: its sorted distinct bit patterns and their
    strings.  Values found in ``carried`` are not formatted again; a block
    left to the plain path passes ``carried`` on."""
    bits = table[:, 1:].view(np.int64)
    srt = np.sort(bits, axis=None)
    new = np.empty(srt.size, dtype=bool)
    new[:1] = True
    np.not_equal(srt[1:], srt[:-1], out=new[1:])
    uniq = srt[new]
    if uniq.size > CSV_REPEAT_SHARE * srt.size:
        return None, carried
    strs = np.empty(uniq.size, dtype=object)
    fresh = slice(None)
    if carried is not None:
        old, old_strs = carried
        at = np.searchsorted(old, uniq)
        np.minimum(at, old.size - 1, out=at)
        have = old[at] == uniq
        strs[have] = old_strs[at[have]]
        fresh = ~have
    # every float field carries its leading comma, the first of a row also
    # the row's number and the last its line end, so one join writes the
    # block; no formatted number holds a space, so the ``split()``s cut the
    # one-%-format strings apart
    todo = uniq[fresh]
    strs[fresh] = (",%.17g " * todo.size % tuple(todo.view(float).tolist())).split()
    rows = len(table)
    out = strs[np.searchsorted(uniq, bits)]
    if empty is not None:
        out[:, empty - 1] = ","
    out[:, 0] = np.array(("%d " * rows % tuple(table[:, 0].tolist())).split(),
                         dtype=object) + out[:, 0]
    out[:, -1] += "\r\n"
    return "".join(out.ravel().tolist()), (uniq, strs)


def _detect_period2(iterates: np.ndarray, residuals: np.ndarray, tol_residual: float) -> bool:
    n = len(iterates)
    if n < 3:
        return False
    hits = 0
    checks = 0
    for idx in range(max(0, n - PERIOD2_WINDOW), n - 2):
        checks += 1
        if (
            np.linalg.norm(iterates[idx + 2] - iterates[idx]) <= PERIOD2_TOL
            and residuals[idx] > tol_residual
        ):
            hits += 1
    return checks > 0 and hits == checks


def iterate(T: NonexpansiveMap, x0, stop: StoppingRule = StoppingRule(),
            *, shadow: Optional[Callable] = None,
            probe_coords: Optional[Sequence[int]] = None) -> IterationTrace:
    """Run ``x_{n+1} = T(x_n)`` until a stopping condition fires.

    ``shadow`` (when given) is called once, on the stacked iterates of shape
    ``(n_steps + 1, dim)``, so it must be vectorized over leading axes as
    every ``core`` oracle is; its result is recorded alongside.  The
    artifact never claims to know the fixed-point set a priori: distances to
    a candidate point are :func:`fejer_check`'s audit.

    ``T`` must be a function of its input's bits, as every ``core``,
    ``gallery`` and ``combine`` map is: once an iterate repeats an earlier one
    bit for bit (Brent's cycle finding, one saved iterate), ``T`` is not
    evaluated again and the rest of the trace, up to ``stop.max_iter``, is
    copied from the cycle, which the trace records as ``cycle``.
    """
    ev = T.eval
    x = as_point(x0, dim=T.dim)
    probes = tuple(int(k) for k in probe_coords) if probe_coords is not None else ()
    # weak_probes reads these columns later, so a bad one fails here
    if not all(0 <= k < x.size for k in probes):
        raise DomainError(f"probe coordinates must lie in 0..{x.size - 1}")
    xs = [x]
    residuals = []
    termination = TERM_MAX_ITER
    # Brent's cycle finding: the checkpoint x_c is compared by bits with every
    # later iterate, and moves to x_n once n - c reaches power, which doubles
    c, power, seen = 0, 1, x.tobytes()
    cycled = False
    for n in range(1, stop.max_iter + 1):
        # math.sqrt(v.dot(v)) is what np.linalg.norm computes on a 1-D float
        # vector, without its per-call overhead
        if not math.sqrt(x.dot(x)) <= stop.divergence_guard:  # NaN iterates diverge too
            termination = TERM_DIVERGED
            break
        x1 = np.asarray(ev(x), dtype=float)
        dx = x1 - x
        r = math.sqrt(dx.dot(dx))
        xs.append(x1)
        residuals.append(r)
        x = x1
        if r <= stop.tol_residual:
            termination = TERM_CONVERGED
            break
        bits = x.tobytes()
        if bits == seen:
            cycled = True
            break
        if n - c == power:
            c, power, seen = n, 2 * power, bits
    iterates = np.stack(xs)
    residuals = np.array(residuals)
    cycle = None
    if cycled:
        # x_n = x_c, and Brent's first match is at the least period p = n - c;
        # the cycle starts at the first x_c with x_{c+p} = x_c, so x_j =
        # x_{c + (j - c) mod p} for every j >= c.  The cycle's residuals all
        # exceeded tol_residual and its iterates all passed the guard, so the
        # run ends on its budget
        p = n - c
        b = iterates.view(np.int64)
        c = int(np.argmax(np.all(b[p:] == b[:-p], axis=1)))
        cycle = (c, p)
        idx = np.arange(stop.max_iter + 1)
        idx[n:] = c + (idx[n:] - c) % p
        iterates, residuals = iterates[idx], residuals[idx[:-1]]
    shadows = None
    if shadow is not None:
        shadows = np.asarray(shadow(iterates), dtype=float)
    period2 = termination != TERM_CONVERGED and _detect_period2(
        iterates, residuals, stop.tol_residual
    )
    return IterationTrace(
        iterates=iterates,
        residuals=residuals,
        termination=termination,
        shadows=shadows,
        probe_coords=probes,
        period2=period2,
        cycle=cycle,
    )


def peaceman_rachford(A: MonotoneOperator, B: MonotoneOperator, x0,
                      stop: StoppingRule = StoppingRule(), *,
                      probe_coords: Optional[Sequence[int]] = None) -> IterationTrace:
    """Iterate ``T = R_B R_A`` recording shadows ``y_n = J_A(x_n)``."""
    return iterate(pr_operator(A, B), x0, stop, shadow=A.resolvent, probe_coords=probe_coords)


def douglas_rachford(A: MonotoneOperator, B: MonotoneOperator, x0,
                     stop: StoppingRule = StoppingRule(), *,
                     probe_coords: Optional[Sequence[int]] = None) -> IterationTrace:
    """Iterate ``T = (Id + R_B R_A)/2`` recording shadows ``y_n = J_A(x_n)``."""
    return iterate(dr_operator(A, B), x0, stop, shadow=A.resolvent, probe_coords=probe_coords)


def forward_backward(A: MonotoneOperator, B: MonotoneOperator, gamma: float, x0,
                     stop: StoppingRule = StoppingRule(), *,
                     probe_coords: Optional[Sequence[int]] = None) -> IterationTrace:
    """Iterate ``T = J_{gamma B}(Id - gamma A)`` (primal iterates only)."""
    return iterate(fb_operator(A, B, gamma), x0, stop, probe_coords=probe_coords)


@dataclass
class FejerReport:
    """Monotonicity audit of the distances to a candidate fixed point."""

    distances: np.ndarray
    nonincreasing: bool
    first_violation: Optional[int]


def fejer_check(trace: IterationTrace, xbar) -> FejerReport:
    """Verify ``|x_n - xbar|`` is nonincreasing within ``FEJER_SLACK``;
    report the first violating index otherwise.  A non-finite distance
    raises :class:`NumericalFailure`, since no comparison can judge it."""
    if len(trace.iterates) == 0:
        raise DomainError("empty trace")
    ref = as_point(xbar, dim=trace.iterates.shape[1])
    with np.errstate(over="ignore"):
        diff = trace.iterates - ref
        d = np.linalg.norm(diff, axis=1)
        # the squares overflow from about 1.3e154 on: rescale such a finite row
        # by its largest magnitude
        big = np.flatnonzero(np.isinf(d) & np.all(np.isfinite(diff), axis=1))
        if big.size:
            s = np.max(np.abs(diff[big]), axis=1)
            d[big] = s * np.linalg.norm(diff[big] / s[:, None], axis=1)
    nonfinite = np.flatnonzero(~np.isfinite(d))
    if nonfinite.size:
        n = int(nonfinite[0])
        raise NumericalFailure(f"non-finite distance |x_{n} - xbar| = {d[n]} in the Fejer audit")
    bad = np.nonzero(d[1:] > d[:-1] + FEJER_SLACK)[0]
    return FejerReport(
        distances=d,
        nonincreasing=bad.size == 0,
        first_violation=int(bad[0]) if bad.size else None,
    )
