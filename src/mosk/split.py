"""Fixed-point and splitting iterations with full trace recording.

Traces record iterates, optional shadow iterates ``y_n = J_A(x_n)``,
residuals and weak-convergence probes (fixed coordinates of the iterate);
:func:`fejer_check` audits the distances to a candidate fixed point.  The
paper-level stopping questions are resolved by a :class:`StoppingRule` with
explicit defaults; a period-two oscillation (the failure mode of
Peaceman-Rachford without uniform monotonicity of the second operator) is
detected and flagged on the trace.
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
    ``probe_coords`` columns of the iterates.
    """

    iterates: np.ndarray
    residuals: np.ndarray
    termination: str
    shadows: Optional[np.ndarray] = None
    probe_coords: Tuple[int, ...] = ()
    period2: bool = False

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
        columns = [np.arange(n, dtype=float), self.iterates]
        if self.shadows is not None:
            header += [f"y_{i}" for i in range(d)]
            columns.append(self.shadows)
        # rows past the last step keep a placeholder that prints as ""
        stepped = min(len(self.residuals), n)
        residuals = np.zeros(n)
        residuals[:stepped] = self.residuals[:stepped]
        header.append("residual")
        columns.append(residuals)
        if self.probe_coords:
            header += [f"probe_{k}" for k in self.probe_coords]
            columns.append(self.weak_probes)
        _write_table(path, config, header, columns, stepped)


def _write_table(path, config: Optional[dict], header: Sequence[str], columns, stepped: int):
    """Write ``columns`` (1-D or 2-D arrays of equal length, laid side by
    side) as CSV under ``header``: ``%d`` for the first field, 17 significant
    digits for the others, ``\r\n`` line ends, and a leading ``#`` comment
    line holding ``config`` as JSON unless it is None.  Rows from
    ``stepped`` on print their ``residual`` field empty."""
    n = len(columns[0])
    fields = ["%d"] + ["%.17g"] * (len(header) - 1)
    row = ",".join(fields) + "\r\n"
    blank = None
    if stepped < n:
        blank = header.index("residual")
        fields[blank] = "%.0s"
    unstepped_row = ",".join(fields) + "\r\n"
    # the float table and its Python floats exist one block of rows (about
    # CSV_BLOCK_VALUES fields) at a time, so writing adds little memory
    block = max(1, CSV_BLOCK_VALUES // len(header))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if config is not None:
            fh.write("# " + json.dumps(config, sort_keys=True) + "\n")
        fh.write(",".join(header) + "\r\n")
        for fmt, empty, lo, hi in ((row, None, 0, stepped), (unstepped_row, blank, stepped, n)):
            for b in range(lo, hi, block):
                table = np.column_stack([c[b:min(b + block, hi)] for c in columns])
                text = _repeated_block(table, empty)
                if text is None:
                    text = (fmt * len(table)) % tuple(table.ravel().tolist())
                fh.write(text)


def _repeated_block(table: np.ndarray, empty: Optional[int]) -> Optional[str]:
    """The CSV rows of ``table`` with each distinct float formatted once, or
    None when more than ``CSV_REPEAT_SHARE`` of its float fields (all but the
    first column) hold distinct values.  Values are told apart by their bit
    patterns, so ``-0.0`` keeps its sign; field ``empty`` prints empty unless
    it is None."""
    bits = table[:, 1:].view(np.int64)
    srt = np.sort(bits, axis=None)
    new = np.empty(srt.size, dtype=bool)
    new[:1] = True
    np.not_equal(srt[1:], srt[:-1], out=new[1:])
    uniq = srt[new]
    if uniq.size > CSV_REPEAT_SHARE * srt.size:
        return None
    # every field but the first carries its leading comma, and a last column
    # ends the row, so one join writes the block; no formatted number holds a
    # space, so the ``split()``s cut the one-%-format strings apart
    rows, width = table.shape
    strs = (",%.17g " * uniq.size % tuple(uniq.view(float).tolist())).split()
    out = np.empty((rows, width + 1), dtype=object)
    out[:, 0] = ("%d " * rows % tuple(table[:, 0].tolist())).split()
    out[:, 1:-1] = np.array(strs, dtype=object)[np.searchsorted(uniq, bits)]
    if empty is not None:
        out[:, empty] = ","
    out[:, -1] = "\r\n"
    return "".join(out.ravel().tolist())


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
    for _ in range(stop.max_iter):
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
    iterates = np.stack(xs)
    residuals = np.array(residuals)
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
