"""Fixed-point and splitting iterations with full trace recording.

Traces record iterates, optional shadow iterates ``y_n = J_A(x_n)``,
residuals, distances to a reference point, and weak-convergence probes
(fixed coordinates of the iterate).  The paper-level stopping questions are
resolved by a :class:`StoppingRule` with explicit defaults; a period-two
oscillation (the failure mode of Peaceman-Rachford without uniform
monotonicity of the second operator) is detected and flagged on the trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .core import MonotoneOperator, NonexpansiveMap, as_point
from .combine import dr_operator, fb_operator, pr_operator
from .exceptions import DimensionMismatch, DomainError

TERM_CONVERGED = "converged"
TERM_MAX_ITER = "max-iter"
TERM_DIVERGED = "diverged"

# Detection threshold for the flagged period-2 pattern.
PERIOD2_TOL = 1e-12

# Fields converted to Python floats at a time when writing a trace CSV.
CSV_BLOCK_VALUES = 4096


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


@dataclass
class IterationTrace:
    """Recorded splitting run.

    ``iterates`` has shape ``(n_steps + 1, dim)``; ``residuals[n]`` is
    ``|x_{n+1} - x_n|`` (one entry per step taken).  ``shadows`` mirror the
    iterates when a shadow map was supplied.  ``weak_probes`` holds the
    probed coordinates of each iterate.
    """

    iterates: np.ndarray
    residuals: np.ndarray
    termination: str
    shadows: Optional[np.ndarray] = None
    distances_to_ref: Optional[np.ndarray] = None
    weak_probes: Optional[np.ndarray] = None
    probe_coords: Tuple[int, ...] = ()
    period2: bool = False
    name: str = "iterate"

    @property
    def n_steps(self) -> int:
        return len(self.iterates) - 1

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def final_shadow(self) -> Optional[np.ndarray]:
        return None if self.shadows is None else self.shadows[-1]

    def write_csv(self, path, config: Optional[dict] = None):
        """Write the trace as CSV: one row per iterate, floats with 17
        significant digits, ``\\r\\n`` line ends, and an empty residual
        field on the rows past the last step.  An optional leading ``#``
        comment line embeds the resolved run configuration as JSON."""
        n, d = self.iterates.shape
        header = ["iter"] + [f"x_{i}" for i in range(d)]
        columns = [np.arange(n, dtype=float), self.iterates]
        if self.shadows is not None:
            header += [f"y_{i}" for i in range(d)]
            columns.append(self.shadows)
        # rows past the last step keep a placeholder that "%.0s" prints as ""
        stepped = min(len(self.residuals), n)
        residuals = np.zeros(n)
        residuals[:stepped] = self.residuals[:stepped]
        res_col = len(header)
        header.append("residual")
        columns.append(residuals)
        if self.distances_to_ref is not None:
            header.append("dist_ref")
            columns.append(self.distances_to_ref)
        header += [f"probe_{k}" for k in self.probe_coords]
        columns.append(self.iterates[:, list(self.probe_coords)])
        fields = ["%d"] + ["%.17g"] * (len(header) - 1)
        row = ",".join(fields) + "\r\n"
        fields[res_col] = "%.0s"
        unstepped_row = ",".join(fields) + "\r\n"
        # the float table and its Python floats exist one block of rows (about
        # CSV_BLOCK_VALUES fields) at a time, so writing adds little memory
        block = max(1, CSV_BLOCK_VALUES // len(header))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            if config is not None:
                fh.write("# " + json.dumps(config, sort_keys=True) + "\n")
            fh.write(",".join(header) + "\r\n")
            for fmt, lo, hi in ((row, 0, stepped), (unstepped_row, stepped, n)):
                for b in range(lo, hi, block):
                    table = np.column_stack([c[b:min(b + block, hi)] for c in columns])
                    fh.write((fmt * len(table)) % tuple(table.ravel().tolist()))


def _detect_period2(iterates: np.ndarray, residuals: np.ndarray, tol_residual: float,
                    window: int = 6) -> bool:
    n = len(iterates)
    if n < 3:
        return False
    hits = 0
    checks = 0
    for idx in range(max(0, n - window), n - 2):
        checks += 1
        if (
            np.linalg.norm(iterates[idx + 2] - iterates[idx]) <= PERIOD2_TOL
            and residuals[idx] > tol_residual
        ):
            hits += 1
    return checks > 0 and hits == checks


def iterate(T: Union[NonexpansiveMap, Callable], x0, stop: StoppingRule = StoppingRule(),
            *, shadow: Optional[Callable] = None, ref=None,
            probe_coords: Optional[Sequence[int]] = None,
            name: str = "iterate") -> IterationTrace:
    """Run ``x_{n+1} = T(x_n)`` until a stopping condition fires.

    ``shadow`` (when given) is called once, on the stacked iterates of shape
    ``(n_steps + 1, dim)``, so it must be vectorized over leading axes as
    every ``core`` oracle is; its result is recorded alongside.  ``ref``
    records distances to a supplied reference point; the artifact never
    claims to know the fixed-point set a priori.
    """
    ev = T.eval if isinstance(T, NonexpansiveMap) else T
    x = as_point(x0, dim=T.dim if isinstance(T, NonexpansiveMap) else None)
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
    dists = None
    if ref is not None:
        refp = as_point(ref, dim=iterates.shape[1])
        dists = np.linalg.norm(iterates - refp, axis=1)
    probes = tuple(int(k) for k in probe_coords) if probe_coords is not None else ()
    weak = iterates[:, list(probes)] if probes else None
    period2 = termination != TERM_CONVERGED and _detect_period2(
        iterates, residuals, stop.tol_residual
    )
    return IterationTrace(
        iterates=iterates,
        residuals=residuals,
        termination=termination,
        shadows=shadows,
        distances_to_ref=dists,
        weak_probes=weak,
        probe_coords=probes,
        period2=period2,
        name=name,
    )


def peaceman_rachford(A: MonotoneOperator, B: MonotoneOperator, x0,
                      stop: StoppingRule = StoppingRule(), *, ref=None,
                      probe_coords: Optional[Sequence[int]] = None) -> IterationTrace:
    """Iterate ``T = R_B R_A`` recording shadows ``y_n = J_A(x_n)``."""
    T = pr_operator(A, B)
    return iterate(
        T, x0, stop, shadow=A.resolvent, ref=ref, probe_coords=probe_coords,
        name=T.name,
    )


def douglas_rachford(A: MonotoneOperator, B: MonotoneOperator, x0,
                     stop: StoppingRule = StoppingRule(), *, ref=None,
                     probe_coords: Optional[Sequence[int]] = None) -> IterationTrace:
    """Iterate ``T = (Id + R_B R_A)/2`` recording shadows ``y_n = J_A(x_n)``."""
    T = dr_operator(A, B)
    return iterate(
        T, x0, stop, shadow=A.resolvent, ref=ref, probe_coords=probe_coords,
        name=T.name,
    )


def forward_backward(A: MonotoneOperator, B: MonotoneOperator, gamma: float, x0,
                     stop: StoppingRule = StoppingRule(), *, ref=None,
                     probe_coords: Optional[Sequence[int]] = None) -> IterationTrace:
    """Iterate ``T = J_{gamma B}(Id - gamma A)`` (primal iterates only)."""
    T = fb_operator(A, B, gamma)
    return iterate(T, x0, stop, ref=ref, probe_coords=probe_coords, name=T.name)


@dataclass
class FejerReport:
    """Monotonicity audit of the distances to a candidate fixed point."""

    distances: np.ndarray
    nonincreasing: bool
    first_violation: Optional[int]
    slack: float = PERIOD2_TOL


def fejer_check(trace: IterationTrace, xbar, slack: float = 1e-12) -> FejerReport:
    """Verify ``|x_n - xbar|`` is nonincreasing within ``slack``; report the
    first violating index otherwise."""
    if len(trace.iterates) == 0:
        raise DomainError("empty trace")
    ref = as_point(xbar, dim=trace.iterates.shape[1])
    d = np.linalg.norm(trace.iterates - ref, axis=1)
    bad = np.nonzero(d[1:] > d[:-1] + slack)[0]
    return FejerReport(
        distances=d,
        nonincreasing=bad.size == 0,
        first_violation=int(bad[0]) if bad.size else None,
        slack=slack,
    )
