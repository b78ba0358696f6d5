import csv
import dataclasses
import functools
import io
import json
import tracemalloc

import numpy as np
import pytest

from mosk import certify, core, gallery, split
from mosk.combine import pr_operator
from mosk.core import NonexpansiveMap
from mosk.exceptions import DomainError, NumericalFailure, StepSizeOutOfRange, UnsupportedOperator


def test_stopping_rule_validation():
    with pytest.raises(DomainError):
        split.StoppingRule(max_iter=0)
    with pytest.raises(DomainError):
        split.StoppingRule(tol_residual=-1.0)
    for guard in (np.nan, 0.0, -1.0):
        with pytest.raises(DomainError, match="divergence_guard"):
            split.StoppingRule(divergence_guard=guard)


def test_iterate_clamp_sin():
    T = gallery.mapping("clamp-sin-map")
    tr = split.iterate(T, [10.0], split.StoppingRule(max_iter=200))
    assert tr.iterates[1][0] == pytest.approx(1.0)
    assert tr.iterates[2][0] == pytest.approx(np.sin(1.0))
    x = np.abs(tr.iterates[:, 0])
    assert np.all(np.diff(x[1:]) <= 0) and x[-1] < 0.2


def test_iterate_oscillation():
    NEG = NonexpansiveMap(1, lambda x: -np.asarray(x, float), "neg")
    tr = split.iterate(NEG, [1.0], split.StoppingRule(max_iter=60))
    assert tr.termination == split.TERM_MAX_ITER
    assert np.allclose(tr.residuals, 2.0)
    assert tr.period2


def test_iterate_halving():
    HALF = NonexpansiveMap(1, lambda x: 0.5 * np.asarray(x, float), "half")
    tr = split.iterate(HALF, [8.0], split.StoppingRule(max_iter=200, tol_residual=1e-12))
    assert tr.termination == split.TERM_CONVERGED
    assert tr.iterates[1][0] == 4.0 and tr.iterates[2][0] == 2.0
    assert not tr.period2


def test_iterate_divergence_guard():
    GROW = NonexpansiveMap(1, lambda x: 3.0 * np.asarray(x, float), "grow")
    tr = split.iterate(GROW, [1.0], split.StoppingRule(max_iter=10_000, divergence_guard=1e6))
    assert tr.termination == split.TERM_DIVERGED
    # a NaN iterate ends the run too instead of using up the budget
    NAN = NonexpansiveMap(1, lambda x: np.full_like(np.asarray(x, float), np.nan), "nan")
    tr = split.iterate(NAN, [1.0], split.StoppingRule(max_iter=20_000))
    assert tr.termination == split.TERM_DIVERGED and tr.n_steps == 1


def test_pr_oscillation_example():
    A = gallery.operator("normal-cone-zero", 1)
    B = gallery.operator("zero", 1)
    tr = split.peaceman_rachford(A, B, [1.0], split.StoppingRule(max_iter=50))
    assert all(tr.iterates[n][0] == (-1.0) ** n for n in range(51))
    assert tr.period2 and tr.termination == split.TERM_MAX_ITER
    # shadows are identically zero
    assert np.all(tr.shadows == 0.0)


def test_pr_cubic_identity_shadows_vanish():
    C = gallery.operator("cubic")
    I1 = gallery.operator("identity", 1)
    tr = split.peaceman_rachford(C, I1, [10.0], split.StoppingRule(max_iter=100))
    assert tr.termination == split.TERM_CONVERGED
    assert np.linalg.norm(tr.final_shadow) <= 1e-8


def test_pr_truncated_shift_weak_convergence():
    N = 256
    A = gallery.operator("normal-cone-zero", N)
    B = gallery.operator("shift", N)
    x0 = np.zeros(N)
    x0[0] = 1.0
    tr = split.peaceman_rachford(
        A, B, x0, split.StoppingRule(max_iter=300), probe_coords=range(8)
    )
    norms = np.linalg.norm(tr.iterates, axis=1)
    assert all(norms[n] == 1.0 for n in range(N))
    assert all(tr.iterates[n][0] == 0.0 for n in range(1, N))
    assert tr.weak_probes is not None and tr.weak_probes.shape[1] == 8
    assert tr.termination == split.TERM_CONVERGED  # truncation kills the mass


def test_dr_examples():
    N0 = gallery.operator("normal-cone-zero", 1)
    Z = gallery.operator("zero", 1)
    tr = split.douglas_rachford(N0, Z, [1.0], split.StoppingRule(max_iter=50))
    assert tr.iterates[1][0] == 0.0 and tr.termination == split.TERM_CONVERGED
    assert np.all(tr.shadows == 0.0)
    tr = split.douglas_rachford(Z, Z, [3.0], split.StoppingRule(max_iter=50))
    assert tr.termination == split.TERM_CONVERGED and tr.n_steps == 1
    assert tr.final[0] == 3.0


def test_dr_strong_convergence_cubic():
    C = gallery.operator("cubic")
    I1 = gallery.operator("identity", 1)
    tr = split.douglas_rachford(C, I1, [10.0], split.StoppingRule(max_iter=250))
    shadow_norms = np.linalg.norm(tr.shadows, axis=1)
    hit = np.nonzero(shadow_norms <= 1e-8)[0]
    assert hit.size and hit[0] <= 200
    rep = split.fejer_check(tr, [0.0])
    assert rep.nonincreasing and rep.first_violation is None
    # shadow optimality at convergence
    xbar = tr.final
    lhs = core.resolvent(I1, core.reflected_resolvent(C, xbar))
    rhs = core.resolvent(C, xbar)
    assert np.linalg.norm(lhs - rhs) <= 10 * 1e-10


def test_fb_examples():
    I1 = gallery.operator("identity", 1)
    C = gallery.operator("cubic")
    tr = split.forward_backward(I1, C, 1.0, [5.0], split.StoppingRule(max_iter=50))
    assert abs(tr.iterates[1][0]) <= 1e-10
    tr = split.forward_backward(I1, C, 0.5, [5.0], split.StoppingRule(max_iter=150))
    norms = np.abs(tr.iterates[:, 0])
    hit = np.nonzero(norms <= 1e-8)[0]
    assert hit.size and hit[0] <= 100
    assert tr.shadows is None
    with pytest.raises(StepSizeOutOfRange):
        split.forward_backward(I1, C, 2.5, [5.0])
    Z = gallery.operator("zero", 1)
    tr = split.forward_backward(I1, Z, 0.5, [8.0], split.StoppingRule(max_iter=80))
    assert tr.iterates[1][0] == 4.0 and tr.iterates[2][0] == 2.0


def test_dr_trace_matches_pr_average():
    C = gallery.operator("cubic")
    Q = gallery.operator("quartic-mixed")
    pr_step = pr_operator(C, Q)
    tr = split.douglas_rachford(C, Q, [7.0], split.StoppingRule(max_iter=40))
    for n in range(min(tr.n_steps, 20)):
        x = tr.iterates[n]
        want = 0.5 * (x + pr_step(x))
        assert np.max(np.abs(tr.iterates[n + 1] - want)) <= 1e-14 * (1 + np.abs(x[0]))


def test_residuals_nonincreasing_for_nonexpansive():
    for T, x0 in [
        (gallery.mapping("clamp-sin-map"), [9.0]),
        (NonexpansiveMap(1, lambda x: 0.5 * np.asarray(x, float), "half"), [5.0]),
    ]:
        tr = split.iterate(T, x0, split.StoppingRule(max_iter=300))
        r = tr.residuals
        assert np.all(r[1:] <= r[:-1] + 1e-12)


def test_fejer_check_examples():
    NEG = NonexpansiveMap(1, lambda x: -np.asarray(x, float), "neg")
    tr = split.iterate(NEG, [1.0], split.StoppingRule(max_iter=20))
    rep = split.fejer_check(tr, [0.0])
    assert rep.nonincreasing
    PLUS = NonexpansiveMap(1, lambda x: np.asarray(x, float) + 1.0, "plus1")
    tr = split.iterate(PLUS, [0.0], split.StoppingRule(max_iter=20))
    rep = split.fejer_check(tr, [0.0])
    assert not rep.nonincreasing and rep.first_violation == 0
    empty = split.IterationTrace(iterates=np.empty((0, 1)), residuals=np.empty(0),
                                 termination=split.TERM_MAX_ITER)
    with pytest.raises(DomainError, match="empty trace"):
        split.fejer_check(empty, [0.0])


def test_fejer_check_raises_on_non_finite_distance():
    # NaN compares false both ways, so a NaN distance would pass as nonincreasing
    NAN = NonexpansiveMap(1, lambda x: np.full_like(np.asarray(x, float), np.nan), "nan")
    tr = split.iterate(NAN, [1.0], split.StoppingRule(max_iter=20))
    with pytest.raises(NumericalFailure, match=r"\|x_1 - xbar\| = nan"):
        split.fejer_check(tr, [0.0])
    tr = split.IterationTrace(iterates=np.array([[3.0], [1.0], [np.inf], [0.0]]),
                              residuals=np.array([2.0, np.inf, np.inf]),
                              termination=split.TERM_MAX_ITER)
    with pytest.raises(NumericalFailure, match=r"\|x_2 - xbar\| = inf"):
        split.fejer_check(tr, [0.0])


@pytest.mark.parametrize("iterates,want", [
    ([[3e200], [1e200]], [3e200, 1e200]),
    ([[3e200, 4e200], [0.0, 1e200], [0.5, -2.0]], [5e200, 1e200, np.hypot(0.5, 2.0)]),
])
def test_fejer_check_scales_distances_whose_squares_overflow(iterates, want):
    # finite distances beyond about 1.3e154 overflow when squared unscaled;
    # every finite row keeps the plain norm bit for bit
    it = np.array(iterates)
    tr = split.IterationTrace(iterates=it, residuals=np.zeros(len(it) - 1),
                              termination=split.TERM_MAX_ITER)
    rep = split.fejer_check(tr, np.zeros(it.shape[1]))
    assert rep.nonincreasing and rep.first_violation is None
    np.testing.assert_allclose(rep.distances, want, rtol=1e-15)
    small = np.all(np.abs(it) < 1e150, axis=1)
    assert np.array_equal(rep.distances[small], np.linalg.norm(it[small], axis=1))
    # a distance beyond the largest float is still not finite
    tr = split.IterationTrace(iterates=np.full((2, it.shape[1]), 1.5e308), residuals=np.zeros(1),
                              termination=split.TERM_MAX_ITER)
    with pytest.raises(NumericalFailure, match=r"\|x_0 - xbar\| = inf"):
        split.fejer_check(tr, -np.full(it.shape[1], 1.5e308))


def test_trace_csv_roundtrip(tmp_path):
    C = gallery.operator("cubic")
    I1 = gallery.operator("identity", 1)
    tr = split.douglas_rachford(C, I1, [10.0], split.StoppingRule(max_iter=40))
    path = tmp_path / "trace.csv"
    tr.write_csv(path, config={"algo": "dr", "seed": 0})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    header, data = rows[0], rows[1:]
    assert header[:2] == ["iter", "x_0"]
    assert "y_0" in header and "residual" in header
    assert len(data) == tr.n_steps + 1
    # 17 significant digits round-trip bit-exactly
    for n in (0, 1, len(data) - 1):
        assert float(data[n][1]) == tr.iterates[n][0]
    # final row has an empty residual field
    assert data[-1][header.index("residual")] == ""
    # byte-identical on rewrite
    path2 = tmp_path / "trace2.csv"
    tr.write_csv(path2, config={"algo": "dr", "seed": 0})
    assert path.read_bytes() == path2.read_bytes()


def test_weak_probe_columns(tmp_path):
    N = 16
    A = gallery.operator("normal-cone-zero", N)
    B = gallery.operator("shift", N)
    x0 = np.zeros(N)
    x0[0] = 1.0
    tr = split.peaceman_rachford(A, B, x0, split.StoppingRule(max_iter=40), probe_coords=[0, 1])
    path = tmp_path / "probe.csv"
    tr.write_csv(path)
    header = path.read_text().splitlines()[0].split(",")
    assert "probe_0" in header and "probe_1" in header
    # the probes are the iterates' probed columns, and no probes give None
    assert np.array_equal(tr.weak_probes, tr.iterates[:, [0, 1]])
    assert split.peaceman_rachford(A, B, x0, split.StoppingRule(max_iter=40)).weak_probes is None
    with pytest.raises(DomainError):
        split.peaceman_rachford(A, B, x0, split.StoppingRule(max_iter=40), probe_coords=[N])


def _reference_write_csv(trace, path, config=None):
    """The per-field ``csv.writer`` trace writer that ``write_csv`` replaced;
    its output is the byte format ``write_csv`` must keep."""
    d = trace.iterates.shape[1]
    header = ["iter"] + [f"x_{i}" for i in range(d)]
    if trace.shadows is not None:
        header += [f"y_{i}" for i in range(d)]
    header += ["residual"]
    header += [f"probe_{k}" for k in trace.probe_coords]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if config is not None:
            fh.write("# " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for n in range(len(trace.iterates)):
            row = [str(n)]
            row += [f"{v:.17g}" for v in trace.iterates[n]]
            if trace.shadows is not None:
                row += [f"{v:.17g}" for v in trace.shadows[n]]
            row += [f"{trace.residuals[n]:.17g}" if n < len(trace.residuals) else ""]
            row += [f"{trace.iterates[n][k]:.17g}" for k in trace.probe_coords]
            writer.writerow(row)


def _block_rows(width):
    return max(1, split.CSV_BLOCK_VALUES // width)


def _block_shares(trace):
    """The share of distinct float bit patterns in each row block that
    ``write_csv`` formats, stepped and unstepped rows apart."""
    n, d = trace.iterates.shape
    cols = [trace.iterates]
    if trace.shadows is not None:
        cols.append(trace.shadows)
    residuals = np.zeros(n)
    residuals[:len(trace.residuals)] = trace.residuals
    cols += [residuals[:, None], trace.iterates[:, list(trace.probe_coords)]]
    table = np.hstack(cols)
    step = _block_rows(table.shape[1] + 1)
    stepped = min(len(trace.residuals), n)
    shares = []
    for lo, hi in ((0, stepped), (stepped, n)):
        for b in range(lo, hi, step):
            bits = table[b:min(b + step, hi)].view(np.int64)
            shares.append(np.unique(bits).size / bits.size)
    return shares


def _joined(first, second):
    """``second`` continued from the end of ``first`` as one trace."""
    return split.IterationTrace(
        iterates=np.vstack([first.iterates, second.iterates[1:]]),
        residuals=np.concatenate([first.residuals, second.residuals]),
        termination=second.termination,
        shadows=np.vstack([first.shadows, second.shadows[1:]]),
        probe_coords=first.probe_coords)


@functools.lru_cache(maxsize=None)
def _csv_cases():
    C, Q = gallery.operator("cubic"), gallery.operator("quartic-mixed")
    Z1, N1 = gallery.operator("zero", 1), gallery.operator("normal-cone-zero", 1)
    S, Z2 = gallery.operator("staircase"), gallery.operator("zero", 2)
    N16, B16 = gallery.operator("normal-cone-zero", 16), gallery.operator("shift", 16)
    N64, B64 = gallery.operator("normal-cone-zero", 64), gallery.operator("shift", 64)
    N256, B256 = gallery.operator("normal-cone-zero", 256), gallery.operator("shift", 256)
    x16 = np.random.default_rng(3).uniform(-1.0, 1.0, 16)
    x64 = np.random.default_rng(5).uniform(-1.0, 1.0, 64)
    e1 = np.zeros(256)
    e1[0] = 1.0
    # iter, x_0, y_0, residual: the oscillating PR run spans two row blocks plus two rows
    long_steps = _block_rows(4) + 1
    odd = np.array([[np.inf, -0.0], [np.nan, 5e-324], [-np.inf, 1.0 / 3.0]])
    # 0.0 and -0.0, three NaN bit patterns, +-inf and the least subnormal,
    # repeated over more rows than one block holds
    payload_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(float)[0]
    specials = np.array([0.0, -0.0, np.nan, -np.nan, payload_nan, np.inf, -np.inf, 5e-324])
    rep = np.resize(specials, (3 * _block_rows(6), 2))
    # the PR cubic+zero iterates are distinct; the normal-cone-zero+zero tail repeats
    distinct = split.peaceman_rachford(C, Z1, [1.0], split.StoppingRule(max_iter=3000),
                                       probe_coords=[0])
    tail = split.peaceman_rachford(N1, Z1, distinct.final, split.StoppingRule(max_iter=3000),
                                   probe_coords=[0])
    return {
        "dr-shadows-probes": split.douglas_rachford(
            C, Q, [7.0], split.StoppingRule(max_iter=60), probe_coords=[0]),
        "dr-2d": split.douglas_rachford(
            S, Z2, [3.0, 1.0], split.StoppingRule(max_iter=40), probe_coords=[1, 0]),
        "pr-shift-probes": split.peaceman_rachford(
            N16, B16, x16, split.StoppingRule(max_iter=30), probe_coords=range(4)),
        "fb-no-shadows": split.forward_backward(
            gallery.operator("identity", 1), C, 0.5, [5.0], split.StoppingRule(max_iter=80)),
        "one-row": split.peaceman_rachford(
            C, Q, [10.0], split.StoppingRule(divergence_guard=1.0), probe_coords=[0]),
        "past-one-block": split.peaceman_rachford(
            N1, Z1, [1.5], split.StoppingRule(max_iter=long_steps)),
        "non-finite": split.IterationTrace(
            iterates=odd, residuals=np.array([np.nan, -0.0]), termination=split.TERM_DIVERGED,
            shadows=odd[:, ::-1].copy(), probe_coords=(1,)),
        "pr-shift-64-blocks": split.peaceman_rachford(
            N64, B64, x64, split.StoppingRule(max_iter=100), probe_coords=range(4)),
        "pr-shift-e1-256": split.peaceman_rachford(N256, B256, e1, probe_coords=range(8)),
        "repeated-non-finite": split.IterationTrace(
            iterates=rep, residuals=rep[1:, 1].copy(), termination=split.TERM_DIVERGED,
            shadows=rep[::-1].copy(), probe_coords=(1,)),
        # rows from 300 on are unstepped: their residual field prints empty
        "repeated-unstepped": split.IterationTrace(
            iterates=np.resize([1.5, -1.5], (1500, 1)), residuals=np.full(300, 3.0),
            termination=split.TERM_MAX_ITER, shadows=np.zeros((1500, 1))),
        "mixed-blocks": _joined(distinct, tail),
    }


# cases with a row block on the writer's repeated-value path
_REPEATED_CASES = {"past-one-block", "pr-shift-64-blocks", "pr-shift-e1-256",
                   "repeated-non-finite", "repeated-unstepped"}


@pytest.mark.parametrize("case", sorted(_csv_cases()))
@pytest.mark.parametrize(
    "config", [None, {"algo": "pr", "x0": "1", "seed": 0}], ids=["bare", "config"])
def test_write_csv_matches_csv_writer_reference(tmp_path, case, config):
    tr = _csv_cases()[case]
    if case == "one-row":
        assert tr.n_steps == 0 and len(tr.residuals) == 0
    if case == "past-one-block":
        assert len(tr.iterates) > _block_rows(4) + 1
    shares = _block_shares(tr)
    repeated = [s <= split.CSV_REPEAT_SHARE for s in shares]
    if case in _REPEATED_CASES or case == "mixed-blocks":
        assert any(repeated)
    if case == "mixed-blocks":
        assert not repeated[0]
    if case == "repeated-unstepped":
        assert repeated[-1]
    tr.write_csv(tmp_path / "got.csv", config=config)
    _reference_write_csv(tr, tmp_path / "want.csv", config=config)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_write_csv_memory_is_block_bounded(tmp_path):
    # a 258 x 522 trace (the split-trace shift run) whose fields repeat, and
    # one of distinct values: writing either holds one block, not the file
    n = 256
    x0 = np.random.default_rng(11).uniform(-1.0, 1.0, n)
    repeated = split.peaceman_rachford(
        gallery.operator("normal-cone-zero", n), gallery.operator("shift", n), x0,
        split.StoppingRule(max_iter=300), probe_coords=range(8))
    rng = np.random.default_rng(12)
    distinct = split.IterationTrace(
        iterates=rng.standard_normal((n + 2, n)), residuals=rng.random(n + 1),
        termination=split.TERM_MAX_ITER, shadows=rng.standard_normal((n + 2, n)),
        probe_coords=tuple(range(8)))
    for tr, path in ((repeated, "repeated"), (distinct, "distinct")):
        shares = _block_shares(tr)
        assert (max(shares) <= split.CSV_REPEAT_SHARE) == (path == "repeated")
        tracemalloc.start()
        try:
            tr.write_csv(tmp_path / f"{path}.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tr.iterates.shape == (258, 256)
        assert peak < 2 ** 20, (path, peak)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _shadow_operators():
    ops = {}
    for name in gallery.names():
        if "operator" not in gallery.entry(name).kinds:
            continue
        dim = 8 if gallery.entry(name).parametric_dim else None
        A = gallery.operator(name, dim)
        ops[name] = A
        try:
            ops[f"0.5*{name}"] = core.scale(A, 0.5)
        except UnsupportedOperator:
            pass
    # scale()'s root-found fallback on an operator that has a closed form too
    ops["0.5*cubic-rootfound"] = core.scale(
        dataclasses.replace(gallery.operator("cubic"), scaled_resolvent=None), 0.5)
    return ops


@pytest.mark.parametrize("name", sorted(_shadow_operators()))
def test_batched_resolvent_matches_per_row_calls(name):
    # split.iterate evaluates the shadows in one call on the stacked iterates
    A = _shadow_operators()[name]
    rng = np.random.default_rng(11)
    X = rng.choice([-1.0, 1.0], (40, A.dim)) * 10.0 ** rng.uniform(-12.0, 5.0, (40, A.dim))
    X[0] = 0.0
    X[1] = -0.0
    assert _same_bits(A.resolvent(X), np.stack([A.resolvent(x) for x in X]))


def test_iterate_shadows_and_residuals_match_per_step_reference():
    C, Q = gallery.operator("cubic"), gallery.operator("quartic-mixed")
    N16, B16 = gallery.operator("normal-cone-zero", 16), gallery.operator("shift", 16)
    runs = [
        (split.douglas_rachford(C, Q, [7.0], split.StoppingRule(max_iter=60)), C),
        (split.peaceman_rachford(gallery.operator("clamp-sin-op"), gallery.operator("identity", 1),
                                 [4.0], split.StoppingRule(max_iter=60)),
         gallery.operator("clamp-sin-op")),
        (split.douglas_rachford(gallery.operator("staircase"), gallery.operator("zero", 2),
                                [3.0, 1.0], split.StoppingRule(max_iter=40)),
         gallery.operator("staircase")),
        (split.peaceman_rachford(N16, B16, np.random.default_rng(5).uniform(-1.0, 1.0, 16),
                                 split.StoppingRule(max_iter=30)), N16),
    ]
    for tr, A in runs:
        assert tr.n_steps >= 2
        assert _same_bits(tr.shadows, np.stack([A.resolvent(x) for x in tr.iterates]))
        want = [np.linalg.norm(tr.iterates[n + 1] - tr.iterates[n]) for n in range(tr.n_steps)]
        assert _same_bits(tr.residuals, np.array(want, dtype=float))


def test_divergence_guard_is_the_euclidean_norm():
    HALF = NonexpansiveMap(2, lambda x: 0.5 * np.asarray(x, float), "half")
    # |(3, 4)| = 5 exactly: on the guard is not beyond it
    tr = split.iterate(HALF, [3.0, 4.0], split.StoppingRule(max_iter=3, divergence_guard=5.0))
    assert tr.termination == split.TERM_MAX_ITER and tr.n_steps == 3
    tr = split.iterate(HALF, [3.0, 4.0], split.StoppingRule(max_iter=3, divergence_guard=4.999))
    assert tr.termination == split.TERM_DIVERGED and tr.n_steps == 0
