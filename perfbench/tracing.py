"""Per-layer tracing from outside the library.

Calls into each module's public functions are timed by replacing module
attributes with wrappers for the duration of a traced operation; operators
and maps handed out by the gallery get their ``resolvent``/``eval`` callables
wrapped.  Spans (name, start, end, parent) and counts are kept in memory and
written out when the run ends.  A layer's self time is its spans' time minus
the time of their child spans; after the first few operations, spans are
folded into these totals as each operation ends, which bounds memory.
"""

from __future__ import annotations

import dataclasses
import json
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from mosk import certify, cli, combine, core, gallery, split

# Layer metrics in report order: counts first, then self times (seconds).
COUNT_METRICS = (
    "core.root.calls", "core.root.fevals", "core.minty.points", "gallery.oracle.points",
    "gallery.inverse.calls", "certify.pairs", "certify.ring.pairs", "combine.step.calls",
    "split.steps", "split.csv.bytes", "cli.json.bytes",
)
SPAN_METRICS = {
    "core.root.s": "core.root",
    "core.minty.s": "core.minty",
    "gallery.oracle.s": "gallery.oracle",
    "gallery.inverse.s": "gallery.inverse",
    "certify.sample.s": "certify.sample",
    "certify.ring.s": "certify.ring",
    "certify.stat.s": "certify.stat",
    "combine.step.s": "combine.step",
    "split.loop.s": "split.loop",
    "split.csv.s": "split.csv",
    "cli.main.s": "cli.main",
}

CERTIFIERS = (
    "certify_lipschitz", "certify_firm", "certify_averaged", "certify_banach_contraction",
    "certify_cld", "estimate_modulus", "certify_strongly_monotone", "check_sequential",
    "check_growth", "check_coercive", "check_lemma_3_5", "check_selfdual",
)

KEEP_OPS = 3  # traced operations whose spans are kept for the dump


def _rows(x, dim: int) -> int:
    return int(np.size(x)) // max(int(dim), 1)


class Tracer:
    """Spans and counts of traced operations, plus the attribute patches."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.self_s = Counter()  # self time per span name, over every traced operation
        self.ops = 0
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, count=None, prepare=None):
        """``fn`` timed as a span ``name``; ``count(args, result)`` yields
        ``(key, n)`` pairs; ``prepare(args)`` may rewrite the arguments."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                for key, n in count(args, out):
                    counts[key] += n
            return out

        return traced

    def counter(self, fn, count):
        """``fn`` untimed, only counted."""
        counts = self.counts

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            for key, n in count(args, out):
                counts[key] += n
            return out

        return counted

    @contextmanager
    def op_span(self):
        """Span of one whole traced operation.  On exit its spans are folded
        into the self-time totals and dropped, unless the operation is one of
        the first ``KEEP_OPS``."""
        first = len(self.spans)
        rec = ["op", perf_counter(), 0.0, -1]
        self._stack.append(first)
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
            for name, start, end, parent in self.spans[first:]:
                self.self_s[name] += end - start
                if parent >= 0:
                    self.self_s[self.spans[parent][0]] -= end - start
            self.ops += 1
            if self.ops > KEEP_OPS:
                del self.spans[first:]

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def oracle(self, op):
        """Copy of a gallery operator whose resolvent is traced."""
        dim = op.dim
        res = self.wrap("gallery.oracle", op.resolvent,
                        count=lambda a, out: (("gallery.oracle.points", _rows(a[0], dim)),))
        return dataclasses.replace(op, resolvent=res)

    def install(self):
        """Replace the library's module attributes with traced wrappers."""
        t = self
        root_calls = lambda a, out: (("core.root.calls", 1),)  # noqa: E731

        def count_fevals(args):
            fun = args[0]

            def f(x):
                t.counts["core.root.fevals"] += 1
                return fun(x)

            return (f,) + tuple(args[1:])

        solve = t.wrap("core.root", core.solve_increasing, root_calls, count_fevals)
        t._patch(core, "solve_increasing", solve)
        t._patch(gallery, "solve_increasing", solve)

        minty = t.wrap("core.minty", core.minty_sample,
                       lambda a, out: (("core.minty.points", _rows(a[1], a[0].dim)),))
        for mod in (core, certify, cli):
            t._patch(mod, "minty_sample", minty)

        make_op, make_map, scale = gallery.operator, gallery.mapping, core.scale
        t._patch(gallery, "operator", lambda *a, **k: t.oracle(make_op(*a, **k)))

        def traced_map(*a, **k):
            m = make_map(*a, **k)
            ev = t.wrap("gallery.oracle", m.eval, lambda a, out, d=m.dim: (
                ("gallery.oracle.points", _rows(a[0], d)),))
            return dataclasses.replace(m, eval=ev)

        t._patch(gallery, "mapping", traced_map)

        def traced_scale(A, gamma):
            B = scale(A, gamma)
            return B if B is A else t.oracle(B)

        t._patch(core, "scale", traced_scale)
        t._patch(combine, "scale", traced_scale)
        for fname in ("fenchel_conjugate_1d", "clamp_sin_operator_eval", "h_value"):
            pos = 1 if fname == "fenchel_conjugate_1d" else 0
            t._patch(gallery, fname, t.wrap(
                "gallery.oracle", getattr(gallery, fname),
                lambda a, out, i=pos: (("gallery.oracle.points", int(np.size(a[i]))),)))
        t._patch(gallery.ScalarInverseSolver, "solve", t.wrap(
            "gallery.inverse", gallery.ScalarInverseSolver.solve,
            lambda a, out: (("gallery.inverse.calls", 1),)))

        t._patch(certify, "pair_batches", t.wrap(
            "certify.sample", certify.pair_batches,
            lambda a, out: (("certify.pairs", len(out[0])),)))
        t._patch(certify, "_ring_pair_batches", t.wrap(
            "certify.ring", certify._ring_pair_batches,
            lambda a, out: (("certify.ring.pairs",
                             sum(len(x) for _, x, _ in out if x is not None)),)))
        for fname in CERTIFIERS:
            t._patch(certify, fname, t.wrap("certify.stat", getattr(certify, fname)))

        # split builds its splitting operators through these names; dr_operator
        # reaches combine.pr_operator untraced, so each step is one span
        for fname in ("pr_operator", "dr_operator", "fb_operator"):
            build = getattr(split, fname)

            def traced_build(*a, _build=build, **k):
                T = _build(*a, **k)
                ev = t.wrap("combine.step", T.eval,
                            lambda a, out: (("combine.step.calls", 1),))
                return dataclasses.replace(T, eval=ev)

            t._patch(split, fname, traced_build)
        t._patch(split, "iterate", t.wrap(
            "split.loop", split.iterate, lambda a, out: (("split.steps", out.n_steps),)))
        t._patch(split.IterationTrace, "write_csv", t.wrap(
            "split.csv", split.IterationTrace.write_csv,
            lambda a, out: (("split.csv.bytes", os.path.getsize(a[1])),)))

        t._patch(cli, "main", t.wrap("cli.main", cli.main))
        t._patch(cli, "_write_json", t.counter(
            cli._write_json,
            lambda a, out: (("cli.json.bytes", os.path.getsize(a[0]) if a[0] else 0),)))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- reporting ---------------------------------------------------------

    def dump(self, path):
        """Write the kept spans, the counts and the self times as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"ops": self.ops, "counts": dict(self.counts),
                       "self_s": dict(self.self_s), "spans": self.spans}, fh)
