"""The four benchmark workloads.

Each workload turns one ``--seed`` into fixed inputs, and each of its
operations is the same fixed unit of work on those inputs: the mix of calls
lives inside the operation, so every operation costs the same.  ``op()``
returns what ``check()`` needs; ``check()`` runs outside the timed region and
returns a list of problems (empty when every output is right).  The checks
compare against properties the mathematics fixes or against computations
made apart from the library, never against stored outputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from mosk import certify, cli, core, gallery, split
from mosk.certify import CONSISTENT, REFUTED, SamplerConfig

ROOT = Path(__file__).resolve().parent.parent
T_LIST = (0.5, 1.0, 2.0, 4.0)


def seeded_rng(seed: int) -> np.random.Generator:
    """The generator behind every input drawn from the benchmark seed."""
    return np.random.default_rng(seed % 2**64)


def derived_seeds(seed: int, n: int) -> list:
    """``n`` library seeds drawn from the benchmark seed."""
    return [int(v) for v in seeded_rng(seed).integers(0, 2**31 - 1, size=n)]


def _close(a, b, rtol=1e-12) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _replays(problems: list, label: str, cert, target=None):
    """A refuting certificate's witness must reproduce its value."""
    if cert.witness is None:
        problems.append(f"{label}: refuted without a witness")
        return
    value = certify.replay(cert, target)
    if not _close(value, cert.witness_value):
        problems.append(f"{label}: replay gives {value!r}, certificate {cert.witness_value!r}")


def _minty_identity(problems: list, label: str, A, z):
    """``J(z) + A(J(z)) = z`` through the operator's direct evaluation."""
    jz = A.resolvent(z)
    err = float(np.max(np.abs(jz + A.direct_eval(jz) - z)))
    if not err <= 1e-8 * max(1.0, float(np.max(np.abs(z)))):
        problems.append(f"{label}: |J z + A(J z) - z| = {err:.3e}")


def _expect(problems: list, label: str, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# certify-closed: certifier battery on closed-form gallery entries
# ---------------------------------------------------------------------------


class CertifyClosed:
    """Certifier calls at 100 000 samples on closed-form entries; no root
    finder runs, so sampling, the ring probe and the reductions dominate."""

    SAMPLES = 100_000
    SHIFT_DIM = 8

    def __init__(self, seed: int, workdir: Path):
        s = derived_seeds(seed, 9)
        n = self.SAMPLES

        def cfg(k, dim, half_width):
            return SamplerConfig.symmetric(s[k], n, dim, half_width)

        self.cubic = gallery.operator("cubic")
        self.rotator = gallery.operator("rotator")
        self.clamp_map = gallery.mapping("clamp-sin-map")
        self.staircase = gallery.mapping("staircase")
        self.j_cubic = core.resolvent_map(self.cubic)
        self.clamp_op = gallery.operator("clamp-sin-op")
        self.shift = gallery.mapping("shift", self.SHIFT_DIM)
        self.cfg = {
            "mod_cubic": cfg(0, 1, 50.0),
            "mod_rotator": cfg(1, 2, 50.0),
            "cld_clamp": cfg(2, 1, 50.0),
            "banach_clamp": cfg(3, 1, 50.0),
            "lip_staircase": cfg(4, 2, 50.0),
            "firm_j_cubic": cfg(5, 1, 50.0),
            "sd_cubic": cfg(6, 1, 1000.0),
            "sd_clamp": cfg(7, 1, 50.0),
            "lip_shift": cfg(8, self.SHIFT_DIM, 50.0),
        }

    def op(self) -> dict:
        c = self.cfg
        return {
            "mod_cubic": certify.estimate_modulus(self.cubic, T_LIST, c["mod_cubic"]),
            "mod_rotator": certify.estimate_modulus(self.rotator, T_LIST, c["mod_rotator"]),
            "cld_clamp": certify.certify_cld(self.clamp_map, T_LIST, c["cld_clamp"]),
            "banach_clamp": certify.certify_banach_contraction(self.clamp_map, c["banach_clamp"]),
            "lip_staircase": certify.certify_lipschitz(self.staircase, c["lip_staircase"]),
            "firm_j_cubic": certify.certify_firm(self.j_cubic, c["firm_j_cubic"]),
            "sd_cubic": certify.check_selfdual(self.cubic, c["sd_cubic"]),
            "sd_clamp": certify.check_selfdual(self.clamp_op, c["sd_clamp"]),
            "lip_shift": certify.certify_lipschitz(self.shift, c["lip_shift"]),
        }

    def check(self, out: dict) -> list:
        p = []
        # cubic is uniformly monotone with modulus t^4/4 on every shell
        m = out["mod_cubic"]
        _expect(p, "cubic modulus verdict", m.verdict, CONSISTENT)
        for t, v in m.table:
            if not v >= t**4 / 4.0 - 1e-6:
                p.append(f"cubic modulus at t={t}: {v!r} below t^4/4")
        # the rotator is monotone but <x-y, Sx-Sy> = 0: not uniformly monotone
        m = out["mod_rotator"]
        _expect(p, "rotator modulus verdict", m.verdict, REFUTED)
        _replays(p, "rotator modulus", m.certificate())
        if not abs(m.witness_value) <= 1e-9:
            p.append(f"rotator witness product {m.witness_value!r} is not 0")
        _expect(p, "clamp-sin-map cld verdict", out["cld_clamp"].verdict, CONSISTENT)
        b = out["banach_clamp"]
        _expect(p, "clamp-sin-map banach verdict", b.verdict, REFUTED)
        _replays(p, "clamp-sin-map banach", b, self.clamp_map)
        _expect(p, "staircase nonexpansive verdict", out["lip_staircase"].verdict, CONSISTENT)
        _expect(p, "J_cubic firm verdict", out["firm_j_cubic"].verdict, CONSISTENT)
        _expect(p, "shift nonexpansive verdict", out["lip_shift"].verdict, CONSISTENT)
        # self-duality: cubic's inverse (cube root) is not uniformly monotone
        sd = out["sd_cubic"]
        _expect(p, "cubic selfdual verdicts", sd.verdicts, (CONSISTENT, REFUTED, REFUTED))
        _expect(p, "cubic selfdual agrees", sd.agrees, True)
        _replays(p, "cubic inverse modulus", sd.modulus_inverse.certificate())
        _replays(p, "cubic reflected cld", sd.cld, core.reflected_map(self.cubic))
        sd = out["sd_clamp"]
        _expect(p, "clamp-sin-op selfdual verdicts", sd.verdicts, (CONSISTENT,) * 3)
        _expect(p, "clamp-sin-op selfdual agrees", sd.agrees, True)
        z = np.linspace(-60.0, 60.0, 2001)
        _minty_identity(p, "cubic", self.cubic, z)
        _minty_identity(p, "clamp-sin-op", self.clamp_op, z)
        _minty_identity(p, "rotator", self.rotator, np.stack([z, z[::-1]], axis=1))
        return p


# ---------------------------------------------------------------------------
# rootfound: root finding on large batches and one scalar at a time
# ---------------------------------------------------------------------------


class Rootfound:
    """Root-found resolvents, conjugates and inverse solvers in batches, and
    splitting runs whose every step solves one scalar equation."""

    MODULUS_SAMPLES = 2_000
    RING_SAMPLES = 256
    GRID = np.linspace(-50.0, 50.0, 10_001)
    BATCH = 10_000
    GAMMA = 0.5

    def __init__(self, seed: int, workdir: Path):
        rng = seeded_rng(seed + 1)
        (s,) = derived_seeds(seed, 1)
        self.cfg = SamplerConfig.symmetric(s, self.MODULUS_SAMPLES, 1, 50.0)
        self.quartic = gallery.operator("quartic-mixed")
        self.identity = gallery.operator("identity", 1)
        self.clamp_op = gallery.operator("clamp-sin-op")
        self.cubic_fn = gallery.function("cubic")
        self.conj_at = rng.uniform(-20.0, 20.0, self.BATCH)
        # y = (x + T x)/2 is the resolvent point of x, so g's branch formula
        # must return x - y there
        self.clamp_x = rng.uniform(-4.0, 4.0, self.BATCH)
        self.clamp_y = 0.5 * (self.clamp_x + gallery.clamp_sin(self.clamp_x))
        lo, hi = gallery.h_solver.range()
        self.h_at = rng.uniform(lo, hi, self.BATCH)
        # FB runs on the flat (8x^3) side of quartic-mixed, DR from the right
        self.fb_x0 = [rng.uniform(-10.0, -1.0)]
        self.dr_x0 = [rng.uniform(1.0, 20.0)]
        self.stop = split.StoppingRule(max_iter=2_000)

    def op(self) -> dict:
        return {
            "modulus": certify.estimate_modulus(
                self.quartic, T_LIST, self.cfg, ring_samples=self.RING_SAMPLES
            ),
            "grid_j": self.quartic.resolvent(self.GRID),
            "conj": gallery.fenchel_conjugate_1d(self.cubic_fn, self.conj_at),
            "clamp_eval": gallery.clamp_sin_operator_eval(self.clamp_y),
            "h": gallery.h_value(self.h_at),
            "fb": split.forward_backward(
                self.identity, self.quartic, self.GAMMA, self.fb_x0, self.stop
            ),
            "dr": split.douglas_rachford(self.clamp_op, self.quartic, self.dr_x0, self.stop),
        }

    def check(self, out: dict) -> list:
        p = []
        _expect(p, "quartic-mixed modulus verdict", out["modulus"].verdict, CONSISTENT)
        y = out["grid_j"]
        res = float(np.max(np.abs(y + gallery.quartic_mixed_fprime(y) - self.GRID)))
        if not res <= 1e-10:
            p.append(f"quartic-mixed resolvent residual {res:.3e} > 1e-10")
        s = self.conj_at
        want = 0.75 * np.abs(s) ** (4.0 / 3.0)
        err = float(np.max(np.abs(out["conj"] - want) / np.maximum(1.0, want)))
        if not err <= 1e-9:
            p.append(f"cubic conjugate differs from 0.75|s|^(4/3) by {err:.3e}")
        err = float(np.max(np.abs(out["clamp_eval"] - (self.clamp_x - self.clamp_y))))
        if not err <= 1e-10:
            p.append(f"g branch formula misses x - y by {err:.3e}")
        t = out["h"]
        err = float(np.max(np.abs((t - np.sin(t)) - self.h_at)))
        if not err <= 1e-12:
            p.append(f"h(s) - sin h(s) misses s by {err:.3e}")
        for key, tr, zero in (("fb", out["fb"], out["fb"].final),
                              ("dr", out["dr"], out["dr"].final_shadow)):
            _expect(p, f"{key} termination", tr.termination, split.TERM_CONVERGED)
            if not float(np.max(np.abs(zero))) <= 1e-8:
                p.append(f"{key} ends at {zero!r}, not at the zero 0")
        return p


# ---------------------------------------------------------------------------
# split-trace: splitting iterations, each written out as CSV
# ---------------------------------------------------------------------------


def read_trace_csv(path: Path):
    """Parse a trace CSV written by ``IterationTrace.write_csv``."""
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline()
        rows = list(csv.reader(fh))
    return json.loads(first[2:]), rows[0], rows[1:]


def csv_matches_trace(path: Path, tr, config: dict) -> list:
    """The CSV read back must equal the trace arrays exactly (17 significant
    digits round-trip float64)."""
    got_config, header, rows = read_trace_csv(path)
    p = []
    if got_config != config:
        p.append(f"{path.name}: config line {got_config!r}")
    d = tr.iterates.shape[1]
    cols = {name: i for i, name in enumerate(header)}
    table = np.array([[float(v) if v != "" else np.nan for v in r] for r in rows])
    if table.shape[0] != len(tr.iterates):
        return p + [f"{path.name}: {table.shape[0]} rows for {len(tr.iterates)} iterates"]
    if not np.array_equal(table[:, cols["iter"]], np.arange(len(tr.iterates))):
        p.append(f"{path.name}: iteration column")
    x = table[:, [cols[f"x_{i}"] for i in range(d)]]
    if not np.array_equal(x, tr.iterates):
        p.append(f"{path.name}: iterates differ")
    if tr.shadows is not None:
        ys = table[:, [cols[f"y_{i}"] for i in range(d)]]
        if not np.array_equal(ys, tr.shadows):
            p.append(f"{path.name}: shadows differ")
    r = table[:-1, cols["residual"]]
    if not (np.array_equal(r, tr.residuals) and np.isnan(table[-1, cols["residual"]])):
        p.append(f"{path.name}: residuals differ")
    for k in tr.probe_coords:
        if not np.array_equal(table[:, cols[f"probe_{k}"]], tr.iterates[:, k]):
            p.append(f"{path.name}: probe {k} differs")
    return p


class SplitTrace:
    """PR/DR/FB iterations on closed-form operators, each trace written to
    CSV: the per-step loop and the trace output share the time."""

    PR_STEPS = 5_000
    SHIFT_DIM = 256
    SHIFT_PROBES = 8
    GAMMA = 0.5

    def __init__(self, seed: int, workdir: Path):
        rng = seeded_rng(seed + 1)
        O = gallery.operator
        n = self.SHIFT_DIM
        self.runs = {
            "pr": (split.peaceman_rachford, (O("normal-cone-zero", 1), O("zero", 1)),
                   [rng.uniform(0.5, 2.0)], split.StoppingRule(max_iter=self.PR_STEPS), {}),
            "dr": (split.douglas_rachford, (O("cubic"), O("identity", 1)),
                   [rng.uniform(5.0, 15.0)], split.StoppingRule(max_iter=250), {}),
            "fb": (split.forward_backward, (O("identity", 1), O("cubic"), self.GAMMA),
                   [rng.uniform(2.0, 8.0)], split.StoppingRule(max_iter=150), {}),
            "pr_shift": (split.peaceman_rachford, (O("normal-cone-zero", n), O("shift", n)),
                         rng.uniform(-1.0, 1.0, n), split.StoppingRule(max_iter=300),
                         {"probe_coords": list(range(self.SHIFT_PROBES))}),
        }
        self.paths = {k: workdir / f"{k}.csv" for k in self.runs}
        self.configs = {k: {"run": k, "seed": seed} for k in self.runs}

    def op(self) -> dict:
        out = {}
        for key, (algo, ops, x0, stop, kw) in self.runs.items():
            tr = algo(*ops, x0, stop, **kw)
            tr.write_csv(self.paths[key], config=self.configs[key])
            out[key] = tr
        return out

    def check(self, out: dict) -> list:
        p = []
        tr = out["pr"]
        x0 = self.runs["pr"][2][0]
        # R_A = -Id and R_B = Id: x_n = (-1)^n x0 exactly, flagged period-2
        want = x0 * (-1.0) ** np.arange(self.PR_STEPS + 1)
        if not np.array_equal(tr.iterates[:, 0], want):
            p.append("PR normal-cone-zero+zero iterates are not (-1)^n x0")
        _expect(p, "PR normal-cone-zero+zero period-2", tr.period2, True)
        _expect(p, "PR normal-cone-zero+zero termination", tr.termination, split.TERM_MAX_ITER)
        for key, zero in (("dr", out["dr"].final_shadow), ("fb", out["fb"].final)):
            _expect(p, f"{key} termination", out[key].termination, split.TERM_CONVERGED)
            if not float(np.max(np.abs(zero))) <= 1e-8:
                p.append(f"{key} ends at {zero!r}, not at the zero 0")
        if not split.fejer_check(out["dr"], [0.0]).nonincreasing:
            p.append("DR cubic+identity is not Fejer monotone towards 0")
        # R_A = -Id and R_B = -shift: PR is the plain right shift
        tr = out["pr_shift"]
        x = np.asarray(self.runs["pr_shift"][2], dtype=float)
        for n in range(tr.n_steps + 1):
            if not np.array_equal(tr.iterates[n], x):
                p.append(f"PR shift iterate {n} is not the {n}-fold shift of x0")
                break
            x = gallery.shift_eval(x)
        if not (tr.n_steps == self.SHIFT_DIM + 1 and np.all(tr.final == 0.0)):
            p.append(f"PR shift took {tr.n_steps} steps to reach {np.linalg.norm(tr.final)!r}")
        for key, path in self.paths.items():
            p += csv_matches_trace(path, out[key], self.configs[key])
        return p


# ---------------------------------------------------------------------------
# cli-readme: the README's CLI commands, each in a fresh process
# ---------------------------------------------------------------------------


def readme_commands(seed: int, outdir: Path) -> list:
    """The six CLI commands of README.md, in order, with seeds drawn from the
    benchmark seed and outputs in ``outdir``."""
    s1, s2 = derived_seeds(seed, 2)
    o = lambda name: str(outdir / name)  # noqa: E731
    return [
        ["gallery"],
        ["certify", "--op", "rotator", "--class", "uniformly-monotone", "--t", "0.5,1,2",
         "--samples", "100000", "--seed", str(s1), "--out", o("cert.json")],
        ["split", "--algo", "pr", "--opA", "normal-cone-zero", "--opB", "zero", "--x0", "1",
         "--max-iter", "50", "--out", o("trace.csv")],
        ["split", "--algo", "pr", "--opA", "normal-cone-zero", "--opB", "shift", "--dim", "256",
         "--x0", "e1", "--probes", "8", "--out", o("shift.csv")],
        ["witness", "--example", "staircase-ssne", "--n", "20", "--out", o("w.csv")],
        ["selfdual", "--op", "cubic", "--box=-1000,1000", "--seed", str(s2),
         "--out", o("sd.json")],
    ]


README_EXIT_CODES = [0, 2, 0, 0, 0, 0]
README_FILES = ["cert.json", "trace.csv", "shift.csv", "w.csv", "sd.json"]


def child_env() -> dict:
    """Environment of the child processes: this checkout's sources, and
    bytecode caching always on, so that start-up times do not depend on
    whether the caller's environment turned it off."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class CliReadme:
    """One pass over the README commands, each a fresh ``python -m mosk``
    process started by ``launch.py``: the only workload that pays for
    start-up, import, argparse, dispatch and JSON writing."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.env = child_env()
        self.first_dir = workdir / "pass-first"
        self.last_dir = workdir / "pass-last"
        self.passes = 0
        self.exit_codes = []  # one list per pass
        self.launcher = None
        self.peak_child_mb = None

    def _run(self, argv: list, cwd: Path) -> tuple:
        """Run one command through the launcher (``launch.py``), started on
        first use, so that its peak memory is its own."""
        if self.launcher is None:
            self.launcher = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve().parent / "launch.py")],
                env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        self.launcher.stdin.write(json.dumps({"argv": argv, "cwd": str(cwd)}) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        return reply["code"], reply["stdout"], reply["stderr"]

    def close(self):
        """Stop the launcher; return the largest peak resident set of the
        commands it ran, in MB (None when it ran none)."""
        if self.launcher is not None:
            with self.launcher as proc:
                out, _ = proc.communicate("\n")
            self.peak_child_mb = json.loads(out.splitlines()[-1])["peak_child_mb"]
            self.launcher = None
        return self.peak_child_mb

    def _fresh_dir(self) -> Path:
        d = self.first_dir if self.passes == 0 else self.last_dir
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        self.passes += 1
        return d

    def op(self) -> dict:
        d = self._fresh_dir()
        results = []
        for argv in readme_commands(self.seed, d):
            results.append(self._run([sys.executable, "-m", "mosk", *argv], d))
        self.exit_codes.append([r[0] for r in results])
        return {"dir": d, "results": results}

    def op_in_process(self) -> dict:
        """The same pass through ``mosk.cli.main`` in this process."""
        d = self._fresh_dir()
        results = []
        for argv in readme_commands(self.seed, d):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            results.append((code, out.getvalue(), err.getvalue()))
        self.exit_codes.append([r[0] for r in results])
        return {"dir": d, "results": results}

    def check(self, out: dict) -> list:
        p = []
        for codes in self.exit_codes:
            _expect(p, "CLI exit codes", codes, README_EXIT_CODES)
        for _, _, stderr in out["results"]:
            if "Traceback" in stderr:
                p.append(f"CLI traceback: {stderr.strip().splitlines()[-1]}")
        d = out["dir"]
        n_entries = len(gallery.names())
        if f"gallery: {n_entries} entries" not in out["results"][0][1]:
            p.append("gallery listing does not report every entry")
        cert = json.loads((d / "cert.json").read_text())["certificate"]
        _expect(p, "rotator certify verdict", cert["verdict"], REFUTED)
        if cert["witness"] is None:
            p.append("rotator certificate has no witness")
        else:
            x, xs, y, ys = (np.asarray(v) for v in cert["witness"])
            if not abs(float(np.dot(x - y, xs - ys))) <= 1e-9:
                p.append("rotator witness product is not 0")
        if "period2=True" not in out["results"][2][1]:
            p.append("PR normal-cone-zero+zero not flagged period-2")
        _, _, rows = read_trace_csv(d / "trace.csv")
        if [float(r[1]) for r in rows] != [(-1.0) ** n for n in range(51)]:
            p.append("trace.csv iterates are not (-1)^n")
        _, header, rows = read_trace_csv(d / "shift.csv")
        if len(rows) != 258 or header[-8:] != [f"probe_{k}" for k in range(8)]:
            p.append("shift.csv shape")
        with open(d / "w.csv", newline="", encoding="utf-8") as fh:
            fh.readline()
            rows = list(csv.reader(fh))[1:]
        if [float(r[5]) for r in rows] != [4.0 ** (-n) for n in range(1, 21)]:
            p.append("staircase witness gaps are not 4^-n")
        rep = json.loads((d / "sd.json").read_text())["report"]
        got = tuple(rep["verdicts"][k] for k in (
            "uniformly-monotone", "inverse-uniformly-monotone", "reflected-resolvent-cld"))
        _expect(p, "cubic selfdual verdicts", got, (CONSISTENT, REFUTED, REFUTED))
        _expect(p, "cubic selfdual agrees", rep["agrees_with_selfduality"], True)
        if self.passes > 1 and d != self.first_dir:
            for name in README_FILES:
                if (d / name).read_bytes() != (self.first_dir / name).read_bytes():
                    p.append(f"{name} differs between passes")
        return p


WORKLOADS = {
    "certify-closed": CertifyClosed,
    "rootfound": Rootfound,
    "split-trace": SplitTrace,
    "cli-readme": CliReadme,
}
