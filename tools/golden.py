"""Run the standard golden set of this checkout and record every output.

Usage: ``python tools/golden.py OUTDIR``

Each run is a fresh process of this checkout's ``src`` (``python -m mosk
...`` or a demo script) in its own directory ``OUTDIR/<run>``, which then
holds the run's ``stdout``, ``stderr``, ``exit`` code and every file it
wrote.  Run it on two checkouts and compare them with ``diff -r``: a
refactor that keeps its outputs leaves no difference.

The set: the six README commands, every certifier class on every gallery
entry (``--samples 5000 --seed 3``), the ``selfdual`` runs, the fail-closed
runs on a ``+-1e200`` box, the splitting runs, the one-million-pair 8-d
``certify``, the five demos and three library runs of ``check_lemma_3_5``,
the one class statistic no command reaches.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ENTRIES = ("cubic", "normal-cone-zero", "zero", "identity", "rotator", "staircase",
           "clamp-sin-map", "clamp-sin-op", "quartic-mixed", "cone-subdiff", "shift")
CLASSES = ("nonexpansive", "banach-contraction", "firmly-nonexpansive", "averaged",
           "contraction-large-distances", "uniformly-monotone", "strongly-monotone",
           "strongly-nonexpansive", "super-strongly-nonexpansive", "coercive",
           "growth-condition")
OPERATORS = ("cubic", "normal-cone-zero", "zero", "identity", "rotator", "staircase",
             "clamp-sin-op", "quartic-mixed", "shift")
SMALL = ("--samples", "5000", "--seed", "3")
WIDE = "--box=-1e200,1e200"


def _split(algo, a, b, *more):
    return ["split", "--algo", algo, "--opA", a, "--opB", b, *more, "--out", "trace.csv"]


README = {
    "readme-gallery": ["gallery"],
    "readme-certify": ["certify", "--op", "rotator", "--class", "uniformly-monotone",
                       "--t", "0.5,1,2", "--samples", "100000", "--seed", "42",
                       "--out", "cert.json"],
    "readme-split-oscillation": ["split", "--algo", "pr", "--opA", "normal-cone-zero",
                                 "--opB", "zero", "--x0", "1", "--max-iter", "50",
                                 "--out", "trace.csv"],
    "readme-split-shift": ["split", "--algo", "pr", "--opA", "normal-cone-zero", "--opB",
                           "shift", "--dim", "256", "--x0", "e1", "--probes", "8",
                           "--out", "shift.csv"],
    "readme-witness": ["witness", "--example", "staircase-ssne", "--n", "20", "--out", "w.csv"],
    "readme-selfdual": ["selfdual", "--op", "cubic", "--box=-1000,1000", "--out", "sd.json"],
}

MATRIX = {f"certify-{op}-{klass}": ["certify", "--op", op, "--class", klass, *SMALL,
                                    "--out", "cert.json"]
          for op in ENTRIES for klass in CLASSES}

SELFDUAL = {f"selfdual-{op}": ["selfdual", "--op", op, *SMALL, "--out", "sd.json"]
            for op in OPERATORS}
SELFDUAL["selfdual-cubic-t-eps"] = ["selfdual", "--op", "cubic", "--t", "0.5,1",
                                    "--eps", "0.25,2,8", *SMALL, "--out", "sd.json"]

WIDE_BOX = {f"wide-cubic-{klass}": ["certify", "--op", "cubic", "--class", klass, WIDE,
                                    *SMALL, "--out", "cert.json"] for klass in CLASSES}
WIDE_BOX["wide-selfdual-cubic"] = ["selfdual", "--op", "cubic", WIDE, *SMALL, "--out", "sd.json"]

SPLIT = {
    "split-pr-cubic-zero": _split("pr", "cubic", "zero", "--x0", "3", "--max-iter", "5000",
                                  "--probes", "1"),
    "split-dr-cubic-identity": _split("dr", "cubic", "identity", "--x0", "10"),
    "split-dr-clamp-quartic": _split("dr", "clamp-sin-op", "quartic-mixed", "--x0", "7",
                                     "--max-iter", "2000"),
    "split-dr-cone-shift-64": _split("dr", "normal-cone-zero", "shift", "--dim", "64",
                                     "--x0", "e1", "--probes", "4"),
    "split-dr-identity-tol0": _split("dr", "identity", "identity", "--x0", "5", "--tol", "0"),
    "split-pr-quartic-cubic-tol0": _split("pr", "quartic-mixed", "cubic", "--x0", "4",
                                          "--tol", "0", "--max-iter", "3000"),
    "split-fb-clamp-large-x0": _split("fb", "identity", "clamp-sin-op", "--gamma", "0.7",
                                      "--x0=551371380.490387", "--max-iter", "60"),
    # exact cycles: period 2 from the start, and period 4 after a transient
    "split-pr-cone-zero-cycle": _split("pr", "normal-cone-zero", "zero", "--x0", "1",
                                       "--max-iter", "100000"),
    "split-pr-rotator-zero-cycle": _split("pr", "rotator", "zero", "--dim", "2",
                                          "--x0=0.3,-1.7", "--max-iter", "1001"),
}
# the piecewise oracles' breakpoints: clamp-sin-op's series range and
# BREAK_INNER, and quartic-mixed's -(1 + 8 gamma) = -5 at gamma 0.5
SPLIT["split-fb-clamp-series-x0"] = _split("fb", "identity", "clamp-sin-op", "--gamma", "0.5",
                                           "--x0", "0.001")
SPLIT["split-fb-clamp-break-inner-x0"] = _split("fb", "identity", "clamp-sin-op", "--gamma",
                                                "0.5", "--x0", "0.2853981633974483")
SPLIT["split-fb-quartic-cross-low-break"] = _split("fb", "identity", "quartic-mixed", "--gamma",
                                                   "0.5", "--x0=-12")
for _b in ("cubic", "quartic-mixed", "clamp-sin-op"):
    for _g in ("0.5", "1.5"):
        SPLIT[f"split-fb-identity-{_b}-{_g}"] = _split("fb", "identity", _b, "--gamma", _g,
                                                       "--x0", "6")

MILLION = {"certify-shift-8-million": ["certify", "--op", "shift", "--dim", "8", "--class",
                                       "nonexpansive", "--samples", "1000000", "--seed", "1"]}

# check_lemma_3_5 of operator argv[1] at dimension argv[2] against the
# closed-form modulus argv[3]: the certificate's JSON dict, its witness value
# and, when it has a witness, that witness replayed on J_A
_LEMMA_3_5 = """\
import json, sys
from mosk import certify, gallery
op, dim, phi = sys.argv[1], int(sys.argv[2]), sys.argv[3]
A = gallery.operator(op, dim)
cfg = certify.SamplerConfig.symmetric(3, 5000, dim, 10.0)
cert = certify.check_lemma_3_5(A, certify.Modulus(name=phi), cfg)
print(json.dumps(cert.to_json_dict(), indent=2))
print(repr(cert.witness_value))
if cert.witness is not None:
    print(repr(certify.replay(cert, A.resolvent)))
"""
LEMMA_3_5 = {"lemma-3-5-rotator-t2": ("rotator", "2", "t^2"),
             "lemma-3-5-cubic-t4": ("cubic", "1", "t^4/4"),
             "lemma-3-5-identity-3": ("identity", "3", "t^2")}

# runs the demo at argv[1] as if it lay in the working directory, so that
# what it writes next to itself lands in the run's directory
_RUN_COPY = ("import pathlib, sys; p = sys.argv[1]; "
             "exec(compile(pathlib.Path(p).read_text(), p, 'exec'), "
             "{'__name__': '__main__', '__file__': 'demo.py'})")

# name -> argv of ``mosk``
RUNS = {**README, **MATRIX, **SELFDUAL, **WIDE_BOX, **SPLIT, **MILLION}
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0*.py"))


def _record(where: Path, cmd, env) -> None:
    where.mkdir(parents=True)
    proc = subprocess.run(cmd, cwd=where, env=env, capture_output=True, check=False)
    # the run's directory differs between checkouts; it is written as "."
    here = str(where).encode()
    (where / "stdout").write_bytes(proc.stdout.replace(here, b"."))
    (where / "stderr").write_bytes(proc.stderr.replace(here, b"."))
    (where / "exit").write_text(f"{proc.returncode}\n")


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("MOSK_SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def record(out: Path, runs: dict) -> None:
    """Run ``mosk`` with each argv of ``runs`` (name -> argv) in a fresh
    process, in the new directory ``out/<name>``."""
    env = _env()
    for name, args in runs.items():
        _record(Path(out) / name, [sys.executable, "-m", "mosk", *args], env)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    out = Path(argv[0]).resolve()
    if out.exists():
        print(f"{out} exists; give a new directory", file=sys.stderr)
        return 1
    env = _env()
    record(out, RUNS)
    for name, args in LEMMA_3_5.items():
        _record(out / name, [sys.executable, "-c", _LEMMA_3_5, *args], env)
    for demo in DEMOS:
        _record(out / f"demo-{demo[:-3]}",
                [sys.executable, "-W", "error", "-c", _RUN_COPY, str(ROOT / "demos" / demo)], env)
    print(f"{len(RUNS) + len(LEMMA_3_5) + len(DEMOS)} runs recorded under {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
