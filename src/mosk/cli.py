"""Command-line front end.

Commands: ``gallery`` (list registry entries), ``certify`` (class
certification with JSON output), ``split`` (PR/DR/FB runs with CSV traces),
``witness`` (witness-sequence dumps), ``selfdual`` (the verdict triptych).
``certify --class`` runs a row of the class table ``mosk.certify.CLASSES``
on the target it names, built from the gallery entry.

Exit codes: 0 success, 1 usage error, 2 a class was refuted (certify) or a
run did not converge under ``--expect-converge`` (split), 3 numerical
failure.  ``MOSK_SEED`` provides the default seed.  Identical configuration
(including the seed) produces byte-identical JSON/CSV output; every emitted
file embeds the resolved configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Optional

import numpy as np

from . import certify as cert
from . import gallery, split
# minty_sample is not used here; it stays importable as cli.minty_sample
# because tools that trace the library patch it on this module by name
from .core import minty_sample, resolvent_map, reflected_map  # noqa: F401
from .exceptions import (
    DimensionMismatch,
    DomainError,
    MoskError,
    StepSizeOutOfRange,
    UnsupportedOperator,
)
from .gallery import cone_subdiff_witnesses, staircase_witnesses

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUTED = 2
EXIT_NUMERICAL = 3

# default --t / --eps probes
PROBES = [0.5, 1.0, 2.0, 4.0]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract
    # reserves 2 for refutations, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _float_list(text: str):
    try:
        values = [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    return values


def _box(text: str):
    bounds = _float_list(text)
    if len(bounds) != 2:
        raise argparse.ArgumentTypeError(f"need two comma-separated floats lo,hi: {text!r}")
    return bounds


def _parse_x0(text: str, dim: int) -> np.ndarray:
    if text.startswith("e") and text[1:].isdigit():
        k = int(text[1:])
        if not 1 <= k <= dim:
            raise DomainError(f"basis index e{k} outside 1..{dim}")
        x = np.zeros(dim)
        x[k - 1] = 1.0
        return x
    try:
        vals = np.array(_float_list(text), dtype=float)
    except argparse.ArgumentTypeError as exc:
        raise DomainError(f"--x0: {exc}") from None
    if vals.size == 1 and dim > 1:
        return np.full(dim, float(vals[0]))
    if vals.size != dim:
        raise DomainError(f"x0 has {vals.size} coordinates, operator dim is {dim}")
    return vals


def _default_seed() -> int:
    text = os.environ.get("MOSK_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"MOSK_SEED must be an integer, got {text!r}") from None


def _write_json(path: Optional[str], payload: dict):
    """Write the payload; returns the stream the one-line summary should use
    (stderr when the JSON itself went to stdout)."""
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return sys.stdout
    print(text)
    return sys.stderr


def _sampler(args, dim: int) -> cert.SamplerConfig:
    lo, hi = args.box
    return cert.SamplerConfig(
        seed=args.seed,
        sample_count=args.samples,
        box_low=np.full(dim, lo),
        box_high=np.full(dim, hi),
    )


def cmd_gallery(args) -> int:
    rows = []
    for name in gallery.names():
        e = gallery.entry(name)
        rows.append(
            {
                "name": name,
                "kinds": list(e.kinds),
                "dim": ("parametric" if e.parametric_dim else e.default_dim),
                "summary": e.summary,
            }
        )
    if args.json:
        _write_json(args.json, {"schema": 1, "command": "gallery", "entries": rows})
    else:
        for row in rows:
            kinds = ",".join(row["kinds"])
            print(f"{row['name']:<18} {str(row['dim']):<10} {kinds:<26} {row['summary']}")
    print(f"gallery: {len(rows)} entries")
    return EXIT_OK


def _target(kind: str, name: str, dim: Optional[int]):
    """What a certifier runs on.  ``map``: the entry's map, else its
    operator's reflected resolvent; ``resolvent``: the operator's resolvent,
    else the map; ``operator``: the operator; ``graph``: the operator, or the
    witness generator of an entry that has no operator."""
    e = gallery.entry(name)
    if kind == "graph" and e.make_operator is None and e.make_witnesses is not None:
        return gallery.witnesses(name)
    if kind in ("operator", "graph"):
        return gallery.operator(name, dim)
    if kind == "resolvent" and e.make_operator is not None:
        return resolvent_map(gallery.operator(name, dim))
    if e.make_map is not None:
        return gallery.mapping(name, dim)
    return reflected_map(gallery.operator(name, dim))


def _own_families(name: str) -> list:
    """The entry's own witness family, probed beside the scaled families."""
    e = gallery.entry(name)
    return [gallery.witnesses(name)] if e.make_map and e.make_witnesses else []


def _config(args, **extra) -> dict:
    """The resolved configuration of a certify or selfdual run."""
    return {"op": args.op, "dim": args.dim, "seed": args.seed, "samples": args.samples,
            "box": list(args.box), "t": args.t, "eps": args.eps, **extra}


def cmd_certify(args) -> int:
    spec = cert.CLASSES[args.klass]
    target = _target(spec.target, args.op, args.dim)
    certificate = spec.run(target, _sampler(args, gallery.dimension(args.op, args.dim)),
                           alpha=args.alpha, t=args.t or PROBES,
                           eps=args.eps or args.t or PROBES, families=_own_families(args.op))
    payload = {
        "schema": 1,
        "command": "certify",
        "config": _config(args, alpha=args.alpha, **{"class": args.klass}),
        "certificate": certificate.to_json_dict(),
    }
    e = gallery.entry(args.op)
    if e.make_operator is not None:
        payload["declaration"] = cert.compare_with_declaration(
            gallery.operator(args.op, args.dim), certificate
        )
    stream = _write_json(args.out, payload)
    print(f"certify {args.op} {args.klass}: {certificate.verdict}", file=stream)
    return EXIT_REFUTED if certificate.verdict == cert.REFUTED else EXIT_OK


def cmd_split(args) -> int:
    if args.probes < 0:
        raise DomainError(f"--probes must be >= 0, got {args.probes}")
    A = gallery.operator(args.opA, args.dim)
    B = gallery.operator(args.opB, args.dim)
    stop = split.StoppingRule(max_iter=args.max_iter, tol_residual=args.tol)
    x0 = _parse_x0(args.x0, A.dim)
    probes = list(range(min(args.probes, A.dim))) if args.probes else None
    if args.algo == "pr":
        trace = split.peaceman_rachford(A, B, x0, stop, probe_coords=probes)
    elif args.algo == "dr":
        trace = split.douglas_rachford(A, B, x0, stop, probe_coords=probes)
    else:
        if args.gamma is None:
            raise DomainError("--gamma is required for the fb algorithm")
        trace = split.forward_backward(A, B, args.gamma, x0, stop, probe_coords=probes)
    config = {
        "schema": 1,
        "command": "split",
        "algo": args.algo,
        "opA": args.opA,
        "opB": args.opB,
        "dim": args.dim,
        "gamma": args.gamma,
        "x0": args.x0,
        "max_iter": args.max_iter,
        "tol": args.tol,
        "probes": args.probes,
    }
    if args.out:
        trace.write_csv(args.out, config=config)
    final_res = trace.residuals[-1] if len(trace.residuals) else float("nan")
    print(
        f"split {args.algo}: termination={trace.termination} steps={trace.n_steps} "
        f"final_residual={final_res:.3e} period2={trace.period2}"
    )
    if args.expect_converge and trace.termination != split.TERM_CONVERGED:
        return EXIT_REFUTED
    return EXIT_OK


def cmd_witness(args) -> int:
    # the staircase's segment data ends at its cap
    cap = gallery.default_staircase().cap if args.example == "staircase-ssne" else np.inf
    if not 1 <= args.n <= cap:
        raise DomainError(f"--n must lie in 1..{cap}, got {args.n}")
    rows = []
    if args.example == "staircase-ssne":
        header = ["n", "x_1", "x_2", "y_1", "y_2", "d_n", "g_n"]
        for n in range(1, args.n + 1):
            x, y, d, g = staircase_witnesses(n)
            rows.append([n, x[0], x[1], y[0], y[1], d, g])
    elif args.example == "cone-subdiff-growth":
        header = ["n", "x_1", "x_2", "y_1", "y_2", "xstar_1", "xstar_2", "ratio", "coercivity_probe"]
        for n in range(1, args.n + 1):
            first, second = cone_subdiff_witnesses(n)
            dist = float(np.linalg.norm(first.x - second.x))
            ratio = float(np.linalg.norm(first.xstar - second.xstar)) / dist
            probe = float(np.dot(first.xstar, first.x) / np.dot(first.x, first.x))
            rows.append(
                [n, *first.x, *second.x, *first.xstar, ratio, probe]
            )
    else:
        raise DomainError(f"unknown witness example {args.example!r}")
    config = {"schema": 1, "command": "witness", "example": args.example, "n": args.n}
    out = args.out or f"{args.example}.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [row[0]] + [f"{float(v):.17g}" for v in row[1:]]
            )
    print(f"witness {args.example}: wrote {len(rows)} rows to {out}")
    return EXIT_OK


def cmd_selfdual(args) -> int:
    A = gallery.operator(args.op, args.dim)
    scfg = _sampler(args, A.dim)
    report = cert.check_selfdual(A, scfg, t_list=args.t or PROBES, eps_list=args.eps or PROBES)
    payload = {
        "schema": 1,
        "command": "selfdual",
        "config": _config(args),
        "report": report.to_json_dict(),
    }
    stream = _write_json(args.out, payload)
    v = report.verdicts
    print(
        f"selfdual {args.op}: A={v[0]} A^-1={v[1]} R_A-cld={v[2]} "
        f"agrees={report.agrees}",
        file=stream,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mosk", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gallery", help="list registry entries")
    g.add_argument("--json", default=None, help="write the listing to a JSON file")
    g.set_defaults(func=cmd_gallery)

    # the options certify and selfdual share
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--op", required=True)
    run.add_argument("--dim", type=int, default=None)
    run.add_argument("--t", type=_float_list, default=None, help="shell radii, e.g. 0.5,1,2")
    run.add_argument("--eps", type=_float_list, default=None, help="CLD probes, e.g. 0.01,0.1,1")
    run.add_argument("--samples", type=int, default=100_000)
    run.add_argument("--seed", type=int, default=_default_seed())
    run.add_argument("--box", type=_box, default=[-50.0, 50.0])
    run.add_argument("--out", default=None)

    c = sub.add_parser("certify", parents=[run], help="run a class certifier")
    classes = [name for name, spec in cert.CLASSES.items() if spec.run is not None]
    c.add_argument("--class", dest="klass", required=True, choices=classes, metavar="CLASS",
                   help=", ".join(classes))
    c.add_argument("--alpha", type=float, default=0.5)
    c.set_defaults(func=cmd_certify)

    s = sub.add_parser("split", help="run a splitting iteration")
    s.add_argument("--algo", choices=("pr", "dr", "fb"), required=True)
    s.add_argument("--opA", required=True)
    s.add_argument("--opB", required=True)
    s.add_argument("--dim", type=int, default=None)
    s.add_argument("--gamma", type=float, default=None)
    s.add_argument("--x0", required=True, help="comma-separated coordinates or e<k>")
    s.add_argument("--max-iter", type=int, default=100_000)
    s.add_argument("--tol", type=float, default=1e-10)
    s.add_argument("--probes", type=int, default=0, help="record the first k coordinates")
    s.add_argument("--out", default=None)
    s.add_argument("--expect-converge", action="store_true")
    s.set_defaults(func=cmd_split)

    w = sub.add_parser("witness", help="dump a witness sequence as CSV")
    w.add_argument("--example", required=True,
                   choices=("staircase-ssne", "cone-subdiff-growth"))
    w.add_argument("--n", type=int, default=20)
    w.add_argument("--out", default=None)
    w.set_defaults(func=cmd_witness)

    d = sub.add_parser("selfdual", parents=[run], help="self-duality verdict triptych")
    d.set_defaults(func=cmd_selfdual)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # the certifiers fail closed on non-finite statistics, so numpy's
        # floating-point warnings would only repeat that failure on stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            code = args.func(args)
        # a closed pipe must fail here, where the handler below catches it,
        # and not in the flush at interpreter exit
        sys.stdout.flush()
        return code
    except SystemExit as exc:
        return int(exc.code or 0)
    except BrokenPipeError:
        # the reader went away (``mosk ... | head``); point stdout at devnull
        # so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except (StepSizeOutOfRange, UnsupportedOperator, DomainError, DimensionMismatch) as exc:
        # configuration-level failures, such as two operators of different
        # dimensions, are usage errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MoskError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
