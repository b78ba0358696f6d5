"""Benchmark of mosk: four workloads, end-to-end metrics, a traced mode.

Run from the repository root:

    python3 perfbench/run.py --workload certify-closed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The line before it (``host: {...}``) records the numpy version and the time
of a fixed reference kernel, so host-speed drift shows beside the figures.
Full results, operation times and traced spans go to ``perfbench_out/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench_out"
SETUP_PROBES = 5
IMPORT_PROBES = 3
MIN_TRACE_PAIRS = 3


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Put this checkout's ``src`` first on the path and import mosk from it."""
    src = ROOT / "src"
    if not (src / "mosk" / "__init__.py").is_file():
        fail(f"no mosk sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import mosk

    if Path(mosk.__file__).resolve().parent != (src / "mosk").resolve():
        fail(f"imported mosk from {mosk.__file__}, not from {src}")


def reference_kernel_s() -> float:
    """Best of five runs of a fixed numpy kernel that does not use mosk, in
    a process of its own so that its memory stays out of ``peak_rss_mb``."""
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--ref-kernel"],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return float(out)


def _reference_kernel_here() -> float:
    """The kernel itself, run by ``--ref-kernel``."""
    import numpy as np

    a = np.random.default_rng(12345).standard_normal(1 << 19)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        np.sort(np.sin(a) * np.exp(-np.abs(a)))
        best = min(best, time.perf_counter() - t0)
    return best


def tail(times: list) -> float:
    """The 75th percentile on every workload, whatever the run's length: the
    highest percentile with ten operations beyond it in a 40-operation run."""
    return statistics.quantiles(times, n=4)[2] if len(times) > 1 else times[0]


def timed_loop(op, seconds: float, min_ops: int = 1):
    """Run whole operations until ``seconds`` have passed."""
    times, failed, last, errors = [], 0, None, []
    start = time.perf_counter()
    while len(times) < min_ops or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            last = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            errors.append(repr(exc))
        times.append(time.perf_counter() - t0)
    return times, failed, last, errors, time.perf_counter() - start


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from launching a fresh benchmark process to the moment it
    would start its first timed operation (imports, inputs, warm-up)."""
    from workloads import child_env

    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            fail(f"setup probe for {workload} failed")
        samples.append(elapsed)
    return statistics.median(samples)


def import_seconds() -> float:
    """Median wall time of ``python -c "import mosk"``."""
    from workloads import child_env

    samples = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mosk"], env=child_env(), check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def build(workload: str, seed: int, workdir: Path):
    from workloads import WORKLOADS

    workdir.mkdir()
    return WORKLOADS[workload](seed, workdir)


def close(state):
    """Stop the workload's helper process, if it has one; return what its
    ``close`` reports (cli-readme: the peak of its children, in MB)."""
    return state.close() if hasattr(state, "close") else None


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_plain(workload: str, seed: int, seconds: float, tmp: Path) -> dict:
    """End-to-end metrics, tracing off."""
    state = build(workload, seed, tmp / "plain")
    try:
        first = state.op()  # warm-up: caches, lazy set-up
        times, failed, last, errors, wall = timed_loop(state.op, seconds)
    finally:
        peak_mb = close(state)
    # cli-readme: the largest mosk child, as its launcher saw it; otherwise
    # this process, where nothing but imports, inputs and mosk has run yet.
    if peak_mb is None:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = setup_seconds(workload, seed)
    problems = state.check(first)
    if last is not None:
        problems += state.check(last)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(times) / wall, "1/s"),
        "op_p50_s": metric(statistics.median(times), "s"),
        "op_tail_s": metric(tail(times), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    return {"problems": problems, "errors": errors, "attempted": len(times), "failed": failed,
            "metrics": metrics, "op_times": times}


def run_traced(workload: str, seed: int, seconds: float, tmp: Path,
               min_pairs: int = MIN_TRACE_PAIRS) -> dict:
    """Per-layer metrics: untraced and traced operations alternate; the
    per-layer figures are per traced operation."""
    from tracing import COUNT_METRICS, SPAN_METRICS, Tracer

    plain = build(workload, seed, tmp / "plain")
    tracer = Tracer()
    tracer.install()
    try:
        traced = build(workload, seed, tmp / "traced")
    finally:
        tracer.uninstall()
    try:
        first = plain.op()  # warm-up; for cli-readme the README pass in fresh processes
    finally:
        close(plain)
    in_process = workload == "cli-readme"
    op_plain = plain.op_in_process if in_process else plain.op
    op_traced = traced.op_in_process if in_process else traced.op

    def run_traced_op():
        tracer.install()
        try:
            with tracer.op_span():
                return op_traced()
        finally:
            tracer.uninstall()

    times = {"plain": [], "traced": []}
    per_op_counts, failed, errors, last = [], 0, [], None
    start = time.perf_counter()
    while len(times["traced"]) < min_pairs or time.perf_counter() - start < seconds:
        for kind, op in (("plain", op_plain), ("traced", run_traced_op)):
            before = dict(tracer.counts)
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                errors.append(repr(exc))
                out = None
            times[kind].append(time.perf_counter() - t0)
            if kind == "traced":
                per_op_counts.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()})
                last = out if out is not None else last
    problems = plain.check(first)
    if last is not None:
        problems += traced.check(last)
    if any(c != per_op_counts[0] for c in per_op_counts):
        problems.append("per-layer counts differ between identical operations")
    n = len(times["traced"])
    metrics = {k: metric(per_op_counts[0].get(k, 0), "bytes" if k.endswith(".bytes") else "count")
               for k in COUNT_METRICS}
    metrics.update({k: metric(tracer.self_s.get(span, 0.0) / n, "s") for k, span in SPAN_METRICS.items()})
    metrics["cli.import_s"] = metric(import_seconds(), "s")
    p50_plain = statistics.median(times["plain"])
    p50_traced = statistics.median(times["traced"])
    metrics["trace.op_p50_s"] = metric(p50_traced, "s")
    metrics["trace.overhead_pct"] = metric(100.0 * (p50_traced / p50_plain - 1.0), "%")
    tracer.dump(OUT / f"spans-{workload}-seed{seed}.json")
    return {"problems": problems, "errors": errors, "attempted": 2 * n, "failed": failed,
            "metrics": metrics, "op_times": times}


def host_info(ref_before: float) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "ref_kernel_s_before": ref_before,
        "ref_kernel_s_after": reference_kernel_s(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool, **kw) -> dict:
    ref_before = reference_kernel_s()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as tmp:
        res = (run_traced if trace else run_plain)(workload, seed, seconds, Path(tmp), **kw)
    res["host"] = host_info(ref_before)
    return res


def report(workload: str, seed: int, trace: bool, res: dict) -> dict:
    for line in res["problems"]:
        print(f"perfbench: {workload}: check failed: {line}", file=sys.stderr)
    for line in sorted(set(res["errors"])):
        print(f"perfbench: {workload}: operation failed: {line}", file=sys.stderr)
    result = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, **result, "host": res["host"],
                   "op_times": res["op_times"]}, fh, indent=1)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one traced operation per workload, every check on")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--ref-kernel", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    # One BLAS thread, here and in every child: otherwise numpy's thread pool
    # makes timings depend on whether the second core happens to be free.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.ref_kernel:
        print(repr(_reference_kernel_here()))
        return 0
    import_program()
    from workloads import WORKLOADS

    if args.smoke:
        ok = True
        for name in WORKLOADS:
            res = run_one(name, args.seed, 0.0, True, min_pairs=1)
            result = report(name, args.seed, True, res)
            ok &= result["correct"] and result["failed"] == 0
            print(json.dumps({"workload": name, **result}))
        return 0 if ok else 1
    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_probe:
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as tmp:
            state = build(args.workload, args.seed, Path(tmp) / "probe")
            try:
                state.op()
                print("ready", flush=True)
            finally:
                close(state)
        return 0
    res = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(args.workload, args.seed, bool(args.trace), res)
    print("host: " + json.dumps(res["host"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
