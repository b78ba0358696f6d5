import ast
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mosk import certify as cert
from mosk import cli, core, gallery, split
from mosk.cli import main


def test_gallery_listing(capsys):
    assert main(["gallery"]) == 0
    out = capsys.readouterr().out
    for name in ("cubic", "staircase", "clamp-sin-op", "shift"):
        assert name in out


def test_gallery_json(tmp_path):
    out = tmp_path / "gallery.json"
    assert main(["gallery", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert any(e["name"] == "rotator" for e in payload["entries"])


def test_certify_rotator_uniformly_monotone_exit2(tmp_path):
    out = tmp_path / "cert.json"
    code = main(
        [
            "certify",
            "--op",
            "rotator",
            "--class",
            "uniformly-monotone",
            "--t",
            "0.5,1,2",
            "--samples",
            "100000",
            "--seed",
            "42",
            "--out",
            str(out),
        ]
    )
    assert code == 2
    payload = json.loads(out.read_text())
    cert = payload["certificate"]
    assert payload["schema"] == 1
    assert cert["verdict"] == "refuted"
    assert all(abs(row["value"]) <= 1e-12 for row in cert["estimates"])
    assert cert["seed"] == 42 and cert["samples"] == 100000
    assert payload["config"]["class"] == "uniformly-monotone"


def test_certify_consistent_exit0(tmp_path):
    out = tmp_path / "cert.json"
    code = main(
        [
            "certify", "--op", "clamp-sin-map", "--class", "contraction-large-distances",
            "--eps", "1,5", "--samples", "50000", "--seed", "7", "--out", str(out),
        ]
    )
    assert code == 0
    cert = json.loads(out.read_text())["certificate"]
    assert cert["verdict"] == "consistent"


def test_certify_deterministic_outputs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = [
        "certify", "--op", "cubic", "--class", "uniformly-monotone",
        "--t", "0.5,1", "--samples", "20000", "--seed", "5",
    ]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_split_pr_oscillation(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(
        [
            "split", "--algo", "pr", "--opA", "normal-cone-zero", "--opB", "zero",
            "--x0", "1", "--max-iter", "50", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# ")
    rows = list(csv.reader(lines[1:]))
    header, data = rows[0], rows[1:]
    xcol = header.index("x_0")
    vals = [float(r[xcol]) for r in data]
    assert vals[:4] == [1.0, -1.0, 1.0, -1.0]


def test_split_expect_converge_exit2():
    code = main(
        [
            "split", "--algo", "pr", "--opA", "normal-cone-zero", "--opB", "zero",
            "--x0", "1", "--max-iter", "50", "--expect-converge",
        ]
    )
    assert code == 2


def test_split_fb_requires_gamma():
    code = main(
        ["split", "--algo", "fb", "--opA", "identity", "--opB", "cubic", "--x0", "5"]
    )
    assert code == 1


def test_split_fb_root_found_resolvent_at_a_large_x0_converges(capsys):
    # J of 0.7 * clamp-sin-op is root-found; at 5.5e8 one ulp of x0 exceeds
    # the root finder's absolute tolerance, so it accepts at rounding level
    code = main(["split", "--algo", "fb", "--opA", "identity", "--opB", "clamp-sin-op",
                 "--gamma", "0.7", "--x0=551371380.490387", "--max-iter", "60"])
    assert code == 0
    assert "termination=converged" in capsys.readouterr().out


def test_split_fb_bad_gamma_is_usage_error():
    code = main(
        [
            "split", "--algo", "fb", "--opA", "identity", "--opB", "cubic",
            "--x0", "5", "--gamma", "2.5",
        ]
    )
    assert code == 1


def test_split_shift_basis_x0(tmp_path):
    out = tmp_path / "shift.csv"
    code = main(
        [
            "split", "--algo", "pr", "--opA", "normal-cone-zero", "--opB", "shift",
            "--dim", "64", "--x0", "e1", "--max-iter", "100", "--probes", "4",
            "--out", str(out), "--expect-converge",
        ]
    )
    assert code == 0
    header = out.read_text().splitlines()[1].split(",")
    assert "probe_3" in header


def test_split_x0_forms(tmp_path):
    zero = ["split", "--algo", "pr", "--opA", "zero", "--opB", "zero"]
    # a basis index beyond the dimension, and a coordinate count that is not it
    assert main([*zero, "--dim", "2", "--x0", "e3"]) == 1
    assert main([*zero, "--dim", "2", "--x0", "1,2,3"]) == 1
    # one value fills every coordinate
    out = tmp_path / "x0.csv"
    assert main([*zero, "--dim", "4", "--x0", "2", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    assert [float(rows[0][f"x_{i}"]) for i in range(4)] == [2.0] * 4


def test_witness_staircase_csv(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["witness", "--example", "staircase-ssne", "--n", "20", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    rows = list(csv.reader(lines[1:]))
    header, data = rows[0], rows[1:]
    dcol = header.index("d_n")
    assert len(data) == 20
    for i, row in enumerate(data, start=1):
        assert float(row[dcol]) == 4.0 ** (-i)


def test_witness_cone_csv(tmp_path):
    out = tmp_path / "cone.csv"
    assert main(["witness", "--example", "cone-subdiff-growth", "--n", "5", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()[1:]))
    header, data = rows[0], rows[1:]
    assert float(data[0][header.index("ratio")]) == 0.0
    assert float(data[0][header.index("coercivity_probe")]) == 2.0


def _reference_witness_csv(example, n, path):
    """The per-row ``csv.writer`` body of ``cmd_witness`` that the shared
    trace writer replaced; its output is the byte format witness dumps keep."""
    rows = []
    if example == "staircase-ssne":
        header = ["n", "x_1", "x_2", "y_1", "y_2", "d_n", "g_n"]
        for k in range(1, n + 1):
            x, y, d, g = gallery.staircase_witnesses(k)
            rows.append([k, x[0], x[1], y[0], y[1], d, g])
    else:
        header = ["n", "x_1", "x_2", "y_1", "y_2", "xstar_1", "xstar_2", "ratio", "coercivity_probe"]
        for k in range(1, n + 1):
            first, second = gallery.cone_subdiff_witnesses(k)
            dist = float(np.linalg.norm(first.x - second.x))
            ratio = float(np.linalg.norm(first.xstar - second.xstar)) / dist
            probe = float(np.dot(first.xstar, first.x) / np.dot(first.x, first.x))
            rows.append([k, *first.x, *second.x, *first.xstar, ratio, probe])
    config = {"schema": 1, "command": "witness", "example": example, "n": n}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[0]] + [f"{float(v):.17g}" for v in row[1:]])


@pytest.mark.parametrize("example,n", [
    ("staircase-ssne", 1), ("staircase-ssne", 20), ("staircase-ssne", 40),
    ("cone-subdiff-growth", 1), ("cone-subdiff-growth", 5), ("cone-subdiff-growth", 200),
    # three row blocks, each formatted through the writer's repeated-value path
    ("cone-subdiff-growth", 1000),
])
def test_witness_csv_matches_csv_writer_reference(example, n, tmp_path, capsys):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    assert main(["witness", "--example", example, "--n", str(n), "--out", str(got)]) == 0
    _reference_witness_csv(example, n, want)
    assert got.read_bytes() == want.read_bytes()


def test_no_module_imports_csv():
    # one CSV writer, split._write_table, serves trace and witness files
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "csv" for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "csv", path.name


def test_tests_read_no_private_cli_name():
    # the CLI keeps no rule that the library lacks: no test reads a private
    # (underscored, not dunder) name of mosk.cli, under whatever alias
    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        tree = ast.parse(path.read_text())
        aliases, read = {"mosk.cli"}, []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "mosk":
                aliases |= {a.asname or a.name for a in node.names if a.name == "cli"}
            elif isinstance(node, ast.ImportFrom) and node.module == "mosk.cli":
                read += [a.name for a in node.names if private(a.name)]
            elif isinstance(node, ast.Import):
                aliases |= {a.asname for a in node.names if a.name == "mosk.cli" and a.asname}
        read += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and private(node.attr) and ast.unparse(node.value) in aliases]
        assert read == [], path.name


def test_unwritable_output_path_is_usage_error(tmp_path):
    missing = tmp_path / "missing"
    runs = [
        ["certify", "--op", "cubic", "--class", "nonexpansive", "--samples", "200",
         "--out", str(missing / "x.json")],
        ["split", "--algo", "pr", "--opA", "normal-cone-zero", "--opB", "zero", "--x0", "1",
         "--max-iter", "5", "--out", str(missing / "t.csv")],
        ["witness", "--example", "staircase-ssne", "--n", "3", "--out", str(missing / "w.csv")],
        ["gallery", "--json", str(missing / "g.json")],
        ["witness", "--example", "staircase-ssne", "--n", "3", "--out", str(tmp_path)],
    ]
    for argv in runs:
        proc = subprocess.run([sys.executable, "-m", "mosk", *argv],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, argv
        assert "Traceback" not in proc.stderr, argv
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), argv


def test_selfdual_command(tmp_path):
    out = tmp_path / "sd.json"
    code = main(
        [
            "selfdual", "--op", "cubic", "--samples", "50000", "--seed", "11",
            "--box=-1000,1000", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    v = payload["report"]["verdicts"]
    assert v["uniformly-monotone"] == "consistent"
    assert v["inverse-uniformly-monotone"] == "refuted"
    assert v["reflected-resolvent-cld"] == "refuted"
    assert payload["report"]["agrees_with_selfduality"] is True
    assert payload["config"]["t"] is None and payload["config"]["eps"] is None


def test_selfdual_config_records_probes(tmp_path):
    configs = []
    for t in ("0.5,1", "2,4"):
        out = tmp_path / f"sd{t}.json"
        argv = ["selfdual", "--op", "cubic", "--samples", "2000", "--t", t, "--out", str(out)]
        assert main(argv) == 0
        configs.append(json.loads(out.read_text())["config"])
    assert configs[0]["t"] == [0.5, 1.0] and configs[1]["t"] == [2.0, 4.0]
    assert configs[0] != configs[1]


def test_usage_errors_exit1(monkeypatch, capsys, tmp_path):
    assert main(["certify", "--op", "cubic"]) == 1  # missing --class
    assert main(["bogus-command"]) == 1
    # unknown gallery identifiers are configuration errors
    assert main(["split", "--algo", "pr", "--opA", "nope", "--opB", "zero", "--x0", "1"]) == 1
    assert main(["certify", "--op", "cubic", "--class", "mystery"]) == 1
    assert main(["certify", "--op", "cubic", "--class", "nonexpansive", "--box=5"]) == 1
    assert main(["selfdual", "--op", "cubic", "--box=5"]) == 1
    # an empty probe list would silently run the default probes
    assert main(["certify", "--op", "cubic", "--class", "uniformly-monotone", "--t", ","]) == 1
    # a negative probe count would silently record no probes
    assert main(["split", "--algo", "pr", "--opA", "zero", "--opB", "zero", "--x0", "1",
                 "--probes", "-3"]) == 1
    # two operators of different dimensions
    assert main(["split", "--algo", "dr", "--opA", "staircase", "--opB", "zero",
                 "--x0", "3,1"]) == 1
    # non-finite probes, boxes and tolerances
    assert main(["certify", "--op", "cubic", "--class", "uniformly-monotone", "--t", "nan"]) == 1
    assert main(["certify", "--op", "cubic", "--class", "uniformly-monotone", "--t", "inf"]) == 1
    assert main(["selfdual", "--op", "cubic", "--t", "nan"]) == 1
    assert main(["certify", "--op", "clamp-sin-map", "--class", "contraction-large-distances",
                 "--eps", "nan"]) == 1
    for box in ("--box=-inf,inf", "--box=-1e308,1e308"):
        assert main(["certify", "--op", "cubic", "--class", "nonexpansive", box]) == 1
    assert main(["split", "--algo", "pr", "--opA", "zero", "--opB", "zero", "--x0", "1",
                 "--tol", "nan"]) == 1
    # a float option the trace's config line echoes must be finite
    for option in ("--gamma=nan", "--tol=inf"):
        out = tmp_path / "s.csv"
        assert main(["split", "--algo", "pr", "--opA", "cubic", "--opB", "zero", "--x0", "3",
                     option, "--out", str(out)]) == 1
        assert not out.exists()
    # a negative seed, given or from the environment
    assert main(["certify", "--op", "cubic", "--class", "nonexpansive", "--samples", "100",
                 "--seed", "-1"]) == 1
    monkeypatch.setenv("MOSK_SEED", "-1")
    assert main(["certify", "--op", "cubic", "--class", "nonexpansive", "--samples", "100"]) == 1
    assert main(["selfdual", "--op", "cubic", "--samples", "100"]) == 1
    monkeypatch.setenv("MOSK_SEED", "abc")
    assert main(["gallery"]) == 1
    err = capsys.readouterr().err
    assert err.count("error: seed must be >= 0") == 3
    assert "error: argument --class" in err and err.count("error: argument --box") == 2
    assert "error: argument --t" in err and "error: --probes must be >= 0" in err
    assert "error: MOSK_SEED" in err and "Traceback" not in err
    assert "error: operators live in different dimensions" in err
    assert err.count("error: t_list must be positive and finite") == 3
    assert "error: eps_list must be positive and finite" in err
    assert err.count("error: need finite box bounds") == 2
    assert "error: tol_residual must be >= 0" in err
    assert "error: gamma must be finite" in err and "error: tol must be finite" in err
    assert "numerical failure" not in err


def test_a_run_too_large_for_memory_is_a_usage_error(monkeypatch, capsys):
    # numpy raises MemoryError when it cannot allocate an array; the failing
    # calls are patched in, since a real allocation that large may go ahead
    # on a host that overcommits memory, and exhaust it
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(split, "iterate", refuse)
    monkeypatch.setattr(cert, "pair_batches", refuse)
    assert main(["split", "--algo", "pr", "--opA", "normal-cone-zero", "--opB", "zero",
                 "--x0", "1", "--max-iter", "10"]) == 1
    assert main(["certify", "--op", "cubic", "--class", "coercive", "--samples", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: Unable to allocate 74.5 GiB for an array"] * 2


@pytest.mark.parametrize("option,label", [("--t=nan", "t_list"), ("--eps=inf", "eps_list"),
                                          ("--alpha=nan", "alpha")])
def test_non_finite_options_are_usage_errors_for_every_class(option, label, tmp_path, capsys):
    # the row does not read the value, but the config would echo it as a
    # non-JSON NaN or Infinity
    out = tmp_path / "c.json"
    code = main(["certify", "--op", "cubic", "--class", "nonexpansive", option,
                 "--samples", "200", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    assert err.startswith(f"error: {label} must be") and "Traceback" not in err


@pytest.mark.parametrize("dim", ["-1", "0"])
def test_dim_below_one_is_usage_error(dim, capsys):
    code = main(["certify", "--op", "identity", "--dim", dim, "--class", "nonexpansive",
                 "--samples", "100"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "error: dimension must be >= 1" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "example,n", [("staircase-ssne", "41"), ("staircase-ssne", "0"), ("cone-subdiff-growth", "-2")]
)
def test_witness_index_out_of_range_is_usage_error(example, n, tmp_path, capsys):
    out = tmp_path / "w.csv"
    code = main(["witness", "--example", example, "--n", n, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    assert err.startswith("error: --n must lie in 1..") and "Traceback" not in err


def test_x0_not_a_float_list_is_usage_error(capsys):
    for x0 in ("abc", ","):
        assert main(["split", "--algo", "pr", "--opA", "zero", "--opB", "zero", "--x0", x0]) == 1
    err = capsys.readouterr().err
    assert err.count("error: --x0") == 2 and "Traceback" not in err


@pytest.mark.parametrize(
    "klass", ["nonexpansive", "firmly-nonexpansive", "growth-condition", "coercive"]
)
def test_certify_nonfinite_statistic_exit3(klass, capsys):
    # arithmetic overflows on this box: the run fails instead of writing a
    # verdict with a NaN estimate.  Coercivity's products <x, x*> of the
    # cubic's graph stay finite up to a 1e200 box (the test below); they
    # overflow on a 1e300 one
    box = "1e300" if klass == "coercive" else "1e200"
    code = main(["certify", "--op", "cubic", "--class", klass, f"--box=-{box},{box}",
                 "--samples", "2000"])
    captured = capsys.readouterr()
    assert code == 3
    assert "NaN" not in captured.out and "numerical failure" in captured.err


def test_certify_coercive_on_a_1e200_box_is_a_verdict(capsys):
    # the box diagonal 2e200 sizes the radial shells without overflowing, so
    # every graph point is finite and the cubic's growth is measured
    code = main(["certify", "--op", "cubic", "--class", "coercive", "--box=-1e200,1e200",
                 "--samples", "2000"])
    cert = json.loads(capsys.readouterr().out)["certificate"]
    assert code == 0 and cert["verdict"] == "consistent"
    assert all(np.isfinite(row["value"]) for row in cert["estimates"])


def test_certify_numerical_failure_stderr_is_one_line():
    # numpy's overflow warnings would only repeat the failure
    proc = subprocess.run(
        [sys.executable, "-m", "mosk", "certify", "--op", "cubic", "--class", "nonexpansive",
         "--box=-1e200,1e200", "--samples", "2000"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:")


def test_selfdual_numerical_failure_stderr_is_one_line():
    # three probes share the draw; the first block's first probe fails first
    proc = subprocess.run(
        [sys.executable, "-m", "mosk", "selfdual", "--op", "cubic", "--box=-1e200,1e200",
         "--samples", "5000"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "numerical failure: non-finite uniformly-monotone distance on the sampled pairs"]


def test_closed_stdout_pipe_no_traceback():
    # `mosk certify ... | head -1`: 2000 probes make the JSON larger than a
    # pipe buffer, so the reader closes its end while mosk is still writing
    probes = ",".join(str(t) for t in range(1, 2001))
    proc = subprocess.Popen(
        [sys.executable, "-m", "mosk", "certify", "--op", "normal-cone-zero",
         "--class", "uniformly-monotone", "--t", probes, "--samples", "2000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline().strip() == "{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) in (0, 1)
    assert "Traceback" not in err and "BrokenPipeError" not in err


@pytest.mark.parametrize("klass", ["strongly-monotone", "coercive", "growth-condition"])
def test_certify_vacuous_graph_consistent(klass, capsys):
    # the graph of the normal cone of {0} is {0} x R^n: no pair has x != y
    code = main(["certify", "--op", "normal-cone-zero", "--class", klass, "--samples", "2000"])
    captured = capsys.readouterr()
    assert code == 0 and "Traceback" not in captured.err
    cert = json.loads(captured.out)["certificate"]
    assert cert["verdict"] == "consistent" and "vacuous" in cert["notes"]
    assert all(row["value"] is None for row in cert["estimates"])


def test_certify_sequential_classes(tmp_path):
    out = tmp_path / "ssne.json"
    code = main(
        [
            "certify", "--op", "staircase", "--class", "super-strongly-nonexpansive",
            "--samples", "1000", "--seed", "3", "--out", str(out),
        ]
    )
    assert code == 2  # the witness family refutes SSNE
    cert = json.loads(out.read_text())["certificate"]
    assert cert["verdict"] == "refuted"
    code = main(
        [
            "certify", "--op", "clamp-sin-map", "--class", "strongly-nonexpansive",
            "--samples", "1000", "--seed", "3",
        ]
    )
    assert code == 0


def _strict_json(text: str):
    """Parse JSON as RFC 8259 has it: NaN and Infinity are not values."""
    def refuse(constant):
        raise ValueError(f"not valid JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "klass", [name for name, spec in cert.CLASSES.items() if spec.run is not None]
)
def test_certify_matrix_witnesses_replay(klass, tmp_path, capsys):
    # the class on every gallery entry: the exit-code contract holds, the
    # file holds the certificate of the row the CLI runs, and a refutation
    # carries a witness that replays bit for bit
    spec = cert.CLASSES[klass]
    for op in gallery.names():
        out = tmp_path / f"{op}.json"
        code = main(["certify", "--op", op, "--class", klass, "--samples", "1000", "--seed", "3",
                     "--out", str(out)])
        assert code in (0, 1, 2) and "Traceback" not in capsys.readouterr().err, op
        if code == 1:  # the entry has no target of the row's kind
            continue
        target = gallery.target(op, spec.target)
        cfg = cert.SamplerConfig.symmetric(3, 1000, gallery.dimension(op, None), 50.0)
        c = spec.run(target, cfg, alpha=0.5, t=cert.PROBES, eps=cert.PROBES,
                     families=gallery.families(op))
        payload = _strict_json(out.read_text())["certificate"]
        assert payload == json.loads(json.dumps(c.to_json_dict())), op
        assert code == (2 if c.verdict == cert.REFUTED else 0), op
        if c.verdict == cert.REFUTED:
            assert c.witness is not None and payload["witness"] == c.witness, op
            assert cert.replay(c, target) == c.witness_value, op
            # and so does the certificate read back from the file
            loaded = cert.ClassCertificate(
                class_name=payload["class"], params=payload["params"],
                estimates=payload["estimates"], verdict=payload["verdict"],
                witness=payload["witness"], witness_value=None, seed=payload["seed"],
                sample_count=payload["samples"], notes=payload["notes"],
            )
            assert cert.replay(loaded, target) == c.witness_value, op


def test_certify_coercive_and_growth(tmp_path):
    assert main(
        ["certify", "--op", "cone-subdiff", "--class", "coercive", "--samples", "100"]
    ) == 0
    out = tmp_path / "growth.json"
    assert main(
        ["certify", "--op", "cone-subdiff", "--class", "growth-condition", "--samples", "100",
         "--out", str(out)]
    ) == 2
    # the refutation carries the four graph points of its worst pair
    payload = json.loads(out.read_text())["certificate"]
    assert payload["witness"] == [[181.0, 0.0], [362.0, 0.0], [181.0, 181.0], [362.0, 0.0]]
    c = cert.ClassCertificate(
        class_name=payload["class"], params=payload["params"], estimates=payload["estimates"],
        verdict=payload["verdict"], witness=payload["witness"], witness_value=0.0,
        seed=payload["seed"], sample_count=payload["samples"],
    )
    assert cert.replay(c) == payload["estimates"][0]["value"] == 0.0
    assert main(
        ["certify", "--op", "identity", "--class", "growth-condition", "--samples", "5000"]
    ) == 0


def test_estimate_modulus_is_the_cli_certificate(tmp_path):
    out = tmp_path / "um.json"
    argv = ["certify", "--op", "rotator", "--class", "uniformly-monotone", "--t", "0.5,1",
            "--samples", "3000", "--seed", "5", "--box=-4,4", "--out", str(out)]
    assert main(argv) == 2
    cfg = cert.SamplerConfig(seed=5, sample_count=3000, box_low=[-4.0, -4.0],
                             box_high=[4.0, 4.0])
    est = cert.estimate_modulus(gallery.operator("rotator"), [0.5, 1.0], cfg)
    assert isinstance(est, cert.ClassCertificate)
    # the file holds the JSON encoding, so compare through it
    expected = json.loads(json.dumps(est.to_json_dict()))
    assert json.loads(out.read_text())["certificate"] == expected


@pytest.mark.parametrize("op", ["quartic-mixed", "cone-subdiff"])
@pytest.mark.parametrize("klass", ["coercive", "growth-condition"])
def test_graph_checks_are_the_cli_certificates(op, klass, tmp_path):
    out = tmp_path / "graph.json"
    argv = ["certify", "--op", op, "--class", klass, "--samples", "3000", "--seed", "5",
            "--box=-4,4", "--out", str(out)]
    code = main(argv)
    if op == "cone-subdiff":  # no operator: its witness pairs at n = 1..200
        pairs = [gallery.cone_subdiff_witnesses(n) for n in range(1, 201)]
        points = [first for first, _ in pairs] + [second for _, second in pairs]
    else:
        cfg = cert.SamplerConfig(seed=5, sample_count=3000, box_low=[-4.0], box_high=[4.0])
        A = gallery.operator(op)
        pairs = tuple(core.minty_sample(A, Z) for Z in cert.pair_batches(cfg))
        points = core.GraphSample(*(np.concatenate(a) for a in zip(*pairs)))
    check = cert.check_coercive(points) if klass == "coercive" else cert.check_growth(pairs)
    # the CLI labels the check's certificate with the draw its pairs came from
    expected = dataclasses.replace(check, seed=5, sample_count=3000)
    assert code == (2 if expected.verdict == cert.REFUTED else 0)
    # the file holds the JSON encoding, so compare through it
    expected = json.loads(json.dumps(expected.to_json_dict()))
    assert json.loads(out.read_text())["certificate"] == expected


def test_mosk_seed_env(monkeypatch, tmp_path):
    monkeypatch.setenv("MOSK_SEED", "123")
    from mosk import cli as cli_mod

    parser = cli_mod.build_parser()
    args = parser.parse_args(
        ["certify", "--op", "cubic", "--class", "uniformly-monotone"]
    )
    assert args.seed == 123


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mosk", "gallery"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "cubic" in proc.stdout


_IMPORTS_PROBE = """
import json, sys
import mosk
seen = [("import mosk", "numpy.random" in sys.modules)]
from mosk.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    seen.append((argv[0], code, "numpy.random" in sys.modules))
print(json.dumps(seen))
"""


def test_commands_that_draw_nothing_never_import_numpy_random(tmp_path):
    # numpy.random costs about 6 MB resident and 10 ms at start-up; only the
    # sampling commands (certify, selfdual) need it
    runs = [
        ["gallery"],
        ["split", "--algo", "pr", "--opA", "normal-cone-zero", "--opB", "zero", "--x0", "1",
         "--max-iter", "50", "--out", "trace.csv"],
        ["split", "--algo", "pr", "--opA", "normal-cone-zero", "--opB", "shift", "--dim", "256",
         "--x0", "e1", "--probes", "8", "--out", "shift.csv"],
        ["witness", "--example", "staircase-ssne", "--n", "20", "--out", "w.csv"],
    ]
    # the runs write their files in tmp_path, so mosk is found by its path
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _IMPORTS_PROBE, json.dumps(runs)],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen[0] == ["import mosk", False]
    assert [tuple(s) for s in seen[1:]] == [(argv[0], 0, False) for argv in runs]


def _golden_tool():
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "tools" / "golden.py"
    spec = importlib.util.spec_from_file_location("golden", path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return golden


def test_golden_runs_parse():
    # every run of tools/golden.py is a valid mosk command line, and its class
    # matrix spans every gallery entry and every class the CLI certifies
    golden = _golden_tool()
    parser = cli.build_parser()
    for name, argv in golden.RUNS.items():
        assert parser.parse_args(argv).func is not None, name
    assert golden.ENTRIES == gallery.names()
    assert list(golden.CLASSES) == [k for k, spec in cert.CLASSES.items() if spec.run is not None]
    assert len(golden.DEMOS) == 5
    # the library runs of check_lemma_3_5 name gallery operators and closed forms
    for op, dim, phi in golden.LEMMA_3_5.values():
        assert "operator" in gallery.entry(op).kinds and phi in cert.CLOSED_FORMS
        assert gallery.dimension(op, int(dim)) == int(dim)
