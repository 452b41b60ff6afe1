import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qwcycle
from qwcycle import (
    asymptotic_reduced_density,
    hadamard_params,
    limiting_distribution,
    make_state,
    parse_coin,
    parse_state,
    time_avg_reduced_density,
)
from qwcycle.cli import _build_parser, _fmt, main
from qwcycle.thermo import ScanGrid
from qwcycle.verify import VerifyConfig


def run_cli(args, capsys):
    code = main(args)
    return code, capsys.readouterr().out


def test_fmt_round_trips_floats():
    for x in (0.1, 1 / 3, 2.2691853142130225, -0.0, 5e-324):
        assert float(_fmt(x)) == x
    assert _fmt(math.inf) == "inf"
    assert _fmt(-math.inf) == "-inf"


def test_ld_csv_matches_library(capsys):
    code, out = run_cli(["ld", "-N", "6", "--coin", "hadamard", "--init", "local:0"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["v", "pi_v"]
    got = np.array([float(r[1]) for r in rows[1:]])
    want = limiting_distribution(make_state(parse_state("local:0"), 6), hadamard_params())
    assert np.array_equal(got, want)  # repr formatting is lossless


def test_ld_json_round_trip(capsys):
    code, out = run_cli(["ld", "-N", "5", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["n_nodes"] == 5
    assert payload["pi"] == [0.2] * 5


def test_rdcm_csv_schema(capsys):
    code, out = run_cli(["rdcm", "-N", "8", "--coin", "diaz:pi/3"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["row", "col", "re", "im"]
    assert len(rows) == 5
    rho = asymptotic_reduced_density(make_state(parse_state("local:0"), 8), parse_coin("diaz:pi/3"))
    for r, c, re, im in rows[1:]:
        assert complex(float(re), float(im)) == rho[int(r), int(c)]


def test_simulate_identity_coin_indicator(capsys):
    code, out = run_cli(
        ["simulate", "-N", "5", "--coin", "u2:0,0,0", "--init", "local:0", "--tmax", "1"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    probs = [float(r[1]) for r in rows]
    assert probs == [0.0, 1.0, 0.0, 0.0, 0.0]


def test_simulate_reduce_matches_library(capsys):
    code, out = run_cli(
        ["simulate", "-N", "6", "--coin", "hadamard", "--tmax", "500", "--reduce"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    got = np.array([complex(float(re), float(im)) for _, _, re, im in rows]).reshape(2, 2)
    from qwcycle.coin import build_coin

    want = time_avg_reduced_density(
        make_state(parse_state("local:0"), 6), build_coin(hadamard_params()), 500
    )
    assert np.array_equal(got, want)


def test_simulate_converges_to_ld(capsys):
    _, sim = run_cli(["simulate", "-N", "6", "--tmax", "20000"], capsys)
    _, ld = run_cli(["ld", "-N", "6"], capsys)
    sim_p = [float(r[1]) for r in list(csv.reader(io.StringIO(sim)))[1:]]
    ld_p = [float(r[1]) for r in list(csv.reader(io.StringIO(ld)))[1:]]
    assert max(abs(a - b) for a, b in zip(sim_p, ld_p)) < 1e-2


HOTTEST = "local:0,0.9238795325112867,0,0.3826834323650898,0"  # [cos pi/8, sin pi/8]


def test_temp_csv_schema_and_inf_token(capsys):
    code, out = run_cli(
        [
            "temp", "-N", "60", "--scan", "phases", "--theta", "pi/4",
            "--init", HOTTEST, "--axis1=-pi:pi:3", "--axis2=-pi:pi:3",
        ],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["axis1", "axis2", "ratio"]
    assert len(rows) == 10
    ratios = [r[2] for r in rows[1:]]
    assert "inf" in ratios  # zeta = xi +/- pi drives the coin maximally mixed


def test_temp_json_encodes_inf(capsys):
    code, out = run_cli(
        [
            "temp", "-N", "60", "--scan", "phases", "--init", HOTTEST,
            "--axis1=-pi:pi:3", "--axis2=-pi:pi:3", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)  # "inf" strings keep it strict JSON
    assert payload["axis1"] == "zeta"
    flat = [v for row in payload["ratio"] for v in row]
    assert "inf" in flat


def test_temp_bloch_default_axes(capsys):
    code, out = run_cli(["temp", "-N", "10", "--axis1", "0:pi:4", "--axis2", "0:pi:4"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 17


@pytest.mark.parametrize(
    "args, sizes, spans",
    [
        (["temp", "-N", "10", "--axis2=0:pi:4"], (101, 4), (math.pi, math.pi)),
        (["temp", "-N", "10", "--scan", "phases", "--axis1=-pi:pi:3"], (3, 101), (2 * math.pi,) * 2),
    ],
)
def test_temp_one_axis_keeps_the_other_default(args, sizes, spans, capsys):
    # an unset axis keeps the scan's default: 101 points over the full range
    code, out = run_cli(args, capsys)
    assert code == 0
    rows = np.array([[float(x) for x in r] for r in list(csv.reader(io.StringIO(out)))[1:]])
    assert len(rows) == sizes[0] * sizes[1]
    for column, size, span in zip(rows[:, :2].T, sizes, spans):
        axis = np.unique(column)
        assert axis.size == size and axis[-1] - axis[0] == span


def test_output_file(tmp_path, capsys):
    target = tmp_path / "ld.csv"
    code, out = run_cli(["ld", "-N", "4", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("v,pi_v")


def test_deterministic_output(capsys):
    args = ["temp", "-N", "12", "--axis1", "0:pi:5", "--axis2", "0:2pi:5"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second


def _literal_writer(result, fmt):
    """The text the CLI wrote for one result through ``csv.writer`` over
    ``_fmt`` rows or ``json.dumps(indent=2)``, kept literally as the reference
    for its one-pass CSV."""
    if isinstance(result, ScanGrid):
        def token(x):
            return _fmt(x) if math.isinf(x) else x

        axis1, axis2, values = result.axis1.tolist(), result.axis2.tolist(), result.values.tolist()
        header = ["axis1", "axis2", "ratio"]
        rows = ([_fmt(a), _fmt(b), _fmt(v)] for a, vs in zip(axis1, values) for b, v in zip(axis2, vs))
        payload = {
            "axis1": result.axis1_name,
            "axis2": result.axis2_name,
            "axis1_values": axis1,
            "axis2_values": axis2,
            "reference_temperature": token(result.reference_temperature),
            "ratio": [[token(v) for v in row] for row in values],
        }
    elif result.ndim == 1:
        pi = result.tolist()
        header = ["v", "pi_v"]
        rows = ([v, _fmt(p)] for v, p in enumerate(pi))
        payload = {"n_nodes": len(pi), "pi": pi}
    else:
        header = ["row", "col", "re", "im"]
        cells = [(r, c, result[r, c].real, result[r, c].imag) for r in range(2) for c in range(2)]
        rows = ([r, c, _fmt(re), _fmt(im)] for r, c, re, im in cells)
        payload = {"entries": [dict(zip(header, cell)) for cell in cells]}
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


# one distribution with a signed zero, the least subnormal, a tiny normal and
# 1/3 (17 significant digits); it sums to exactly 1
EDGE_PI = np.array([-0.0, 5e-324, 1e-300, 1 / 3, 2 / 3])
AXES = ["--axis1=0:pi:3", "--axis2=0:2pi:3"]


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "args, stub",
    [
        pytest.param(["ld", "-N", "2"], None, id="ld-2"),
        pytest.param(["ld", "-N", "7", "--coin", "u2:0.3,0.2,0.1", "--init", "entangled:3"], None, id="ld-7"),
        pytest.param(["ld", "-N", "5"], EDGE_PI, id="ld-edge"),
        pytest.param(["rdcm", "-N", "2"], None, id="rdcm-2"),
        pytest.param(["rdcm", "-N", "9", "--coin", "diaz:pi/3", "--init", "bloch:1,2@4"], None, id="rdcm-9"),
        pytest.param(["simulate", "-N", "2", "--tmax", "7"], None, id="simulate-2"),
        pytest.param(["simulate", "-N", "6", "--tmax", "300", "--reduce"], None, id="reduce-6"),
        pytest.param(["temp", "-N", "2", *AXES], None, id="bloch-2"),
        pytest.param(["temp", "-N", "4", "--coin", "diaz:pi/2", *AXES], None, id="bloch-inf-t0"),
        pytest.param(["temp", "-N", "3", "--coin", "u2:0,0,0", *AXES], None, id="bloch-inf-cells"),
        pytest.param(
            ["temp", "-N", "60", "--scan", "phases", "--init", HOTTEST, "--axis1=-pi:pi:3", "--axis2=-pi:pi:3"],
            None, id="phases-inf-cells",
        ),
        pytest.param(
            ["temp", "-N", "8", "--scan", "phases", "--theta", "0", "--axis1=-pi:pi:4", "--axis2=0:pi:3"],
            None, id="phases-theta-0",
        ),
    ],
)
def test_writers_match_csv_writer_and_json_dumps(args, stub, fmt, to_file, tmp_path, monkeypatch, capsys):
    # every result the CLI computes is recorded on its way to the writer; a
    # stub stands in for the distribution that no walk gives
    results = []
    names = [
        "limiting_distribution", "asymptotic_reduced_density", "time_avg_distribution",
        "time_avg_reduced_density", "bloch_temperature_scan", "coin_phase_temperature_scan",
    ]
    for name in names:
        real = getattr(qwcycle.cli, name) if stub is None else lambda *a: stub

        def spy(*a, real=real, **k):
            results.append(real(*a, **k))
            return results[-1]

        monkeypatch.setattr(qwcycle.cli, name, spy)
    target = tmp_path / "out.txt"
    argv = [*args, "--format", fmt] + (["--out", str(target)] if to_file else [])
    code, out = run_cli(argv, capsys)
    assert code == 0 and len(results) == 1
    if to_file:
        assert out == ""
        got = target.read_bytes()
    else:
        assert not target.exists()
        got = out.encode()
    assert got == _literal_writer(results[0], fmt).encode()


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out = run_cli(
        ["verify", "--n-min", "3", "--n-max", "3", "--coins", "2", "--states", "2",
         "--tmax", "5000"],
        capsys,
    )
    assert code == 0
    assert "PASS" in out

    code, out = run_cli(
        ["verify", "--n-min", "3", "--n-max", "3", "--coins", "2", "--states", "2",
         "--tmax", "10"],
        capsys,
    )
    assert code == 1
    assert "FAIL" in out and "worst configuration" in out


def test_bare_verify_runs_the_default_sweep(monkeypatch, capsys):
    # a spy in place of the sweep: no sweep runs
    configs = []

    def spy(config):
        configs.append(config)
        return SimpleNamespace(summary_lines=lambda: ["PASS"], passed=True)

    monkeypatch.setattr("qwcycle.cli.run_verification", spy)
    assert run_cli(["verify"], capsys) == (0, "PASS\n")
    assert configs == [VerifyConfig()]


@pytest.mark.parametrize(
    "args",
    [
        ["ld", "-N", "0"],
        ["ld", "-N", "6", "--coin", "grover"],
        ["ld", "-N", "6", "--init", "entangled:9"],
        ["rdcm", "-N", "6", "--init", "local:17"],
        ["simulate", "-N", "4", "--tmax", "0"],
        ["temp", "-N", "6", "--axis1", "0:pi"],
        ["ld"],
        ["verify", "--n-min", "3", "--n-max", "3", "--coins", "2", "--states", "1", "--tmax", "0"],
        ["verify", "--n-min", "3", "--n-max", "3", "--coins", "0"],
        ["verify", "--n-min", "5", "--n-max", "3"],
        ["temp", "-N", "0", "--axis1=0:pi:2", "--axis2=0:pi:2"],
        ["temp", "-N", "1", "--axis1=0:pi:2", "--axis2=0:pi:2"],
        ["ld", "-N", "6", "--seed", "3"],
        ["verify", "--format", "json"],
        ["ld", "-N", "6", "--init", "bloch:nan,0"],
        ["ld", "-N", "6", "--init", "local:0,nan,0,0,0"],
        ["temp", "-N", "8", "--scan", "phases", "--theta", "nan", "--axis1=0:pi:2"],
        ["temp", "-N", "8", "--e0", "nan", "--axis1=0:pi:2", "--axis2=0:pi:2"],
        ["simulate", "-N", "4", "--tmax", "inf"],
        ["simulate", "-N", "4", "--tmax", "nan"],
        ["simulate", "-N", "4", "--tmax", "2.5"],
        ["verify", "--n-min", "3", "--n-max", "3", "--coins", "1", "--tmax", "inf"],
        ["verify", "--n-min", "3", "--n-max", "3", "--coins", "1", "--tmax", "100", "--tol", "-1"],
        ["verify", "--n-min", "3", "--n-max", "3", "--coins", "1", "--tmax", "100", "--tol", "0"],
        ["verify", "--n-min", "3", "--n-max", "3", "--coins", "1", "--tmax", "100", "--tol", "nan"],
        ["verify", "--n-min", "3", "--n-max", "3", "--coins", "1", "--tmax", "10", "--tol", "inf"],
        ["temp", "-N", "6", "--scan", "bloch", "--init", "local:3", "--theta", "1"],
        ["temp", "-N", "6", "--scan", "phases", "--coin", "diaz:pi/3"],
        ["temp", "-N", "6", "--coin", "", "--axis1=0:pi:2", "--axis2=0:pi:2"],
        ["rdcm", "-N", "4", "--coin", "u2:0.5,,0.3,0.1"],
    ],
)
def test_invalid_configuration_exits_2(args, capsys):
    assert main(args) == 2


def test_non_finite_local_spinor_is_named(capsys):
    assert main(["ld", "-N", "6", "--init", "local:0,nan,0,0,0"]) == 2
    assert "local coin spinor must be finite, got ((nan+0j), 0j)" in capsys.readouterr().err


@pytest.mark.parametrize("nodes, tmax", [("5", "1e7"), ("3", "1e20")])
def test_window_too_long_for_the_rounded_coin_is_named(nodes, tmax, capsys):
    # the rounded coin is unitary only to ~2e-16; over these windows that
    # error compounds past 1e-10, and at 1e20 it would overflow the sums
    args = ["simulate", "-N", nodes, "--coin", "u2:0.7,0.3,0.2,0.1", "--tmax", tmax]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"t_max = {int(float(tmax))} is too long for this coin" in err
    assert "sums to 1 only within" in err and "the rounded coin [[" in err
    assert "is unitary only to" in err


def _run_python(args):
    """``python args`` in a fresh process that imports this checkout's qwcycle,
    with or without PYTHONPATH set."""
    src = str(Path(qwcycle.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point():
    proc = _run_python(["-m", "qwcycle.cli", "ld", "-N", "4"])
    assert proc.returncode == 0
    assert proc.stdout.startswith("v,pi_v")


def test_parser_is_built_on_first_use():
    probe = "import qwcycle.cli as c; print(c._build_parser.cache_info().currsize)"
    proc = _run_python(["-c", probe])
    assert proc.returncode == 0 and proc.stdout == "0\n"


def test_cached_parser_keeps_no_state_between_calls(capsys):
    assert _build_parser() is _build_parser()
    axes = ["--axis1=0:pi:2", "--axis2=0:pi:2"]
    # a flag set on one call is not "set" on the next
    assert main(["temp", "-N", "6", "--scan", "bloch", "--coin", "diaz:pi/3", *axes]) == 0
    assert main(["temp", "-N", "6", "--scan", "phases", *axes]) == 0
    assert "does not read" not in capsys.readouterr().err
    code, out = run_cli(["ld", "-N", "5", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["n_nodes"] == 5
    code, out = run_cli(["ld", "-N", "5"], capsys)
    assert code == 0 and out.startswith("v,pi_v")
    # a call that fails on a bad flag leaves the parser whole
    assert main(["ld", "-N", "5", "--no-such-flag"]) == 2
    code, out = run_cli(["ld", "-N", "5"], capsys)
    assert code == 0 and out.startswith("v,pi_v")
