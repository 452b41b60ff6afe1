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
