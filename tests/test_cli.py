import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qwcycle import (
    asymptotic_reduced_density,
    hadamard_params,
    limiting_distribution,
    make_state,
    parse_coin,
    parse_state,
    time_avg_reduced_density,
)
from qwcycle.cli import _fmt, main


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
    ],
)
def test_invalid_configuration_exits_2(args, capsys):
    assert main(args) == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qwcycle.cli", "ld", "-N", "4"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("v,pi_v")
