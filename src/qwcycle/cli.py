"""Command-line front end.

Subcommands: ld, rdcm, simulate, temp, verify.  Outputs are CSV (default) or
JSON, written to --out or stdout.  Exit codes: 0 success, 1 verification
tolerance breach, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Any

import numpy as np

from .angles import parse_angle
from .asymptotics import asymptotic_reduced_density, limiting_distribution
from .coin import build_coin, parse_coin
from .evolution import (
    check_distribution,
    check_reduced_density,
    time_avg_distribution,
    time_avg_reduced_density,
)
from .state import make_state, parse_state
from .thermo import ScanGrid, bloch_temperature_scan, coin_phase_temperature_scan
from .verify import VerifyConfig, run_verification

__all__ = ["main"]


def _fmt(x: float) -> str:
    # full-precision decimal token that reads back to the identical float
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(float(x))


def _jsonable(x: float) -> Any:
    return "inf" if math.isinf(x) and x > 0 else ("-inf" if math.isinf(x) else x)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_distribution(probs: np.ndarray, args: argparse.Namespace) -> None:
    check_distribution(probs)
    if args.format == "json":
        payload = {"n_nodes": len(probs), "pi": [float(p) for p in probs]}
        _write(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["v", "pi_v"])
        for v, p in enumerate(probs):
            w.writerow([v, _fmt(p)])
        _write(buf.getvalue(), args.out)


def _emit_matrix(rho: np.ndarray, args: argparse.Namespace) -> None:
    check_reduced_density(rho, tol=1e-8)
    if args.format == "json":
        payload = {
            "entries": [
                {"row": r, "col": c, "re": rho[r, c].real, "im": rho[r, c].imag}
                for r in range(2)
                for c in range(2)
            ]
        }
        _write(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["row", "col", "re", "im"])
        for r in range(2):
            for c in range(2):
                w.writerow([r, c, _fmt(rho[r, c].real), _fmt(rho[r, c].imag)])
        _write(buf.getvalue(), args.out)


def _emit_grid(grid: ScanGrid, args: argparse.Namespace) -> None:
    if args.format == "json":
        payload = {
            "axis1": grid.axis1_name,
            "axis2": grid.axis2_name,
            "axis1_values": [float(a) for a in grid.axis1],
            "axis2_values": [float(b) for b in grid.axis2],
            "reference_temperature": _jsonable(grid.reference_temperature),
            "ratio": [[_jsonable(float(v)) for v in row] for row in grid.values],
        }
        _write(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["axis1", "axis2", "ratio"])
        for i, a in enumerate(grid.axis1):
            for j, b in enumerate(grid.axis2):
                w.writerow([_fmt(a), _fmt(b), _fmt(grid.values[i, j])])
        _write(buf.getvalue(), args.out)


def _axis_arg(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"axis must be START:STOP:NUM, got {text!r}")
    try:
        return parse_angle(parts[0]), parse_angle(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _steps_arg(text: str) -> int:
    value = float(text)  # accepts 2e5
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"step count must be a whole number, got {text!r}")
    return int(value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwcycle",
        description="Asymptotics of coined quantum walks on N-cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def walk_parser(name: str, help: str) -> argparse.ArgumentParser:
        # the flags of the four subcommands that run one walk
        p = sub.add_parser(name, help=help)
        p.add_argument("-N", "--nodes", type=int, required=True, help="cycle size N")
        p.add_argument("--coin", default="hadamard", help="hadamard | diaz:T | u2:T,Z,X[,E]")
        p.add_argument("--init", default="local:0", help="initial-state spec (see README)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        return p

    walk_parser("ld", "closed-form limiting distribution")
    walk_parser("rdcm", "closed-form asymptotic reduced coin density")

    p_sim = walk_parser("simulate", "brute-force time averages")
    p_sim.add_argument("--tmax", type=_steps_arg, default=200_000, help="averaging steps")
    p_sim.add_argument(
        "--reduce",
        action="store_true",
        help="emit the time-averaged reduced coin density instead of the distribution",
    )

    p_temp = walk_parser("temp", "temperature-ratio scans")
    p_temp.add_argument("--e0", type=float, default=1.0, help="energy scale E0")
    p_temp.add_argument("--scan", choices=("bloch", "phases"), default="bloch")
    p_temp.add_argument("--theta", default="pi/4", help="coin angle for --scan phases")
    p_temp.add_argument("--axis1", type=_axis_arg, default=None, help="START:STOP:NUM")
    p_temp.add_argument("--axis2", type=_axis_arg, default=None, help="START:STOP:NUM")

    p_ver = sub.add_parser("verify", help="randomized oracle-vs-closed-form sweep")
    p_ver.add_argument("--out", default=None, help="output path (default: stdout)")
    p_ver.add_argument("--seed", type=int, default=7)
    p_ver.add_argument("--tmax", type=_steps_arg, default=200_000, help="averaging steps")
    p_ver.add_argument("--n-min", type=int, default=3)
    p_ver.add_argument("--n-max", type=int, default=12)
    p_ver.add_argument("--coins", type=int, default=20, help="coins per cycle size")
    p_ver.add_argument("--states", type=int, default=5, help="states per coin")
    p_ver.add_argument("--tol", type=float, default=1e-2)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "ld":
        coin = parse_coin(args.coin)
        state = make_state(parse_state(args.init), args.nodes)
        _emit_distribution(limiting_distribution(state, coin), args)
        return 0

    if args.command == "rdcm":
        coin = parse_coin(args.coin)
        state = make_state(parse_state(args.init), args.nodes)
        _emit_matrix(asymptotic_reduced_density(state, coin), args)
        return 0

    if args.command == "simulate":
        coin = build_coin(parse_coin(args.coin))
        state = make_state(parse_state(args.init), args.nodes)
        if args.reduce:
            _emit_matrix(time_avg_reduced_density(state, coin, args.tmax), args)
        else:
            _emit_distribution(time_avg_distribution(state, coin, args.tmax), args)
        return 0

    if args.command == "temp":
        if args.scan == "bloch":
            grid = bloch_temperature_scan(
                parse_coin(args.coin),
                args.nodes,
                gamma_axis=args.axis1 or (0.0, math.pi, 101),
                phi_axis=args.axis2 or (0.0, 2 * math.pi, 101),
                e0=args.e0,
            )
        else:
            grid = coin_phase_temperature_scan(
                parse_angle(args.theta),
                parse_state(args.init),
                args.nodes,
                zeta_axis=args.axis1 or (-math.pi, math.pi, 101),
                xi_axis=args.axis2 or (-math.pi, math.pi, 101),
                e0=args.e0,
            )
        _emit_grid(grid, args)
        return 0

    if args.command == "verify":
        config = VerifyConfig(
            n_values=tuple(range(args.n_min, args.n_max + 1)),
            coins_per_n=args.coins,
            states_per_coin=args.states,
            t_max=args.tmax,
            tolerance=args.tol,
            seed=args.seed,
        )
        report = run_verification(config)
        text = "\n".join(report.summary_lines()) + "\n"
        _write(text, args.out)
        return 0 if report.passed else 1

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
