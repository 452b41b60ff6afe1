"""Command-line front end.

Subcommands: ld, rdcm, simulate, temp, verify.  Outputs are CSV (default) or
JSON, written to --out or stdout.  Exit codes: 0 success, 1 verification
tolerance breach, 2 invalid configuration.

Every subcommand but verify computes one result and writes it once, as whole
columns of Python floats (one ``tolist()`` per array).  CSV is one string of
``repr`` tokens joined by commas, with CRLF line ends: the bytes
``csv.writer``'s default dialect writes for them.  JSON is
``json.dumps(payload, indent=2)``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Iterable

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
    return repr(float(x))


def _emit(args: argparse.Namespace, header: str, columns: Iterable[Iterable[str]], payload: dict) -> None:
    """Write ``columns`` as CSV under ``header``, or ``payload`` as JSON, per --format.

    ``columns`` are equal-length iterables of tokens, each an int's ``str`` or
    a float's ``repr``.  No token needs quoting, so joining them with commas and
    ending every line in CRLF writes the bytes of ``csv.writer``'s default
    dialect in one pass.
    """
    if args.format == "json":
        return _write(json.dumps(payload, indent=2) + "\n", args.out)
    _write("\r\n".join([header, *map(",".join, zip(*columns)), ""]), args.out)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_distribution(probs: np.ndarray, args: argparse.Namespace) -> None:
    check_distribution(probs)
    pi = probs.tolist()
    columns = (map(str, range(len(pi))), map(repr, pi))
    _emit(args, "v,pi_v", columns, {"n_nodes": len(pi), "pi": pi})


def _emit_matrix(rho: np.ndarray, args: argparse.Namespace) -> None:
    check_reduced_density(rho, tol=1e-8)
    re, im = rho.real.ravel().tolist(), rho.imag.ravel().tolist()
    columns = (("0", "0", "1", "1"), ("0", "1", "0", "1"), map(repr, re), map(repr, im))
    cells = zip((0, 0, 1, 1), (0, 1, 0, 1), re, im)
    entries = [dict(zip(("row", "col", "re", "im"), cell)) for cell in cells]
    _emit(args, "row,col,re,im", columns, {"entries": entries})


def _emit_grid(grid: ScanGrid, args: argparse.Namespace) -> None:
    def token(x: float) -> float | str:
        # JSON has no infinity: write the CSV token "inf" / "-inf" as a string
        return _fmt(x) if math.isinf(x) else x

    axis1, axis2, values = grid.axis1.tolist(), grid.axis2.tolist(), grid.values.tolist()
    # each axis value's token once, repeated over the row-major grid
    a1, a2 = list(map(repr, axis1)), list(map(repr, axis2))
    columns = ([a for a in a1 for _ in a2], a2 * len(a1), map(repr, grid.values.ravel().tolist()))
    payload = {
        "axis1": grid.axis1_name,
        "axis2": grid.axis2_name,
        "axis1_values": axis1,
        "axis2_values": axis2,
        "reference_temperature": token(grid.reference_temperature),
        "ratio": [[token(v) for v in row] for row in values],
    }
    _emit(args, "axis1,axis2,ratio", columns, payload)


def _axis_arg(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"axis must be START:STOP:NUM, got {text!r}")
    try:
        return parse_angle(parts[0]), parse_angle(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache  # built on the first call, then reused: parse_args keeps no state
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
    p_sim.add_argument("--tmax", type=float, default=200_000, help="averaging steps")
    p_sim.add_argument(
        "--reduce",
        action="store_true",
        help="emit the time-averaged reduced coin density instead of the distribution",
    )

    p_temp = walk_parser("temp", "temperature-ratio scans")
    p_temp.add_argument("--scan", choices=("bloch", "phases"), default="bloch")
    p_temp.add_argument("--theta", help="coin angle for --scan phases (default pi/4)")
    p_temp.add_argument("--axis1", type=_axis_arg, default=None, help="START:STOP:NUM")
    p_temp.add_argument("--axis2", type=_axis_arg, default=None, help="START:STOP:NUM")
    # None marks a flag left unset, so that one the scan does not read is refused
    p_temp.set_defaults(coin=None, init=None)

    # the sweep's defaults are run_verification()'s, read from VerifyConfig
    sweep = VerifyConfig()
    p_ver = sub.add_parser("verify", help="randomized oracle-vs-closed-form sweep")
    p_ver.add_argument("--out", default=None, help="output path (default: stdout)")
    p_ver.add_argument("--seed", type=int, default=sweep.seed)
    p_ver.add_argument("--tmax", type=float, default=sweep.t_max, help="averaging steps")
    p_ver.add_argument("--n-min", type=int, default=min(sweep.n_values))
    p_ver.add_argument("--n-max", type=int, default=max(sweep.n_values))
    p_ver.add_argument("--coins", type=int, default=sweep.coins_per_n, help="coins per cycle size")
    p_ver.add_argument("--states", type=int, default=sweep.states_per_coin, help="states per coin")
    p_ver.add_argument("--tol", type=float, default=sweep.tolerance)
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
        _write("\n".join(report.summary_lines()) + "\n", args.out)
        return 0 if report.passed else 1

    if args.command == "temp":
        bloch = args.scan == "bloch"
        unread = ("init", "theta") if bloch else ("coin",)
        passed = [f"--{name}" for name in unread if getattr(args, name) is not None]
        if passed:
            raise ValueError(f"temp --scan {args.scan} does not read {', '.join(passed)}")
        # only the axes the user set; the scan's signature holds the defaults
        names = ("gamma_axis", "phi_axis") if bloch else ("zeta_axis", "xi_axis")
        axes = {k: v for k, v in zip(names, (args.axis1, args.axis2)) if v is not None}
        if bloch:
            coin = parse_coin("hadamard" if args.coin is None else args.coin)
            grid = bloch_temperature_scan(coin, args.nodes, **axes)
        else:
            theta = parse_angle("pi/4" if args.theta is None else args.theta)
            initial = parse_state("local:0" if args.init is None else args.init)
            grid = coin_phase_temperature_scan(theta, initial, args.nodes, **axes)
        _emit_grid(grid, args)
        return 0

    coin = parse_coin(args.coin)
    state = make_state(parse_state(args.init), args.nodes)
    if args.command == "ld":
        _emit_distribution(limiting_distribution(state, coin), args)
    elif args.command == "rdcm":
        _emit_matrix(asymptotic_reduced_density(state, coin), args)
    elif args.reduce:
        _emit_matrix(time_avg_reduced_density(state, build_coin(coin), args.tmax), args)
    else:
        _emit_distribution(time_avg_distribution(state, build_coin(coin), args.tmax), args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
