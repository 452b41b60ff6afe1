"""The benchmark's workloads: inputs made from a seed, operations, checks.

``build(name, seed, out_dir)`` imports ``qwcycle``, makes the inputs the
program receives and returns the workload's fixed list of operations.  Each
operation runs the program through public functions only; its ``check`` runs
afterwards, outside every timed span, and compares the output with
``reference`` (which never calls into the package's numerics) or with a
property the method guarantees.  Operations marked ``known_fault`` hit a
fault in the program and are counted as failed when their check fails.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref

LD_TOL = 1e-10  # max |pi - pi_ref| over nodes
RHO_TOL = 1e-10  # max |rho_c - rho_ref| over entries
ORACLE_TOL = 1e-8  # max |deviation - deviation_ref| in a verify report
DIAGONAL_TOL = 1e-9  # |T/T0 - 1| along zeta = xi, local state, theta = pi/4
# inputs of the theta = pi/2 operations do not depend on the seed
FIXED_SEED = 20190929

NAMES = ("closed_form", "oracle_sweep", "temp_scan", "cli")


@dataclass
class Op:
    """One timed call into the program and the check of its output."""

    name: str
    run: Callable[[int], Any]  # round index -> output
    check: Callable[[Any], str | None]  # None when the output is right
    known_fault: bool = False


@dataclass(frozen=True)
class Coin:
    """Coin angles kept apart from the package's own coin type."""

    theta: float
    zeta: float
    xi: float
    eta: float = 0.0

    def matrix(self) -> np.ndarray:
        return ref.coin_matrix(self.theta, self.zeta, self.xi, self.eta)


def _max_gap(got: Any, want: np.ndarray) -> float:
    return float(np.abs(np.asarray(got) - want).max())


def _close(what: str, got: Any, want: np.ndarray, tol: float) -> str | None:
    got = np.asarray(got)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape}, expected {want.shape}"
    gap = _max_gap(got, want)
    return None if gap <= tol else f"{what}: off by {gap:.3e} (tolerance {tol:.0e})"


def _dense_grid(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    return z / np.linalg.norm(z)


def _spinor(rng: np.random.Generator) -> tuple[complex, complex]:
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    z /= np.linalg.norm(z)
    return complex(z[0]), complex(z[1])


def _local_grid(n: int, j: int, c0: complex, c1: complex) -> np.ndarray:
    grid = np.zeros((2, n), dtype=np.complex128)
    grid[:, j] = (c0, c1)
    return grid / np.linalg.norm(grid)


def _pair_grid(n: int, p: int) -> np.ndarray:
    grid = np.zeros((2, n), dtype=np.complex128)
    grid[0, 0] = grid[1, p] = 1 / math.sqrt(2)
    return grid


# ---------------------------------------------------------------------------
# closed_form
# ---------------------------------------------------------------------------

# (coin family, N); every coin meets a dense, a local and an entangled state
CLOSED_FORM = (("grid", 1024), ("grid", 2048), ("generic", 4096), ("near0", 1024))
# the theta = pi/2 coin meets a dense and a local state with fixed inputs
HALF_PI_N = 2048


def _family_coin(family: str, n: int, rng: np.random.Generator) -> Coin:
    theta = rng.uniform(0.2, 1.3)
    xi, eta = rng.uniform(-math.pi, math.pi, 2)
    m = int(rng.integers(-n // 2, n // 2))
    if family == "grid":  # zeta on the pi/N grid: every block has a partner
        return Coin(theta, m * math.pi / n, xi, eta)
    if family == "generic":  # N(1 + zeta/pi) at least 0.2 from an integer
        return Coin(theta, (m + rng.uniform(0.2, 0.8)) * math.pi / n, xi, eta)
    if family == "near0":  # cos(theta) rounds to 1: blocks k = m, m + N/2 are scalar
        return Coin(rng.uniform(1.0, 10.0) * 1e-11, 2 * m * math.pi / n, xi, eta)
    raise ValueError(family)


def _closed_form_ops(qw: Any, rng: np.random.Generator) -> list[Op]:
    cases = []
    for family, n in CLOSED_FORM:
        coin = _family_coin(family, n, rng)
        j = int(rng.integers(n))
        c0, c1 = _spinor(rng)
        p = int(rng.integers(1, n))
        states = (
            ("dense", _dense_grid(rng, n)),
            ("local", _local_grid(n, j, c0, c1), qw.Local(j=j, c0=c0, c1=c1)),
            ("pair", _pair_grid(n, p), qw.EntangledPair(p=p)),
        )
        cases.append((f"{family} N={n}", coin, n, states, False))
    fixed = np.random.default_rng(FIXED_SEED)
    half_pi = Coin(math.pi / 2, math.pi / 4, 0.3)
    states = (
        ("dense", _dense_grid(fixed, HALF_PI_N)),
        ("local", _local_grid(HALF_PI_N, 0, 1, 0), qw.Local(j=0)),
    )
    cases.append((f"half_pi N={HALF_PI_N}", half_pi, HALF_PI_N, states, True))

    ops = []
    for label, coin, n, states, ld_fault in cases:
        params = qw.CoinParams(coin.theta, coin.zeta, coin.xi, coin.eta)
        for state_name, grid, *spec in states:
            # the program gets a WalkState built its own way from the same input
            state = qw.make_state(spec[0], n) if spec else qw.WalkState.from_grid(grid)
            ld_ref = cache(lambda c=coin, g=grid: ref.limiting_distribution(c.matrix(), g))
            rho_ref = cache(lambda c=coin, g=grid: ref.reduced_density(c.matrix(), g))
            ops.append(
                Op(
                    f"ld {label} {state_name}",
                    lambda r, s=state, c=params: qw.limiting_distribution(s, c),
                    lambda out, f=ld_ref: _close("pi", out, f(), LD_TOL),
                    known_fault=ld_fault,
                )
            )
            ops.append(
                Op(
                    f"rdcm {label} {state_name}",
                    lambda r, s=state, c=params: qw.asymptotic_reduced_density(s, c),
                    lambda out, f=rho_ref: _close("rho_c", out, f(), RHO_TOL),
                )
            )
    return ops


# ---------------------------------------------------------------------------
# oracle_sweep
# ---------------------------------------------------------------------------

ORACLE_DRAWS = (2, 1)  # coins per N, states per coin (the default is 20 x 5)
# a fifth of the default 200_000: one call at the default runs 7-12 s, too
# long for a best-of-rounds time on a machine whose speed swings for seconds
ORACLE_T_MAX = 40_000


def _oracle_check(qw: Any, config: Any) -> Callable[[Any], str | None]:
    """Replay the sweep's draws and recompute its report independently.

    The closed forms come from ``reference`` and the finite-window averages
    from exact binary doubling, so every deviation in the report must be
    reproduced to ORACLE_TOL.
    """

    def expected() -> tuple[list[int], np.ndarray]:
        rng = np.random.default_rng(config.seed)
        rows = []
        for n in config.n_values:
            ld_dev = rho_dev = 0.0
            for coin in qw.verify.sample_coins(rng, n, config.coins_per_n):
                k = config.states_per_coin
                z = rng.standard_normal((k, 2, n)) + 1j * rng.standard_normal((k, 2, n))
                z /= np.linalg.norm(z.reshape(k, -1), axis=1)[:, None, None]
                gamma = ref.coin_matrix(coin.theta, coin.zeta, coin.xi, coin.eta)
                for grid in z:
                    avg_pi, avg_rho = ref.window_average(gamma, grid, config.t_max)
                    ld = ref.limiting_distribution(gamma, grid)
                    rho = ref.reduced_density(gamma, grid)
                    ld_dev = max(ld_dev, _max_gap(ld, avg_pi))
                    rho_dev = max(rho_dev, _max_gap(rho, avg_rho))
            rows.append((ld_dev, rho_dev))
        return list(config.n_values), np.array(rows)

    want = cache(expected)

    def check(report: Any) -> str | None:
        n_values, devs = want()
        got_n = [c.n_nodes for c in report.cases]
        if got_n != n_values:
            return f"report covers N={got_n}, expected {n_values}"
        got = np.array([(c.max_ld_deviation, c.max_rho_deviation) for c in report.cases])
        err = _close("oracle deviations", got, devs, ORACLE_TOL)
        if err:
            return err
        should_pass = bool((devs < config.tolerance).all())
        if report.passed != should_pass:
            return f"report.passed is {report.passed}, expected {should_pass}"
        return None

    return check


def _oracle_sweep_ops(qw: Any, rng: np.random.Generator) -> list[Op]:
    sizes = (int(rng.integers(3, 13)), int(rng.integers(48, 65)))
    ops = []
    for n in sizes:
        config = qw.VerifyConfig(
            n_values=(n,),
            coins_per_n=ORACLE_DRAWS[0],
            states_per_coin=ORACLE_DRAWS[1],
            t_max=ORACLE_T_MAX,
            seed=int(rng.integers(2**31)),
        )
        ops.append(
            Op(
                f"verify N={n}",
                lambda r, c=config: qw.run_verification(c),
                _oracle_check(qw, config),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# temp_scan
# ---------------------------------------------------------------------------

SCAN_N = 100
BLOCH_SCANS = 6
BLOCH_AXES = ((0.0, math.pi, 9), (0.0, 2 * math.pi, 13))
PHASE_SCANS = 10  # the even ones start from a local state at theta = pi/4
PHASE_AXES = ((-math.pi, math.pi, 11), (-math.pi, math.pi, 11))
# theta = 0 with zeta on multiples of pi/2: a scalar block at every grid point
THETA0_AXES = ((-math.pi, math.pi, 5), (-math.pi, math.pi, 3))

HADAMARD = Coin(math.pi / 4, math.pi / 2, math.pi / 2)


def _axis(spec: tuple[float, float, int]) -> np.ndarray:
    return np.linspace(spec[0], spec[1], spec[2])


def _betas(rhos: np.ndarray) -> np.ndarray:
    flat = rhos.reshape(-1, 2, 2)
    return np.array([ref.inverse_temperature(r) for r in flat]).reshape(rhos.shape[:-2])


def _grid_check(
    grid: Any, axes: tuple, betas: np.ndarray, beta0: float, prop: str | None = None
) -> str | None:
    """Every T/T0 value against the reference, plus a property of the scan:
    ``"bloch"``, T/T0 = 1 at the reference point (pi, 0); ``"diagonal"``,
    T/T0 = 1 along zeta = xi (a local state at theta = pi/4)."""
    if grid.values.shape != betas.shape:
        return f"scan shape {grid.values.shape}, expected {betas.shape}"
    for got, spec in zip((grid.axis1, grid.axis2), axes):
        if _max_gap(got, _axis(spec)) > 1e-12:
            return "scan axes differ from the requested ones"
    t0 = grid.reference_temperature  # NaN when the output does not carry it
    if not math.isnan(t0) and not ref.beta_matches(1.0 / t0 if t0 else math.inf, beta0):
        return f"T0 = {t0!r}, reference beta0 {beta0!r}"
    for (i, j), ratio in np.ndenumerate(grid.values):
        if not ref.ratio_matches(float(ratio), float(betas[i, j]), beta0):
            return f"T/T0 at ({i}, {j}) is {ratio!r}, reference beta {betas[i, j]!r}"
    if prop == "diagonal":
        gap = float(np.abs(np.diagonal(grid.values) - 1.0).max())
        if gap > DIAGONAL_TOL:
            return f"T/T0 along zeta = xi strays from 1 by {gap:.3e}"
    if prop == "bloch":  # the grid ends at gamma = pi and starts at phi = 0
        at_ref = float(grid.values[-1, 0])
        if abs(at_ref - 1.0) > 1e-12:
            return f"T/T0 at the reference point (pi, 0) is {at_ref!r}"
    return None


def bloch_expected(coin: Coin, n: int, axes: tuple) -> tuple[np.ndarray, float]:
    """Reference betas over the Bloch grid and at (pi, 0): rho_c is linear in
    the local coin state, so four basis states give the whole map."""
    basis = np.eye(4).reshape(4, 2, 2)
    images = np.stack(
        [
            ref.local_reduced_densities(coin.matrix()[None], n, np.broadcast_to(e / n, (n, 2, 2)))[0]
            for e in basis
        ]
    )

    def rho(gamma: float, phi: float) -> np.ndarray:
        chi = np.array([math.cos(gamma / 2), np.exp(1j * phi) * math.sin(gamma / 2)])
        return np.einsum("ab,abcd->cd", np.outer(chi, chi.conj()), images.reshape(2, 2, 2, 2))

    gammas, phis = _axis(axes[0]), _axis(axes[1])
    rhos = np.array([[rho(g, p) for p in phis] for g in gammas])
    return _betas(rhos), ref.inverse_temperature(rho(math.pi, 0.0))


def phase_expected(theta: float, grid: np.ndarray, axes: tuple) -> tuple[np.ndarray, float]:
    """Reference betas over the (zeta, xi) grid and under the Hadamard coin."""
    n = grid.shape[-1]
    psi = ref.momentum(grid)
    sector = np.einsum("ka,kb->kab", psi, psi.conj())
    zetas, xis = _axis(axes[0]), _axis(axes[1])
    gammas = np.array([ref.coin_matrix(theta, z, x) for z in zetas for x in xis])
    rhos = ref.local_reduced_densities(gammas, n, sector)
    beta0 = ref.inverse_temperature(ref.reduced_density(HADAMARD.matrix(), grid))
    return _betas(rhos).reshape(zetas.size, xis.size), beta0


def _temp_scan_ops(qw: Any, rng: np.random.Generator) -> list[Op]:
    n = SCAN_N
    ops = []
    for i in range(BLOCH_SCANS):
        coin = _family_coin("generic", n, rng)
        params = qw.CoinParams(coin.theta, coin.zeta, coin.xi, coin.eta)
        want = cache(lambda c=coin: bloch_expected(c, n, BLOCH_AXES))
        ops.append(
            Op(
                f"bloch {i}",
                lambda r, c=params: qw.bloch_temperature_scan(c, n, *BLOCH_AXES),
                lambda out, f=want: _grid_check(out, BLOCH_AXES, *f(), "bloch"),
            )
        )
    scans = []
    for i in range(PHASE_SCANS):
        if i % 2 == 0:
            j = int(rng.integers(n))
            c0, c1 = _spinor(rng)
            grid = _local_grid(n, j, c0, c1)
            scans.append((f"phases {i} local", math.pi / 4, grid, qw.Local(j=j, c0=c0, c1=c1), PHASE_AXES))
        else:
            grid = _dense_grid(rng, n)
            scans.append((f"phases {i} dense", rng.uniform(0.2, 1.3), grid, None, PHASE_AXES))
    j = int(rng.integers(n))
    scans.append(("phases theta=0", 0.0, _local_grid(n, j, 1, 0), qw.Local(j=j), THETA0_AXES))
    for name, theta, grid, spec, axes in scans:
        initial = spec if spec is not None else qw.WalkState.from_grid(grid)
        prop = "diagonal" if spec is not None and theta == math.pi / 4 else None
        want = cache(lambda t=theta, g=grid, a=axes: phase_expected(t, g, a))
        ops.append(
            Op(
                name,
                lambda r, t=theta, s=initial, a=axes: qw.coin_phase_temperature_scan(t, s, n, *a),
                lambda out, f=want, a=axes, p=prop: _grid_check(out, a, *f(), p),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_N = 512
CLI_SCAN_N = 64
CLI_SIM_N = 24
CLI_SIM_TMAX = 2000
CLI_BLOCH_AXES = ((0.0, math.pi, 11), (0.0, 2 * math.pi, 13))
CLI_PHASE_AXES = ((-math.pi, math.pi, 7), (-math.pi, math.pi, 7))


def _axis_args(axes: tuple, ends: tuple[str, str, str, str]) -> list[str]:
    """--axis1/--axis2 in pi literals; the '=' form lets a value start with '-'."""
    (_, _, n1), (_, _, n2) = axes
    return [f"--axis1={ends[0]}:{ends[1]}:{n1}", f"--axis2={ends[2]}:{ends[3]}:{n2}"]


def _pi_token(rng: np.random.Generator) -> tuple[str, float]:
    """A pi-literal angle token such as '-3pi/7' and its value."""
    num, den = int(rng.integers(-12, 13)), int(rng.integers(2, 13))
    return f"{num}pi/{den}", num * math.pi / den


def _coin_spec(rng: np.random.Generator, n: int) -> tuple[str, Coin]:
    theta = int(rng.integers(1, 6))
    m = int(rng.integers(-n, n))
    xi_tok, xi = _pi_token(rng)
    eta_tok, eta = _pi_token(rng)
    spec = f"u2:{theta}pi/13,{m}pi/{n},{xi_tok},{eta_tok}"
    return spec, Coin(theta * math.pi / 13, m * math.pi / n, xi, eta)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _parse_distribution(path: Path) -> np.ndarray:
    if path.suffix == ".json":
        return np.array(json.loads(path.read_text())["pi"])
    rows = _read_csv(path)
    if rows[0] != ["v", "pi_v"]:
        raise ValueError(f"unexpected header {rows[0]}")
    return np.array([float(r[1]) for r in rows[1:]])


def _parse_matrix(path: Path) -> np.ndarray:
    rho = np.zeros((2, 2), dtype=np.complex128)
    if path.suffix == ".json":
        entries = [(e["row"], e["col"], e["re"], e["im"]) for e in json.loads(path.read_text())["entries"]]
    else:
        entries = [(int(a), int(b), float(c), float(d)) for a, b, c, d in _read_csv(path)[1:]]
    for r, c, re, im in entries:
        rho[r, c] = complex(re, im)
    return rho


class _Grid:
    """A temp output read back into the shape of the package's ScanGrid."""

    def __init__(self, path: Path) -> None:
        if path.suffix == ".json":
            data = json.loads(path.read_text())
            self.axis1 = np.array(data["axis1_values"])
            self.axis2 = np.array(data["axis2_values"])
            self.values = np.array(data["ratio"], dtype=float)
            self.reference_temperature = float(data["reference_temperature"])
        else:
            rows = np.array([[float(x) for x in r] for r in _read_csv(path)[1:]])
            self.axis1 = np.unique(rows[:, 0])
            self.axis2 = np.unique(rows[:, 1])
            self.values = rows[:, 2].reshape(self.axis1.size, self.axis2.size)
            self.reference_temperature = math.nan  # CSV does not carry T0


def _cli_ops(qw: Any, rng: np.random.Generator, out_dir: Path) -> list[Op]:
    cli_dir = out_dir / "cli"
    cli_dir.mkdir(parents=True, exist_ok=True)
    for old in cli_dir.glob("r*-*"):
        old.unlink()

    state_grid = _dense_grid(rng, CLI_N)
    raw = cli_dir / "state.csv"
    with open(raw, "w", newline="") as fh:
        w = csv.writer(fh)
        for s in range(2):
            for j in range(CLI_N):
                z = state_grid[s, j]
                w.writerow([s, j, repr(float(z.real)), repr(float(z.imag))])
    coin_spec, coin = _coin_spec(rng, CLI_N)
    ld_ref = cache(lambda: ref.limiting_distribution(coin.matrix(), state_grid))
    rho_ref = cache(lambda: ref.reduced_density(coin.matrix(), state_grid))

    j_local = int(rng.integers(CLI_N))
    c0, c1 = _spinor(rng)
    local_init = f"local:{j_local},{c0.real!r},{c0.imag!r},{c1.real!r},{c1.imag!r}"
    local_ref = cache(
        lambda: ref.reduced_density(coin.matrix(), _local_grid(CLI_N, j_local, c0, c1))
    )

    scan_spec, scan_coin = _coin_spec(rng, CLI_SCAN_N)
    j = int(rng.integers(CLI_SCAN_N))
    bloch_ref = cache(lambda: bloch_expected(scan_coin, CLI_SCAN_N, CLI_BLOCH_AXES))
    phase_ref = cache(
        lambda: phase_expected(math.pi / 4, _local_grid(CLI_SCAN_N, j, 1, 0), CLI_PHASE_AXES)
    )

    sim_spec, sim_coin = _coin_spec(rng, CLI_SIM_N)
    pair = int(rng.integers(1, CLI_SIM_N))
    sim_ref = cache(
        lambda: ref.window_average(sim_coin.matrix(), _pair_grid(CLI_SIM_N, pair), CLI_SIM_TMAX)
    )

    closed = ["-N", str(CLI_N), "--coin", coin_spec]
    bloch = ["temp", "-N", str(CLI_SCAN_N), "--scan", "bloch", "--coin", scan_spec,
             *_axis_args(CLI_BLOCH_AXES, ("0", "pi", "0", "2pi"))]
    phases = ["temp", "-N", str(CLI_SCAN_N), "--scan", "phases", "--theta", "pi/4",
              "--init", f"local:{j}", *_axis_args(CLI_PHASE_AXES, ("-pi", "pi", "-pi", "pi"))]
    simulate = ["simulate", "-N", str(CLI_SIM_N), "--coin", sim_spec, "--init", f"entangled:{pair}",
                "--tmax", str(CLI_SIM_TMAX)]
    json_out = ["--format", "json"]

    def pi_check(path: Path) -> str | None:
        return _close("pi", _parse_distribution(path), ld_ref(), LD_TOL)

    def rho_check(path: Path) -> str | None:
        return _close("rho_c", _parse_matrix(path), rho_ref(), RHO_TOL)

    commands = [
        ("ld.csv", ["ld", *closed, "--init", f"raw:@{raw}"], pi_check),
        ("ld.json", ["ld", *closed, "--init", f"raw:@{raw}", *json_out], pi_check),
        ("rdcm.csv", ["rdcm", *closed, "--init", f"raw:@{raw}"], rho_check),
        ("rdcm.json", ["rdcm", *closed, "--init", f"raw:@{raw}", *json_out], rho_check),
        ("rdcm-local.csv", ["rdcm", *closed, "--init", local_init],
         lambda path: _close("rho_c", _parse_matrix(path), local_ref(), RHO_TOL)),
        ("temp-bloch.csv", bloch,
         lambda path: _grid_check(_Grid(path), CLI_BLOCH_AXES, *bloch_ref())),
        ("temp-bloch.json", bloch + json_out,
         lambda path: _grid_check(_Grid(path), CLI_BLOCH_AXES, *bloch_ref())),
        ("temp-phases.json", phases + json_out,
         lambda path: _grid_check(_Grid(path), CLI_PHASE_AXES, *phase_ref(), True)),
        ("simulate.csv", simulate,
         lambda path: _close("time-averaged pi", _parse_distribution(path), sim_ref()[0], LD_TOL)),
        ("simulate-reduce.json", simulate + ["--reduce", *json_out],
         lambda path: _close("time-averaged rho_c", _parse_matrix(path), sim_ref()[1], RHO_TOL)),
    ]
    ops = []
    for name, argv, parse_check in commands:
        def run(r: int, argv: list[str] = argv, name: str = name) -> tuple[int, Path]:
            path = cli_dir / f"r{r}-{name}"
            return qw.cli.main(argv + ["--out", str(path)]), path

        def check(out: tuple[int, Path], parse_check: Callable = parse_check) -> str | None:
            code, path = out
            return f"exit code {code}" if code != 0 else parse_check(path)

        ops.append(Op(f"cli {name}", run, check))
    return ops


def reference_self_check() -> float:
    """Pin the block reference to the dense 2N x 2N one on small cycles,
    for every coin family the workloads use; returns the largest gap."""
    rng = np.random.default_rng(FIXED_SEED)
    cases = []
    for n in (6, 7, 8, 12):
        coins = [_family_coin(f, n, rng) for f in ("grid", "generic", "near0")]
        coins.append(Coin(math.pi / 2, math.pi / 4, 0.3))
        for coin in coins:
            grids = (_dense_grid(rng, n), _local_grid(n, 1, *_spinor(rng)), _pair_grid(n, n // 2))
            cases += [(coin.matrix(), g) for g in grids]
    return ref.self_check(cases)


def build(name: str, seed: int, out_dir: Path) -> list[Op]:
    """Import the package, make the inputs for ``seed`` and list the operations."""
    import qwcycle as qw
    import qwcycle.cli  # noqa: F401  (not imported by the package itself)

    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name == "closed_form":
        return _closed_form_ops(qw, rng)
    if name == "oracle_sweep":
        return _oracle_sweep_ops(qw, rng)
    if name == "temp_scan":
        return _temp_scan_ops(qw, rng)
    if name == "cli":
        return _cli_ops(qw, rng, out_dir)
    raise ValueError(f"unknown workload {name!r}")
