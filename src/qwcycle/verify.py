"""Randomized differential verification: closed forms vs. brute-force averages.

For each cycle size the sweep draws random U(2) coins (half of them with
zeta on the pi/N grid so the degeneracy pairing actually fires) and random
dense initial states, then compares

  * ``limiting_distribution``        vs. the time-averaged node distribution
  * ``asymptotic_reduced_density``   vs. the time-averaged coin density

from direct evolution over t_max steps.  A finite average converges to the
asymptotic value like ~1/(t_max * gap), where gap is the smallest nonzero
eigenphase separation; theta is sampled inside [0.1, 1.35] to keep the gap
healthy (theta near 0 or pi/2 sends some gaps to zero, where no practical
t_max resolves the limit).

All (coin, state) instances of one N evolve together through
``evolution._window_sums``, the same loop behind ``time_avg_distribution``
and ``time_avg_reduced_density``; a unit test pins it to the literal 2N x 2N
average ``time_avg_density``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .asymptotics import asymptotic_reduced_density, limiting_distribution
from .coin import CoinParams, build_coin
from .evolution import _window_sums
from .state import WalkState

__all__ = ["VerifyConfig", "CaseResult", "VerifyReport", "sample_coins", "run_verification"]

THETA_RANGE = (0.1, 1.35)


@dataclass(frozen=True)
class VerifyConfig:
    """Sweep shape: sizes, draw counts, averaging horizon, tolerance, seed."""

    n_values: tuple[int, ...] = tuple(range(3, 13))
    coins_per_n: int = 20
    states_per_coin: int = 5
    t_max: int = 200_000
    tolerance: float = 1e-2
    seed: int = 7

    def __post_init__(self) -> None:
        if not self.n_values or min(self.n_values) < 2:
            raise ValueError(f"n_values must be cycle sizes >= 2, got {self.n_values!r}")
        if self.coins_per_n < 1 or self.states_per_coin < 1:
            raise ValueError(
                f"need >= 1 coin per N and state per coin, got {self.coins_per_n} "
                f"and {self.states_per_coin}"
            )


@dataclass(frozen=True)
class CaseResult:
    """Largest deviations found for one cycle size, with repro pointers."""

    n_nodes: int
    max_ld_deviation: float
    max_rho_deviation: float
    worst_ld_coin: CoinParams
    worst_rho_coin: CoinParams
    # worst density-matrix validity defect (hermiticity / trace-1 / negative
    # eigenvalue) over both the closed-form and oracle matrices
    max_density_defect: float = 0.0


@dataclass(frozen=True)
class VerifyReport:
    config: VerifyConfig
    cases: tuple[CaseResult, ...] = field(default_factory=tuple)

    @property
    def max_ld_deviation(self) -> float:
        return max(c.max_ld_deviation for c in self.cases)

    @property
    def max_rho_deviation(self) -> float:
        return max(c.max_rho_deviation for c in self.cases)

    @property
    def max_density_defect(self) -> float:
        return max(c.max_density_defect for c in self.cases)

    @property
    def passed(self) -> bool:
        tol = self.config.tolerance
        return self.max_ld_deviation < tol and self.max_rho_deviation < tol

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.cases:
            lines.append(
                f"N={c.n_nodes:3d}  max|LD - oracle| = {c.max_ld_deviation:.3e}  "
                f"max|rho_c - oracle| = {c.max_rho_deviation:.3e}"
            )
        lines.append(
            f"overall: LD {self.max_ld_deviation:.3e}, rho_c {self.max_rho_deviation:.3e}, "
            f"tolerance {self.config.tolerance:.1e} -> {'PASS' if self.passed else 'FAIL'}"
        )
        if not self.passed:
            worst = max(self.cases, key=lambda c: max(c.max_ld_deviation, c.max_rho_deviation))
            lines.append(
                f"worst configuration: N={worst.n_nodes}, LD coin {worst.worst_ld_coin}, "
                f"rho coin {worst.worst_rho_coin}, seed {self.config.seed}"
            )
        return lines


def sample_coins(rng: np.random.Generator, n_nodes: int, count: int) -> list[CoinParams]:
    """Random coins for one cycle size; odd draws pin zeta to the pi/N grid
    (integer multiples, so the degeneracy condition holds exactly)."""
    coins = []
    for i in range(count):
        theta = rng.uniform(*THETA_RANGE)
        if i % 2 == 0:
            m = int(rng.integers(-n_nodes, n_nodes + 1))
            zeta = m * np.pi / n_nodes
        else:
            zeta = rng.uniform(-np.pi, np.pi)
        xi = rng.uniform(-np.pi, np.pi)
        eta = rng.uniform(-np.pi, np.pi)
        coins.append(CoinParams(theta=theta, zeta=zeta, xi=xi, eta=eta))
    return coins


def _density_defect(rho: NDArray[np.complex128]) -> float:
    """How far a 2x2 matrix is from being a density matrix: the worst of the
    hermiticity residual, |trace - 1|, and any negative eigenvalue."""
    herm = float(np.abs(rho - rho.conj().T).max())
    tr = float(abs(np.trace(rho) - 1.0))
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    neg = float(max(0.0, -w.min()))
    return max(herm, tr, neg)


def _random_states(rng: np.random.Generator, n_nodes: int, count: int) -> NDArray[np.complex128]:
    """(count, 2, N) stack of dense normalized random states."""
    z = rng.standard_normal((count, 2, n_nodes)) + 1j * rng.standard_normal((count, 2, n_nodes))
    z /= np.linalg.norm(z.reshape(count, -1), axis=1)[:, None, None]
    return z


def run_verification(config: VerifyConfig = VerifyConfig()) -> VerifyReport:
    """Run the full sweep and report per-N worst deviations."""
    rng = np.random.default_rng(config.seed)
    cases = []
    for n in config.n_values:
        coins = sample_coins(rng, n, config.coins_per_n)
        k = config.states_per_coin
        grids = np.concatenate([_random_states(rng, n, k) for _ in coins])
        mats = np.repeat([build_coin(c) for c in coins], k, axis=0)
        avg_dist, avg_rho = _window_sums(mats, grids, config.t_max)

        max_ld, max_rho, max_defect = 0.0, 0.0, 0.0
        worst_ld_coin = worst_rho_coin = coins[0]
        for x, grid in enumerate(grids):
            coin = coins[x // k]
            state = WalkState.from_grid(grid)
            ld = limiting_distribution(state, coin)
            rho = asymptotic_reduced_density(state, coin)
            ld_dev = float(np.abs(ld - avg_dist[x]).max())
            rho_dev = float(np.abs(rho - avg_rho[x]).max())
            max_defect = max(max_defect, _density_defect(rho), _density_defect(avg_rho[x]))
            if ld_dev > max_ld:
                max_ld, worst_ld_coin = ld_dev, coin
            if rho_dev > max_rho:
                max_rho, worst_rho_coin = rho_dev, coin
        cases.append(
            CaseResult(
                n_nodes=n,
                max_ld_deviation=max_ld,
                max_rho_deviation=max_rho,
                worst_ld_coin=worst_ld_coin,
                worst_rho_coin=worst_rho_coin,
                max_density_defect=max_defect,
            )
        )
    return VerifyReport(config=config, cases=tuple(cases))
