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

All (coin, state) instances of one N are averaged together by
``evolution._window_sums``, the averaging behind ``time_avg_distribution`` and
``time_avg_reduced_density``.  At the default sweep's sizes it takes the
binary doubling route, which sums the t_max-step window exactly on the 2x2
momentum blocks of U^m.  The window sum S is Hermitian and the averages read
only its wrapped diagonals, so it keeps the diagonals d = 0..N/2 alone, in
O(N^2 / 2) elementwise work per bit of t_max.  It uses no eigenvalue and no
degeneracy tolerance, only translation invariance, and nothing from
``spectral``, ``asymptotics`` or ``state.momentum_spinors``; unit tests pin it
to the step loop ``evolve`` runs and to the literal ``np.roll`` oracle kept in
``qwcycle.reference``, the 2N x 2N average ``reference.time_avg_density``.

Every closed-form and oracle coin density is also scored as a density: its
Hermiticity residual, |trace - 1| and how far its lower eigenvalue, read off
the 2x2 closed form the temperatures use, falls below 0.  The worst of these
is ``max_density_defect``.  ``qwcycle verify`` takes its defaults from
``VerifyConfig``, so a bare call runs the sweep ``run_verification()`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .asymptotics import asymptotic_reduced_density, limiting_distribution
from .coin import CoinParams, build_coin
from .evolution import _density_residuals, _window_sums
from .state import WalkState, _whole

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
        # counts are stored as ints, so a bad one fails here and not mid-run
        if not self.n_values:
            raise ValueError("n_values must name at least one cycle size")
        n_values = tuple(_whole(n, 2, "every n_values entry") for n in self.n_values)
        object.__setattr__(self, "n_values", n_values)
        for name in ("coins_per_n", "states_per_coin", "t_max"):
            object.__setattr__(self, name, _whole(getattr(self, name), 1, name))
        if not 0 < self.tolerance < np.inf:
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")


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
    max_density_defect: float


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
    """Random coins for one cycle size; the even draws (i = 0, 2, ...) pin zeta
    to the pi/N grid (integer multiples, so the degeneracy condition holds exactly)."""
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


def _random_states(rng: np.random.Generator, n_nodes: int, count: int) -> NDArray[np.complex128]:
    """(count, 2, N) stack of dense normalized random states."""
    z = rng.standard_normal((count, 2, n_nodes)) + 1j * rng.standard_normal((count, 2, n_nodes))
    z /= np.sqrt((z.conj() * z).real.reshape(count, -1).sum(axis=1))[:, None, None]
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

        instances = [(WalkState.from_grid(grid), coins[x // k]) for x, grid in enumerate(grids)]
        lds = np.array([limiting_distribution(s, c) for s, c in instances])
        rhos = np.array([asymptotic_reduced_density(s, c) for s, c in instances])
        ld_devs = np.abs(lds - avg_dist).max(axis=1)
        rho_devs = np.abs(rhos - avg_rho).max(axis=(1, 2))
        defects = _density_residuals(np.concatenate([rhos, avg_rho]))
        # np.max, unlike max(), keeps NaN; argmax names the first worst instance
        cases.append(
            CaseResult(
                n_nodes=n,
                max_ld_deviation=float(np.max(ld_devs)),
                max_rho_deviation=float(np.max(rho_devs)),
                worst_ld_coin=coins[int(np.argmax(ld_devs)) // k],
                worst_rho_coin=coins[int(np.argmax(rho_devs)) // k],
                max_density_defect=float(np.max(defects)),
            )
        )
    return VerifyReport(config=config, cases=tuple(cases))
