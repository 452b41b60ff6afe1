"""End-to-end acceptance checks, one test per advertised guarantee.

Each test prints one pass/fail line under ``pytest -v``.  The two oracle
sweeps (criteria 3/4 and 8) run once as session fixtures and the tests
assert on the recorded reports.
"""

import dataclasses
import math

import numpy as np
import pytest

from qwcycle.asymptotics import asymptotic_reduced_density, limiting_distribution
from qwcycle.coin import CoinParams, build_coin, hadamard_params
from qwcycle.evolution import _window_sums
from qwcycle.reference import (
    characteristic_sums,
    degeneracy_table,
    hadamard_local_ld,
    m_kk_closed_form,
    m_matrix,
    solve_all_blocks,
    solve_block,
    theta_matrix,
)
from qwcycle.state import (
    EntangledPair,
    Local,
    SeparablePair,
    WalkState,
    make_state,
    momentum_spinors,
)
from qwcycle.thermo import coin_phase_temperature_scan
from qwcycle.verify import VerifyConfig, run_verification

# ---------------------------------------------------------------------------
# shared expensive fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def sweep_report():
    """The full randomized differential sweep: N in 3..12, 20 coins x 5 states
    per size, averaged over 2e5 steps (the VerifyConfig defaults)."""
    return run_verification(VerifyConfig())


@pytest.fixture(scope="session")
def pair_state_data():
    """Closed-form and brute-force distributions for the non-local pair states:
    N in {60, 62}, offsets p in {20, 22}, entangled and separable variants."""
    coin = hadamard_params()
    mat = build_coin(coin)
    out = {}
    for n in (60, 62):
        specs = {}
        for p in (20, 22):
            specs[(n, p, "entangled")] = EntangledPair(p)
            specs[(n, p, "separable")] = SeparablePair(p)
        states = [make_state(spec, n) for spec in specs.values()]
        # the four walks of one size share a coin, so one call averages them
        grids = np.stack([state.as_grid() for state in states])
        oracles, _ = _window_sums(np.broadcast_to(mat, (len(states), 2, 2)), grids, 200_000)
        for key, state, oracle in zip(specs, states, oracles):
            out[key] = (limiting_distribution(state, coin), oracle)
    return out


def _random_dense_state(rng, n):
    z = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    return WalkState.from_grid(z / np.linalg.norm(z))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_odd_cycle_uniformity():
    coin = hadamard_params()
    spinors = [
        Local(0),
        Local(1, 0.0, 1.0),
        Local(2, 1.0, 1.0j),
        Local(0, 0.6, 0.8j),
    ]
    worst = 0.0
    for n in (3, 5, 7, 9, 11):
        for spec in spinors:
            if spec.j >= n:
                continue
            ld = limiting_distribution(make_state(spec, n), coin)
            worst = max(worst, float(np.abs(ld - 1.0 / n).max()))
    assert worst < 1e-12


def test_criterion_02_even_cycle_closed_form():
    coin = hadamard_params()
    worst = 0.0
    for n in (4, 6, 8, 10, 60):
        ld = limiting_distribution(make_state(Local(0), n), coin)
        worst = max(worst, float(np.abs(ld - hadamard_local_ld(n)).max()))
    assert worst < 1e-12


def test_criterion_03_limiting_distribution_matches_oracle(sweep_report):
    assert sweep_report.max_ld_deviation < 1e-2, "\n".join(sweep_report.summary_lines())


def test_criterion_04_reduced_density_matches_oracle(sweep_report):
    assert sweep_report.max_rho_deviation < 1e-2, "\n".join(sweep_report.summary_lines())
    # both the closed-form and brute-force matrices must be genuine densities
    assert sweep_report.max_density_defect < 1e-10


def test_criterion_05_characteristic_matrix_closed_form():
    rng = np.random.default_rng(501)
    checked, worst = 0, 0.0
    while checked < 200:
        coin = CoinParams(*rng.uniform(-math.pi, math.pi, size=4))
        n = int(rng.integers(3, 41))
        kb = solve_block(int(rng.integers(0, n)), coin, n)
        if abs(math.sin(kb.alpha)) <= 1e-6:
            continue
        dev = float(np.abs(m_matrix(kb, kb) - m_kk_closed_form(kb, coin)).max())
        worst = max(worst, dev)
        checked += 1
    assert worst < 1e-10


def test_criterion_06_theta_trace_completeness():
    rng = np.random.default_rng(601)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 31))
        coin = CoinParams(*rng.uniform(-math.pi, math.pi, size=4))
        psis = momentum_spinors(_random_dense_state(rng, n))
        total = sum(
            np.trace(theta_matrix(m_matrix(kb, kb), psis[:, kb.k], psis[:, kb.k]))
            for kb in solve_all_blocks(coin, n)
        )
        worst = max(worst, abs(total - 1.0))
    assert worst < 1e-10


def test_criterion_07_temperature_diagonal_and_hot_spots():
    state = Local(0, math.cos(math.pi / 8), math.sin(math.pi / 8))
    grid = coin_phase_temperature_scan(
        math.pi / 4,
        state,
        100,
        zeta_axis=(-math.pi, math.pi, 51),
        xi_axis=(-math.pi, math.pi, 51),
    )
    diagonal = np.diagonal(grid.values)  # the zeta = xi line, 51 points
    assert np.abs(diagonal - 1.0).max() < 1e-9
    assert grid.values.max() > 6.0


def test_criterion_08_nonlocal_pair_distributions(pair_state_data):
    for (n, p, label), (closed, oracle) in pair_state_data.items():
        assert abs(closed.sum() - 1.0) < 1e-10, (n, p, label)
        dev = float(np.abs(closed - oracle).max())
        assert dev < 1e-2, f"N={n} p={p} {label}: oracle deviation {dev:.3e}"


def test_criterion_09_invariance_suite():
    rng = np.random.default_rng(901)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(4, 13))
        theta = rng.uniform(0.1, 1.45)
        if trial % 2 == 0:  # keep half the draws on the degeneracy grid
            zeta = int(rng.integers(-n, n + 1)) * math.pi / n
        else:
            zeta = rng.uniform(-math.pi, math.pi)
        coin = CoinParams(theta, zeta, rng.uniform(-math.pi, math.pi),
                          rng.uniform(-math.pi, math.pi))
        state = _random_dense_state(rng, n)
        ld = limiting_distribution(state, coin)
        rho = asymptotic_reduced_density(state, coin)

        # (a) shifting the coin's global phase
        shifted = dataclasses.replace(coin, eta=coin.eta + rng.uniform(0.1, 3.0))
        worst = max(worst, float(np.abs(limiting_distribution(state, shifted) - ld).max()))
        worst = max(worst, float(np.abs(asymptotic_reduced_density(state, shifted) - rho).max()))

        # (b) multiplying the initial state by a global phase
        phased = WalkState.from_grid(state.as_grid() * np.exp(1j * rng.uniform(0.1, 6.0)))
        worst = max(worst, float(np.abs(limiting_distribution(phased, coin) - ld).max()))
        worst = max(worst, float(np.abs(asymptotic_reduced_density(phased, coin) - rho).max()))

        # (c) re-gauging every eigenvector by a random phase
        blocks = solve_all_blocks(coin, n)
        gauged = tuple(
            dataclasses.replace(
                kb, vectors=kb.vectors * np.exp(1j * rng.uniform(0, 2 * math.pi, size=2))
            )
            for kb in blocks
        )
        psis = momentum_spinors(state)
        for variant in (blocks, gauged):
            pi_v, rho_v = characteristic_sums(
                variant, psis, degeneracy_table(coin, n).cross_pairs()
            )
            worst = max(worst, float(np.abs(rho_v - rho).max()))
            worst = max(worst, float(np.abs(pi_v - ld).max()))
    assert worst < 1e-12
