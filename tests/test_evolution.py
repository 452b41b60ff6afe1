import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwcycle.coin import CoinParams, build_coin, hadamard_params
from qwcycle.evolution import (
    apply_shift,
    check_density,
    check_distribution,
    check_reduced_density,
    evolve,
    position_distribution,
    reduce_to_coin,
    step,
    time_avg_density,
    time_avg_distribution,
    time_avg_reduced_density,
)
from qwcycle.state import Local, WalkState, make_state

angle = st.floats(min_value=-3.2, max_value=3.2, allow_nan=False)


def random_state(rng, n):
    z = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    return WalkState.from_grid(z / np.linalg.norm(z))


def test_shift_moves_chiralities_oppositely():
    s = make_state(Local(j=2, c0=0.6, c1=0.8), 5)
    g = apply_shift(s).as_grid()
    assert abs(g[0, 3] - 0.6) < 1e-15
    assert abs(g[1, 1] - 0.8) < 1e-15


@given(angle, angle, angle, angle, st.integers(min_value=2, max_value=20))
@settings(max_examples=40, deadline=None)
def test_step_preserves_norm(theta, zeta, xi, eta, n):
    coin = build_coin(CoinParams(theta, zeta, xi, eta))
    rng = np.random.default_rng(42)
    s = random_state(rng, n)
    out = step(s, coin)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_identity_coin_walks_forward():
    # coin |0> walker under the identity coin translates one node per step
    n, t = 7, 11
    s = make_state(Local(0), n)
    out = evolve(s, np.eye(2, dtype=complex), t)
    expect = np.zeros((2, n), dtype=complex)
    expect[0, t % n] = 1.0
    assert np.array_equal(out.as_grid(), expect)


def test_evolve_equals_repeated_step(rng):
    coin = build_coin(CoinParams(0.9, -0.4, 1.3, 0.2))
    s = random_state(rng, 6)
    manual = s
    for _ in range(7):
        manual = step(manual, coin)
    # identical arithmetic, then the drift of the final norm is divided out
    grid = manual.as_grid()
    assert np.array_equal(evolve(s, coin, 7).as_grid(), grid / np.linalg.norm(grid))


def test_evolve_rejects_negative_t():
    s = make_state(Local(0), 4)
    with pytest.raises(ValueError):
        evolve(s, np.eye(2, dtype=complex), -1)


def test_long_run_norm_stability():
    # raw drift over a million steps stays tiny, and evolve() strips it
    coin = build_coin(hadamard_params())
    s = make_state(Local(0), 8)
    grid = s.as_grid().copy()
    for _ in range(1_000_000):
        grid = coin @ grid
        grid[0] = np.roll(grid[0], 1)
        grid[1] = np.roll(grid[1], -1)
    assert abs(np.linalg.norm(grid) - 1.0) < 1e-9
    out = evolve(s, coin, 1_000_000)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12
    assert np.abs(out.as_grid() - grid / np.linalg.norm(grid)).max() < 1e-15


def test_evolve_rejects_non_unitary_coin():
    s = make_state(Local(0), 4)
    with pytest.raises(ValueError):
        evolve(s, 1.01 * np.eye(2, dtype=complex), 2_000)


def test_reduced_average_consistent_with_full_density(rng):
    coin = build_coin(CoinParams(0.7, 0.5, -0.9, 0.0))
    s = random_state(rng, 5)
    full = time_avg_density(s, coin, 300)
    check_density(full)
    direct = time_avg_reduced_density(s, coin, 300)
    assert np.abs(direct - reduce_to_coin(full)).max() < 1e-13


def test_distribution_average_consistent_with_full_density(rng):
    coin = build_coin(CoinParams(1.1, 0.0, 0.4, -0.3))
    s = random_state(rng, 6)
    full = time_avg_density(s, coin, 200)
    node_marginal = np.einsum("sjsj->j", full.reshape(2, 6, 2, 6)).real
    avg = time_avg_distribution(s, coin, 200)
    assert np.abs(avg - node_marginal).max() < 1e-13
    check_distribution(avg)


def test_position_distribution():
    s = make_state(Local(2, 0.6, 0.8), 5)
    d = position_distribution(s)
    assert abs(d[2] - 1.0) < 1e-15
    assert abs(d.sum() - 1.0) < 1e-15


def test_reduce_to_coin_block_trace():
    # build a density with known coin marginal: |+><+| on coin, uniform on 3 nodes
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    rho = np.kron(np.outer(plus, plus), np.eye(3) / 3)
    out = reduce_to_coin(rho)
    assert np.abs(out - np.outer(plus, plus)).max() < 1e-14
    with pytest.raises(ValueError):
        reduce_to_coin(np.eye(5))


def test_time_average_requires_positive_window():
    s = make_state(Local(0), 4)
    coin = np.eye(2, dtype=complex)
    for fn in (time_avg_density, time_avg_distribution, time_avg_reduced_density):
        for t_max in (0, 2.5, math.inf, math.nan):  # the average divides by t_max
            with pytest.raises(ValueError):
                fn(s, coin, t_max)


def test_checks_reject_defects():
    with pytest.raises(ValueError):
        check_density(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        check_density(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        check_density(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        check_reduced_density(np.eye(4) / 4)  # wrong shape
    with pytest.raises(ValueError):
        check_distribution(np.array([0.7, 0.2]))
    with pytest.raises(ValueError):
        check_distribution(np.array([1.1, -0.1]))
    with pytest.raises(ValueError):
        check_distribution(np.full(4, np.nan))
    for rho in (np.full((2, 2), np.nan), np.diag([np.nan, 1.0])):
        with pytest.raises(ValueError):
            check_density(rho)
    check_distribution(np.array([0.25, 0.75]))


def test_time_average_convergence_rate():
    """The finite-window average approaches the closed form like ~1/t."""
    from qwcycle.asymptotics import limiting_distribution

    coin_params = hadamard_params()
    coin = build_coin(coin_params)
    s = make_state(Local(0), 6)
    target = limiting_distribution(s, coin_params)
    dev = {
        t: np.abs(time_avg_distribution(s, coin, t) - target).max()
        for t in (1_000, 10_000)
    }
    assert dev[10_000] < dev[1_000] * 0.5
    assert dev[10_000] < 1e-3
