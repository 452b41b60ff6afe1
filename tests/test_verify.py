import math

import numpy as np
import pytest

from qwcycle.coin import CoinParams, build_coin
from qwcycle.evolution import _doubled_sums, _stepped_sums, _window_sums
from qwcycle.reference import reduce_to_coin, time_avg_density
from qwcycle.state import EntangledPair, Local, WalkState, make_state
from qwcycle.verify import THETA_RANGE, VerifyConfig, run_verification, sample_coins

TINY = VerifyConfig(n_values=(3, 4), coins_per_n=4, states_per_coin=2, t_max=5_000, seed=11)


def _random_grid(rng, n):
    z = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    return z / np.linalg.norm(z)


def _density_marginals(state, coin, t):
    """The node distribution and reduced coin density of the literal np.roll
    2N x 2N average."""
    n = state.n_nodes
    full = time_avg_density(state, coin, t)
    return np.einsum("sjsj->j", full.reshape(2, n, 2, n)).real, reduce_to_coin(full)


def test_sampled_coins_hit_the_degeneracy_grid(rng):
    n = 9
    coins = sample_coins(rng, n, 10)
    assert len(coins) == 10
    for i, coin in enumerate(coins):
        assert THETA_RANGE[0] <= coin.theta <= THETA_RANGE[1]
        if i % 2 == 0:
            m = n * (1.0 + coin.zeta / math.pi)
            assert abs(m - round(m)) < 1e-9


def test_batched_window_sums_match_density_reference(rng):
    """Both routes, pinned per instance to the literal np.roll 2N x 2N average,
    and the doubling route to the step loop, on every short bit pattern of the
    window and on degenerate coins."""
    n, t, count = 5, 400, 4
    coins = sample_coins(rng, n, count)
    mats = np.array([build_coin(c) for c in coins])
    z = rng.standard_normal((count, 2, n)) + 1j * rng.standard_normal((count, 2, n))
    z /= np.linalg.norm(z.reshape(count, -1), axis=1)[:, None, None]

    dist, rho = _window_sums(mats, z, t)
    assert dist.shape == (count, n) and rho.shape == (count, 2, 2)
    for x in range(count):
        node_marginal, coin_marginal = _density_marginals(WalkState.from_grid(z[x]), mats[x], t)
        assert np.abs(dist[x] - node_marginal).max() < 1e-13
        assert np.abs(rho[x] - coin_marginal).max() < 1e-13

    windows = (1, 2, 3, 4, 7, 3000)
    for n in (2, 3, 8, 12, 40, 61):
        states = [
            WalkState.from_grid(_random_grid(rng, n)),
            make_state(Local(n // 2, 0.6, 0.8j), n),
            make_state(EntangledPair(n // 2), n),
        ]
        grids = np.stack([s.as_grid() for s in states])
        for theta in (0.9, 0.0, math.pi / 2):
            mat = build_coin(CoinParams(theta, -0.4, 1.3, 0.2))
            # read-only, as the acceptance fixture passes it
            stack = np.broadcast_to(mat, (len(states), 2, 2))
            for t in windows:
                dist, rho = _doubled_sums(stack, grids, t)
                step_dist, step_rho = _stepped_sums(stack, grids, t)
                assert np.abs(dist - step_dist).max() <= 1e-13, (n, theta, t)
                assert np.abs(rho - step_rho).max() <= 1e-13, (n, theta, t)
                if t > 7 and n != 8:
                    continue  # the literal average is slow at long windows; one size carries them
                for x, state in enumerate(states):
                    node_marginal, coin_marginal = _density_marginals(state, mat, t)
                    assert np.abs(dist[x] - node_marginal).max() <= 1e-13, (n, theta, t, x)
                    assert np.abs(rho[x] - coin_marginal).max() <= 1e-13, (n, theta, t, x)


def test_window_sums_pick_the_cheaper_route(monkeypatch):
    # doubling costs ~(2N)^3 per walk and bit of t_max, the step loop a time
    # per step that grows with X N; the spies record the route without running it
    taken = []
    for name in ("_doubled_sums", "_stepped_sums"):
        monkeypatch.setattr(f"qwcycle.evolution.{name}", lambda *args, name=name: taken.append(name))
    coin = build_coin(CoinParams(0.9, -0.4, 1.3, 0.2))
    cases = {
        (1, 8, 200_000): "_doubled_sums",
        (1, 400, 50): "_stepped_sums",
        (2, 64, 40_000): "_doubled_sums",  # the bench's oracle_sweep stack
        (100, 64, 2000): "_stepped_sums",  # verify's default 20 x 5 draws
        (100, 64, 20_000): "_doubled_sums",
        (1, 600, 10**9): "_stepped_sums",  # doubling's buffers would pass 64 MiB
    }
    for x, n, t in cases:
        grids = np.broadcast_to(make_state(Local(0), n).as_grid(), (x, 2, n))
        _window_sums(np.broadcast_to(coin, (x, 2, 2)), grids, t)
    assert taken == list(cases.values())


def test_small_sweep_passes():
    report = run_verification(TINY)
    assert report.passed
    assert report.max_ld_deviation < TINY.tolerance
    assert report.max_rho_deviation < TINY.tolerance
    assert report.max_density_defect < 1e-10
    lines = report.summary_lines()
    assert lines[-1].endswith("PASS")
    assert len(lines) == len(TINY.n_values) + 1


def test_fixed_seed_reproduces_identical_report():
    a = run_verification(TINY)
    b = run_verification(TINY)
    assert a.summary_lines() == b.summary_lines()
    assert a.cases == b.cases


def test_config_rejects_counts_that_are_not_whole():
    bad_values = (
        {"t_max": 0},
        {"t_max": 2.5},
        {"n_values": (3.5,)},
        {"coins_per_n": 1.5},
        {"tolerance": math.inf},
    )
    for bad in bad_values:
        with pytest.raises(ValueError):
            VerifyConfig(**bad)
    config = VerifyConfig(n_values=(3.0,), t_max=1e3)
    assert config.n_values == (3,) and config.t_max == 1000 and type(config.t_max) is int


def test_insufficient_averaging_is_reported_as_failure():
    report = run_verification(
        VerifyConfig(n_values=(3,), coins_per_n=2, states_per_coin=2, t_max=10, seed=11)
    )
    assert not report.passed
    lines = report.summary_lines()
    assert lines[-2].endswith("FAIL")
    assert "worst configuration" in lines[-1]
