import math

import numpy as np
import pytest

from qwcycle.coin import build_coin
from qwcycle.evolution import _window_sums
from qwcycle.reference import reduce_to_coin, time_avg_density
from qwcycle.state import WalkState
from qwcycle.verify import THETA_RANGE, VerifyConfig, run_verification, sample_coins

TINY = VerifyConfig(n_values=(3, 4), coins_per_n=4, states_per_coin=2, t_max=5_000, seed=11)


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
    """The batched kernel, pinned per instance to the literal np.roll 2N x 2N average."""
    n, t, count = 5, 400, 4
    coins = sample_coins(rng, n, count)
    mats = np.array([build_coin(c) for c in coins])
    z = rng.standard_normal((count, 2, n)) + 1j * rng.standard_normal((count, 2, n))
    z /= np.linalg.norm(z.reshape(count, -1), axis=1)[:, None, None]

    dist, rho = _window_sums(mats, z, t)
    assert dist.shape == (count, n) and rho.shape == (count, 2, 2)
    for x in range(count):
        full = time_avg_density(WalkState.from_grid(z[x]), mats[x], t)
        node_marginal = np.einsum("sjsj->j", full.reshape(2, n, 2, n)).real
        assert np.abs(dist[x] - node_marginal).max() < 1e-13
        assert np.abs(rho[x] - reduce_to_coin(full)).max() < 1e-13


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
