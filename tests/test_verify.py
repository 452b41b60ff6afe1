import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qwcycle import evolution
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


def test_batched_window_sums_match_density_reference(monkeypatch, rng):
    """Both routes, pinned per instance to the literal np.roll 2N x 2N average,
    and the doubling route to the step loop, on every short bit pattern of the
    window, on degenerate coins and across the seed's boundaries; a chunked
    run changes no bit."""
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

    for n in (2, 3, 8, 12, 40, 61):
        # the seed steps the top bits m0 <= 2N of the window and doubling takes
        # the rest: T = 2N is all seed, 2N + 1 and 4N - 1..4N + 1 cross over
        windows = (1, 2, 3, 4, 7, 2 * n, 2 * n + 1, 4 * n - 1, 4 * n, 4 * n + 1, 3000)
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
                if t > 7 and n != 8 and (n > 12 or t > 4 * n + 1):
                    continue  # the literal average is slow at long windows; small sizes carry them
                for x, state in enumerate(states):
                    node_marginal, coin_marginal = _density_marginals(state, mat, t)
                    assert np.abs(dist[x] - node_marginal).max() <= 1e-13, (n, theta, t, x)
                    assert np.abs(rho[x] - coin_marginal).max() <= 1e-13, (n, theta, t, x)

    # only the seed runs while T <= 2N
    n = 61
    grids = np.stack([_random_grid(rng, n) for _ in range(3)])
    stack = np.broadcast_to(build_coin(CoinParams(0.9, -0.4, 1.3, 0.2)), (3, 2, 2))
    for t in range(1, 2 * n + 1):
        dist, rho = _doubled_sums(stack, grids, t)
        step_dist, step_rho = _stepped_sums(stack, grids, t)
        assert np.abs(dist - step_dist).max() <= 1e-13, t
        assert np.abs(rho - step_rho).max() <= 1e-13, t

    # a chunk size that runs X = 5 walks in chunks of 2, 2 and 1
    n, t, x = 12, 3001, 5
    thetas = (0.9, 0.0, 0.3, math.pi / 2, 1.2)
    coins = np.array([build_coin(CoinParams(th, -0.4, 1.3, 0.2)) for th in thetas])
    grids = np.stack([_random_grid(rng, n) for _ in range(x)])
    whole = _doubled_sums(coins, grids, t)

    walkers = []

    def counted(coins, grids, steps):
        walkers.append(len(grids))
        return walk(coins, grids, steps)

    walk = evolution._walk
    monkeypatch.setattr(evolution, "_walk", counted)
    # room for the fixed buffers and two walks, not three
    h = n // 2 + 1
    cap = 2**18 + 8 * h * n + 2 * 16 * (16 * h * n + 56 * n + 512)
    monkeypatch.setattr(evolution, "DOUBLING_CHUNK_BYTES", cap)
    chunked = _doubled_sums(coins, grids, t)
    assert walkers == [6, 6, 3]  # each walk steps beside its two unit vectors
    assert np.array_equal(chunked[0], whole[0]) and np.array_equal(chunked[1], whole[1])


def test_doubling_matches_step_loop_over_long_windows(rng):
    """Past the seed every bit squares the momentum blocks, so their rounding
    compounds over the window; at T = 30 000 it stays within 1e-12."""
    for n in (3, 8, 40):
        grids = np.stack([_random_grid(rng, n) for _ in range(3)])
        for theta in (0.9, 0.0):
            stack = np.broadcast_to(build_coin(CoinParams(theta, -0.4, 1.3, 0.2)), (3, 2, 2))
            dist, rho = _doubled_sums(stack, grids, 30_000)
            step_dist, step_rho = _stepped_sums(stack, grids, 30_000)
            assert np.abs(dist - step_dist).max() <= 1e-12, (n, theta)
            assert np.abs(rho - step_rho).max() <= 1e-12, (n, theta)


def test_doubling_runs_past_the_dense_cap(rng):
    """At N = 1024 the wrapped diagonals d = 0..N/2 of one walk run in
    slabs, which hold the footprint to the slab's buffers and the walk's
    recorded powers, and there too the doubling is the step loop's sum."""
    n = 1024
    grids = _random_grid(rng, n)[None]
    coins = build_coin(CoinParams(0.9, -0.4, 1.3, 0.2))[None]
    assert evolution._doubling_chunk(n)[1] < n // 2 + 1
    for t in (2 * n + 1, 3000):
        tracemalloc.start()
        try:
            dist, rho = _doubled_sums(coins, grids, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**23, (t, peak)
        step_dist, step_rho = _stepped_sums(coins, grids, t)
        assert np.abs(dist - step_dist).max() <= 1e-13, t
        assert np.abs(rho - step_rho).max() <= 1e-13, t


def test_doubling_footprint_stays_within_the_cap(monkeypatch, rng):
    # 2 MiB chunks run 50 walks on 32 nodes a few at a time; numpy traces its arrays
    cap, n, x = 2**21, 32, 50
    monkeypatch.setattr(evolution, "DOUBLING_CHUNK_BYTES", cap)
    grids = np.stack([_random_grid(rng, n) for _ in range(x)])
    coins = np.broadcast_to(build_coin(CoinParams(0.9, -0.4, 1.3, 0.2)), (x, 2, 2))
    for t in (2 * n, 2001):
        assert 1 < evolution._doubling_chunk(n)[0] < x
        tracemalloc.start()
        try:
            _doubled_sums(coins, grids, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cap, (t, peak)


def test_doubling_in_slabs_of_diagonals_changes_no_bit(monkeypatch, rng):
    """One walk that does not fit a chunk runs in slabs of diagonals; only
    slab 0 steps the walk and drives W = (P | u), the others replay it."""
    n, x = 12, 5
    thetas = (0.9, 0.0, 0.3, math.pi / 2, 1.2)
    coins = np.array([build_coin(CoinParams(th, -0.4, 1.3, 0.2)) for th in thetas])
    grids = np.stack([_random_grid(rng, n) for _ in range(x)])
    windows = (2 * n, 2 * n + 1, 3001)
    whole = {t: _doubled_sums(coins, grids, t) for t in windows}
    walks, rows = evolution._doubling_chunk(n)  # by default one chunk holds every walk and diagonal
    assert walks >= x and rows == n // 2 + 1

    walkers = []

    def counted(coins, grids, steps):
        walkers.append(len(grids))
        return walk(coins, grids, steps)

    walk = evolution._walk
    monkeypatch.setattr(evolution, "_walk", counted)
    for rows in (1, 2, 3):
        # room for the slab's buffers and lag index, not for a whole walk
        monkeypatch.setattr(evolution, "DOUBLING_CHUNK_BYTES", 2**18 + 264 * n * rows)
        assert evolution._doubling_chunk(n) == (1, rows)
        for t in windows:
            walkers.clear()
            slabbed = _doubled_sums(coins, grids, t)
            assert walkers == [3] * x  # each chunk steps once, in slab 0
            assert np.array_equal(slabbed[0], whole[t][0]) and np.array_equal(slabbed[1], whole[t][1])
        # the rounded coins' error compounds: slab 0 names it before W <- P W overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"t_max = 10{20} is too long for this coin"):
                _doubled_sums(coins, grids, 10**20)


def test_window_sums_pick_the_cheaper_route(monkeypatch):
    # doubling costs ~a + b (N/2 + 1) N per walk and bit of t_max, the step
    # loop a time per step that grows with X N; the spies record the route
    # without running it.  Times are doubling vs step loop.
    taken = []
    for name in ("_doubled_sums", "_stepped_sums"):
        monkeypatch.setattr(f"qwcycle.evolution.{name}", lambda *args, name=name: taken.append(name))
    coin = build_coin(CoinParams(0.9, -0.4, 1.3, 0.2))
    cases = {
        (1, 8, 200_000): "_doubled_sums",
        (1, 400, 50): "_stepped_sums",  # 29-31 vs 1.0-1.2 ms
        (2, 64, 40_000): "_doubled_sums",  # the bench's oracle_sweep stack, 5.6-6.0 vs 518-641 ms
        (1, 24, 2000): "_doubled_sums",  # the bench's cli simulate, 1.2-1.3 vs 24-26 ms
        (100, 64, 2000): "_doubled_sums",  # verify's default 20 x 5 draws, 232-257 vs 309-360 ms
        (100, 64, 20_000): "_doubled_sums",  # 204-250 vs 2249-2946 ms
        (20, 128, 20_000): "_doubled_sums",  # 125-175 vs 853-1113 ms
        (1, 256, 2000): "_stepped_sums",  # 24-31 vs 21-33 ms
        (1, 256, 20_000): "_doubled_sums",  # 29-34 vs 210-246 ms
        (1, 707, 10**9): "_doubled_sums",
        (1, 1024, 200_000): "_doubled_sums",  # 308-357 vs 3402-3601 ms
        (1, 4096, 200_000): "_doubled_sums",  # 6034-7835 vs 9015-9624 ms
        (1, 4096, 2000): "_stepped_sums",  # 3828-4418 vs 87-88 ms
    }
    for x, n, t in cases:
        grids = np.broadcast_to(make_state(Local(0), n).as_grid(), (x, 2, n))
        _window_sums(np.broadcast_to(coin, (x, 2, 2)), grids, t)
    assert taken == list(cases.values())
    # every stack the bench's oracle_sweep runs stays on doubling
    assert all(evolution._doubling_is_cheaper(2, n, 40_000) for n in [*range(3, 13), *range(48, 65)])


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
