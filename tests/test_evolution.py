import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwcycle import evolution
from qwcycle.coin import CoinParams, build_coin, hadamard_params
from qwcycle.evolution import (
    _density_residuals,
    _doubled_sums,
    _stepped_sums,
    check_distribution,
    check_reduced_density,
    evolve,
    time_avg_distribution,
    time_avg_reduced_density,
)
from qwcycle.reference import apply_shift, reduce_to_coin, step, time_avg_density
from qwcycle.state import Local, WalkState, make_state

angle = st.floats(min_value=-3.2, max_value=3.2, allow_nan=False)


def random_state(rng, n):
    z = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    return WalkState.from_grid(z / np.linalg.norm(z))


def test_shift_moves_chiralities_oppositely():
    s = make_state(Local(j=2, c0=0.6, c1=0.8), 5)
    g = apply_shift(s.as_grid())
    assert abs(g[0, 3] - 0.6) < 1e-15
    assert abs(g[1, 1] - 0.8) < 1e-15


@given(angle, angle, angle, angle, st.integers(min_value=2, max_value=20))
@settings(max_examples=40, deadline=None)
def test_step_preserves_norm(theta, zeta, xi, eta, n):
    coin = build_coin(CoinParams(theta, zeta, xi, eta))
    rng = np.random.default_rng(42)
    s = random_state(rng, n)
    out = step(s.as_grid(), coin)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_identity_coin_walks_forward():
    # coin |0> walker under the identity coin translates one node per step
    n, t = 7, 11
    s = make_state(Local(0), n)
    out = evolve(s, np.eye(2, dtype=complex), t)
    expect = np.zeros((2, n), dtype=complex)
    expect[0, t % n] = 1.0
    assert np.array_equal(out.as_grid(), expect)


def test_evolve_equals_repeated_step(rng):
    for n in (2, 3, 8, 64):
        for theta in (0.0, math.pi / 2, 0.9):
            coin = build_coin(CoinParams(theta, -0.4, 1.3, 0.2))
            s = random_state(rng, n)
            grid = s.as_grid()
            for _ in range(1_000):
                grid = step(grid, coin)
            # identical arithmetic, then the drift of the final norm is divided out
            assert np.array_equal(evolve(s, coin, 1_000).as_grid(), grid / np.linalg.norm(grid))


def test_reference_step_runs_past_rounding_drift(rng):
    # the literal step carries bare amplitudes, so it pins evolve over runs
    # long enough for the norm to drift past any normalization gate
    coin = build_coin(CoinParams(0.9, -0.4, 1.3, 0.2))
    s = random_state(rng, 7)
    grid = s.as_grid()
    for _ in range(20_000):
        grid = step(grid, coin)
    assert np.array_equal(evolve(s, coin, 20_000).as_grid(), grid / np.linalg.norm(grid))


def test_evolve_rejects_negative_t():
    s = make_state(Local(0), 4)
    with pytest.raises(ValueError):
        evolve(s, np.eye(2, dtype=complex), -1)
    for t in (2.5, math.inf, math.nan):  # not a whole number of steps
        with pytest.raises(ValueError):
            evolve(s, np.eye(2, dtype=complex), t)


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
    nan_coin = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    for coin in (1.01 * np.eye(2, dtype=complex), nan_coin):
        for fn in (evolve, time_avg_distribution, time_avg_reduced_density):
            with pytest.raises(ValueError):
                fn(s, coin, 2_000)
        # one rule for both averaging routes, whichever _window_sums picks
        for route in (_doubled_sums, _stepped_sums):
            with pytest.raises(ValueError):
                route(coin[None], s.as_grid()[None], 2_000)


def test_evolve_renormalizes_drift_to_1e_9_and_raises_past_it():
    # a coin off unitary by 4e-11 passes the 1e-10 gate, and its norm grows
    # by 2e-11 a step: 2e-10 after 10 steps is stripped, 2e-9 after 100 raises
    coin = build_coin(hadamard_params())
    s = make_state(Local(0), 4)
    out = evolve(s, (1 + 2e-11) * coin, 10)
    assert np.abs(out.as_grid() - evolve(s, coin, 10).as_grid()).max() < 1e-15
    with pytest.raises(ValueError, match=r"evolution lost unitarity: \|norm - 1\| = 2\.000e-09"):
        evolve(s, (1 + 2e-11) * coin, 100)


def test_doubling_checks_the_coins_of_every_chunk(monkeypatch, rng):
    # room for the fixed buffers and two walks: X = 5 runs in chunks of 2, 2 and 1
    n, x = 4, 5
    h = n // 2 + 1
    cap = 2**18 + 8 * h * n + 2 * 16 * (16 * h * n + 56 * n + 512)
    monkeypatch.setattr(evolution, "DOUBLING_CHUNK_BYTES", cap)
    assert evolution._doubling_chunk(n)[0] == 2
    coins = np.repeat(build_coin(hadamard_params())[None], x, axis=0)
    coins[-1] *= 1.01  # only the last chunk's coin leaks norm
    grids = np.stack([random_state(rng, n).as_grid() for _ in range(x)])
    with pytest.raises(ValueError, match=r"coin is not unitary within 1e-10"):
        _doubled_sums(coins, grids, 100)


def test_window_drift_names_t_max_and_the_coin():
    # unitary within 1e-10, so both routes take it; its excess norm compounds
    # past 1e-10 of the window's sum within a few steps
    s = make_state(Local(0), 4)
    coin = build_coin(hadamard_params()) * (1 + 4e-11)
    for route in (_doubled_sums, _stepped_sums):
        with pytest.raises(ValueError, match=r"t_max = 100 is too long for this coin.*unitary only to"):
            route(coin[None], s.as_grid()[None], 100)


def test_reduced_average_consistent_with_full_density(rng):
    coin = build_coin(CoinParams(0.7, 0.5, -0.9, 0.0))
    s = random_state(rng, 5)
    full = time_avg_density(s, coin, 300)
    # a 2N x 2N density: Hermitian, trace 1 and PSD within 1e-10
    assert np.abs(full - full.conj().T).max() <= 1e-10
    assert abs(np.trace(full) - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(full).min() >= -1e-10
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
        check_reduced_density(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        check_reduced_density(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        check_reduced_density(np.diag([1.5, -0.5]))  # negative eigenvalue
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
            check_reduced_density(rho)
    check_distribution(np.array([0.25, 0.75]))


def test_density_residuals_of_a_stack_match_per_matrix(rng):
    z = rng.standard_normal((200, 2, 2)) + 1j * rng.standard_normal((200, 2, 2))
    rhos = z @ z.conj().swapaxes(1, 2)
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    rhos[7, 0, 1] += 1e-3  # not Hermitian
    rhos[11, 1, 1] = np.nan
    stacked = _density_residuals(rhos.reshape(10, 20, 2, 2))
    for k, rho in enumerate(rhos):
        for got, want in zip(stacked, _density_residuals(rho)):
            assert np.array_equal(got.reshape(-1)[k], want, equal_nan=True)
    herm, trace, _ = (r.reshape(-1) for r in stacked)
    assert herm[7] > 1e-4 and np.isnan(herm[11]) and np.isnan(trace[11])
    with pytest.raises(ValueError):
        check_reduced_density(rhos[11])


def test_density_checks_match_eigvalsh(rng):
    # pure, mixed, near-singular and slightly non-Hermitian 2x2 stacks
    z = rng.standard_normal((2, 400, 2)) + 1j * rng.standard_normal((2, 400, 2))
    z /= np.sqrt((np.abs(z) ** 2).sum(axis=-1))[..., None]
    pure, other = z[..., :, None] * z[..., None, :].conj()
    weights = rng.uniform(0, 1, (400, 1, 1))
    mixed = weights * pure + (1 - weights) * other
    # eigenvalues within ~1e-8 of 0, on both sides
    scale = 10.0 ** rng.uniform(-16, -8, (400, 1, 1)) * rng.choice([-1.0, 1.0], (400, 1, 1))
    near = (1 - scale) * pure + scale * np.eye(2) / 2
    tilted = mixed + 10.0 ** rng.uniform(-13, -7, (400, 1, 1)) * (
        rng.standard_normal((400, 2, 2)) + 1j * rng.standard_normal((400, 2, 2))
    )
    rhos = np.concatenate([pure, mixed, near, tilted])
    herm, trace, negative = _density_residuals(rhos)
    hermitian = 0.5 * (rhos + rhos.conj().swapaxes(1, 2))
    lapack = np.maximum(0.0, -np.linalg.eigvalsh(hermitian).min(axis=-1))
    assert np.abs(negative - lapack).max() <= 1e-15
    for tol in (1e-10, 1e-8):
        passed = 0
        for rho, h, t, depth in zip(rhos, herm, trace, lapack):
            if abs(depth - tol) <= 1e-15:
                continue  # only here may the closed form and LAPACK decide apart
            passes = h <= tol and t <= tol and depth <= tol
            try:
                check_reduced_density(rho, tol=tol)
            except ValueError:
                assert not passes
            else:
                assert passes
            passed += passes
        assert 0 < passed < len(rhos)
    # a NaN entry fails the Hermiticity test, wherever it sits
    nans = mixed.copy()
    nans[np.arange(400), rng.integers(0, 2, 400), rng.integers(0, 2, 400)] = np.nan
    herm, _, negative = _density_residuals(nans)
    assert np.isnan(herm).all() and np.isnan(negative).all()
    for rho in nans:
        with pytest.raises(ValueError, match="not Hermitian"):
            check_reduced_density(rho)


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
