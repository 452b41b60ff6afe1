import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwcycle import asymptotics
from qwcycle.asymptotics import (
    _bloch,
    _dephased,
    asymptotic_reduced_density,
    limiting_distribution,
)
from qwcycle.coin import CoinParams, build_coin, hadamard_params
from qwcycle.evolution import evolve, time_avg_distribution, time_avg_reduced_density
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
from qwcycle.spectral import DEGENERACY_TOL, spectrum
from qwcycle.state import Local, WalkState, make_state, momentum_spinors

SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


def random_state(rng, n):
    z = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    return WalkState.from_grid(z / np.linalg.norm(z))


def test_m_requires_shared_eigenvalue():
    blocks = solve_all_blocks(hadamard_params(), 5)
    with pytest.raises(ValueError):
        m_matrix(blocks[0], blocks[1])
    with pytest.raises(ValueError):
        m_matrix(blocks[0], solve_block(0, hadamard_params(), 7))


def test_m_accepts_degenerate_partner():
    blocks = solve_all_blocks(hadamard_params(), 6)
    m = m_matrix(blocks[1], blocks[2])  # partners: k + k' = 3 (mod 6)
    assert m.shape == (4, 4)
    assert np.abs(m).max() > 0.1


def test_scalar_block_m_is_swap():
    kb = solve_block(0, CoinParams(0.0, 0.0, 0.4), 4)
    assert np.array_equal(m_matrix(kb, kb), SWAP)


def test_m_diagonal_closed_form(rng):
    checked = 0
    while checked < 60:
        coin = CoinParams(*rng.uniform(-math.pi, math.pi, size=4))
        n = int(rng.integers(3, 30))
        kb = solve_block(int(rng.integers(0, n)), coin, n)
        if abs(math.sin(kb.alpha)) <= 1e-6:
            continue
        dev = np.abs(m_matrix(kb, kb) - m_kk_closed_form(kb, coin)).max()
        assert dev < 1e-10
        checked += 1


def test_m_closed_form_rejects_scalar_block():
    kb = solve_block(0, CoinParams(0.0, 0.0, 0.4), 4)
    with pytest.raises(ValueError):
        m_kk_closed_form(kb, CoinParams(0.0, 0.0, 0.4))


def test_m_is_gauge_invariant(rng):
    coin = CoinParams(0.8, 0.3, -0.5, 1.0)
    kb = solve_block(2, coin, 9)
    phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=2))
    regauged = dataclasses.replace(kb, vectors=kb.vectors * phases[None, :])
    assert np.abs(m_matrix(kb, kb) - m_matrix(regauged, regauged)).max() < 1e-12


def test_theta_trace_completeness(rng):
    coin = CoinParams(1.2, -0.7, 0.25, 0.4)
    blocks = solve_all_blocks(coin, 11)
    psis = momentum_spinors(random_state(rng, 11))
    total = sum(
        np.trace(theta_matrix(m_matrix(kb, kb), psis[:, kb.k], psis[:, kb.k]))
        for kb in blocks
    )
    assert abs(total - 1.0) < 1e-12


def test_theta_of_scalar_block_passes_sector_through(rng):
    # M = SWAP means Theta(k,k) is just the sector projector |psi><psi|
    kb = solve_block(0, CoinParams(0.0, 0.0, 0.4), 4)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    theta = theta_matrix(m_matrix(kb, kb), psi, psi)
    assert np.abs(theta - np.outer(psi, psi.conj())).max() < 1e-12


def test_reduced_density_is_valid_and_matches_oracle(rng):
    coin = CoinParams(0.85, 0.4, -1.1, 0.6)
    state = random_state(rng, 6)
    rho = asymptotic_reduced_density(state, coin)
    assert np.abs(rho - rho.conj().T).max() < 1e-14
    assert abs(np.trace(rho) - 1.0) < 1e-12
    oracle = time_avg_reduced_density(state, build_coin(coin), 20_000)
    assert np.abs(rho - oracle).max() < 5e-3


def test_reduced_density_is_exactly_hermitian(rng):
    # rho_c = (t + r.sigma)/2 from a real t and a real r: conjugate off-diagonals
    # and a real diagonal bit for bit, on grid coins (scalar blocks at theta = 0)
    # and off it
    for n in (2, 3, 8, 64, 512):
        for theta in (0.0, 1e-11, 0.7, math.pi / 2):
            for zeta in (2 * math.pi / n, rng.uniform(-math.pi, math.pi)):
                coin = CoinParams(theta, zeta, rng.uniform(-math.pi, math.pi))
                rho = asymptotic_reduced_density(random_state(rng, n), coin)
                assert np.array_equal(rho, rho.conj().T), (n, theta, zeta)
                assert np.array_equal(rho.diagonal().imag, np.zeros(2)), (n, theta, zeta)


def _line_walk_gap(rng, rho00):
    # a local |0> has v_k = e_z / N in every sector and no block is scalar at
    # |sin theta| >= 0.05, so rho_c[0, 0] = (1 + <m_3^2>)/2 over the N-point
    # trapezoid rule of the line walk's <m_3^2> = 1 - |sin theta|, for every
    # zeta and xi: no oracle is involved
    gap = 0.0
    for n in (1001, 2**17 + 1):
        for theta in (0.0501, 0.7, -1.2, math.pi / 2, 3.09):
            for zeta in (4 * math.pi / n, rng.uniform(-math.pi, math.pi)):
                coin = CoinParams(theta, zeta, rng.uniform(-math.pi, math.pi))
                got = rho00(n, coin, int(rng.integers(n)))
                gap = max(gap, abs(got - (1 - abs(math.sin(theta)) / 2)))
    return gap


def _dephased_rho00(n, coin, j):
    # the spectrum path fed the field v_k = e_z / N directly: no FFT
    field = np.zeros((1, 3, n))
    field[0, 2] = 1.0 / n
    r = asymptotics._dephased(spectrum(n, coin.theta, coin.zeta, coin.xi), field)[0]
    return (1.0 + r[2]) / 2


def _public_rho00(n, coin, j):
    # these coins lie in the closed form's domain at both sizes
    return asymptotic_reduced_density(make_state(Local(j), n), coin)[0, 0]


def test_reduced_density_of_a_local_state_is_the_line_walk(monkeypatch, rng):
    assert _line_walk_gap(rng, _dephased_rho00) <= 1e-14
    assert _line_walk_gap(rng, _public_rho00) <= 1e-14
    # a kernel that keeps every v_k whole (M_k = 1, no dephasing) reads rho_c[0, 0] = 1
    monkeypatch.setattr(
        asymptotics,
        "_dephased",
        lambda spec, v: np.broadcast_to(v.sum(axis=-1), spec.scalar.shape[:-1] + v.shape[:-1]),
    )
    assert _line_walk_gap(rng, _dephased_rho00) > 0.02


def _mean_dephasing(n, theta, zeta, xi):
    """(1/N) sum_k M_k by the spectrum path: row f is M e_f, and M is symmetric."""
    field = np.eye(3)[..., None].repeat(n, axis=-1) / n
    return _dephased(spectrum(n, theta, zeta, xi), field)


def _aliasing_coins(rng, n):
    """Coins in the closed form's domain P |sin theta| >= 1 on an N-cycle:
    theta = +/-pi/2, theta near pi, and |sin theta| log-uniform in [1/P, 1],
    each with zeta on the pi / N grid, 1e-9 off it and generic."""
    p = n if n % 2 else n // 2
    sizes = np.exp(rng.uniform(math.log(1.0 / p), 0.0, 6))
    thetas = np.arcsin(sizes) * rng.choice([-1.0, 1.0], 6)
    thetas[::2] = np.copysign(math.pi, thetas[::2]) - thetas[::2]  # theta and pi - theta
    near_pi = math.pi - math.asin(min(1.0, 1.01 / p))
    thetas = np.concatenate([[math.pi / 2, -math.pi / 2, near_pi], thetas])
    thetas = thetas[p * np.abs(np.sin(thetas)) >= 1.0]
    m = rng.integers(-n, n, thetas.size)
    grid = m * math.pi / n
    zetas = np.stack([grid, grid + 1e-9, rng.uniform(-math.pi, math.pi, thetas.size)])
    return np.broadcast_to(thetas, zetas.shape), zetas, rng.uniform(-math.pi, math.pi, zetas.shape)


@pytest.mark.parametrize("n", list(range(2, 41)) + [64, 100, 101, 1000, 1001, 4096])
def test_aliased_mean_matches_the_spectrum_path(rng, n):
    thetas, zetas, xis = _aliasing_coins(rng, n)
    assert all(asymptotics._aliases(n, t) for t in thetas.flat)
    got = asymptotics._aliased(n, thetas, zetas, xis)
    assert np.array_equal(got, got.swapaxes(-1, -2))
    assert np.abs(got - _mean_dephasing(n, thetas, zetas, xis)).max() <= 1e-14
    assert np.abs(np.trace(got, axis1=-2, axis2=-1) - 1.0).max() <= 1e-15


# (1/N) sum_k M_k at 50 digits, entries 00, 11, 22, 01, 02, 12.  With mpmath at
# mp.dps = 50 and s, c = sin, cos of mpf(theta) for the float theta given:
#   t_k = (s sin(xi - w), s cos(xi - w), c sin(zeta - w)), w = 2 pi k / N,
#   M = (1/N) sum_k t_k t_k^T / |t_k|^2
ALIASED_MPMATH = [
    ((3, 1.0, 0.4, -2.0), [
        0.41945366104279913, 0.4212256118310235, 0.15932072712617731,
        0.03395693041099877, -0.18387338964818273, 0.1666119669917158,
    ]),
    ((8, -2.5, 3 * math.pi / 8, 1.0), [
        0.23112130232966593, 0.36260415392525364, 0.40627454374508043,
        -0.024460042443003524, 0.29869561124687216, 0.053766538147842824,
    ]),
    ((2, math.pi / 2, 0.7, -0.3), [
        0.08733219254516085, 0.9126678074548391, 1.556062371707669e-33,
        -0.2823212366975177, -1.165737271679403e-17, 3.7685116863947966e-17,
    ]),
    ((64, math.pi - math.asin(1.2 / 32), -3.0, 0.5), [
        0.0049647793997653605, 0.026617016846878273, 0.9684182037533564,
        0.009536430337128742, 0.03475103469228488, -0.010828354778361842,
    ]),
    ((101, 0.02, 1.3, 2.9), [
        0.019772648523633935, 0.00040777204811974, 0.9798195794282464,
        -0.0005524775991619165, -0.0012553259527913084, -0.01957069482549609,
    ]),
]


@pytest.mark.parametrize("args, want", ALIASED_MPMATH)
def test_aliased_mean_matches_mpmath(args, want):
    m = asymptotics._aliased(*args)
    got = [m[0, 0], m[1, 1], m[2, 2], m[0, 1], m[0, 2], m[1, 2]]
    assert np.abs(np.array(got) - want).max() <= 1e-15, args


def test_closed_form_takes_only_local_states_in_its_domain(monkeypatch, rng):
    calls = []

    def counted(*args):
        calls.append(args)
        return spectrum(*args)

    monkeypatch.setattr("qwcycle.asymptotics.spectrum", counted)
    n, p = 64, 32
    inside, below = math.asin(1.0 / p), math.asin((1.0 - 1e-12) / p)
    local = make_state(Local(5, 0.6, 0.8j), n)
    asymptotic_reduced_density(local, CoinParams(inside, 0.3, -1.0))
    assert calls == []
    asymptotic_reduced_density(local, CoinParams(below, 0.3, -1.0))
    assert len(calls) == 1
    asymptotic_reduced_density(random_state(rng, n), CoinParams(0.7, 0.3, -1.0))
    assert len(calls) == 2
    # a -0.0 amplitude on a second node counts as nonzero: the state falls back
    grid = np.zeros((2, n), dtype=complex)
    grid[0, 5] = 1.0
    grid[1, 9] = -0.0
    rho = asymptotic_reduced_density(WalkState.from_grid(grid), CoinParams(0.7, 0.3, -1.0))
    assert len(calls) == 3
    assert np.abs(rho - asymptotic_reduced_density(make_state(Local(5), n), CoinParams(0.7, 0.3, -1.0))).max() <= 1e-15


@pytest.mark.parametrize("theta", [math.pi / 2, -math.pi / 2])
@pytest.mark.parametrize("n", [2, 3, 4, 1024])
def test_closed_form_raises_no_floating_point_error(n, theta):
    # every floating-point error raises, underflow included
    with np.errstate(all="raise"):
        rho = asymptotic_reduced_density(make_state(Local(0, 0.6, 0.8), n), CoinParams(theta, 0.7, -0.3))
        m = asymptotics._aliased(n, theta, 0.7, -0.3)
    assert np.abs(m - _mean_dephasing(n, theta, 0.7, -0.3)).max() <= 1e-15
    assert np.isfinite(rho).all()


def test_limiting_distribution_uniform_without_degeneracy():
    # odd cycle under Hadamard: no pairing, exactly uniform
    for n in (3, 5, 9):
        ld = limiting_distribution(make_state(Local(0), n), hadamard_params())
        assert np.array_equal(ld, np.full(n, 1.0 / n))


def test_generic_coin_returns_uniform_before_the_parts(monkeypatch, rng):
    # zeta half-way between points of the pi / N grid pairs no two blocks, so
    # the answer is 1/N before any spectrum is built; a grid coin builds one
    calls = []

    def counted(*args):
        calls.append(args)
        return spectrum(*args)

    monkeypatch.setattr("qwcycle.asymptotics.spectrum", counted)
    n = 64
    state = random_state(rng, n)
    ld = limiting_distribution(state, CoinParams(0.9, math.pi / (2 * n), 0.4, -1.1))
    assert np.array_equal(ld, np.full(n, 1.0 / n))
    assert calls == []
    limiting_distribution(state, CoinParams(0.9, math.pi / n, 0.4, -1.1))
    assert len(calls) == 1


@pytest.mark.parametrize("n", [2, 7, 12])
@pytest.mark.parametrize(
    "theta, zeta",
    [
        (0.7, 0.3),  # generic
        (0.6, 3.0),  # zeta on the pi / N grid: blocks pair
        (0.0, 3.0),  # diagonal coin: block k = 1 is scalar
        (1e-11, 3.0),
        (math.pi / 2, 0.3),  # every block shares its eigenvalues
        (6.02e-10, 3.0),  # a near-scalar block at k = 1
        (-4e-10, 3.0 + 1e-13),  # a scalar one
    ],
)
def test_coin_gram_matches_literal_zone_sum(rng, n, theta, zeta):
    # the dephasing kernel against the coin Gram sum sum_{k,i} p_k^i p_k^i^dag
    # over both zones, p_k^+/- = (1 +/- m_k.sigma) psi_k / 2 and a scalar
    # block's psi_k whole in zone 0, read as a Bloch vector tr(sigma G); zeta =
    # 3.0 stands for 2 pi / N, which puts zeta - w on 0 at k = 1
    if zeta >= 3.0:
        zeta = 2 * math.pi / n + (zeta - 3.0)
    spinors = momentum_spinors(random_state(rng, n))
    zetas = np.concatenate([[zeta, zeta + math.pi, -math.pi], np.linspace(-3.0, 3.0, 5)])
    one = spectrum(n, theta, zeta, -1.1)
    local = np.array([[1, 1], [1, 1j], [math.sqrt(2), 0]]) / math.sqrt(2 * n)
    gauge = np.exp(0.5j * np.outer([0.0, 1.3, math.pi / 2], [-1.0, 1.0]))  # D(xi)^dag
    families = [
        (one, spinors[None]),  # one state (rdcm)
        (one, np.repeat(local[..., None], n, axis=-1)),  # the Bloch scan's x, y and z
        # phase scan: a leading zeta axis, and the state under three gauges
        (spectrum(n, theta, zetas, 0.0), gauge[..., None] * spinors),
    ]
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    whole = np.stack([np.eye(2), np.zeros((2, 2))])
    for spec, psis in families:
        turn = np.einsum("...ka,abc->...kbc", spec.axes, pauli)[..., None, :, :]
        # (..., k, zone, 2, 2)
        proj = 0.5 * (np.eye(2) + np.array([1.0, -1.0])[:, None, None] * turn)
        proj = np.where(spec.scalar[..., None, None, None], whole, proj)
        # (..., field, k, zone, comp)
        parts = (proj[..., None, :, :, :, :] @ psis.swapaxes(-1, -2)[:, :, None, :, None])[..., 0]
        literal = np.einsum("...kic,...kid,jdc->...j", parts, parts.conj(), pauli)
        dephased = _dephased(spec, np.stack([_bloch(p)[1] for p in psis]))
        assert dephased.shape == literal.shape
        assert np.abs(dephased - literal).max() <= 1e-15


def test_off_grid_coin_is_uniform_without_a_spectrum(monkeypatch, rng):
    # |zeta - m pi / N| above half the tolerance pairs no blocks and |cos theta|
    # above it splits every zone, so 1/N follows from the angles alone
    def refuse(*args):
        raise AssertionError("spectrum built")

    monkeypatch.setattr("qwcycle.asymptotics.spectrum", refuse)
    n = 8
    state = random_state(rng, n)
    edge = (math.pi / 2 - 2 * DEGENERACY_TOL, math.pi / n + DEGENERACY_TOL)
    for theta, zeta in [(0.6, 0.3), edge]:
        ld = limiting_distribution(state, CoinParams(theta, zeta, 0.4, -1.1))
        assert np.array_equal(ld, np.full(n, 1.0 / n))


def test_limiting_distribution_matches_oracle_with_degeneracy(rng):
    coin = CoinParams(0.75, 3 * math.pi / 8, 0.9, -0.2)  # zeta = 3pi/8: on grid for N=8
    state = random_state(rng, 8)
    ld = limiting_distribution(state, coin)
    assert abs(ld.sum() - 1.0) < 1e-12
    oracle = time_avg_distribution(state, build_coin(coin), 20_000)
    assert np.abs(ld - oracle).max() < 5e-3


def test_hadamard_local_closed_form_even_cycles():
    for n in (4, 6, 8, 10, 60, 2**16, 2**16 + 2):
        ld = limiting_distribution(make_state(Local(0), n), hadamard_params())
        assert np.abs(ld - hadamard_local_ld(n)).max() < 1e-12
        # each entry is ~1/N, which the gate above holds only to ~7e-8 of
        # its scale at N = 2^16; a uniform 1/N reads ~0.41 on this one
        assert n * np.abs(ld - hadamard_local_ld(n)).max() <= 1e-14


def test_hadamard_closed_form_translates_with_origin():
    n, t = 8, 3
    ld = limiting_distribution(make_state(Local(t), n), hadamard_params())
    assert np.abs(ld - hadamard_local_ld(n, t=t)).max() < 1e-12
    # translating the origin rolls the distribution
    assert np.abs(hadamard_local_ld(n, t=t) - np.roll(hadamard_local_ld(n), t)).max() < 1e-14


def test_hadamard_local_ld_odd_is_uniform():
    assert np.array_equal(hadamard_local_ld(9), np.full(9, 1.0 / 9))
    with pytest.raises(ValueError):
        hadamard_local_ld(8, t=8)


def test_initial_phase_invariance(rng):
    coin = CoinParams(0.7, 2 * math.pi / 7, 0.2, 0.1)
    state = random_state(rng, 7)
    phased = WalkState.from_grid(state.as_grid() * np.exp(0.73j))
    assert np.abs(
        limiting_distribution(state, coin) - limiting_distribution(phased, coin)
    ).max() < 1e-14
    assert np.abs(
        asymptotic_reduced_density(state, coin) - asymptotic_reduced_density(phased, coin)
    ).max() < 1e-14


# ---------------------------------------------------------------------------
# the array core against the per-block definitions and a dense eigensolver
# ---------------------------------------------------------------------------

def pair_sum_reference(state, coin):
    """(pi, rho_c) from KBlocks, m_matrix / theta_matrix and the k + k' pairing."""
    n = state.n_nodes
    return characteristic_sums(
        solve_all_blocks(coin, n), momentum_spinors(state), degeneracy_table(coin, n).cross_pairs()
    )


def dense_reference(state, coin):
    """(pi, rho_c) from the eigendecomposition of the whole 2N x 2N step unitary,
    eigenvalues grouped when their phases chain within DEGENERACY_TOL."""
    n = state.n_nodes
    shift = np.zeros((2 * n, 2 * n))
    for j in range(n):
        shift[(j + 1) % n, j] = 1.0
        shift[n + (j - 1) % n, n + j] = 1.0
    vals, vecs = np.linalg.eig(shift @ np.kron(build_coin(coin), np.eye(n)))
    phases = np.angle(vals)
    gap = np.abs(np.angle(np.exp(1j * (phases[:, None] - phases[None, :]))))
    label = np.arange(2 * n)
    for _ in range(2 * n):  # connected components of "within tolerance"
        label = np.where(gap <= DEGENERACY_TOL, label[None, :], 2 * n).min(axis=1)
    probs, rho = np.zeros(n), np.zeros((2, 2), dtype=complex)
    for g in set(label.tolist()):
        basis, _ = np.linalg.qr(vecs[:, label == g])
        proj = (basis @ (basis.conj().T @ state.amplitudes)).reshape(2, n)
        probs += (np.abs(proj) ** 2).sum(axis=0)
        rho += proj @ proj.conj().T
    return probs, rho


@pytest.mark.parametrize("n, theta", [(33, 0.7), (64, 1.2), (64, math.pi / 2 - 1e-6)])
def test_characteristic_sums_match_the_phase_sum(rng, n, theta):
    # the literal sum over cross pairs of e^{2 pi i v (k - k')/N} tr Theta(k, k')
    coin = CoinParams(theta, round(0.37 * n / math.pi) * math.pi / n, 0.4, -1.1)
    blocks, psis = solve_all_blocks(coin, n), momentum_spinors(random_state(rng, n))
    pairs = degeneracy_table(coin, n).cross_pairs()
    assert len(pairs) >= n - 2
    acc = np.zeros(n, dtype=complex)
    for k, kp in pairs:
        tr = np.trace(theta_matrix(m_matrix(blocks[k], blocks[kp]), psis[:, k], psis[:, kp]))
        acc += np.exp(2j * math.pi * np.arange(n) * (k - kp) / n) * tr
    ld, _ = characteristic_sums(blocks, psis, pairs)
    assert np.abs(ld - (1.0 / n + acc.real / n)).max() <= 1e-15


def test_core_matches_per_block_reference(rng):
    for trial in range(40):
        n = int(rng.integers(2, 17))
        on_grid = trial % 2 == 0
        if on_grid:
            zeta = int(rng.integers(-n, n + 1)) * math.pi / n
        else:
            zeta = rng.uniform(-math.pi, math.pi)
        coin = CoinParams(rng.uniform(0.1, 1.45), zeta, *rng.uniform(-math.pi, math.pi, size=2))
        state = random_state(rng, n)
        ld_ref, rho_ref = pair_sum_reference(state, coin)
        assert np.abs(limiting_distribution(state, coin) - ld_ref).max() < 1e-13
        assert np.abs(asymptotic_reduced_density(state, coin) - rho_ref).max() < 1e-13


def test_turned_returns_t_psi_alone_as_two_rows(rng):
    # T_k = m_k.sigma, or 1 on a scalar block: theta = 0 with zeta on the
    # 2 pi/N grid makes blocks 3 and 7 scalar, and a generic coin has none
    n = 8
    psis = momentum_spinors(random_state(rng, n))
    sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    for coin in (CoinParams(0.0, 2 * math.pi * 3 / n, 0.4), CoinParams(0.9, 0.37, 1.1)):
        spec = spectrum(n, coin.theta, coin.zeta, coin.xi)
        turned = asymptotics._turned(spec, psis)
        assert turned.shape == (2, n)
        for k in range(n):
            t_k = np.eye(2) if spec.scalar[k] else np.einsum("i,iab->ab", spec.axes[k], sigma)
            assert np.abs(turned[:, k] - t_k @ psis[:, k]).max() < 1e-15
        assert spec.scalar.sum() == (2 if coin.theta == 0.0 else 0)


def test_wrong_factor_is_not_renormalized_away(monkeypatch, rng):
    # a zone route with T psi doubled sums to 2.5 before the final division;
    # the check sees that sum instead of the renormalized vector
    turned = asymptotics._turned
    monkeypatch.setattr(asymptotics, "_turned", lambda spec, psis: 2 * turned(spec, psis))
    with pytest.raises(ValueError, match="does not sum to 1"):
        limiting_distribution(random_state(rng, 16), CoinParams(math.pi / 2, 0.3, 0.7))


@pytest.mark.parametrize("n", [6, 7, 2048])
def test_half_pi_local_walker_alternates(n):
    # the coin swaps chirality, so the walker hops 0 -> N-1 -> 0 -> ...
    ld = limiting_distribution(make_state(Local(0), n), CoinParams(math.pi / 2, 0.3, 0.7))
    assert abs(ld[0] - 0.5) < 1e-12 and abs(ld[-1] - 0.5) < 1e-12
    assert np.abs(ld[1:-1]).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 6, 7, 64, 2048])
def test_half_pi_matches_dense(rng, n):
    coin = CoinParams(math.pi / 2, 0.3, 0.7)
    state = random_state(rng, n)
    ld, rho = limiting_distribution(state, coin), asymptotic_reduced_density(state, coin)
    if n <= 7:
        ld_ref, rho_ref = dense_reference(state, coin)
        assert np.abs(ld - ld_ref).max() < 1e-10
        assert np.abs(rho - rho_ref).max() < 1e-10
    # B_k^2 = -e^{i eta} for every k: the walk has period 2, so both limits
    # are the means of their values at t = 0 and t = 1
    grids = [s.as_grid() for s in (state, evolve(state, build_coin(coin), 1))]
    ld_ref = sum((np.abs(g) ** 2).sum(axis=0) for g in grids) / 2
    rho_ref = sum(g @ g.conj().T for g in grids) / 2
    assert np.abs(ld - ld_ref).max() <= 1e-14
    assert np.abs(rho - rho_ref).max() <= 1e-14


@given(
    st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi / 2 - 2e-10]),
    st.integers(min_value=2, max_value=16),
    st.integers(min_value=-16, max_value=16),
    st.sampled_from([0.0, 1e-12, -1e-12, 3e-13]),
    st.floats(min_value=-3.1, max_value=3.1),
    st.floats(min_value=-3.1, max_value=3.1),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_degenerate_families_match_dense(theta, n, m, dz, xi, eta, seed):
    coin = CoinParams(theta, m * math.pi / n + dz, xi, eta)
    state = random_state(np.random.default_rng(seed), n)
    ld_ref, rho_ref = dense_reference(state, coin)
    assert np.abs(limiting_distribution(state, coin) - ld_ref).max() < 1e-10
    assert np.abs(asymptotic_reduced_density(state, coin) - rho_ref).max() < 1e-10


NEAR_HALF_PI = [math.pi / 2 - d for d in (1e-8, 1e-7, 1e-6, 1e-5)]
COS_005 = -1.520740326068632  # cos(theta) = 0.050


def test_near_half_pi_off_the_grid_is_uniform(rng):
    # each zone spans 2 |cos theta| >= 2e-8, far above the tolerance, however
    # densely its N eigenphases crowd together: no two blocks coincide
    for n in (64, 1024, 4096):
        state = random_state(rng, n)
        for theta in NEAR_HALF_PI:
            ld = limiting_distribution(state, CoinParams(theta, 0.37, 0.4, -1.1))
            assert np.abs(ld - 1.0 / n).max() <= 1e-15


def test_pairs_just_off_the_grid_stay_apart(rng):
    # some partners sit within 1e-9 of each other, yet 2 |zeta - m pi / N| is
    # 2e-8 or more: no pair coincides, and the limit is exactly 1/N
    n = 33
    state = random_state(rng, n)
    for dz in (1e-8, 1e-7):
        ld = limiting_distribution(state, CoinParams(COS_005, 5 * math.pi / n + dz, 0.4, -1.1))
        assert np.abs(ld - 1.0 / n).max() <= 1e-15


def test_near_half_pi_on_the_grid_pairs_only(rng):
    # on the grid the same coins pair k + k' = m, and their zones stay split
    cases = [(n, t, round(0.37 * n / math.pi)) for n in (64, 1024, 4096) for t in NEAR_HALF_PI]
    for n, theta, m in cases + [(33, COS_005, 5)]:
        coin = CoinParams(theta, m * math.pi / n, 0.4, -1.1)
        state = random_state(rng, n)
        ld_ref, _ = pair_sum_reference(state, coin)
        assert np.abs(limiting_distribution(state, coin) - ld_ref).max() <= 1e-13


def test_large_cycle_limiting_distribution(rng):
    n = 2**17
    coin = CoinParams(0.7, 2 * math.pi * 12345 / n, 0.4, 0.2)
    state = random_state(rng, n)
    ld = limiting_distribution(state, coin)
    assert ld.shape == (n,) and ld.min() >= 0.0 and abs(ld.sum() - 1.0) < 1e-12
    # reference pair sum: partners share their spectrum zone by zone, so
    # tr Theta(k, k') = sum_i <p_k'^i | p_k^i> with p_k^+/- = (1 +/- m_k.sigma) psi_k / 2
    pairs = np.array(degeneracy_table(coin, n).cross_pairs())
    spec = spectrum(n, coin.theta, coin.zeta, coin.xi)
    lam = np.exp(1j * (0.5 * coin.eta + spec.alpha[..., None] * [1.0, -1.0]))
    assert np.abs(lam[pairs[:, 0]] - lam[pairs[:, 1]]).max() < 1e-12
    assert not spec.scalar.any()
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    turn = np.einsum("ka,abc->kbc", spec.axes, pauli)
    proj = 0.5 * (np.eye(2) + np.array([1.0, -1.0])[:, None, None, None] * turn)  # (zone, k, 2, 2)
    parts = np.einsum("ikab,kb->kia", proj, momentum_spinors(state).T)
    tr = np.einsum("pia,pia->p", parts[pairs[:, 1]].conj(), parts[pairs[:, 0]])
    nodes = rng.choice(n, size=16, replace=False)
    phase = np.exp(2j * math.pi * np.outer(nodes, pairs[:, 0] - pairs[:, 1]) / n)
    want = 1.0 / n + (phase @ tr).real / n
    assert np.abs(ld[nodes] - want).max() < 1e-15
