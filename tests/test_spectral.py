import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwcycle.coin import CoinParams, build_coin, hadamard_params
from qwcycle.reference import block, degeneracy_table, solve_all_blocks, solve_block
from qwcycle.spectral import DEGENERACY_TOL, _roots, spectrum

angle = st.floats(min_value=-3.2, max_value=3.2, allow_nan=False)
coin_strategy = st.builds(CoinParams, theta=angle, zeta=angle, xi=angle, eta=angle)


def test_block_matrix_shape():
    coin = hadamard_params()
    b = block(1, coin, 4)
    w = math.pi / 2
    phase = np.diag([np.exp(-1j * w), np.exp(1j * w)])
    assert np.abs(b - phase @ build_coin(coin)).max() < 1e-15
    with pytest.raises(ValueError):
        block(4, coin, 4)


@given(coin_strategy, st.integers(min_value=2, max_value=24))
@settings(max_examples=60, deadline=None)
def test_block_eigendecomposition(coin, n):
    """B_k v = lambda v must hold for both columns of every block.

    The bound is two-tier: away from scalar blocks the pair is good to 1e-9,
    while near-scalar blocks amplify the rounding of the eigenvector
    construction like eps/sin(alpha).
    """
    for kb in solve_all_blocks(coin, n):
        b = block(kb.k, coin, n)
        tol = 1e-9 if math.sin(kb.alpha) > 1e-6 else 1e-8
        for i in (0, 1):
            v = kb.vectors[:, i]
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            residual = np.abs(b @ v - kb.eigenvalues[i] * v).max()
            assert residual < tol


@given(coin_strategy, st.integers(min_value=2, max_value=24))
@settings(max_examples=60, deadline=None)
def test_eigenvalue_structure(coin, n):
    for kb in solve_all_blocks(coin, n):
        li, lii = kb.eigenvalues
        assert abs(abs(li) - 1.0) < 1e-12 and abs(abs(lii) - 1.0) < 1e-12
        # product of the eigenvalues is the block determinant e^{i eta}
        assert abs(li * lii - np.exp(1j * coin.eta)) < 1e-12
        # alpha reproduces the dispersion relation
        want = math.cos(coin.theta) * math.cos(kb.omega - coin.zeta)
        assert abs(math.cos(kb.alpha) - want) < 1e-12
        assert 0.0 <= kb.alpha <= math.pi


def test_scalar_block_gets_canonical_basis():
    # theta = 0, zeta = 0, k = 0: the block is exactly the identity
    kb = solve_block(0, CoinParams(0.0, 0.0, 0.7), 4)
    assert kb.alpha == 0.0
    assert np.array_equal(kb.vectors, np.eye(2))


def test_eigenvectors_orthogonal_for_generic_block():
    kb = solve_block(1, CoinParams(0.6, 0.2, -0.8, 0.5), 5)
    dot = kb.vectors[:, 0].conj() @ kb.vectors[:, 1]
    assert abs(dot) < 1e-12


def test_hadamard_degeneracy_even_cycle():
    table = degeneracy_table(hadamard_params(), 6)
    # zeta = pi/2: partners satisfy k + k' = 3 (mod 6)
    assert table.pairs == {0: 3, 1: 2, 2: 1, 3: 0, 4: 5, 5: 4}
    assert table.self_paired == frozenset()
    assert sorted(table.cross_pairs()) == [(0, 3), (1, 2), (2, 1), (3, 0), (4, 5), (5, 4)]


def test_hadamard_degeneracy_multiple_of_four():
    table = degeneracy_table(hadamard_params(), 8)
    # k = N/4 and k = 3N/4 are their own partners and carry no cross term
    assert table.self_paired == frozenset({2, 6})
    assert all(k not in dict(table.cross_pairs()) for k in (2, 6))


def test_hadamard_degeneracy_odd_cycle_empty():
    for n in (3, 5, 7, 9, 11):
        table = degeneracy_table(hadamard_params(), n)
        assert table.pairs == {}
        assert table.cross_pairs() == []


def test_degeneracy_requires_rational_zeta():
    assert degeneracy_table(CoinParams(0.7, 0.33, 0.1), 10).pairs == {}
    # zeta = 2pi/10 is on the grid for N = 10
    table = degeneracy_table(CoinParams(0.7, 2 * math.pi / 10, 0.1), 10)
    assert table.pairs and all((k + kp - 2) % 10 == 0 for k, kp in table.pairs.items())
    # partners differ in eigenphase by 2 |zeta - r pi / N| at any N: 1e-10 off
    # the grid pairs every block at N = 4096, 1e-9 off pairs none
    n = 4096
    table = degeneracy_table(CoinParams(0.7, 700 * math.pi / n + 1e-10, 0.1), n)
    assert table.pairs == {k: (700 - k) % n for k in range(n)}
    assert degeneracy_table(CoinParams(0.7, 700 * math.pi / n + 1e-9, 0.1), n).pairs == {}


def test_degenerate_partners_share_spectrum():
    coin = CoinParams(0.9, 2 * math.pi / 10, -0.4, 0.8)
    blocks = solve_all_blocks(coin, 10)
    table = degeneracy_table(coin, 10)
    assert table.cross_pairs()
    for k, kp in table.cross_pairs():
        # partner blocks mirror omega - zeta, so the whole spectrum coincides
        # zone by zone, not just one eigenvalue
        for i in (0, 1):
            gap = abs(blocks[k].eigenvalues[i] - blocks[kp].eigenvalues[i])
            assert gap < 1e-12


def eigenvalues(spec, eta):
    """e^{i (eta/2 +/- alpha)} of every block, S + (N, zone), for a coin phase eta."""
    return np.exp(1j * (0.5 * eta + spec.alpha[..., None] * [1.0, -1.0]))


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def projectors(axis):
    """The zone I and zone II eigenprojectors (1 +/- m.sigma)/2 about axis m,
    or the identity and zero for a scalar block, whose axis is zero."""
    if not axis.any():
        return np.eye(2), np.zeros((2, 2))
    turn = np.einsum("a,abc->bc", axis, PAULI)
    return 0.5 * (np.eye(2) + turn), 0.5 * (np.eye(2) - turn)


@given(coin_strategy, st.integers(min_value=2, max_value=16))
@settings(max_examples=60, deadline=None)
# w = pi at N = 2: the reference's two eigenvector columns tie in norm
@example(CoinParams(1.0, -2.220446049250313e-16, 0.0, 0.0), 2)
# a near-scalar block (sin alpha ~ 5e-6): both constructions are only as good
# as eps / sin(alpha) there, which is what the projector gate allows
@example(CoinParams(3.633074247718254e-06, 3.633074247718254e-06, 0.0, 0.0), 2)
def test_spectrum_matches_solve_block(coin, n):
    spec = spectrum(n, coin.theta, coin.zeta, coin.xi)
    lam = eigenvalues(spec, coin.eta)
    for kb in solve_all_blocks(coin, n):
        assert np.abs(lam[kb.k] - kb.eigenvalues).max() < 1e-14
        scalar = 2 * min(kb.alpha, math.pi - kb.alpha) <= DEGENERACY_TOL
        assert spec.scalar[kb.k] == scalar
        axis = spec.axes[kb.k]
        if scalar:
            assert (axis == 0.0).all()
            continue
        assert abs(np.linalg.norm(axis) - 1.0) <= 1e-15
        b = block(kb.k, coin, n)
        for i, proj in enumerate(projectors(axis)):
            v = kb.vectors[:, i]
            assert np.abs(proj - np.outer(v, v.conj())).max() <= 2e-15 / math.sin(kb.alpha)
            assert np.abs(b @ proj - kb.eigenvalues[i] * proj).max() <= 1e-14


def test_spectrum_broadcasts_coin_axes():
    xis = np.linspace(-3.0, 3.0, 4)
    spec = spectrum(6, 0.7, np.array([[0.1], [0.2], [0.3]]), xis)
    assert eigenvalues(spec, 0.5).shape == (3, 4, 6, 2)
    assert spec.axes.shape == (3, 4, 6, 3)
    one = spectrum(6, 0.7, 0.2, xis[2])
    assert np.abs(spec.axes[1, 2] - one.axes).max() < 1e-15
    assert np.abs(eigenvalues(spec, 0.5)[1, 2] - eigenvalues(one, 0.5)).max() < 1e-15


def test_near_scalar_blocks_are_accurate():
    # theta within 1e-12..1e-3 of 0 or pi, zeta on or next to the 2 pi/N grid:
    # blocks k = m and m + N/2 sit next to the scalar branch
    n = 16
    for base in (0.0, math.pi):
        for offset in (1e-12, 1e-10, 1e-8, 1e-6, 1e-3):
            for dz in (0.0, 1e-12, 1e-9):
                coin = CoinParams(base - offset, 2 * math.pi * 3 / n + dz, 0.4, 0.3)
                spec = spectrum(n, coin.theta, coin.zeta, coin.xi)
                lam = eigenvalues(spec, coin.eta)
                for k in range(n):
                    b = block(k, coin, n)
                    for i, proj in enumerate(projectors(spec.axes[k])):
                        assert np.abs(b @ proj - lam[k, i] * proj).max() < 1e-8


def per_sector_spectrum(n, theta, zeta, xi):
    """The per-sector trig form: sin(xi - w), cos(xi - w), sin(zeta - w) and
    cos(w - zeta) taken afresh for every coin and every k."""
    theta, zeta, xi = (x[..., None] for x in np.broadcast_arrays(theta, zeta, xi))
    w = 2.0 * np.pi * np.arange(n) / n
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    comps = [sin_t * np.sin(xi - w), sin_t * np.cos(xi - w), cos_t * np.sin(zeta - w)]
    tilt = np.stack(comps, axis=-1)
    sin_a = np.hypot(sin_t, comps[2])
    alpha = np.arctan2(sin_a, cos_t * np.cos(w - zeta))
    scalar = 2.0 * np.minimum(alpha, np.pi - alpha) <= DEGENERACY_TOL
    axes = np.divide(tilt, sin_a[..., None], out=np.zeros_like(tilt), where=~scalar[..., None])
    return alpha, axes, scalar


@pytest.mark.parametrize("n", [1024, 2048, 4096])
def test_angle_addition_matches_per_sector_trig(n):
    # both start from the same rounded w; the axes may differ by the rounding
    # of the sector terms, which sin(alpha) divides, as the projector gate allows.
    # Coins: zeta on the pi/N grid, a generic coin, theta near 0 and at 0 with
    # zeta on the 2 pi/N grid (near-scalar and scalar blocks; at 1e-200
    # sin(theta)^2 underflows), theta = pi/2, and a broadcast zeta axis
    on_grid = 2 * math.pi * 3 / n
    zetas = np.array([-math.pi, 5 * math.pi / n, on_grid, 0.37, 3.0])
    cases = [
        (0.7, 5 * math.pi / n, 0.3),
        (0.9, 0.37, 1.1),
        (1e-10, on_grid, 0.4),
        (1e-200, on_grid, 0.4),
        (0.0, on_grid, 0.4),
        (math.pi / 2, 0.2, -0.3),
        (1e-10, zetas, 0.0),
    ]
    for theta, zeta, xi in cases:
        spec = spectrum(n, theta, zeta, xi)
        alpha, axes, scalar = per_sector_spectrum(n, theta, zeta, xi)
        assert spec.alpha.shape == alpha.shape and spec.axes.shape == axes.shape
        assert np.array_equal(spec.scalar, scalar), (theta, zeta)
        assert (spec.axes[scalar] == 0.0).all()
        sin_a = np.where(scalar, 0.0, np.sin(alpha))
        with np.errstate(divide="ignore"):
            gate = 2e-15 / sin_a
        assert (np.abs(spec.alpha - alpha) <= gate).all(), (theta, zeta)
        assert (np.abs(spec.axes - axes).max(axis=-1) <= gate).all(), (theta, zeta)
    assert spectrum(n, 0.0, on_grid, 0.4).scalar[[3, 3 + n // 2]].all()


def test_roots_table_is_bit_identical_cold_warm_and_after_eviction():
    # five sizes through a table of four: every size is evicted and read
    # again, and each read must equal a cold call, bit for bit
    sizes = (3, 8, 1024, 2048, 4097)
    coins = (0.7, np.array([[0.1], [0.3]]), np.linspace(-3.0, 3.0, 3))
    cold = {}
    for n in sizes:
        _roots.cache_clear()
        cold[n] = spectrum(n, *coins)
        w = 2.0 * np.pi * np.arange(n) / n
        assert np.array_equal(_roots(n)[0], np.cos(w)) and np.array_equal(_roots(n)[1], np.sin(w))
    for n in sizes + sizes[::-1] + sizes:
        spec = spectrum(n, *coins)
        for got, want in zip(spec, cold[n]):
            assert np.array_equal(got, want), n
    assert _roots.cache_info().maxsize == 4


def test_roots_table_is_read_only():
    cos_w, sin_w = _roots(8)
    for table in (cos_w, sin_w):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 2.0
