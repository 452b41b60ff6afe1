import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwcycle.coin import CoinParams, hadamard_params
from qwcycle.asymptotics import asymptotic_reduced_density
from qwcycle.spectral import spectrum
from qwcycle.state import Bloch, Local, WalkState, make_state
from qwcycle.evolution import _eigenvalues
from qwcycle.thermo import (
    _length,
    _temperatures,
    bloch_temperature_scan,
    coin_phase_temperature_scan,
    entanglement_temperature,
    temperature_ratio,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(unit, unit, st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False))
@settings(max_examples=60)
def test_eigenvalues_match_lapack(p, r, phase):
    # rho = p|0><0| + (1-p)|1><1| rotated by an off-diagonal coherence r (capped
    # so the matrix stays PSD)
    off = r * math.sqrt(p * (1 - p)) * np.exp(1j * phase)
    rho = np.array([[p, off], [np.conj(off), 1 - p]])
    res = entanglement_temperature(rho)
    lam = np.linalg.eigvalsh(rho)
    assert abs(res.lambda1 - lam[1]) < 1e-12
    assert abs(res.lambda2 - lam[0]) < 1e-12


def test_temperature_reference_points():
    assert entanglement_temperature(np.eye(2) / 2).temperature == math.inf
    assert entanglement_temperature(np.diag([1.0, 0.0])).temperature == 0.0
    t = entanglement_temperature(np.diag([0.75, 0.25])).temperature
    assert abs(t - 2.0 / math.log(3.0)) < 1e-14


def test_temperature_input_validation():
    with pytest.raises(ValueError):
        entanglement_temperature(np.eye(3) / 3)
    with pytest.raises(ValueError):
        entanglement_temperature(np.array([[0.5, 0.4], [0.1, 0.5]]))
    # not densities: a negative eigenvalue, trace 1.8, trace 0.4
    for diag in ((2.0, -1.0), (0.9, 0.9), (0.3, 0.1)):
        with pytest.raises(ValueError):
            entanglement_temperature(np.diag(diag))


def _density_stack(rng):
    # I/2 (inf), a pure state (0), near-pure ones on both sides of _PURE_TOL,
    # and random densities, in one (K, 2, 2) stack
    v = np.array([0.6, 0.8j])
    z = rng.standard_normal((20, 2, 2)) + 1j * rng.standard_normal((20, 2, 2))
    dense = z @ z.conj().swapaxes(1, 2)
    dense /= np.trace(dense, axis1=1, axis2=2).real[:, None, None]
    special = [np.eye(2) / 2, np.outer(v, v.conj()), np.diag([1 - 1e-15, 1e-15])]
    return np.concatenate([special, [np.diag([1 - 1e-12, 1e-12])], dense])


def test_temperatures_of_a_stack_match_per_matrix(rng):
    stack = _density_stack(rng)
    l1, l2 = _eigenvalues(stack)
    l1, l2, temps = _temperatures(l1 + l2, l1 - l2)
    assert temps[0] == math.inf and temps[1] == 0.0 and temps[2] == 0.0
    assert 0.0 < temps[3] < 0.1
    for k, rho in enumerate(stack):
        res = entanglement_temperature(rho)
        assert (res.lambda1, res.lambda2, res.temperature) == (l1[k], l2[k], temps[k])


def test_temperatures_from_bloch_length_match_per_matrix(rng):
    # the scans' route: trace t and Bloch length |r| of (t + r.sigma)/2, with r
    # read off the matrix as tr(sigma rho)
    stack = _density_stack(rng)
    off = stack[:, 1, 0]
    r = np.stack([2 * off.real, 2 * off.imag, (stack[:, 0, 0] - stack[:, 1, 1]).real])
    temps = _temperatures(np.trace(stack, axis1=1, axis2=2).real, _length(r))[2]
    for k, rho in enumerate(stack):
        want = entanglement_temperature(rho).temperature
        if want in (0.0, math.inf):
            assert temps[k] == want, k
        else:
            assert abs(temps[k] - want) <= 1e-13 * want, (k, temps[k], want)


def test_ratio_semantics():
    assert temperature_ratio(math.inf, math.inf) == 1.0
    assert temperature_ratio(2.0, math.inf) == 0.0
    assert temperature_ratio(math.inf, 2.0) == math.inf
    assert temperature_ratio(0.0, 0.0) == 1.0
    assert temperature_ratio(1.0, 0.0) == math.inf
    assert temperature_ratio(3.0, 2.0) == 1.5
    t = np.array([math.inf, 2.0, math.inf, 0.0, 1.0, 3.0, 0.0])
    t0 = np.array([math.inf, math.inf, 2.0, 0.0, 0.0, 2.0, 2.0])
    assert temperature_ratio(t, t0).tolist() == [1.0, 0.0, math.inf, 1.0, math.inf, 1.5, 0.0]


def _temperature(state, coin):
    return entanglement_temperature(asymptotic_reduced_density(state, coin)).temperature


def _assert_close(got, want):
    assert got == want or abs(got - want) <= 1e-13 * max(1.0, abs(want)), (got, want)


@pytest.mark.parametrize("theta", [0.0, 1e-11, 0.45, 1.1, math.pi / 2])
def test_scans_match_per_point_density(rng, theta):
    # every grid point of both scans, and T0, against per-point
    # asymptotic_reduced_density; at theta = 0, zeta on the 2 pi/N grid puts
    # scalar blocks on the k-axis, theta = 1e-11 puts near-scalar ones there,
    # and at theta = pi/2 every block shares its eigenvalues with every other.
    # zeta 1e-12 off that grid nearly pairs blocks without pairing them.
    n = 8
    coin_xi = rng.uniform(-math.pi, math.pi)
    for off in (0.0, 1e-12):
        coin = CoinParams(theta, 2 * math.pi * 3 / n + off, coin_xi, 0.4)
        bloch = bloch_temperature_scan(coin, n, (0.0, math.pi, 5), (0.0, 2 * math.pi, 6))
        t0 = _temperature(make_state(Bloch(math.pi, 0.0), n), coin)
        _assert_close(bloch.reference_temperature, t0)
        for i, g in enumerate(bloch.axis1):
            for j, p in enumerate(bloch.axis2):
                t = _temperature(make_state(Bloch(g, p), n), coin)
                _assert_close(bloch.values[i, j], temperature_ratio(t, t0))

    z = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    state = WalkState.from_grid(z / np.linalg.norm(z))
    t0 = _temperature(state, hadamard_params())
    for off in (0.0, 1e-12):
        axes = (-math.pi + off, math.pi + off, 5), (-math.pi, math.pi, 6)
        phases = coin_phase_temperature_scan(theta, state, n, *axes)
        _assert_close(phases.reference_temperature, t0)
        for i, zeta in enumerate(phases.axis1):
            for j, xi in enumerate(phases.axis2):
                t = _temperature(state, CoinParams(theta, zeta, xi))
                _assert_close(phases.values[i, j], temperature_ratio(t, t0))


def test_scans_take_one_spectrum(monkeypatch):
    # the phase scan solves only xi = 0 and rotates the state instead (xi is a
    # gauge), so below _SCAN_SECTORS (zeta, k) sectors each scan takes one
    # spectrum, whatever its xi axis; T0 rides in it as row 0, the Hadamard
    # coin under the same gauge, and no density goes through asymptotics
    calls = []

    def counted(*args):
        calls.append(args)
        return spectrum(*args)

    def no_density(*args):
        raise AssertionError("a scan called asymptotic_reduced_density")

    monkeypatch.setattr("qwcycle.thermo.spectrum", counted)
    monkeypatch.setattr("qwcycle.asymptotics.asymptotic_reduced_density", no_density)
    monkeypatch.setattr("qwcycle.thermo.asymptotic_reduced_density", no_density, raising=False)
    axes = (-math.pi, math.pi, 7), (-math.pi, math.pi, 5)
    bloch_temperature_scan(CoinParams(0.6, 0.2, -0.8), 9, *axes)
    assert len(calls) == 1
    whole = coin_phase_temperature_scan(0.6, Local(0, 0.6, 0.8), 9, *axes)
    assert len(calls) == 2

    # one sector row per chunk: T0's row sits alone in the first, and every
    # value and T0 come out bit for bit as from one spectrum
    monkeypatch.setattr("qwcycle.thermo._SCAN_SECTORS", 9)
    chunked = coin_phase_temperature_scan(0.6, Local(0, 0.6, 0.8), 9, *axes)
    assert len(calls) == 2 + 1 + 7
    assert np.array_equal(chunked.values, whole.values)
    assert chunked.reference_temperature == whole.reference_temperature


# 41 rows at N = 4096 are three chunks of _SCAN_SECTORS (zeta, k) sectors
MEMORY_SCAN = 0.6, Local(0, 0.6, 0.8), 4096, (-math.pi, math.pi, 41), (-math.pi, math.pi, 21)


def _traced_phase_scan():
    tracemalloc.start()
    try:
        grid = coin_phase_temperature_scan(*MEMORY_SCAN)
        return grid, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_phase_scan_memory_is_bounded(monkeypatch):
    # traced near 5.7 MiB; one spectrum over every row peaks near 14 MiB
    grid, peak = _traced_phase_scan()
    assert peak <= 32 * 2**20, peak
    monkeypatch.setattr("qwcycle.thermo._SCAN_SECTORS", 41 * 4096)
    assert np.array_equal(grid.values, coin_phase_temperature_scan(*MEMORY_SCAN).values)


def test_phase_scan_reads_real_bloch_vectors():
    # a chunk holds its spectrum and dephases three real 3-vector fields, near
    # 90 bytes a sector: traced near 5.7 MiB
    peak = _traced_phase_scan()[1]
    assert peak <= 8 * 2**20, peak


def test_bloch_scan_reference_point_is_one():
    grid = bloch_temperature_scan(hadamard_params(), 10, (0.0, math.pi, 5), (0.0, 2 * math.pi, 5))
    # (gamma, phi) = (pi, 0) is the reference itself
    assert grid.values[-1, 0] == 1.0
    assert grid.axis1_name == "gamma" and grid.axis2_name == "phi"
    assert grid.values.shape == (5, 5)


def test_bloch_scan_fallback_agrees_with_direct():
    # theta = 0 puts scalar blocks on the k-axis, which keep psi_k whole
    coin = CoinParams(0.0, 0.0, 0.3)
    grid = bloch_temperature_scan(coin, 4, (0.0, math.pi, 3), (0.0, math.pi, 3))
    for i, g in enumerate(grid.axis1):
        for j, p in enumerate(grid.axis2):
            rho = asymptotic_reduced_density(make_state(Bloch(g, p), 4), coin)
            t = entanglement_temperature(rho).temperature
            want = temperature_ratio(t, grid.reference_temperature)
            assert (
                grid.values[i, j] == want
                or abs(grid.values[i, j] - want) < 1e-12
            )


def test_phase_scan_diagonal_and_shape():
    state = Local(0, math.cos(math.pi / 8), math.sin(math.pi / 8))
    grid = coin_phase_temperature_scan(
        math.pi / 4, state, 40, (-math.pi, math.pi, 9), (-math.pi, math.pi, 9)
    )
    assert grid.axis1_name == "zeta" and grid.axis2_name == "xi"
    diag = np.diagonal(grid.values)
    assert np.abs(diag - 1.0).max() < 1e-9


def test_phase_scan_rejects_mismatched_state():
    state = make_state(Local(0), 6)
    with pytest.raises(ValueError):
        coin_phase_temperature_scan(math.pi / 4, state, 8)


def test_axis_resolution_validated():
    with pytest.raises(ValueError):
        bloch_temperature_scan(hadamard_params(), 6, (0.0, math.pi, 0), (0.0, 1.0, 3))
    with pytest.raises(ValueError):
        bloch_temperature_scan(hadamard_params(), 6, (0.0, math.nan, 3), (0.0, 1.0, 3))
    with pytest.raises(ValueError):
        bloch_temperature_scan(hadamard_params(), 6, (0.0, 1.0, 2.7), (0.0, 1.0, 3))
    # cycle sizes that are not whole numbers
    with pytest.raises(ValueError):
        bloch_temperature_scan(hadamard_params(), 2.9, (0.0, 1.0, 2), (0.0, 1.0, 2))
    with pytest.raises(ValueError):
        coin_phase_temperature_scan(math.pi / 4, Local(0), 8.5, (0.0, 1.0, 2), (0.0, 1.0, 2))


def test_phase_scan_rejects_non_finite_theta():
    with pytest.raises(ValueError):
        coin_phase_temperature_scan(math.nan, Local(0), 6, (0.0, 1.0, 2), (0.0, 1.0, 2))


def test_phase_scan_wraps_zeta_like_coin_params():
    # zeta = pi is the coin at -pi (CoinParams wraps it): at a near-pure coin
    # the unwrapped angle's rounding moved the scan's last row from the per-point
    # path by a factor of 3, against 6e-8 on its first row
    n, theta, state = 2, 1e-7, Local(0)
    axes = (-math.pi, math.pi, 21), (-math.pi, math.pi, 11)
    grid = coin_phase_temperature_scan(theta, state, n, *axes)
    assert grid.axis1[-1] == math.pi  # the axis stays as given
    for row in (0, -1):
        for j, xi in enumerate(grid.axis2):
            t = _temperature(make_state(state, n), CoinParams(theta, grid.axis1[row], xi))
            want = temperature_ratio(t, grid.reference_temperature)
            assert abs(grid.values[row, j] - want) <= 1e-6 * abs(want), (row, j)


# The Hadamard walk on the line from a node-local coin |0>, whose asymptotic
# coin density is [[1 - 1/(2 sqrt 2), (1 - 1/sqrt 2)/2], [same, 1/(2 sqrt 2)]]
# (Carneiro et al., New J. Phys. 7, 156 (2005)).  Its eigenvalues are
# 1/sqrt 2 and 1 - 1/sqrt 2, so T = 2/ln(1 + sqrt 2) = 2/asinh(1) and the
# entanglement entropy is Carneiro et al.'s 0.872.  With mpmath at mp.dps = 50:
#   LINE_T0 = 2 / mp.asinh(1)
#   LINE_ENTROPY = -(l * mp.log(l, 2) + (1 - l) * mp.log(1 - l, 2)), l = 1 / mp.sqrt(2)
LINE_T0 = 2.269185314213021968114490810306572475725981585504
LINE_ENTROPY = 0.87242933985646807348563941371166053239782726500346


def test_phase_scan_reference_is_the_hadamard_line_walk():
    # a local state has psi_k = chi / sqrt(N) in every sector, so the cycle's
    # rho_c is the N-point trapezoid rule of the line walk's, exact to rounding
    # well before N = 31; no oracle is involved
    r = 1.0 / math.sqrt(2.0)
    line = np.array([[1 - r / 2, (1 - r) / 2], [(1 - r) / 2, r / 2]])
    assert abs(entanglement_temperature(line).temperature / LINE_T0 - 1) <= 1e-13
    for n in (31, 1001):
        grid = coin_phase_temperature_scan(0.6, Local(0), n, (-1.0, 1.0, 3), (-1.0, 1.0, 2))
        t0 = grid.reference_temperature
        assert abs(t0 / LINE_T0 - 1) <= 1e-13, (n, t0)
        # lambda1 / lambda2 = e^{2/T0}, lambda1 + lambda2 = 1
        lam = np.array([1.0, math.exp(-2.0 / t0)]) / (1.0 + math.exp(-2.0 / t0))
        entropy = -(lam * np.log2(lam)).sum()
        assert abs(entropy - LINE_ENTROPY) <= 1e-13, (n, entropy)
        assert round(entropy, 3) == 0.872
