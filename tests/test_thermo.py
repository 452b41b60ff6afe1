import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwcycle.coin import CoinParams, hadamard_params
from qwcycle.asymptotics import asymptotic_reduced_density
from qwcycle.state import Bloch, Local, WalkState, make_state
from qwcycle.thermo import (
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


def test_temperature_scales_with_e0():
    rho = np.diag([0.7, 0.3])
    t1 = entanglement_temperature(rho, e0=1.0).temperature
    t3 = entanglement_temperature(rho, e0=3.0).temperature
    assert abs(t3 - 3.0 * t1) < 1e-12


def test_temperature_input_validation():
    with pytest.raises(ValueError):
        entanglement_temperature(np.diag([0.7, 0.3]), e0=0.0)
    with pytest.raises(ValueError):
        entanglement_temperature(np.eye(3) / 3)
    with pytest.raises(ValueError):
        entanglement_temperature(np.array([[0.5, 0.4], [0.1, 0.5]]))


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


@pytest.mark.parametrize("theta", [0.0, 0.45, 1.1])
def test_scans_match_per_point_density(rng, theta):
    # every grid point of both scans, and T0, against per-point
    # asymptotic_reduced_density; at theta = 0, zeta on the 2 pi/N grid puts
    # scalar blocks on the k-axis
    n = 8
    coin = CoinParams(theta, 2 * math.pi * 3 / n, rng.uniform(-math.pi, math.pi), 0.4)
    bloch = bloch_temperature_scan(coin, n, (0.0, math.pi, 5), (0.0, 2 * math.pi, 6))
    t0 = _temperature(make_state(Bloch(math.pi, 0.0), n), coin)
    _assert_close(bloch.reference_temperature, t0)
    for i, g in enumerate(bloch.axis1):
        for j, p in enumerate(bloch.axis2):
            t = _temperature(make_state(Bloch(g, p), n), coin)
            _assert_close(bloch.values[i, j], temperature_ratio(t, t0))

    z = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    state = WalkState.from_grid(z / np.linalg.norm(z))
    axes = (-math.pi, math.pi, 5), (-math.pi, math.pi, 6)
    phases = coin_phase_temperature_scan(theta, state, n, *axes)
    t0 = _temperature(state, hadamard_params())
    _assert_close(phases.reference_temperature, t0)
    for i, zeta in enumerate(phases.axis1):
        for j, xi in enumerate(phases.axis2):
            t = _temperature(state, CoinParams(theta, zeta, xi))
            _assert_close(phases.values[i, j], temperature_ratio(t, t0))


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


@pytest.mark.parametrize("e0", [0.0, -1.0, math.nan, math.inf])
def test_scans_reject_bad_e0(e0):
    axes = (0.0, math.pi, 3), (0.0, math.pi, 3)
    with pytest.raises(ValueError):
        bloch_temperature_scan(hadamard_params(), 6, *axes, e0=e0)
    with pytest.raises(ValueError):
        coin_phase_temperature_scan(math.pi / 4, Local(0), 6, *axes, e0=e0)


def test_phase_scan_rejects_non_finite_theta():
    with pytest.raises(ValueError):
        coin_phase_temperature_scan(math.nan, Local(0), 6, (0.0, 1.0, 2), (0.0, 1.0, 2))
