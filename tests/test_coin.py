import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qwcycle.coin import CoinParams, build_coin, diaz_params, hadamard_params, parse_coin

angle = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@given(angle, angle, angle, angle)
def test_coin_is_unitary(theta, zeta, xi, eta):
    u = build_coin(CoinParams(theta, zeta, xi, eta))
    assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-14


@given(angle, angle, angle, angle)
def test_coin_determinant_is_global_phase(theta, zeta, xi, eta):
    p = CoinParams(theta, zeta, xi, eta)
    det = np.linalg.det(build_coin(p))
    assert abs(det - np.exp(1j * p.eta)) < 1e-12


def test_hadamard_matrix():
    # the parametrization reaches H only up to the global factor i
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.abs(build_coin(hadamard_params()) - 1j * h).max() < 1e-15


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4, 1.2])
def test_diaz_matrix(theta):
    c, s = math.cos(theta), math.sin(theta)
    want = np.array([[c, s], [s, -c]])
    assert np.abs(build_coin(diaz_params(theta)) - want).max() < 1e-15


def test_angles_are_canonicalized():
    p = CoinParams(theta=math.pi / 4 + 2 * math.pi, zeta=-3 * math.pi, xi=0.0)
    assert abs(p.theta - math.pi / 4) < 1e-12
    assert -math.pi <= p.zeta < math.pi


def test_params_reject_bad_input():
    with pytest.raises(ValueError):
        CoinParams(theta=math.inf, zeta=0, xi=0)
    with pytest.raises(TypeError):
        CoinParams(theta="fast", zeta=0, xi=0)


def test_parse_coin_presets():
    assert parse_coin("hadamard") == hadamard_params()
    assert parse_coin("diaz:pi/4") == diaz_params(math.pi / 4)
    assert parse_coin("u2:pi/4,pi/2,pi/2") == hadamard_params()
    assert parse_coin("u2:0.1,0.2,0.3,0.4") == CoinParams(0.1, 0.2, 0.3, 0.4)


@pytest.mark.parametrize(
    "spec",
    [
        "", "hadamard:3", "diaz", "u2:1,2", "u2:1,2,3,4,5", "grover", "u2:a,b,c",
        # an empty field must not shift the fields after it into other slots
        "u2:0.5,,0.3,0.1", "u2:0.5,0.3,0.1,",
    ],
)
def test_parse_coin_rejects(spec):
    with pytest.raises(ValueError):
        parse_coin(spec)
