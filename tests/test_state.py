import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwcycle.state import (
    Bloch,
    EntangledPair,
    Local,
    Raw,
    SeparablePair,
    WalkState,
    make_state,
    momentum_spinors,
    parse_state,
)


def test_walkstate_rejects_unnormalized():
    with pytest.raises(ValueError):
        WalkState(n_nodes=3, amplitudes=np.ones(6))
    with pytest.raises(ValueError):
        WalkState(n_nodes=3, amplitudes=np.zeros(6))
    with pytest.raises(ValueError):
        WalkState(n_nodes=3, amplitudes=np.full(6, np.nan))


def test_walkstate_rejects_wrong_length():
    with pytest.raises(ValueError):
        WalkState(n_nodes=4, amplitudes=np.array([1.0, 0, 0, 0, 0, 0]))


def test_grid_round_trip():
    st0 = make_state(Local(1, 0.6, 0.8j), 5)
    assert st0.as_grid().shape == (2, 5)
    again = WalkState.from_grid(st0.as_grid())
    assert np.array_equal(again.amplitudes, st0.amplitudes)


@given(
    st.integers(min_value=2, max_value=30),
    st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=50)
def test_local_state_normalized(n, c0, c1):
    if abs(c0) + abs(c1) < 1e-6:
        return
    s = make_state(Local(j=n // 2, c0=c0, c1=c1), n)
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12
    # all weight on the one node
    grid = s.as_grid()
    assert abs(np.abs(grid[:, n // 2]).sum() - np.abs(grid).sum()) < 1e-12


def test_bloch_entries():
    g, p = 1.1, -0.7
    s = make_state(Bloch(gamma=g, phi=p, j=3), 6).as_grid()
    assert abs(s[0, 3] - math.cos(g / 2)) < 1e-15
    assert abs(s[1, 3] - np.exp(1j * p) * math.sin(g / 2)) < 1e-15


def test_pair_states():
    ent = make_state(EntangledPair(p=4), 10).as_grid()
    assert abs(ent[0, 0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(ent[1, 4] - 1 / math.sqrt(2)) < 1e-15
    assert np.count_nonzero(ent) == 2

    sep = make_state(SeparablePair(p=4), 10).as_grid()
    assert abs(sep[0, 0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(sep[0, 4] - 1 / math.sqrt(2)) < 1e-15
    assert np.count_nonzero(sep[1]) == 0


@pytest.mark.parametrize("p", [0, 10, -1])
def test_pair_offset_range(p):
    with pytest.raises(ValueError):
        make_state(EntangledPair(p=p), 10)
    with pytest.raises(ValueError):
        make_state(SeparablePair(p=p), 10)


def test_raw_accumulates_and_normalizes():
    spec = Raw(entries=((0, 1, 3.0, 0.0), (0, 1, 1.0, 0.0), (1, 2, 0.0, 4.0)))
    grid = make_state(spec, 4).as_grid()
    # 4 and 4i, normalized
    assert abs(grid[0, 1] - 4 / math.sqrt(32)) < 1e-15
    assert abs(grid[1, 2] - 4j / math.sqrt(32)) < 1e-15


def test_raw_rejects_zero_and_bad_indices():
    with pytest.raises(ValueError):
        make_state(Raw(entries=((0, 0, 1.0, 0.0), (0, 0, -1.0, 0.0))), 4)
    with pytest.raises(ValueError):
        make_state(Raw(entries=((2, 0, 1.0, 0.0),)), 4)
    with pytest.raises(ValueError):
        make_state(Raw(entries=((0, 9, 1.0, 0.0),)), 4)


def test_make_state_rejects_tiny_cycle():
    with pytest.raises(ValueError):
        make_state(Local(0), 1)


def test_parse_state_forms():
    assert parse_state("local:3") == Local(j=3)
    assert parse_state("local:2,0.6,0,0,0.8") == Local(j=2, c0=0.6 + 0j, c1=0.8j)
    assert parse_state("bloch:pi/2,0") == Bloch(gamma=math.pi / 2, phi=0.0, j=0)
    assert parse_state("bloch:pi/4,pi@5") == Bloch(gamma=math.pi / 4, phi=math.pi, j=5)
    assert parse_state("entangled:7") == EntangledPair(p=7)
    assert parse_state("separable:3") == SeparablePair(p=3)


def test_parse_state_raw_file(tmp_path):
    f = tmp_path / "amps.csv"
    f.write_text("# comment line\n0,0,1,0\n1,2,0,1\n")
    spec = parse_state(f"raw:@{f}")
    assert spec == Raw(entries=((0, 0, 1.0, 0.0), (1, 2, 0.0, 1.0)))
    s = make_state(spec, 5)
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "text", ["", "local", "local:1,2", "bloch:pi", "raw:file.csv", "plane:3", "bloch:1,2@x"]
)
def test_parse_state_rejects(text):
    with pytest.raises(ValueError):
        parse_state(text)


def test_momentum_spinors_conventions(rng):
    n = 7
    z = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    z /= np.linalg.norm(z)
    s = WalkState.from_grid(z)
    psis = momentum_spinors(s)
    # Parseval: sector weights sum to 1
    assert abs(np.sum(np.abs(psis) ** 2) - 1.0) < 1e-12
    # k = 0 sector is the plain node average (up to the 1/sqrt(N))
    assert np.abs(psis[:, 0] - z.sum(axis=1) / math.sqrt(n)).max() < 1e-12
    # explicit DFT sign convention at k = 1
    phases = np.exp(-2j * math.pi * np.arange(n) / n)
    assert np.abs(psis[:, 1] - (z * phases).sum(axis=1) / math.sqrt(n)).max() < 1e-12

