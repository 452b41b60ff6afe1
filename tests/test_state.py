import copy
import csv
import dataclasses
import math
import pickle
import typing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwcycle.state import (
    Bloch,
    EntangledPair,
    InitialStateSpec,
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


def test_walkstate_rejects_a_tiny_cycle_and_a_grid_of_three_rows():
    with pytest.raises(ValueError, match="n_nodes must be an integer >= 2"):
        WalkState(1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match=r"grid must be \(2, N\), got \(3, 4\)"):
        WalkState.from_grid(np.zeros((3, 4)))


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


@pytest.mark.parametrize("p", [0, 10, -1, 1.5, math.nan])
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
    # a fractional node index names itself instead of failing inside numpy
    for spec in (Raw(entries=((0, 2.5, 1.0, 0.0),)), Local(j=2.5), Bloch(1.0, 0.0, j=2.5)):
        with pytest.raises(ValueError, match="2.5"):
            make_state(spec, 4)
    # a non-finite amplitude fails before the norm divides by it
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            make_state(Raw(entries=((0, 1, 1.0, 0.0), (1, 2, 0.0, bad))), 4)


def test_raw_normalizes_extreme_magnitudes():
    # scaled by the largest amplitude before the norm squares anything: 1e300
    # does not overflow, and 1e-200 is a direction rather than the zero vector
    grid = make_state(Raw(entries=((0, 0, 1e300, 0.0), (1, 0, 1e300, 0.0))), 4).as_grid()
    assert np.abs(grid[:, 0] - 1 / math.sqrt(2)).max() < 1e-15
    grid = make_state(Raw(entries=((0, 1, 1e-200, 0.0),)), 4).as_grid()
    assert grid[0, 1] == 1.0 and np.count_nonzero(grid) == 1


def test_local_and_bloch_name_non_finite_values():
    bad = (
        Local(0, math.nan, 0.0),
        Local(1, 1.0, complex(0.0, math.inf)),
        Bloch(math.nan, 0.0),
        Bloch(1.0, math.inf),
    )
    for spec in bad:
        with pytest.raises(ValueError, match="must be finite"):
            make_state(spec, 4)


def test_make_state_rejects_a_zero_spinor_and_a_spec_it_does_not_know():
    with pytest.raises(ValueError, match="local coin spinor must be nonzero"):
        make_state(Local(0, 0, 0), 4)
    with pytest.raises(TypeError, match="unknown initial-state spec 'local:0'"):
        make_state("local:0", 4)


def test_make_state_rejects_tiny_cycle():
    for n in (1, 8.7):  # 8.7 used to build N = 8
        with pytest.raises(ValueError):
            make_state(Local(0), n)


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


def _csv_entries(path):
    """The raw:@FILE rules as a literal csv-reader loop: rows s,j,re,im; a row
    whose first field starts with '#' and an empty row are skipped."""
    entries = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            if len(row) != 4:
                raise ValueError(f"raw row must be s,j,re,im, got {row!r}")
            entries.append((int(row[0]), int(row[1]), float(row[2]), float(row[3])))
    return tuple(entries)


def _looped_grid(entries, n):
    """make_state's raw grid as a literal loop of += in row order."""
    grid = np.zeros((2, n), dtype=np.complex128)
    for s, j, re, im in entries:
        grid[s, j] += complex(re, im)
    grid /= np.abs(grid).max()
    return grid / np.linalg.norm(grid)


def _raw_file(tmp_path, text):
    path = tmp_path / "amps.csv"
    path.write_bytes(text.encode())
    return path


RAW_ROWS = ((0, 1, 0.5, 0.0), (1, 2, 0.25, -1.0))


@pytest.mark.parametrize(
    "text",
    [
        "0,1,0.5,0\n1,2,0.25,-1\n",
        "# header\n0,1,0.5,0\n  # indented, with, commas\n\t#tab\n1,2,0.25,-1\n# no newline",
        "\n0,1,0.5,0\n\n\n1,2,0.25,-1\n\n",
        "# c\r\n0,1,0.5,0\r\n\r\n1,2,0.25,-1\r\n",
        " 0 , 1 ,  0.5 , 0 \n1,\t2,0.25\t,-1",
        '"0","1","0.5","0"\n"1","2","0.25","-1"\n',
        '"# quoted comment",1\n0,+1,5e-1,-0\n1,2,.25,-1e0\n',
    ],
    ids=["plain", "comments", "blank", "crlf", "spaces", "quoted", "signs"],
)
def test_raw_file_parses_as_the_csv_rules(tmp_path, text):
    path = _raw_file(tmp_path, text)
    spec = parse_state(f"raw:@{path}")
    assert spec == Raw(entries=_csv_entries(path)) == Raw(entries=RAW_ROWS)
    assert [tuple(map(type, row)) for row in spec.entries] == [(int, int, float, float)] * 2
    want = _looped_grid(spec.entries, 4)
    assert make_state(spec, 4).as_grid().tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "text, message",
    [
        ("0,1,0.5,0\n0,1,0.5\n", "s,j,re,im"),
        ("0,1,0.5,0,0\n", "s,j,re,im"),
        ("0,1,abc,0\n", "'abc'"),
        ("0,1,0.5,0 # x\n", "'0 # x'"),
        ("0,1.5,0.5,0\n", "'1.5'"),
        ("0,1.0,0.5,0\n", "'1.0'"),  # an index parses as int() would: no 1.0
        ("0,1,0.5,0\n   \n", "s,j,re,im"),
        ("1,0,1,0\n2,1,0.5,0\n", "^chirality index must be 0 or 1, got 2$"),
        ("0,4,0.5,0\n", "^node 4 out of range for N=4$"),
        ("0,1,0.5,0\n1,2,nan,0\n", "^raw amplitude at s=1, j=2 must be finite, got nan, 0.0$"),
        ("", "^raw amplitudes sum to the zero vector$"),
        ("# one\n  # two\n\n", "^raw amplitudes sum to the zero vector$"),
    ],
    ids=[
        "3-field", "5-field", "non-numeric", "trailing-comment", "j=1.5", "j=1.0",
        "blank-spaces", "s=2", "j=N", "nan", "empty", "comments-only",
    ],
)
def test_raw_file_rejects(tmp_path, text, message):
    path = _raw_file(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" among them
        with pytest.raises(ValueError, match=message):
            make_state(parse_state(f"raw:@{path}"), 4)
    with pytest.raises(ValueError):
        make_state(Raw(entries=_csv_entries(path)), 4)


def test_raw_file_repeated_rows_add_in_order(tmp_path, rng):
    n, count = 5, 2000
    s, j = rng.integers(0, 2, count), rng.integers(0, n, count)
    amps = rng.standard_normal((count, 2)) * 10.0 ** rng.integers(-8, 9, (count, 1))
    rows = [f"{a},{b},{re!r},{im!r}" for a, b, (re, im) in zip(s, j, amps.tolist())]
    path = _raw_file(tmp_path, "\n".join(rows) + "\n")
    spec = parse_state(f"raw:@{path}")
    assert spec == Raw(entries=_csv_entries(path))
    want = _looped_grid(spec.entries, n)
    assert make_state(spec, n).as_grid().tobytes() == want.tobytes()


def test_raw_from_a_file_keeps_the_tuple_contract(tmp_path):
    # a raw:@FILE Raw holds loadtxt's columns, one built by hand its tuple:
    # they compare, hash and print alike and give the same grid
    rows = ((0, 1, 0.5, 0.0), (1, 2, 0.25, -1.0), (0, 1, -0.0, 5e-324), (1, 0, 1 / 3, 1e-300))
    path = _raw_file(tmp_path, "".join(f"{s},{j},{re!r},{im!r}\n" for s, j, re, im in rows))
    by_hand = Raw(entries=rows)
    assert hash(parse_state(f"raw:@{path}")) == hash(by_hand)
    assert repr(parse_state(f"raw:@{path}")) == repr(by_hand) == f"Raw(entries={rows!r})"
    read = parse_state(f"raw:@{path}")
    assert read == by_hand and by_hand == read and len({read, by_hand}) == 1
    assert read != Raw(entries=rows[:-1]) and read != rows
    assert read.entries == rows
    assert [tuple(map(type, row)) for row in read.entries] == [(int, int, float, float)] * 4
    assert make_state(read, 3).as_grid().tobytes() == make_state(by_hand, 3).as_grid().tobytes()
    for spec in (by_hand, read):
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.entries = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            del spec.entries
        assert spec.entries == rows
    # nor can the columns behind the tuple change under it
    with pytest.raises(ValueError, match="read-only"):
        read._columns[2][0] = 1.0


def test_raw_is_a_frozen_dataclass_that_reads_a_file_lazily(tmp_path):
    # every spec is a frozen dataclass; Raw's one field is entries
    for spec_type in typing.get_args(InitialStateSpec):
        assert dataclasses.is_dataclass(spec_type)
        assert spec_type.__dataclass_params__.frozen
    assert [field.name for field in dataclasses.fields(Raw)] == ["entries"]
    rows = ((0, 1, 0.5, 0.0), (1, 2, 0.25, -1.0), (1, 0, 1 / 3, 1e-300))
    path = _raw_file(tmp_path, "".join(f"{s},{j},{re!r},{im!r}\n" for s, j, re, im in rows))
    # make_state scatters a file's columns without building the row tuples
    read = parse_state(f"raw:@{path}")
    make_state(read, 3)
    assert "entries" not in vars(read)
    round_trips = (copy.copy, copy.deepcopy, lambda spec: pickle.loads(pickle.dumps(spec)))
    for spec in (parse_state(f"raw:@{path}"), Raw(entries=rows)):
        for round_trip in round_trips:
            again = round_trip(spec)
            assert again == spec and spec == again and again.entries == rows


@pytest.mark.parametrize(
    "text",
    [
        "", "local", "local:1,2", "bloch:pi", "raw:file.csv", "plane:3", "bloch:1,2@x",
        "bloch:pi,0@", "bloch:pi,,0", "bloch:pi,0,",
    ],
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

