"""Walker states on the cycle and the initial-state presets.

A state lives on coin (x) position space.  Amplitudes are stored as a flat
complex vector of length 2N indexed (s, j) -> s*N + j, with s in {0, 1} the
chirality and j in {0..N-1} the node.  ``as_grid()`` exposes the same buffer
as a (2, N) view, which is the shape every numerical kernel works with.
"""

from __future__ import annotations

import cmath
import functools
import io
import math
import re
from dataclasses import FrozenInstanceError, dataclass
from typing import Union

import numpy as np
from numpy.typing import NDArray

from .angles import parse_angle

__all__ = [
    "WalkState",
    "Local",
    "Bloch",
    "EntangledPair",
    "SeparablePair",
    "Raw",
    "InitialStateSpec",
    "make_state",
    "parse_state",
    "momentum_spinors",
]

_NORM_TOL = 1e-12

# one row of a raw:@FILE state; the indices parse as integers, so 1.0 is refused
_RAW_ROW = np.dtype([("s", int), ("j", int), ("re", float), ("im", float)])
# a line whose first field, unquoted and stripped, starts with '#'
_COMMENT_LINE = re.compile(r'^(?:"[^\S\n]*|[^\S\n]*)#.*', re.MULTILINE)


def _whole(value: float, least: int, name: str) -> int:
    """``value`` as an int when it is a whole number >= ``least``.

    The one rule for every count (cycle size, step count, window, axis
    resolution): int() alone would run 2.5 as 2 and overflow on inf.
    """
    if not (float(value).is_integer() and value >= least):
        raise ValueError(f"{name} must be a whole number >= {least}, got {value!r}")
    return int(value)


def _norm(grid: NDArray[np.complex128]) -> float:
    """sqrt(sum |a|^2) over a C-contiguous complex array, with the two real
    dot products numpy's ``linalg.norm`` takes, so that the two agree bit for bit."""
    flat = grid.ravel()
    return math.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag))


@dataclass(frozen=True, eq=False)
class WalkState:
    """Normalized pure state of the walker; amplitudes flat (2N,), coin-major."""

    n_nodes: int
    amplitudes: NDArray[np.complex128]

    def __post_init__(self) -> None:
        n = self.n_nodes
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError(f"n_nodes must be an integer >= 2, got {n!r}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.shape != (2 * n,):
            raise ValueError(f"amplitudes must have length {2 * n}, got {amps.shape}")
        if not abs(amps @ amps.conj() - 1.0) <= _NORM_TOL:
            raise ValueError("state is not normalized to within 1e-12")
        object.__setattr__(self, "amplitudes", amps)

    def as_grid(self) -> NDArray[np.complex128]:
        """(2, N) view: row s holds the amplitudes of chirality s over nodes."""
        return self.amplitudes.reshape(2, self.n_nodes)

    @classmethod
    def from_grid(cls, grid: NDArray[np.complex128]) -> "WalkState":
        grid = np.asarray(grid, dtype=np.complex128)
        if grid.ndim != 2 or grid.shape[0] != 2:
            raise ValueError(f"grid must be (2, N), got {grid.shape}")
        return cls(n_nodes=grid.shape[1], amplitudes=grid.reshape(-1))


# ---------------------------------------------------------------------------
# initial-state specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Local:
    """Coin spinor (c0, c1) localized at node j. Defaults to coin |0>."""

    j: int
    c0: complex = 1.0 + 0j
    c1: complex = 0.0 + 0j


@dataclass(frozen=True)
class Bloch:
    """Coin [cos(gamma/2), e^{i phi} sin(gamma/2)] localized at node j."""

    gamma: float
    phi: float
    j: int = 0


@dataclass(frozen=True)
class EntangledPair:
    """(|0>_pos |0>_coin + |p>_pos |1>_coin) / sqrt(2): coin correlated with node."""

    p: int


@dataclass(frozen=True)
class SeparablePair:
    """(|0>_pos + |p>_pos)/sqrt(2) tensor |0>_coin: same spread, no correlation."""

    p: int


class Raw:
    """Explicit amplitude rows (s, j, re, im); rows that repeat an (s, j) add
    in order, and the state is normalized on build.

    ``Raw(entries=((s, j, re, im), ...))`` holds the tuple it is given.  A
    ``raw:@FILE`` state from ``parse_state`` holds instead the four read-only
    columns that ``np.loadtxt`` read (integer s and j, float re and im), and
    ``make_state`` scatters them as they are, with no Python object per row.
    Either way ``entries`` reads the rows as a tuple of (s, j, re, im), built
    from the columns on first use, and a Raw compares, hashes and prints by
    that tuple, as a frozen dataclass of that one field does.  Assigning an
    attribute raises ``dataclasses.FrozenInstanceError``.
    """

    __match_args__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, int, float, float], ...]) -> None:
        object.__setattr__(self, "entries", entries)  # shadows the cached property
        object.__setattr__(self, "_columns", None)

    @classmethod
    def _from_columns(cls, columns: tuple[NDArray, ...]) -> Raw:
        """A Raw over the read-only columns s, j, re, im of a raw:@FILE."""
        raw = cls.__new__(cls)
        object.__setattr__(raw, "_columns", columns)
        return raw

    @functools.cached_property
    def entries(self) -> tuple[tuple[int, int, float, float], ...]:
        return tuple(zip(*(column.tolist() for column in self._columns)))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.entries,) == (other.entries,)

    def __hash__(self) -> int:
        return hash((self.entries,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(entries={self.entries!r})"


InitialStateSpec = Union[Local, Bloch, EntangledPair, SeparablePair, Raw]


def _node(j: float, n: int, pair: bool = False) -> int:
    """``j`` as a node index in [0, N), or as the offset p in (0, N) of a pair
    state: the one rule for every index of a spec, so that 2.5 or NaN raise a
    ValueError that names them instead of numpy's IndexError."""
    if pair and not 0 < j < n:
        raise ValueError(f"pair offset p={j} must satisfy 0 < p < N={n}")
    if not 0 <= j < n:
        raise ValueError(f"node {j} out of range for N={n}")
    return _whole(j, int(pair), "pair offset p" if pair else "node index")


def make_state(spec: InitialStateSpec, n_nodes: int) -> WalkState:
    """Build a normalized WalkState from a spec on an ``n_nodes``-cycle."""
    n = _whole(n_nodes, 2, "n_nodes")
    grid = np.zeros((2, n), dtype=np.complex128)
    if isinstance(spec, Local):
        j = _node(spec.j, n)
        if not (cmath.isfinite(spec.c0) and cmath.isfinite(spec.c1)):
            raise ValueError(f"local coin spinor must be finite, got ({spec.c0}, {spec.c1})")
        nrm = math.hypot(abs(spec.c0), abs(spec.c1))
        if nrm == 0.0:
            raise ValueError("local coin spinor must be nonzero")
        grid[0, j] = spec.c0 / nrm
        grid[1, j] = spec.c1 / nrm
    elif isinstance(spec, Bloch):
        j = _node(spec.j, n)
        if not (math.isfinite(spec.gamma) and math.isfinite(spec.phi)):
            raise ValueError(f"Bloch angles must be finite, got gamma={spec.gamma}, phi={spec.phi}")
        grid[0, j] = math.cos(spec.gamma / 2)
        grid[1, j] = cmath.exp(1j * spec.phi) * math.sin(spec.gamma / 2)
    elif isinstance(spec, (EntangledPair, SeparablePair)):
        p = _node(spec.p, n, pair=True)
        coin = 1 if isinstance(spec, EntangledPair) else 0  # of the |p> term
        grid[0, 0] = grid[coin, p] = 1 / math.sqrt(2)
    elif isinstance(spec, Raw):
        if spec._columns is None:  # built from tuples: their values as floats
            s, j, real, imag = np.array(spec.entries, dtype=float).reshape(len(spec.entries), 4).T
        else:
            s, j, real, imag = spec._columns
        ok = ((s == 0) | (s == 1)) & (j >= 0) & (j < n) & (j == np.floor(j))
        ok &= np.isfinite(real) & np.isfinite(imag)
        if not ok.all():
            # the first bad row's message, naming its values as given
            s, j, real, imag = spec.entries[int(np.argmin(ok))]
            if s not in (0, 1):
                raise ValueError(f"chirality index must be 0 or 1, got {s}")
            j = _node(j, n)
            raise ValueError(f"raw amplitude at s={s}, j={j} must be finite, got {real}, {imag}")
        # bincount adds each cell's rows in input order, as a loop of += would
        at = (s * n + j).astype(np.intp)
        grid.real = np.bincount(at, real, 2 * n).reshape(2, n)
        grid.imag = np.bincount(at, imag, 2 * n).reshape(2, n)
        # scaled by the largest |amplitude| first, so that the squares in the
        # norm neither overflow nor underflow
        scale = np.abs(grid).max()
        if scale == 0.0:
            raise ValueError("raw amplitudes sum to the zero vector")
        grid /= scale
        grid /= _norm(grid)
    else:
        raise TypeError(f"unknown initial-state spec {spec!r}")
    return WalkState.from_grid(grid)


def parse_state(text: str) -> InitialStateSpec:
    """Parse the initial-state mini-language.

    Forms::

        local:J[,c0re,c0im,c1re,c1im]   coin spinor at node J (default |0>)
        bloch:GAMMA,PHI[@J]             Bloch-angle coin at node J (default 0)
        entangled:P                     (|0>|0> + |P>|1>)/sqrt(2)
        separable:P                     (|0> + |P>)|0>/sqrt(2)
        raw:@FILE                       CSV rows s,j,re,im

    Angle tokens accept ``pi`` literals.
    """
    kind, _, rest = text.strip().partition(":")
    kind = kind.lower()
    if kind == "local":
        parts = [p.strip() for p in rest.split(",")] if rest else []
        if len(parts) == 1:
            return Local(j=int(parts[0]))
        if len(parts) == 5:
            j = int(parts[0])
            vals = [float(p) for p in parts[1:]]
            return Local(j=j, c0=complex(vals[0], vals[1]), c1=complex(vals[2], vals[3]))
        raise ValueError("'local' takes J or J,c0re,c0im,c1re,c1im")
    if kind == "bloch":
        body, sep, at = rest.partition("@")
        parts = [p.strip() for p in body.split(",")]
        if len(parts) != 2 or (sep and not at.strip()):
            raise ValueError("'bloch' takes GAMMA,PHI[@J]")
        j = int(at) if sep else 0
        return Bloch(gamma=parse_angle(parts[0]), phi=parse_angle(parts[1]), j=j)
    if kind == "entangled":
        return EntangledPair(p=int(rest))
    if kind == "separable":
        return SeparablePair(p=int(rest))
    if kind == "raw":
        if not rest.startswith("@"):
            raise ValueError("'raw' takes @FILE with CSV rows s,j,re,im")
        with open(rest[1:]) as fh:
            body = fh.read()
        if "#" in body:  # else no line is a comment, and the regex's pass is skipped
            body = _COMMENT_LINE.sub("", body)
        if not body.strip("\n"):  # loadtxt would warn that it read no rows
            return Raw(entries=())
        try:
            rows = np.loadtxt(
                io.StringIO(body), dtype=_RAW_ROW, delimiter=",", quotechar='"',
                comments=None, ndmin=1,
            )
        except ValueError as exc:
            # numpy's row number counts only data rows, from 0 or from 1 by the
            # error, so it names no line of the file: keep what it says is wrong
            detail = str(exc).partition(" at row ")[0]
            raise ValueError(f"raw rows must be s,j,re,im: {detail}") from None
        rows.flags.writeable = False
        return Raw._from_columns(tuple(rows[name] for name in _RAW_ROW.names))
    raise ValueError(f"unknown initial-state spec {text!r}")


# ---------------------------------------------------------------------------
# Fourier projection onto momentum sectors
# ---------------------------------------------------------------------------

def momentum_spinors(state: WalkState) -> NDArray[np.complex128]:
    """All k-sector coin spinors at once, shape (2, N); column k is psi_k.

    psi_k = (1/sqrt N) sum_j e^{-2 pi i k j / N} (a_{0,j}, a_{1,j}), i.e. a
    forward FFT along the node axis scaled to keep sum_k |psi_k|^2 = 1.
    """
    n = state.n_nodes
    return np.fft.fft(state.as_grid(), axis=1) / math.sqrt(n)

