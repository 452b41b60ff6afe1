"""Walker states on the cycle and the initial-state presets.

A state lives on coin (x) position space.  Amplitudes are stored as a flat
complex vector of length 2N indexed (s, j) -> s*N + j, with s in {0, 1} the
chirality and j in {0..N-1} the node.  ``as_grid()`` exposes the same buffer
as a (2, N) view, which is the shape every numerical kernel works with.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Raw:
    """Explicit amplitude list of (s, j, re, im) rows; normalized on build."""

    entries: tuple[tuple[int, int, float, float], ...]


InitialStateSpec = Union[Local, Bloch, EntangledPair, SeparablePair, Raw]


def make_state(spec: InitialStateSpec, n_nodes: int) -> WalkState:
    """Build a normalized WalkState from a spec on an ``n_nodes``-cycle."""
    n = int(n_nodes)
    if n < 2:
        raise ValueError(f"n_nodes must be an integer >= 2, got {n_nodes!r}")
    grid = np.zeros((2, n), dtype=np.complex128)
    if isinstance(spec, Local):
        if not 0 <= spec.j < n:
            raise ValueError(f"node {spec.j} out of range for N={n}")
        nrm = math.hypot(abs(spec.c0), abs(spec.c1))
        if nrm == 0.0:
            raise ValueError("local coin spinor must be nonzero")
        grid[0, spec.j] = spec.c0 / nrm
        grid[1, spec.j] = spec.c1 / nrm
    elif isinstance(spec, Bloch):
        if not 0 <= spec.j < n:
            raise ValueError(f"node {spec.j} out of range for N={n}")
        grid[0, spec.j] = math.cos(spec.gamma / 2)
        grid[1, spec.j] = cmath.exp(1j * spec.phi) * math.sin(spec.gamma / 2)
    elif isinstance(spec, EntangledPair):
        if not 0 < spec.p < n:
            raise ValueError(f"pair offset p={spec.p} must satisfy 0 < p < N={n}")
        grid[0, 0] = 1 / math.sqrt(2)
        grid[1, spec.p] = 1 / math.sqrt(2)
    elif isinstance(spec, SeparablePair):
        if not 0 < spec.p < n:
            raise ValueError(f"pair offset p={spec.p} must satisfy 0 < p < N={n}")
        grid[0, 0] = 1 / math.sqrt(2)
        grid[0, spec.p] = 1 / math.sqrt(2)
    elif isinstance(spec, Raw):
        for s, j, re, im in spec.entries:
            if s not in (0, 1):
                raise ValueError(f"chirality index must be 0 or 1, got {s}")
            if not 0 <= j < n:
                raise ValueError(f"node {j} out of range for N={n}")
            grid[s, j] += complex(re, im)
        nrm = float(np.linalg.norm(grid))
        if nrm < 1e-15:
            raise ValueError("raw amplitudes sum to the zero vector")
        grid /= nrm
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
        body, _, at = rest.partition("@")
        parts = [p.strip() for p in body.split(",") if p.strip()]
        if len(parts) != 2:
            raise ValueError("'bloch' takes GAMMA,PHI[@J]")
        j = int(at) if at else 0
        return Bloch(gamma=parse_angle(parts[0]), phi=parse_angle(parts[1]), j=j)
    if kind == "entangled":
        return EntangledPair(p=int(rest))
    if kind == "separable":
        return SeparablePair(p=int(rest))
    if kind == "raw":
        if not rest.startswith("@"):
            raise ValueError("'raw' takes @FILE with CSV rows s,j,re,im")
        entries = []
        with open(rest[1:], newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].strip().startswith("#"):
                    continue
                if len(row) != 4:
                    raise ValueError(f"raw row must be s,j,re,im, got {row!r}")
                entries.append((int(row[0]), int(row[1]), float(row[2]), float(row[3])))
        return Raw(entries=tuple(entries))
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

