"""U(2) coin operators for the coined walk.

The coin acts on the two-dimensional chirality space and is parametrized by
four angles (theta, zeta, xi, eta):

    Gamma = e^{i eta/2} [[ e^{i zeta} cos(theta),  e^{i xi} sin(theta)],
                         [-e^{-i xi}  sin(theta),  e^{-i zeta} cos(theta)]]

which covers all of U(2).  ``eta`` is a global phase and never affects an
observable: the closed forms read only differences of eigenphases, where it
cancels.  It is kept so that ``build_coin`` is the whole coin, and the
literal references (``reference.solve_block``, ``KBlock``) carry the full
eigenvalue including it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .angles import canonicalize, parse_angle

__all__ = [
    "CoinParams",
    "build_coin",
    "hadamard_params",
    "diaz_params",
    "parse_coin",
]


@dataclass(frozen=True)
class CoinParams:
    """Angles of a U(2) coin, canonicalized into [-pi, pi) on construction."""

    theta: float
    zeta: float
    xi: float
    eta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("theta", "zeta", "xi", "eta"):
            raw = getattr(self, name)
            try:
                val = float(raw)
            except (TypeError, ValueError):
                raise TypeError(f"{name} must be a real number, got {raw!r}") from None
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val!r}")
            object.__setattr__(self, name, canonicalize(val))


def build_coin(params: CoinParams) -> NDArray[np.complex128]:
    """Return the 2x2 unitary coin matrix for ``params``.

    Unitary to machine precision by construction: the columns are orthonormal
    for every parameter choice.
    """
    c = math.cos(params.theta)
    s = math.sin(params.theta)
    gamma = np.array(
        [
            [np.exp(1j * params.zeta) * c, np.exp(1j * params.xi) * s],
            [-np.exp(-1j * params.xi) * s, np.exp(-1j * params.zeta) * c],
        ],
        dtype=np.complex128,
    )
    return np.exp(0.5j * params.eta) * gamma


def hadamard_params() -> CoinParams:
    """Coin angles whose matrix is i*H with H the real Hadamard matrix.

    The global factor i is an artifact of the (theta, zeta, xi) parametrization
    and drops out of every observable.
    """
    return CoinParams(theta=math.pi / 4, zeta=math.pi / 2, xi=math.pi / 2, eta=0.0)


def diaz_params(theta: float) -> CoinParams:
    """Angles reproducing the one-parameter real coin
    [[cos t, sin t], [sin t, -cos t]] exactly (det = -1 branch of O(2)).

    eta = -pi rather than +pi: the angles live in [-pi, pi), and the +pi
    choice would canonicalize to -pi and flip the matrix's overall sign.
    """
    return CoinParams(theta=theta, zeta=math.pi / 2, xi=math.pi / 2, eta=-math.pi)


def parse_coin(text: str) -> CoinParams:
    """Parse a coin spec: ``hadamard`` | ``diaz:THETA`` | ``u2:THETA,ZETA,XI[,ETA]``.

    Angle tokens accept ``pi`` literals (``pi/2``, ``3pi/4``) and plain floats.
    """
    name, _, rest = text.strip().partition(":")
    name = name.lower()
    if name == "hadamard":
        if rest:
            raise ValueError("'hadamard' takes no arguments")
        return hadamard_params()
    if name == "diaz":
        if not rest:
            raise ValueError("'diaz' needs one angle, e.g. diaz:pi/4")
        return diaz_params(parse_angle(rest))
    if name == "u2":
        parts = rest.split(",")  # an empty field fails parse_angle, never shifts the rest
        if len(parts) not in (3, 4):
            raise ValueError("'u2' needs THETA,ZETA,XI and optionally ETA")
        angles = [parse_angle(p) for p in parts]
        return CoinParams(*angles)
    raise ValueError(f"unknown coin spec {text!r} (expected hadamard | diaz:T | u2:T,Z,X[,E])")
