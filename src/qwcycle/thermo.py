"""Entanglement temperature of the asymptotic coin state, and parameter scans.

The time-averaged coin density matrix rho_c defines a temperature through its
eigenvalues (lambda1 >= lambda2, lambda1 + lambda2 = 1):

    T = 2 E0 / ln(lambda1 / lambda2)

A maximally mixed coin (lambda1 = lambda2) is infinitely hot; a pure coin
(lambda2 = 0) is at absolute zero.  E0 is an unknown positive energy scale of
the underlying equilibrium picture; every quantity of interest here is the
ratio T/T0 against a reference temperature, which cancels E0.

Two scan drivers map the temperature landscape:

  * ``bloch_temperature_scan``: one fixed coin, local initial states swept over
    the coin Bloch angles (gamma, phi); reference T0 at (gamma=pi, phi=0).
  * ``coin_phase_temperature_scan``: one fixed initial state, coins swept over
    the phase pair (zeta, xi) at fixed theta; reference T0 is the same state
    under the Hadamard coin (the scan measures what the extra phases do, so
    its natural baseline is the phase choice the Hadamard coin makes).

Both scans project onto ``spectral.spectrum`` through the one projection the
closed forms use, ``asymptotics._sector_parts``: one spectrum per zeta row for
the phase scan, one in all for the Bloch scan, and temperatures as arrays.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np
from numpy.typing import NDArray

from .asymptotics import _coin_density, asymptotic_reduced_density
from .coin import CoinParams, hadamard_params
from .spectral import spectrum
from .state import InitialStateSpec, WalkState, make_state, momentum_spinors

__all__ = [
    "TemperatureResult",
    "ScanGrid",
    "entanglement_temperature",
    "temperature_ratio",
    "bloch_temperature_scan",
    "coin_phase_temperature_scan",
]

# lambda1 - lambda2 at or below this means "maximally mixed": T = +inf.
# Keeps the detection robust against ~1e-16 arithmetic dust on the knife edge.
_MIXED_GAP_TOL = 1e-13
# lambda2 at or below this means "pure": T = 0.
_PURE_TOL = 1e-14
# |0>, |1>, |+>, |+i>: their projectors are a real basis of the Hermitian 2x2 matrices
_BASIS = np.array([[1, 0], [0, 1], [1, 1], [1, 1j]]) / np.sqrt([1, 1, 2, 2])[:, None]


@dataclass(frozen=True)
class TemperatureResult:
    """Eigenvalues of rho_c and the temperature they imply (units of E0)."""

    lambda1: float
    lambda2: float
    temperature: float
    ratio_to_reference: float | None = None


def _temperatures(rho: NDArray[np.complex128], e0: float) -> tuple[NDArray[np.float64], ...]:
    """lambda1 >= lambda2 and T = 2 e0 / ln(lambda1/lambda2) of Hermitian 2x2
    matrices (..., 2, 2), from the closed form mean +/- radius."""
    if not (math.isfinite(e0) and e0 > 0):
        raise ValueError(f"e0 must be finite and positive, got {e0}")
    mean = 0.5 * (rho[..., 0, 0].real + rho[..., 1, 1].real)
    radius = np.hypot(0.5 * (rho[..., 0, 0].real - rho[..., 1, 1].real), np.abs(rho[..., 0, 1]))
    l1, l2 = mean + radius, np.maximum(mean - radius, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        temp = 2.0 * e0 / np.log(l1 / l2)
    return l1, l2, np.select([l1 - l2 <= _MIXED_GAP_TOL, l2 <= _PURE_TOL], [math.inf, 0.0], temp)


def entanglement_temperature(
    rho_c: NDArray[np.complex128], e0: float = 1.0
) -> TemperatureResult:
    """Temperature of a 2x2 coin density matrix; T = 2 e0 / ln(l1/l2)."""
    rho_c = np.asarray(rho_c)
    if rho_c.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {rho_c.shape}")
    if not np.abs(rho_c - rho_c.conj().T).max() <= 1e-8:
        raise ValueError("reduced density matrix is not Hermitian within tolerance")
    l1, l2, temp = _temperatures(rho_c, e0)
    return TemperatureResult(lambda1=float(l1), lambda2=float(l2), temperature=float(temp))


def temperature_ratio(t, t0):
    """T/T0 of temperatures in [0, inf] with the infinite cases resolved:
    inf/inf -> 1, x/inf -> 0, inf/x -> inf.  A zero reference maps everything
    warmer to +inf.  Takes arrays that broadcast; a float for scalar input."""
    t, t0 = np.asarray(t, dtype=float), np.asarray(t0, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t == t0, 1.0, t / t0)[()]  # t == t0 covers inf/inf and 0/0


@dataclass(frozen=True, eq=False)
class ScanGrid:
    """A rectangular T/T0 map: values[i, j] belongs to (axis1[i], axis2[j])."""

    axis1_name: str
    axis2_name: str
    axis1: NDArray[np.float64]
    axis2: NDArray[np.float64]
    values: NDArray[np.float64]
    reference_temperature: float


def _axis(spec: tuple[float, float, int]) -> NDArray[np.float64]:
    start, stop, num = spec
    if num < 1:
        raise ValueError(f"axis resolution must be >= 1, got {num}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"axis ends must be finite, got {start} and {stop}")
    return np.linspace(start, stop, int(num))


# ---------------------------------------------------------------------------
# scan drivers
# ---------------------------------------------------------------------------

def bloch_temperature_scan(
    coin: CoinParams,
    n_nodes: int,
    gamma_axis: tuple[float, float, int] = (0.0, math.pi, 101),
    phi_axis: tuple[float, float, int] = (0.0, 2.0 * math.pi, 101),
    e0: float = 1.0,
) -> ScanGrid:
    """T/T0 over local initial coins [cos(g/2), e^{i p} sin(g/2)] at node 0.

    T0 is the temperature of the (gamma=pi, phi=0) state under the same coin.
    """
    n = int(n_nodes)
    if n < 2:
        raise ValueError(f"n_nodes must be an integer >= 2, got {n_nodes!r}")
    gammas = _axis(gamma_axis)
    phis = _axis(phi_axis)

    # a local state at node 0 has psi_k = chi / sqrt(N) in every sector, so rho_c
    # is one real-linear map of chi chi^dag: take its images of the basis states
    image = _coin_density(spectrum(n, *astuple(coin)), _BASIS[:, None] / math.sqrt(n))
    # the reference (pi, 0) rides along as point 0, computed like every other
    g = np.concatenate([[math.pi], np.repeat(gammas, phis.size)])
    p = np.concatenate([[0.0], np.tile(phis, gammas.size)])
    # chi chi^dag = (I + x X + y Y + z Z) / 2 for the Bloch vector (x, y, z)
    x, y, z = np.sin(g) * np.cos(p), np.sin(g) * np.sin(p), np.cos(g)
    coords = np.stack([1 + z - x - y, 1 - z - x - y, 2 * x, 2 * y]) / 2
    temps = _temperatures(np.einsum("mp,mab->pab", coords, image), e0)[2]
    values = temperature_ratio(temps[1:], temps[0]).reshape(gammas.size, phis.size)
    return ScanGrid(
        axis1_name="gamma",
        axis2_name="phi",
        axis1=gammas,
        axis2=phis,
        values=values,
        reference_temperature=float(temps[0]),
    )


def coin_phase_temperature_scan(
    theta: float,
    initial: InitialStateSpec | WalkState,
    n_nodes: int,
    zeta_axis: tuple[float, float, int] = (-math.pi, math.pi, 101),
    xi_axis: tuple[float, float, int] = (-math.pi, math.pi, 101),
    e0: float = 1.0,
) -> ScanGrid:
    """T/T0 over coin phases (zeta, xi) at fixed theta, for one initial state.

    T0 is the same initial state's temperature under the Hadamard coin, so the
    map shows what the phase pair changes relative to that baseline.  For a
    localized initial state at theta = pi/4 the ratio along the zeta = xi
    diagonal holds at 1 (far below 1e-9 for N ~ 100), while away from it the
    walk runs both hotter (diverging near zeta = xi +/- pi) and colder.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    n = int(n_nodes)
    state = initial if isinstance(initial, WalkState) else make_state(initial, n)
    if state.n_nodes != n:
        raise ValueError(f"state lives on N={state.n_nodes}, not N={n}")
    zetas = _axis(zeta_axis)
    xis = _axis(xi_axis)

    t0 = float(_temperatures(asymptotic_reduced_density(state, hadamard_params()), e0)[2])
    psis = momentum_spinors(state).T  # (N, 2); independent of the coin
    rhos = np.stack([_coin_density(spectrum(n, theta, z, xis), psis) for z in zetas])
    values = temperature_ratio(_temperatures(rhos, e0)[2], t0)
    return ScanGrid(
        axis1_name="zeta",
        axis2_name="xi",
        axis1=zetas,
        axis2=xis,
        values=values,
        reference_temperature=t0,
    )
