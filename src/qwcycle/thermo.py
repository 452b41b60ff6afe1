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

Both scans use ``asymptotics.pinched_sum`` on ``spectral.spectrum``: one
spectrum per zeta row for the phase scan, one in all for the Bloch scan.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np
from numpy.typing import NDArray

from .asymptotics import asymptotic_reduced_density, pinched_sum
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
# identity and Pauli matrices: a real basis of the Hermitian 2x2 matrices
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@dataclass(frozen=True)
class TemperatureResult:
    """Eigenvalues of rho_c and the temperature they imply (units of E0)."""

    lambda1: float
    lambda2: float
    temperature: float
    ratio_to_reference: float | None = None


def _eigvals_2x2_hermitian(rho: NDArray[np.complex128]) -> tuple[float, float]:
    # closed form: mean +/- radius; exact and cheap inside large scans
    mean = 0.5 * (rho[0, 0].real + rho[1, 1].real)
    radius = math.hypot(0.5 * (rho[0, 0].real - rho[1, 1].real), abs(rho[0, 1]))
    return mean + radius, mean - radius


def entanglement_temperature(
    rho_c: NDArray[np.complex128], e0: float = 1.0
) -> TemperatureResult:
    """Temperature of a 2x2 coin density matrix; T = 2 e0 / ln(l1/l2)."""
    if e0 <= 0:
        raise ValueError(f"e0 must be positive, got {e0}")
    rho_c = np.asarray(rho_c)
    if rho_c.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {rho_c.shape}")
    if np.abs(rho_c - rho_c.conj().T).max() > 1e-8:
        raise ValueError("reduced density matrix is not Hermitian within tolerance")
    l1, l2 = _eigvals_2x2_hermitian(rho_c)
    l2 = max(l2, 0.0)
    if l1 - l2 <= _MIXED_GAP_TOL:
        temp = math.inf
    elif l2 <= _PURE_TOL:
        temp = 0.0
    else:
        temp = 2.0 * e0 / math.log(l1 / l2)
    return TemperatureResult(lambda1=l1, lambda2=l2, temperature=temp)


def temperature_ratio(t: float, t0: float) -> float:
    """T/T0 with the infinite cases resolved: inf/inf -> 1, x/inf -> 0,
    inf/x -> inf.  A zero reference maps everything warmer to +inf."""
    if math.isinf(t):
        return 1.0 if math.isinf(t0) else math.inf
    if math.isinf(t0):
        return 0.0
    if t0 == 0.0:
        return 1.0 if t == 0.0 else math.inf
    return t / t0


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

    # a local state at node 0 has R_k = chi chi^dag / N in every sector, so rho_c
    # is one real-linear map of chi chi^dag: take its images of the Pauli basis
    image = pinched_sum(spectrum(n, *astuple(coin)), _PAULI[:, None] / (2 * n))
    # the reference (pi, 0) rides along as point 0, computed like every other
    g = np.concatenate([[math.pi], np.repeat(gammas, phis.size)])
    p = np.concatenate([[0.0], np.tile(phis, gammas.size)])
    chi = np.stack([np.cos(g / 2), np.exp(1j * p) * np.sin(g / 2)], axis=1)
    coords = np.einsum("pc,mcd,pd->pm", chi.conj(), _PAULI, chi).real
    rhos = np.einsum("pm,mab->pab", coords, image)

    t0, *temps = [entanglement_temperature(rho, e0=e0).temperature for rho in rhos]
    values = np.array([temperature_ratio(t, t0) for t in temps]).reshape(gammas.size, phis.size)
    return ScanGrid(
        axis1_name="gamma",
        axis2_name="phi",
        axis1=gammas,
        axis2=phis,
        values=values,
        reference_temperature=t0,
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
    n = int(n_nodes)
    state = initial if isinstance(initial, WalkState) else make_state(initial, n)
    if state.n_nodes != n:
        raise ValueError(f"state lives on N={state.n_nodes}, not N={n}")
    zetas = _axis(zeta_axis)
    xis = _axis(xi_axis)

    psis = momentum_spinors(state)  # (2, N); independent of the coin
    sector_density = np.einsum("ak,bk->kab", psis, np.conj(psis))

    rho0 = asymptotic_reduced_density(state, hadamard_params())
    t0 = entanglement_temperature(rho0, e0=e0).temperature

    values = np.empty((zetas.size, xis.size))
    for i, z in enumerate(zetas):
        for j, rho in enumerate(pinched_sum(spectrum(n, theta, z, xis), sector_density)):
            values[i, j] = temperature_ratio(entanglement_temperature(rho, e0=e0).temperature, t0)
    return ScanGrid(
        axis1_name="zeta",
        axis2_name="xi",
        axis1=zetas,
        axis2=xis,
        values=values,
        reference_temperature=t0,
    )
