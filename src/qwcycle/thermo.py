"""Entanglement temperature of the asymptotic coin state, and parameter scans.

The time-averaged coin density matrix rho_c defines a temperature through its
eigenvalues (lambda1 >= lambda2, lambda1 + lambda2 = 1):

    T = 2 E0 / ln(lambda1 / lambda2)

A maximally mixed coin (lambda1 = lambda2) is infinitely hot; a pure coin
(lambda2 = 0) is at absolute zero.  E0 is an unknown positive energy scale of
the underlying equilibrium picture; every quantity of interest here is the
ratio T/T0 against a reference temperature, which cancels E0, so every
temperature in this module is reported in units of E0.

Two scan drivers map the temperature landscape:

  * ``bloch_temperature_scan``: one fixed coin, local initial states swept over
    the coin Bloch angles (gamma, phi); reference T0 at (gamma=pi, phi=0).
  * ``coin_phase_temperature_scan``: one fixed initial state, coins swept over
    the phase pair (zeta, xi) at fixed theta; reference T0 is the same state
    under the Hadamard coin (the scan measures what the extra phases do, so
    its natural baseline is the phase choice the Hadamard coin makes).

Both scans solve ``spectral.spectrum`` into the coin Gram matrix G of two
spinors (``asymptotics._coin_gram``); each grid point is one pair c of their
coefficients, with coin density sum_{a,b} c_a conj(c_b) G[a, b].  One
contraction forms all of them as a stack of 2x2 matrices, and one formula,
``_temperatures``, reads every temperature of this module off such a stack.
The phase scan solves only xi = 0, because xi is a gauge:
D = diag(e^{i xi/2}, e^{-i xi/2}) commutes with the shift and
Gamma(theta, zeta, xi) = D Gamma(theta, zeta, 0) D^dag, so rho_c(xi; psi) =
D rho_c(0; D^dag psi) D^dag has the eigenvalues of rho_c(0; D^dag psi).  Its
T0 is row 0 of its own spectrum: the Hadamard coin (pi/4, pi/2, pi/2) is the
row (theta, zeta) = (pi/4, pi/2) at xi = 0 with c = D(pi/2)^dag (1, 1), and
its density is checked before its temperature is read.  The scan takes one
spectrum per chunk of at most ``_SCAN_SECTORS`` (zeta, k) sectors, T0's row
counted in the first, and a chunk holds at least one row of N sectors, so a
spectrum spans at most max(``_SCAN_SECTORS``, N) sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .angles import canonicalize
from .asymptotics import _coin_gram
from .coin import CoinParams, hadamard_params
from .evolution import _eigenvalues, check_reduced_density
from .spectral import spectrum
from .state import InitialStateSpec, WalkState, _whole, make_state, momentum_spinors

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
# The phase scan solves at most this many (zeta, k) sectors per spectrum, or
# one row of N past N = 2^16: traced, it peaks near 300 bytes per sector of a
# chunk, of which spectrum peaks at 92 and keeps 33.
_SCAN_SECTORS = 2**16


@dataclass(frozen=True)
class TemperatureResult:
    """Eigenvalues of rho_c and the temperature they imply (units of E0)."""

    lambda1: float
    lambda2: float
    temperature: float


def _temperatures(rho) -> tuple[NDArray[np.float64], ...]:
    """lambda1 >= lambda2 and T = 2 / ln(lambda1/lambda2) (units of E0) of the
    Hermitian 2x2 matrices rho (..., 2, 2), from ``evolution._eigenvalues``, the
    closed form the density checks read too."""
    l1, l2 = _eigenvalues(rho)
    l2 = np.maximum(l2, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        temp = 2.0 / np.log(l1 / l2)
    return l1, l2, np.select([l1 - l2 <= _MIXED_GAP_TOL, l2 <= _PURE_TOL], [math.inf, 0.0], temp)


def _scan_densities(gram, c) -> NDArray[np.complex128]:
    """The coin densities sum_{a,b} c_a conj(c_b) G[a, b] (..., P, 2, 2) of Gram
    matrices G (..., 2, 2, 2, 2) of two spinors, one per column of c (2, P)."""
    rho = np.tensordot(gram, c[:, None] * c.conj(), axes=([-4, -3], [0, 1]))
    return np.moveaxis(rho, -1, -3)


def entanglement_temperature(rho_c: NDArray[np.complex128]) -> TemperatureResult:
    """Temperature of a 2x2 coin density matrix; T = 2 / ln(l1/l2) in units of E0."""
    check_reduced_density(rho_c, tol=1e-8)
    l1, l2, temp = _temperatures(np.asarray(rho_c))
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
    num = _whole(num, 1, "axis resolution")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"axis ends must be finite, got {start} and {stop}")
    return np.linspace(start, stop, num)


def bloch_temperature_scan(
    coin: CoinParams,
    n_nodes: int,
    gamma_axis: tuple[float, float, int] = (0.0, math.pi, 101),
    phi_axis: tuple[float, float, int] = (0.0, 2.0 * math.pi, 101),
) -> ScanGrid:
    """T/T0 over local initial coins [cos(g/2), e^{i p} sin(g/2)] at node 0.

    T0 is the temperature of the (gamma=pi, phi=0) state under the same coin.
    """
    n = _whole(n_nodes, 2, "n_nodes")
    gammas, phis = _axis(gamma_axis), _axis(phi_axis)

    # a local state at node 0 has psi_k = chi / sqrt(N) in every sector: chi on
    # the basis e_a / sqrt(N); the reference (pi, 0) rides along as point 0
    g = np.concatenate([[math.pi], np.repeat(gammas, phis.size)])
    phase = np.concatenate([[1.0], np.tile(np.exp(1j * phis), gammas.size)])  # e^{i phi}
    chi = np.stack([np.cos(g / 2), phase * np.sin(g / 2)])
    basis = np.broadcast_to(np.eye(2)[:, None] / math.sqrt(n), (2, n, 2))
    gram = _coin_gram(spectrum(n, coin.theta, coin.zeta, coin.xi), basis)
    temps = _temperatures(_scan_densities(gram, chi))[2]
    values = temperature_ratio(temps[1:], temps[0]).reshape(gammas.size, phis.size)
    return ScanGrid("gamma", "phi", gammas, phis, values, reference_temperature=float(temps[0]))


def coin_phase_temperature_scan(
    theta: float,
    initial: InitialStateSpec | WalkState,
    n_nodes: int,
    zeta_axis: tuple[float, float, int] = (-math.pi, math.pi, 101),
    xi_axis: tuple[float, float, int] = (-math.pi, math.pi, 101),
) -> ScanGrid:
    """T/T0 over coin phases (zeta, xi) at fixed theta, for one initial state.

    T0 is the same initial state's temperature under the Hadamard coin, so the
    map shows what the phase pair changes relative to that baseline; it rides
    as row 0 of the scan's first spectrum.  For a
    localized initial state at theta = pi/4 the ratio along the zeta = xi
    diagonal holds at 1 (far below 1e-9 for N ~ 100), while away from it the
    walk runs both hotter (diverging near zeta = xi +/- pi) and colder.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    n = _whole(n_nodes, 2, "n_nodes")
    state = initial if isinstance(initial, WalkState) else make_state(initial, n)
    if state.n_nodes != n:
        raise ValueError(f"state lives on N={state.n_nodes}, not N={n}")
    zetas, xis = _axis(zeta_axis), _axis(xi_axis)

    # D(xi)^dag psi_k = sum_a c_a psi_{k,a} e_a with c = D(xi)^dag (1, 1)
    psis = momentum_spinors(state)  # (2, N); independent of the coin
    basis = psis[:, None, :, None] * np.eye(2)[:, None, None]
    c = np.exp(0.5j * np.outer([-1.0, 1.0], xis))
    # row 0 is T0's: the Hadamard coin, (theta, zeta) at xi = 0 under the gauge;
    # the rest hold the angles CoinParams would, so zeta = pi is the coin at -pi
    hadamard = hadamard_params()
    thetas = np.full(zetas.size + 1, canonicalize(theta))
    thetas[0] = hadamard.theta
    wrapped = np.array([hadamard.zeta] + [canonicalize(z) for z in zetas])
    rows = max(1, _SCAN_SECTORS // n)
    temps = []
    for i in range(0, wrapped.size, rows):
        gram = _coin_gram(spectrum(n, thetas[i : i + rows], wrapped[i : i + rows], 0.0), basis)
        if i == 0:
            rho0 = _scan_densities(gram[0], np.exp(0.5j * np.outer([-1.0, 1.0], [hadamard.xi])))[0]
            check_reduced_density(rho0)
            t0 = float(_temperatures(rho0)[2])
            gram = gram[1:]
        temps.append(_temperatures(_scan_densities(gram, c))[2])
    values = temperature_ratio(np.concatenate(temps), t0)
    return ScanGrid("zeta", "xi", zetas, xis, values, reference_temperature=t0)
