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

A coin density is (t + r.sigma)/2 with trace t and real Bloch vector r, and
its eigenvalues are (t +/- |r|)/2, so one formula, ``_temperatures``, reads
every temperature of this module off (t, |r|).  Time-averaging keeps r =
sum_k M_k v_k of the sector Bloch vectors v_k (``asymptotics._dephased``), and
both scans are that one linear map on real 3-vectors: no grid point forms a
spinor or a 2x2 matrix.  A local state has v_k = b / N in every sector, so
the Bloch scan is the one 3x3 matrix (1/N) sum_k M_k applied to the grid's
Bloch vectors b(gamma, phi), formed from the trig of the two axes.  The phase
scan solves only xi = 0, because xi is a gauge:
D = diag(e^{i xi/2}, e^{-i xi/2}) commutes with the shift and
Gamma(theta, zeta, xi) = D Gamma(theta, zeta, 0) D^dag, so rho_c(xi; psi) =
D rho_c(0; D^dag psi) D^dag has the eigenvalues of rho_c(0; D^dag psi), and
D(xi)^dag turns every v_k about z by xi.  So each zeta row dephases three
fields, the in-plane part of v, its quarter turn and its z part, into A, B
and C, and r(zeta, xi) = cos xi A + sin xi B + C.  Its T0 is row 0 of its own
spectrum: the Hadamard coin (pi/4, pi/2, pi/2) is the row
(theta, zeta) = (pi/4, pi/2) at xi = pi/2, and its 2x2 density is built and
checked before its temperature is read.  The scan takes one spectrum per
chunk of at most ``_SCAN_SECTORS`` (zeta, k) sectors, T0's row counted in the
first, and a chunk holds at least one row of N sectors, so a spectrum spans
at most max(``_SCAN_SECTORS``, N) sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .angles import canonicalize
from .asymptotics import _bloch, _coin_density, _dephased
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
# one row of N past N = 2^16: traced, it peaks near 90 bytes per sector of a
# chunk, the 33 that spectrum keeps (it peaks at 58) and 48 of dephasing.
_SCAN_SECTORS = 2**16


@dataclass(frozen=True)
class TemperatureResult:
    """Eigenvalues of rho_c and the temperature they imply (units of E0)."""

    lambda1: float
    lambda2: float
    temperature: float


def _temperatures(t, r) -> tuple[NDArray[np.float64], ...]:
    """lambda1 >= lambda2 and T = 2 / ln(lambda1/lambda2) (units of E0) of coin
    densities (t + r.sigma)/2 from their traces t and Bloch lengths r = |r|:
    the eigenvalues are (t +/- r)/2."""
    l1, l2 = 0.5 * (t + r), np.maximum(0.5 * (t - r), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        temp = np.where(l2 <= _PURE_TOL, 0.0, 2.0 / np.log(l1 / l2))
    return l1, l2, np.where(l1 - l2 <= _MIXED_GAP_TOL, math.inf, temp)


def _swept(a, b, c, angles) -> NDArray[np.float64]:
    """The Bloch vectors a cos x + b sin x + c (3, R, X) of vector rows a, b and
    c (R, 3) over angles x (X,)."""
    cos_x, sin_x = np.cos(angles), np.sin(angles)
    return a.T[..., None] * cos_x + b.T[..., None] * sin_x + c.T[..., None]


def _length(r) -> NDArray[np.float64]:
    """|r| of Bloch vectors r (3, ...)."""
    return np.sqrt(np.square(r).sum(axis=0))


def entanglement_temperature(rho_c: NDArray[np.complex128]) -> TemperatureResult:
    """Temperature of a 2x2 coin density matrix; T = 2 / ln(l1/l2) in units of E0."""
    check_reduced_density(rho_c, tol=1e-8)
    l1, l2 = _eigenvalues(np.asarray(rho_c))
    l1, l2, temp = _temperatures(l1 + l2, l1 - l2)
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

    # a local state has v_k = b / N in every sector, b = (sin g cos p, sin g sin p,
    # cos g), so r = M b with M = (1/N) sum_k M_k; row f of mean is M e_f, and
    # the reference (pi, 0) rides along as row and column 0
    spec = spectrum(n, coin.theta, coin.zeta, coin.xi)
    mean = _dephased(spec, np.eye(3)[..., None].repeat(n, axis=-1) / n)
    g, p = np.concatenate([[math.pi], gammas]), np.concatenate([[0.0], phis])
    sin_g = np.sin(g)[:, None]
    r = _swept(sin_g * mean[0], sin_g * mean[1], np.cos(g)[:, None] * mean[2], p)
    temps = _temperatures(1.0, _length(r))[2]  # a local coin spinor has unit norm
    values = temperature_ratio(temps[1:, 1:], temps[0, 0])
    return ScanGrid("gamma", "phi", gammas, phis, values, reference_temperature=float(temps[0, 0]))


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

    # D(xi)^dag turns every v_k about z by xi: v -> cos xi p + sin xi q + z, with
    # p the in-plane part of v, q its quarter turn and z its z part
    t, v = _bloch(momentum_spinors(state))  # independent of the coin
    fields = np.zeros((3, 3, n))  # p, q, z
    fields[0, :2], fields[1, :2], fields[2, 2] = v[:2], (-v[1], v[0]), v[2]
    # row 0 is T0's: the Hadamard coin, (theta, zeta) at xi = 0 under the gauge;
    # the rest hold the angles CoinParams would, so zeta = pi is the coin at -pi
    hadamard = hadamard_params()
    thetas = np.full(zetas.size + 1, canonicalize(theta))
    thetas[0] = hadamard.theta
    wrapped = np.array([hadamard.zeta] + [canonicalize(z) for z in zetas])
    rows = max(1, _SCAN_SECTORS // n)
    lengths = []
    for i in range(0, wrapped.size, rows):
        spec = spectrum(n, thetas[i : i + rows], wrapped[i : i + rows], 0.0)
        a, b, c = _dephased(spec, fields).swapaxes(0, 1)  # A, B, C of each row
        if i == 0:
            r0 = _swept(a[:1], b[:1], c[:1], [hadamard.xi])[:, 0, 0]
            check_reduced_density(_coin_density(t, r0))
            t0 = float(_temperatures(t, _length(r0))[2])
            a, b, c = a[1:], b[1:], c[1:]
        lengths.append(_length(_swept(a, b, c, xis)))
    values = temperature_ratio(_temperatures(t, np.concatenate(lengths))[2], t0)
    return ScanGrid("zeta", "xi", zetas, xis, values, reference_temperature=t0)
