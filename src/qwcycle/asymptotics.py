"""Infinite-time averages in closed form.

Time-averaging projects the initial state onto each group of coinciding
eigenphases and drops the coherences between groups.  The coin's angles name
the groups (``spectral``): the pairs k + k' = m (mod N) when zeta sits on the
pi / N grid, every block of a zone at theta = +/-pi/2, and otherwise single
eigenphases.  Both observables read one Hermitian unitary per block from the
arrays of ``spectral.spectrum``: T_k = m_k.sigma about the rotation axis m_k,
and T_k = 1 on a scalar block, which has no axis.  Zone I of block k projects
with P_k^+ = (1 + T_k)/2 and zone II with P_k^- = (1 - T_k)/2, so a scalar
block keeps psi_k whole in zone I.  The average pairs zone i of block k with
zone i of each block k' that coincides with it, and for any two blocks

    sum_+/- P_k^+/- X P_k'^+/- = (X + T_k X T_k') / 2,

so no per-zone part is formed.  The limiting distribution pairs the
coinciding partners k' and reads the rows [psi_k; T_k psi_k], one (4, N)
buffer whose column k is block k (``_turned``).
The coin density takes k' = k, X = psi_k psi_k^dag = (|psi_k|^2 + v_k.sigma)/2
with the sector's real Bloch vector v_k, and
(X + T_k X T_k)/2 = (|psi_k|^2 + (M_k v_k).sigma)/2: the average dephases v_k
about the axis, M_k = m_k m_k^T, and keeps it whole on a scalar block,
M_k = 1.  So rho_c = (t + r.sigma)/2 with t = sum_k |psi_k|^2 and
r = sum_k M_k v_k (``_dephased``), a sum of real 3-vectors, which the
temperature scans read too.  This evaluates the paper's characteristic-matrix
sums over M(k, k') and Theta(k, k'), which ``qwcycle.reference`` keeps
literally.

A state on one node with coin spinor chi has v_k = b / N in every sector,
b = chi^dag sigma chi, so r = M b with M = (1/N) sum_k M_k, and M has a closed
form at every N (``_aliased``): with u = w - zeta, sin^2 alpha =
sin^2 theta + cos^2 theta sin^2 u, and the Fourier series of
s^2 / sin^2 alpha (s = sin theta) is geometric in e^{2iu} with ratio
rho = (1 - |s|)/(1 + |s|).  The N-point sum keeps only its aliased modes, every
P-th (P = N for odd N, N/2 for even N), so M is a rational function of
q = rho^P e^{-2iP zeta}, exact, not only as N grows; its q -> 0 limit is the
walk on the line.  It serves where P |sin theta| >= 1: there |q| <= e^-2 and
no block is scalar or near it, and it matches 50-digit sums to ~1e-16.
Below that bound (theta = 0 and the near-diagonal coins) 1 - q cancels, so
those coins, N = 2 unless theta = +/-pi/2, and every state spread over more
than one node keep the spectrum path.  The domain test runs before the
locality test, so a coin outside it pays nothing for the closed form.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .coin import CoinParams
from .evolution import check_distribution, check_reduced_density
from .spectral import DEGENERACY_TOL, Spectrum, spectrum
from .state import WalkState, momentum_spinors

__all__ = ["asymptotic_reduced_density", "limiting_distribution"]


def _turned(spec: Spectrum, psis: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """T_k psi_k = (m_k.sigma + [scalar_k]) psi_k (2, N) of sector spinors psis
    (2, N), column k of each: the turn about the axis, and the identity on a
    scalar block (axis zero)."""
    m1, m2, m3 = np.moveaxis(spec.axes, -1, 0)
    s, up, down = spec.scalar, psis[0], psis[1]
    return np.stack([(s + m3) * up + (m1 - 1j * m2) * down, (m1 + 1j * m2) * up + (s - m3) * down])


def _bloch(psis: NDArray[np.complex128]) -> tuple[float, NDArray[np.float64]]:
    """t = sum_k |psi_k|^2 and the sector Bloch vectors v_k = psi_k^dag sigma psi_k
    (3, N) of sector spinors psis (2, N): psi_k psi_k^dag = (|psi_k|^2 + v_k.sigma)/2."""
    cross = 2.0 * psis[0].conj() * psis[1]  # v_x + i v_y
    pops = psis.real**2 + psis.imag**2
    return pops.sum(), np.stack([cross.real, cross.imag, pops[0] - pops[1]])


def _dephased(spec: Spectrum, v: NDArray[np.float64]) -> NDArray[np.float64]:
    """sum_k M_k v_k (S + (F, 3)) of real Bloch-vector fields v (F, 3, N) over the
    blocks of a spectrum of shape S: M_k = m_k m_k^T keeps the part of v_k along
    the axis, and M_k = 1 keeps all of it on a scalar block (axis zero)."""
    m = spec.axes
    along = m[..., None, :, 0] * v[:, 0]
    along += m[..., None, :, 1] * v[:, 1]
    along += m[..., None, :, 2] * v[:, 2]  # m_k . v_k, S + (F, N)
    kept = v.reshape(-1, v.shape[-1]) @ spec.scalar[..., None]  # S + (3F, 1)
    return along @ m + kept.reshape(along.shape[:-1] + (3,))


def _aliases(n: int, theta: float) -> bool:
    """Whether ``_aliased`` serves coins of angle theta on an N-cycle:
    P |sin theta| >= 1, with P = N for odd N and N/2 for even N."""
    return (n if n % 2 else n // 2) * abs(math.sin(theta)) >= 1.0


def _aliased(n: int, theta, zeta, xi) -> NDArray[np.float64]:
    """M = (1/N) sum_k M_k (S + (3, 3)) over the N blocks of coins broadcast to
    shape S, in closed form; valid where ``_aliases`` holds.

    With s, c = sin theta, cos theta, u = w - zeta and
    rho = (1 - |s|)/(1 + |s|), s^2 / sin^2 alpha = |s| sum_n rho^|n| e^{2inu},
    and the N-point mean keeps the modes n = 0 (mod P).  With
    q1 = rho^(P-1) e^{-2iP zeta} and q = rho q1, that leaves

        A = s^2 <1/sin^2 alpha>         = |s| (1 - |q|^2) / |1 - q|^2
        E = s^2 <e^{-2iu}/sin^2 alpha>  = |s| conj(q1/(1 - q) + rho/(1 - conj q))

    and, with t1 = e^{i beta} E and t2 = e^{2i beta} E (beta = xi - zeta),
    M11, M22 = (A -/+ Re t2)/2, M12 = Im t2/2, M33 = 1 - A,
    M13 = -(c/2s)(Re t1 - cos beta A) and M23 = -(c/2s)(sin beta A - Im t1).
    In the domain |q| <= e^-2, so 1 - q does not cancel, and
    sin alpha >= |s| >= 1/P, so no block is scalar.  At theta = +/-pi/2
    rho = 0, and rho^0 = 1 serves N = 2.
    """
    theta, zeta, xi = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (theta, zeta, xi)))
    p = n if n % 2 else n // 2
    s = np.sin(theta)
    size = np.abs(s)
    rho = (1.0 - size) / (1.0 + size)
    q1 = rho ** (p - 1) * np.exp(-2j * p * zeta)
    q = rho * q1
    gap = 1.0 - q
    a = size * (1.0 - (q.real**2 + q.imag**2)) / (gap.real**2 + gap.imag**2)
    beta = xi - zeta
    turn = np.exp(1j * beta)
    t1 = turn * size * np.conj(q1 / gap + rho / gap.conj())
    t2 = turn * t1
    lean = -0.5 * np.cos(theta) / s  # -c/2s
    m = np.empty(theta.shape + (3, 3))
    m[..., 0, 0] = 0.5 * (a - t2.real)
    m[..., 1, 1] = 0.5 * (a + t2.real)
    m[..., 0, 1] = m[..., 1, 0] = 0.5 * t2.imag
    m[..., 2, 2] = 1.0 - a
    m[..., 0, 2] = m[..., 2, 0] = lean * (t1.real - np.cos(beta) * a)
    m[..., 1, 2] = m[..., 2, 1] = lean * (np.sin(beta) * a - t1.imag)
    return m


def _local_bloch(state: WalkState) -> tuple[float, NDArray[np.float64]] | None:
    """|chi|^2 and the Bloch vector b = chi^dag sigma chi (3, 1) of a state
    whose one node holds the coin spinor chi, else None.

    At most four nonzero words (the real and imaginary parts of two
    amplitudes) is one count; the largest word is one of them and names the
    node, and its column must hold them all.  A -0.0 counts as nonzero, so a
    state with one on a second node is read as spread, which stays correct."""
    n, amps = state.n_nodes, np.ascontiguousarray(state.amplitudes)
    words = amps.view(np.uint64)
    count = np.count_nonzero(words)
    if count > 4:
        return None
    j = int(words.argmax()) // 2 % n
    if np.count_nonzero(words.reshape(2, n, 2)[:, j]) != count:
        return None
    return _bloch(amps[[j, n + j], None])


def _coin_density(t, r) -> NDArray[np.complex128]:
    """(t + r.sigma)/2 for a real trace t and Bloch vector r (3,): Hermitian by
    construction, with a real diagonal."""
    return 0.5 * np.array([[t + r[2], r[0] - 1j * r[1]], [r[0] + 1j * r[1], t - r[2]]])


def asymptotic_reduced_density(state0: WalkState, coin: CoinParams) -> NDArray[np.complex128]:
    """Infinite-time-averaged coin density matrix rho_c = sum_k Theta(k, k) =
    (t + r.sigma)/2, with t = sum_k |psi_k|^2 and r = sum_k M_k v_k.

    A state on one node with coin spinor chi has v_k = b / N in every sector,
    b = chi^dag sigma chi, so r = M b with M = (1/N) sum_k M_k from
    ``_aliased`` where its domain holds: no FFT and no spectrum.
    """
    n = state0.n_nodes
    local = _local_bloch(state0) if _aliases(n, coin.theta) else None
    if local is None:
        spec = spectrum(n, coin.theta, coin.zeta, coin.xi)
        t, v = _bloch(momentum_spinors(state0))
        r = _dephased(spec, v[None])[0]
    else:
        t, b = local
        r = (_aliased(n, coin.theta, coin.zeta, coin.xi) @ b)[:, 0]
    rho = _coin_density(t, r)
    check_reduced_density(rho)
    return rho


def limiting_distribution(state0: WalkState, coin: CoinParams) -> NDArray[np.float64]:
    """Infinite-time-averaged node distribution pi(v) = sum_g |P_g psi (v)|^2.

    P_g projects onto one group of coinciding eigenphases; each group sums its
    (k, zone) parts P_k^i psi_k, which the rows [psi_k; T_k psi_k] carry: the
    two components of psi_k and of T_k psi_k, one (4, N) buffer, column k
    each, so that a partner gather takes whole columns and each transform runs
    along a contiguous row.  Two
    spreads, each held against DEGENERACY_TOL, decide the groups before any
    spectrum is built.  With m = round(N zeta / pi), partners
    k' = (m - k) mod N differ in phase by at most 2|zeta - m pi / N|; when that
    is within the tolerance their cross terms
    sum_i <P^i psi_k'|P^i psi_k> = (<psi_k'|psi_k> + <T psi_k'|T psi_k>)/2 go
    through one inverse FFT, and |T psi| = |psi| leaves 1/N on the diagonal.
    Each zone spans 2|cos theta|; when that is within the tolerance, all N
    blocks of a zone form one group, and sum_i |ifft(P^i psi)|^2 is
    (|ifft(psi)|^2 + |ifft(T psi)|^2)/2.  Otherwise the result is exactly
    uniform.  A scalar block is its own partner and adds no cross term.
    Negative entries above -1e-12 (float dust) are clipped, and the vector is
    checked and then renormalized.
    """
    n = state0.n_nodes
    m = round(n * coin.zeta / np.pi)
    paired = abs(coin.zeta - m * np.pi / n) <= 0.5 * DEGENERACY_TOL
    zoned = abs(np.cos(coin.theta)) <= 0.5 * DEGENERACY_TOL
    if not (paired or zoned):
        return np.full(n, 1.0 / n)

    psis = momentum_spinors(state0)
    rows = np.concatenate([psis, _turned(spectrum(n, coin.theta, coin.zeta, coin.xi), psis)])
    if zoned:
        probs = 0.5 * n * (np.abs(np.fft.ifft(rows, axis=1)) ** 2).sum(axis=0)
    else:
        ks = np.arange(n)
        partner = (m - ks) % n
        inner = 0.5 * np.einsum("rk,rk->k", rows.take(partner, axis=1).conj(), rows)
        inner[partner == ks] = 0.0  # a self-paired block has no cross term
        shift = (ks - partner) % n
        cross = np.bincount(shift, inner.real, n) + 1j * np.bincount(shift, inner.imag, n)
        probs = 1.0 / n + np.fft.ifft(cross).real

    probs[(probs < 0) & (probs > -1e-12)] = 0.0
    check_distribution(probs)  # before the division, which would hide a wrong factor
    probs /= probs.sum()
    return probs
