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
coinciding partners k' and reads the rows [psi_k; T_k psi_k] (``_turned``).
The coin density takes k' = k, X = psi_k psi_k^dag = (|psi_k|^2 + v_k.sigma)/2
with the sector's real Bloch vector v_k, and
(X + T_k X T_k)/2 = (|psi_k|^2 + (M_k v_k).sigma)/2: the average dephases v_k
about the axis, M_k = m_k m_k^T, and keeps it whole on a scalar block,
M_k = 1.  So rho_c = (t + r.sigma)/2 with t = sum_k |psi_k|^2 and
r = sum_k M_k v_k (``_dephased``), a sum of real 3-vectors, which the
temperature scans read too.  This evaluates the paper's characteristic-matrix
sums over M(k, k') and Theta(k, k'), which ``qwcycle.reference`` keeps
literally.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .coin import CoinParams
from .evolution import check_distribution, check_reduced_density
from .spectral import DEGENERACY_TOL, Spectrum, spectrum
from .state import WalkState, momentum_spinors

__all__ = ["asymptotic_reduced_density", "limiting_distribution"]


def _turned(spec: Spectrum, psis: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """T_k psi_k = (m_k.sigma + [scalar_k]) psi_k of sector spinors psis (..., N, 2):
    the turn about the axis, and the identity on a scalar block (axis zero)."""
    m1, m2, m3 = np.moveaxis(spec.axes, -1, 0)
    s, up, down = spec.scalar, psis[..., 0], psis[..., 1]
    turned = [(s + m3) * up + (m1 - 1j * m2) * down, (m1 + 1j * m2) * up + (s - m3) * down]
    return np.stack(turned, axis=-1)


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


def _coin_density(t, r) -> NDArray[np.complex128]:
    """(t + r.sigma)/2 for a real trace t and Bloch vector r (3,): Hermitian by
    construction, with a real diagonal."""
    return 0.5 * np.array([[t + r[2], r[0] - 1j * r[1]], [r[0] + 1j * r[1], t - r[2]]])


def asymptotic_reduced_density(state0: WalkState, coin: CoinParams) -> NDArray[np.complex128]:
    """Infinite-time-averaged coin density matrix rho_c = sum_k Theta(k, k) =
    (t + r.sigma)/2, with t = sum_k |psi_k|^2 and r = sum_k M_k v_k."""
    spec = spectrum(state0.n_nodes, coin.theta, coin.zeta, coin.xi)
    t, v = _bloch(momentum_spinors(state0))
    rho = _coin_density(t, _dephased(spec, v[None])[0])
    check_reduced_density(rho)
    return rho


def limiting_distribution(state0: WalkState, coin: CoinParams) -> NDArray[np.float64]:
    """Infinite-time-averaged node distribution pi(v) = sum_g |P_g psi (v)|^2.

    P_g projects onto one group of coinciding eigenphases; each group sums its
    (k, zone) parts P_k^i psi_k, which the rows [psi_k; T_k psi_k] carry.  Two
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

    psis = momentum_spinors(state0).T
    rows = np.stack([psis, _turned(spectrum(n, coin.theta, coin.zeta, coin.xi), psis)], axis=1)
    if zoned:
        probs = 0.5 * n * (np.abs(np.fft.ifft(rows, axis=0)) ** 2).sum(axis=(1, 2))
    else:
        ks = np.arange(n)
        partner = (m - ks) % n
        inner = 0.5 * np.einsum("krc,krc->k", rows[partner].conj(), rows)
        inner[partner == ks] = 0.0  # a self-paired block has no cross term
        shift = (ks - partner) % n
        cross = np.bincount(shift, inner.real, n) + 1j * np.bincount(shift, inner.imag, n)
        probs = 1.0 / n + np.fft.ifft(cross).real

    probs[(probs < 0) & (probs > -1e-12)] = 0.0
    check_distribution(probs)  # before the division, which would hide a wrong factor
    probs /= probs.sum()
    return probs
