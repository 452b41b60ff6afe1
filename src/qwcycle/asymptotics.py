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

so both observables read the rows [psi_k; T_k psi_k] (``_turned``) and no
per-zone part is formed: the coin density, and through ``_coin_gram`` the
temperature scans, at k' = k, where the average dephases each block about its
axis, and the limiting distribution at the coinciding partners k'.
This evaluates the paper's characteristic-matrix sums over M(k, k') and
Theta(k, k'), which ``qwcycle.reference`` keeps literally.
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


def _coin_gram(spec: Spectrum, basis: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """G[..., a, b] = sum_{k,i} P_k^i psi_a (P_k^i psi_b)^dag (..., A, A, 2, 2) for
    spinor sets basis (A, ..., N, 2).  The coin density of the spinors
    sum_a c_a basis_a is sum_{a,b} c_a conj(c_b) G[a, b]: by Parseval the trace
    over position keeps only the terms within one block and one zone.

    The two zones sum to G = (1/2) sum_k [psi_a psi_b^dag + (T psi_a)(T psi_b)^dag],
    so G is one matmul of the rows [psi; T psi] (..., 2N, 2A), built in one
    buffer, with their adjoint.
    """
    n, n_basis = basis.shape[-2], basis.shape[0]
    lead = np.broadcast_shapes(basis.shape[1:-2], spec.scalar.shape[:-1])
    rows = np.empty(lead + (2, n, n_basis, 2), dtype=np.complex128)  # (..., [psi; T psi], k, a, c)
    rows[..., 0, :, :, :] = np.moveaxis(basis, 0, -2)
    rows[..., 1, :, :, :] = np.moveaxis(_turned(spec, basis), 0, -2)
    rows = rows.reshape(lead + (2 * n, 2 * n_basis))
    gram = 0.5 * np.matmul(rows.swapaxes(-1, -2), rows.conj())
    return gram.reshape(lead + (n_basis, 2, n_basis, 2)).swapaxes(-3, -2)


def asymptotic_reduced_density(state0: WalkState, coin: CoinParams) -> NDArray[np.complex128]:
    """Infinite-time-averaged coin density matrix rho_c = sum_k Theta(k, k)."""
    spec = spectrum(state0.n_nodes, coin.theta, coin.zeta, coin.xi)
    rho = _coin_gram(spec, momentum_spinors(state0).T[None])[0, 0]
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
