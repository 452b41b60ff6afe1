"""Infinite-time averages in closed form.

Time-averaging projects the initial state onto each group of coinciding
eigenphases and drops the coherences between groups.  The coin's angles name
the groups (``spectral``): the pairs k + k' = m (mod N) when zeta sits on the
pi / N grid, every block of a zone at theta = +/-pi/2, and otherwise single
eigenphases.  Both observables read the sector spinors psi_k against the
arrays of ``spectral.spectrum``: the two zones of block k project with
P_k^+/- = (1 +/- M_k)/2, M_k = m_k.sigma about its rotation axis m_k, and a
scalar block, which has no axis, passes psi_k whole.  The limiting
distribution needs each part p_k^+/- = P_k^+/- psi_k (``_sector_parts``) for
its cross terms.  The coin density, and through ``_coin_gram`` the
temperature scans, needs only the zone sum, and M_k^2 = 1 makes that one
identity: sum_+/- P X P = (X + M X M)/2, so the time average dephases each
block about its axis, with M psi_k read as psi_k on a scalar block.
This evaluates the paper's characteristic-matrix sums over M(k, k') and
Theta(k, k'), which ``qwcycle.reference`` keeps literally.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
from numpy.typing import NDArray

from .coin import CoinParams
from .evolution import check_distribution, check_reduced_density
from .spectral import DEGENERACY_TOL, Spectrum, spectrum
from .state import WalkState, momentum_spinors

__all__ = ["asymptotic_reduced_density", "limiting_distribution"]


def _turned(spec: Spectrum, psis: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """M_k psi_k = (m_k.sigma) psi_k of sector spinors psis (..., N, 2)."""
    m1, m2, m3 = np.moveaxis(spec.axes, -1, 0)
    up, down = psis[..., 0], psis[..., 1]
    return np.stack([m3 * up + (m1 - 1j * m2) * down, (m1 + 1j * m2) * up - m3 * down], axis=-1)


def _sector_parts(spec: Spectrum, psis: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """The eigenprojections p_k^+/- = (psi_k +/- M_k psi_k)/2 of sector spinors
    psis (..., N, 2), shaped (..., N, zone, comp).  A scalar block has nothing
    to dephase: it keeps psi_k whole in zone 0 and holds 0 in zone 1."""
    turned = _turned(spec, psis)
    parts = 0.5 * np.stack([psis + turned, psis - turned], axis=-2)
    whole = np.stack([psis, np.zeros_like(psis)], axis=-2)
    return np.where(spec.scalar[..., None, None], whole, parts)


def _coin_gram(spec: Spectrum, basis: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """G[..., a, b] = sum_{k,i} p_k^i(basis_a) p_k^i(basis_b)^dag (..., A, A, 2, 2)
    for spinor sets basis (A, ..., N, 2).  The coin density of the spinors
    sum_a c_a basis_a is sum_{a,b} c_a conj(c_b) G[a, b]: by Parseval the trace
    over position keeps only the terms within one block and one zone.

    The two zones sum to G = (1/2) sum_k [psi_a psi_b^dag + (M psi_a)(M psi_b)^dag]
    (M psi read as psi on a scalar block), so G is one matmul of the rows
    [psi; M psi] (..., 2N, 2A), built in one buffer, with their adjoint.
    """
    n, n_basis = basis.shape[-2], basis.shape[0]
    lead = np.broadcast_shapes(basis.shape[1:-2], spec.scalar.shape[:-1])
    rows = np.empty(lead + (2, n, n_basis, 2), dtype=np.complex128)  # (..., [psi; M psi], k, a, c)
    rows[..., 0, :, :, :] = np.moveaxis(basis, 0, -2)
    rows[..., 1, :, :, :] = np.moveaxis(
        np.where(spec.scalar[..., None], basis, _turned(spec, basis)), 0, -2
    )
    rows = rows.reshape(lead + (2 * n, 2 * n_basis))
    gram = 0.5 * np.matmul(rows.swapaxes(-1, -2), rows.conj())
    return gram.reshape(lead + (n_basis, 2, n_basis, 2)).swapaxes(-3, -2)


def asymptotic_reduced_density(state0: WalkState, coin: CoinParams) -> NDArray[np.complex128]:
    """Infinite-time-averaged coin density matrix rho_c = sum_k Theta(k, k)."""
    spec = spectrum(state0.n_nodes, *astuple(coin))
    rho = _coin_gram(spec, momentum_spinors(state0).T[None])[0, 0]
    check_reduced_density(rho)
    return rho


def limiting_distribution(state0: WalkState, coin: CoinParams) -> NDArray[np.float64]:
    """Infinite-time-averaged node distribution pi(v) = sum_g |P_g psi (v)|^2.

    P_g projects onto one group of coinciding eigenphases: each (k, zone) adds
    its part from ``_sector_parts``.  Two spreads, each held against
    DEGENERACY_TOL, decide the groups before any spectrum is built.  With
    m = round(N zeta / pi), partners k' = (m - k) mod N differ in phase by at
    most 2|zeta - m pi / N|; when that is within the tolerance their cross
    terms go through one inverse FFT.  Each zone spans 2|cos theta|; when that
    is within the tolerance, all N blocks of a zone form one group, one inverse
    FFT over (k, zone, comp).  Otherwise the result is exactly uniform.  A
    scalar block is its own partner and adds no cross term.  Negative entries
    above -1e-12 (float dust) are clipped and the vector renormalized.
    """
    n = state0.n_nodes
    m = round(n * coin.zeta / np.pi)
    paired = abs(coin.zeta - m * np.pi / n) <= 0.5 * DEGENERACY_TOL
    zoned = abs(np.cos(coin.theta)) <= 0.5 * DEGENERACY_TOL
    if not (paired or zoned):
        return np.full(n, 1.0 / n)

    parts = _sector_parts(spectrum(n, *astuple(coin)), momentum_spinors(state0).T)
    if zoned:
        probs = n * (np.abs(np.fft.ifft(parts, axis=0)) ** 2).sum(axis=(1, 2))
    else:
        ks = np.arange(n)
        partner = (m - ks) % n
        inner = np.einsum("kic,kic->k", parts[partner].conj(), parts)
        inner[partner == ks] = 0.0  # a self-paired block has no cross term
        shift = (ks - partner) % n
        cross = np.bincount(shift, inner.real, n) + 1j * np.bincount(shift, inner.imag, n)
        probs = (np.abs(parts) ** 2).sum() / n + np.fft.ifft(cross).real

    probs[(probs < 0) & (probs > -1e-12)] = 0.0
    probs /= probs.sum()
    check_distribution(probs)
    return probs
