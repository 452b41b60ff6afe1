"""Infinite-time averages in closed form: the characteristic-matrix method.

Time-averaging the walk kills every pairing of eigenvectors whose eigenvalues
differ and keeps the rest.  All surviving weight between momentum sectors k
and k' is collected by the 4x4 characteristic matrix

    M(k, k') = sum_{(i,j): lambda_k^(i) = lambda_k'^(j)}
               |v_k^(i)><v_k'^(j)|  (x)  |v_k'^(j)><v_k^(i)|

acting on coin (x) coin.  Contracting M with the initial-state sector spinors
and tracing out the second factor,

    Theta(k, k') = Tr_2[(I (x) |psi_k><psi_k'|) M(k, k')],

yields every asymptotic observable:

  * reduced coin density matrix:  rho_c = sum_k Theta(k, k)
  * limiting node distribution:   pi(v) = 1/N + (1/N) Re sum_k
        e^{2 pi i v (k - k')/N} tr Theta(k, k'),
    summed over the cross pairs (k, k') of degenerate blocks; with no
    degeneracy the distribution is exactly uniform.

For one block (k = k'), M reduces to sum_i P_i (x) P_i over the eigen-
projectors -- plus the zone-crossing terms when the block is scalar, in which
case M is the SWAP matrix and Theta(k,k) = |psi_k><psi_k| passes through the
average untouched (a degenerate block has nothing to dephase).

The closed forms below evaluate the same sums on the arrays of
``spectral.spectrum``; M and Theta stay as the reference definitions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import astuple

import numpy as np
from numpy.typing import NDArray

from .coin import CoinParams
from .evolution import check_distribution, check_reduced_density
from .spectral import DEGENERACY_TOL, KBlock, Spectrum, group_eigenphases, spectrum
from .state import WalkState, momentum_spinors

__all__ = [
    "m_matrix",
    "m_kk_closed_form",
    "theta_matrix",
    "pinched_sum",
    "asymptotic_reduced_density",
    "limiting_distribution",
    "hadamard_local_ld",
]


def m_matrix(kb: KBlock, kb_prime: KBlock) -> NDArray[np.complex128]:
    """Characteristic matrix M(k, k') from eigenvalue-matched eigenvector pairs.

    Every (i, j) whose eigenphases lie within DEGENERACY_TOL contributes; for a
    generic pair that is the two same-zone matches, while scalar blocks also
    pair zone I with zone II.  Independent of the eigenvector phase gauge.

    Raises ValueError when no eigenvalues match (the blocks are not degenerate
    partners, so M is not defined for them).
    """
    if kb.n_nodes != kb_prime.n_nodes:
        raise ValueError("blocks come from different cycle sizes")
    m = np.zeros((4, 4), dtype=np.complex128)
    matched = False
    for i in (0, 1):
        for j in (0, 1):
            if abs(cmath.phase(kb.eigenvalues[i] / kb_prime.eigenvalues[j])) <= DEGENERACY_TOL:
                matched = True
                v = kb.vectors[:, i]
                vp = kb_prime.vectors[:, j]
                m += np.kron(np.outer(v, vp.conj()), np.outer(vp, v.conj()))
    if not matched:
        raise ValueError(
            f"blocks k={kb.k}, k'={kb_prime.k} share no eigenvalue; "
            "M is defined only for degenerate pairs (or k = k')"
        )
    return m


def m_kk_closed_form(kb: KBlock, coin: CoinParams) -> NDArray[np.complex128]:
    """Independent closed form of the diagonal M(k, k), for cross-checking.

    Valid away from scalar blocks; the eigenprojector construction and this
    expression agree entrywise whenever |sin alpha| is not tiny.
    """
    a = math.sin(kb.alpha)
    if a == 0.0:
        raise ValueError("closed form is singular at sin(alpha) = 0")
    b = math.sin(coin.theta)
    w = kb.omega
    c = 0.5j * b * math.sin(w - coin.zeta) * math.cos(coin.theta) * np.exp(1j * (w - coin.xi))
    cb = np.conj(c)
    e2 = np.exp(2j * (w - coin.xi))
    half_b2 = 0.5 * b * b
    m = np.array(
        [
            [-half_b2 + a * a, -cb, -cb, -half_b2 / e2],
            [-c, half_b2, half_b2, cb],
            [-c, half_b2, half_b2, cb],
            [-half_b2 * e2, c, c, -half_b2 + a * a],
        ],
        dtype=np.complex128,
    )
    return m / (a * a)


def theta_matrix(
    m: NDArray[np.complex128],
    psi_k: NDArray[np.complex128],
    psi_k_prime: NDArray[np.complex128],
) -> NDArray[np.complex128]:
    """Theta(k,k') = Tr_2[(I (x) |psi_k><psi_k'|) M(k,k')], a 2x2 matrix."""
    r = np.outer(psi_k, np.conj(psi_k_prime))
    # with M reshaped to (a, f, c, b):  Theta[a, c] = sum_{b, f} R[b, f] M[a, f, c, b]
    return np.einsum("bf,afcb->ac", r, m.reshape(2, 2, 2, 2))


def pinched_sum(spec: Spectrum, sector: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """sum_k of the sector densities R_k (..., N, 2, 2), each pinched onto its
    block's eigenbasis, sum_i <v|R_k|v> |v><v| (whole where the block is scalar);
    by Parseval only the grouping within a block matters for this sum."""
    v = spec.vectors
    weights = np.einsum("...kai,...kab,...kbi->...ki", v.conj(), sector, v).real
    pinched = np.einsum("...ki,...kai,...kbi->...kab", weights, v, v.conj())
    rho = np.where(spec.scalar[..., None, None], sector, pinched).sum(axis=-3)
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))  # scrub antisymmetric float dust


def asymptotic_reduced_density(
    state0: WalkState, coin: CoinParams, n_nodes: int | None = None
) -> NDArray[np.complex128]:
    """Infinite-time-averaged coin density matrix rho_c = sum_k Theta(k, k)."""
    n = state0.n_nodes if n_nodes is None else int(n_nodes)
    if n != state0.n_nodes:
        raise ValueError(f"state lives on N={state0.n_nodes}, not N={n}")
    psis = momentum_spinors(state0)
    rho = pinched_sum(spectrum(n, *astuple(coin)), np.einsum("ak,bk->kab", psis, psis.conj()))
    check_reduced_density(rho)
    return rho


def limiting_distribution(
    state0: WalkState, coin: CoinParams, n_nodes: int | None = None
) -> NDArray[np.float64]:
    """Infinite-time-averaged node distribution pi(v) = sum_g |P_g psi (v)|^2.

    P_g projects onto one group of coinciding eigenphases: each (k, zone) adds
    p_k^i, or psi_k whole where both zones of block k share a group.  Groups
    of one add uniformly, the cross terms of all groups of two go through one
    inverse FFT, and larger groups (all N blocks at theta = pi/2) one each.
    Exactly uniform when no group spans two blocks.  Negative entries above
    -1e-12 (float dust) are clipped and the vector renormalized.
    """
    n = state0.n_nodes if n_nodes is None else int(n_nodes)
    if n != state0.n_nodes:
        raise ValueError(f"state lives on N={state0.n_nodes}, not N={n}")
    spec = spectrum(n, *astuple(coin))
    labels = group_eigenphases(spec.phases)
    psis = momentum_spinors(state0).T  # (N, 2)
    coef = np.einsum("kbi,kb->ki", spec.vectors.conj(), psis)  # <v_k^i|psi_k>
    parts = np.einsum("ki,kai->kia", coef, spec.vectors)  # p_k^i
    whole = labels[:, 0] == labels[:, 1]
    parts[whole, 0] = psis[whole]
    keep = np.stack([np.ones(n, dtype=bool), ~whole], axis=1)
    ks = np.nonzero(keep)[0]
    labels, parts = labels[keep], parts[keep]
    size = np.bincount(labels)[labels]
    if size.max() == 1:
        return np.full(n, 1.0 / n)

    probs = np.full(n, (np.abs(parts[size <= 2]) ** 2).sum() / n)
    order = np.argsort(labels, kind="stable")
    a, b = order[size[order] == 2].reshape(-1, 2).T  # the two members of each pair
    inner = np.einsum("ma,ma->m", parts[b].conj(), parts[a])
    shift = (ks[a] - ks[b]) % n
    cross = np.bincount(shift, inner.real, n) + 1j * np.bincount(shift, inner.imag, n)
    probs += 2.0 * np.fft.ifft(cross).real
    for g in np.flatnonzero(np.bincount(labels) > 2):
        amps = np.zeros((2, n), dtype=np.complex128)
        amps[:, ks[labels == g]] = parts[labels == g].T
        probs += n * (np.abs(np.fft.ifft(amps, axis=1)) ** 2).sum(axis=0)

    probs[(probs < 0) & (probs > -1e-12)] = 0.0
    probs /= probs.sum()
    check_distribution(probs)
    return probs


def hadamard_local_ld(n_nodes: int, t: int = 0) -> NDArray[np.float64]:
    """Reference closed form: Hadamard walk, coin |0> localized at node t.

    Odd cycles give the exact uniform distribution.  Even cycles pick up a
    parity-staggered interference term:

        pi(v) = 1/N + ((-1)^(v-t) / N^2) *
                sum_k sin(w_k) sin(w_k (2(v-t)+1)) / (cos^2(w_k) + 1),

    with w_k = 2 pi k / N and the self-paired momenta k = N/4, 3N/4 left out
    when N is a multiple of 4.  Matches ``limiting_distribution`` for the same
    configuration to ~1e-16.
    """
    n = int(n_nodes)
    if not 0 <= t < n:
        raise ValueError(f"origin offset t={t} out of range for N={n}")
    if n % 2 == 1:
        return np.full(n, 1.0 / n)
    shifted = np.arange(n) - t
    sign = np.where(shifted % 2 == 0, 1.0, -1.0)
    w = 2.0 * np.pi * np.arange(n) / n
    weight = np.sin(w) / (np.cos(w) ** 2 + 1.0)
    if n % 4 == 0:
        weight[[n // 4, 3 * n // 4]] = 0.0
    total = n * np.fft.ifft(weight)[(2 * shifted + 1) % n].imag
    probs = 1.0 / n + sign * total / n**2
    check_distribution(probs)
    return probs
