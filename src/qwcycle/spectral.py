"""Momentum-space structure of the walk: 2x2 blocks, spectra, degeneracies.

The Fourier transform over nodes block-diagonalizes one walk step into N
independent 2x2 unitaries

    B_k = diag(e^{-i w}, e^{+i w}) Gamma,      w = 2 pi k / N.

Writing Gamma's global phase as e^{i eta/2}, the eigenvalues of B_k are
e^{i eta/2} e^{+/- i alpha}, cos(alpha) = cos(theta) cos(w - zeta), alpha in
[0, pi]: one on the upper arc (zone I) and one on the lower (zone II).  alpha
is taken from atan2, which has no arccos cancellation near scalar blocks.

One rule decides degeneracy: eigenphases within DEGENERACY_TOL on the circle
coincide.  ``group_eigenphases`` chains all 2N of them into groups; for most
coins these are the pairs k + k' = N zeta / pi (mod N) of ``degeneracy_table``,
while at theta = pi/2 every block shares both eigenvalues with every other.
A block whose own two eigenphases coincide is scalar and gets the canonical
basis.

Eigenvectors: with the phase-stripped block [[A, B], [C, D]] (A = e^{i(zeta-w)}
cos theta, B = e^{i(xi-w)} sin theta, C = -conj(B), D = conj(A)), both columns
of adj(mu I - B_k) are eigenvectors for eigenvalue mu; we take whichever of
v1 = (B, mu - A) and v2 = (mu - D, C) has the larger norm.  Since
(mu - A) + (mu - D) = 2 i sin(alpha) mu' for a unimodular mu', the larger norm
is at least |sin alpha|, so the construction is well-conditioned whenever the
block is not scalar.  ``spectrum`` builds it as arrays over k (and any coin
axes); ``solve_block`` is the per-block reference definition.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .coin import CoinParams, build_coin

__all__ = [
    "Spectrum",
    "KBlock",
    "DegeneracyTable",
    "block",
    "spectrum",
    "group_eigenphases",
    "solve_block",
    "solve_all_blocks",
    "degeneracy_table",
]

# eigenphases closer than this on the circle coincide (the one degeneracy rule)
DEGENERACY_TOL = 1e-9


class Spectrum(NamedTuple):
    """All blocks of coins broadcast to shape S: eigenphases eta/2 +/- alpha in
    (-pi, pi] (S + (N, 2)), unit eigenvectors as columns like ``KBlock.vectors``
    (S + (N, 2, 2)) and the scalar blocks (S + (N,)), given the canonical basis."""

    phases: NDArray[np.float64]
    vectors: NDArray[np.complex128]
    scalar: NDArray[np.bool_]


def spectrum(n_nodes: int, theta, zeta, xi, eta=0.0) -> Spectrum:
    """All N blocks in closed form; the angles may be arrays that broadcast."""
    theta, zeta, xi, eta = (x[..., None] for x in np.broadcast_arrays(theta, zeta, xi, eta))
    w = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    alpha = np.arctan2(np.hypot(sin_t, cos_t * np.sin(w - zeta)), cos_t * np.cos(w - zeta))
    scalar = 2.0 * np.minimum(alpha, np.pi - alpha) <= DEGENERACY_TOL

    shift = np.exp(-1j * w)
    a = (np.exp(1j * zeta) * shift * cos_t)[..., None]
    b = (np.exp(1j * xi) * shift * sin_t)[..., None]
    mu = np.exp(1j * alpha[..., None] * [1.0, -1.0])  # (..., N, zone)
    v1 = np.stack(np.broadcast_arrays(b, mu - a), axis=-2)  # (..., N, comp, zone)
    v2 = np.stack(np.broadcast_arrays(mu - np.conj(a), -np.conj(b)), axis=-2)
    n1, n2 = ((np.abs(v) ** 2).sum(axis=-2) for v in (v1, v2))
    norm = np.sqrt(np.where(scalar[..., None], 1.0, np.maximum(n1, n2)))
    vectors = np.where((n1 >= n2)[..., None, :], v1, v2) / norm[..., None, :]
    vectors[scalar] = np.eye(2)

    return Spectrum(np.angle(np.exp(0.5j * eta)[..., None] * mu), vectors, scalar)


def group_eigenphases(phases: NDArray[np.float64]) -> NDArray[np.int64]:
    """Integer labels, shaped like ``phases``, shared by eigenphases that chain
    within DEGENERACY_TOL on the circle (sorted, the wrap at +/-pi joined)."""
    order = np.argsort(phases, axis=None, kind="stable")
    srt = phases.reshape(-1)[order]
    lab = np.concatenate([[0], np.cumsum(np.diff(srt) > DEGENERACY_TOL)])
    if srt[0] + 2.0 * np.pi - srt[-1] <= DEGENERACY_TOL:
        lab[lab == lab[-1]] = 0
    labels = np.empty_like(lab)
    labels[order] = lab
    return labels.reshape(phases.shape)


@dataclass(frozen=True, eq=False)
class KBlock:
    """Spectral data of one momentum block.

    ``eigenvalues[0]`` is the zone-I branch e^{i eta/2} e^{+i alpha} and
    ``eigenvalues[1]`` the zone-II branch e^{i eta/2} e^{-i alpha}; column i of
    ``vectors`` is the corresponding normalized eigenvector.  The global coin
    phase is kept inside the eigenvalues so that B_k v = lambda v holds exactly
    as stated.
    """

    k: int
    n_nodes: int
    omega: float
    alpha: float
    eigenvalues: tuple[complex, complex]
    vectors: NDArray[np.complex128]  # (2, 2), columns are eigenvectors


def block(k: int, coin: CoinParams, n_nodes: int) -> NDArray[np.complex128]:
    """The 2x2 momentum block diag(e^{-i w}, e^{i w}) Gamma at w = 2 pi k / N."""
    if not 0 <= k < n_nodes:
        raise ValueError(f"k={k} out of range for N={n_nodes}")
    w = 2.0 * math.pi * k / n_nodes
    phase = np.array([[cmath.exp(-1j * w), 0.0], [0.0, cmath.exp(1j * w)]])
    return phase @ build_coin(coin)


def _eigvec(a: complex, b: complex, c: complex, d: complex, mu: complex) -> NDArray[np.complex128]:
    v1 = np.array([b, mu - a], dtype=np.complex128)
    v2 = np.array([mu - d, c], dtype=np.complex128)
    n1 = abs(v1[0]) ** 2 + abs(v1[1]) ** 2
    n2 = abs(v2[0]) ** 2 + abs(v2[1]) ** 2
    v = v1 if n1 >= n2 else v2
    return v / math.sqrt(max(n1, n2))


def solve_block(k: int, coin: CoinParams, n_nodes: int) -> KBlock:
    """Eigen-decompose one momentum block in closed form."""
    if not 0 <= k < n_nodes:
        raise ValueError(f"k={k} out of range for N={n_nodes}")
    w = 2.0 * math.pi * k / n_nodes
    cos_t = math.cos(coin.theta)
    sin_alpha = math.hypot(math.sin(coin.theta), cos_t * math.sin(w - coin.zeta))
    alpha = math.atan2(sin_alpha, cos_t * math.cos(w - coin.zeta))
    eta_phase = cmath.exp(0.5j * coin.eta)
    lam_i = eta_phase * cmath.exp(1j * alpha)
    lam_ii = eta_phase * cmath.exp(-1j * alpha)

    if 2.0 * min(alpha, math.pi - alpha) <= DEGENERACY_TOL:
        vectors = np.eye(2, dtype=np.complex128)
    else:
        a = cmath.exp(1j * (coin.zeta - w)) * math.cos(coin.theta)
        b = cmath.exp(1j * (coin.xi - w)) * math.sin(coin.theta)
        c = -b.conjugate()
        d = a.conjugate()
        vectors = np.column_stack(
            [
                _eigvec(a, b, c, d, cmath.exp(1j * alpha)),
                _eigvec(a, b, c, d, cmath.exp(-1j * alpha)),
            ]
        )
    return KBlock(
        k=k,
        n_nodes=n_nodes,
        omega=w,
        alpha=alpha,
        eigenvalues=(lam_i, lam_ii),
        vectors=vectors,
    )


def solve_all_blocks(coin: CoinParams, n_nodes: int) -> tuple[KBlock, ...]:
    """All N blocks of a coin."""
    return tuple(solve_block(k, coin, n_nodes) for k in range(n_nodes))


@dataclass(frozen=True, eq=False)
class DegeneracyTable:
    """Cross-block eigenvalue coincidences for one (coin, N).

    ``pairs`` maps every momentum k to its degenerate partner k' when the
    integrality condition holds, and is empty otherwise.  ``self_paired``
    collects the k with partner k; those contribute no cross term (their
    weight is already in the diagonal k = k' sum).
    """

    n_nodes: int
    zeta: float
    pairs: dict[int, int]
    self_paired: frozenset[int]

    def cross_pairs(self) -> list[tuple[int, int]]:
        """Ordered (k, partner) pairs with partner != k."""
        return [(k, kp) for k, kp in self.pairs.items() if k != kp]


def degeneracy_table(coin: CoinParams, n_nodes: int) -> DegeneracyTable:
    """Detect the k + k' = N zeta / pi (mod N) pairing.

    The pairing exists iff N (1 + zeta/pi) is an integer to within
    DEGENERACY_TOL, which rational-of-pi inputs meet for any realistic N.  A
    reference only: it misses theta = pi/2, where every block is degenerate.
    """
    n = int(n_nodes)
    m = n * (1.0 + coin.zeta / math.pi)
    pairs: dict[int, int] = {}
    self_paired: set[int] = set()
    if abs(m - round(m)) <= DEGENERACY_TOL:
        r = round(n * coin.zeta / math.pi)
        for k in range(n):
            kp = (r - k) % n
            pairs[k] = kp
            if kp == k:
                self_paired.add(k)
    return DegeneracyTable(
        n_nodes=n, zeta=coin.zeta, pairs=pairs, self_paired=frozenset(self_paired)
    )
