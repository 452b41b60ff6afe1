"""Momentum-space spectrum of the walk: all 2x2 blocks as arrays, and degeneracy.

The Fourier transform over nodes block-diagonalizes one walk step into N
independent 2x2 unitaries

    B_k = diag(e^{-i w}, e^{+i w}) Gamma,      w = 2 pi k / N.

Writing Gamma's global phase as e^{i eta/2}, the eigenvalues of B_k are
e^{i eta/2} e^{+/- i alpha}, cos(alpha) = cos(theta) cos(w - zeta), alpha in
[0, pi]: one on the upper arc (zone I) and one on the lower (zone II).  alpha
is taken from atan2, which has no arccos cancellation near scalar blocks.

One rule decides degeneracy: eigenphases within DEGENERACY_TOL on the circle
coincide.  ``group_eigenphases`` chains all 2N of them into groups; for most
coins these are the pairs k + k' = N zeta / pi (mod N), while at theta = pi/2
every block shares both eigenvalues with every other.  A block whose own two
eigenphases coincide is scalar and gets the canonical basis.

Eigenvectors: with the phase-stripped block [[A, B], [C, D]] (A = e^{i(zeta-w)}
cos theta, B = e^{i(xi-w)} sin theta, C = -conj(B), D = conj(A)), both columns
of adj(mu I - B_k) are eigenvectors for eigenvalue mu; we take whichever of
v1 = (B, mu - A) and v2 = (mu - D, C) has the larger norm.  Since
(mu - A) + (mu - D) = 2 i sin(alpha) mu' for a unimodular mu', the larger norm
is at least |sin alpha|, so the construction is well-conditioned whenever the
block is not scalar.  |v1| >= |v2| reduces exactly to the sign rule
s cos(theta) sin(zeta - w) <= 0, with s = +1 in zone I and -1 in zone II,
which is what decides: comparing two rounded norms would break their ties by
rounding.  A is formed from the same cos(w - zeta) and sin(w - zeta) as
alpha rather than as a product of two rounded exponentials, whose extra
rounding mu - A would amplify near a scalar block.  ``spectrum`` builds it as
arrays over k (and any coin axes).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

__all__ = ["Spectrum", "spectrum", "group_eigenphases"]

# eigenphases closer than this on the circle coincide (the one degeneracy rule)
DEGENERACY_TOL = 1e-9


class Spectrum(NamedTuple):
    """All blocks of coins broadcast to shape S: eigenphases eta/2 +/- alpha in
    (-pi, pi] (S + (N, 2)), unit eigenvectors as columns (S + (N, 2, 2)) and
    the scalar blocks (S + (N,)), given the canonical basis."""

    phases: NDArray[np.float64]
    vectors: NDArray[np.complex128]
    scalar: NDArray[np.bool_]


def spectrum(n_nodes: int, theta, zeta, xi, eta=0.0) -> Spectrum:
    """All N blocks in closed form; the angles may be arrays that broadcast."""
    theta, zeta, xi, eta = (x[..., None] for x in np.broadcast_arrays(theta, zeta, xi, eta))
    w = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    turn = np.cos(w - zeta) - 1j * np.sin(w - zeta)  # e^{i(zeta - w)}
    lean = -cos_t * turn.imag  # = -cos(theta) sin(zeta - w)
    alpha = np.arctan2(np.hypot(sin_t, lean), cos_t * turn.real)
    scalar = 2.0 * np.minimum(alpha, np.pi - alpha) <= DEGENERACY_TOL

    a = (cos_t * turn)[..., None]
    b = (np.exp(1j * (xi - zeta)) * sin_t * turn)[..., None]
    mu = np.exp(1j * alpha[..., None] * [1.0, -1.0])  # (..., N, zone)
    v1 = np.stack(np.broadcast_arrays(b, mu - a), axis=-2)  # (..., N, comp, zone)
    v2 = np.stack(np.broadcast_arrays(mu - np.conj(a), -np.conj(b)), axis=-2)
    pick = lean[..., None] * [1.0, -1.0] >= 0.0  # the sign rule: v1 is the larger
    v = np.where(pick[..., None, :], v1, v2)
    norm = np.sqrt(np.where(scalar[..., None], 1.0, (np.abs(v) ** 2).sum(axis=-2)))
    vectors = v / norm[..., None, :]
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
