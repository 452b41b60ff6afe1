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
eigenphases coincide is scalar.

Eigenprojectors: with its phase stripped, B_k is one SU(2) rotation
cos(alpha) + i sin(alpha) m_k.sigma about the real unit axis m_k, where
sin(alpha) m_k = (sin theta sin(xi - w), sin theta cos(xi - w), cos theta sin(zeta - w)).
So zones I and II project with (1 +/- m_k.sigma)/2: no eigenvector column, no
choice between columns, no gauge.  Near a scalar block m_k is good to
eps/sin(alpha), the conditioning of the eigenproblem itself; a scalar block
has no axis and holds zeros.  ``spectrum`` builds all of it as arrays over k
(and any coin axes).  It stores alpha and eta and forms the eigenphases only
when ``Spectrum.phases`` is read: the degeneracy grouping needs them, while
the projectors need only the axes and the scalar blocks.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

__all__ = ["Spectrum", "spectrum", "group_eigenphases"]

# eigenphases closer than this on the circle coincide (the one degeneracy rule)
DEGENERACY_TOL = 1e-9


class Spectrum(NamedTuple):
    """All blocks of coins broadcast to shape S: the rotation angles alpha
    (S + (N,)), the global phases eta (S + (1,)), real unit rotation axes m_k
    (S + (N, 3)) and the scalar blocks (S + (N,)), whose axes are zero.  The
    eigenphases are formed only when ``phases`` is read."""

    alpha: NDArray[np.float64]
    eta: NDArray[np.float64]
    axes: NDArray[np.float64]
    scalar: NDArray[np.bool_]

    @property
    def phases(self) -> NDArray[np.float64]:
        """Eigenphases eta/2 +/- alpha in (-pi, pi], S + (N, zone)."""
        mu = np.exp(1j * self.alpha[..., None] * [1.0, -1.0])
        return np.angle(np.exp(0.5j * self.eta)[..., None] * mu)


def spectrum(n_nodes: int, theta, zeta, xi, eta=0.0) -> Spectrum:
    """All N blocks in closed form; the angles may be arrays that broadcast."""
    theta, zeta, xi, eta = (x[..., None] for x in np.broadcast_arrays(theta, zeta, xi, eta))
    w = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    comps = [sin_t * np.sin(xi - w), sin_t * np.cos(xi - w), cos_t * np.sin(zeta - w)]
    tilt = np.stack(comps, axis=-1)  # sin(alpha) m_k
    sin_a = np.hypot(sin_t, comps[2])  # = |tilt|
    alpha = np.arctan2(sin_a, cos_t * np.cos(w - zeta))
    scalar = 2.0 * np.minimum(alpha, np.pi - alpha) <= DEGENERACY_TOL
    axes = np.divide(tilt, sin_a[..., None], out=np.zeros_like(tilt), where=~scalar[..., None])
    return Spectrum(alpha, eta, axes, scalar)


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
