"""Momentum-space spectrum of the walk: all 2x2 blocks as arrays, and degeneracy.

The Fourier transform over nodes block-diagonalizes one walk step into N
independent 2x2 unitaries

    B_k = diag(e^{-i w}, e^{+i w}) Gamma,      w = 2 pi k / N.

Writing Gamma's global phase as e^{i eta/2}, the eigenvalues of B_k are
e^{i eta/2} e^{+/- i alpha}, cos(alpha) = cos(theta) cos(w - zeta), alpha in
[0, pi]: one on the upper arc (zone I) and one on the lower (zone II).  alpha
is taken from atan2, which has no arccos cancellation near scalar blocks.

One tolerance, DEGENERACY_TOL, read as a spread of eigenphases, decides
every coincidence, and the angles alone show which there are.  A block is
scalar when its own two eigenphases, 2 min(alpha, pi - alpha) apart, coincide.
Across blocks equal alpha means equal cos(w - zeta), so the only coincidences
are the pairs k + k' = m (mod N), m = round(N zeta / pi), whose phases differ
by at most 2|zeta - m pi / N|, and, at theta = +/-pi/2, all N blocks of each
zone, which span 2|cos theta|.  ``asymptotics.limiting_distribution`` holds
those two spreads against the tolerance; nothing sorts or chains eigenphases.

Eigenprojectors: with its phase stripped, B_k is one SU(2) rotation
cos(alpha) + i sin(alpha) m_k.sigma about the real unit axis m_k, where
sin(alpha) m_k = (sin theta sin(xi - w), sin theta cos(xi - w), cos theta sin(zeta - w)).
So zones I and II project with (1 +/- m_k.sigma)/2: no eigenvector column, no
choice between columns, no gauge.  Near a scalar block m_k is good to
eps/sin(alpha), the conditioning of the eigenproblem itself; a scalar block
has no axis and holds zeros.  ``spectrum`` builds all of it as arrays over k
(and any coin axes).  It stores alpha, never the eigenphases, and never the
global phase eta/2: every coincidence is a difference of eigenphases, where
eta cancels, and the projectors need only the axes and the scalar blocks.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

__all__ = ["Spectrum", "spectrum"]

# eigenphases spread no wider than this coincide (the one degeneracy rule)
DEGENERACY_TOL = 1e-9


class Spectrum(NamedTuple):
    """All blocks of coins broadcast to shape S: the rotation angles alpha
    (S + (N,)), real unit rotation axes m_k (S + (N, 3)) and the scalar blocks
    (S + (N,)), whose axes are zero.  Block k of a coin with global phase eta
    has the eigenphases eta/2 +/- alpha_k."""

    alpha: NDArray[np.float64]
    axes: NDArray[np.float64]
    scalar: NDArray[np.bool_]


def spectrum(n_nodes: int, theta, zeta, xi) -> Spectrum:
    """All N blocks in closed form; the angles may be arrays that broadcast."""
    theta, zeta, xi = (x[..., None] for x in np.broadcast_arrays(theta, zeta, xi))
    w = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    comps = [sin_t * np.sin(xi - w), sin_t * np.cos(xi - w), cos_t * np.sin(zeta - w)]
    tilt = np.stack(comps, axis=-1)  # sin(alpha) m_k
    sin_a = np.hypot(sin_t, comps[2])  # = |tilt|
    alpha = np.arctan2(sin_a, cos_t * np.cos(w - zeta))
    scalar = 2.0 * np.minimum(alpha, np.pi - alpha) <= DEGENERACY_TOL
    axes = np.divide(tilt, sin_a[..., None], out=np.zeros_like(tilt), where=~scalar[..., None])
    return Spectrum(alpha, axes, scalar)
