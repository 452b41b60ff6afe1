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

Every sector term is one angle addition over the N roots of unity, e.g.
sin(xi - w) = sin xi cos w - cos xi sin w, so each of the four terms
sin(xi - w), cos(xi - w), sin(zeta - w) and cos(w - zeta) is two products and a
sum over (coins x N).  cos w and sin w depend on N alone: they come from a
read-only table per cycle size, kept for the last four sizes (``_roots``), so a
call at a size seen before takes no trig pass over N, and a table read is bit
for bit the pass it replaces.  The terms carry the rounding of w = 2 pi k / N,
as a sine taken of zeta - w itself would, so near a scalar block the axes are
good to eps / sin(alpha) either way.
"""

from __future__ import annotations

from functools import lru_cache
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


@lru_cache(maxsize=4)
def _roots(n_nodes: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """cos w and sin w over the N roots of unity, w = 2 pi k / N, read-only:
    every caller shares the arrays.  At 16 bytes a node, four sizes hold
    8.4 MB at N = 2^17 + 1."""
    w = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    cos_w, sin_w = np.cos(w), np.sin(w)
    cos_w.flags.writeable = sin_w.flags.writeable = False
    return cos_w, sin_w


def _rotated(cos_w, sin_w, a, b, out):
    """a cos w + b sin w over the roots of unity, written into out: the angle
    addition behind every sector term."""
    np.multiply(a, cos_w, out=out)
    out += b * sin_w
    return out


def spectrum(n_nodes: int, theta, zeta, xi) -> Spectrum:
    """All N blocks in closed form; the angles may be arrays that broadcast.

    cos w and sin w over the N roots of unity come from the per-N table
    ``_roots``, and each sector term is an angle addition on the coin's own cos
    and sin of zeta and xi.
    The tilt sin(alpha) m_k is written component by component into one buffer,
    stored component-major so that each component is contiguous, and ``axes``
    is its (..., N, 3) view.  One reciprocal of sin(alpha), zero on the scalar
    blocks, then scales it to the unit axes.
    """
    theta, zeta, xi = (x[..., None] for x in np.broadcast_arrays(theta, zeta, xi))
    cos_w, sin_w = _roots(n_nodes)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    # sin t (sin xi, cos xi) and cos t (sin zeta, cos zeta), once per coin
    x_sin, x_cos = sin_t * np.sin(xi), sin_t * np.cos(xi)
    z_sin, z_cos = cos_t * np.sin(zeta), cos_t * np.cos(zeta)
    shape = theta.shape[:-1] + (n_nodes,)
    tilt = np.empty((3,) + shape)  # sin(alpha) m_k, one component per row
    _rotated(cos_w, sin_w, x_sin, -x_cos, tilt[0])  # sin t sin(xi - w)
    _rotated(cos_w, sin_w, x_cos, x_sin, tilt[1])  # sin t cos(xi - w)
    _rotated(cos_w, sin_w, z_sin, -z_cos, tilt[2])  # cos t sin(zeta - w)
    sin_a = np.multiply(tilt[2], tilt[2])
    sin_a += sin_t * sin_t
    # = |tilt| without hypot's scaling: neither term can overflow, and one that
    # underflows belongs to a block with alpha ~ 0 or pi, which is scalar
    np.sqrt(sin_a, out=sin_a)
    alpha = _rotated(cos_w, sin_w, z_cos, z_sin, np.empty(shape))  # cos t cos(w - zeta)
    np.arctan2(sin_a, alpha, out=alpha)
    scalar = 2.0 * np.minimum(alpha, np.pi - alpha) <= DEGENERACY_TOL
    tilt *= np.divide(1.0, sin_a, out=np.zeros_like(sin_a), where=~scalar)
    return Spectrum(alpha, np.moveaxis(tilt, 0, -1), scalar)
