"""Direct time evolution of the coined walk: the production brute-force oracle.

The closed-form results elsewhere are validated against these time averages,
computed with no spectral shortcuts.  One step is U = S (Gamma (x) I_p): the
coin acts on chirality at every node, then the shift moves chirality-0
amplitude from node j to j+1 and chirality-1 amplitude from j to j-1 (mod N).

Time averages run over t = 1..t_max inclusive; any finite choice of window
endpoints vanishes in the t_max -> infinity limit, and fixing one makes the
oracle deterministic for tests.

Two routes compute a time average over t = 1..t_max, and ``_window_sums``
picks the cheaper for its input.  ``_walk`` steps X walks at once with one
matmul and one index gather; it is ``evolve``'s kernel and the step-loop route,
O(t_max) steps.  Binary doubling sums U^t rho U^-t over the window exactly:
a seed steps the first m0 <= 2N terms (the top bits of t_max), then each
remaining bit costs two dense 2N x 2N products.  U^m is block-circulant, as
the walk commutes with translations, so it is kept as two columns and
expanded once per bit.  Doubling uses no Fourier transform or spectral
theory, so it stays independent of the closed forms it checks.
``time_avg_distribution``, ``time_avg_reduced_density`` and the verification
sweep go through ``_window_sums``.  The literal ``np.roll`` step and 2N x 2N
average both routes are pinned to live in ``qwcycle.reference``.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from numpy.typing import NDArray

from .state import WalkState, _whole

__all__ = [
    "evolve",
    "time_avg_distribution",
    "time_avg_reduced_density",
    "check_density",
    "check_reduced_density",
    "check_distribution",
]


# The doubling route's whole footprint, seed included, may not exceed this:
# up to 352 N^2 + 512 N bytes plus 256 KiB for one walk (``_doubling_chunk``),
# so N <= 435 for every t_max.  Larger N steps in O(N) memory whatever t_max.
DOUBLING_MAX_BYTES = 2**26


def _seed_split(n: int, steps: int) -> tuple[int, int]:
    """(m0, s) with m0 = steps >> s the top bits of the window and s the least
    shift that gives m0 <= 2N: the seed steps m0 times, doubling runs s bits."""
    shift = max(0, steps.bit_length() - (2 * n).bit_length())
    if steps >> shift > 2 * n:
        shift += 1
    return steps >> shift, shift


def _doubling_chunk(n: int, m0: int) -> int:
    """How many walks on N nodes the doubling route seeds at once within
    ``DOUBLING_MAX_BYTES``; below 1 when not even one fits.  The route holds
    four (2N)^2 complex buffers and the (2N)^2 expansion index (288 N^2
    bytes), up to 256 KiB of numpy ufunc buffers while it forms psi psi^dag,
    and per walk of a chunk its m0 stored seed states plus 16 (2, N) arrays:
    its three walkers, their step temporaries and its outputs."""
    return (DOUBLING_MAX_BYTES - 2**18 - 288 * n * n) // (32 * n * (m0 + 16))


def _doubling_is_cheaper(x: int, n: int, steps: int) -> bool:
    """Whether binary doubling beats the step loop for X walks on N nodes.

    Both costs are in microseconds, fitted to best-of-3 timings on 2 cores
    with OpenBLAS.  Doubling: per walk and remaining bit, two (2N)^3 products
    and the O(N^2) expansion and sums; per walk, the seed's (2N)^2 m0 product;
    and m0 seed steps of 3X walkers (fitted at X in {1, 2, 5, 20, 100},
    N = 3..256 and t_max = 50..2e5).  The step loop: per step at X in
    {1, 2, 5, 20, 100, 400} and N = 4..400.  Above ``DOUBLING_MAX_BYTES`` it
    steps whatever the cost.  Doubling vs step loop in two runs: 63-71 vs
    21-34 ms at X = 1, N = 256, T = 2000; 0.29-0.32 vs 0.20-0.24 s at
    X = 100, N = 64, T = 2000; 0.49-0.60 vs 1.02-1.16 s at X = 20, N = 128,
    T = 2e4.
    """
    m0, bits = _seed_split(n, steps)
    if _doubling_chunk(n, m0) < 1:
        return False
    d = 2 * n
    doubling = x * (bits * (9.4 + 0.019 * d * d + 1.35e-4 * d**3) + 27 + 1.14e-4 * d * d * m0)
    doubling += m0 * (15.5 + 0.038 * x * n)
    stepping = steps * (7.2 + x * (0.33 + 0.016 * n))
    return doubling <= stepping


def _unitary(coins: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """The (X, 2, 2) coins, unless one is not unitary within 1e-10: any other
    coin leaks or gains norm, and every average would be silently off."""
    coins = np.asarray(coins)
    gram = np.matmul(coins.conj().swapaxes(1, 2), coins)
    if not np.abs(gram - np.eye(2)).max() <= 1e-10:
        raise ValueError("coin is not unitary within 1e-10")
    return coins


def _shift_source(n: int) -> NDArray[np.intp]:
    """The shift as one gather on the coin-major 2N axis: new[s, j] takes
    old[s, j - 1] for s = 0 and old[s, j + 1] for s = 1."""
    j = np.arange(n)
    return np.concatenate([(j - 1) % n, n + (j + 1) % n])


def _walk(
    coins: NDArray[np.complex128], grids: NDArray[np.complex128], steps: int
) -> Iterator[NDArray[np.complex128]]:
    """Yield the (X, 2, N) amplitudes after each of ``steps`` steps of X walks.

    Walk x starts from ``grids[x]`` (2, N) under the unitary ``coins[x]`` (2, 2).
    """
    coins = _unitary(coins)
    x, _, n = grids.shape
    source = _shift_source(n)
    amps = np.array(grids, dtype=np.complex128)
    for _ in range(steps):
        amps = np.take(np.matmul(coins, amps).reshape(x, 2 * n), source, axis=1).reshape(x, 2, n)
        yield amps


def evolve(state0: WalkState, coin: NDArray[np.complex128], t: int) -> WalkState:
    """The state after t walk steps, the same arithmetic as t applications
    of ``reference.step``.

    Repeated float matmuls leak norm at ~1e-17 per step; for long horizons
    that legitimate rounding drift would trip the state's normalization gate,
    so it is stripped at the end.  Drift beyond 1e-9 raises instead.
    """
    grids = state0.as_grid()[None]
    for grids in _walk(np.asarray(coin)[None], grids, _whole(t, 0, "t")):
        pass
    norm = np.linalg.norm(grids[0])
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"evolution lost unitarity: |norm - 1| = {abs(norm - 1.0):.3e}")
    return WalkState.from_grid(grids[0] / norm)


def _averages(
    probs: NDArray[np.float64], coherence: NDArray[np.complex128], steps: int
) -> tuple[NDArray[np.float64], NDArray[np.complex128]]:
    """Node distributions (X, N) and reduced coin densities (X, 2, 2) from the
    window sums of |a_{s,j}|^2 (X, 2, N) and of sum_j a_{0,j} conj(a_{1,j})
    (X,); rho_c is Hermitian by construction."""
    populations = probs.sum(axis=2)
    rho_c = np.stack([populations[:, 0], coherence, coherence.conj(), populations[:, 1]], axis=1)
    return probs.sum(axis=1) / steps, rho_c.reshape(-1, 2, 2) / steps


def _stepped_sums(
    coins: NDArray[np.complex128], grids: NDArray[np.complex128], steps: int
) -> tuple[NDArray[np.float64], NDArray[np.complex128]]:
    """The window averages by ``_walk``, step by step: O(t_max) array steps."""
    x, _, n = grids.shape
    probs = np.zeros((x, 2, n))
    cross = np.zeros((x, n), dtype=np.complex128)
    for amps in _walk(coins, grids, steps):
        conj = amps.conj()
        probs += (amps * conj).real
        cross += amps[:, 0] * conj[:, 1]
    return _averages(probs, cross.sum(axis=1), steps)


def _doubled_sums(
    coins: NDArray[np.complex128], grids: NDArray[np.complex128], steps: int
) -> tuple[NDArray[np.float64], NDArray[np.complex128]]:
    """The window averages by a stepped seed and binary doubling.

    Per instance, S(m) = sum_{t=1..m} U^t rho U^-t on the 2N x 2N density.
    The seed steps the walk m0 <= 2N times, m0 the top bits of t_max, and
    forms S(m0) = L L^dag from the stored states in one product.  Each of the
    s remaining bits doubles, S(2m) = S(m) + P (P S(m))^dag with P = U^m (S(m)
    is Hermitian), in two dense products; a 1 bit then adds the next term,
    S(m + 1) = S(m) + U^(m+1) rho U^-(m+1).

    U^m commutes with translations, so it is block-circulant:
    U^m[(s, v), (a, j)] = (U^m e_{a,0})[(s, v - j mod N)].  Each instance
    keeps only W = U^m (e_{0,0}, e_{1,0}, psi): the seed steps them beside the
    walk, one flat ``np.take`` expands the dense P from the first two, a
    doubling squares them all as P W, and a 1 bit steps them through the coin
    matmul and shift gather of ``_walk``.  Walks are seeded in chunks of
    ``_doubling_chunk``, so the whole footprint, seed included, stays within
    ``DOUBLING_MAX_BYTES``.
    """
    coins = _unitary(coins)
    x, _, n = grids.shape
    m0, bits = _seed_split(n, steps)
    source = _shift_source(n)
    a, v = np.arange(2), np.arange(n)
    expand = n * a[:, None, None, None] + ((v[:, None] - v) % n)[:, None, :] + 2 * n * a[:, None]
    expand = expand.reshape(2 * n, 2 * n)  # U^m[(s, v), (a, j)] from W's flat (a, (s, v))
    units = np.zeros((2, 2, n), dtype=np.complex128)
    units[0, 0, 0] = units[1, 1, 0] = 1.0  # e_{0,0} and e_{1,0}
    chunk = min(x, max(1, _doubling_chunk(n, m0)))
    stored = np.empty((chunk, m0, 2 * n), dtype=np.complex128)
    acc, power, s1, s2 = (np.empty((2 * n, 2 * n), dtype=np.complex128) for _ in range(4))
    probs = np.empty((x, 2, n))
    coherence = np.empty(x, dtype=np.complex128)
    for lo in range(0, x, chunk):
        c = min(chunk, x - lo)
        part = slice(lo, lo + c)
        walkers = np.concatenate([np.broadcast_to(units, (c, 2, 2, n)), grids[part, None]], axis=1)
        walks = _walk(np.repeat(coins[part], 3, axis=0), walkers.reshape(3 * c, 2, n), m0)
        for t, amps in enumerate(walks):
            stored[:c, t] = amps[2::3].reshape(c, 2 * n)
        for i in range(c):
            coin, w = coins[lo + i], amps.reshape(c, 3, 2 * n)[i]
            conj = s2.reshape(-1)[: m0 * 2 * n].reshape(m0, 2 * n)
            np.conjugate(stored[i], out=conj)
            np.matmul(stored[i].T, conj, out=acc)  # S(m0) = L L^dag
            for k in range(bits - 1, -1, -1):
                w.take(expand, out=power, mode="wrap")
                np.matmul(power, acc, out=s1)
                np.conjugate(s1, out=s1)
                np.matmul(power, s1.T, out=s2)
                acc += s2
                w = np.matmul(w, power.T)  # U^2m (e_{0,0}, e_{1,0}, psi)
                if steps >> k & 1:
                    w = np.matmul(coin, w.reshape(3, 2, n)).reshape(3, 2 * n).take(source, axis=1)
                    np.multiply(w[2, :, None], w[2].conj(), out=s2)
                    acc += s2
            probs[lo + i] = acc.diagonal().real.reshape(2, n)
            coherence[lo + i] = acc[:n, n:].trace()
    return _averages(probs, coherence, steps)


def _window_sums(
    coins: NDArray[np.complex128], grids: NDArray[np.complex128], t_max: int
) -> tuple[NDArray[np.float64], NDArray[np.complex128]]:
    """Time averages over t = 1..t_max of X walks.

    Takes ``_walk``'s coins (X, 2, 2) and grids (X, 2, N).  Returns the node
    distributions (X, N) and the reduced coin densities (X, 2, 2), by binary
    doubling where ``_doubling_is_cheaper`` and by the step loop otherwise.
    """
    steps = _whole(t_max, 1, "t_max")
    x, _, n = grids.shape
    route = _doubled_sums if _doubling_is_cheaper(x, n, steps) else _stepped_sums
    return route(coins, grids, steps)


def time_avg_distribution(
    state0: WalkState, coin: NDArray[np.complex128], t_max: int
) -> NDArray[np.float64]:
    """(1/t_max) sum_{t=1..t_max} of the node distribution; length N, sums to 1."""
    return _window_sums(np.asarray(coin)[None], state0.as_grid()[None], t_max)[0][0]


def time_avg_reduced_density(
    state0: WalkState, coin: NDArray[np.complex128], t_max: int
) -> NDArray[np.complex128]:
    """Time-averaged coin-space density matrix: the partial trace of
    ``reference.time_avg_density``, without stepping the 2N x 2N matrix."""
    return _window_sums(np.asarray(coin)[None], state0.as_grid()[None], t_max)[1][0]


# ---------------------------------------------------------------------------
# invariant checks shared by oracle outputs and CLI writers
# ---------------------------------------------------------------------------

def _density_residuals(rho: NDArray[np.complex128]) -> tuple[NDArray[np.float64], ...]:
    """How far each matrix of rho (..., d, d) is from a density matrix, shaped (...):
    the Hermiticity residual, |trace - 1| and the depth of its lowest eigenvalue
    below 0.  A NaN entry makes the first two NaN, which no ``<= tol`` test passes."""
    adjoint = rho.conj().swapaxes(-1, -2)
    trace = np.trace(rho, axis1=-2, axis2=-1)
    lowest = np.linalg.eigvalsh(0.5 * (rho + adjoint)).min(axis=-1)
    return np.abs(rho - adjoint).max(axis=(-2, -1)), np.abs(trace - 1.0), np.maximum(0.0, -lowest)


def check_density(rho: NDArray[np.complex128], tol: float = 1e-10) -> None:
    """Raise unless rho is Hermitian, trace-1, and PSD within ``tol``."""
    herm, trace, negative = _density_residuals(rho)
    if not herm <= tol:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if not trace <= tol:
        raise ValueError("density matrix trace differs from 1 beyond tolerance")
    if not negative <= tol:
        raise ValueError("density matrix has an eigenvalue below -tolerance")


def check_reduced_density(rho_c: NDArray[np.complex128], tol: float = 1e-10) -> None:
    """Same invariants specialized to the 2x2 coin-space matrix."""
    rho_c = np.asarray(rho_c)
    if rho_c.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {rho_c.shape}")
    check_density(rho_c, tol=tol)


def check_distribution(probs: NDArray[np.float64], tol: float = 1e-10) -> None:
    """Raise unless probs is a probability vector (entries >= -1e-12, sum 1)."""
    probs = np.asarray(probs)
    if not probs.min() >= -1e-12:
        raise ValueError("distribution has a negative entry beyond -1e-12")
    if not abs(probs.sum() - 1.0) <= tol:
        raise ValueError("distribution does not sum to 1 within tolerance")
