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
matmul and one index gather; it is ``evolve``'s kernel and the step-loop route.
Binary doubling sums U^t rho U^-t over the window exactly on the momentum
blocks of U^m, with U^m from exact steps while m <= 2N.  The sum is Hermitian
and the averages read only its wrapped diagonals, so it keeps the diagonals
d = 0..N/2, in O(N^2 / 2) work per bit of t_max and O(N^2 / 2) memory per
walk.  It takes nothing from ``spectral``, ``asymptotics`` or
``state.momentum_spinors``: no eigenvalue and no degeneracy tolerance, only
translation invariance, so it stays independent of the closed forms it checks.
``time_avg_distribution``, ``time_avg_reduced_density`` and the verification
sweep go through ``_window_sums``; the literal ``np.roll`` step and 2N x 2N
average both routes are pinned to live in ``qwcycle.reference``.

Every density the program checks is a 2x2 coin density, so the invariant
checks read its two eigenvalues off one closed form, ``_eigenvalues``, the
formula ``thermo`` reads every temperature from.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from numpy.typing import NDArray

from .state import WalkState, _norm, _whole

__all__ = [
    "evolve",
    "time_avg_distribution",
    "time_avg_reduced_density",
    "check_reduced_density",
    "check_distribution",
]


# The doubling route's whole footprint may not exceed this: 256 (N/2 + 1) N
# + 896 N + 8 KiB bytes per walk and 8 (N/2 + 1) N + 256 KiB besides
# (``_doubling_chunk``), so N <= 707 for every t_max.  Larger N steps in O(N)
# memory whatever t_max.
DOUBLING_MAX_BYTES = 2**26
# Each bit passes over a chunk's buffers seven times, so a chunk is kept about
# the size of a core's L2 cache: at X = 100, N = 64, T = 2000 one 54 MB chunk
# took 208-226 ms where chunks of two or three walks took 155 ms.
DOUBLING_CHUNK_BYTES = 2**21


def _doubling_chunk(n: int) -> int:
    """How many walks on N nodes the doubling route runs at once: as many as
    fit ``DOUBLING_CHUNK_BYTES`` (at least one) and ``DOUBLING_MAX_BYTES``;
    below 1 when not even one fits the latter.  A walk holds its wrapped
    diagonals and three buffers (16 (N/2 + 1) N complex) and O(N) spinors and
    temporaries; the lag index and numpy's buffers are shared."""
    h = n // 2 + 1
    walk = 16 * (16 * h * n + 56 * n + 512)
    fits = (DOUBLING_MAX_BYTES - 2**18 - 8 * h * n) // walk
    return min(fits, max(1, DOUBLING_CHUNK_BYTES // walk))


def _doubling_is_cheaper(x: int, n: int, steps: int) -> bool:
    """Whether binary doubling beats the step loop for X walks on N nodes.

    Costs in microseconds, fitted to best-of-3 timings: doubling once, per
    bit of t_max (a constant and a + b (N/2 + 1) N per walk, refitted on one
    pinned core for X in {1, 2, 5, 20, 100}, N = 3..600, t_max = 1..2e5) and
    per seed step, counted as min(t_max, 2N); the step loop per step (X up to
    400, N = 4..400).  Above ``DOUBLING_MAX_BYTES`` it steps.  Doubling vs step loop: 232-257 vs
    309-360 ms at X = 100, N = 64, T = 2000; 24-31 vs 21-33 ms at X = 1,
    N = 256, T = 2000, 29-34 vs 210-246 ms at 2e4.
    """
    if _doubling_chunk(n) < 1:
        return False
    seed, bits, h = min(steps, 2 * n), steps.bit_length() - 1, n // 2 + 1
    doubling = 113 + bits * (27 + x * (2.0 + 0.044 * h * n)) + x * n * (0.055 * seed + 0.04 * n)
    return doubling <= steps * (7.2 + x * (0.23 + 0.0134 * n))


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
    Before the first step it raises unless every coin is unitary within 1e-10:
    any other coin leaks or gains norm, and every average would be silently off.
    """
    coins = np.asarray(coins)
    gram = np.matmul(coins.conj().swapaxes(1, 2), coins)
    if not np.abs(gram - np.eye(2)).max() <= 1e-10:
        raise ValueError("coin is not unitary within 1e-10")
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
    norm = _norm(grids[0])
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
    _check_drift(probs.sum(axis=(1, 2)), steps, np.asarray(coins), steps)
    return _averages(probs, cross.sum(axis=1), steps)


def _check_drift(
    total: NDArray[np.float64], m: int, coins: NDArray[np.complex128], t_max: int
) -> None:
    """Raise unless the norm sums ``total`` (X,) of X walks over their first m
    steps are m within 1e-10 m.  A rounded coin is unitary only to ~eps, and
    over a long window that error compounds; this names it before it overflows."""
    if not np.abs(total - m).max() <= 1e-10 * m:
        x = np.argmax(~(np.abs(total - m) <= 1e-10 * m))  # the first walk off, NaN included
        defect = np.abs(coins[x].conj().T @ coins[x] - np.eye(2)).max()
        raise ValueError(
            f"t_max = {t_max} is too long for this coin: the averaged distribution sums to 1 only"
            f" within {abs(total[x] / m - 1):.1e} after {m} steps, as the rounded coin"
            f" {coins[x].tolist()} is unitary only to {defect:.1e} and that error compounds"
        )


def _doubled_sums(
    coins: NDArray[np.complex128], grids: NDArray[np.complex128], steps: int
) -> tuple[NDArray[np.float64], NDArray[np.complex128]]:
    """The window averages by binary doubling on momentum blocks.

    U^m is block-diagonal in momentum, so S(m) = sum_{t=1..m} U^t rho U^-t
    splits into 2x2 blocks S[k, l].  Only the sums over k of its wrapped
    diagonals are read, and as S is Hermitian those at d > N/2 are the
    conjugates of those at N - d, so D[s, r, d, k] = S[s, k; r, k - d] is
    kept for d = 0..N/2 alone.  From the top bit of t_max down,
    S(2m) adds P_k D[d, k] P_(k-d)^dag, P = U^m, and a 1 bit adds
    u_k u_(k-d)^dag, u = U^(2m+1) psi.  While m <= 2N, W = (P | u) is one
    FFT of e_{0,0}, e_{1,0} and psi stepped exactly by ``_walk``, which steps
    only as far as the largest such m; past it, W <- P W, then B W on a 1 bit,
    B = U^1.  sum_s |a_s(v)|^2 is the inverse real FFT of sum_k D[s, s, d, k],
    and sum_k D[0, 1, 0, k] the coherence.
    """
    coins = np.asarray(coins)  # ``_walk`` checks each chunk's coins before its first step
    x, _, n = grids.shape
    h = n // 2 + 1
    lag = (np.arange(n) - np.arange(h)[:, None]) % n  # k - d at (d, k)
    chunk = min(x, max(1, _doubling_chunk(n)))
    probs, coherence = np.empty((x, 2, n)), np.empty(x, dtype=np.complex128)
    buffers = np.empty((4, chunk * 4 * h * n), dtype=np.complex128)  # D, two buffers, lagged P
    for lo in range(0, x, chunk):
        c, part = min(chunk, x - lo), slice(lo, lo + chunk)
        walkers = np.zeros((c, 3, 2, n), dtype=np.complex128)
        walkers[:, 0, 0, 0] = walkers[:, 1, 1, 0] = 1.0  # e_{0,0} and e_{1,0}
        walkers[:, 2] = grids[part]
        walk = _walk(np.repeat(coins[part], 3, axis=0), walkers.reshape(3 * c, 2, n), 2 * n)
        w = step = np.fft.fft(next(walk).reshape(c, 3, 2, n)).swapaxes(1, 2)  # (B | u)[x, s, j, k]
        # take writes in place only into C-contiguous buffers, so each is a flat prefix
        diag, turned, scratch, lagged = (b[: c * 4 * h * n].reshape(c, 2, 2, h, n) for b in buffers)
        pairs = diag.reshape(c, 4, h, n)[:, ::3]  # D[s, s] for s = 0, 1
        lagged_u = buffers[3, : c * 2 * h * n].reshape(c, 2, h, n)
        u = w[:, :, 2]
        np.take(u.conj(), lag, axis=-1, out=lagged_u, mode="clip")
        np.multiply(u[:, :, None, None], lagged_u[:, None], out=diag)  # D(1)[x, s, r, d, k]
        for bit in range(steps.bit_length() - 2, -1, -1):
            power, m = w[:, :, :2], steps >> bit
            # turned[s, a] = sum_b P_k[s, b] D[b, a]
            # D[s, r] += sum_a turned[s, a] conj(P_(k-d)[r, a])
            np.take(power.conj(), lag, axis=-1, out=lagged, mode="clip")
            np.multiply(power[:, :, 0, None, None], diag[:, None, 0], out=turned)
            np.multiply(power[:, :, 1, None, None], diag[:, None, 1], out=scratch)
            turned += scratch
            for a in range(2):
                np.multiply(turned[:, :, None, a], lagged[:, None, :, a], out=scratch)
                diag += scratch
            if m <= 2 * n:  # W from exact steps
                for _ in range(m - m // 2):
                    amps = next(walk)
                w = np.fft.fft(amps.reshape(c, 3, 2, n)).swapaxes(1, 2)
            else:
                for p in (power, step[:, :, :2])[: 1 + m % 2]:  # W <- P W, then B W on a 1 bit
                    w = p[:, :, 0, None] * w[:, None, 0] + p[:, :, 1, None] * w[:, None, 1]
            if m & 1:
                u = w[:, :, 2]
                np.take(u.conj(), lag, axis=-1, out=lagged_u, mode="clip")
                np.multiply(u[:, :, None, None], lagged_u[:, None], out=scratch)
                diag += scratch
            _check_drift(pairs[:, :, 0].real.sum(axis=(1, 2)) / n, m, coins[part], steps)
        probs[part] = np.fft.irfft(pairs.sum(axis=-1), n=n) / n
        coherence[part] = diag[:, 0, 1, 0].sum(axis=-1) / n
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

def _eigenvalues(rho) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """l1 >= l2 of the Hermitian 2x2 matrices rho (..., 2, 2), from the closed
    form mean +/- radius; NaN where an entry it reads is NaN."""
    d0, d1 = rho[..., 0, 0].real, rho[..., 1, 1].real
    mean = 0.5 * (d0 + d1)
    radius = np.hypot(0.5 * (d0 - d1), np.abs(rho[..., 0, 1]))
    return mean + radius, mean - radius


def _density_residuals(rho: NDArray[np.complex128]) -> tuple[NDArray[np.float64], ...]:
    """How far each matrix of rho (..., 2, 2) is from a density matrix, shaped (...):
    the Hermiticity residual, |trace - 1| and the depth below 0 of the lowest
    eigenvalue of its Hermitian part.  A NaN entry makes the first NaN, which
    no ``<= tol`` test passes."""
    adjoint = rho.conj().swapaxes(-1, -2)
    trace = np.trace(rho, axis1=-2, axis2=-1)
    lowest = _eigenvalues(0.5 * (rho + adjoint))[1]
    return np.abs(rho - adjoint).max(axis=(-2, -1)), np.abs(trace - 1.0), np.maximum(0.0, -lowest)


def check_reduced_density(rho_c: NDArray[np.complex128], tol: float = 1e-10) -> None:
    """Raise unless rho_c is a 2x2 coin density: Hermitian, trace-1 and PSD
    within ``tol``."""
    rho_c = np.asarray(rho_c)
    if rho_c.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {rho_c.shape}")
    herm, trace, negative = _density_residuals(rho_c)
    if not herm <= tol:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if not trace <= tol:
        raise ValueError("density matrix trace differs from 1 beyond tolerance")
    if not negative <= tol:
        raise ValueError("density matrix has an eigenvalue below -tolerance")


def check_distribution(probs: NDArray[np.float64]) -> None:
    """Raise unless probs is a probability vector (entries >= -1e-12, sum 1
    within 1e-10)."""
    probs = np.asarray(probs)
    if not probs.min() >= -1e-12:
        raise ValueError("distribution has a negative entry beyond -1e-12")
    if not abs(probs.sum() - 1.0) <= 1e-10:
        raise ValueError("distribution does not sum to 1 within tolerance")
