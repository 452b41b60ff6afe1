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
O(t_max) steps.  Binary doubling sums U^t rho U^-t over the window exactly in
O(log t_max) dense 2N x 2N products, with no Fourier transform or spectral
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


# The doubling route's four (2N)^2 complex buffers, 256 N^2 bytes, may not
# exceed this (N <= 512); larger N steps in O(N) memory whatever t_max.
DOUBLING_MAX_BYTES = 2**26


def _doubling_is_cheaper(x: int, n: int, steps: int) -> bool:
    """Whether binary doubling beats the step loop for X walks on N nodes.

    Both costs are in microseconds, fitted to best-of-3 timings on 2 cores
    with OpenBLAS: doubling per walk and bit of t_max at N = 3..256 (within
    2.1x of every timing but one), the step loop per step at X in
    {1, 2, 5, 20, 100, 400} and N = 4..400 (within 1.6x).  A walk of N
    nodes keeps four (2N)^2 buffers on the doubling route, so above
    ``DOUBLING_MAX_BYTES`` it steps whatever the cost.  Doubling vs step loop:
    18 vs 21 ms at X = 2, N = 64, T = 2000; 944 vs 212 ms at X = 100,
    N = 64, T = 2000; 1.23 vs 2.59 s at X = 100, N = 64, T = 2e4.
    """
    if 256 * n * n > DOUBLING_MAX_BYTES:
        return False
    doubling = x * steps.bit_length() * (34 + 3.1e-4 * (2 * n) ** 3)
    stepping = steps * (9 + x * (0.5 + 0.016 * n))
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
    """The window averages by binary doubling: O(log t_max) dense products.

    Per instance, S(m) = sum_{t=1..m} U^t rho U^-t on the 2N x 2N density
    follows the bits of t_max from the top: S(2m) = S(m) + U^m S(m) U^-m,
    and S(m + 1) = U (rho + S(m)) U^dag.  U = S (Gamma (x) I) acts as the
    2 x 2 coin matmul plus the shift gather of ``_walk``, on rows from the
    left and, with the conjugate coin, on columns from the right.  Instances
    run one at a time on four (2N)^2 buffers, every product written in place.
    """
    coins = _unitary(coins)
    x, _, n = grids.shape
    source = _shift_source(n)
    acc, power, s1, s2 = (np.empty((2 * n, 2 * n), dtype=np.complex128) for _ in range(4))
    rows, cols = (2, n * 2 * n), (2 * n, 2, n)
    probs = np.empty((x, 2, n))
    coherence = np.empty(x, dtype=np.complex128)
    for i in range(x):
        coin, psi = coins[i], grids[i].reshape(2 * n)
        acc.fill(0)
        power.fill(0)
        np.fill_diagonal(power, 1)
        for k, bit in enumerate(bin(steps)[2:]):
            if k:  # S(2m) = S(m) + P (P S(m))^dag with P = U^m, as S(m) is Hermitian
                np.matmul(power, acc, out=s1)
                np.conjugate(s1, out=s1)
                np.matmul(power, s1.T, out=s2)
                acc += s2
                np.matmul(power, power, out=s1)
                power, s1 = s1, power
            if bit == "1":  # S(m + 1) = U (rho + S(m)) U^dag, and P -> U P
                np.multiply(psi[:, None], psi.conj()[None, :], out=s2)
                acc += s2
                np.matmul(coin, acc.reshape(rows), out=s2.reshape(rows))
                np.take(s2, source, axis=0, out=s1, mode="wrap")
                np.matmul(coin.conj(), s1.reshape(cols), out=s2.reshape(cols))
                np.take(s2, source, axis=1, out=acc, mode="wrap")
                np.matmul(coin, power.reshape(rows), out=s2.reshape(rows))
                np.take(s2, source, axis=0, out=power, mode="wrap")
        probs[i] = acc.diagonal().real.reshape(2, n)
        coherence[i] = acc[:n, n:].trace()
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

def _density_residuals(rho: NDArray[np.complex128]) -> tuple[float, float, float]:
    """How far a square matrix is from a density matrix: the Hermiticity
    residual, |trace - 1| and the depth of its lowest eigenvalue below 0.
    A NaN entry makes the first two NaN, which no ``<= tol`` test passes."""
    herm = float(np.abs(rho - rho.conj().T).max())
    trace = float(abs(np.trace(rho) - 1.0))
    lowest = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
    return herm, trace, float(max(0.0, -lowest))


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
