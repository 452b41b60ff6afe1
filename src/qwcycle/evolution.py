"""Direct time evolution of the coined walk: the production brute-force oracle.

The closed-form results elsewhere are validated against these time averages,
computed with no spectral shortcuts.  One step is U = S (Gamma (x) I_p): the
coin acts on chirality at every node, then the shift moves chirality-0
amplitude from node j to j+1 and chirality-1 amplitude from j to j-1 (mod N).

Time averages run over t = 1..t_max inclusive; any finite choice of window
endpoints vanishes in the t_max -> infinity limit, and fixing one makes the
oracle deterministic for tests.

Every entry point runs one kernel, ``_walk``, which steps X walks at once with
one matmul and one index gather.  ``evolve`` runs it for one walk;
``time_avg_distribution``, ``time_avg_reduced_density`` and the verification
sweep average it through ``_window_sums``.  The literal ``np.roll`` step and
2N x 2N average it is pinned to live in ``qwcycle.reference``.
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


def _walk(
    coins: NDArray[np.complex128], grids: NDArray[np.complex128], steps: int
) -> Iterator[NDArray[np.complex128]]:
    """Yield the (X, 2, N) amplitudes after each of ``steps`` steps of X walks.

    Walk x starts from ``grids[x]`` (2, N) under ``coins[x]`` (2, 2), which
    must be unitary within 1e-10: any other coin leaks or gains norm, and
    every average would be silently off.
    """
    coins = np.asarray(coins)
    gram = np.matmul(coins.conj().swapaxes(1, 2), coins)
    if not np.abs(gram - np.eye(2)).max() <= 1e-10:
        raise ValueError("coin is not unitary within 1e-10")
    x, _, n = grids.shape
    # the shift as one gather on the coin-major (X, 2N) view: new[s, j] takes
    # old[s, j - 1] for s = 0 and old[s, j + 1] for s = 1
    j = np.arange(n)
    source = np.concatenate([(j - 1) % n, n + (j + 1) % n])
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


def _window_sums(
    coins: NDArray[np.complex128], grids: NDArray[np.complex128], t_max: int
) -> tuple[NDArray[np.float64], NDArray[np.complex128]]:
    """Time averages over t = 1..t_max of X walks evolved together.

    Takes ``_walk``'s coins (X, 2, 2) and grids (X, 2, N).  Returns the node
    distributions (X, N) and the reduced coin densities (X, 2, 2).  Per step
    it accumulates |a_{s,j}|^2 and a_{0,j} conj(a_{1,j}); rho_c is assembled
    from them once, so it is Hermitian by construction.
    """
    steps = _whole(t_max, 1, "t_max")
    x, _, n = grids.shape
    probs = np.zeros((x, 2, n))
    cross = np.zeros((x, n), dtype=np.complex128)
    for amps in _walk(coins, grids, steps):
        conj = amps.conj()
        probs += (amps * conj).real
        cross += amps[:, 0] * conj[:, 1]
    populations = probs.sum(axis=2)
    coherence = cross.sum(axis=1)
    rho_c = np.stack([populations[:, 0], coherence, coherence.conj(), populations[:, 1]], axis=1)
    return probs.sum(axis=1) / t_max, rho_c.reshape(x, 2, 2) / t_max


def time_avg_distribution(
    state0: WalkState, coin: NDArray[np.complex128], t_max: int
) -> NDArray[np.float64]:
    """(1/t_max) sum_{t=1..t_max} of the node distribution; length N, sums to 1.

    Accumulates probabilities directly (O(N) per step) rather than going
    through the 2N x 2N density matrix.
    """
    return _window_sums(np.asarray(coin)[None], state0.as_grid()[None], t_max)[0][0]


def time_avg_reduced_density(
    state0: WalkState, coin: NDArray[np.complex128], t_max: int
) -> NDArray[np.complex128]:
    """Time-averaged coin-space density matrix, accumulated directly in 2x2.

    Equal to the partial trace of ``reference.time_avg_density`` by linearity,
    but usable at N=100, t_max=1e5 where the 2N x 2N average is not.
    """
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
