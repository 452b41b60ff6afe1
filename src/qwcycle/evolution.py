"""Direct time evolution of the coined walk and time-averaged observables.

This module is the package's reference oracle: everything here is a literal
transcription of the dynamics (coin, then conditional shift), with no spectral
shortcuts.  The closed-form results elsewhere are validated against these
time averages.

One step is U = S (Gamma (x) I_p): the coin acts on chirality at every node,
then the shift moves chirality-0 amplitude from node j to j+1 and chirality-1
amplitude from j to j-1 (mod N).

Time averages run over t = 1..t_max inclusive; any finite choice of window
endpoints vanishes in the t_max -> infinity limit, and fixing one makes the
oracle deterministic for tests.

``time_avg_distribution``, ``time_avg_reduced_density`` and the verification
sweep share one batched window-average loop, ``_window_sums``, which shifts by
an index gather.  ``step``, ``evolve`` and ``time_avg_density`` (the literal
2N x 2N average) shift with ``np.roll`` and are the reference it is pinned to.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .state import WalkState

__all__ = [
    "apply_shift",
    "step",
    "evolve",
    "time_avg_density",
    "time_avg_distribution",
    "time_avg_reduced_density",
    "position_distribution",
    "reduce_to_coin",
    "check_density",
    "check_reduced_density",
    "check_distribution",
]


def apply_shift(state: WalkState) -> WalkState:
    """Conditional shift: s=0 moves +1 node, s=1 moves -1 node (mod N)."""
    grid = state.as_grid()
    return WalkState.from_grid(
        np.stack([np.roll(grid[0], 1), np.roll(grid[1], -1)])
    )


def step(state: WalkState, coin: NDArray[np.complex128]) -> WalkState:
    """One walk step: coin on chirality, then the conditional shift."""
    return apply_shift(WalkState.from_grid(coin @ state.as_grid()))


def _step_grid(grid: NDArray[np.complex128], coin: NDArray[np.complex128]) -> NDArray[np.complex128]:
    # internal hot loop: same arithmetic as step(), no WalkState re-validation
    out = coin @ grid
    out[0] = np.roll(out[0], 1)
    out[1] = np.roll(out[1], -1)
    return out


def evolve(state0: WalkState, coin: NDArray[np.complex128], t: int) -> WalkState:
    """t-fold application of ``step``, same arithmetic without per-step checks.

    Repeated float matmuls leak norm at ~1e-17 per step; for long horizons
    that legitimate rounding drift would trip the state's normalization gate,
    so it is stripped at the end.  Drift beyond 1e-9 means the coin was not
    unitary and raises instead.
    """
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    grid = state0.as_grid().copy()
    for _ in range(int(t)):
        grid = _step_grid(grid, coin)
    norm = np.linalg.norm(grid)
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"evolution lost unitarity: |norm - 1| = {abs(norm - 1.0):.3e}")
    return WalkState.from_grid(grid / norm)


def _check_window(t_max: float) -> None:
    # the averages divide by t_max, so it must count the steps exactly
    if not (float(t_max).is_integer() and t_max >= 1):
        raise ValueError(f"t_max must be a whole number of steps >= 1, got {t_max}")


def time_avg_density(
    state0: WalkState, coin: NDArray[np.complex128], t_max: int
) -> NDArray[np.complex128]:
    """(1/t_max) sum_{t=1..t_max} |psi(t)><psi(t)|, streamed (never stores the
    trajectory).  2N x 2N, Hermitian, trace 1."""
    _check_window(t_max)
    grid = state0.as_grid().copy()
    acc = np.zeros((2 * state0.n_nodes,) * 2, dtype=np.complex128)
    for _ in range(int(t_max)):
        grid = _step_grid(grid, coin)
        flat = grid.reshape(-1)
        acc += np.outer(flat, flat.conj())
    acc /= t_max
    return acc


def _window_sums(
    coins: NDArray[np.complex128], grids: NDArray[np.complex128], t_max: int
) -> tuple[NDArray[np.float64], NDArray[np.complex128]]:
    """Time averages over t = 1..t_max of X walks evolved together.

    Instance x starts from ``grids[x]`` (2, N) under ``coins[x]`` (2, 2).
    Returns the node distributions (X, N) and the reduced coin densities
    (X, 2, 2).  Per step it accumulates |a_{s,j}|^2 and a_{0,j} conj(a_{1,j});
    rho_c is assembled from them once, so it is Hermitian by construction.
    """
    _check_window(t_max)
    x, _, n = grids.shape
    # the shift as one gather on the coin-major (X, 2N) view: new[s, j] takes
    # old[s, j - 1] for s = 0 and old[s, j + 1] for s = 1, as apply_shift does
    j = np.arange(n)
    source = np.concatenate([(j - 1) % n, n + (j + 1) % n])
    amps = np.array(grids, dtype=np.complex128)
    probs = np.zeros((x, 2, n))
    cross = np.zeros((x, n), dtype=np.complex128)
    for _ in range(int(t_max)):
        amps = np.take(np.matmul(coins, amps).reshape(x, 2 * n), source, axis=1).reshape(x, 2, n)
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

    Equal to reduce_to_coin(time_avg_density(...)) by linearity of the partial
    trace, but usable at N=100, t_max=1e5 where the 2N x 2N average is not.
    """
    return _window_sums(np.asarray(coin)[None], state0.as_grid()[None], t_max)[1][0]


def position_distribution(state: WalkState) -> NDArray[np.float64]:
    """Marginal node distribution |a_{0,j}|^2 + |a_{1,j}|^2."""
    grid = state.as_grid()
    return (grid.real**2 + grid.imag**2).sum(axis=0)


def reduce_to_coin(rho: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Partial trace over position: (rho_c)_{s,s'} = sum_j rho_{(s,j),(s',j)}."""
    rho = np.asarray(rho)
    dim = rho.shape[0]
    if rho.shape != (dim, dim) or dim % 2:
        raise ValueError(f"expected a (2N, 2N) matrix, got {rho.shape}")
    n = dim // 2
    return np.einsum("sjtj->st", rho.reshape(2, n, 2, n))


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
