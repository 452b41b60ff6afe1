"""Independent reference computations for the benchmark's correctness checks.

Nothing here calls into ``qwcycle``'s numerics.  The walk is rebuilt from its
definition (coin on chirality, then the conditional shift) and every
asymptotic quantity comes from eigendecompositions made by ``numpy.linalg``:

* ``block_spectrum`` diagonalises every 2x2 momentum block,
  diag(e^{-iw}, e^{+iw}) Gamma with w = 2 pi k / N;
* ``group_labels`` groups all 2N eigenphases with one tolerance;
* ``limiting_distribution`` sums each group's projection of the state in
  position space, and ``reduced_density`` traces it over position;
* ``dense_time_average`` uses the dense 2N x 2N eigendecomposition of the
  one-step unitary, and ``self_check`` pins the block route to it;
* ``window_average`` sums U^t rho U^-t over t = 1..T exactly by binary
  doubling, which is the finite-window quantity the step-loop oracle computes.

Amplitudes use the package's layout, a (2, N) grid of chirality x node, and
psi_k = (1 / sqrt N) sum_j e^{-2 pi i k j / N} a_j.
"""

from __future__ import annotations

import math

import numpy as np

# eigenphases closer than this share a group (one rule, one tolerance)
GROUP_TOL = 1e-9
# groups projected to position space per batch of inverse FFTs
FFT_BATCH = 64
# relative agreement of inverse temperatures
BETA_RTOL = 1e-7
# agreement of the block route with the dense 2N x 2N route
SELF_CHECK_TOL = 1e-10


def coin_matrix(theta: float, zeta: float, xi: float, eta: float = 0.0) -> np.ndarray:
    """The U(2) coin from its four angles, as documented by the package."""
    c, s = math.cos(theta), math.sin(theta)
    g = np.array(
        [
            [np.exp(1j * zeta) * c, np.exp(1j * xi) * s],
            [-np.exp(-1j * xi) * s, np.exp(-1j * zeta) * c],
        ]
    )
    return np.exp(0.5j * eta) * g


def block_spectrum(gamma: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (N, 2) and unit eigenvectors (N, 2, 2), columns, of all blocks.

    One coin gives (N, 2, 2) blocks; a stack of P coins (P, 2, 2) gives
    (P, N, 2, 2) and the leading axis is kept.
    """
    w = 2.0 * math.pi * np.arange(n) / n
    phase = np.stack([np.exp(-1j * w), np.exp(1j * w)], axis=-1)  # (N, 2)
    blocks = phase[..., :, None] * gamma[..., None, :, :]
    vals, vecs = np.linalg.eig(blocks)
    return vals, vecs / np.linalg.norm(vecs, axis=-2, keepdims=True)


def group_labels(values: np.ndarray) -> np.ndarray:
    """Group unit-modulus eigenvalues whose phases chain within GROUP_TOL.

    Works on the last axis; returns integer labels of the same shape.
    """
    shape = values.shape
    phases = np.angle(values).reshape(-1, shape[-1])
    labels = np.empty(phases.shape, dtype=np.int64)
    for row, ph in enumerate(phases):
        order = np.argsort(ph)
        srt = ph[order]
        lab = np.concatenate([[0], np.cumsum(np.diff(srt) > GROUP_TOL)])
        if srt[0] + 2.0 * math.pi - srt[-1] <= GROUP_TOL:  # wrap across -pi / pi
            lab[lab == lab[-1]] = 0
        labels[row, order] = lab
    return labels.reshape(shape)


def momentum(grid: np.ndarray) -> np.ndarray:
    """Sector spinors psi_k as an (N, 2) array."""
    n = grid.shape[-1]
    return (np.fft.fft(grid, axis=-1) / math.sqrt(n)).swapaxes(-1, -2)


def _group_components(
    vals: np.ndarray, vecs: np.ndarray, psi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projection of the state onto each eigenphase group, per block.

    Returns (group label, momentum k, 2-spinor) triples with one entry per
    (group, k): a block whose two eigenvalues fall in one group keeps its whole
    spinor, otherwise each branch keeps its eigenvector component.
    """
    n = psi.shape[0]
    labels = group_labels(vals.reshape(-1)).reshape(n, 2)
    coef = np.einsum("kai,ka->ki", vecs.conj(), psi)  # <v_k^i | psi_k>
    parts = np.einsum("ki,kai->kia", coef, vecs)  # (N, 2 branches, 2)
    whole = labels[:, 0] == labels[:, 1]
    parts[whole, 0] = psi[whole]
    keep = np.ones((n, 2), dtype=bool)
    keep[whole, 1] = False
    ks = np.broadcast_to(np.arange(n)[:, None], (n, 2))
    return labels[keep], ks[keep], parts[keep]


def limiting_distribution(gamma: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """pi(v) = sum over groups g of |P_g psi|^2 at node v, summed in position space."""
    n = grid.shape[-1]
    vals, vecs = block_spectrum(gamma, n)
    lab, ks, parts = _group_components(vals, vecs, momentum(grid))
    _, group, size = np.unique(lab, return_inverse=True, return_counts=True)
    size = size[group]
    # a group inside one block is a single plane wave: uniform over the nodes
    probs = np.full(n, float((np.abs(parts[size == 1]) ** 2).sum()) / n)
    multi = size > 1
    lab, ks, parts = group[multi], ks[multi], parts[multi]
    uniq = np.unique(lab)
    for start in range(0, uniq.size, FFT_BATCH):
        sel = uniq[start : start + FFT_BATCH]
        rows = np.searchsorted(sel, lab)
        inside = (rows < sel.size) & (sel[np.minimum(rows, sel.size - 1)] == lab)
        spec = np.zeros((sel.size, 2, n), dtype=np.complex128)
        spec[rows[inside], :, ks[inside]] = parts[inside]
        amps = np.fft.ifft(spec, axis=-1) * math.sqrt(n)  # P_g psi in position space
        probs += (amps.real**2 + amps.imag**2).sum(axis=(0, 1))
    return probs


def reduced_density(gamma: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """rho_c = sum over groups of Tr_position |P_g psi><P_g psi| (by Parseval)."""
    n = grid.shape[-1]
    vals, vecs = block_spectrum(gamma, n)
    _, _, parts = _group_components(vals, vecs, momentum(grid))
    return np.einsum("ma,mb->ab", parts, parts.conj())


def local_reduced_densities(
    gammas: np.ndarray, n: int, sector: np.ndarray
) -> np.ndarray:
    """rho_c for P coins at once, from the sector densities R_k (N, 2, 2).

    Within one block the average keeps R_k whole when its two eigenvalues
    share a group and pinches it onto the eigenbasis otherwise.  By Parseval
    a group that spans several blocks adds to rho_c what its blocks would
    add apart, so only the grouping within each block matters here.
    """
    vals, vecs = block_spectrum(gammas, n)  # (P, N, 2), (P, N, 2, 2)
    labels = group_labels(vals.reshape(vals.shape[0], -1)).reshape(vals.shape)
    whole = labels[..., 0] == labels[..., 1]  # (P, N)
    weights = np.einsum("pkai,kab,pkbi->pki", vecs.conj(), sector, vecs)
    pinched = np.einsum("pki,pkai,pkbi->pkab", weights, vecs, vecs.conj())
    kept = np.where(whole[..., None, None], sector[None], pinched)
    return kept.sum(axis=1)


def step_unitary(gamma: np.ndarray, n: int) -> np.ndarray:
    """Dense one-step unitary S (Gamma x I) on index s * N + j."""
    coin = np.kron(gamma, np.eye(n))
    shift = np.zeros((2 * n, 2 * n))
    for j in range(n):
        shift[(j + 1) % n, j] = 1.0  # chirality 0 moves +1
        shift[n + (j - 1) % n, n + j] = 1.0  # chirality 1 moves -1
    return shift @ coin


def dense_time_average(gamma: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pi, rho_c) from the eigendecomposition of the whole 2N x 2N unitary."""
    n = grid.shape[-1]
    vals, vecs = np.linalg.eig(step_unitary(gamma, n))
    labels = group_labels(vals)
    flat = grid.reshape(-1)
    probs = np.zeros(n)
    rho = np.zeros((2, 2), dtype=np.complex128)
    for g in np.unique(labels):
        basis, _ = np.linalg.qr(vecs[:, labels == g])
        proj = (basis @ (basis.conj().T @ flat)).reshape(2, n)
        probs += (np.abs(proj) ** 2).sum(axis=0)
        rho += proj @ proj.conj().T
    return probs, rho


def window_average(
    gamma: np.ndarray, grid: np.ndarray, t_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """(pi, rho_c) averaged over t = 1..t_max, exact, in O(log t_max) products.

    S(2m) = S(m) + U^m S(m) U^-m and S(m + 1) = U (rho + S(m)) U^dag.
    """
    n = grid.shape[-1]
    u = step_unitary(gamma, n)
    flat = grid.reshape(-1)
    rho0 = np.outer(flat, flat.conj())
    acc = np.zeros_like(rho0)
    power = np.eye(2 * n, dtype=np.complex128)
    for bit in bin(int(t_max))[2:]:
        acc = acc + power @ acc @ power.conj().T
        power = power @ power
        if bit == "1":
            acc = u @ (rho0 + acc) @ u.conj().T
            power = u @ power
    acc /= t_max
    diag = acc.diagonal().real.reshape(2, n)
    rho_c = np.einsum("sjtj->st", acc.reshape(2, n, 2, n))
    return diag.sum(axis=0), rho_c


def inverse_temperature(rho: np.ndarray) -> float:
    """beta = ln(l1 / l2) / 2, so that T = 1 / beta at E0 = 1.

    A maximally mixed coin gives 0 and a pure one +inf, with the package's
    documented thresholds.
    """
    l2, l1 = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    l2 = max(float(l2), 0.0)
    if l1 - l2 <= 1e-13:
        return 0.0
    if l2 <= 1e-14:
        return math.inf
    return 0.5 * math.log(l1 / l2)


def ratio_matches(ratio: float, beta: float, beta0: float) -> bool:
    """Does T/T0 = beta0/beta from the program agree with the reference betas?

    Compared as inverse temperatures, which stay well conditioned both near a
    maximally mixed coin (T -> inf) and near a pure one (T -> 0).
    """
    if not (0.0 < beta0 < math.inf):
        expected = 1.0 if beta == beta0 else (math.inf if beta < beta0 else 0.0)
        return ratio == expected
    if ratio == 0.0:
        got = math.inf
    elif math.isinf(ratio):
        got = 0.0
    else:
        got = beta0 / ratio
    return beta_matches(got, beta)


def beta_matches(got: float, beta: float) -> bool:
    """Inverse temperatures agree, or both coins are within ~1e-13 of pure."""
    if got > 15.0 and beta > 15.0:
        return True
    return abs(got - beta) <= BETA_RTOL * (1.0 + beta)


def self_check(cases: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """Largest gap between the block route and the dense 2N x 2N route."""
    worst = 0.0
    for gamma, grid in cases:
        probs, rho = dense_time_average(gamma, grid)
        worst = max(
            worst,
            float(np.abs(limiting_distribution(gamma, grid) - probs).max()),
            float(np.abs(reduced_density(gamma, grid) - rho).max()),
        )
    if worst > SELF_CHECK_TOL:
        raise RuntimeError(f"block reference disagrees with the dense one by {worst:.3e}")
    return worst
