"""The paper's literal constructions, kept as references for the tests.

The closed forms compute all of this from one array spectrum
(``spectral.spectrum``) and one dephasing per block (``asymptotics._turned``
on spinors, ``asymptotics._dephased`` on Bloch vectors), and never import
this module.  Per block: ``block`` is B_k, ``solve_block`` its
eigendecomposition and ``degeneracy_table`` the k + k' = N zeta / pi (mod N)
pairing.

Time-averaging keeps only the pairings of eigenvectors with equal
eigenvalues.  Between momentum sectors k and k' they are collected by the 4x4
characteristic matrix on coin (x) coin,

    M(k, k') = sum_{(i,j): lambda_k^(i) = lambda_k'^(j)}
               |v_k^(i)><v_k'^(j)|  (x)  |v_k'^(j)><v_k^(i)|,

and contracted with the initial-state sector spinors into

    Theta(k, k') = Tr_2[(I (x) |psi_k><psi_k'|) M(k, k')],

which ``characteristic_sums`` adds up: rho_c = sum_k Theta(k, k), and pi(v) =
1/N + (1/N) Re sum e^{2 pi i v (k - k')/N} tr Theta(k, k') over the cross
pairs of degenerate blocks (exactly uniform without them).  For k = k', M is
sum_i P_i (x) P_i over the eigenprojectors; for a scalar block it is SWAP,
and Theta(k, k) = |psi_k><psi_k| passes through the average untouched.

The brute-force oracle is kept here literally too: ``apply_shift`` and
``step`` move the walk with ``np.roll``, and ``time_avg_density`` averages
the whole 2N x 2N density, which ``reduce_to_coin`` traces down to the coin.
``evolution``'s one gather kernel is pinned to them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .coin import CoinParams, build_coin
from .evolution import check_distribution
from .spectral import DEGENERACY_TOL
from .state import WalkState, _whole

__all__ = [
    "KBlock",
    "DegeneracyTable",
    "block",
    "solve_block",
    "solve_all_blocks",
    "degeneracy_table",
    "m_matrix",
    "m_kk_closed_form",
    "theta_matrix",
    "characteristic_sums",
    "hadamard_local_ld",
    "apply_shift",
    "step",
    "time_avg_density",
    "reduce_to_coin",
]


@dataclass(frozen=True, eq=False)
class KBlock:
    """Spectral data of one momentum block.

    ``eigenvalues[0]`` is the zone-I branch e^{i eta/2} e^{+i alpha} and
    ``eigenvalues[1]`` the zone-II branch e^{i eta/2} e^{-i alpha}; column i of
    ``vectors`` is the corresponding normalized eigenvector.  The global coin
    phase is kept inside the eigenvalues so that B_k v = lambda v holds exactly
    as stated.
    """

    k: int
    n_nodes: int
    omega: float
    alpha: float
    eigenvalues: tuple[complex, complex]
    vectors: NDArray[np.complex128]  # (2, 2), columns are eigenvectors


def block(k: int, coin: CoinParams, n_nodes: int) -> NDArray[np.complex128]:
    """The 2x2 momentum block diag(e^{-i w}, e^{i w}) Gamma at w = 2 pi k / N."""
    if not 0 <= k < n_nodes:
        raise ValueError(f"k={k} out of range for N={n_nodes}")
    w = 2.0 * math.pi * k / n_nodes
    phase = np.array([[cmath.exp(-1j * w), 0.0], [0.0, cmath.exp(1j * w)]])
    return phase @ build_coin(coin)


def _eigvec(
    a: complex, b: complex, c: complex, d: complex, mu: complex, first: bool
) -> NDArray[np.complex128]:
    """The column (b, mu - a) of adj(mu I - B_k) if ``first``, else (mu - d, c), normalized."""
    v = np.array([b, mu - a] if first else [mu - d, c], dtype=np.complex128)
    return v / math.sqrt(abs(v[0]) ** 2 + abs(v[1]) ** 2)


def solve_block(k: int, coin: CoinParams, n_nodes: int) -> KBlock:
    """Eigen-decompose one momentum block in closed form."""
    if not 0 <= k < n_nodes:
        raise ValueError(f"k={k} out of range for N={n_nodes}")
    w = 2.0 * math.pi * k / n_nodes
    cos_t = math.cos(coin.theta)
    lean = cos_t * math.sin(w - coin.zeta)
    sin_alpha = math.hypot(math.sin(coin.theta), lean)
    alpha = math.atan2(sin_alpha, cos_t * math.cos(w - coin.zeta))
    eta_phase = cmath.exp(0.5j * coin.eta)
    lam_i = eta_phase * cmath.exp(1j * alpha)
    lam_ii = eta_phase * cmath.exp(-1j * alpha)

    if 2.0 * min(alpha, math.pi - alpha) <= DEGENERACY_TOL:
        vectors = np.eye(2, dtype=np.complex128)
    else:
        a = cmath.exp(1j * (coin.zeta - w)) * math.cos(coin.theta)
        b = cmath.exp(1j * (coin.xi - w)) * math.sin(coin.theta)
        c = -b.conjugate()
        d = a.conjugate()
        # the larger of the two columns, by the sign rule s cos(theta) sin(zeta - w) <= 0
        vectors = np.column_stack(
            [
                _eigvec(a, b, c, d, cmath.exp(1j * alpha), lean >= 0.0),
                _eigvec(a, b, c, d, cmath.exp(-1j * alpha), -lean >= 0.0),
            ]
        )
    return KBlock(
        k=k,
        n_nodes=n_nodes,
        omega=w,
        alpha=alpha,
        eigenvalues=(lam_i, lam_ii),
        vectors=vectors,
    )


def solve_all_blocks(coin: CoinParams, n_nodes: int) -> tuple[KBlock, ...]:
    """All N blocks of a coin."""
    return tuple(solve_block(k, coin, n_nodes) for k in range(n_nodes))


@dataclass(frozen=True, eq=False)
class DegeneracyTable:
    """Cross-block eigenvalue coincidences for one (coin, N).

    ``pairs`` maps every momentum k to its degenerate partner k' when
    |zeta - r pi / N| <= DEGENERACY_TOL / 2 with r = round(N zeta / pi), and is
    empty otherwise.  ``self_paired``
    collects the k with partner k; those contribute no cross term (their
    weight is already in the diagonal k = k' sum).
    """

    pairs: dict[int, int]
    self_paired: frozenset[int]

    def cross_pairs(self) -> list[tuple[int, int]]:
        """Ordered (k, partner) pairs with partner != k."""
        return [(k, kp) for k, kp in self.pairs.items() if k != kp]


def degeneracy_table(coin: CoinParams, n_nodes: int) -> DegeneracyTable:
    """Detect the k + k' = N zeta / pi (mod N) pairing.

    With r = round(N zeta / pi), partners k' = (r - k) mod N differ in
    eigenphase by at most 2|zeta - r pi / N|, so they pair when that spread is
    within DEGENERACY_TOL, which rational-of-pi inputs meet for any realistic
    N.  It misses theta = pi/2, where every block is degenerate.
    """
    n = int(n_nodes)
    r = round(n * coin.zeta / math.pi)
    pairs: dict[int, int] = {}
    if abs(coin.zeta - r * math.pi / n) <= 0.5 * DEGENERACY_TOL:
        pairs = {k: (r - k) % n for k in range(n)}
    return DegeneracyTable(
        pairs=pairs, self_paired=frozenset(k for k, kp in pairs.items() if k == kp)
    )


def m_matrix(kb: KBlock, kb_prime: KBlock) -> NDArray[np.complex128]:
    """Characteristic matrix M(k, k') from eigenvalue-matched eigenvector pairs.

    Every (i, j) whose eigenphases lie within DEGENERACY_TOL contributes; for a
    generic pair that is the two same-zone matches, while scalar blocks also
    pair zone I with zone II.  Independent of the eigenvector phase gauge.

    Raises ValueError when no eigenvalues match (the blocks are not degenerate
    partners, so M is not defined for them).
    """
    if kb.n_nodes != kb_prime.n_nodes:
        raise ValueError("blocks come from different cycle sizes")
    m = np.zeros((4, 4), dtype=np.complex128)
    matched = False
    for i in (0, 1):
        for j in (0, 1):
            if abs(cmath.phase(kb.eigenvalues[i] / kb_prime.eigenvalues[j])) <= DEGENERACY_TOL:
                matched = True
                v = kb.vectors[:, i]
                vp = kb_prime.vectors[:, j]
                m += np.kron(np.outer(v, vp.conj()), np.outer(vp, v.conj()))
    if not matched:
        raise ValueError(
            f"blocks k={kb.k}, k'={kb_prime.k} share no eigenvalue; "
            "M is defined only for degenerate pairs (or k = k')"
        )
    return m


def m_kk_closed_form(kb: KBlock, coin: CoinParams) -> NDArray[np.complex128]:
    """Independent closed form of the diagonal M(k, k), for cross-checking.

    Valid away from scalar blocks; the eigenprojector construction and this
    expression agree entrywise whenever |sin alpha| is not tiny.
    """
    a = math.sin(kb.alpha)
    if a == 0.0:
        raise ValueError("closed form is singular at sin(alpha) = 0")
    b = math.sin(coin.theta)
    w = kb.omega
    c = 0.5j * b * math.sin(w - coin.zeta) * math.cos(coin.theta) * np.exp(1j * (w - coin.xi))
    cb = np.conj(c)
    e2 = np.exp(2j * (w - coin.xi))
    half_b2 = 0.5 * b * b
    m = np.array(
        [
            [-half_b2 + a * a, -cb, -cb, -half_b2 / e2],
            [-c, half_b2, half_b2, cb],
            [-c, half_b2, half_b2, cb],
            [-half_b2 * e2, c, c, -half_b2 + a * a],
        ],
        dtype=np.complex128,
    )
    return m / (a * a)


def theta_matrix(
    m: NDArray[np.complex128],
    psi_k: NDArray[np.complex128],
    psi_k_prime: NDArray[np.complex128],
) -> NDArray[np.complex128]:
    """Theta(k,k') = Tr_2[(I (x) |psi_k><psi_k'|) M(k,k')], a 2x2 matrix."""
    r = np.outer(psi_k, np.conj(psi_k_prime))
    # with M reshaped to (a, f, c, b):  Theta[a, c] = sum_{b, f} R[b, f] M[a, f, c, b]
    return np.einsum("bf,afcb->ac", r, m.reshape(2, 2, 2, 2))


def characteristic_sums(
    blocks: tuple[KBlock, ...],
    psis: NDArray[np.complex128],
    cross_pairs: list[tuple[int, int]],
) -> tuple[NDArray[np.float64], NDArray[np.complex128]]:
    """(pi, rho_c) as the paper sums them: rho_c = sum_k Theta(k, k) and
    pi(v) = 1/N + (1/N) Re sum e^{2 pi i v (k - k')/N} tr Theta(k, k') over
    ``cross_pairs``.  ``blocks[k]`` is block k and ``psis[:, k]`` its sector
    spinor, as ``state.momentum_spinors`` returns them.  The traces are added
    up by shift (k - k') mod N, and one inverse FFT takes the sum over v."""
    n = len(blocks)
    rho = sum(theta_matrix(m_matrix(kb, kb), psis[:, kb.k], psis[:, kb.k]) for kb in blocks)
    by_shift = np.zeros(n, dtype=complex)
    for k, kp in cross_pairs:
        theta = theta_matrix(m_matrix(blocks[k], blocks[kp]), psis[:, k], psis[:, kp])
        by_shift[(k - kp) % n] += np.trace(theta)
    return 1.0 / n + np.fft.ifft(by_shift).real, rho


def hadamard_local_ld(n_nodes: int, t: int = 0) -> NDArray[np.float64]:
    """Closed form of the Hadamard walk with coin |0> localized at node t.

    Odd cycles give the exact uniform distribution.  Even cycles pick up a
    parity-staggered interference term:

        pi(v) = 1/N + ((-1)^(v-t) / N^2) *
                sum_k sin(w_k) sin(w_k (2(v-t)+1)) / (cos^2(w_k) + 1),

    with w_k = 2 pi k / N and the self-paired momenta k = N/4, 3N/4 left out
    when N is a multiple of 4.  Matches ``limiting_distribution`` for the same
    configuration to ~1e-16.
    """
    n = int(n_nodes)
    if not 0 <= t < n:
        raise ValueError(f"origin offset t={t} out of range for N={n}")
    if n % 2 == 1:
        return np.full(n, 1.0 / n)
    shifted = np.arange(n) - t
    sign = np.where(shifted % 2 == 0, 1.0, -1.0)
    w = 2.0 * np.pi * np.arange(n) / n
    weight = np.sin(w) / (np.cos(w) ** 2 + 1.0)
    if n % 4 == 0:
        weight[[n // 4, 3 * n // 4]] = 0.0
    total = n * np.fft.ifft(weight)[(2 * shifted + 1) % n].imag
    probs = 1.0 / n + sign * total / n**2
    check_distribution(probs)
    return probs


def apply_shift(grid: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Conditional shift of a (2, N) grid: s=0 moves +1 node, s=1 moves -1 node
    (mod N)."""
    return np.stack([np.roll(grid[0], 1), np.roll(grid[1], -1)])


def step(grid: NDArray[np.complex128], coin: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """One walk step of a (2, N) grid: coin on chirality, then the conditional
    shift.  Takes and returns bare amplitudes, so that no normalization check
    trips on the rounding drift of a long run."""
    return apply_shift(coin @ grid)


def time_avg_density(
    state0: WalkState, coin: NDArray[np.complex128], t_max: int
) -> NDArray[np.complex128]:
    """(1/t_max) sum_{t=1..t_max} |psi(t)><psi(t)|, streamed (never stores the
    trajectory).  2N x 2N, Hermitian, trace 1."""
    steps = _whole(t_max, 1, "t_max")
    grid = state0.as_grid()
    acc = np.zeros((2 * state0.n_nodes,) * 2, dtype=np.complex128)
    for _ in range(steps):
        grid = step(grid, coin)
        flat = grid.reshape(-1)
        acc += np.outer(flat, flat.conj())
    acc /= t_max
    return acc


def reduce_to_coin(rho: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Partial trace over position: (rho_c)_{s,s'} = sum_j rho_{(s,j),(s',j)}."""
    rho = np.asarray(rho)
    dim = rho.shape[0]
    if rho.shape != (dim, dim) or dim % 2:
        raise ValueError(f"expected a (2N, 2N) matrix, got {rho.shape}")
    n = dim // 2
    return np.einsum("sjtj->st", rho.reshape(2, n, 2, n))
