"""Single-codebook vector quantizer with online-clustering reactivation.

Quantization is exact nearest-neighbor with lowest-index tie-breaks. During
training an EMA of per-codeword usage drives a refresh coefficient
gamma_k = exp(-10 * pi_k * K / (1 - rho) - delta); rarely used codewords are
pulled toward anchors sampled from the batch with probability increasing in
distance, relocating dead codes into poorly covered regions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class Codebook:
    weight: Tensor  # [K, C], trainable

    @property
    def size(self) -> int:
        return self.weight.data.shape[0]

    @property
    def dim(self) -> int:
        return self.weight.data.shape[1]


def init_codebook(k: int, c: int, rng: np.random.Generator) -> Codebook:
    """i.i.d. uniform on [-1/sqrt(C), 1/sqrt(C)]; immediately overwritten by
    the first online-clustering step when training from scratch."""
    if k < 2 or c < 1:
        raise ValueError(f"codebook needs K >= 2 and C >= 1, got K={k} C={c}")
    bound = 1.0 / np.sqrt(c)
    return Codebook(Tensor(rng.uniform(-bound, bound, size=(k, c)),
                           requires_grad=True))


@dataclass
class TokenSequence:
    tokens: np.ndarray
    codebook_size: int

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        if self.tokens.size and (self.tokens.min() < 0
                                 or self.tokens.max() >= self.codebook_size):
            raise ValueError("tokens out of range [0, K)")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class ClusterState:
    pi: np.ndarray               # usage-rate EMA per codeword
    rho: float = 0.999
    delta: float = 1e-3

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=np.float64)
        if np.any(self.pi < 0) or np.any(self.pi > 1):
            raise ValueError("usage rates must lie in [0, 1]")
        if not (0 < self.rho < 1):
            raise ValueError("rho must lie in (0, 1)")


def init_cluster_state(k: int, rho: float = 0.999, delta: float = 1e-3) -> ClusterState:
    return ClusterState(pi=np.zeros(k), rho=rho, delta=delta)


# bytes of the [rows, K, C] difference block `_pairwise_distances` reuses
_DISTANCE_BLOCK_BYTES = 4 << 20


def _pairwise_distances(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Euclidean distances [N, K], computed directly for exact tie behavior.

    Rows of z go in blocks through one reused [rows, K, C] buffer of about
    `_DISTANCE_BLOCK_BYTES`; the element-wise arithmetic is that of the
    whole [N, K, C] difference, so the distances are the same to the bit.
    """
    n, k = len(z), len(w)
    rows = max(1, _DISTANCE_BLOCK_BYTES // (8 * k * w.shape[1]))
    diff = np.empty((min(rows, n), k, w.shape[1]))
    out = np.empty((n, k))
    for lo in range(0, n, rows):
        block = diff[:min(rows, n - lo)]
        np.subtract(z[lo:lo + rows, None, :], w[None, :, :], out=block)
        np.multiply(block, block, out=block)
        block.sum(axis=2, out=out[lo:lo + rows])
    return np.sqrt(out, out=out)


def quantize(z: np.ndarray | Tensor, cb: Codebook) -> tuple[TokenSequence, np.ndarray]:
    """Assign each row of z [N', C] to its nearest codevector.

    Returns the token sequence and the quantized rows; ties go to the lowest
    codeword index.
    """
    z = z.data if isinstance(z, Tensor) else np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != cb.dim:
        raise ValueError(f"expected [N, {cb.dim}] input, got {z.shape}")
    if cb.size == 0:
        raise ValueError("empty codebook")
    dists = _pairwise_distances(z, cb.weight.data)
    tokens = np.argmin(dists, axis=1)  # argmin returns the first minimum
    return TokenSequence(tokens, cb.size), cb.weight.data[tokens].copy()


def update_usage_ema(state: ClusterState, counts: np.ndarray, n_batch: int) -> ClusterState:
    """pi_k <- rho * pi_k + (1 - rho) * counts_k / n_batch."""
    counts = np.asarray(counts)
    if np.any(counts < 0):
        raise ValueError("negative assignment counts")
    if counts.sum() != n_batch:
        raise ValueError(f"counts sum {counts.sum()} != batch size {n_batch}")
    state.pi = state.rho * state.pi + (1.0 - state.rho) * counts / n_batch
    return state


def refresh_coefficients(state: ClusterState, k: int) -> np.ndarray:
    """gamma_k = exp(-10 * pi_k * K / (1 - rho) - delta); decreasing in pi."""
    exponent = -10.0 * state.pi * k / (1.0 - state.rho) - state.delta
    with np.errstate(under="ignore"):
        return np.exp(exponent)


def sample_anchors(z_batch: np.ndarray, cb: Codebook,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw one anchor per codeword from the batch, softmax-weighted by
    distance so far-away vectors are preferred."""
    z_batch = np.asarray(z_batch, dtype=np.float64)
    if z_batch.ndim != 2 or z_batch.shape[0] < 1:
        raise ValueError("anchor sampling needs a non-empty [N, C] batch")
    dists = _pairwise_distances(z_batch, cb.weight.data)  # [N, K]
    logits = dists - dists.max(axis=0, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=0, keepdims=True)
    cum = np.cumsum(probs, axis=0)
    draws = rng.random(cb.size)
    picks = (draws[None, :] >= cum).sum(axis=0)
    picks = np.minimum(picks, z_batch.shape[0] - 1)
    return z_batch[picks].copy()


def online_cluster_step(cb: Codebook, state: ClusterState, z_batch: np.ndarray,
                        rng: np.random.Generator) -> tuple[Codebook, ClusterState]:
    """One refresh: update usage EMA from this batch's assignments, then pull
    each codeword toward its sampled anchor by its refresh coefficient.

    Runs outside the autodiff tape, after the gradient step of the iteration.
    """
    z_batch = z_batch.data if isinstance(z_batch, Tensor) else np.asarray(z_batch)
    tokens, _ = quantize(z_batch, cb)
    counts = np.bincount(tokens.tokens, minlength=cb.size)
    update_usage_ema(state, counts, len(z_batch))
    gamma = refresh_coefficients(state, cb.size)
    anchors = sample_anchors(z_batch, cb, rng)
    cb.weight.data = (1.0 - gamma)[:, None] * cb.weight.data + gamma[:, None] * anchors
    return cb, state


def vq_loss(z: Tensor, z_hat: Tensor, eta: float) -> Tensor:
    """Mean-squared codebook and commitment terms with stop-gradients:
    ||sg[z] - z_hat||^2 + eta * ||z - sg[z_hat]||^2.

    Gradient reaches the codebook only through the first term and the encoder
    only through the second.
    """
    if z.shape != z_hat.shape:
        raise ValueError(f"shape mismatch: {z.shape} vs {z_hat.shape}")
    if eta < 0:
        raise ValueError("eta must be >= 0")
    codebook_term = T.reduce_loss("mse", z.detach(), z_hat)
    commit_term = T.reduce_loss("mse", z, z_hat.detach())
    return codebook_term + eta * commit_term


def straight_through(z: Tensor, z_hat: Tensor | np.ndarray) -> Tensor:
    """Forward value z_hat; backward passes gradient to z unchanged."""
    z_hat = z_hat if isinstance(z_hat, Tensor) else Tensor(z_hat)
    return z + (z_hat - z).detach()
