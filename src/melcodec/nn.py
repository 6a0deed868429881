"""Reusable neural layers: ConvNeXt v2 block with GRN, ResNet and attention
blocks with timestep conditioning, SnakeBeta feed-forward, sinusoidal time
embedding. All blocks preserve [B, Ch, L] shape and are built on the autodiff
tensor engine."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Module:
    """Minimal container: walks attributes to collect parameters and
    propagate train/eval mode."""

    training: bool = True

    def children(self):
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, value in self.__dict__.items():
            key = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                out[key] = value
            elif isinstance(value, Module):
                out.update(value.named_parameters(f"{key}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.update(item.named_parameters(f"{key}.{i}."))
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def train(self):
        self.training = True
        for child in self.children():
            child.train()
        return self

    def eval(self):
        self.training = False
        for child in self.children():
            child.eval()
        return self

    def load_state(self, state: dict[str, np.ndarray], prefix: str = "") -> None:
        """Copy every parameter from state[prefix + name] into its existing
        array; a key under the prefix that names no parameter is rejected."""
        params = self.named_parameters()
        for key in state:
            if key.startswith(prefix) and key[len(prefix):] not in params:
                raise ValueError(f"checkpoint has unexpected parameter '{key}'")
        for name, tensor in params.items():
            key = prefix + name
            if key not in state:
                raise KeyError(f"checkpoint missing parameter '{key}'")
            if state[key].shape != tensor.data.shape:
                raise ValueError(f"shape mismatch for '{key}': checkpoint "
                                 f"{state[key].shape} vs model {tensor.data.shape}")
            np.copyto(tensor.data, state[key])

    def state_dict(self, prefix: str = "") -> dict[str, np.ndarray]:
        return {prefix + k: v.data for k, v in self.named_parameters().items()}


def _uniform_param(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class Conv1d(Module):
    def __init__(self, cin: int, cout: int, kernel: int, rng: np.random.Generator,
                 stride: int = 1, padding: int = 0, groups: int = 1):
        self.stride = stride
        self.padding = padding
        self.groups = groups
        self.weight = _uniform_param(rng, (cout, cin // groups, kernel),
                                     (cin // groups) * kernel)
        self.bias = Tensor(np.zeros(cout), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv1d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding, groups=self.groups)


class ConvTranspose1d(Module):
    def __init__(self, cin: int, cout: int, kernel: int, rng: np.random.Generator,
                 stride: int = 1, padding: int = 0):
        self.stride = stride
        self.padding = padding
        self.weight = _uniform_param(rng, (cin, cout, kernel), cin * kernel)
        self.bias = Tensor(np.zeros(cout), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv_transpose1d(x, self.weight, self.bias, stride=self.stride,
                                  padding=self.padding)


class Linear(Module):
    def __init__(self, cin: int, cout: int, rng: np.random.Generator):
        self.weight = _uniform_param(rng, (cin, cout), cin)
        self.bias = Tensor(np.zeros(cout), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.weight) + self.bias


class LayerNorm(Module):
    """LayerNorm over the channel axis of [B, Ch, L]."""

    def __init__(self, channels: int):
        self.gain = Tensor(np.ones(channels), requires_grad=True)
        self.bias = Tensor(np.zeros(channels), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias, axis=1, eps=1e-6)


class GroupNorm(Module):
    def __init__(self, groups: int, channels: int, eps: float = 1e-6):
        if channels % groups:
            raise ValueError(f"channels {channels} not divisible by {groups} groups")
        self.groups = groups
        self.eps = eps
        self.gain = Tensor(np.ones(channels), requires_grad=True)
        self.bias = Tensor(np.zeros(channels), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.group_norm(x, self.groups, self.gain, self.bias, eps=self.eps)


def grn(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Global response normalization over [B, Ch, L].

    Per-channel L2 norms over L are divided by their cross-channel mean; the
    result rescales x inside a residual: gain * (x * n) + bias + x.
    """
    norms = ((x * x).sum(axis=2, keepdims=True)).sqrt()  # [B, Ch, 1]
    rel = norms / (norms.mean(axis=1, keepdims=True) + eps)
    return gain.reshape(1, -1, 1) * (x * rel) + bias.reshape(1, -1, 1) + x


def snakebeta(x: Tensor, log_alpha: Tensor, log_beta: Tensor) -> Tensor:
    """x + (1/(exp(log_beta)+1e-9)) * sin^2(exp(log_alpha) * x), per channel."""
    alpha = log_alpha.exp().reshape(1, -1, 1)
    beta = log_beta.exp().reshape(1, -1, 1)
    s = (x * alpha).sin()
    return x + (s * s) / (beta + 1e-9)


class ConvNeXtBlock(Module):
    """Residual unit: depthwise conv (k7) -> LN -> pointwise expand x2 ->
    GELU -> GRN -> pointwise restore, plus the input."""

    def __init__(self, channels: int, rng: np.random.Generator, kernel: int = 7):
        self.dw = Conv1d(channels, channels, kernel, rng,
                         padding=kernel // 2, groups=channels)
        self.norm = LayerNorm(channels)
        self.pw1 = Conv1d(channels, 2 * channels, 1, rng)
        self.grn_gain = Tensor(np.zeros(2 * channels), requires_grad=True)
        self.grn_bias = Tensor(np.zeros(2 * channels), requires_grad=True)
        self.pw2 = Conv1d(2 * channels, channels, 1, rng)

    def __call__(self, x: Tensor) -> Tensor:
        h = self.dw(x)
        h = self.norm(h)
        h = self.pw1(h)
        h = T.gelu(h)
        h = grn(h, self.grn_gain, self.grn_bias)
        h = self.pw2(h)
        return x + h


class SnakeFeedForward(Module):
    """Pointwise expansion with SnakeBeta activation and dropout."""

    def __init__(self, channels: int, rng: np.random.Generator,
                 mult: int = 2, dropout: float = 0.0):
        hidden = mult * channels
        self.inner = Conv1d(channels, hidden, 1, rng)
        self.log_alpha = Tensor(np.zeros(hidden), requires_grad=True)
        self.log_beta = Tensor(np.zeros(hidden), requires_grad=True)
        self.outer = Conv1d(hidden, channels, 1, rng)
        self.dropout = dropout

    def __call__(self, x: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        h = self.inner(x)
        h = snakebeta(h, self.log_alpha, self.log_beta)
        if self.training and self.dropout > 0 and rng is not None:
            h = T.dropout(h, self.dropout, rng, self.training)
        return self.outer(h)


class AttentionBlock(Module):
    """Pre-norm multi-head self-attention over time plus a SnakeBeta
    feed-forward, both residual. The projected time embedding is added to the
    normalized input of the attention branch; there is no positional encoding."""

    def __init__(self, channels: int, t_dim: int, rng: np.random.Generator,
                 heads: int = 2, head_dim: int = 64, dropout: float = 0.0):
        inner = heads * head_dim
        self.heads = heads
        self.head_dim = head_dim
        self.norm1 = LayerNorm(channels)
        self.t_proj = Linear(t_dim, channels, rng)
        self.qkv = Linear(channels, 3 * inner, rng)
        self.out_proj = Linear(inner, channels, rng)
        self.norm2 = LayerNorm(channels)
        self.ff = SnakeFeedForward(channels, rng, dropout=dropout)

    def __call__(self, x: Tensor, t_emb: Tensor,
                 rng: np.random.Generator | None = None) -> Tensor:
        b, c, l = x.shape
        h = self.norm1(x)
        h = h + self.t_proj(t_emb).reshape(b, c, 1)
        seq = h.transpose(0, 2, 1)  # [B, L, C]
        qkv = self.qkv(seq).reshape(b, l, 3, self.heads, self.head_dim)
        qkv = qkv.transpose(2, 0, 3, 1, 4)  # [3, B, H, L, dh]
        q = T.narrow(qkv, 0, 0, 1).reshape(b, self.heads, l, self.head_dim)
        k = T.narrow(qkv, 0, 1, 1).reshape(b, self.heads, l, self.head_dim)
        v = T.narrow(qkv, 0, 2, 1).reshape(b, self.heads, l, self.head_dim)
        attended = T.attention(q, k, v, 1.0 / np.sqrt(self.head_dim))  # [B, H, L, dh]
        attended = attended.transpose(0, 2, 1, 3).reshape(b, l, self.heads * self.head_dim)
        x = x + self.out_proj(attended).transpose(0, 2, 1)
        x = x + self.ff(self.norm2(x), rng=rng)
        return x


class ResNetBlock(Module):
    """conv(k3) -> GN(8) -> SiLU -> + time projection -> conv(k3) -> GN(8),
    summed with a 1x1-projected residual."""

    def __init__(self, cin: int, cout: int, t_dim: int, rng: np.random.Generator,
                 groups: int = 8):
        self.conv1 = Conv1d(cin, cout, 3, rng, padding=1)
        self.gn1 = GroupNorm(groups, cout)
        self.t_proj = Linear(t_dim, cout, rng)
        self.conv2 = Conv1d(cout, cout, 3, rng, padding=1)
        self.gn2 = GroupNorm(groups, cout)
        self.res = Conv1d(cin, cout, 1, rng)

    def __call__(self, x: Tensor, t_emb: Tensor) -> Tensor:
        b = x.shape[0]
        h = self.gn1(self.conv1(x))
        h = T.silu(h)
        h = h + self.t_proj(t_emb).reshape(b, -1, 1)
        h = self.gn2(self.conv2(h))
        return h + self.res(x)


def sinusoidal_features(t: np.ndarray, dim: int) -> np.ndarray:
    """[sin(t * f_i), cos(t * f_i)] with geometric frequencies from 1 down to
    1/10000; t is a 1-D array, output [len(t), dim]."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    exponents = np.arange(half) / max(half - 1, 1)
    freqs = 10000.0 ** (-exponents)
    args = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


class TimeEmbedding(Module):
    """Sinusoidal features followed by a two-layer MLP; deterministic in t."""

    def __init__(self, dim: int, rng: np.random.Generator):
        if dim % 2:
            raise ValueError("time embedding dim must be even")
        self.dim = dim
        self.fc1 = Linear(dim, dim, rng)
        self.fc2 = Linear(dim, dim, rng)

    def __call__(self, t) -> Tensor:
        t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if np.any(t_arr < 0) or np.any(t_arr > 1):
            raise ValueError(f"time values must lie in [0, 1], got {t_arr}")
        feats = Tensor(sinusoidal_features(t_arr, self.dim))
        out = self.fc2(T.silu(self.fc1(feats)))  # [B, dim]
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return out.reshape(self.dim)
        return out
