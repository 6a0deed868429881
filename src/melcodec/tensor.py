"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Everything runs in double precision on row-major numpy arrays. Each op
records its parents and a backward closure on the output node; `backward`
walks the implicit graph once in reverse topological order and accumulates
gradients additively into the leaves. Callers zero gradients between steps.
"""

from __future__ import annotations

import struct
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf as _scipy_erf

_GRAD_ENABLED = True

CHECKPOINT_MAGIC = b"FMCK"


class no_grad:
    """Context manager that disables tape recording (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
        raise FloatingPointError(f"non-finite values in output of op '{op}'")


class Tensor:
    """A float64 array plus optional gradient buffer and autodiff record.

    A leaf that requires grad allocates its gradient buffer when the first
    gradient reaches it; until then `grad` reads as zeros.
    """

    __slots__ = ("data", "requires_grad", "_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64, copy=True)
        self.requires_grad = bool(requires_grad)
        self._grad = None
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # ---- construction of op outputs ------------------------------------

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple["Tensor", ...],
                 backward: Callable[[np.ndarray], None] | None, op: str) -> "Tensor":
        _check_finite(data, op)
        out = cls.__new__(cls)
        out.data = np.asarray(data, dtype=np.float64)
        out._grad = None
        out.op = op
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    # ---- basic introspection --------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op}, requires_grad={self.requires_grad})"

    @property
    def grad(self) -> np.ndarray | None:
        """The accumulated gradient; zeros for a leaf that has none yet."""
        if self._grad is None and self.requires_grad and self._backward is None:
            return np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._grad = value

    def zero_grad(self) -> None:
        """Zero the gradient; a leaf keeps the buffer it has, if any."""
        if self._backward is not None:
            self._grad = None
        elif self._grad is not None:
            self._grad.fill(0.0)

    def _accumulate(self, g: np.ndarray) -> None:
        # An op output takes a C-contiguous first gradient without a copy and
        # never writes into it, since that array may be another node's buffer;
        # leaves own their buffers, start them at zero and accumulate in place.
        if self._backward is None:
            if self._grad is None:
                self._grad = np.zeros_like(self.data)
            self._grad += g
        elif self._grad is None:
            if (isinstance(g, np.ndarray) and g.dtype == np.float64
                    and g.flags.c_contiguous):
                self._grad = g
            else:
                self._grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self._grad = np.add(self._grad, g, out=np.empty_like(self._grad))

    def detach(self) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.requires_grad = False
        out._grad = None
        out.op = "detach"
        out._parents = ()
        out._backward = None
        return out

    # ---- elementwise arithmetic ------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = _as_tensor(other)
        data = self.data + other.data

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))

        return Tensor._from_op(data, (self, other), bw, "add")

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = _as_tensor(other)
        data = self.data - other.data

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g, other.data.shape))

        return Tensor._from_op(data, (self, other), bw, "sub")

    def __rsub__(self, other) -> "Tensor":
        return _as_tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = _as_tensor(other)
        data = self.data * other.data

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return Tensor._from_op(data, (self, other), bw, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _as_tensor(other)
        data = self.data / other.data

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g * self.data / other.data ** 2,
                                               other.data.shape))

        return Tensor._from_op(data, (self, other), bw, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return _as_tensor(other) / self

    def __neg__(self) -> "Tensor":
        def bw(g):
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor._from_op(-self.data, (self,), bw, "neg")

    def __pow__(self, p) -> "Tensor":
        if not isinstance(p, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** p

        def bw(g):
            if self.requires_grad:
                self._accumulate(g * p * self.data ** (p - 1))

        return Tensor._from_op(data, (self,), bw, "pow")

    # ---- elementwise functions -------------------------------------------

    def exp(self) -> "Tensor":
        with np.errstate(over="ignore"):
            data = np.exp(self.data)

        def bw(g):
            if self.requires_grad:
                self._accumulate(g * data)

        return Tensor._from_op(data, (self,), bw, "exp")

    def log(self) -> "Tensor":
        with np.errstate(divide="ignore", invalid="ignore"):
            data = np.log(self.data)

        def bw(g):
            if self.requires_grad:
                self._accumulate(g / self.data)

        return Tensor._from_op(data, (self,), bw, "log")

    def sin(self) -> "Tensor":
        data = np.sin(self.data)

        def bw(g):
            if self.requires_grad:
                self._accumulate(g * np.cos(self.data))

        return Tensor._from_op(data, (self,), bw, "sin")

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def bw(g):
            if self.requires_grad:
                self._accumulate(g * 0.5 / data)

        return Tensor._from_op(data, (self,), bw, "sqrt")

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def bw(g):
            if self.requires_grad:
                self._accumulate(g * np.sign(self.data))

        return Tensor._from_op(data, (self,), bw, "abs")

    def sigmoid(self) -> "Tensor":
        # evaluated branch-wise so exp never overflows
        x = self.data
        data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

        def bw(g):
            if self.requires_grad:
                self._accumulate(g * data * (1.0 - data))

        return Tensor._from_op(data, (self,), bw, "sigmoid")

    # ---- reductions --------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def bw(g):
            if self.requires_grad:
                if axis is None:
                    self._accumulate(np.broadcast_to(g, self.data.shape).copy())
                else:
                    gg = g if keepdims else np.expand_dims(g, axis)
                    self._accumulate(np.broadcast_to(gg, self.data.shape).copy())

        return Tensor._from_op(data, (self,), bw, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in np.atleast_1d(axis)])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    # ---- shape manipulation --------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src_shape = self.data.shape
        data = self.data.reshape(shape)

        def bw(g):
            if self.requires_grad:
                self._accumulate(g.reshape(src_shape))

        return Tensor._from_op(data, (self,), bw, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        axes = axes or tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(axes)
        data = self.data.transpose(axes)

        def bw(g):
            if self.requires_grad:
                self._accumulate(g.transpose(inverse))

        return Tensor._from_op(data, (self,), bw, "transpose")

    def __matmul__(self, other) -> "Tensor":
        return matmul(self, _as_tensor(other))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product of [..., M, K] and [..., K, N]."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else -1]:
        raise ValueError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    data = np.matmul(a.data, b.data)

    def bw(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return Tensor._from_op(data, (a, b), bw, "matmul")


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

def _conv_out_len(length: int, kernel: int, stride: int, padding: int) -> int:
    return (length + 2 * padding - kernel) // stride + 1


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """Cross-correlation of [B, Cin, L] with kernel [Cout, Cin/groups, K].

    Three code paths share one contract: a matmul for pointwise kernels, a
    shift-and-add loop for depthwise kernels, and an im2col batched GEMM for
    the general grouped case.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    batch, cin, length = x.data.shape
    cout, cin_g, kernel = weight.data.shape
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if cin % groups or cout % groups:
        raise ValueError(f"channels ({cin}->{cout}) not divisible by groups={groups}")
    if cin_g != cin // groups:
        raise ValueError(f"kernel expects {cin_g} input channels/group, got {cin // groups}")
    out_len = _conv_out_len(length, kernel, stride, padding)
    if out_len < 1:
        raise ValueError(f"conv1d output length {out_len} < 1")

    parents = (x, weight) if bias is None else (x, weight, bias)
    depthwise = groups == cin == cout

    if kernel == 1 and groups == 1:
        xsrc = np.pad(x.data, ((0, 0), (0, 0), (padding, padding))) \
            if padding else x.data
        xs = xsrc[:, :, ::stride]
        w2 = weight.data[:, :, 0]
        data = np.matmul(w2[None], xs)

        def bw(g):
            if x.requires_grad:
                gxs = np.matmul(w2.T[None], g)
                gx = np.zeros_like(x.data)
                if padding:
                    gpad = np.zeros((batch, cin, length + 2 * padding))
                    gpad[:, :, ::stride] = gxs
                    gx = gpad[:, :, padding:padding + length]
                else:
                    gx[:, :, ::stride] = gxs
                x._accumulate(gx)
            if weight.requires_grad:
                xs_l = xs  # saved view
                gw = np.einsum("bol,bcl->oc", g, xs_l, optimize=True)
                weight._accumulate(gw[:, :, None])
            if bias is not None and bias.requires_grad:
                bias._accumulate(g.sum(axis=(0, 2)))

        if bias is not None:
            data = data + bias.data[None, :, None]
        return Tensor._from_op(data, parents, bw, "conv1d")

    xpad = np.pad(x.data, ((0, 0), (0, 0), (padding, padding)))
    span = (out_len - 1) * stride + 1

    if depthwise:
        w = weight.data[:, 0, :]  # [C, K]
        data = np.zeros((batch, cout, out_len))
        for k in range(kernel):
            data += w[None, :, k, None] * xpad[:, :, k:k + span:stride]

        def bw(g):
            if x.requires_grad:
                gxpad = np.zeros_like(xpad)
                for k in range(kernel):
                    gxpad[:, :, k:k + span:stride] += w[None, :, k, None] * g
                x._accumulate(gxpad[:, :, padding:padding + length])
            if weight.requires_grad:
                gw = np.empty((cout, 1, kernel))
                for k in range(kernel):
                    gw[:, 0, k] = (g * xpad[:, :, k:k + span:stride]).sum(axis=(0, 2))
                weight._accumulate(gw)
            if bias is not None and bias.requires_grad:
                bias._accumulate(g.sum(axis=(0, 2)))

        if bias is not None:
            data = data + bias.data[None, :, None]
        return Tensor._from_op(data, parents, bw, "conv1d")

    cg = cin // groups
    og = cout // groups
    # view of xpad[b, c, k + l * stride] as [B, Cin, K, L'], copied once below
    windows = np.lib.stride_tricks.sliding_window_view(xpad, span, axis=-1)
    patches = windows[:, :, :kernel, ::stride] \
        .reshape(batch, groups, cg, kernel, out_len)  # [B, G, Cg, K, L']
    a = patches.transpose(1, 2, 3, 0, 4).reshape(groups, cg * kernel, batch * out_len)
    w2 = weight.data.reshape(groups, og, cg * kernel)
    out = np.matmul(w2, a)  # [G, Og, B*L']
    data = out.reshape(groups, og, batch, out_len).transpose(2, 0, 1, 3) \
        .reshape(batch, cout, out_len)
    if bias is not None:
        data = data + bias.data[None, :, None]

    def bw(g):
        g2 = g.reshape(batch, groups, og, out_len).transpose(1, 2, 0, 3) \
            .reshape(groups, og, batch * out_len)
        if x.requires_grad:
            ga = np.matmul(w2.transpose(0, 2, 1), g2)  # [G, Cg*K, B*L']
            gpatch = ga.reshape(groups, cg, kernel, batch, out_len) \
                .transpose(3, 0, 1, 2, 4)
            gxpad = np.zeros((batch, groups, cg, xpad.shape[-1]))
            # scatter the taps in increasing k, one strided slice-add each
            for k in range(kernel):
                gxpad[:, :, :, k:k + span:stride] += gpatch[:, :, :, k]
            x._accumulate(gxpad.reshape(batch, cin, -1)[:, :, padding:padding + length])
        if weight.requires_grad:
            gw = np.matmul(g2, a.transpose(0, 2, 1))  # [G, Og, Cg*K]
            weight._accumulate(gw.reshape(cout, cg, kernel))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2)))

    return Tensor._from_op(data, parents, bw, "conv1d")


def conv_transpose1d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                     stride: int = 1, padding: int = 0) -> Tensor:
    """Transposed convolution of [B, Cin, L] with kernel [Cin, Cout, K].

    Output length is (L - 1) * stride - 2 * padding + K.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    batch, cin, length = x.data.shape
    w_cin, cout, kernel = weight.data.shape
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if w_cin != cin:
        raise ValueError(f"kernel expects {w_cin} input channels, got {cin}")
    full_len = (length - 1) * stride + kernel
    out_len = full_len - 2 * padding
    if out_len < 1:
        raise ValueError(f"conv_transpose1d output length {out_len} < 1")

    idx = np.arange(length)[None, :] * stride + np.arange(kernel)[:, None]  # [K, L]
    contrib = np.einsum("bil,iok->bokl", x.data, weight.data, optimize=True)
    ypad = np.zeros((batch, cout, full_len))
    span = (length - 1) * stride + 1
    for k in range(kernel):  # scatter the taps in increasing k
        ypad[:, :, k:k + span:stride] += contrib[:, :, k]
    data = ypad[:, :, padding:padding + out_len]
    if bias is not None:
        data = data + bias.data[None, :, None]

    parents = (x, weight) if bias is None else (x, weight, bias)

    def bw(g):
        gpad = np.zeros((batch, cout, full_len))
        gpad[:, :, padding:padding + out_len] = g
        gpatch = gpad[:, :, idx]  # [B, Cout, K, L]
        if x.requires_grad:
            x._accumulate(np.einsum("bokl,iok->bil", gpatch, weight.data, optimize=True))
        if weight.requires_grad:
            weight._accumulate(np.einsum("bokl,bil->iok", gpatch, x.data, optimize=True))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2)))

    return Tensor._from_op(data, parents, bw, "conv_transpose1d")


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------

def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return Tensor._from_op(data, tuple(tensors), bw, "concat")


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis, differentiable."""
    x = _as_tensor(x)
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, start + length)
    data = x.data[tuple(sl)].copy()

    def bw(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[tuple(sl)] = g
            x._accumulate(gx)

    return Tensor._from_op(data, (x,), bw, "narrow")


def index_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of a [K, C] table; gradient scatter-adds back into rows."""
    table = _as_tensor(table)
    indices = np.asarray(indices, dtype=np.int64)
    data = table.data[indices]

    def bw(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, indices, g)
            table._accumulate(gt)

    return Tensor._from_op(data, (table,), bw, "index_rows")


# ---------------------------------------------------------------------------
# fused normalization layers
# ---------------------------------------------------------------------------

def _norm_backward(g, y, sigma, gain, axes):
    """Shared backward for mean/variance normalization with affine output."""
    ghat = g * gain
    count = np.prod([g.shape[a] for a in axes])
    mean_g = ghat.sum(axis=axes, keepdims=True) / count
    mean_gy = (ghat * y).sum(axis=axes, keepdims=True) / count
    return (ghat - mean_g - y * mean_gy) / sigma


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, axis: int = 1,
               eps: float = 1e-6) -> Tensor:
    """Normalize over one axis with per-position affine along that axis."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    shape = [1] * x.data.ndim
    shape[axis] = -1
    g_b = gain.data.reshape(shape)
    b_b = bias.data.reshape(shape)
    mu = x.data.mean(axis=axis, keepdims=True)
    centered = x.data - mu
    sigma = np.sqrt(np.square(centered).mean(axis=axis, keepdims=True) + eps)
    y = centered / sigma
    data = y * g_b + b_b

    def bw(g):
        if x.requires_grad:
            x._accumulate(_norm_backward(g, y, sigma, g_b, (axis,)))
        reduce_axes = tuple(i for i in range(g.ndim) if i != axis)
        if gain.requires_grad:
            gain._accumulate((g * y).sum(axis=reduce_axes))
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=reduce_axes))

    return Tensor._from_op(data, (x, gain, bias), bw, "layer_norm")


def group_norm(x: Tensor, groups: int, gain: Tensor, bias: Tensor,
               eps: float = 1e-6) -> Tensor:
    """GroupNorm over [B, C, L]: normalize per (batch, group), affine per
    channel."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    b, c, l = x.data.shape
    if c % groups:
        raise ValueError(f"channels {c} not divisible by {groups} groups")
    xg = x.data.reshape(b, groups, (c // groups) * l)
    mu = xg.mean(axis=2, keepdims=True)
    centered = xg - mu
    sigma = np.sqrt(np.square(centered).mean(axis=2, keepdims=True) + eps)
    y = (centered / sigma).reshape(b, c, l)
    data = y * gain.data[None, :, None] + bias.data[None, :, None]

    def bw(g):
        if x.requires_grad:
            ghat = (g * gain.data[None, :, None]).reshape(b, groups, -1)
            yg = y.reshape(b, groups, -1)
            count = yg.shape[2]
            mean_g = ghat.sum(axis=2, keepdims=True) / count
            mean_gy = (ghat * yg).sum(axis=2, keepdims=True) / count
            gx = ((ghat - mean_g - yg * mean_gy) / sigma).reshape(b, c, l)
            x._accumulate(gx)
        if gain.requires_grad:
            gain._accumulate((g * y).sum(axis=(0, 2)))
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2)))

    return Tensor._from_op(data, (x, gain, bias), bw, "group_norm")


# ---------------------------------------------------------------------------
# nonlinearities beyond simple composition
# ---------------------------------------------------------------------------

def gelu(x: Tensor) -> Tensor:
    """Exact erf-form GELU."""
    x = _as_tensor(x)
    inv_sqrt2 = 0.7071067811865476
    cdf = 0.5 * (1.0 + _scipy_erf(x.data * inv_sqrt2))
    data = x.data * cdf

    def bw(g):
        if x.requires_grad:
            pdf = np.exp(-0.5 * x.data ** 2) * 0.3989422804014327
            x._accumulate(g * (cdf + x.data * pdf))

    return Tensor._from_op(data, (x,), bw, "gelu")


def silu(x: Tensor) -> Tensor:
    return x * x.sigmoid()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        if x.requires_grad:
            dot = (g * data).sum(axis=axis, keepdims=True)
            x._accumulate(data * (g - dot))

    return Tensor._from_op(data, (x,), bw, "softmax")


# bytes of one [B, H, rows, L] block of attention weights outside the tape
_ATTENTION_BLOCK_BYTES = 8 << 20


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    """softmax(scale * q @ k^T) @ v over [B, H, L, dh] queries, keys and values.

    The arithmetic is that of matmul -> scale -> softmax -> matmul, with the
    softmax done in place. When the tape records, the [B, H, L, L] weights
    are kept for the backward pass; otherwise query rows go in blocks of
    about `_ATTENTION_BLOCK_BYTES`, so memory grows linearly with L.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 4 or k.shape != q.shape or v.shape[:3] != q.shape[:3]:
        raise ValueError(f"attention shapes differ: q {q.shape}, k {k.shape}, "
                         f"v {v.shape}")
    kt = np.swapaxes(k.data, -1, -2)
    batch, heads, length, _ = q.shape
    recording = _GRAD_ENABLED and (q.requires_grad or k.requires_grad or v.requires_grad)
    rows = length if recording else max(
        1, _ATTENTION_BLOCK_BYTES // (8 * batch * heads * length))
    data = np.empty(v.data.shape)
    for lo in range(0, length, rows):
        w = np.matmul(q.data[:, :, lo:lo + rows], kt)
        w *= scale
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        data[:, :, lo:lo + rows] = np.matmul(w, v.data)

    def bw(g):
        if v.requires_grad:
            v._accumulate(np.matmul(np.swapaxes(w, -1, -2), g))
        if q.requires_grad or k.requires_grad:
            gw = np.matmul(g, np.swapaxes(v.data, -1, -2))
            gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True))
            gs = gs * np.asarray(scale)
            if q.requires_grad:
                q._accumulate(np.matmul(gs, k.data))
            if k.requires_grad:
                k._accumulate(np.swapaxes(np.matmul(np.swapaxes(q.data, -1, -2), gs),
                                          -1, -2))

    return Tensor._from_op(data, (q, k, v), bw, "attention")


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    if not training or p <= 0.0:
        return x
    x = _as_tensor(x)
    keep = (rng.random(x.data.shape) >= p) / (1.0 - p)
    data = x.data * keep

    def bw(g):
        if x.requires_grad:
            x._accumulate(g * keep)

    return Tensor._from_op(data, (x,), bw, "dropout")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def reduce_loss(kind: str, a: Tensor, b: Tensor) -> Tensor:
    """Mean elementwise distance between equal-shape tensors.

    kind "l1" is mean |a - b|; "l2" and "mse" are mean (a - b)^2.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"reduce_loss shape mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    if kind == "l1":
        return diff.abs().mean()
    if kind in ("l2", "mse"):
        return (diff * diff).mean()
    raise ValueError(f"unknown loss kind '{kind}'")


# ---------------------------------------------------------------------------
# graph traversal and backward
# ---------------------------------------------------------------------------

def topo_order(root: Tensor) -> list[Tensor]:
    """Topologically ordered op records reachable from root (parents first)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(root: Tensor) -> None:
    """Reverse-mode sweep from a scalar root; visits each node exactly once."""
    if root.data.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        raise ValueError("backward root does not require grad")
    order = topo_order(root)
    root._grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None and node._grad is not None:
            node._backward(node._grad)
    # free transient buffers on interior nodes
    for node in order:
        if node._backward is not None:
            node._grad = None


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def adamw_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               state: dict, lr: float, beta1: float = 0.8, beta2: float = 0.99,
               weight_decay: float = 0.0, eps: float = 1e-8) -> tuple[dict, dict]:
    """One decoupled-weight-decay Adam update, in place on params/state.

    state holds first/second moment dicts keyed like params plus a step count.
    """
    if not state:
        state["step"] = 0
        state["m"] = {k: np.zeros_like(v) for k, v in params.items()}
        state["v"] = {k: np.zeros_like(v) for k, v in params.items()}
    state["step"] += 1
    t = state["step"]
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for key, p in params.items():
        g = grads[key]
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter '{key}'")
        m = state["m"][key]
        v = state["v"][key]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        if weight_decay:
            p *= 1.0 - lr * weight_decay
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return params, state


class AdamW:
    """Optimizer over a named parameter dict of Tensors."""

    def __init__(self, params: dict[str, Tensor], lr: float,
                 betas: tuple[float, float] = (0.8, 0.99), weight_decay: float = 0.0):
        self.params = dict(params)
        self.lr = lr
        self.betas = betas
        self.weight_decay = weight_decay
        self.state: dict = {}

    def step(self) -> None:
        raw = {k: p.data for k, p in self.params.items()}
        grads = {k: p.grad for k, p in self.params.items()}
        adamw_step(raw, grads, self.state, self.lr, self.betas[0], self.betas[1],
                   self.weight_decay)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------

def save_checkpoint(path, named_params: dict[str, np.ndarray]) -> None:
    """Flat binary checkpoint: magic, u32 count, then per-entry
    (u16 name length, UTF-8 name, u8 ndim, u32 dims, little-endian float64 data)."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(named_params)))
        for name, arr in named_params.items():
            arr = np.asarray(arr, dtype="<f8", order="C")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                f.write(struct.pack("<I", dim))
            f.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Inverse of `save_checkpoint`. The file is read once into one writable
    buffer and each entry is a float64 view of it, which may be unaligned; a
    file that ends inside an entry is rejected with the part and the entry
    it ends in."""
    blob = np.fromfile(path, dtype=np.uint8)
    if blob[:4].tobytes() != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {blob[:4].tobytes()!r}")
    offset = 4

    def take(n_bytes: int, what: str) -> np.ndarray:
        nonlocal offset
        if offset + n_bytes > len(blob):
            raise ValueError(f"{path}: checkpoint truncated in {what}")
        offset += n_bytes
        return blob[offset - n_bytes:offset]

    (count,) = struct.unpack("<I", take(4, "the header"))
    out: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = struct.unpack("<H", take(2, f"the name of entry {i}"))
        name = take(name_len, f"the name of entry {i}").tobytes().decode("utf-8")
        ndim = int(take(1, f"the dims of '{name}'")[0])
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"the dims of '{name}'"))
        n_bytes = int(np.prod(shape, dtype=np.int64)) * 8 if ndim else 8
        out[name] = take(n_bytes, f"the data of '{name}'").view("<f8").reshape(shape)
    if offset != len(blob):
        raise ValueError("trailing bytes after last checkpoint entry")
    return out
