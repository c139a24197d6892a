"""Reverse-mode automatic differentiation on dense numpy arrays.

Exactly the operator set the change-detection network and its losses need,
nothing more. Tensors record their parents and a backward closure; calling
``backward()`` on a scalar (or with an explicit seed gradient) propagates
flow gradients in reverse creation order and accumulates them into the
``grad`` of every tensor with ``requires_grad`` — so two backward passes
without zeroing yield exactly twice the gradient.

Conventions: feature maps are NCHW; reductions accumulate in float64 and are
cast back to the input dtype; shape errors name the operator and extents.
Arrays passed in are never mutated (batch-norm running statistics, which the
caller owns as plain arrays, are the one documented exception).

Convolution, the hot path of training, is shift-and-accumulate rather than
im2col: ``conv2d`` pads its input once into a channels-last buffer and runs
each kernel tap as a 1x1 GEMM over a shifted block of that buffer, so no
kh*kw-times column matrix is built, and its backward closure keeps only the
padded input (see ``conv2d``).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np

from .errors import BurnmapError


class ShapeError(BurnmapError):
    """Operator applied to incompatible extents."""


_SEQ = itertools.count()
_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording (inference mode)."""
    global _GRAD_ENABLED
    saved = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = saved


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._seq = next(_SEQ)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def backward(self, grad: np.ndarray | None = None):
        """Accumulate d(self)/d(leaf) into every requiring tensor's ``grad``.

        Flow gradients live in a per-call table, so repeated calls add one
        full pass each rather than compounding stale state.
        """
        if grad is None:
            if self.data.size != 1:
                raise ShapeError(
                    f"backward() without a seed needs a scalar, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ShapeError(
                f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}"
            )

        order: list[Tensor] = []
        seen = {id(self)}
        stack = [self]
        while stack:
            node = stack.pop()
            order.append(node)
            for p in node._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        order.sort(key=lambda t: t._seq, reverse=True)

        flows: dict[int, np.ndarray] = {id(self): grad}
        nodes = {id(t): t for t in order}
        for node in order:
            flow = flows.pop(id(node), None)
            if flow is None:
                continue
            if node.requires_grad:
                node.grad = flow.copy() if node.grad is None else node.grad + flow
            if node._backward is not None:
                for parent, contrib in node._backward(flow):
                    pid = id(parent)
                    nodes.setdefault(pid, parent)
                    if pid in flows:
                        flows[pid] = flows[pid] + contrib
                    else:
                        flows[pid] = contrib

    # Sugar used by the layer code.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    needy = tuple(p for p in parents if p.requires_grad)
    if _GRAD_ENABLED and needy:
        out.requires_grad = True
        out._parents = needy
        out._backward = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] > 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------- arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def backward(flow):
        out = []
        if a.requires_grad:
            out.append((a, _unbroadcast(flow, a.data.shape)))
        if b.requires_grad:
            out.append((b, _unbroadcast(flow, b.data.shape)))
        return out

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def backward(flow):
        out = []
        if a.requires_grad:
            out.append((a, _unbroadcast(flow * b.data, a.data.shape)))
        if b.requires_grad:
            out.append((b, _unbroadcast(flow * a.data, b.data.shape)))
        return out

    return _make(data, (a, b), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on ties the gradient routes to the first argument."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"maximum: shapes {a.data.shape} vs {b.data.shape}")
    take_a = a.data >= b.data
    data = np.where(take_a, a.data, b.data)

    def backward(flow):
        out = []
        if a.requires_grad:
            out.append((a, flow * take_a))
        if b.requires_grad:
            out.append((b, flow * ~take_a))
        return out

    return _make(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def backward(flow):
        out = []
        if a.requires_grad:
            out.append((a, flow @ b.data.T))
        if b.requires_grad:
            out.append((b, a.data.T @ flow))
        return out

    return _make(data, (a, b), backward)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a per-channel bias: (N,C,H,W)+(C,) on axis 1, or (N,D)+(D,)."""
    x, b = _as_tensor(x), _as_tensor(b)
    if b.data.ndim != 1:
        raise ShapeError(f"bias_add: bias must be 1-D, got {b.data.shape}")
    if x.data.ndim == 4:
        if x.data.shape[1] != b.data.shape[0]:
            raise ShapeError(f"bias_add: {x.data.shape} vs bias {b.data.shape}")
        data = x.data + b.data[None, :, None, None]
        reduce_axes: tuple[int, ...] = (0, 2, 3)
    elif x.data.ndim == 2:
        if x.data.shape[1] != b.data.shape[0]:
            raise ShapeError(f"bias_add: {x.data.shape} vs bias {b.data.shape}")
        data = x.data + b.data[None, :]
        reduce_axes = (0,)
    else:
        raise ShapeError(f"bias_add: input must be 2-D or 4-D, got {x.data.shape}")

    def backward(flow):
        out = []
        if x.requires_grad:
            out.append((x, flow))
        if b.requires_grad:
            out.append((b, flow.sum(axis=reduce_axes)))
        return out

    return _make(data, (x, b), backward)


def channel_scale(x: Tensor, s: Tensor) -> Tensor:
    """Scale (N,C,H,W) by per-sample channel weights (N,C)."""
    x, s = _as_tensor(x), _as_tensor(s)
    if x.data.ndim != 4 or s.data.ndim != 2 or x.data.shape[:2] != s.data.shape:
        raise ShapeError(f"channel_scale: {x.data.shape} vs weights {s.data.shape}")
    w = s.data[:, :, None, None]
    data = x.data * w

    def backward(flow):
        out = []
        if x.requires_grad:
            out.append((x, flow * w))
        if s.requires_grad:
            out.append((s, (flow * x.data).sum(axis=(2, 3))))
        return out

    return _make(data, (x, s), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    data = x.data.reshape(shape)

    def backward(flow):
        return [(x, flow.reshape(x.data.shape))] if x.requires_grad else []

    return _make(data, (x,), backward)


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of an empty list")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(flow):
        pieces = np.split(flow, splits, axis=axis)
        return [(t, g) for t, g in zip(tensors, pieces) if t.requires_grad]

    return _make(data, tuple(tensors), backward)


# ---------------------------------------------------------------- activations


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    mask = x.data > 0
    data = np.where(mask, x.data, 0)

    def backward(flow):
        return [(x, flow * mask)] if x.requires_grad else []

    return _make(data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    v = x.data
    data = np.empty_like(v)
    pos = v >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    data[~pos] = ev / (1.0 + ev)

    def backward(flow):
        return [(x, flow * data * (1.0 - data))] if x.requires_grad else []

    return _make(data, (x,), backward)


# ---------------------------------------------------------------- convolution


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of NCHW input with (F,C,kh,kw) kernels, zero padded.

    Shift-and-accumulate: the input is padded once into a channels-last
    buffer ``xp`` of shape (N,Hp,Wp,C), and each of the kh*kw kernel taps
    runs as one GEMM of a (pixels, C) block of ``xp`` against that tap's
    (C,F) weights, accumulated into the output. At stride 1 the block of tap
    (i, j) is the row range starting at ``i*Wp + j`` of ``xp`` viewed as
    (N*Hp*Wp, C): no tap is copied, the output is computed on the padded
    grid and cropped to (Ho, Wo), and the grid's border rows are wasted
    work. At stride 2 each tap's strided slice of ``xp`` is copied; it is a
    quarter of the input.

    Backward scatters the output gradient into the same grid, then per tap
    takes the kernel gradient as block.T @ grad and adds grad @ tap.T into
    the input gradient's block. The closure keeps ``xp`` (about the size of
    the input) and the kernel, not a kh*kw-times column buffer.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: input {x.data.shape}, kernel {w.data.shape}")
    n, c, h, width = x.data.shape
    f, ck, kh, kw = w.data.shape
    if ck != c:
        raise ShapeError(f"conv2d: input has {c} channels, kernel expects {ck}")
    if stride not in (1, 2):
        raise ShapeError(f"conv2d: stride must be 1 or 2, got {stride}")
    hp, wp = h + 2 * padding, width + 2 * padding
    if hp < kh or wp < kw:
        raise ShapeError(f"conv2d: padded input {hp}x{wp} smaller than kernel {kh}x{kw}")
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    dt = np.result_type(x.data, w.data)
    offsets = list(itertools.product(range(kh), range(kw)))

    xp = np.zeros((n, hp, wp, c), dt)
    xp[:, padding : padding + h, padding : padding + width] = x.data.transpose(0, 2, 3, 1)
    taps = np.ascontiguousarray(w.data.transpose(2, 3, 1, 0), dtype=dt)  # (kh,kw,C,F)

    if stride == 1:
        # Output pixel (b, y, x) is grid row b*Hp*Wp + y*Wp + x, and tap
        # (i, j) reads the input row i*Wp + j further on. Rows [0, m) hold
        # every output pixel, and each tap's row range stays inside xp.
        m = n * hp * wp - (kh - 1) * wp - (kw - 1)
        grid_shape = (n, hp, wp, f)

        def window(buf, i, j):
            off = i * wp + j
            return buf.reshape(-1, buf.shape[-1])[off : off + m]

    else:
        m = n * ho * wo
        grid_shape = (n, ho, wo, f)

        def window(buf, i, j):
            return buf[:, i : i + stride * ho : stride, j : j + stride * wo : stride]

    def block(i, j):  # (m, C); a copy only at stride 2
        return window(xp, i, j).reshape(m, c)

    grid = np.zeros(grid_shape, dt)
    acc = grid.reshape(-1, f)[:m]
    part = np.empty((m, f), dt)
    for k, (i, j) in enumerate(offsets):
        np.matmul(block(i, j), taps[i, j], out=part if k else acc)
        if k:
            acc += part
    data = np.ascontiguousarray(grid[:, :ho, :wo].transpose(0, 3, 1, 2))

    def backward(flow):
        out = []
        g = np.zeros(grid_shape, dt)
        g[:, :ho, :wo] = flow.transpose(0, 2, 3, 1)
        g = g.reshape(-1, f)[:m]
        if w.requires_grad:
            dtaps = np.empty((kh, kw, c, f), dt)
            for i, j in offsets:
                np.matmul(block(i, j).T, g, out=dtaps[i, j])
            out.append((w, np.ascontiguousarray(dtaps.transpose(3, 2, 0, 1))))
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            part = np.empty((m, c), dt)
            for i, j in offsets:
                np.matmul(g, taps[i, j].T, out=part)
                view = window(dxp, i, j)
                view += part.reshape(view.shape)
            dx = dxp[:, padding : padding + h, padding : padding + width]
            out.append((x, np.ascontiguousarray(dx.transpose(0, 3, 1, 2))))
        return out

    return _make(data, (x, w), backward)


# ---------------------------------------------------------------- batch norm


def batchnorm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Per-channel normalization of NCHW maps.

    Training mode normalizes by batch statistics and updates the caller-owned
    running arrays in place (biased variance throughout); eval mode is a fixed
    affine map from the running statistics.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.data.ndim != 4:
        raise ShapeError(f"batchnorm: expected NCHW input, got {x.data.shape}")
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(
            f"batchnorm: gamma {gamma.data.shape} / beta {beta.data.shape} vs {c} channels"
        )

    dt = x.data.dtype
    if training:
        mean = x.data.mean(axis=(0, 2, 3), dtype=np.float64)
        var = x.data.astype(np.float64).var(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.astype(running_mean.dtype)
        running_var *= 1.0 - momentum
        running_var += momentum * var.astype(running_var.dtype)
        mean, var = mean.astype(dt), var.astype(dt)
    else:
        mean = running_mean.astype(dt)
        var = running_var.astype(dt)

    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]
    data = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def backward(flow):
        out = []
        if gamma.requires_grad:
            out.append((gamma, (flow * xhat).sum(axis=(0, 2, 3))))
        if beta.requires_grad:
            out.append((beta, flow.sum(axis=(0, 2, 3))))
        if x.requires_grad:
            g = gamma.data[None, :, None, None]
            istd = inv_std[None, :, None, None]
            if training:
                m = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
                dxhat = flow * g
                s1 = dxhat.sum(axis=(0, 2, 3), keepdims=True)
                s2 = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
                dx = istd * (dxhat - s1 / m - xhat * s2 / m)
            else:
                dx = flow * g * istd
            out.append((x, dx))
        return out

    return _make(data, (x, gamma, beta), backward)


# ---------------------------------------------------------------- pooling


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; ties pick the first window position
    in row-major order."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2x2: expected NCHW, got {x.data.shape}")
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2: spatial size {h}x{w} not divisible by 2")
    ho, wo = h // 2, w // 2
    windows = (
        x.data.reshape(n, c, ho, 2, wo, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ho, wo, 4)
    )
    idx = windows.argmax(axis=-1)
    data = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    def backward(flow):
        if not x.requires_grad:
            return []
        g = np.zeros((n, c, ho, wo, 4), dtype=flow.dtype)
        np.put_along_axis(g, idx[..., None], flow[..., None], axis=-1)
        g = g.reshape(n, c, ho, wo, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
        return [(x, g)]

    return _make(data, (x,), backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial extent: (N,C,H,W) -> (N,C,1,1)."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool: expected NCHW, got {x.data.shape}")
    n, c, h, w = x.data.shape
    data = x.data.mean(axis=(2, 3), keepdims=True, dtype=np.float64).astype(x.data.dtype)

    def backward(flow):
        if not x.requires_grad:
            return []
        return [(x, np.broadcast_to(flow / (h * w), x.data.shape).copy())]

    return _make(data, (x,), backward)


# ---------------------------------------------------------------- upsampling

_UPSAMPLE_CACHE: dict[tuple[int, str], np.ndarray] = {}


def _upsample_matrix(n: int, dtype) -> np.ndarray:
    """(2n, n) bilinear interpolation weights, half-pixel-centres convention."""
    key = (n, np.dtype(dtype).str)
    cached = _UPSAMPLE_CACHE.get(key)
    if cached is not None:
        return cached
    u = np.zeros((2 * n, n), dtype=dtype)
    for i in range(2 * n):
        src = (i + 0.5) / 2.0 - 0.5
        lo = int(np.floor(src))
        t = src - lo
        lo0 = min(max(lo, 0), n - 1)
        lo1 = min(max(lo + 1, 0), n - 1)
        u[i, lo0] += 1.0 - t
        u[i, lo1] += t
    _UPSAMPLE_CACHE[key] = u
    return u


def upsample2x(x: Tensor) -> Tensor:
    """Bilinear x2 upsampling of NCHW maps."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"upsample2x: expected NCHW, got {x.data.shape}")
    h, w = x.data.shape[2], x.data.shape[3]
    uh = _upsample_matrix(h, x.data.dtype)
    uw = _upsample_matrix(w, x.data.dtype)
    data = uh @ x.data @ uw.T

    def backward(flow):
        if not x.requires_grad:
            return []
        return [(x, uh.T @ flow @ uw)]

    return _make(data, (x,), backward)


# ---------------------------------------------------------------- losses

LOG_EPS = 1e-7


def _label_array(y, like: np.ndarray) -> np.ndarray:
    arr = y.data if isinstance(y, Tensor) else np.asarray(y)
    if arr.shape != like.shape:
        raise ShapeError(f"labels shape {arr.shape} != predictions shape {like.shape}")
    return arr.astype(like.dtype)


def loss_bce(yhat: Tensor, y) -> Tensor:
    """Mean binary cross-entropy; predictions clamped away from {0,1}."""
    yhat = _as_tensor(yhat)
    t = _label_array(y, yhat.data)
    p = np.clip(yhat.data, LOG_EPS, 1.0 - LOG_EPS)
    inside = (yhat.data > LOG_EPS) & (yhat.data < 1.0 - LOG_EPS)
    n = p.size
    total = -np.sum(
        t * np.log(p) + (1.0 - t) * np.log1p(-p), dtype=np.float64
    )
    data = np.asarray(total / n, dtype=yhat.data.dtype)

    def backward(flow):
        if not yhat.requires_grad:
            return []
        dp = (-t / p + (1.0 - t) / (1.0 - p)) / n
        return [(yhat, flow * dp * inside)]

    return _make(data, (yhat,), backward)


def loss_focal(yhat: Tensor, y, alpha: float = 0.25, gamma: float = 2.0) -> Tensor:
    """Mean focal loss: -alpha_t (1 - p_t)^gamma log p_t."""
    if not 0.0 <= alpha <= 1.0:
        raise ShapeError(f"focal loss: alpha must be in [0,1], got {alpha}")
    if gamma <= 0:
        raise ShapeError(f"focal loss: gamma must be positive, got {gamma}")
    yhat = _as_tensor(yhat)
    t = _label_array(y, yhat.data)
    p = np.clip(yhat.data, LOG_EPS, 1.0 - LOG_EPS)
    inside = (yhat.data > LOG_EPS) & (yhat.data < 1.0 - LOG_EPS)
    pt = np.where(t == 1.0, p, 1.0 - p)
    at = np.where(t == 1.0, alpha, 1.0 - alpha).astype(p.dtype)
    n = p.size
    one_minus = 1.0 - pt
    total = -np.sum(at * one_minus**gamma * np.log(pt), dtype=np.float64)
    data = np.asarray(total / n, dtype=yhat.data.dtype)

    def backward(flow):
        if not yhat.requires_grad:
            return []
        dpt = at * (gamma * one_minus ** (gamma - 1.0) * np.log(pt) - one_minus**gamma / pt)
        sign = np.where(t == 1.0, 1.0, -1.0).astype(p.dtype)
        return [(yhat, flow * dpt * sign * inside / n)]

    return _make(data, (yhat,), backward)


def loss_dice(yhat: Tensor, y) -> Tensor:
    """Soft Dice loss with +1 smoothing, pooled over the whole tensor:
    1 - (2*sum(y*p) + 1)/(sum(y) + sum(p) + 1)."""
    yhat = _as_tensor(yhat)
    t = _label_array(y, yhat.data)
    p = yhat.data
    inter = np.sum(t * p, dtype=np.float64)
    a = 2.0 * inter + 1.0
    b = np.sum(t, dtype=np.float64) + np.sum(p, dtype=np.float64) + 1.0
    data = np.asarray(1.0 - a / b, dtype=yhat.data.dtype)

    def backward(flow):
        if not yhat.requires_grad:
            return []
        dp = -(2.0 * t * b - a) / (b * b)
        return [(yhat, flow * dp.astype(yhat.data.dtype))]

    return _make(data, (yhat,), backward)


def loss_bce_dice(yhat: Tensor, y) -> Tensor:
    """Sum of BCE and Dice."""
    return add(loss_bce(yhat, y), loss_dice(yhat, y))


LOSSES = {
    "bce": loss_bce,
    "focal": loss_focal,
    "dice": loss_dice,
    "bce_dice": loss_bce_dice,
}
