"""Reverse-mode automatic differentiation on dense numpy arrays.

Exactly the operator set the change-detection network and its losses need,
nothing more. The network downsamples with stride-2 convolutions, so there
is no max pooling; the one pooling op is the global average that feeds
channel squeeze-excitation. The sigmoid and BCE formulas are also exposed
as plain-array helpers (``sigmoid_forward``/``sigmoid_backward``,
``bce_forward``/``bce_backward``), which the ops call and the graph-free
pixel MLP shares.

Op outputs record their parents and a backward closure; leaves have none.
``backward()`` propagates flow in reverse creation order into the ``grad`` of
every leaf with ``requires_grad``. A graph is walked once: walked nodes drop
their closure and parents, freeing saved arrays, and a second walk raises.

Conventions: feature maps are NCHW; reductions accumulate in float64 and are
cast back to the input dtype; shape errors name the operator and extents.
Arrays passed in are never mutated (batch-norm running statistics, which the
caller owns as plain arrays, are the one documented exception). Backward
relies on this: closures read their inputs' ``data`` when the walk reaches
them, and ``conv2d`` rebuilds its padded input from it, so an input array
changed in place between forward and backward would give wrong gradients.

Convolution, the hot path of training, is shift-and-accumulate rather than
im2col: ``conv2d`` pads its input into a channels-last buffer split into its
stride x stride phases and runs each kernel tap as a 1x1 GEMM over a
shifted block of rows of one phase, so neither a kh*kw-times column matrix
nor a strided copy is built. One tap loop, ``_tap_sum``, serves the forward
pass and the input gradient of both strides; the input gradient is the
transposed convolution of the flow, one loop per phase. It runs the GEMMs
chunk by chunk of about a thousand rows, all taps per chunk, so each chunk
stays in cache. The padded buffer is not kept for backward: the kernel
gradient rebuilds it from the input's ``data`` (see ``conv2d``).

Batch norm is one fused node: ``batchnorm`` optionally adds a ``shortcut``
tensor and rectifies (``relu=True``) in place on its one output array, so
the network's norm -> shortcut add -> rectifier steps record one node, and
its backward takes the rectifier mask from the output's sign (see
``batchnorm``).
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

    def backward(self, grad: np.ndarray | None = None):
        """Add d(self)/d(leaf) into every requiring leaf's ``grad``, consuming
        the graph; reaching a walked node raises before any ``grad`` changes."""
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
            if node._backward is _walked:
                _walked(None)  # raises
            order.append(node)
            for p in node._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        order.sort(key=lambda t: t._seq)

        flows: dict[int, np.ndarray] = {id(self): grad}
        while order:  # popped newest first, so each node is dropped once walked
            node = order.pop()
            flow = flows.pop(id(node))
            if node._backward is None:
                if node.requires_grad:
                    node.grad = flow.copy() if node.grad is None else node.grad + flow
                continue
            closure, node._backward, node._parents = node._backward, _walked, ()
            for parent, contrib in closure(flow):
                pid = id(parent)
                flows[pid] = flows[pid] + contrib if pid in flows else contrib


def _walked(flow):  # the backward closure of a walked op output
    raise RuntimeError("backward() reached a node of a graph that was already walked")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    # The closure is kept only when some parent requires a gradient, so the
    # closure of a one-parent op never needs to check its parent.
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
        return [(x, flow.reshape(x.data.shape))]

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
    """max(x, 0), where a NaN rectifies to 0; backward masks by the output's sign."""
    x = _as_tensor(x)
    data = np.fmax(x.data, 0)

    def backward(flow):
        return [(x, flow * (data > 0))]

    return _make(data, (x,), backward)


def sigmoid_forward(v: np.ndarray) -> np.ndarray:
    """Logistic of a plain array, without masks: e = exp(-|v|) never
    overflows, and the result is 1/(1+e) where v >= 0 and e/(1+e)
    elsewhere. A NaN gives a NaN."""
    e = np.exp(-np.abs(v))
    d = 1 + e
    np.copyto(e, 1, where=v >= 0)
    return np.divide(e, d, out=e)


def sigmoid_backward(flow: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Flow through the logistic, given its output ``out``."""
    return flow * out * (1.0 - out)


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    data = sigmoid_forward(x.data)

    def backward(flow):
        return [(x, sigmoid_backward(flow, data))]

    return _make(data, (x,), backward)


# ---------------------------------------------------------------- convolution


def _phases(stride: int, padding: int, h: int, w: int) -> list:
    """For each phase (a, b) of the stride x stride split of the zero-padded
    (H, W) input, in row-major order: the (rows, cols) slices of the input
    that land in it and the (rows, cols) slices of the phase grid they fill.
    Padded pixel (y, x) lands in phase (y mod s, x mod s) at (y div s, x div s)
    (the periodic shuffle of Shi et al., 2016).
    """

    def axis(extent):  # (input slice, phase-grid slice) per phase of one axis
        for a in range(stride):
            first = (a - padding) % stride  # the first input row in phase a
            at = (first + padding) // stride
            yield slice(first, None, stride), slice(at, at + len(range(first, extent, stride)))

    return [((ys, xs), (us, vs)) for (ys, us), (xs, vs) in itertools.product(axis(h), axis(w))]


def _pad_channels_last(x: np.ndarray, padding: int, stride: int, dt, phases: list) -> np.ndarray:
    """(N,C,H,W) -> the listed ``phases`` (row-major indices into the
    stride x stride split) of its zero-padded channels-last copy,
    (len(phases), N, Hq, Wq, C) in dtype ``dt``, with Hq = ceil((H+2p)/s)
    and Wq = ceil((W+2p)/s). At stride 1 phase 0 is the padded buffer
    itself; grid cells past the padded input are zero too.

    Only the border is zeroed; the interior is written once, by the copy.
    """
    n, c, h, w = x.shape
    hq, wq = -(-(h + 2 * padding) // stride), -(-(w + 2 * padding) // stride)
    split = _phases(stride, padding, h, w)
    xq = np.empty((len(phases), n, hq, wq, c), dt)
    xt = x.transpose(0, 2, 3, 1)
    for q, p in zip(xq, phases):
        (ys, xs), (us, vs) = split[p]
        if us.start:
            q[:, : us.start] = 0
        if us.stop < hq:
            q[:, us.stop :] = 0
        if vs.start:
            q[:, us, : vs.start] = 0
        if vs.stop < wq:
            q[:, us, vs.stop :] = 0
        q[:, us, vs] = xt[:, ys, xs]
    return xq


_CHUNK_ROWS = 1024  # rows of one block: its input, output and partial sum fit in L2


def _row_chunks(m: int) -> list[tuple[int, int]]:
    """[lo, hi) ranges of about ``_CHUNK_ROWS`` rows that cover [0, m).

    Each starts at a multiple of ``_CHUNK_ROWS``, and a one-row tail joins
    the chunk before it, so no chunk has exactly one row unless m is 1.
    """
    bounds = list(range(0, m, _CHUNK_ROWS)) + [m]
    if len(bounds) > 2 and m - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _tap_sum(src: np.ndarray, pairs: list[tuple[int, np.ndarray]], out: np.ndarray):
    """Shift-and-accumulate over rows: out[r] = the sum of src[r + off] @ tap
    over the (row offset, C-contiguous tap) ``pairs``, in list order, for
    every row r of ``out``. Every offset must leave len(out) rows of src.

    Cache-blocked (Goto & van de Geijn, 2008): each of the ``_row_chunks``
    runs every pair's GEMM into a chunk-sized partial sum while its input
    rows are still in L2. A row gets the bits of one full-height GEMM per
    pair, since OpenBLAS computes a row against a C-contiguous right operand
    the same way whatever the row count, except that a one-row GEMM takes
    the matrix-vector path. Where OpenBLAS picks another kernel for the
    full-height product, the last bit can differ: seen with 32 or more
    kernels over a few channels, some float64 channel counts, and one input
    channel.
    """
    chunks = _row_chunks(len(out))
    part = np.empty((max(hi - lo for lo, hi in chunks), out.shape[1]), out.dtype)
    for lo, hi in chunks:
        for k, (off, tap) in enumerate(pairs):
            dst = out[lo:hi] if k == 0 else part[: hi - lo]
            np.matmul(src[lo + off : hi + off], tap, out=dst)
            if k:
                out[lo:hi] += dst


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of NCHW input with (F,C,kh,kw) kernels, zero padded.

    Shift-and-accumulate on a phase grid: the input is padded into the
    channels-last stride x stride phases of ``_pad_channels_last``, so a
    stride-s correlation is a stride-1 one over the phases (Dumoulin &
    Visin, 2016). ``xq`` (P, N, Hq, Wq, C) holds only the P phases that some
    tap reads: one for a 1x1 kernel at stride 2. Output pixel (b, y, x) is
    row b*Hq*Wq + y*Wq + x of the (N, Hq, Wq, F) grid, and tap (i, j) reads
    phase (i mod s, j mod s), (i div s)*Wq + (j div s) rows further on. Each
    tap runs as one GEMM of those rows against its (C,F) weights, summed by
    ``_tap_sum`` before the crop to (Ho, Wo); the rows past the crop are
    wasted work. At stride 1 the one phase is the padded input.

    Backward puts the output gradient on the same grid, after
    front = ((kh-1) div s)*Wq + (kw-1) div s zero rows. If the kernel needs
    a gradient, it rebuilds ``xq`` from ``x.data``, takes each tap's kernel
    gradient as one GEMM over all grid rows, block.T @ grad, and frees
    ``xq`` again. The input gradient is the transposed convolution, one
    ``_tap_sum`` per phase: the phase's (F,C) taps read the gradient rows at
    the rotated offsets front - (i div s)*Wq - (j div s), in forward tap
    order, which gives every row of the phase; the rows inside the padding
    go to dx. A phase that no tap reads (a 1x1 kernel at stride 2) gets a
    zero gradient.

    ``xq`` is freed before the node is returned, so the closure holds no
    input-sized buffer of its own. The rebuilt ``xq`` equals the forward
    one only because ``x.data`` is never mutated between forward and
    backward (the module convention).
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
    hq, wq = -(-hp // stride), -(-wp // stride)
    dt = np.result_type(x.data, w.data)
    offsets = list(itertools.product(range(kh), range(kw)))
    phase = [(i % stride) * stride + j % stride for i, j in offsets]
    used = sorted(set(phase))  # the phases that xq holds, in its order

    # Rows [0, m) of the grid hold every output pixel, and each tap's m
    # rows stay inside its phase of xq.
    size = n * hq * wq
    front = (kh - 1) // stride * wq + (kw - 1) // stride
    m = size - front
    within = [i // stride * wq + j // stride for i, j in offsets]
    shifts = [used.index(q) * size + d for q, d in zip(phase, within)]
    taps = np.ascontiguousarray(w.data.transpose(2, 3, 1, 0), dtype=dt)  # (kh,kw,C,F)

    xq = _pad_channels_last(x.data, padding, stride, dt, used).reshape(-1, c)
    grid = np.empty((n, hq, wq, f), dt)  # rows past m are never read
    pairs = [(off, taps[i, j]) for off, (i, j) in zip(shifts, offsets)]
    _tap_sum(xq, pairs, grid.reshape(-1, f)[:m])
    del xq
    data = np.ascontiguousarray(grid[:, :ho, :wo].transpose(0, 3, 1, 2))

    def backward(flow):
        out = []
        rows = np.zeros((front + size, f), dt)
        rows[front:].reshape(n, hq, wq, f)[:, :ho, :wo] = flow.transpose(0, 2, 3, 1)
        if w.requires_grad:
            xq = _pad_channels_last(x.data, padding, stride, dt, used).reshape(-1, c)
            g = rows[front : front + m]
            dtaps = np.empty((kh, kw, c, f), dt)
            for off, (i, j) in zip(shifts, offsets):
                np.matmul(xq[off : off + m].T, g, out=dtaps[i, j])
            del xq
            out.append((w, np.ascontiguousarray(dtaps.transpose(3, 2, 0, 1))))
        if x.requires_grad:
            taps_t = np.ascontiguousarray(taps.transpose(0, 1, 3, 2))  # (kh,kw,F,C)
            dq = np.empty((n, hq, wq, c), dt)
            dx = np.empty((n, c, h, width), dt)
            for q, ((ys, xs), (us, vs)) in enumerate(_phases(stride, padding, h, width)):
                pairs = [(front - d, taps_t[i, j])
                         for d, (i, j), tq in zip(within, offsets, phase) if tq == q]
                if not pairs:
                    dx[:, :, ys, xs] = 0
                    continue
                _tap_sum(rows, pairs, dq.reshape(-1, c))
                dx[:, :, ys, xs] = dq[:, us, vs].transpose(0, 3, 1, 2)
            out.append((x, dx))
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
    shortcut: Tensor | None = None,
    relu: bool = False,
) -> Tensor:
    """Per-channel normalization of NCHW maps, fused with an optional
    ``shortcut`` add and an optional rectifier: with both it is
    max(gamma * xhat + beta + shortcut, 0), where a NaN rectifies to 0.

    Training mode normalizes by batch statistics and updates the caller-owned
    running arrays in place (biased variance throughout). The statistics are
    float64 sums: of the input for the mean, then of the squares of the
    input centred in its own dtype for the variance, so no float64 copy of
    the activation is made. Eval mode is one fixed scale-and-shift from the
    running statistics.

    Normalize, affine, add and rectify run in place on one output array, the
    only input-sized array the node makes. Backward takes the rectifier mask
    from the output's sign, hands the masked flow to the shortcut as is, and
    gets the normalized input's sums from ``x`` and the statistics.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.data.ndim != 4:
        raise ShapeError(f"batchnorm: expected NCHW input, got {x.data.shape}")
    n, c, h, w = x.data.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(
            f"batchnorm: gamma {gamma.data.shape} / beta {beta.data.shape} vs {c} channels"
        )
    parents = (x, gamma, beta)
    if shortcut is not None:
        shortcut = _as_tensor(shortcut)
        if shortcut.data.shape != x.data.shape:
            raise ShapeError(f"batchnorm: shortcut {shortcut.data.shape} vs input {x.data.shape}")
        parents += (shortcut,)

    dt = x.data.dtype
    m = n * h * w
    x3 = x.data.reshape(n, c, h * w)
    if training:
        mean64 = np.einsum("nch->c", x3, dtype=np.float64) / m
        mean = mean64.astype(dt)[:, None]
        out = x3 - mean
        var64 = np.einsum("nch,nch->c", out, out, dtype=np.float64) / m
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean64.astype(running_mean.dtype)
        running_var *= 1.0 - momentum
        running_var += momentum * var64.astype(running_var.dtype)
        inv_std = (1.0 / np.sqrt(var64.astype(dt) + eps))[:, None]
        scale = gamma.data[:, None] * inv_std
        out *= scale
        out += beta.data[:, None]
    else:
        mean = running_mean.astype(dt)[:, None]
        inv_std = (1.0 / np.sqrt(running_var.astype(dt) + eps))[:, None]
        scale = gamma.data[:, None] * inv_std
        out = x3 * scale
        out += beta.data[:, None] - mean * scale
    if shortcut is not None:
        out += shortcut.data.reshape(out.shape)
    if relu:
        np.fmax(out, 0, out=out)

    def backward(flow):
        grads = []
        g = flow.reshape(out.shape)
        if relu:
            g = g * (out > 0)
        if shortcut is not None and shortcut.requires_grad:
            grads.append((shortcut, g.reshape(x.data.shape)))
        # sum(g * xhat) without building xhat: inv_std * (sum(g * x) - mean * sum(g))
        sum_g = np.einsum("nch->c", g, dtype=np.float64)
        sum_gx = np.einsum("nch,nch->c", g, x3, dtype=np.float64) - mean[:, 0] * sum_g
        sum_gx *= inv_std[:, 0]
        if gamma.requires_grad:
            grads.append((gamma, sum_gx.astype(dt)))
        if beta.requires_grad:
            grads.append((beta, sum_g.astype(dt)))
        if x.requires_grad:
            if training:  # scale * (g - sum_g / m - xhat * sum_gx / m)
                dx = x3 - mean
                dx *= (-inv_std[:, 0] * sum_gx / m).astype(dt)[:, None]
                dx += g
                dx -= (sum_g / m).astype(dt)[:, None]
                dx *= scale
            else:
                dx = g * scale
            grads.append((x, dx.reshape(x.data.shape)))
        return grads

    return _make(out.reshape(x.data.shape), parents, backward)


# ---------------------------------------------------------------- pooling


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial extent: (N,C,H,W) -> (N,C,1,1)."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool: expected NCHW, got {x.data.shape}")
    n, c, h, w = x.data.shape
    data = x.data.mean(axis=(2, 3), keepdims=True, dtype=np.float64).astype(x.data.dtype)

    def backward(flow):
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
        return [(x, uh.T @ flow @ uw)]

    return _make(data, (x,), backward)


# ---------------------------------------------------------------- losses

LOG_EPS = 1e-7


def _label_array(y, like: np.ndarray) -> np.ndarray:
    arr = y.data if isinstance(y, Tensor) else np.asarray(y)
    if arr.shape != like.shape:
        raise ShapeError(f"labels shape {arr.shape} != predictions shape {like.shape}")
    return arr.astype(like.dtype)


def bce_forward(yhat: np.ndarray, t: np.ndarray):
    """Mean binary cross-entropy of plain arrays, predictions clamped away
    from {0,1}. Returns the loss as a 0-d array of ``yhat``'s dtype, and the
    clamped predictions and the unclamped mask that ``bce_backward`` needs."""
    p = np.minimum(np.maximum(yhat, LOG_EPS), 1.0 - LOG_EPS)  # np.clip's bits, less overhead
    inside = (yhat > LOG_EPS) & (yhat < 1.0 - LOG_EPS)
    total = -np.add.reduce(
        t * np.log(p) + (1.0 - t) * np.log1p(-p), axis=None, dtype=np.float64
    )
    return np.asarray(total / p.size, dtype=yhat.dtype), p, inside


def bce_backward(flow, t: np.ndarray, p: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Flow through the mean BCE to the predictions; zero where clamped."""
    dp = (-t / p + (1.0 - t) / (1.0 - p)) / p.size
    return flow * dp * inside


def loss_bce(yhat: Tensor, y) -> Tensor:
    """Mean binary cross-entropy; predictions clamped away from {0,1}."""
    yhat = _as_tensor(yhat)
    t = _label_array(y, yhat.data)
    data, p, inside = bce_forward(yhat.data, t)

    def backward(flow):
        return [(yhat, bce_backward(flow, t, p, inside))]

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
