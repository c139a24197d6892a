"""Parameter containers, standard layers, the Adam optimizer, and the
mini-batch training loop with its divergence rule, which the pixel MLP and
BAM-CD share.

Modules register parameters and submodules on attribute assignment, so
``named_parameters()`` walks the tree in declaration order — the order is
part of the determinism story (optimizer state and checkpoints key off it).
Weights are float32; initialization draws from a caller-supplied generator
so identical seeds build identical networks.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .errors import ConfigError, DivergenceError

# The most parameters a run may build, checked in closed form before any
# array exists. The paperlike BAM-CD profile has 742.9 M.
MAX_PARAMETERS = 1_000_000_000


class Parameter(Tensor):
    """A trainable tensor; modules auto-register these on assignment."""

    def __init__(self, data):
        super().__init__(np.asarray(data), requires_grad=True)


class Module:
    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, array: np.ndarray):
        """Track a non-trainable array (e.g. running statistics) for
        checkpointing."""
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._params.items():
            yield prefix + name, p
        for name, child in self._children.items():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, b in self._buffers.items():
            yield prefix + name, b
        for name, child in self._children.items():
            yield from child.named_buffers(prefix + name + ".")

    def train(self, mode: bool = True):
        object.__setattr__(self, "training", mode)
        for child in self._children.values():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def named_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        """Every parameter's array, then every buffer, by name."""
        yield from ((name, p.data) for name, p in self.named_parameters())
        yield from self.named_buffers()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: a.copy() for name, a in self.named_arrays()}

    def load_state_dict(self, state: dict[str, np.ndarray]):
        """Copy arrays into parameters and buffers in place; names and
        shapes must match exactly. Writing into the existing arrays keeps a
        model whose parameters an ``Adam`` owns bound to that optimizer."""
        arrays = dict(self.named_arrays())
        missing = arrays.keys() - state.keys()
        extra = state.keys() - arrays.keys()
        if missing or extra:
            raise ConfigError(
                f"state mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
            )
        for name, a in arrays.items():
            if state[name].shape != a.shape:
                raise ConfigError(f"array {name}: shape {state[name].shape} != {a.shape}")
            a[...] = state[name]

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None


class ModuleList(Module):
    """Sequence of submodules registered under their indices."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for m in modules:
            self.append(m)

    def append(self, module: Module):
        self._children[str(len(self._items))] = module
        self._items.append(module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, idx: int) -> Module:
        return self._items[idx]


class Conv2d(Module):
    """3x3/1x1 convolution with He-normal weights; bias off by default
    (batch norm follows almost everywhere)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        bias: bool = False,
    ):
        super().__init__()
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        std = float(np.sqrt(2.0 / fan_in))
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(rng.normal(0.0, std, shape).astype(np.float32))
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = ad.conv2d(x, self.weight, stride=self.stride, padding=self.padding)
        if self.bias is not None:
            out = ad.bias_add(out, self.bias)
        return out


class BatchNorm2d(Module):
    """Per-channel batch norm with ``autodiff.batchnorm``'s momentum and eps."""

    def __init__(self, channels: int):
        super().__init__()
        self.gamma = Parameter(np.ones(channels, dtype=np.float32))
        self.beta = Parameter(np.zeros(channels, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(channels, dtype=np.float32))
        self.register_buffer("running_var", np.ones(channels, dtype=np.float32))

    def forward(self, x: Tensor, shortcut: Tensor | None = None, relu: bool = False) -> Tensor:
        return ad.batchnorm(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            training=self.training,
            shortcut=shortcut,
            relu=relu,
        )


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        std = float(np.sqrt(2.0 / in_features))
        self.weight = Parameter(rng.normal(0.0, std, (in_features, out_features)).astype(dtype))
        self.bias = Parameter(np.zeros(out_features, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        return ad.bias_add(ad.matmul(x, self.weight), self.bias)


class Adam:
    """Adaptive-moment gradient descent with bias correction (Kingma & Ba,
    ICLR 2015) that owns its parameters' storage.

    Building the optimizer copies every parameter, in order, into one flat
    buffer, ``data``, and rebinds each ``p.data`` to a view of its slice;
    the first and second moments, a gradient buffer and a scratch buffer
    share that layout and live as long as the optimizer.
    Whatever changes a parameter afterwards must write into ``p.data`` in
    place, as ``Module.load_state_dict`` does: ``step`` raises RuntimeError
    if a parameter's storage was replaced.

    A step copies every parameter's gradient into the gradient buffer, then
    runs each elementwise pass of the update once, in place, over the whole
    buffer, ending with one in-place subtraction from ``data``. Every
    parameter must have a gradient: one whose ``grad`` is None raises
    ShapeError naming it by position. Every pass is elementwise, so the
    result is bit for bit that of updating the parameters one at a time. All
    parameters must share one dtype; gradients are cast to it.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        dtypes = sorted({str(p.data.dtype) for p in self.params})
        if len(dtypes) > 1:
            raise ConfigError(f"parameters of mixed dtypes {dtypes} in one optimizer")
        self.lr, self.beta1, self.beta2, self.eps = map(float, (lr, beta1, beta2, eps))
        self.t = 0
        offsets = [0, *itertools.accumulate(p.data.size for p in self.params)]
        size, dtype = offsets[-1], dtypes[0] if dtypes else np.float32
        self.data = np.empty(size, dtype)
        self._m = np.zeros(size, dtype)
        self._v = np.zeros(size, dtype)
        self._g = np.empty(size, dtype)
        self._tmp = np.empty(size, dtype)
        # (parameter, its view of data, its view of the gradient buffer)
        self._slots = []
        for p, lo, hi in zip(self.params, offsets, offsets[1:]):
            view = self.data[lo:hi].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self._slots.append((p, view, self._g[lo:hi].reshape(view.shape)))

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for i, (p, view, grad) in enumerate(self._slots):
            if p.data is not view:
                raise RuntimeError(
                    "a parameter's storage was replaced after its optimizer was built; "
                    "write into p.data in place"
                )
            if p.grad is None:
                raise ShapeError(f"parameter {i} {view.shape} has no gradient")
            if p.grad.shape != view.shape:
                raise ShapeError(f"gradient shape {p.grad.shape} != parameter {view.shape}")
            grad[...] = p.grad
        m, v, g, tmp = self._m, self._v, self._g, self._tmp
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=tmp)
        m += tmp
        v *= self.beta2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - self.beta2
        v += tmp
        # update = lr * (m / bc1) / (sqrt(v / bc2) + eps), into g
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        np.divide(m, bc1, out=g)
        g *= self.lr
        g /= tmp
        self.data -= g


def train_epochs(
    module: Module, optimizer: Adam, n: int, batch_size: int, epochs: int,
    shuffle: np.random.Generator, batch,
) -> Iterator[tuple[int, float]]:
    """Mini-batch training over ``n`` rows; yields (epoch, mean batch loss).
    Each epoch sets training mode and draws one ``shuffle.permutation(n)``.
    ``batch(rows)`` returns the loss as a float and a callable that sets the
    gradients; a non-finite loss raises DivergenceError before it runs. A NaN
    input or an overflowing step can poison the weights or running statistics
    while the loss stays finite, so each step ends with one finiteness pass
    over ``optimizer.data`` and the buffers, naming the culprit on failure."""
    buffers = [b for _, b in module.named_buffers()]
    for epoch in range(epochs):
        module.train()
        order = shuffle.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            loss, backward = batch(order[start : start + batch_size])
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite training loss in epoch {epoch}", epoch=epoch)
            backward()
            optimizer.step()
            if not all(np.isfinite(a).all() for a in (optimizer.data, *buffers)):
                name = next(k for k, a in module.named_arrays() if not np.isfinite(a).all())
                raise DivergenceError(
                    f"non-finite values in {name} after an optimizer step in epoch {epoch}",
                    epoch=epoch,
                )
            losses.append(loss)
        yield epoch, float(np.mean(losses))
