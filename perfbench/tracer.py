"""Outside-in tracer: spans and counters recorded around burnmap's public functions.

Nothing inside ``src/`` knows about this module. While a ``Tracer.recording()``
block is open, every module-level binding of a traced function is replaced by
a timing wrapper and put back when the block closes. Several modules import
functions by name (``runs`` binds ``rf_fit`` and ``fit_threshold``,
``features`` binds ``compute_index``, ``bamcd`` selects losses through
``autodiff.LOSSES``), so a function is replaced wherever the package holds a
reference to it, not only in its home module.

Autodiff ops get two spans: ``autodiff.<op>`` around the forward call and
``autodiff.<op>.backward`` around the ``_backward`` closure of the tensor the
op returns. Spans nest; a span's self time is its duration minus the time its
child spans cover, so ``loss_bce_dice`` does not count its nested
``loss_bce``/``loss_dice``/``add`` again and ``Tensor.backward`` self time is
the graph walk without the op closures.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Module-level functions timed as spans, by module (names in burnmap/).
FUNCTIONS = {
    "runs": ("evaluate_network",),
    "synthetic": ("generate_dataset", "generate_scene"),
    "rasters": ("ingest_scene",),
    "manifest": ("save_dataset", "load_split"),
    "spectral": ("compute_index", "delta_field"),
    "threshold": ("fit_threshold", "evaluate_threshold"),
    "features": ("sample_pixels", "assemble_features"),
    "forest": ("rf_fit", "rf_predict"),
    "mlp": ("mlp_fit", "mlp_predict"),
    "bamcd": ("train", "validation_f1", "forward", "predict_scene", "save_bamcd"),
    "metrics": ("accumulate",),
    "modelio": ("save_blocks",),
    "patchio": ("write_sample", "read_sample"),
}

# Differentiable ops whose forward call and backward closure are both timed.
OPS = (
    "conv2d", "batchnorm", "relu", "sigmoid", "upsample2x", "concat",
    "global_avg_pool", "channel_scale", "maximum", "mul", "add", "matmul",
    "bias_add", "reshape", "loss_bce", "loss_dice", "loss_bce_dice",
)


class Tracer:
    """Per-name span statistics and counters for one recorded interval."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # open spans: [name, start, child seconds]

    def enter(self, name: str):
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self):
        name, start, child = self._stack.pop()
        duration = perf_counter() - start
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child

    def count(self, name: str, amount: int = 1):
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(tracer, args, result)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def op(self, name: str, fn):
        """Wrap an autodiff op: forward span, plus a span on its backward closure."""
        span_name = "autodiff." + name
        backward_name = span_name + ".backward"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(span_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit()
            if name == "conv2d":
                _count_conv(self, args, out)
            closure = out._backward
            if closure is not None:
                self.count("autodiff.nodes")

                def timed_backward(flow):
                    self.enter(backward_name)
                    try:
                        return closure(flow)
                    finally:
                        self.exit()

                out._backward = timed_backward
            return out

        return traced

    @contextmanager
    def recording(self):
        """Reset the statistics, install every wrapper, remove them on exit."""
        self.reset()
        undo = _install(self)
        try:
            yield self
        finally:
            for restore in reversed(undo):
                restore()

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }


def _count_conv(tracer: Tracer, args, out):
    """Flops and compulsory bytes of conv2d, computed from shapes alone.

    Forward: 2*N*Ho*Wo*F*C*kh*kw flops; reads input and kernel, writes output.
    Backward (counted when the closure exists): the same flops per operand
    that needs a gradient, reading the output gradient and writing each input
    gradient. Independent of the algorithm, so a new conv kernel keeps them.
    """
    x, w = args[0], args[1]
    x_data, w_data = getattr(x, "data", x), getattr(w, "data", w)
    n, f, ho, wo = out.data.shape
    _, c, kh, kw = w_data.shape
    item = out.data.dtype.itemsize
    flops = 2 * n * ho * wo * f * c * kh * kw
    moved = item * (x_data.size + w_data.size + out.data.size)
    if out._backward is not None:
        needs_x = bool(getattr(x, "requires_grad", False))
        needs_w = bool(getattr(w, "requires_grad", False))
        flops += flops * (needs_x + needs_w)
        moved += item * (
            out.data.size
            + needs_w * (x_data.size + w_data.size)
            + needs_x * (w_data.size + x_data.size)
        )
    tracer.count("autodiff.conv2d.flops", flops)
    tracer.count("autodiff.conv2d.bytes", moved)


def _after_assemble(tracer, args, result):
    tracer.count("features.assemble_features.rows", result.x.shape[0])


def _after_rf_fit(tracer, args, result):
    tracer.count("forest.nodes", sum(tree.feature.size for tree in result.trees))


def _after_write(tracer, args, result):
    tracer.count("patchio.bytes_written", len(result))


def _after_read(tracer, args, result):
    tracer.count("patchio.bytes_read", len(args[0]))


def _after_save_blocks(tracer, args, result):
    tracer.count("modelio.save_blocks.bytes", Path(args[0]).stat().st_size)


def _after_step(tracer, args, result):
    if tracer.inside("mlp.mlp_fit"):
        tracer.count("mlp.steps")


_AFTER = {
    "features.assemble_features": _after_assemble,
    "forest.rf_fit": _after_rf_fit,
    "patchio.write_sample": _after_write,
    "patchio.read_sample": _after_read,
    "modelio.save_blocks": _after_save_blocks,
}


def _package_modules():
    return [m for name, m in sys.modules.items() if name == "burnmap" or name.startswith("burnmap.")]


def _replace_everywhere(original, wrapper, undo: list):
    """Rebind every module-level reference to ``original`` in the package."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                undo.append(functools.partial(setattr, module, attr, original))


def _install(tracer: Tracer) -> list:
    from burnmap import autodiff, nn

    undo: list = []
    for module_name, names in FUNCTIONS.items():
        module = sys.modules["burnmap." + module_name]
        for name in names:
            original = getattr(module, name)
            span_name = f"{module_name}.{name}"
            wrapper = tracer.span(span_name, original, _AFTER.get(span_name))
            _replace_everywhere(original, wrapper, undo)

    for name in OPS:
        original = getattr(autodiff, name)
        wrapper = tracer.op(name, original)
        _replace_everywhere(original, wrapper, undo)
        for key, fn in list(autodiff.LOSSES.items()):
            if fn is original:
                autodiff.LOSSES[key] = wrapper
                undo.append(functools.partial(autodiff.LOSSES.__setitem__, key, original))

    for cls, attr, span_name, after in (
        (autodiff.Tensor, "backward", "autodiff.backward", None),
        (nn.Adam, "step", "nn.Adam.step", _after_step),
    ):
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.span(span_name, original, after))
        undo.append(functools.partial(setattr, cls, attr, original))
    return undo
