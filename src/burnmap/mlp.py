"""Fully connected burnt-probability classifier over pixel feature vectors.

Rectifier hidden layers, logistic output, mean binary cross-entropy loss,
mini-batch Adam in ``nn.train_epochs``, BAM-CD's loop too. Widths default
to [d, 128, 64, 1]. Training is bit-deterministic for a fixed seed and BLAS
thread count; a non-finite loss, or a non-finite parameter after an
optimizer step, aborts with the epoch named.

Training builds no autodiff graph. Forward and backward are plain numpy
over the ``nn.Linear`` parameter arrays, written out for this one layer
stack; they run the same numpy operations in the same order as the graph's
closures (the sigmoid and BCE formulas are autodiff's own plain-array
helpers), so weights and loss traces are bit for bit those of the graph.
Each layer adds its bias, rectifies and masks its flow in place on the
fresh matmul output. ``nn.Adam`` owns the parameters: they are views of
its one flat buffer, which each step updates in place.

Inputs are standardized per feature (training-set mean and deviation,
stored with the model): raw spectral features span several orders of
magnitude, which otherwise saturates the logistic head at initialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import nn
from .errors import ConfigError, DataError
from .features import validate_training_data
from .modelio import load_model, meta_ints, save_model
from .seeding import rng_for

HIDDEN_WIDTHS = (128, 64)
LEARNING_RATE = 0.001
BATCH_SIZE = 32
EPOCHS = 50


@dataclass
class MlpModel:
    widths: tuple[int, ...]
    layers: nn.ModuleList
    offset: np.ndarray  # per-feature mean
    scale: np.ndarray  # per-feature deviation; 1 where constant
    loss_trace: list[float] = field(default_factory=list)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Burnt probability, shape (n, 1), of each row of standardized x."""
        for out in self._layer_inputs(x):  # not a list: one activation alive at a time
            pass
        return out

    def _layer_inputs(self, x: np.ndarray):
        """Yield the input of every layer in turn, then the probabilities."""
        *hidden, head = self.layers
        for layer in hidden:
            yield x
            x = x @ layer.weight.data
            x += layer.bias.data
            np.fmax(x, 0, out=x)  # a NaN rectifies to 0, as in autodiff.relu
        yield x
        z = x @ head.weight.data
        z += head.bias.data
        yield ad.sigmoid_forward(z)

    def _backward(self, flow: np.ndarray, inputs: list[np.ndarray]):
        """Set every parameter's grad from the flow into the head's logit,
        walking the layers from last to first."""
        for i in reversed(range(len(self.layers))):
            layer = self.layers[i]
            layer.bias.grad = flow.sum(axis=0)
            layer.weight.grad = inputs[i].T @ flow
            if i:
                # a rectified input is positive exactly where its pre-activation was
                flow = flow @ layer.weight.data.T
                flow *= inputs[i] > 0

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.offset) / self.scale


def _build_layers(widths: tuple[int, ...], seed: int, dtype=np.float32) -> nn.ModuleList:
    rng = rng_for(seed, "mlp/init")
    return nn.ModuleList(
        [nn.Linear(widths[i], widths[i + 1], rng, dtype=dtype) for i in range(len(widths) - 1)]
    )


def build_mlp(n_features: int, widths=None, seed: int = 0, dtype=np.float32) -> MlpModel:
    """An untrained model of ``widths`` (default [d, 128, 64, 1]) whose
    layers draw from ``seed``, with identity input scaling (offset 0, scale
    1) in ``dtype``; ``mlp_fit`` overwrites the scaling with the training
    moments."""
    if widths is None:
        widths = (n_features, *HIDDEN_WIDTHS, 1)
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ConfigError(f"layer widths must be >=2 positive integers, got {widths}")
    if widths[0] != n_features:
        raise ConfigError(f"first width {widths[0]} != feature dimensionality {n_features}")
    if widths[-1] != 1:
        raise ConfigError(f"last width must be 1 (burnt probability), got {widths[-1]}")
    layers = _build_layers(widths, seed, dtype)
    return MlpModel(widths, layers, np.zeros(n_features, dtype), np.ones(n_features, dtype))


def mlp_fit(
    x: np.ndarray,
    y: np.ndarray,
    seed: int,
    widths=None,
    epochs: int = EPOCHS,
    batch_size: int = BATCH_SIZE,
    learning_rate: float = LEARNING_RATE,
) -> MlpModel:
    x = np.asarray(x, dtype=np.float32)
    y = np.asarray(y)
    validate_training_data(x, y)
    if epochs < 0 or batch_size < 1:
        raise ConfigError(f"epochs={epochs}, batch_size={batch_size} out of range")

    model = build_mlp(x.shape[1], widths=widths, seed=seed)
    model.offset = x.mean(axis=0)
    spread = x.std(axis=0)
    model.scale = np.where(spread < 1e-6, np.float32(1.0), spread)
    x = model.normalize(x)
    targets = y.astype(np.float32).reshape(-1, 1)
    optimizer = nn.Adam(model.layers.parameters(), lr=learning_rate)
    epoch_losses = nn.train_epochs(
        model.layers, optimizer, x.shape[0], batch_size, epochs, rng_for(seed, "mlp/shuffle"),
        lambda rows: _batch_gradients(model, x[rows], targets[rows]),
    )
    model.loss_trace.extend(loss for _, loss in epoch_losses)
    return model


def _batch_gradients(model: MlpModel, x: np.ndarray, t: np.ndarray):
    """Mean BCE of one batch against targets t (shape (n, 1), model dtype),
    and a callable that sets every parameter's grad from it."""
    *inputs, out = model._layer_inputs(x)
    loss, p, inside = ad.bce_forward(out, t)

    def backward():
        model._backward(ad.sigmoid_backward(ad.bce_backward(1.0, t, p, inside), out), inputs)

    return float(loss), backward


def mlp_predict(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Burnt probability of each row of an (n, d) array, as an (n,) float64
    array; the rows are cast to float32 and scaled as in training."""
    arr = np.asarray(x, dtype=np.float32)
    if arr.ndim != 2 or arr.shape[1] != model.widths[0]:
        raise DataError(
            f"feature shape {arr.shape} is not (n, model dimensionality {model.widths[0]})"
        )
    return model.forward(model.normalize(arr))[:, 0].astype(np.float64)


def save_mlp(path: str | Path, model: MlpModel):
    blocks = {"norm/offset": model.offset, "norm/scale": model.scale}
    for name, p in model.layers.named_parameters():
        blocks[name] = p.data
    save_model(path, "mlp", {"widths": model.widths}, blocks)


def _mlp_from_blocks(meta: dict, blocks: dict[str, np.ndarray]) -> MlpModel:
    widths = meta["widths"]
    model = build_mlp(widths[0], widths=widths, seed=0)
    model.offset = blocks["norm/offset"]
    model.scale = blocks["norm/scale"]
    state = {name: blocks[name] for name, _ in model.layers.named_parameters()}
    model.layers.load_state_dict(state)
    return model


def load_mlp(path: str | Path) -> MlpModel:
    return load_model(path, "mlp", {"widths": meta_ints}, _mlp_from_blocks)
