"""Bitemporal burnt-area change-detection network.

Two residual encoder streams (weight-shared when siamese) digest the pre-
and post-fire patches; at every stage the streams' feature maps fuse into a
skip tensor, by channel concatenation (default) or by differencing
(skip_mode="diff", an experiment flag). The decoder walks back up: bilinear
x2 upsample, concatenate the level's skip, a two-conv block, then concurrent
spatial and channel squeeze-excitation combined elementwise (maximum by
default, addition by config). A 1x1 head emits one logit map at input
resolution, squashed to a burnt probability.

Stage strides are [1, 2, 2, 2, ...], so inputs must be divisible by
2**(n_stages - 1). Training is mini-batch Adam on the configured loss
through ``nn.train_epochs``, the loop the pixel MLP also trains in, with
burnt-F1 validation after each epoch and the best checkpoint returned; a
fixed seed and a fixed BLAS thread count give bit-identical traces.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .errors import ConfigError, DataError
from .metrics import MetricReport, accumulate, compute_metrics
from .modelio import block_text, load_model, save_model, text_block
from .rasters import ALL_BANDS, BandId, BitemporalSample, RasterPatch
from .runconfig import (
    check_values, format_fields, fraction, get_bands, get_str, int_at_least, one_of,
    parse_fields, positive_float, positive_ints,
)
from .seeding import rng_for

SHARING_MODES = ("siamese", "pseudo_siamese")
COMBINE_MODES = ("max", "add")
SKIP_MODES = ("concat", "diff")
PROBABILITY_THRESHOLD = 0.5
_MINUS_ONE = Tensor(np.float32(-1.0))  # the diff skip's sign, float32 like the network
Stacks = tuple[np.ndarray, np.ndarray, np.ndarray]  # NCHW pre, NCHW post, (N, 1, H, W) truth


@dataclass(frozen=True)
class BamCdConfig:
    widths: tuple[int, ...] = (16, 32, 64, 128)
    blocks: tuple[int, ...] = (1, 1, 1, 1)
    stem_width: int | None = None  # None: first stage width
    bands: tuple[BandId, ...] = ALL_BANDS
    reduction: int = 2
    sharing: str = "siamese"
    skip_mode: str = "concat"
    scse_combine: str = "max"
    loss: str = "bce_dice"
    learning_rate: float = 0.001
    epochs: int = 250
    batch_size: int = 8
    seed: int = 0
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0

    def __post_init__(self):
        check_values(self, CONFIG_FIELDS)
        if len(self.widths) != len(self.blocks) or len(self.widths) < 2:
            raise ConfigError(
                f"widths {self.widths} and blocks {self.blocks} must have equal length >= 2"
            )
        # Only the focal loss reads focal_alpha and focal_gamma, so under another
        # loss a changed value would do nothing: it is refused instead.
        for key in ("focal_alpha", "focal_gamma"):
            if self.loss != "focal" and getattr(self, key) != getattr(BamCdConfig, key):
                raise ConfigError(
                    f"config key {key!r}: only loss=focal reads it, got "
                    f"{getattr(self, key)!r} with loss={self.loss!r}"
                )

    @property
    def stem(self) -> int:
        return self.stem_width if self.stem_width is not None else self.widths[0]

    @property
    def total_stride(self) -> int:
        return 2 ** (len(self.widths) - 1)


def mini_config(**overrides) -> BamCdConfig:
    """Desk-scale profile: ``BamCdConfig``'s four thin stages, one block
    each, trained for 30 epochs."""
    return replace(BamCdConfig(epochs=30), **overrides)


def paperlike_config(**overrides) -> BamCdConfig:
    """Wide-stage profile (stem 64; stages 256..2048, blocks 3/4/23/3).

    Its parameter count is reported for comparison against the published
    figure, not gated on it; see the README for the measured number.
    """
    base = BamCdConfig(
        widths=(256, 512, 1024, 2048),
        blocks=(3, 4, 23, 3),
        stem_width=64,
        batch_size=16,
    )
    return replace(base, **overrides)


class ResBlock(nn.Module):
    """Fig-5a-style basic block: two 3x3 conv+norm+rectifier with an
    identity shortcut, projected by 1x1 conv when shape changes."""

    def __init__(self, c_in: int, width: int, stride: int, rng: np.random.Generator):
        super().__init__()
        self.conv1 = nn.Conv2d(c_in, width, 3, rng, stride=stride, padding=1)
        self.bn1 = nn.BatchNorm2d(width)
        self.conv2 = nn.Conv2d(width, width, 3, rng, padding=1)
        self.bn2 = nn.BatchNorm2d(width)
        if stride != 1 or c_in != width:
            self.proj_conv = nn.Conv2d(c_in, width, 1, rng, stride=stride)
            self.proj_bn = nn.BatchNorm2d(width)
        else:
            self.proj_conv = None
            self.proj_bn = None

    def forward(self, x: Tensor) -> Tensor:
        h = self.bn1.forward(self.conv1.forward(x), relu=True)
        short = x if self.proj_conv is None else self.proj_bn.forward(self.proj_conv.forward(x))
        return self.bn2.forward(self.conv2.forward(h), shortcut=short, relu=True)


class Encoder(nn.Module):
    """Stem conv plus residual stages; returns every stage's feature map."""

    def __init__(self, config: BamCdConfig, rng: np.random.Generator):
        super().__init__()
        self.stem_conv = nn.Conv2d(len(config.bands), config.stem, 3, rng, padding=1)
        self.stem_bn = nn.BatchNorm2d(config.stem)
        self.stages = nn.ModuleList()
        c_in = config.stem
        for s, (width, depth) in enumerate(zip(config.widths, config.blocks)):
            stage = nn.ModuleList()
            for b in range(depth):
                stride = 2 if (s > 0 and b == 0) else 1
                stage.append(ResBlock(c_in, width, stride, rng))
                c_in = width
            self.stages.append(stage)

    def forward(self, x: Tensor) -> list[Tensor]:
        h = self.stem_bn.forward(self.stem_conv.forward(x), relu=True)
        features = []
        for stage in self.stages:
            for block in stage:
                h = block.forward(h)
            features.append(h)
        return features


class SCSE(nn.Module):
    """Concurrent channel and spatial squeeze-excitation (Fig. 6)."""

    def __init__(self, channels: int, reduction: int, combine: str, rng: np.random.Generator):
        super().__init__()
        squeezed = max(1, channels // reduction)
        self.fc1 = nn.Linear(channels, squeezed, rng)
        self.fc2 = nn.Linear(squeezed, channels, rng)
        self.spatial = nn.Conv2d(channels, 1, 1, rng, bias=True)
        self.combine = combine

    def forward(self, x: Tensor) -> Tensor:
        n, c = x.data.shape[0], x.data.shape[1]
        pooled = ad.reshape(ad.global_avg_pool(x), (n, c))
        gates = ad.sigmoid(self.fc2.forward(ad.relu(self.fc1.forward(pooled))))
        channel_branch = ad.channel_scale(x, gates)
        spatial_branch = ad.mul(x, ad.sigmoid(self.spatial.forward(x)))
        if self.combine == "max":
            return ad.maximum(channel_branch, spatial_branch)
        return ad.add(channel_branch, spatial_branch)


class ConvBlock(nn.Module):
    """Fig-5b-style decoder block: two 3x3 conv+norm+rectifier."""

    def __init__(self, c_in: int, width: int, rng: np.random.Generator):
        super().__init__()
        self.conv1 = nn.Conv2d(c_in, width, 3, rng, padding=1)
        self.bn1 = nn.BatchNorm2d(width)
        self.conv2 = nn.Conv2d(width, width, 3, rng, padding=1)
        self.bn2 = nn.BatchNorm2d(width)

    def forward(self, x: Tensor) -> Tensor:
        h = self.bn1.forward(self.conv1.forward(x), relu=True)
        return self.bn2.forward(self.conv2.forward(h), relu=True)


class DecoderLevel(nn.Module):
    def __init__(self, c_in: int, width: int, config: BamCdConfig, rng: np.random.Generator):
        super().__init__()
        self.block = ConvBlock(c_in, width, rng)
        self.attention = SCSE(width, config.reduction, config.scse_combine, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.attention.forward(self.block.forward(x))


class BamCdModel(nn.Module):
    def __init__(self, config: BamCdConfig):
        super().__init__()
        self.config = config
        rng = rng_for(config.seed, "model/init")
        self.encoder = Encoder(config, rng)
        if config.sharing == "pseudo_siamese":
            self.encoder_post = Encoder(config, rng)
        else:
            self.encoder_post = None
        w = config.widths
        fused = 2 if config.skip_mode == "concat" else 1
        levels = nn.ModuleList()
        for lvl in range(len(w) - 2, -1, -1):
            above = fused * w[-1] if lvl == len(w) - 2 else w[lvl + 1]
            levels.append(DecoderLevel(above + fused * w[lvl], w[lvl], config, rng))
        self.decoder = levels
        self.head = nn.Conv2d(w[0], 1, 1, rng, bias=True)

    def forward_batch(self, x_pre: Tensor, x_post: Tensor) -> Tensor:
        """Probability maps (N,1,H,W) for aligned NCHW reflectance batches."""
        if x_pre.data.shape != x_post.data.shape:
            raise DataError(
                f"epoch batches disagree: {x_pre.data.shape} vs {x_post.data.shape}"
            )
        h, w = x_pre.data.shape[2], x_pre.data.shape[3]
        stride = self.config.total_stride
        if h % stride or w % stride:
            raise DataError(
                f"spatial size {h}x{w} not divisible by the network stride {stride}"
            )
        pre_feats = self.encoder.forward(x_pre)
        post_encoder = self.encoder_post if self.encoder_post is not None else self.encoder
        post_feats = post_encoder.forward(x_post)
        # A level's skip is its pre and post maps side by side (concat) or
        # their difference (diff). Concat-mode pairs go straight into their
        # decoder level's concat; only the deepest pair is joined on its own.
        if self.config.skip_mode == "concat":
            skips = list(zip(pre_feats, post_feats))
            d = ad.concat([pre_feats[-1], post_feats[-1]], axis=1)
        else:
            skips = [(ad.add(a, ad.mul(b, _MINUS_ONE)),) for a, b in zip(pre_feats, post_feats)]
            d = skips[-1][0]
        for lvl, level in zip(range(len(skips) - 2, -1, -1), self.decoder):
            d = ad.concat([ad.upsample2x(d), *skips[lvl]], axis=1)
            d = level.forward(d)
        return ad.sigmoid(self.head.forward(d))


def build(config: BamCdConfig) -> BamCdModel:
    return BamCdModel(config)


def parameter_count(model: BamCdModel) -> int:
    return sum(p.data.size for p in model.parameters())


def _check_patch(patch: RasterPatch, config: BamCdConfig, name: str):
    if patch.bands != tuple(config.bands):
        raise DataError(
            f"{name} patch bands {tuple(b.value for b in patch.bands)} != configured "
            f"{tuple(b.value for b in config.bands)}"
        )


def stack_samples(samples: Iterable[BitemporalSample], count: int, config: BamCdConfig) -> Stacks:
    """NCHW pre and post reflectance and (N, 1, H, W) truth arrays of the
    ``count`` samples, which all carry the configured bands and one patch
    shape. The arrays are allocated at the first sample and filled one
    sample at a time, so an iterator that loads each sample as it is asked
    for is never held whole."""
    x_pre = None
    n = 0
    for n, s in enumerate(samples, 1):
        _check_patch(s.pre, config, f"sample {s.event_id} pre")
        _check_patch(s.post, config, f"sample {s.event_id} post")
        if x_pre is None:
            x_pre = np.empty((count, *s.pre.data.shape), np.float32)
            x_post = np.empty_like(x_pre)
            truth = np.empty((count, 1, *x_pre.shape[2:]), np.float32)
        elif s.pre.data.shape != x_pre.shape[1:]:
            raise DataError(
                f"sample {s.event_id}: patch shape {s.pre.data.shape} != {x_pre.shape[1:]}"
            )
        x_pre[n - 1] = s.pre.data
        x_post[n - 1] = s.post.data
        truth[n - 1, 0] = s.truth.labels
    if x_pre is None or n != count:
        raise DataError(f"{n} samples to stack, expected {count} and at least 1")
    return x_pre, x_post, truth


def forward(model: BamCdModel, pre: RasterPatch, post: RasterPatch) -> np.ndarray:
    """Burnt-probability map for one patch pair (inference mode)."""
    _check_patch(pre, model.config, "pre")
    _check_patch(post, model.config, "post")
    if pre.data.shape != post.data.shape:
        raise DataError(f"patch shapes disagree: {pre.data.shape} vs {post.data.shape}")
    return _forward_probs(model, pre.data[None], post.data[None])[0]


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_f1_burnt: float


def trace_to_text(trace: list[EpochStats]) -> str:
    lines = ["epoch,train_loss,val_f1_burnt"]
    lines += [f"{t.epoch},{t.train_loss!r},{t.val_f1_burnt!r}" for t in trace]
    return "\n".join(lines) + "\n"


def _loss_fn(config: BamCdConfig):
    if config.loss == "focal":
        return lambda yhat, y: ad.loss_focal(
            yhat, y, alpha=config.focal_alpha, gamma=config.focal_gamma
        )
    return ad.LOSSES[config.loss]


def _forward_probs(model: BamCdModel, x_pre, x_post) -> np.ndarray:
    """Burnt-probability maps (N, H, W) of NCHW pre and post stacks: the one
    inference path. It puts the model in eval mode, so batch norm uses and
    keeps its running statistics, builds no graph, and runs the stacks in
    batches of the model's ``batch_size``."""
    model.eval()
    batch_size = model.config.batch_size
    out = np.empty((x_pre.shape[0], *x_pre.shape[2:]), np.float32)
    with ad.no_grad():
        for start in range(0, x_pre.shape[0], batch_size):
            stop = start + batch_size
            probs = model.forward_batch(Tensor(x_pre[start:stop]), Tensor(x_post[start:stop]))
            out[start:stop] = probs.data[:, 0]
    return out


def stack_metrics(model: BamCdModel, x_pre, x_post, truth) -> MetricReport:
    """Pooled metrics of the thresholded probability maps of a sample stack
    (see ``stack_samples``)."""
    probs = _forward_probs(model, x_pre, x_post)
    return compute_metrics(accumulate(probs >= PROBABILITY_THRESHOLD, truth[:, 0]))


def validation_f1(model: BamCdModel, x_pre, x_post, truth) -> float:
    return stack_metrics(model, x_pre, x_post, truth).burnt.f1


def train(
    model: BamCdModel, train_stacks: Stacks, val_stacks: Stacks
) -> tuple[BamCdModel, list[EpochStats]]:
    """Optimize on the train split's stacks (see ``stack_samples``) with
    ``model.config``; return the best-val-burnt-F1 checkpoint and the
    per-epoch trace."""
    config = model.config
    x_pre, x_post, truth = train_stacks
    v_pre, v_post, v_truth = val_stacks
    if not len(x_pre):
        raise DataError("training requires a non-empty train split")
    if not len(v_pre):
        raise DataError("training requires a non-empty val split")
    loss_fn = _loss_fn(config)

    def batch(rows):
        probs = model.forward_batch(Tensor(x_pre[rows]), Tensor(x_post[rows]))
        loss = loss_fn(probs, truth[rows])

        def backward():
            model.zero_grad()  # autodiff adds into an existing grad
            loss.backward()

        return float(loss.data), backward

    optimizer = nn.Adam(model.parameters(), lr=config.learning_rate)
    trace: list[EpochStats] = []
    best_f1 = -1.0
    best_state = None
    for epoch, train_loss in nn.train_epochs(
        model, optimizer, x_pre.shape[0], config.batch_size, config.epochs,
        rng_for(config.seed, "train/shuffle"), batch,
    ):
        f1 = validation_f1(model, v_pre, v_post, v_truth)
        trace.append(EpochStats(epoch, train_loss, f1))
        if f1 > best_f1:
            best_f1 = f1
            best_state = model.state_dict()
    if best_state is not None:
        model.load_state_dict(best_state)
    return model, trace


def predict_scene(
    model: BamCdModel, pre: RasterPatch, post: RasterPatch, patch_size: int
) -> np.ndarray:
    """Burnt mask (uint8, the scene's height x width) of a full scene.

    Tiles of ``patch_size`` run in row-major order, in batches of the
    model's ``batch_size``. Each batch's tiles are cut straight from the
    scene; only the short tiles on the bottom and right borders are
    edge-padded to full size. Each batch is thresholded at 0.5 into the
    output mask, so memory holds the mask and one batch of tiles, not a
    copy of the scene.
    """
    _check_patch(pre, model.config, "pre scene")
    _check_patch(post, model.config, "post scene")
    if pre.data.shape != post.data.shape:
        raise DataError(f"scene shapes disagree: {pre.data.shape} vs {post.data.shape}")
    height, width = pre.data.shape[1], pre.data.shape[2]
    if height < patch_size or width < patch_size:
        raise DataError(
            f"scene {height}x{width} smaller than patch size {patch_size}"
        )
    if patch_size % model.config.total_stride:
        raise DataError(
            f"patch size {patch_size} not divisible by the network stride "
            f"{model.config.total_stride}"
        )
    windows = [
        (slice(r, r + patch_size), slice(c, c + patch_size))
        for r in range(0, height, patch_size)
        for c in range(0, width, patch_size)
    ]
    batch_size = model.config.batch_size
    x_pre = np.empty(
        (min(batch_size, len(windows)), len(pre.bands), patch_size, patch_size), np.float32
    )
    x_post = np.empty_like(x_pre)
    out = np.empty((height, width), np.uint8)
    for start in range(0, len(windows), batch_size):
        batch = windows[start:start + batch_size]
        for k, window in enumerate(batch):
            for x, scene in ((x_pre, pre), (x_post, post)):
                tile = scene.data[(slice(None), *window)]
                h, w = tile.shape[1:]
                x[k, :, :h, :w] = tile
                x[k, :, h:, :w] = x[k, :, h - 1:h, :w]  # edge padding: rows,
                x[k, :, :, w:] = x[k, :, :, w - 1:w]  # then columns
        n = len(batch)
        probs = _forward_probs(model, x_pre[:n], x_post[:n])
        for k, window in enumerate(batch):
            block = out[window]
            block[...] = probs[k, :block.shape[0], :block.shape[1]] >= PROBABILITY_THRESHOLD
    return out


# ---------------------------------------------------------------- persistence


_positive_int = int_at_least(1)


def _get_stem_width(config: dict[str, str], key: str) -> int | None:
    return _positive_int(config, key) if get_str(config, key) else None


def _joined(values) -> str:
    return ",".join(str(v) for v in values)


# Every BamCdConfig field in declaration order: (read and range-check from a
# key=value dict, format as text). Checkpoint config text, dl-run overrides
# and BamCdConfig's own check all use it.
CONFIG_FIELDS = {
    "widths": (positive_ints, _joined),
    "blocks": (positive_ints, _joined),
    "stem_width": (_get_stem_width, lambda v: "" if v is None else str(v)),
    "bands": (get_bands, ",".join),
    "reduction": (_positive_int, str),
    "sharing": (one_of(*SHARING_MODES), str),
    "skip_mode": (one_of(*SKIP_MODES), str),
    "scse_combine": (one_of(*COMBINE_MODES), str),
    "loss": (one_of(*ad.LOSSES), str),
    "learning_rate": (positive_float, repr),
    "epochs": (int_at_least(0), str),
    "batch_size": (_positive_int, str),
    "seed": (int_at_least(0), str),
    "focal_alpha": (fraction, repr),
    "focal_gamma": (positive_float, repr),
}


def config_to_text(config: BamCdConfig) -> str:
    return format_fields(config, CONFIG_FIELDS)


def config_from_text(text: str) -> BamCdConfig:
    return BamCdConfig(**parse_fields(text, CONFIG_FIELDS))


def save_bamcd(path: str | Path, model: BamCdModel):
    blocks = {"__config__": text_block(config_to_text(model.config))}
    for name, value in model.state_dict().items():
        blocks["param/" + name] = value
    save_model(path, "bamcd", {}, blocks)


def _bamcd_from_blocks(meta: dict, blocks: dict[str, np.ndarray]) -> BamCdModel:
    model = build(config_from_text(block_text(blocks["__config__"])))
    model.load_state_dict({name: blocks["param/" + name] for name, _ in model.named_arrays()})
    return model


def load_bamcd(path: str | Path) -> BamCdModel:
    return load_model(path, "bamcd", {}, _bamcd_from_blocks)
