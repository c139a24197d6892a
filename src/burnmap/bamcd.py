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
2**(n_stages - 1). Training is mini-batch Adam on the configured loss with
the best-validation-burnt-F1 checkpoint returned; fixed seeds give
bit-identical traces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .errors import ConfigError, DataError, DivergenceError
from .metrics import ConfusionCounts, accumulate, compute_metrics
from .modelio import block_text, load_blocks, save_blocks, text_block
from .rasters import ALL_BANDS, BandId, BitemporalSample, RasterPatch
from .seeding import rng_for

SHARING_MODES = ("siamese", "pseudo_siamese")
COMBINE_MODES = ("max", "add")
SKIP_MODES = ("concat", "diff")
PROBABILITY_THRESHOLD = 0.5


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
    optimizer: str = "adam"
    learning_rate: float = 0.001
    epochs: int = 250
    batch_size: int = 8
    seed: int = 0
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0

    def __post_init__(self):
        if len(self.widths) != len(self.blocks) or len(self.widths) < 2:
            raise ConfigError(
                f"widths {self.widths} and blocks {self.blocks} must have equal length >= 2"
            )
        if any(w < 1 for w in self.widths) or any(b < 1 for b in self.blocks):
            raise ConfigError("stage widths and block counts must be positive")
        if self.stem_width is not None and self.stem_width < 1:
            raise ConfigError(f"stem width must be positive, got {self.stem_width}")
        if not self.bands or len(set(self.bands)) != len(self.bands):
            raise ConfigError(f"bands must be non-empty and unique, got {self.bands}")
        if self.reduction < 1:
            raise ConfigError(f"attention reduction must be >= 1, got {self.reduction}")
        if self.sharing not in SHARING_MODES:
            raise ConfigError(f"sharing must be one of {SHARING_MODES}, got {self.sharing!r}")
        if self.skip_mode not in SKIP_MODES:
            raise ConfigError(
                f"skip_mode must be one of {SKIP_MODES}, got {self.skip_mode!r}"
            )
        if self.scse_combine not in COMBINE_MODES:
            raise ConfigError(
                f"scse_combine must be one of {COMBINE_MODES}, got {self.scse_combine!r}"
            )
        if self.loss not in ad.LOSSES:
            raise ConfigError(f"loss must be one of {tuple(ad.LOSSES)}, got {self.loss!r}")
        if self.optimizer != "adam":
            raise ConfigError(f"only the adam optimizer is implemented, got {self.optimizer!r}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.learning_rate}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError(
                f"epochs={self.epochs}, batch_size={self.batch_size} out of range"
            )

    @property
    def stem(self) -> int:
        return self.stem_width if self.stem_width is not None else self.widths[0]

    @property
    def total_stride(self) -> int:
        return 2 ** (len(self.widths) - 1)


def mini_config(**overrides) -> BamCdConfig:
    """Desk-scale profile: four thin stages, one block each."""
    base = BamCdConfig(
        widths=(16, 32, 64, 128),
        blocks=(1, 1, 1, 1),
        reduction=2,
        epochs=30,
        batch_size=8,
    )
    return replace(base, **overrides) if overrides else base


def paperlike_config(**overrides) -> BamCdConfig:
    """Wide-stage profile (stem 64; stages 256..2048, blocks 3/4/23/3).

    Its parameter count is reported for comparison against the published
    figure, not gated on it; see the README for the measured number.
    """
    base = BamCdConfig(
        widths=(256, 512, 1024, 2048),
        blocks=(3, 4, 23, 3),
        stem_width=64,
        reduction=2,
        epochs=250,
        batch_size=16,
    )
    return replace(base, **overrides) if overrides else base


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
        h = ad.relu(self.bn1.forward(self.conv1.forward(x)))
        h = self.bn2.forward(self.conv2.forward(h))
        short = x if self.proj_conv is None else self.proj_bn.forward(self.proj_conv.forward(x))
        return ad.relu(ad.add(h, short))


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
        h = ad.relu(self.stem_bn.forward(self.stem_conv.forward(x)))
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
        h = ad.relu(self.bn1.forward(self.conv1.forward(x)))
        return ad.relu(self.bn2.forward(self.conv2.forward(h)))


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
        if self.config.skip_mode == "concat":
            skips = [ad.concat([a, b], axis=1) for a, b in zip(pre_feats, post_feats)]
        else:
            skips = [ad.add(a, ad.mul(b, -1.0)) for a, b in zip(pre_feats, post_feats)]
        d = skips[-1]
        for lvl, level in zip(range(len(skips) - 2, -1, -1), self.decoder):
            d = ad.concat([ad.upsample2x(d), skips[lvl]], axis=1)
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


def _stack(samples: list[BitemporalSample], config: BamCdConfig):
    x_pre = np.empty((len(samples), len(config.bands), *samples[0].pre.data.shape[1:]), np.float32)
    x_post = np.empty_like(x_pre)
    truth = np.empty((len(samples), 1, *x_pre.shape[2:]), np.float32)
    for i, s in enumerate(samples):
        _check_patch(s.pre, config, f"sample {s.event_id} pre")
        _check_patch(s.post, config, f"sample {s.event_id} post")
        if s.pre.data.shape != x_pre.shape[1:]:
            raise DataError(
                f"sample {s.event_id}: patch shape {s.pre.data.shape} != {x_pre.shape[1:]}"
            )
        x_pre[i] = s.pre.data
        x_post[i] = s.post.data
        truth[i, 0] = s.truth.labels
    return x_pre, x_post, truth


def forward(model: BamCdModel, pre: RasterPatch, post: RasterPatch) -> np.ndarray:
    """Burnt-probability map for one patch pair (inference mode)."""
    _check_patch(pre, model.config, "pre")
    _check_patch(post, model.config, "post")
    if pre.data.shape != post.data.shape:
        raise DataError(f"patch shapes disagree: {pre.data.shape} vs {post.data.shape}")
    model.eval()
    with ad.no_grad():
        probs = model.forward_batch(Tensor(pre.data[None]), Tensor(post.data[None]))
    return probs.data[0, 0]


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


def _forward_probs(model: BamCdModel, x_pre, x_post, batch_size: int) -> np.ndarray:
    """Inference over a sample stack in fixed-size batches."""
    out = np.empty((x_pre.shape[0], *x_pre.shape[2:]), np.float32)
    with ad.no_grad():
        for start in range(0, x_pre.shape[0], batch_size):
            stop = start + batch_size
            probs = model.forward_batch(Tensor(x_pre[start:stop]), Tensor(x_post[start:stop]))
            out[start:stop] = probs.data[:, 0]
    return out


def validation_f1(model: BamCdModel, x_pre, x_post, truth, batch_size: int) -> float:
    model.eval()
    probs = _forward_probs(model, x_pre, x_post, batch_size)
    prediction = (probs >= PROBABILITY_THRESHOLD).astype(np.uint8)
    counts = ConfusionCounts(0, 0, 0, 0)
    for i in range(prediction.shape[0]):
        counts = counts + accumulate(prediction[i], truth[i, 0].astype(np.uint8))
    return compute_metrics(counts).burnt.f1


def _check_finite_state(model: BamCdModel, epoch: int):
    """Raise DivergenceError naming the first parameter or batch-norm buffer
    that holds a NaN or infinity. A non-finite input can poison the weights
    and running statistics while the loss stays finite (the rectifier maps
    NaN to 0), so the loss check alone does not catch it."""
    params = ((name, p.data) for name, p in model.named_parameters())
    for name, arr in itertools.chain(params, model.named_buffers()):
        if not np.isfinite(arr).all():
            raise DivergenceError(
                f"non-finite values in {name} after an optimizer step in epoch {epoch}",
                epoch=epoch,
            )


def train(
    model: BamCdModel,
    train_samples: list[BitemporalSample],
    val_samples: list[BitemporalSample],
    config: BamCdConfig | None = None,
) -> tuple[BamCdModel, list[EpochStats]]:
    """Optimize on the train split; return the best-val-burnt-F1 checkpoint
    and the per-epoch trace."""
    config = config if config is not None else model.config
    if not train_samples:
        raise DataError("training requires a non-empty train split")
    if not val_samples:
        raise DataError("training requires a non-empty val split")
    x_pre, x_post, truth = _stack(train_samples, config)
    v_pre, v_post, v_truth = _stack(val_samples, config)
    loss_fn = _loss_fn(config)
    optimizer = nn.Adam(model.parameters(), lr=config.learning_rate)
    shuffle = rng_for(config.seed, "train/shuffle")
    n = x_pre.shape[0]
    trace: list[EpochStats] = []
    best_f1 = -1.0
    best_state = None
    for epoch in range(config.epochs):
        model.train()
        order = shuffle.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            rows = order[start : start + config.batch_size]
            probs = model.forward_batch(Tensor(x_pre[rows]), Tensor(x_post[rows]))
            loss = loss_fn(probs, truth[rows])
            if not np.isfinite(loss.data):
                raise DivergenceError(
                    f"non-finite training loss in epoch {epoch}", epoch=epoch
                )
            model.zero_grad()
            loss.backward()
            optimizer.step()
            _check_finite_state(model, epoch)
            batch_losses.append(float(loss.data))
        f1 = validation_f1(model, v_pre, v_post, v_truth, config.batch_size)
        trace.append(EpochStats(epoch, float(np.mean(batch_losses)), f1))
        if f1 > best_f1:
            best_f1 = f1
            best_state = model.state_dict()
    if best_state is not None:
        model.load_state_dict(best_state)
    return model, trace


def train_from_manifest(model, manifest, config=None):
    """Thin adapter: load the manifest's train/val splits and train."""
    from .manifest import load_split

    return train(
        model,
        load_split(manifest, "train"),
        load_split(manifest, "val"),
        config,
    )


def predict_scene(
    model: BamCdModel, pre: RasterPatch, post: RasterPatch, patch_size: int
) -> np.ndarray:
    """Tile a full scene, run forward per tile, threshold at 0.5, stitch in
    row-major order. Edge-padded to full tiles, cropped back afterwards."""
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
    rows = -(-height // patch_size)
    cols = -(-width // patch_size)
    pad_h = rows * patch_size - height
    pad_w = cols * patch_size - width
    pre_arr = np.pad(pre.data, ((0, 0), (0, pad_h), (0, pad_w)), mode="edge")
    post_arr = np.pad(post.data, ((0, 0), (0, pad_h), (0, pad_w)), mode="edge")

    tiles_pre = np.empty((rows * cols, pre.data.shape[0], patch_size, patch_size), np.float32)
    tiles_post = np.empty_like(tiles_pre)
    k = 0
    for r in range(rows):
        for c in range(cols):
            sl = (slice(None), slice(r * patch_size, (r + 1) * patch_size),
                  slice(c * patch_size, (c + 1) * patch_size))
            tiles_pre[k] = pre_arr[sl]
            tiles_post[k] = post_arr[sl]
            k += 1
    model.eval()
    probs = _forward_probs(model, tiles_pre, tiles_post, model.config.batch_size)
    binary = (probs >= PROBABILITY_THRESHOLD).astype(np.uint8)
    out = np.empty((rows * patch_size, cols * patch_size), np.uint8)
    k = 0
    for r in range(rows):
        for c in range(cols):
            out[r * patch_size : (r + 1) * patch_size, c * patch_size : (c + 1) * patch_size] = binary[k]
            k += 1
    return out[:height, :width]


# ---------------------------------------------------------------- persistence


def config_to_text(config: BamCdConfig) -> str:
    stem = "" if config.stem_width is None else str(config.stem_width)
    return (
        f"widths={','.join(str(w) for w in config.widths)}\n"
        f"blocks={','.join(str(b) for b in config.blocks)}\n"
        f"stem_width={stem}\n"
        f"bands={','.join(b.value for b in config.bands)}\n"
        f"reduction={config.reduction}\n"
        f"sharing={config.sharing}\n"
        f"skip_mode={config.skip_mode}\n"
        f"scse_combine={config.scse_combine}\n"
        f"loss={config.loss}\n"
        f"optimizer={config.optimizer}\n"
        f"learning_rate={config.learning_rate!r}\n"
        f"epochs={config.epochs}\n"
        f"batch_size={config.batch_size}\n"
        f"seed={config.seed}\n"
        f"focal_alpha={config.focal_alpha!r}\n"
        f"focal_gamma={config.focal_gamma!r}\n"
    )


def config_from_text(text: str) -> BamCdConfig:
    fields: dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line {line!r}")
        key, value = line.split("=", 1)
        fields[key.strip()] = value.strip()
    try:
        return BamCdConfig(
            widths=tuple(int(w) for w in fields["widths"].split(",")),
            blocks=tuple(int(b) for b in fields["blocks"].split(",")),
            stem_width=int(fields["stem_width"]) if fields.get("stem_width") else None,
            bands=tuple(BandId(b) for b in fields["bands"].split(",")),
            reduction=int(fields["reduction"]),
            sharing=fields["sharing"],
            skip_mode=fields["skip_mode"],
            scse_combine=fields["scse_combine"],
            loss=fields["loss"],
            optimizer=fields["optimizer"],
            learning_rate=float(fields["learning_rate"]),
            epochs=int(fields["epochs"]),
            batch_size=int(fields["batch_size"]),
            seed=int(fields["seed"]),
            focal_alpha=float(fields["focal_alpha"]),
            focal_gamma=float(fields["focal_gamma"]),
        )
    except KeyError as exc:
        raise ConfigError(f"config text missing key {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise ConfigError(f"config text has a malformed value: {exc}") from exc


def save_bamcd(path: str | Path, model: BamCdModel):
    blocks: dict[str, np.ndarray] = {
        "__meta__": text_block("kind=bamcd\n"),
        "__config__": text_block(config_to_text(model.config)),
    }
    for name, value in model.state_dict().items():
        blocks["param/" + name] = value
    save_blocks(path, blocks)


def load_bamcd(path: str | Path) -> BamCdModel:
    blocks = load_blocks(path)
    meta = dict(
        line.split("=", 1) for line in block_text(blocks["__meta__"]).splitlines() if line
    )
    if meta.get("kind") != "bamcd":
        raise DataError(f"container holds {meta.get('kind')!r}, not a bamcd checkpoint")
    model = build(config_from_text(block_text(blocks["__config__"])))
    state = {
        name[len("param/") :]: arr for name, arr in blocks.items() if name.startswith("param/")
    }
    model.load_state_dict(state)
    return model
