"""Tests for the bitemporal change-detection network."""

import dataclasses
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from burnmap import autodiff as ad
from burnmap import bamcd, nn
from burnmap.autodiff import Tensor, loss_bce
from burnmap.bamcd import (
    CONFIG_FIELDS,
    BamCdConfig,
    build,
    config_from_text,
    config_to_text,
    forward,
    mini_config,
    paperlike_config,
    parameter_count,
    predict_scene,
    train,
    trace_to_text,
)
from burnmap.errors import ConfigError, DataError, DivergenceError
from burnmap.metrics import ConfusionCounts, accumulate, compute_metrics
from burnmap.rasters import ALL_BANDS, BandId, BitemporalSample, GroundTruthMask, RasterPatch
from burnmap.seeding import rng_for

# ------------------------------------------------------------------ oracle
# Closed-form trainable-parameter count, derived layer by layer from the
# architecture description independently of the implementation:
#   conv k x k: c_out * c_in * k^2 (+ c_out with bias)
#   batch norm: 2 * c (scale and shift; running stats are not trainable)
#   linear:     c_in * c_out + c_out


def conv_count(c_in, c_out, k, bias=False):
    return c_out * c_in * k * k + (c_out if bias else 0)


def bn_count(c):
    return 2 * c


def linear_count(c_in, c_out):
    return c_in * c_out + c_out


def resblock_count(c_in, width, projected):
    n = conv_count(c_in, width, 3) + bn_count(width)
    n += conv_count(width, width, 3) + bn_count(width)
    if projected:
        n += conv_count(c_in, width, 1) + bn_count(width)
    return n


def encoder_count(config):
    n = conv_count(len(config.bands), config.stem, 3) + bn_count(config.stem)
    c_in = config.stem
    for s, (width, depth) in enumerate(zip(config.widths, config.blocks)):
        for b in range(depth):
            strided = s > 0 and b == 0
            n += resblock_count(c_in, width, projected=(strided or c_in != width))
            c_in = width
    return n


def scse_count(width, reduction):
    squeezed = max(1, width // reduction)
    n = linear_count(width, squeezed) + linear_count(squeezed, width)
    n += conv_count(width, 1, 1, bias=True)
    return n


def decoder_count(config):
    w = config.widths
    fused = 2 if config.skip_mode == "concat" else 1
    n = 0
    for lvl in range(len(w) - 2, -1, -1):
        above = fused * w[-1] if lvl == len(w) - 2 else w[lvl + 1]
        c_in = above + fused * w[lvl]
        n += conv_count(c_in, w[lvl], 3) + bn_count(w[lvl])
        n += conv_count(w[lvl], w[lvl], 3) + bn_count(w[lvl])
        n += scse_count(w[lvl], config.reduction)
    return n


def expected_count(config):
    encoders = 2 if config.sharing == "pseudo_siamese" else 1
    head = conv_count(config.widths[0], 1, 1, bias=True)
    return encoders * encoder_count(config) + decoder_count(config) + head


# ------------------------------------------------------------------ fixtures

TINY = BamCdConfig(
    widths=(4, 8),
    blocks=(1, 1),
    reduction=2,
    loss="bce",
    epochs=4,
    batch_size=4,
    seed=11,
)

def make_samples(n, seed, side=16, bands=ALL_BANDS, burn="half"):
    """Patch pairs where the burnt region drops B8A and lifts B12 after the
    event — a purely spectral signature a small network can learn."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        pre = rng.uniform(0.05, 0.45, (len(bands), side, side)).astype(np.float32)
        post = pre + rng.normal(0.0, 0.01, pre.shape).astype(np.float32)
        mask = np.zeros((side, side), np.uint8)
        if burn == "half":
            split = side // 2 + int(rng.integers(-2, 3))
            if rng.integers(2):
                mask[:, :split] = 1
            else:
                mask[:split, :] = 1
        if "B12" in bands:
            post[bands.index("B12")][mask == 1] += 0.55
        if "B8A" in bands:
            post[bands.index("B8A")][mask == 1] -= 0.35
        samples.append(
            BitemporalSample(
                pre=RasterPatch(bands, pre),
                post=RasterPatch(bands, np.clip(post, 0.0, 1.2)),
                truth=GroundTruthMask(mask),
                event_id=f"ev{i:03d}",
            )
        )
    return samples


def modules(module):
    """``module`` and every module below it."""
    yield module
    for child in module._children.values():
        yield from modules(child)


def stack(samples):
    x_pre = np.stack([s.pre.data for s in samples])
    x_post = np.stack([s.post.data for s in samples])
    truth = np.stack([s.truth.labels for s in samples])[:, None].astype(np.float32)
    return x_pre, x_post, truth


class TestConfig:
    def test_presets_construct(self):
        mini = mini_config()
        assert mini.widths == (16, 32, 64, 128)
        assert mini.total_stride == 8
        assert mini.stem == 16
        paper = paperlike_config()
        assert paper.stem == 64
        assert paper.blocks == (3, 4, 23, 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="equal length"):
            BamCdConfig(widths=(16, 32, 64), blocks=(1, 1))

    def test_single_stage_rejected(self):
        with pytest.raises(ConfigError, match="equal length"):
            BamCdConfig(widths=(16,), blocks=(1,))

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError, match="sharing"):
            BamCdConfig(sharing="shared")
        with pytest.raises(ConfigError, match="loss"):
            BamCdConfig(loss="hinge")
        with pytest.raises(ConfigError, match="scse_combine"):
            BamCdConfig(scse_combine="mean")
        with pytest.raises(ConfigError, match="positive"):
            BamCdConfig(widths=(0, 8), blocks=(1, 1))
        with pytest.raises(ConfigError, match="learning_rate"):
            BamCdConfig(learning_rate=0.0)
        with pytest.raises(ConfigError, match="learning_rate"):
            BamCdConfig(learning_rate=float("nan"))
        with pytest.raises(ConfigError, match="reduction"):
            BamCdConfig(reduction=0)

    def test_config_text_round_trip(self):
        for cfg in (
            mini_config(),
            paperlike_config(),
            TINY,
            mini_config(loss="focal", focal_alpha=0.7, scse_combine="add", seed=9),
        ):
            assert config_from_text(config_to_text(cfg)) == cfg
        assert list(CONFIG_FIELDS) == [f.name for f in dataclasses.fields(BamCdConfig)]

    def test_config_text_rejects_garbage(self):
        with pytest.raises(ConfigError, match="missing required key 'blocks'"):
            config_from_text("widths=4,8\n")
        with pytest.raises(ConfigError, match="line 1: expected key=value"):
            config_from_text("no equals sign here")
        with pytest.raises(ConfigError, match="'epochs'"):
            config_from_text(config_to_text(mini_config()).replace("epochs=30", "epochs=x"))


class TestConfigFieldRanges:
    # One out-of-range value per field; the field table's reader refuses it.
    BAD = {
        "widths": (16, 0, 64, 128),
        "blocks": (1, 1, 0, 1),
        "stem_width": 0,
        "bands": (BandId.B04, BandId.B04),
        "reduction": 0,
        "sharing": "shared",
        "skip_mode": "sum",
        "scse_combine": "mean",
        "loss": "hinge",
        "learning_rate": float("inf"),
        "epochs": -1,
        "batch_size": 0,
        "seed": -1,
        "focal_alpha": 1.5,
        "focal_gamma": 0.0,
    }

    def test_every_field_has_a_bad_value(self):
        assert list(self.BAD) == [f.name for f in dataclasses.fields(BamCdConfig)]

    @pytest.mark.parametrize("key", list(BAD))
    def test_out_of_range_field_names_its_key(self, key):
        with pytest.raises(ConfigError, match=f"config key '{key}': expected"):
            replace(mini_config(), **{key: self.BAD[key]})

    @pytest.mark.parametrize("key, value", [("focal_alpha", 0.9), ("focal_gamma", 4.0)])
    def test_focal_keys_need_the_focal_loss(self, key, value):
        """Under another loss a focal value would change nothing but the checkpoint text."""
        with pytest.raises(ConfigError, match=f"config key '{key}': only loss=focal"):
            mini_config(**{key: value})
        assert getattr(mini_config(loss="focal", **{key: value}), key) == value

    def test_checkpoint_text_with_optimizer_line_still_reads(self):
        """Checkpoints written while the config had an optimizer field (always adam)."""
        text = config_to_text(TINY).replace("learning_rate=", "optimizer=adam\nlearning_rate=")
        assert "optimizer=adam" in text
        assert config_from_text(text) == TINY


class TestParameterCount:
    def test_mini_matches_closed_form(self):
        config = mini_config()
        assert parameter_count(build(config)) == expected_count(config)

    def test_nine_band_variant_matches(self):
        config = mini_config(bands=ALL_BANDS[:9])
        assert parameter_count(build(config)) == expected_count(config)

    def test_tiny_matches(self):
        assert parameter_count(build(TINY)) == expected_count(TINY)

    def test_pseudo_siamese_adds_one_encoder(self):
        shared = mini_config()
        split = mini_config(sharing="pseudo_siamese")
        delta = parameter_count(build(split)) - parameter_count(build(shared))
        assert delta == encoder_count(shared)

    def test_paperlike_count_formula(self):
        # Too large to instantiate here; the closed form documents the
        # number reported in the README.
        n = expected_count(paperlike_config())
        assert n > 100_000_000


class TestForwardShapes:
    def test_mini_on_nine_band_patch(self):
        config = mini_config(bands=ALL_BANDS[:9], seed=3)
        model = build(config)
        sample = make_samples(1, 5, side=64, bands=ALL_BANDS[:9])[0]
        probs = forward(model, sample.pre, sample.post)
        assert probs.shape == (64, 64)
        assert probs.dtype == np.float32
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)

    def test_batch_output_shape(self):
        model = build(TINY)
        x_pre, x_post, _ = stack(make_samples(3, 7))
        out = model.forward_batch(Tensor(x_pre), Tensor(x_post))
        assert out.data.shape == (3, 1, 16, 16)

    def test_shape_invariance_across_sizes(self):
        config = mini_config(seed=2)
        model = build(config)
        for side in (32, 48):
            s = make_samples(1, side, side=side)[0]
            assert forward(model, s.pre, s.post).shape == (side, side)

    def test_rectangular_input(self):
        model = build(TINY)
        rng = np.random.default_rng(0)
        pre = RasterPatch(ALL_BANDS, rng.uniform(0, 1, (10, 16, 32)).astype(np.float32))
        post = RasterPatch(ALL_BANDS, rng.uniform(0, 1, (10, 16, 32)).astype(np.float32))
        assert forward(model, pre, post).shape == (16, 32)

    def test_indivisible_size_rejected(self):
        model = build(mini_config())
        s = make_samples(1, 1, side=20)[0]
        with pytest.raises(DataError, match="not divisible"):
            forward(model, s.pre, s.post)

    def test_band_mismatch_rejected(self):
        model = build(mini_config())  # expects all ten bands
        s = make_samples(1, 1, side=16, bands=ALL_BANDS[:9])[0]
        with pytest.raises(DataError, match="bands"):
            forward(model, s.pre, s.post)

    def test_eval_forward_repeatable(self):
        model = build(TINY)
        s = make_samples(1, 9)[0]
        first = forward(model, s.pre, s.post)
        second = forward(model, s.pre, s.post)
        assert np.array_equal(first, second)


class TestSiameseSharing:
    def test_single_parameter_set(self):
        names = [n for n, _ in build(mini_config()).named_parameters()]
        assert not any(n.startswith("encoder_post") for n in names)
        assert len(names) == len(set(names))

    def test_shared_encoder_sees_both_streams(self):
        """With identical weights, tied and untied encoders agree on the
        forward pass, and the tied encoder's gradient is the sum of the two
        untied streams' gradients."""
        shared = build(TINY)
        untied = build(replace(TINY, sharing="pseudo_siamese"))
        state = {}
        for name, arr in shared.state_dict().items():
            state[name] = arr
            if name.startswith("encoder."):
                state["encoder_post." + name[len("encoder.") :]] = arr.copy()
        untied.load_state_dict(state)

        x_pre, x_post, truth = stack(make_samples(2, 13))
        shared.eval()
        untied.eval()
        out_s = shared.forward_batch(Tensor(x_pre), Tensor(x_post))
        out_u = untied.forward_batch(Tensor(x_pre), Tensor(x_post))
        assert np.array_equal(out_s.data, out_u.data)

        loss_bce(out_s, truth).backward()
        loss_bce(out_u, truth).backward()
        g_shared = shared.encoder.stem_conv.weight.grad
        g_pre = untied.encoder.stem_conv.weight.grad
        g_post = untied.encoder_post.stem_conv.weight.grad
        np.testing.assert_allclose(g_shared, g_pre + g_post, rtol=1e-5, atol=1e-8)


class TestSkipModes:
    def test_diff_narrows_decoder_and_matches_count(self):
        wide = build(TINY)
        narrow = build(replace(TINY, skip_mode="diff"))
        assert parameter_count(narrow) == expected_count(replace(TINY, skip_mode="diff"))
        assert parameter_count(narrow) < parameter_count(wide)
        # decoder level 0 consumes (w1 + w0) channels instead of (2*w1 + 2*w0)
        assert narrow.decoder[0].block.conv1.weight.data.shape[1] == 8 + 4
        assert wide.decoder[0].block.conv1.weight.data.shape[1] == 2 * 8 + 2 * 4

    def test_diff_forward_shape_and_identical_epochs(self):
        model = build(replace(TINY, skip_mode="diff"))
        model.eval()
        x_pre, x_post, _ = stack(make_samples(2, 21))
        out = model.forward_batch(Tensor(x_pre), Tensor(x_post))
        assert out.data.shape == (2, 1, 16, 16)
        # identical epochs difference to zero feature maps everywhere, so the
        # probability map must be constant across pixels and samples
        same = model.forward_batch(Tensor(x_pre), Tensor(x_pre))
        assert np.ptp(same.data) < 1e-6

    def test_diff_trains(self):
        samples = make_samples(6, 22)
        cfg = replace(TINY, skip_mode="diff", epochs=2)
        _, trace = train(build(cfg), samples[:4], samples[4:])
        assert len(trace) == 2
        assert all(np.isfinite(t.train_loss) for t in trace)

    def test_bad_skip_mode_rejected(self):
        with pytest.raises(ConfigError, match="skip_mode"):
            replace(TINY, skip_mode="subtract")


class TestScse:
    def _open_gates(self, scse):
        """Pin both gates at exactly 1.0 (float32 sigmoid saturates)."""
        scse.fc2.weight.data[:] = 0.0
        scse.fc2.bias.data[:] = 100.0
        scse.spatial.weight.data[:] = 0.0
        scse.spatial.bias.data[:] = 100.0

    def test_identity_pass_through(self):
        scse = bamcd.SCSE(8, 2, "max", rng_for(0, "t"))
        self._open_gates(scse)
        x = np.random.default_rng(1).normal(size=(2, 8, 4, 4)).astype(np.float32)
        out = scse.forward(Tensor(x))
        assert np.array_equal(out.data, x)

    def test_add_combine_doubles(self):
        scse = bamcd.SCSE(8, 2, "add", rng_for(0, "t"))
        self._open_gates(scse)
        x = np.random.default_rng(2).normal(size=(1, 8, 4, 4)).astype(np.float32)
        out = scse.forward(Tensor(x))
        np.testing.assert_allclose(out.data, 2.0 * x, rtol=1e-6)

    def test_half_open_channel_gate(self):
        scse = bamcd.SCSE(8, 2, "max", rng_for(0, "t"))
        scse.fc2.weight.data[:] = 0.0
        scse.fc2.bias.data[:] = 0.0  # sigmoid(0) = 0.5
        scse.spatial.weight.data[:] = 0.0
        scse.spatial.bias.data[:] = -100.0  # spatial gate 0
        x = np.random.default_rng(3).uniform(0.1, 1.0, (1, 8, 4, 4)).astype(np.float32)
        out = scse.forward(Tensor(x))
        np.testing.assert_allclose(out.data, 0.5 * x, rtol=1e-6)


class TestTraining:
    def test_zero_epochs_is_identity(self):
        model = build(replace(TINY, epochs=0))
        before = model.state_dict()
        _, trace = train(model, make_samples(4, 21), make_samples(2, 22))
        assert trace == []
        after = model.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_trace_deterministic(self):
        samples_t, samples_v = make_samples(6, 31), make_samples(2, 32)
        runs = []
        for _ in range(2):
            model = build(TINY)
            _, trace = train(model, samples_t, samples_v)
            runs.append((trace, model.state_dict()))
        assert runs[0][0] == runs[1][0]
        assert all(np.array_equal(runs[0][1][k], runs[1][1][k]) for k in runs[0][1])

    def test_seed_changes_trace(self):
        samples_t, samples_v = make_samples(6, 31), make_samples(2, 32)
        _, trace_a = train(build(TINY), samples_t, samples_v)
        _, trace_b = train(build(replace(TINY, seed=12)), samples_t, samples_v)
        assert trace_a != trace_b

    def test_bce_training_loss_matches_engine(self):
        """First-epoch single-batch training loss equals loss_bce applied to
        the same shuffled batch, bit for bit."""
        samples_t, samples_v = make_samples(4, 41), make_samples(2, 42)
        config = replace(TINY, epochs=1, batch_size=4, loss="bce")
        _, trace = train(build(config), samples_t, samples_v)

        replica = build(config)
        replica.train()
        order = rng_for(config.seed, "train/shuffle").permutation(4)
        x_pre, x_post, truth = stack(samples_t)
        probs = replica.forward_batch(Tensor(x_pre[order]), Tensor(x_post[order]))
        expected = float(loss_bce(probs, truth[order]).data)
        assert trace[0].train_loss == expected

    def test_gradient_reaches_every_parameter(self):
        model = build(replace(TINY, loss="bce_dice"))
        x_pre, x_post, truth = stack(make_samples(4, 51))
        model.train()
        out = model.forward_batch(Tensor(x_pre), Tensor(x_post))
        ad.loss_bce_dice(out, truth).backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, name
            assert np.linalg.norm(p.grad) > 0.0, name

    def test_backward_leaves_no_gradient_on_op_outputs(self):
        model = build(TINY)
        x_pre, x_post, truth = stack(make_samples(4, 52))
        model.train()
        loss = ad.loss_bce(model.forward_batch(Tensor(x_pre), Tensor(x_post)), truth)
        graph, todo = {id(loss): loss}, [loss]
        while todo:
            for parent in todo.pop()._parents:
                if id(parent) not in graph:
                    graph[id(parent)] = parent
                    todo.append(parent)
        ops = [t for t in graph.values() if t._backward is not None]
        layers = [m for m in modules(model) if isinstance(m, (nn.Conv2d, nn.BatchNorm2d))]
        assert len(ops) >= len(layers) > 0
        loss.backward()
        assert all(t.grad is None and t._parents == () for t in ops)
        assert all(p.grad is not None for p in model.parameters())
        with pytest.raises(RuntimeError, match="already walked"):
            loss.backward()

    def test_no_rectifier_or_add_node_follows_a_batch_norm(self, monkeypatch):
        """Batch norm fuses the shortcut add and the rectifier that follow
        it, so no separate relu or add node takes a batch-norm output."""
        batchnorm, relu, add = ad.batchnorm, ad.relu, ad.add
        normalized, consumed = [], []

        def recording_batchnorm(*args, **kwargs):
            normalized.append(batchnorm(*args, **kwargs))
            return normalized[-1]

        def recording_relu(x):
            consumed.append(x)
            return relu(x)

        def recording_add(a, b):
            consumed.extend((a, b))
            return add(a, b)

        monkeypatch.setattr(ad, "batchnorm", recording_batchnorm)
        monkeypatch.setattr(ad, "relu", recording_relu)
        monkeypatch.setattr(ad, "add", recording_add)
        model = build(mini_config())
        x_pre, x_post, truth = stack(make_samples(2, 53))
        model.train()
        ad.loss_bce_dice(model.forward_batch(Tensor(x_pre), Tensor(x_post)), truth)
        assert len(normalized) == 30 and consumed  # the scSE gates still rectify
        assert not any(t is bn for t in consumed for bn in normalized)

    def test_learns_spectral_signature(self):
        config = replace(TINY, epochs=20, loss="bce_dice", seed=5, learning_rate=0.01)
        model = build(config)
        val = make_samples(3, 62)
        _, trace = train(model, make_samples(8, 61), val)
        assert max(t.val_f1_burnt for t in trace) >= 0.80

        # swapping acquisition order must change the prediction
        s = val[0]
        straight = forward(model, s.pre, s.post)
        swapped = forward(model, s.post, s.pre)
        assert not np.array_equal(straight, swapped)

    def test_best_checkpoint_returned(self):
        config = replace(TINY, epochs=6, seed=3)
        model = build(config)
        val = make_samples(2, 72)
        model, trace = train(model, make_samples(6, 71), val)
        v_pre, v_post, v_truth = stack(val)
        refit = bamcd.validation_f1(model, v_pre, v_post, v_truth)
        assert refit == max(t.val_f1_burnt for t in trace)

    def test_divergence_raises_with_epoch(self):
        model = build(TINY)
        model.head.weight.data[:] = np.nan
        with pytest.raises(DivergenceError, match="epoch 0") as info:
            train(model, make_samples(4, 81), make_samples(2, 82))
        assert info.value.epoch == 0

    def test_nan_input_pixel_raises_divergence(self):
        """One NaN pixel poisons the stem conv and batch-norm state while the
        loss stays finite; the state check after the step must catch it."""
        samples = make_samples(4, 83)
        samples[1].pre.data[2, 5, 7] = np.nan
        config = replace(TINY, epochs=1)
        with pytest.raises(
            DivergenceError, match=r"encoder\.stem_conv\.weight .*epoch 0"
        ) as info:
            train(build(config), samples, make_samples(2, 84))
        assert info.value.epoch == 0

    def test_nan_running_variance_raises_divergence(self):
        """Training-mode forwards never read the running statistics, so a NaN
        running variance leaves every parameter finite; the per-step check
        must read the batch-norm buffers as well as the optimizer's."""
        model = build(replace(TINY, epochs=1))
        buffers = dict(model.named_buffers())
        buffers["decoder.0.block.bn1.running_var"][1] = np.nan
        with pytest.raises(
            DivergenceError, match=r"decoder\.0\.block\.bn1\.running_var .*epoch 0"
        ) as info:
            train(model, make_samples(4, 85), make_samples(2, 86))
        assert info.value.epoch == 0
        assert all(np.isfinite(p.data).all() for p in model.parameters())

    def test_empty_split_rejected(self):
        model = build(TINY)
        with pytest.raises(DataError, match="train split"):
            train(model, [], make_samples(2, 82))
        with pytest.raises(DataError, match="val split"):
            train(model, make_samples(2, 81), [])

    def test_trace_text_layout(self):
        trace = [
            bamcd.EpochStats(0, 0.75, 0.5),
            bamcd.EpochStats(1, 0.5, 0.625),
        ]
        text = trace_to_text(trace)
        lines = text.splitlines()
        assert lines[0] == "epoch,train_loss,val_f1_burnt"
        assert lines[1] == "0,0.75,0.5"
        assert len(lines) == 3 and text.endswith("\n")


class TestPredictScene:
    def test_single_tile_equals_forward(self):
        model = build(TINY)
        s = make_samples(1, 91, side=16)[0]
        scene = predict_scene(model, s.pre, s.post, patch_size=16)
        oracle = (forward(model, s.pre, s.post) >= 0.5).astype(np.uint8)
        assert np.array_equal(scene, oracle)

    def test_stitching_matches_per_tile_oracle(self):
        model = build(TINY)
        # spread the logits so no pixel sits within float noise of the
        # decision threshold (tile batching may differ from the per-tile
        # oracle at ulp level)
        model.head.weight.data *= 20.0
        model.head.bias.data[:] = -1.0
        rng = np.random.default_rng(17)
        shape = (10, 19, 29)  # a 3x4 tile grid: rows and columns differ
        pre = RasterPatch(ALL_BANDS, rng.uniform(0.05, 0.5, shape).astype(np.float32))
        post = RasterPatch(ALL_BANDS, rng.uniform(0.05, 0.5, shape).astype(np.float32))
        patch = 8
        got = predict_scene(model, pre, post, patch_size=patch)
        assert got.shape == (19, 29)
        assert got.dtype == np.uint8

        pre_pad = np.pad(pre.data, ((0, 0), (0, 24 - 19), (0, 32 - 29)), mode="edge")
        post_pad = np.pad(post.data, ((0, 0), (0, 24 - 19), (0, 32 - 29)), mode="edge")
        expected = np.empty((24, 32), np.uint8)
        margin = 1.0
        for r in range(3):
            for c in range(4):
                sl = (slice(None), slice(r * patch, (r + 1) * patch),
                      slice(c * patch, (c + 1) * patch))
                probs = forward(
                    model,
                    RasterPatch(ALL_BANDS, pre_pad[sl]),
                    RasterPatch(ALL_BANDS, post_pad[sl]),
                )
                margin = min(margin, float(np.abs(probs - 0.5).min()))
                expected[sl[1], sl[2]] = (probs >= 0.5).astype(np.uint8)
        assert margin > 1e-4  # guard: comparison below is ulp-safe
        assert np.array_equal(got, expected[:19, :29])

    def test_peak_memory_does_not_grow_with_the_scene(self):
        """Tiles are cut batch by batch, so beyond the uint8 mask the traced
        peak is the same for a one-batch scene and a 10x9-tile scene whose
        sides are not multiples of the tile; an edge-padded copy of the
        scene would add about three scene-sized float32 dates."""
        model = build(TINY)
        rng = np.random.default_rng(19)

        def scene(height, width):
            shape = (len(ALL_BANDS), height, width)
            return [RasterPatch(ALL_BANDS, rng.uniform(0.05, 0.5, shape).astype(np.float32))
                    for _ in range(2)]

        def peak_beyond_mask(pre, post):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                mask = predict_scene(model, pre, post, patch_size=16)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            return peak - mask.nbytes

        small, large = scene(32, 32), scene(150, 140)
        predict_scene(model, *small, patch_size=16)  # warm caches outside the trace
        growth = peak_beyond_mask(*large) - peak_beyond_mask(*small)
        assert growth < (large[0].data.nbytes - small[0].data.nbytes) / 4

    def test_scene_smaller_than_patch_rejected(self):
        model = build(TINY)
        s = make_samples(1, 93, side=16)[0]
        with pytest.raises(DataError, match="smaller than patch size"):
            predict_scene(model, s.pre, s.post, patch_size=32)

    def test_patch_size_must_fit_stride(self):
        model = build(mini_config())  # stride 8
        s = make_samples(1, 94, side=64)[0]
        with pytest.raises(DataError, match="not divisible"):
            predict_scene(model, s.pre, s.post, patch_size=12)


class TestScoring:
    def test_stack_metrics_match_per_patch_forward(self):
        """Batched pooled scoring (validation and the test split) equals
        thresholding one bamcd.forward map per patch and adding the counts."""
        model = build(TINY)
        # spread the logits as in the stitching test, so that batching may
        # differ from the per-patch reference only far from the threshold
        model.head.weight.data *= 20.0
        model.head.bias.data[:] = -1.0
        samples = make_samples(6, 98)  # batches of 4 and 2
        counts, margin = ConfusionCounts(), 1.0
        for s in samples:
            probs = forward(model, s.pre, s.post)
            margin = min(margin, float(np.abs(probs - 0.5).min()))
            counts = counts + accumulate(probs >= 0.5, s.truth.labels)
        assert margin > 1e-4
        assert 0 < counts.tp and 0 < counts.tn  # both classes predicted
        x_pre, x_post, truth = bamcd.stack_samples(samples, TINY)
        report = bamcd.stack_metrics(model, x_pre, x_post, truth)
        assert report == compute_metrics(counts)

    def test_inference_runs_in_eval_mode_whatever_the_model_mode(self):
        """forward, stack_metrics and predict_scene give a model left in
        training mode the maps it gives in eval mode, and leave its
        batch-norm running statistics where they were."""
        model = build(replace(TINY, epochs=2))
        train(model, make_samples(4, 99), make_samples(2, 100))  # statistics off their init
        samples = make_samples(6, 101)
        x_pre, x_post, truth = bamcd.stack_samples(samples, TINY)

        def scene(x):  # tiles 0-2 over tiles 3-5: 32x48, two batches of four and two
            rows = [np.concatenate(list(x[i:i + 3]), axis=2) for i in (0, 3)]
            return RasterPatch(ALL_BANDS, np.concatenate(rows, axis=1))

        scene_pre, scene_post = scene(x_pre), scene(x_post)
        s = samples[0]

        def outputs():
            return (
                forward(model, s.pre, s.post),
                bamcd.stack_metrics(model, x_pre, x_post, truth),
                predict_scene(model, scene_pre, scene_post, patch_size=16),
            )

        statistics = {name: b.copy() for name, b in model.named_buffers()}
        model.eval()
        want_map, want_report, want_mask = outputs()
        for _ in range(2):
            model.train()
            got_map, got_report, got_mask = outputs()
            assert np.array_equal(got_map, want_map)
            assert got_report == want_report
            assert np.array_equal(got_mask, want_mask)
        assert all(np.array_equal(b, statistics[name]) for name, b in model.named_buffers())


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = build(TINY)
        # move away from the fresh-init state so the test is not vacuous
        train(model, make_samples(4, 95), make_samples(2, 96))
        path = tmp_path / "model.npb"
        bamcd.save_bamcd(path, model)
        back = bamcd.load_bamcd(path)
        assert back.config == model.config
        old, new = model.state_dict(), back.state_dict()
        assert set(old) == set(new)
        assert all(np.array_equal(old[k], new[k]) for k in old)
        s = make_samples(1, 97)[0]
        assert np.array_equal(forward(model, s.pre, s.post), forward(back, s.pre, s.post))

    def test_wrong_container_kind_rejected(self, tmp_path):
        from burnmap.modelio import save_blocks, text_block

        path = tmp_path / "other.npb"
        save_blocks(path, {"__meta__": text_block("kind=mlp\n")})
        with pytest.raises(DataError, match="'mlp' model, not 'bamcd'"):
            bamcd.load_bamcd(path)
