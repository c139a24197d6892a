"""Module/parameter bookkeeping and optimizer behavior.

The Adam check uses the constant-gradient closed form: with g ≡ c the
bias-corrected moments are exactly mhat = c and vhat = c², so every step
moves the parameter by lr·sign(c)·|c|/(|c|+eps) — an oracle independent
of the implementation's loop.
"""

import itertools

import numpy as np
import pytest

from burnmap import autodiff as ad
from burnmap import nn
from burnmap.autodiff import Tensor
from burnmap.errors import ConfigError, DivergenceError


class _Net(nn.Module):
    def __init__(self, rng):
        super().__init__()
        self.conv = nn.Conv2d(3, 4, 3, rng, padding=1)
        self.bn = nn.BatchNorm2d(4)
        self.blocks = nn.ModuleList([nn.Linear(4, 4, rng), nn.Linear(4, 2, rng)])

    def forward(self, x):
        h = ad.relu(self.bn.forward(self.conv.forward(x)))
        h = ad.reshape(ad.global_avg_pool(h), (h.data.shape[0], 4))
        for blk in self.blocks:
            h = blk.forward(h)
        return h


class TestModuleBookkeeping:
    def test_named_parameters_in_declaration_order(self):
        net = _Net(np.random.default_rng(0))
        names = [n for n, _ in net.named_parameters()]
        assert names == [
            "conv.weight",
            "bn.gamma",
            "bn.beta",
            "blocks.0.weight",
            "blocks.0.bias",
            "blocks.1.weight",
            "blocks.1.bias",
        ]

    def test_named_buffers_cover_running_stats(self):
        net = _Net(np.random.default_rng(0))
        assert [n for n, _ in net.named_buffers()] == [
            "bn.running_mean",
            "bn.running_var",
        ]

    def test_train_eval_propagates(self):
        net = _Net(np.random.default_rng(0))
        assert net.training and net.bn.training
        net.eval()
        assert not net.training and not net.bn.training and not net.blocks[0].training
        net.train()
        assert net.bn.training

    def test_state_dict_round_trip(self):
        rng = np.random.default_rng(1)
        net = _Net(rng)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32))
        net.forward(x)  # move the running stats off their init
        state = net.state_dict()

        other = _Net(np.random.default_rng(99))
        other.load_state_dict(state)
        for (_, a), (_, b) in zip(net.named_parameters(), other.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        for (_, a), (_, b) in zip(net.named_buffers(), other.named_buffers()):
            np.testing.assert_array_equal(a, b)

    def test_state_dict_is_a_snapshot(self):
        net = _Net(np.random.default_rng(2))
        state = net.state_dict()
        net.conv.weight.data += 1.0
        assert not np.array_equal(state["conv.weight"], net.conv.weight.data)

    def test_load_state_dict_rejects_mismatch(self):
        net = _Net(np.random.default_rng(3))
        state = net.state_dict()
        state.pop("bn.gamma")
        with pytest.raises(ConfigError, match="bn.gamma"):
            net.load_state_dict(state)
        bad = net.state_dict()
        bad["conv.weight"] = np.zeros((1, 1, 1, 1), dtype=np.float32)
        with pytest.raises(ConfigError, match="conv.weight"):
            net.load_state_dict(bad)

    def test_zero_grad_clears(self):
        net = _Net(np.random.default_rng(4))
        x = Tensor(np.random.default_rng(5).standard_normal((2, 3, 4, 4)).astype(np.float32))
        out = net.forward(x)
        ad.loss_dice(ad.sigmoid(out), np.zeros(out.data.shape, dtype=np.float32)).backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestLayers:
    def test_conv_he_init_scale_and_determinism(self):
        a = nn.Conv2d(8, 16, 3, np.random.default_rng(7))
        b = nn.Conv2d(8, 16, 3, np.random.default_rng(7))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)
        std = a.weight.data.std()
        expect = np.sqrt(2.0 / (8 * 9))
        assert 0.8 * expect < std < 1.2 * expect

    def test_conv_bias_optional(self):
        rng = np.random.default_rng(8)
        with_bias = nn.Conv2d(2, 3, 1, rng, bias=True)
        without = nn.Conv2d(2, 3, 1, rng)
        assert with_bias.bias is not None and without.bias is None
        assert [n for n, _ in with_bias.named_parameters()] == ["weight", "bias"]

    def test_linear_forward_matches_affine(self):
        rng = np.random.default_rng(9)
        layer = nn.Linear(4, 3, rng)
        x = rng.standard_normal((5, 4)).astype(np.float32)
        out = layer.forward(Tensor(x))
        np.testing.assert_allclose(
            out.data, x @ layer.weight.data + layer.bias.data, rtol=1e-6
        )

    def test_batchnorm_uses_module_mode(self):
        layer = nn.BatchNorm2d(2)
        x = Tensor(np.random.default_rng(10).standard_normal((4, 2, 3, 3)).astype(np.float32))
        layer.forward(x)
        assert not np.allclose(layer.running_mean, 0.0)  # train mode updated stats
        layer.eval()
        snapshot = layer.running_mean.copy()
        out1 = layer.forward(x)
        out2 = layer.forward(x)
        np.testing.assert_array_equal(out1.data, out2.data)
        np.testing.assert_array_equal(layer.running_mean, snapshot)


class TestAdam:
    def test_constant_gradient_closed_form(self):
        p = nn.Parameter(np.array([1.0, -2.0], dtype=np.float64))
        opt = nn.Adam([p], lr=0.01)
        for _ in range(25):
            p.grad = np.array([0.5, -3.0])
            opt.step()
        step = 0.01  # lr * |c| / (|c| + eps) ~= lr for eps << |c|
        np.testing.assert_allclose(p.data[0], 1.0 - 25 * step, rtol=1e-6)
        np.testing.assert_allclose(p.data[1], -2.0 + 25 * step, rtol=1e-6)

    def test_missing_gradient_raises(self):
        p = nn.Parameter(np.ones(3, dtype=np.float32))
        q = nn.Parameter(np.ones(3, dtype=np.float32))
        opt = nn.Adam([p, q], lr=0.1)
        p.grad = np.ones(3, dtype=np.float32)
        with pytest.raises(ad.ShapeError, match=r"parameter 1 \(3,\) has no gradient"):
            opt.step()

    def test_zero_grad_and_lr_validation(self):
        p = nn.Parameter(np.ones(2, dtype=np.float32))
        with pytest.raises(ConfigError):
            nn.Adam([p], lr=0.0)

    def test_float32_parameters_stay_float32(self):
        p = nn.Parameter(np.ones(2, dtype=np.float32))
        opt = nn.Adam([p], lr=0.1)
        p.grad = np.ones(2, dtype=np.float32)
        opt.step()
        assert p.data.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_update_matches_per_parameter_formula(self, dtype):
        # Mixed shapes, all updated in one pass over the flat buffer.
        rng = np.random.default_rng(12)
        shapes = [(3, 4), (4,), (2, 2), (5,), (1, 3, 2)]
        params = [nn.Parameter(rng.standard_normal(s).astype(dtype)) for s in shapes]
        ref = [p.data.copy() for p in params]
        m = [np.zeros_like(a) for a in ref]
        v = [np.zeros_like(a) for a in ref]
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = nn.Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        for t in range(1, 21):
            grads = [rng.standard_normal(s).astype(dtype) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
            for i, g in enumerate(grads):
                m[i] *= b1
                m[i] += (1.0 - b1) * g
                v[i] *= b2
                v[i] += (1.0 - b2) * (g * g)
                ref[i] = ref[i] - lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)
            for p, r in zip(params, ref):
                assert p.data.dtype == dtype and np.array_equal(p.data, r)

    def test_mixed_dtypes_rejected(self):
        p = nn.Parameter(np.ones(2, dtype=np.float32))
        q = nn.Parameter(np.ones(2, dtype=np.float64))
        with pytest.raises(ConfigError, match="mixed dtypes"):
            nn.Adam([p, q])

    def test_gradient_shape_mismatch(self):
        p = nn.Parameter(np.ones((2, 3), dtype=np.float32))
        opt = nn.Adam([p])
        p.grad = np.ones(6, dtype=np.float32)
        with pytest.raises(ad.ShapeError, match="gradient shape"):
            opt.step()

    def test_training_reduces_loss_on_toy_problem(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((64, 4)).astype(np.float32)
        y = (x[:, 0] > 0).astype(np.float32).reshape(-1, 1)
        layer = nn.Linear(4, 1, rng)
        opt = nn.Adam(layer.parameters(), lr=0.05)
        first = last = None
        for _ in range(60):
            out = ad.loss_bce(ad.sigmoid(layer.forward(Tensor(x))), y)
            if first is None:
                first = float(out.data)
            layer.zero_grad()
            out.backward()
            opt.step()
            last = float(out.data)
        assert last < 0.5 * first


class TestAdamOwnsStorage:
    def test_parameters_are_views_of_one_buffer(self):
        rng = np.random.default_rng(50)
        shapes = [(3, 4), (4,), ()]
        params = [nn.Parameter(rng.standard_normal(s).astype(np.float32)) for s in shapes]
        values = [p.data.copy() for p in params]
        opt = nn.Adam(params, lr=0.1)
        assert opt.data.size == 17
        for p, value in zip(params, values):
            assert p.data.base is opt.data and np.array_equal(p.data, value)
        arrays = [p.data for p in params]
        for _ in range(3):
            for p in params:
                p.grad = np.ones_like(p.data)
            opt.step()
        assert all(p.data is a for p, a in zip(params, arrays))
        assert not any(np.array_equal(p.data, value) for p, value in zip(params, values))

    def test_replaced_storage_raises(self):
        p = nn.Parameter(np.ones(3, dtype=np.float32))
        opt = nn.Adam([p])
        p.data = np.zeros(3, dtype=np.float32)
        p.grad = np.ones(3, dtype=np.float32)
        with pytest.raises(RuntimeError, match="replaced"):
            opt.step()

    def test_load_state_dict_keeps_the_model_bound(self):
        # Loading after the optimizer is built must leave the same steps
        # moving the model as loading before building it.
        rng = np.random.default_rng(51)
        state = nn.Linear(3, 2, rng).state_dict()
        grads = [rng.standard_normal(s).astype(np.float32) for s in [(3, 2), (2,)]]

        def trained(load_first):
            layer = nn.Linear(3, 2, np.random.default_rng(52))
            if load_first:
                layer.load_state_dict(state)
            opt = nn.Adam(layer.parameters(), lr=0.05)
            if not load_first:
                layer.load_state_dict(state)
            for _ in range(4):
                for p, g in zip(layer.parameters(), grads):
                    p.grad = g
                opt.step()
            assert all(np.shares_memory(p.data, opt.data) for p in layer.parameters())
            return layer.state_dict()

        after, before = trained(load_first=False), trained(load_first=True)
        for name in state:
            assert not np.array_equal(after[name], state[name])
            assert np.array_equal(after[name], before[name])


class TestTrainEpochs:
    def test_training_mode_shuffle_stream_and_loss_check(self):
        # Five rows in batches of 2 make three steps an epoch, the last one
        # ragged. The caller switches to eval mode after every epoch, as
        # validation does, and the eighth batch (the third epoch's second)
        # reports an infinite loss.
        layer = nn.Linear(2, 1, np.random.default_rng(40))
        optimizer = nn.Adam(layer.parameters())
        shuffle, replay = np.random.default_rng(41), np.random.default_rng(41)
        seen, backward_calls = [], []

        def batch(rows):
            seen.append((layer.training, rows.tolist()))
            step = len(seen)

            def backward():
                backward_calls.append(step)
                for p in layer.parameters():
                    p.grad = np.ones_like(p.data)

            return (np.inf if step == 8 else float(step)), backward

        epochs = nn.train_epochs(layer, optimizer, 5, 2, 4, shuffle, batch)
        for k, (epoch, mean_loss) in enumerate(itertools.islice(epochs, 2), 1):
            order = replay.permutation(5).tolist()
            assert epoch == k - 1
            assert seen[-3:] == [(True, order[:2]), (True, order[2:4]), (True, order[4:])]
            assert mean_loss == float(np.mean([3 * k - 2, 3 * k - 1, 3 * k]))
            assert shuffle.bit_generator.state == replay.bit_generator.state
            layer.eval()
        with pytest.raises(DivergenceError, match="non-finite training loss in epoch 2") as err:
            next(epochs)
        assert err.value.epoch == 2
        assert [training for training, _ in seen] == [True] * 8
        assert backward_calls == list(range(1, 8))
        assert optimizer.t == 7
        replay.permutation(5)
        assert shuffle.bit_generator.state == replay.bit_generator.state
