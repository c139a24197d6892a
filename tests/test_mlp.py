"""Perceptron classifier: hand-computed forwards, training behavior,
layer-wise gradient checks against finite differences."""

import numpy as np
import pytest
from cluster_data import separable_clusters
from grad_check import numeric_grad, relative_error

from burnmap import autodiff as ad
from burnmap import nn
from burnmap.autodiff import Tensor
from burnmap.errors import ConfigError, DataError, DivergenceError, FitError, FormatError
from burnmap.metrics import accumulate, compute_metrics
from burnmap.mlp import _batch_gradients, build_mlp, load_mlp, mlp_fit, mlp_predict, save_mlp


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


class TestForward:
    def test_hand_computed_2_2_1_network(self):
        model = build_mlp(2, widths=(2, 2, 1), seed=0)
        model.layers[0].weight.data = np.array([[1.0, -1.0], [0.5, 2.0]], dtype=np.float32)
        model.layers[0].bias.data = np.array([0.0, -1.0], dtype=np.float32)
        model.layers[1].weight.data = np.array([[1.0], [-2.0]], dtype=np.float32)
        model.layers[1].bias.data = np.array([0.5], dtype=np.float32)
        # x = [1, 2]: hidden = relu([1*1+2*0.5, 1*-1+2*2] + [0,-1]) = [2, 2]
        # out = sigmoid(2*1 + 2*-2 + 0.5) = sigmoid(-1.5)
        out = mlp_predict(model, np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(out, [_sigmoid(-1.5)], rtol=1e-6)

    def test_zero_parameters_give_half(self):
        model = build_mlp(3, widths=(3, 4, 1), seed=1)
        for p in model.layers.parameters():
            p.data = np.zeros_like(p.data)
        assert mlp_predict(model, np.zeros((1, 3))).tolist() == [0.5]

    def test_large_positive_bias_saturates_to_one(self):
        model = build_mlp(2, widths=(2, 2, 1), seed=2)
        model.layers[1].bias.data = np.array([50.0], dtype=np.float32)
        out = mlp_predict(model, np.array([[0.0, 0.0]]))
        assert out.shape == (1,) and out[0] > 0.999999

    def test_output_is_probability(self):
        model = build_mlp(4, seed=3)
        rng = np.random.default_rng(4)
        out = mlp_predict(model, rng.standard_normal((20, 4)))
        assert out.shape == (20,)
        assert np.all((out > 0) & (out < 1))

    def test_dimension_mismatch(self):
        model = build_mlp(4, seed=5)
        with pytest.raises(DataError, match="dimensionality"):
            mlp_predict(model, np.zeros((1, 3)))
        with pytest.raises(DataError, match=r"shape \(4,\)"):  # one row is still (1, d)
            mlp_predict(model, np.zeros(4))

    def test_prediction_invariant_to_call_order(self):
        model = build_mlp(2, seed=6)
        probes = np.random.default_rng(7).standard_normal((30, 2))
        batch = mlp_predict(model, probes)
        np.testing.assert_array_equal(batch, mlp_predict(model, probes[::-1])[::-1])


class TestTraining:
    def test_separable_benchmark_f1(self):
        x, y = separable_clusters(seed=10, n=400)
        xt, yt = separable_clusters(seed=11, n=200)
        model = mlp_fit(x, y, seed=12, epochs=40)
        pred = (mlp_predict(model, xt) >= 0.5).astype(np.uint8)
        report = compute_metrics(accumulate(pred.reshape(1, -1), yt.reshape(1, -1)))
        assert report.burnt.f1 >= 0.95

    def test_loss_trace_decreases_on_benchmark(self):
        x, y = separable_clusters(seed=13, n=400)
        model = mlp_fit(x, y, seed=14, epochs=30)
        trace = model.loss_trace
        assert len(trace) == 30
        # Mini-batch noise allows small per-epoch rises; the envelope and the
        # endpoint must both fall.
        assert all(trace[i + 1] <= trace[i] + 0.02 for i in range(len(trace) - 1))
        assert trace[-1] < 0.5 * trace[0]

    def test_zero_epochs_returns_initialization(self):
        x, y = separable_clusters(seed=15, n=100)
        fitted = mlp_fit(x, y, seed=16, epochs=0)
        fresh = build_mlp(2, seed=16)
        # same init weights; only the input standardization is fitted
        probes = np.random.default_rng(17).standard_normal((25, 2)).astype(np.float32)
        np.testing.assert_array_equal(
            mlp_predict(fitted, probes), mlp_predict(fresh, fitted.normalize(probes))
        )
        assert fitted.loss_trace == []

    def test_determinism(self):
        x, y = separable_clusters(seed=18, n=200)
        a = mlp_fit(x, y, seed=19, epochs=5)
        b = mlp_fit(x, y, seed=19, epochs=5)
        assert a.loss_trace == b.loss_trace
        probes = np.random.default_rng(20).standard_normal((10, 2))
        np.testing.assert_array_equal(mlp_predict(a, probes), mlp_predict(b, probes))

    def test_divergence_names_the_epoch(self):
        # An absurd learning rate blows the float32 weights up to ~1e30 after
        # the first step; the next batch's hidden layer overflows and mixed
        # signs produce inf - inf = NaN in the logit, which must abort with
        # the epoch index.
        rng = np.random.default_rng(24)
        x = rng.standard_normal((64, 4)).astype(np.float32)
        y = (rng.uniform(size=64) < 0.5).astype(np.uint8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="epoch 0") as err:
                mlp_fit(
                    x, y, seed=25, widths=(4, 8, 1), epochs=3,
                    batch_size=8, learning_rate=1e30,
                )
        assert err.value.epoch == 0

    def test_poisoned_parameters_abort_after_the_step(self):
        # lr=1e39 is infinite in float32: one full-batch step turns every
        # weight infinite or NaN while that batch's loss was finite, and
        # with one batch per epoch no later loss would notice.
        rng = np.random.default_rng(24)
        x = rng.standard_normal((64, 4)).astype(np.float32)
        y = (rng.uniform(size=64) < 0.5).astype(np.uint8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=r"0\.weight .*epoch 0") as err:
                mlp_fit(
                    x, y, seed=1, widths=(4, 8, 1), epochs=1,
                    batch_size=64, learning_rate=1e39,
                )
        assert err.value.epoch == 0

    def test_non_finite_bias_is_named(self, monkeypatch):
        # Poison only the last bias after the first step: the one-pass check
        # of the optimizer's flat buffer must still name that parameter.
        real_step = nn.Adam.step

        def poisoning_step(self):
            real_step(self)
            self.params[-1].data[0] = np.nan

        monkeypatch.setattr(nn.Adam, "step", poisoning_step)
        x, y = separable_clusters(seed=44, n=40)
        with pytest.raises(DivergenceError, match=r"1\.bias .*epoch 0"):
            mlp_fit(x, y, seed=45, widths=(2, 4, 1), epochs=1)

    def test_standardization_matches_training_moments(self):
        x, y = separable_clusters(seed=21, n=60)
        x = x.astype(np.float32)
        model = mlp_fit(x, y, seed=22, epochs=1)
        np.testing.assert_allclose(model.offset, x.mean(axis=0), rtol=1e-6)
        np.testing.assert_allclose(model.scale, x.std(axis=0), rtol=1e-6)

    def test_feature_rescaling_does_not_change_predictions(self):
        # Multiplying one feature column by a power of two rescales its mean
        # and deviation exactly, so the standardized inputs -- and therefore
        # the fit and its predictions -- are bit-identical.
        x, y = separable_clusters(seed=26, n=200)
        x = x.astype(np.float32)
        wide = x.copy()
        wide[:, 1] *= 4096.0
        a = mlp_fit(x, y, seed=27, epochs=5)
        b = mlp_fit(wide, y, seed=27, epochs=5)
        probes = np.random.default_rng(28).standard_normal((30, 2)).astype(np.float32)
        scaled = probes.copy()
        scaled[:, 1] *= 4096.0
        np.testing.assert_array_equal(mlp_predict(a, probes), mlp_predict(b, scaled))

    def test_constant_feature_is_neutralized(self):
        x, y = separable_clusters(seed=29, n=80)
        x = np.hstack([x, np.full((80, 1), 7.5)]).astype(np.float32)
        model = mlp_fit(x, y, seed=30, epochs=2)
        assert model.scale[2] == 1.0
        assert np.ptp(model.normalize(x)[:, 2]) == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(FitError, match="single-class"):
            mlp_fit(np.zeros((6, 2)), np.ones(6, dtype=np.uint8), seed=22)

    def test_labels_outside_zero_one_rejected(self):
        x, _ = separable_clusters(seed=40, n=20)
        with pytest.raises(DataError, match="0/1"):
            mlp_fit(x, np.tile([0, 2], 10), seed=41, epochs=1)

    def test_nan_label_is_a_data_error(self):
        x, _ = separable_clusters(seed=42, n=20)
        y = np.tile([0.0, 1.0], 10)
        y[3] = np.nan
        with pytest.raises(DataError, match="0/1"):
            mlp_fit(x, y, seed=43, epochs=1)

    def test_non_finite_features_rejected(self):
        x = np.zeros((4, 2), dtype=np.float32)
        x[0, 0] = np.inf
        with pytest.raises(DataError, match="finite"):
            mlp_fit(x, np.array([0, 1, 0, 1], dtype=np.uint8), seed=23)


def _graph_forward(model, x) -> Tensor:
    """Reference: the model's own nn.Linear layers as an autodiff graph."""
    h = Tensor(x)
    for i, layer in enumerate(model.layers):
        h = layer.forward(h)
        h = ad.sigmoid(h) if i == len(model.layers) - 1 else ad.relu(h)
    return h


def _graph_gradients(model, x, t):
    """Loss and every parameter's grad through the reference graph."""
    model.layers.zero_grad()
    loss = ad.loss_bce(_graph_forward(model, x), t)
    loss.backward()
    return float(loss.data), [p.grad for p in model.layers.parameters()]


class TestGradients:
    def test_every_layer_matches_finite_differences(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((6, 3))
        y = (rng.uniform(size=(6, 1)) < 0.5).astype(np.float64)
        model = build_mlp(3, widths=(3, 4, 2, 1), seed=31, dtype=np.float64)
        params = list(model.layers.parameters())
        arrays = [p.data.copy() for p in params]

        def scalar_loss(*arrs):
            for p, a in zip(params, arrs):
                p.data = a.copy()
            return float(ad.bce_forward(model.forward(x), y)[0])

        for p, a in zip(params, arrays):
            p.data = a.copy()
        _, backward = _batch_gradients(model, x, y)
        backward()
        analytic = [p.grad.copy() for p in params]

        for i in range(len(params)):
            numeric = numeric_grad(scalar_loss, arrays, i, h=1e-5)
            err = relative_error(analytic[i], numeric)
            assert err < 1e-4, f"parameter {i}: relative error {err:.3e}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_the_autodiff_graph(self, dtype):
        # 37 rows in batches of 16 leave a ragged last batch of 5.
        rng = np.random.default_rng(36)
        x = rng.standard_normal((37, 3)).astype(dtype)
        t = (rng.uniform(size=(37, 1)) < 0.5).astype(dtype)
        model = build_mlp(3, widths=(3, 4, 2, 1), seed=37, dtype=dtype)
        for start in range(0, 37, 16):
            xb, tb = x[start : start + 16], t[start : start + 16]
            ref_loss, ref_grads = _graph_gradients(model, xb, tb)
            loss, backward = _batch_gradients(model, xb, tb)
            backward()
            assert loss == ref_loss
            for p, ref in zip(model.layers.parameters(), ref_grads):
                assert p.grad.dtype == ref.dtype and np.array_equal(p.grad, ref)
            # move the weights so each batch sees different parameters
            for p in model.layers.parameters():
                p.data = p.data - dtype(0.1) * p.grad
        with ad.no_grad():
            np.testing.assert_array_equal(model.forward(x), _graph_forward(model, x).data)


class TestConfigValidation:
    def test_width_constraints(self):
        with pytest.raises(ConfigError, match="last width"):
            build_mlp(2, widths=(2, 4, 3), seed=0)
        with pytest.raises(ConfigError, match="first width"):
            build_mlp(2, widths=(3, 4, 1), seed=0)
        with pytest.raises(ConfigError, match="positive"):
            build_mlp(2, widths=(2, 0, 1), seed=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unfitted_model_scales_by_identity(self, dtype):
        model = build_mlp(3, widths=(3, 1), seed=0, dtype=dtype)
        assert model.offset.dtype == model.scale.dtype == dtype
        assert model.offset.tolist() == [0, 0, 0] and model.scale.tolist() == [1, 1, 1]
        x = np.random.default_rng(38).standard_normal((5, 3)).astype(dtype)
        assert np.array_equal(model.normalize(x), x)

    def test_training_parameter_validation(self):
        x, y = separable_clusters(seed=32, n=20)
        with pytest.raises(ConfigError, match="batch_size"):
            mlp_fit(x, y, seed=0, batch_size=0)


class TestSerialization:
    def test_round_trip_preserves_predictions(self, tmp_path):
        x, y = separable_clusters(seed=33, n=200)
        model = mlp_fit(x, y, seed=34, epochs=10)
        path = tmp_path / "mlp.npb"
        save_mlp(path, model)
        back = load_mlp(path)
        probes = np.random.default_rng(35).standard_normal((40, 2))
        np.testing.assert_array_equal(mlp_predict(model, probes), mlp_predict(back, probes))
        assert back.widths == model.widths

    def test_file_without_input_scaling_is_a_format_error(self, tmp_path):
        from burnmap.modelio import save_model

        model = build_mlp(3, widths=(3, 1), seed=0)
        path = tmp_path / "unscaled.npb"
        blocks = {name: p.data for name, p in model.layers.named_parameters()}
        save_model(path, "mlp", {"widths": model.widths}, blocks)
        with pytest.raises(FormatError, match="no block 'norm/offset'"):
            load_mlp(path)

    def test_wrong_container_kind(self, tmp_path):
        from burnmap.modelio import save_blocks, text_block

        path = tmp_path / "other.npb"
        save_blocks(path, {"__meta__": text_block("kind=random_forest\n")})
        with pytest.raises(DataError, match="'random_forest' model, not 'mlp'"):
            load_mlp(path)
