"""Gradient and behavior tests for the reverse-mode autodiff engine.

Every operator's backward pass is compared against the central-difference
oracle in grad_check.py at h=1e-5 in float64, requiring relative error
below 1e-4 on randomly filled tensors (2x3x4x4 for the map-shaped ops).
Non-scalar outputs are reduced through a fixed random projection so the
oracle stays scalar-valued.
"""

import numpy as np
import pytest
from grad_check import numeric_grad, relative_error

from burnmap import autodiff as ad
from burnmap.autodiff import ShapeError, Tensor

TOL = 1e-4
H = 1e-5


def fd_check(op, arrays, rng, tol=TOL):
    """Check d(op)/d(input) against central differences for every input.

    ``op`` maps Tensors to one output Tensor; extra non-tensor arguments are
    bound by the caller with a lambda. Returns the worst relative error seen.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    probe = op(*[Tensor(a) for a in arrays])
    if probe.data.shape == ():
        proj = None

        def scalar_fn(*arrs):
            return float(op(*[Tensor(a) for a in arrs]).data)

    else:
        proj = rng.standard_normal(probe.data.shape)

        def scalar_fn(*arrs):
            return float((op(*[Tensor(a) for a in arrs]).data * proj).sum())

    worst = 0.0
    for wrt in range(len(arrays)):
        tensors = [Tensor(a, requires_grad=(i == wrt)) for i, a in enumerate(arrays)]
        out = op(*tensors)
        out.backward(proj)
        analytic = tensors[wrt].grad
        assert analytic is not None, f"no gradient reached input {wrt}"
        numeric = numeric_grad(scalar_fn, arrays, wrt, h=H)
        err = relative_error(analytic, numeric)
        assert err < tol, f"input {wrt}: relative error {err:.3e} >= {tol}"
        worst = max(worst, err)
    return worst


class TestArithmeticGradients:
    """Elementwise and linear-algebra operators."""

    def test_add_with_broadcast(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((2, 3, 4, 4))
        b = rng.standard_normal((3, 1, 1))
        fd_check(ad.add, [a, b], rng)

    def test_mul_with_broadcast(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((2, 3, 4, 4))
        b = rng.standard_normal((3, 1, 1))
        fd_check(ad.mul, [a, b], rng)

    def test_maximum(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((2, 3, 4, 4))
        b = rng.standard_normal((2, 3, 4, 4))
        fd_check(ad.maximum, [a, b], rng)

    def test_matmul(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((8, 5))
        b = rng.standard_normal((5, 7))
        fd_check(ad.matmul, [a, b], rng)

    def test_bias_add_4d(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 3, 4, 4))
        b = rng.standard_normal(3)
        fd_check(ad.bias_add, [x, b], rng)

    def test_bias_add_2d(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((5, 7))
        b = rng.standard_normal(7)
        fd_check(ad.bias_add, [x, b], rng)

    def test_channel_scale(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 3, 4, 4))
        s = rng.standard_normal((2, 3))
        fd_check(ad.channel_scale, [x, s], rng)

    def test_reshape(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 3, 4, 4))
        fd_check(lambda t: ad.reshape(t, (2, 48)), [x], rng)

    def test_concat(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((2, 2, 4, 4))
        b = rng.standard_normal((2, 3, 4, 4))
        fd_check(lambda u, v: ad.concat([u, v], axis=1), [a, b], rng)


class TestActivationGradients:
    def test_relu(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((2, 3, 4, 4))
        fd_check(ad.relu, [x], rng)

    def test_sigmoid(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((2, 3, 4, 4))
        fd_check(ad.sigmoid, [x], rng)


class TestConvGradients:
    def test_conv2d_stride1_padded(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((2, 3, 4, 4))
        w = rng.standard_normal((5, 3, 3, 3))
        fd_check(lambda t, k: ad.conv2d(t, k, stride=1, padding=1), [x, w], rng)

    def test_conv2d_stride2_padded(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((2, 3, 4, 4))
        w = rng.standard_normal((5, 3, 3, 3))
        fd_check(lambda t, k: ad.conv2d(t, k, stride=2, padding=1), [x, w], rng)

    def test_conv2d_1x1(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((2, 3, 4, 4))
        w = rng.standard_normal((6, 3, 1, 1))
        fd_check(lambda t, k: ad.conv2d(t, k), [x, w], rng)

    def test_conv2d_unpadded_3x3(self):
        rng = np.random.default_rng(33)
        x = rng.standard_normal((2, 3, 4, 4))
        w = rng.standard_normal((4, 3, 3, 3))
        fd_check(lambda t, k: ad.conv2d(t, k, stride=1, padding=0), [x, w], rng)


def conv2d_reference(x, w, seed, stride, padding):
    """Direct nested-loop cross-correlation, plus the gradients of
    sum(out * seed) with respect to the input and the kernel, in float64."""
    x, w, seed = (np.asarray(a, dtype=np.float64) for a in (x, w, seed))
    n, _, h, width = x.shape
    f, _, kh, kw = w.shape
    p = padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    ho, wo = (h + 2 * p - kh) // stride + 1, (width + 2 * p - kw) // stride + 1
    out = np.zeros((n, f, ho, wo))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for b in range(n):
        for o in range(f):
            for y in range(ho):
                for z in range(wo):
                    rows = slice(y * stride, y * stride + kh)
                    cols = slice(z * stride, z * stride + kw)
                    out[b, o, y, z] = (xp[b, :, rows, cols] * w[o]).sum()
                    dw[o] += seed[b, o, y, z] * xp[b, :, rows, cols]
                    dxp[b, :, rows, cols] += seed[b, o, y, z] * w[o]
    return out, dxp[:, :, p : p + h, p : p + width], dw


class TestConvReference:
    """conv2d's output and both gradients against the nested-loop reference.

    The tolerance is fixed from the dtype: the kernel sums the same products
    as the reference in another order, so results agree to rounding only.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hw", [(5, 7), (6, 4)])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_reference(self, k, stride, padding, hw, dtype):
        rng = np.random.default_rng(100 * k + 10 * stride + padding + hw[0])
        x = rng.standard_normal((2, 3, *hw)).astype(dtype)
        w = rng.standard_normal((4, 3, k, k)).astype(dtype)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = ad.conv2d(xt, wt, stride=stride, padding=padding)
        seed = rng.standard_normal(out.data.shape).astype(dtype)
        out.backward(seed)

        ref_out, ref_dx, ref_dw = conv2d_reference(x, w, seed, stride, padding)
        tol = 1000 * np.finfo(dtype).eps
        for got, want in ((out.data, ref_out), (xt.grad, ref_dx), (wt.grad, ref_dw)):
            assert got.dtype == dtype
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


class TestNormalizationGradients:
    def test_batchnorm_training(self):
        rng = np.random.default_rng(40)
        x = rng.standard_normal((2, 3, 4, 4))
        gamma = rng.standard_normal(3) + 1.0
        beta = rng.standard_normal(3)

        def op(t, g, b):
            rm = np.zeros(3)
            rv = np.ones(3)
            return ad.batchnorm(t, g, b, rm, rv, training=True)

        fd_check(op, [x, gamma, beta], rng)

    def test_batchnorm_eval(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((2, 3, 4, 4))
        gamma = rng.standard_normal(3) + 1.0
        beta = rng.standard_normal(3)
        rm = rng.standard_normal(3) * 0.1
        rv = rng.uniform(0.5, 2.0, 3)

        def op(t, g, b):
            return ad.batchnorm(t, g, b, rm.copy(), rv.copy(), training=False)

        fd_check(op, [x, gamma, beta], rng)


class TestPoolingGradients:
    def test_maxpool2x2(self):
        rng = np.random.default_rng(50)
        x = rng.standard_normal((2, 3, 4, 4))
        fd_check(ad.maxpool2x2, [x], rng)

    def test_global_avg_pool(self):
        rng = np.random.default_rng(51)
        x = rng.standard_normal((2, 3, 4, 4))
        fd_check(ad.global_avg_pool, [x], rng)

    def test_upsample2x(self):
        rng = np.random.default_rng(52)
        x = rng.standard_normal((2, 3, 4, 4))
        fd_check(ad.upsample2x, [x], rng)


class TestLossGradients:
    """The four training losses, each reduced to a scalar by construction."""

    @staticmethod
    def _predictions(rng, shape=(2, 3, 4, 4)):
        yhat = rng.uniform(0.05, 0.95, shape)
        y = (rng.uniform(size=shape) < 0.4).astype(np.float64)
        return yhat, y

    def test_bce(self):
        rng = np.random.default_rng(60)
        yhat, y = self._predictions(rng)
        fd_check(lambda t: ad.loss_bce(t, y), [yhat], rng)

    def test_focal(self):
        rng = np.random.default_rng(61)
        yhat, y = self._predictions(rng)
        fd_check(lambda t: ad.loss_focal(t, y, alpha=0.25, gamma=2.0), [yhat], rng)

    def test_focal_noninteger_gamma(self):
        rng = np.random.default_rng(62)
        yhat, y = self._predictions(rng)
        fd_check(lambda t: ad.loss_focal(t, y, alpha=0.75, gamma=1.5), [yhat], rng)

    def test_dice(self):
        rng = np.random.default_rng(63)
        yhat, y = self._predictions(rng)
        fd_check(lambda t: ad.loss_dice(t, y), [yhat], rng)

    def test_bce_dice(self):
        rng = np.random.default_rng(64)
        yhat, y = self._predictions(rng)
        fd_check(lambda t: ad.loss_bce_dice(t, y), [yhat], rng)


class TestLossValues:
    """Hand-computed loss values and limiting behaviour."""

    def test_bce_hand_value(self):
        # -(ln 0.8 + ln 0.8) / 2 with y = [1, 0], p = [0.8, 0.2]
        out = ad.loss_bce(Tensor(np.array([0.8, 0.2])), np.array([1.0, 0.0]))
        np.testing.assert_allclose(float(out.data), -np.log(0.8), rtol=1e-12)

    def test_bce_clamps_at_zero_and_one(self):
        out = ad.loss_bce(Tensor(np.array([0.0, 1.0])), np.array([1.0, 0.0]))
        assert np.isfinite(float(out.data))
        np.testing.assert_allclose(float(out.data), -np.log(1e-7), rtol=1e-6)

    def test_dice_hand_value(self):
        # inter=1.5 -> 1 - (2*1.5+1)/(2+1.5+1) = 1/9
        out = ad.loss_dice(
            Tensor(np.array([1.0, 0.0, 0.5])), np.array([1.0, 0.0, 1.0])
        )
        np.testing.assert_allclose(float(out.data), 1.0 / 9.0, rtol=1e-12)

    def test_dice_perfect_prediction_near_zero(self):
        y = np.array([1.0, 0.0, 1.0, 1.0])
        out = ad.loss_dice(Tensor(y.copy()), y)
        np.testing.assert_allclose(float(out.data), 0.0, atol=1e-12)

    def test_focal_small_gamma_matches_half_bce(self):
        rng = np.random.default_rng(65)
        yhat = rng.uniform(0.1, 0.9, 50)
        y = (rng.uniform(size=50) < 0.5).astype(np.float64)
        focal = ad.loss_focal(Tensor(yhat), y, alpha=0.5, gamma=1e-6)
        bce = ad.loss_bce(Tensor(yhat), y)
        np.testing.assert_allclose(float(focal.data), 0.5 * float(bce.data), rtol=1e-4)

    def test_focal_downweights_easy_examples(self):
        easy = ad.loss_focal(Tensor(np.array([0.95])), np.array([1.0]))
        hard = ad.loss_focal(Tensor(np.array([0.30])), np.array([1.0]))
        bce_ratio = -np.log(0.30) / -np.log(0.95)
        focal_ratio = float(hard.data) / float(easy.data)
        assert focal_ratio > bce_ratio

    def test_bce_dice_is_sum(self):
        rng = np.random.default_rng(66)
        yhat = rng.uniform(0.1, 0.9, 20)
        y = (rng.uniform(size=20) < 0.5).astype(np.float64)
        combined = ad.loss_bce_dice(Tensor(yhat), y)
        parts = float(ad.loss_bce(Tensor(yhat), y).data) + float(
            ad.loss_dice(Tensor(yhat), y).data
        )
        np.testing.assert_allclose(float(combined.data), parts, rtol=1e-12)

    def test_loss_registry(self):
        assert set(ad.LOSSES) == {"bce", "focal", "dice", "bce_dice"}

    def test_focal_parameter_validation(self):
        yhat, y = Tensor(np.array([0.5])), np.array([1.0])
        with pytest.raises(ShapeError):
            ad.loss_focal(yhat, y, alpha=1.5)
        with pytest.raises(ShapeError):
            ad.loss_focal(yhat, y, gamma=0.0)


class TestForwardValues:
    """Hand-computed forward results for the structured operators."""

    def test_conv2d_hand_case(self):
        x = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
        w = np.ones((1, 1, 2, 2))
        out = ad.conv2d(Tensor(x), Tensor(w))
        np.testing.assert_array_equal(
            out.data[0, 0], np.array([[12.0, 16.0], [24.0, 28.0]])
        )

    def test_conv2d_stride2_picks_alternate_windows(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        w = np.ones((1, 1, 1, 1))
        out = ad.conv2d(Tensor(x), Tensor(w), stride=2)
        np.testing.assert_array_equal(
            out.data[0, 0], np.array([[0.0, 2.0], [8.0, 10.0]])
        )

    def test_maxpool_hand_case(self):
        x = np.array([[1.0, 2.0, 5.0, 1.0], [3.0, 4.0, 2.0, 0.0]]).reshape(1, 1, 2, 4)
        out = ad.maxpool2x2(Tensor(x))
        np.testing.assert_array_equal(out.data[0, 0], np.array([[4.0, 5.0]]))

    def test_maxpool_tie_routes_to_first_window_position(self):
        x = Tensor(np.full((1, 1, 2, 2), 7.0), requires_grad=True)
        out = ad.maxpool2x2(x)
        out.backward(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(
            x.grad[0, 0], np.array([[1.0, 0.0], [0.0, 0.0]])
        )

    def test_maximum_tie_routes_to_first_argument(self):
        a = Tensor(np.array([2.0, 1.0]), requires_grad=True)
        b = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        ad.maximum(a, b).backward(np.ones(2))
        np.testing.assert_array_equal(a.grad, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(b.grad, np.array([0.0, 1.0]))

    def test_relu_zero_input_gets_zero_gradient(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        ad.relu(x).backward(np.ones(3))
        np.testing.assert_array_equal(x.grad, np.array([0.0, 0.0, 1.0]))

    def test_sigmoid_extreme_inputs_stable(self):
        out = ad.sigmoid(Tensor(np.array([-800.0, 800.0])))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_global_avg_pool_is_mean(self):
        rng = np.random.default_rng(70)
        x = rng.standard_normal((2, 3, 4, 4))
        out = ad.global_avg_pool(Tensor(x))
        np.testing.assert_allclose(out.data[..., 0, 0], x.mean(axis=(2, 3)), rtol=1e-12)

    def test_upsample_constant_map_stays_constant(self):
        x = np.full((1, 2, 3, 3), 0.7)
        out = ad.upsample2x(Tensor(x))
        assert out.data.shape == (1, 2, 6, 6)
        np.testing.assert_allclose(out.data, 0.7, rtol=1e-12)

    def test_upsample_hand_weights(self):
        # Half-pixel-centre interpolation of [a, b] along one axis.
        a, b = 2.0, 6.0
        x = np.array([[a, b]]).reshape(1, 1, 1, 2)
        out = ad.upsample2x(Tensor(x))
        np.testing.assert_allclose(
            out.data[0, 0, 0],
            [a, 0.75 * a + 0.25 * b, 0.25 * a + 0.75 * b, b],
            rtol=1e-12,
        )
        np.testing.assert_allclose(out.data[0, 0, 1], out.data[0, 0, 0], rtol=1e-12)

    def test_batchnorm_training_normalizes(self):
        rng = np.random.default_rng(71)
        x = rng.standard_normal((4, 3, 8, 8)) * 3.0 + 5.0
        rm, rv = np.zeros(3), np.ones(3)
        out = ad.batchnorm(
            Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), rm, rv, training=True
        )
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.var(axis=(0, 2, 3)), 1.0, rtol=1e-3)

    def test_batchnorm_updates_running_stats(self):
        rng = np.random.default_rng(72)
        x = rng.standard_normal((4, 2, 8, 8)) + 2.0
        rm, rv = np.zeros(2), np.ones(2)
        ad.batchnorm(
            Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, training=True
        )
        np.testing.assert_allclose(rm, 0.1 * x.mean(axis=(0, 2, 3)), rtol=1e-12)
        np.testing.assert_allclose(
            rv, 0.9 + 0.1 * x.var(axis=(0, 2, 3)), rtol=1e-12
        )

    def test_batchnorm_eval_is_fixed_affine(self):
        x = np.ones((1, 1, 2, 2)) * 3.0
        rm, rv = np.array([1.0]), np.array([4.0])
        out = ad.batchnorm(
            Tensor(x),
            Tensor(np.array([2.0])),
            Tensor(np.array([0.5])),
            rm,
            rv,
            training=False,
            eps=0.0,
        )
        np.testing.assert_allclose(out.data, 2.0 * (3.0 - 1.0) / 2.0 + 0.5, rtol=1e-12)
        np.testing.assert_array_equal(rm, [1.0])  # eval never touches the stats
        np.testing.assert_array_equal(rv, [4.0])


class TestGraphMechanics:
    """Tape behaviour: accumulation, gating, error reporting."""

    def test_two_backward_passes_double_the_gradient(self):
        rng = np.random.default_rng(80)
        x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        out = ad.loss_dice(ad.sigmoid(ad.matmul(x, w)), np.eye(3))
        out.backward()
        first_x, first_w = x.grad.copy(), w.grad.copy()
        out.backward()
        np.testing.assert_allclose(x.grad, 2.0 * first_x, rtol=1e-12)
        np.testing.assert_allclose(w.grad, 2.0 * first_w, rtol=1e-12)

    def test_intermediate_tensor_gradients_accumulate_too(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        mid = ad.relu(x)
        out = ad.loss_dice(ad.sigmoid(mid), np.array([[1.0, 0.0]]))
        out.backward()
        first = mid.grad.copy()
        out.backward()
        np.testing.assert_allclose(mid.grad, 2.0 * first, rtol=1e-12)

    def test_backward_without_seed_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            ad.relu(x).backward()

    def test_gradient_only_reaches_requiring_tensors(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=False)
        ad.mul(a, b).backward(np.ones(3))
        assert a.grad is not None
        assert b.grad is None

    def test_no_grad_disables_recording(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            out = ad.relu(a)
        assert not out.requires_grad
        assert out._backward is None

    def test_zero_grad_and_detach(self):
        a = Tensor(np.ones(3), requires_grad=True)
        ad.relu(a).backward(np.ones(3))
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None
        assert not a.detach().requires_grad

    def test_diamond_graph_sums_both_paths(self):
        # out = x*x + x*x -> d/dx = 4x
        x = Tensor(np.array([3.0]), requires_grad=True)
        left = ad.mul(x, x)
        out = ad.add(left, left)
        out.backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [12.0], rtol=1e-12)


class TestShapeErrors:
    """Mismatches must name the operator and the offending extents."""

    def test_conv2d_channel_mismatch(self):
        with pytest.raises(ShapeError, match="conv2d.*3 channels.*4"):
            ad.conv2d(Tensor(np.ones((1, 3, 4, 4))), Tensor(np.ones((2, 4, 3, 3))))

    def test_conv2d_bad_stride(self):
        with pytest.raises(ShapeError, match="conv2d.*stride"):
            ad.conv2d(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 3, 3))), stride=3)

    def test_matmul_mismatch(self):
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_maxpool_odd_extent(self):
        with pytest.raises(ShapeError, match="maxpool2x2.*5x4"):
            ad.maxpool2x2(Tensor(np.ones((1, 1, 5, 4))))

    def test_bias_add_mismatch(self):
        with pytest.raises(ShapeError, match="bias_add"):
            ad.bias_add(Tensor(np.ones((2, 3))), Tensor(np.ones(4)))

    def test_channel_scale_mismatch(self):
        with pytest.raises(ShapeError, match="channel_scale"):
            ad.channel_scale(Tensor(np.ones((2, 3, 4, 4))), Tensor(np.ones((2, 4))))

    def test_maximum_shape_mismatch(self):
        with pytest.raises(ShapeError, match="maximum"):
            ad.maximum(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3))))

    def test_concat_empty(self):
        with pytest.raises(ShapeError, match="concat"):
            ad.concat([])

    def test_batchnorm_bad_params(self):
        with pytest.raises(ShapeError, match="batchnorm"):
            ad.batchnorm(
                Tensor(np.ones((1, 3, 2, 2))),
                Tensor(np.ones(2)),
                Tensor(np.ones(3)),
                np.zeros(3),
                np.ones(3),
                training=True,
            )

    def test_loss_label_shape_mismatch(self):
        with pytest.raises(ShapeError, match="labels"):
            ad.loss_bce(Tensor(np.ones(3) * 0.5), np.ones(4))
