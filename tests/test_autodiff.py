"""Gradient and behavior tests for the reverse-mode autodiff engine.

Every operator's backward pass is compared against the central-difference
oracle in grad_check.py at h=1e-5 in float64, requiring relative error
below 1e-4 on randomly filled tensors (2x3x4x4 for the map-shaped ops).
Non-scalar outputs are reduced through a fixed random projection so the
oracle stays scalar-valued.
"""

import tracemalloc
import weakref

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

    def test_conv2d_stride2_unpadded(self):
        rng = np.random.default_rng(34)
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        fd_check(lambda t, k: ad.conv2d(t, k, stride=2, padding=0), [x, w], rng)


class TestConvMemory:
    """The forward node keeps no input-sized buffer for its backward pass,
    and a forward needs only chunk-sized scratch."""

    @pytest.mark.parametrize("stride", [1, 2])
    def test_forward_keeps_no_padded_copy(self, stride):
        rng = np.random.default_rng(35 + stride)
        x = Tensor(rng.standard_normal((8, 16, 64, 64), dtype=np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((16, 16, 3, 3), dtype=np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            out = ad.conv2d(x, w, stride=stride, padding=1)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held - out.data.nbytes < x.data.nbytes / 8
        out.backward(np.ones_like(out.data))
        assert x.grad.shape == x.data.shape and w.grad.shape == w.data.shape

    @pytest.mark.parametrize("stride", [1, 2])
    def test_forward_peak_is_chunk_sized(self, stride):
        """Besides the padded input's phases and the output grid, which live
        together, and then the grid and the output, a forward holds only
        chunk-sized scratch. One partial sum over all rows (2.2 MB at stride
        1) or per-tap strided copies (1 MB at stride 2) are far over the
        bound."""
        rng = np.random.default_rng(37)
        x = Tensor(rng.standard_normal((8, 16, 64, 64), dtype=np.float32))
        w = Tensor(rng.standard_normal((16, 16, 3, 3), dtype=np.float32))
        hq = -(-66 // stride)
        grid = 8 * hq * hq * 16 * 4  # the (N,Hq,Wq,F) grid
        phases = stride * stride * grid  # the (s*s,N,Hq,Wq,C) padded input
        tracemalloc.start()
        try:
            out = ad.conv2d(x, w, stride=stride, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scratch = peak - phases - max(grid, out.data.nbytes)
        assert scratch < 4 * ad._CHUNK_ROWS * 16 * 4


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
    @pytest.mark.parametrize("padding", [0, 1, 2])
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



def conv2d_unblocked(x, w, seed, padding, transposed=True):
    """Stride-1 shift-and-accumulate with one full-height GEMM per tap and
    no row chunks. Returns the output and the input and kernel gradients of
    sum(out * seed), in the dtype of x.

    With ``transposed`` the input gradient is the transposed convolution:
    the seed on the output grid, after (k-1)*Wp + k-1 zero rows, runs one
    GEMM per (F,C) tap at the rotated row offset (k-1-i)*Wp + (k-1-j), taps
    in forward order. Without it, each tap adds seed @ tap.T into a padded
    buffer, the gather form whose bits the network's layers keep.
    """
    n, c, h, width = x.shape
    f, _, kh, kw = w.shape
    hp, wp = h + 2 * padding, width + 2 * padding
    ho, wo = hp - kh + 1, wp - kw + 1
    m = n * hp * wp - (kh - 1) * wp - (kw - 1)
    shifts = [i * wp + j for i in range(kh) for j in range(kw)]
    taps = np.ascontiguousarray(w.transpose(2, 3, 1, 0)).reshape(kh * kw, c, f)
    xp = np.zeros((n, hp, wp, c), x.dtype)
    xp[:, padding : padding + h, padding : padding + width] = x.transpose(0, 2, 3, 1)
    rows = xp.reshape(-1, c)

    grid = np.zeros((n, hp, wp, f), x.dtype)
    acc = grid.reshape(-1, f)[:m]
    part = np.empty((m, f), x.dtype)
    for k, off in enumerate(shifts):
        np.matmul(rows[off : off + m], taps[k], out=part if k else acc)
        if k:
            acc += part
    out = np.ascontiguousarray(grid[:, :ho, :wo].transpose(0, 3, 1, 2))

    front = shifts[-1]
    g_rows = np.zeros((front + n * hp * wp, f), x.dtype)
    g_rows[front:].reshape(n, hp, wp, f)[:, :ho, :wo] = seed.transpose(0, 2, 3, 1)
    g = g_rows[front : front + m]
    dtaps = np.empty((kh * kw, c, f), x.dtype)
    for k, off in enumerate(shifts):
        np.matmul(rows[off : off + m].T, g, out=dtaps[k])
    dw = dtaps.reshape(kh, kw, c, f).transpose(3, 2, 0, 1)

    dxp = np.zeros((n * hp * wp, c), x.dtype)
    if transposed:
        taps_t = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(kh * kw, f, c)
        part = np.empty_like(dxp)
        for k, off in enumerate(shifts):
            rotated = front - off
            np.matmul(g_rows[rotated : rotated + len(dxp)], taps_t[k], out=part if k else dxp)
            if k:
                dxp += part
    else:
        part = np.empty((m, c), x.dtype)
        for k, off in enumerate(shifts):
            np.matmul(g, taps[k].T, out=part)
            dxp[off : off + m] += part
    dx = dxp.reshape(n, hp, wp, c)[:, padding : padding + h, padding : padding + width]
    return out, dx.transpose(0, 3, 1, 2), dw


def conv_piece_rows(n, h, width, k, padding):
    """Row counts of the stride-1 forward chunks and of the input-gradient
    chunks, which cover every row of the padded grid."""
    hp, wp = h + 2 * padding, width + 2 * padding
    m = n * hp * wp - (k - 1) * wp - (k - 1)
    forward = [hi - lo for lo, hi in ad._row_chunks(m)]
    backward = [hi - lo for lo, hi in ad._row_chunks(n * hp * wp)]
    return m, forward, backward


class TestConvBlocking:
    """Stride-1 conv2d runs its GEMMs over row chunks. The output and both
    gradients equal, bit for bit, those of one full-height GEMM per tap.

    Equality rests on OpenBLAS giving a row the same bits in a chunk as in
    the full-height product. That holds for the network's float32 layers
    and for the shapes used here; where OpenBLAS picks another kernel for
    the full-height product, the last bit can differ (see
    ``autodiff._tap_sum``).
    """

    @staticmethod
    def _assert_same_bits(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        unsigned = f"u{got.itemsize}"
        np.testing.assert_array_equal(got.view(unsigned), want.view(unsigned))

    def _check(self, shape, f, k, padding, dtype, seed, transposed=True):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape).astype(dtype)
        w = rng.standard_normal((f, shape[1], k, k)).astype(dtype)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = ad.conv2d(xt, wt, padding=padding)
        grad = rng.standard_normal(out.data.shape).astype(dtype)
        out.backward(grad)
        want = conv2d_unblocked(x, w, grad, padding, transposed)
        for got, expected in zip((out.data, xt.grad, wt.grad), want):
            self._assert_same_bits(got, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "shape, f",
        [
            ((2, 3, 34, 33), 4),  # three chunks, the last a short tail
            ((1, 3, 5, 7), 4),  # batch 1, one chunk
            ((1, 4, 3, 3), 2),  # batch 1; one output pixel at k=3, padding 0
            ((3, 2, 26, 21), 1),  # one kernel: matrix-vector products
        ],
    )
    def test_matches_unblocked(self, shape, f, k, padding, dtype):
        self._check(shape, f, k, padding, dtype, seed=sum(shape) + 10 * k + padding)

    @pytest.mark.parametrize(
        "shape, f, k, padding",
        [
            ((2, 10, 64, 64), 16, 3, 1),
            ((2, 16, 64, 64), 16, 3, 1),
            ((2, 16, 64, 64), 1, 1, 0),
            ((2, 64, 64, 64), 16, 3, 1),
            ((2, 128, 32, 32), 32, 3, 1),
            ((2, 384, 16, 16), 64, 3, 1),
            ((2, 128, 8, 8), 128, 3, 1),
        ],
    )
    def test_network_layers_match_unblocked(self, shape, f, k, padding):
        """The network's layers keep the bits of the gather-form input
        gradient that the transposed convolution replaced."""
        self._check(shape, f, k, padding, np.float32, seed=f + shape[1], transposed=False)

    @pytest.mark.parametrize(
        "shape, f, k, dtype",
        [
            # the forward's one-row tail joins the chunk before it
            ((1, 3, 39, 27), 4, 2, np.float32),
            ((1, 3, 39, 27), 4, 2, np.float64),
            ((1, 3, 39, 27), 16, 2, np.float32),
            ((1, 64, 39, 27), 64, 2, np.float32),
            # m = 2049: the one-row tail joins the chunk before it
            ((1, 2, 3, 683), 3, 1, np.float32),
            ((1, 2, 3, 683), 3, 1, np.float64),
            ((1, 2, 3, 683), 1, 1, np.float32),
            ((1, 2, 3, 683), 1, 1, np.float64),
        ],
    )
    def test_one_row_pieces_match_unblocked(self, shape, f, k, dtype):
        m, forward, backward = conv_piece_rows(shape[0], shape[2], shape[3], k, 0)
        assert m % ad._CHUNK_ROWS == 1  # a one-row chunk is avoided
        assert 1 not in forward and 1 not in backward
        self._check(shape, f, k, 0, dtype, seed=f)


def conv2d_copied(x, w, seed, stride, padding):
    """Shift-and-accumulate with one strided copy of each tap's input
    pixels, one full-height GEMM per tap, and the input gradient scattered
    tap by tap into a zeroed padded buffer. Returns the output and the input
    and kernel gradients of sum(out * seed), in the dtype of x."""
    n, c, h, width = x.shape
    f, _, kh, kw = w.shape
    hp, wp = h + 2 * padding, width + 2 * padding
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    m = n * ho * wo
    taps = np.ascontiguousarray(w.transpose(2, 3, 1, 0))  # (kh,kw,C,F)
    xp = np.zeros((n, hp, wp, c), x.dtype)
    xp[:, padding : padding + h, padding : padding + width] = x.transpose(0, 2, 3, 1)

    def window(buf, i, j):
        return buf[:, i : i + stride * ho : stride, j : j + stride * wo : stride]

    offsets = [(i, j) for i in range(kh) for j in range(kw)]
    acc = np.empty((m, f), x.dtype)
    part = np.empty((m, f), x.dtype)
    for k, (i, j) in enumerate(offsets):
        np.matmul(window(xp, i, j).reshape(m, c), taps[i, j], out=part if k else acc)
        if k:
            acc += part
    out = np.ascontiguousarray(acc.reshape(n, ho, wo, f).transpose(0, 3, 1, 2))

    g = np.ascontiguousarray(seed.transpose(0, 2, 3, 1)).reshape(m, f)
    dtaps = np.empty((kh, kw, c, f), x.dtype)
    dxp = np.zeros_like(xp)
    part = np.empty((m, c), x.dtype)
    for i, j in offsets:
        np.matmul(window(xp, i, j).reshape(m, c).T, g, out=dtaps[i, j])
        np.matmul(g, taps[i, j].T, out=part)
        view = window(dxp, i, j)
        view += part.reshape(view.shape)
    dx = dxp[:, padding : padding + h, padding : padding + width].transpose(0, 3, 1, 2)
    return out, dx, dtaps.transpose(3, 2, 0, 1)


class TestConvStride2:
    """At stride 2, conv2d runs a stride-1 tap loop over the input's phases.
    On the network's stride-2 layers at batch 8, the output and the input
    gradient keep the bits of per-tap strided copies with full-height GEMMs
    and a scattered input gradient. The kernel gradient of a 1x1 layer does
    too; that of a 3x3 layer now also sums the grid's cropped rows, whose
    gradient is zero, so it moves by float32 rounding only."""

    @pytest.mark.parametrize("k, padding", [(3, 1), (1, 0)])
    @pytest.mark.parametrize("c, hw", [(16, 64), (32, 32), (64, 16)])
    def test_network_layers_match_copied(self, c, hw, k, padding):
        rng = np.random.default_rng(c + k)
        x = rng.standard_normal((8, c, hw, hw)).astype(np.float32)
        w = (rng.standard_normal((2 * c, c, k, k)) * 0.1).astype(np.float32)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = ad.conv2d(xt, wt, stride=2, padding=padding)
        seed = rng.standard_normal(out.data.shape).astype(np.float32)
        out.backward(seed)
        want_out, want_dx, want_dw = conv2d_copied(x, w, seed, 2, padding)
        TestConvBlocking._assert_same_bits(out.data, want_out)
        TestConvBlocking._assert_same_bits(xt.grad, want_dx)
        if k == 1:
            TestConvBlocking._assert_same_bits(wt.grad, want_dw)
        else:
            tol = 8 * np.finfo(np.float32).eps * np.abs(want_dw).max()
            np.testing.assert_allclose(wt.grad, want_dw, rtol=0, atol=tol)

    def test_1x1_builds_one_phase(self, monkeypatch):
        """A 1x1 tap reads only phase (0, 0), so forward and the kernel
        gradient's rebuild copy one phase of the input, not four."""
        built = []
        pad = ad._pad_channels_last

        def recording(*args):
            xq = pad(*args)
            built.append(xq.shape)
            return xq

        monkeypatch.setattr(ad, "_pad_channels_last", recording)
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 3, 8, 8), dtype=np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 1, 1), dtype=np.float32), requires_grad=True)
        ad.conv2d(x, w, stride=2).backward(np.ones((2, 4, 4, 4), np.float32))
        assert built == [(1, 2, 4, 4, 3)] * 2


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


class TestFusedBatchNorm:
    """The fused batch-norm node against the separate ops it replaces."""

    @staticmethod
    def _run(fused, training, arrays, proj):
        x, gamma, beta, s = (Tensor(a, requires_grad=True) for a in arrays)
        rm, rv = np.full(3, 0.2, np.float32), np.full(3, 1.5, np.float32)
        if fused:
            out = ad.batchnorm(x, gamma, beta, rm, rv, training, shortcut=s, relu=True)
        else:
            out = ad.relu(ad.add(ad.batchnorm(x, gamma, beta, rm, rv, training), s))
        out.backward(proj)
        return [out.data] + [t.grad for t in (x, gamma, beta, s)]

    @pytest.mark.parametrize("training", [True, False])
    def test_equals_rectified_sum_of_separate_ops(self, training):
        rng = np.random.default_rng(42)
        arrays = [
            rng.standard_normal((2, 3, 5, 5)) * 2.0 + 1.0,
            rng.standard_normal(3) + 1.0,
            rng.standard_normal(3),
            rng.standard_normal((2, 3, 5, 5)),
        ]
        arrays = [a.astype(np.float32) for a in arrays]
        proj = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        fused = self._run(True, training, arrays, proj)
        separate = self._run(False, training, arrays, proj)
        for name, got, want in zip(("output", "x", "gamma", "beta", "shortcut"), fused, separate):
            assert got.dtype == np.float32, name
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5, err_msg=name)

    @pytest.mark.parametrize("training", [True, False])
    def test_nan_input_rectifies_to_zero(self, training):
        x = np.ones((1, 2, 2, 2), np.float32)
        x[0, 0, 1, 1] = np.nan
        out = ad.batchnorm(
            Tensor(x), Tensor(np.ones(2, np.float32)), Tensor(np.ones(2, np.float32)),
            np.zeros(2, np.float32), np.ones(2, np.float32), training, relu=True,
        )
        assert out.data[0, 0, 1, 1] == 0.0
        assert np.all(np.isfinite(out.data))

    def test_zero_output_gets_zero_gradient(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0, 0.5]).reshape(1, 1, 1, 4), requires_grad=True)
        s = Tensor(np.array([0.5, 0.0, 1.0, -0.5]).reshape(1, 1, 1, 4), requires_grad=True)
        out = ad.batchnorm(
            x, Tensor(np.ones(1)), Tensor(np.zeros(1)), np.zeros(1), np.ones(1),
            training=False, eps=0.0, shortcut=s, relu=True,
        )
        np.testing.assert_array_equal(out.data.ravel(), [0.0, 0.0, 3.0, 0.0])
        out.backward(np.ones((1, 1, 1, 4)))
        np.testing.assert_array_equal(x.grad.ravel(), [0.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(s.grad.ravel(), [0.0, 0.0, 1.0, 0.0])

    def test_shortcut_shape_must_match(self):
        with pytest.raises(ShapeError, match="batchnorm: shortcut"):
            ad.batchnorm(
                Tensor(np.ones((1, 2, 2, 2))), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                np.zeros(2), np.ones(2), training=True, shortcut=Tensor(np.ones((1, 2, 2, 1))),
            )


class TestPoolingGradients:
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

    def test_bce_forward_keeps_the_clip_formula_bits(self):
        """bce_forward's loss, clamped predictions and mask equal, bit for
        bit, the np.clip and np.sum form, on float32 heads of 32 with NaN
        predictions and predictions past both clamps."""

        def clip_form(yhat, t):
            p = np.clip(yhat, ad.LOG_EPS, 1.0 - ad.LOG_EPS)
            inside = (yhat > ad.LOG_EPS) & (yhat < 1.0 - ad.LOG_EPS)
            total = -np.sum(t * np.log(p) + (1.0 - t) * np.log1p(-p), dtype=np.float64)
            return np.asarray(total / p.size, dtype=yhat.dtype), p, inside

        rng = np.random.default_rng(67)
        special = np.array([np.nan, 0.0, 1.0, 1e-9, 1 - 1e-9, -0.5, 1.5], np.float32)
        for trial in range(200):
            yhat = rng.random((32, 1), dtype=np.float32)
            at = rng.random((32, 1)) < 0.2
            yhat[at] = rng.choice(special, int(at.sum()))
            t = (rng.random((32, 1)) < 0.5).astype(np.float32)
            got, want = ad.bce_forward(yhat, t), clip_form(yhat, t)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), trial

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

    @staticmethod
    def _assert_bitwise_equal(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_nan_and_signed_zeros_match_where(self, dtype):
        x = np.array([np.nan, -np.nan, -0.0, 0.0, -1.0, 2.0, np.inf, -np.inf], dtype)
        xt = Tensor(x, requires_grad=True)
        out = ad.relu(xt)
        self._assert_bitwise_equal(out.data, np.where(x > 0, x, 0))
        flow = np.full(x.shape, 3.0, dtype)
        out.backward(flow)
        self._assert_bitwise_equal(xt.grad, flow * (x > 0))
        np.testing.assert_array_equal(xt.grad, [0, 0, 0, 0, 0, 3, 3, 0])

    @pytest.mark.parametrize(
        "dtype_a, dtype_b",
        [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)],
    )
    def test_maximum_nan_signed_zeros_and_ties_match_where(self, dtype_a, dtype_b):
        nan = np.nan
        a = np.array([nan, 1.0, nan, 0.0, -0.0, 2.0, -0.0, 0.0, -1.0], dtype_a)
        b = np.array([1.0, nan, nan, -0.0, 0.0, 2.0, -0.0, 0.0, 3.0], dtype_b)
        at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        out = ad.maximum(at, bt)
        take_a = a >= b
        self._assert_bitwise_equal(out.data, np.where(take_a, a, b))
        # a wins ties, so +0 vs -0 keeps a's sign; any NaN operand gives b
        assert list(np.signbit(out.data[3:5])) == [False, True]
        assert out.data[0] == 1.0 and np.isnan(out.data[1]) and np.isnan(out.data[2])
        flow = np.arange(1.0, 10.0)
        out.backward(flow)
        np.testing.assert_array_equal(at.grad, flow * take_a)
        np.testing.assert_array_equal(bt.grad, flow * ~take_a)
        np.testing.assert_array_equal(take_a, [0, 0, 0, 1, 1, 1, 1, 1, 0])

    def test_sigmoid_extreme_inputs_stable(self):
        out = ad.sigmoid(Tensor(np.array([-800.0, 800.0])))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_split_by_sign(self, dtype):
        """Same bits as evaluating 1/(1+exp(-v)) on v >= 0 and
        exp(v)/(1+exp(v)) on v < 0 separately, signed zeros and
        infinities included."""
        rng = np.random.default_rng(41)
        specials = [0.0, -0.0, np.inf, -np.inf, 1e30, -1e30, 745.0, -745.0, 88.7, -88.7]
        v = np.concatenate([rng.standard_normal(4000) * 40, specials]).astype(dtype)
        want = np.empty_like(v)
        pos = v >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        ev = np.exp(v[~pos])
        want[~pos] = ev / (1.0 + ev)
        self._assert_bitwise_equal(ad.sigmoid_forward(v), want)
        self._assert_bitwise_equal(ad.sigmoid(Tensor(v)).data, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_nan_gives_nan(self, dtype):
        out = ad.sigmoid_forward(np.array([np.nan, -np.nan, 0.0], dtype))
        assert out.dtype == dtype
        assert np.isnan(out[:2]).all() and out[2] == 0.5

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
    """Tape behaviour: single-use walks, gating, error reporting."""

    @staticmethod
    def _graph(x, w):
        """The op outputs of dice(sigmoid(x @ w), I), root last."""
        prod = ad.matmul(x, w)
        probs = ad.sigmoid(prod)
        return prod, probs, ad.loss_dice(probs, np.eye(3))

    @staticmethod
    def _leaves(seed):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.standard_normal((3, 3)), requires_grad=True) for _ in range(2)]

    def test_gradients_reach_leaves_only(self):
        x, w = self._leaves(80)
        *ops, out = self._graph(x, w)
        out.backward()
        assert all(t.grad is None for t in (*ops, out))
        arrays = [x.data, w.data]

        def loss(*arrs):
            return float(self._graph(*map(Tensor, arrs))[-1].data)

        for wrt, leaf in enumerate((x, w)):
            numeric = numeric_grad(loss, arrays, wrt, h=H)
            assert relative_error(leaf.grad, numeric) < TOL

    def test_leaf_gradients_accumulate_across_graphs(self):
        x, w = self._leaves(81)
        self._graph(x, w)[-1].backward()
        first_x, first_w = x.grad.copy(), w.grad.copy()
        self._graph(x, w)[-1].backward()
        np.testing.assert_allclose(x.grad, 2.0 * first_x, rtol=1e-12)
        np.testing.assert_allclose(w.grad, 2.0 * first_w, rtol=1e-12)

    def test_second_walk_of_a_root_raises(self):
        x, w = self._leaves(82)
        out = self._graph(x, w)[-1]
        out.backward()
        first_x = x.grad.copy()
        with pytest.raises(RuntimeError, match="already walked"):
            out.backward()
        np.testing.assert_array_equal(x.grad, first_x)

    def test_walk_from_a_second_root_through_walked_nodes_raises(self):
        x, w = self._leaves(83)
        _, probs, out = self._graph(x, w)
        other = ad.add(ad.loss_bce(probs, np.eye(3)), ad.loss_dice(ad.relu(w), np.eye(3)))
        out.backward()
        first_x, first_w = x.grad.copy(), w.grad.copy()
        with pytest.raises(RuntimeError, match="already walked"):
            other.backward()
        np.testing.assert_array_equal(x.grad, first_x)
        np.testing.assert_array_equal(w.grad, first_w)  # raised before the relu path ran

    def test_walk_frees_activations_held_only_by_the_graph(self):
        x = self._leaves(84)[0]
        mid = ad.relu(x)
        freed = weakref.ref(mid.data)
        out = ad.loss_dice(ad.sigmoid(mid), np.eye(3))
        del mid
        assert freed() is not None  # the graph holds it until the walk
        out.backward()
        assert freed() is None

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
