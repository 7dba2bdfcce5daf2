"""Tests of the numpy kernels against naive references."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro import nn
from repro.nn import functional as F
from repro.tensor import Tensor, no_grad

from .conftest import assert_grad_close, numerical_gradient


def naive_conv2d(x, w, b, stride, padding, groups=1):
    """Straightforward loop convolution used as the ground truth."""
    n, c, h, wdt = x.shape
    oc, cg, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wdt + 2 * pw - kw) // sw + 1
    out = np.zeros((n, oc, oh, ow), dtype=np.float64)
    ocg = oc // groups
    for img in range(n):
        for f in range(oc):
            g = f // ocg
            for i in range(oh):
                for j in range(ow):
                    patch = xp[img, g * cg : (g + 1) * cg,
                               i * sh : i * sh + kh, j * sw : j * sw + kw]
                    out[img, f, i, j] = (patch * w[f]).sum()
            if b is not None:
                out[img, f] += b[f]
    return out.astype(np.float32)


#: ``(cin, cout, kernel, stride, padding, groups, hw)`` for each conv2d path:
#: generic im2col, padded, stride 2, AlexNet's 5x5 pad 2, grouped,
#: depthwise, and the pointwise kernel with and without stride.
CONV_PATHS = {
    "generic": (4, 8, 3, 1, 0, 1, 9),
    "padded": (4, 8, 3, 1, 1, 1, 8),
    "stride2": (8, 16, 3, 2, 1, 1, 8),
    "5x5-pad2": (3, 8, 5, 1, 2, 1, 8),
    "grouped": (8, 12, 3, 1, 1, 2, 6),
    "depthwise": (8, 8, 3, 1, 1, 8, 6),
    "1x1": (8, 16, 1, 1, 0, 1, 6),
    "1x1-stride2": (8, 16, 1, 2, 0, 1, 6),
}


def _conv_operands(rng, cin, cout, kernel, groups, hw, n):
    """Input and weight (scaled by fan-in, as in the models) for one path."""
    fan_in = cin // groups * kernel * kernel
    x = rng.standard_normal((n, cin, hw, hw)).astype(np.float32)
    w = (rng.standard_normal((cout, cin // groups, kernel, kernel))
         / np.sqrt(fan_in)).astype(np.float32)
    b = rng.standard_normal(cout).astype(np.float32)
    return x, w, b


def naive_conv2d_input_grad(g, w, x_shape, stride, padding, groups=1):
    """Loop reference for conv2d's input gradient: scatter ``g * w`` back."""
    n, c, h, wdt = x_shape
    oc, cg, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    gx = np.zeros((n, c, h + 2 * ph, wdt + 2 * pw), dtype=np.float64)
    ocg = oc // groups
    for img in range(n):
        for f in range(oc):
            grp = f // ocg
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    gx[img, grp * cg : (grp + 1) * cg,
                       i * sh : i * sh + kh, j * sw : j * sw + kw] += g[img, f, i, j] * w[f]
    return gx[:, :, ph : ph + h, pw : pw + wdt].astype(np.float32)


#: ``(cin, cout, kernel, stride, padding, groups, (h, w))`` at the edges of
#: the tap-by-tap im2col copy: outputs whose every read falls in the
#: padding, a tap that reads nothing, odd sizes under stride 2,
#: non-square kernels, and grouped and depthwise convs with padding.
TAP_EDGES = {
    "3x3-pad2": (3, 4, (3, 3), (1, 1), (2, 2), 1, (5, 5)),
    "5x5-on-4x4-pad2": (3, 4, (5, 5), (1, 1), (2, 2), 1, (4, 4)),
    "1x1-pad1": (3, 4, (1, 1), (1, 1), (1, 1), 1, (4, 5)),
    "3x3-stride2-pad1-on-1x1": (3, 4, (3, 3), (2, 2), (1, 1), 1, (1, 1)),
    "stride2-odd": (4, 6, (3, 3), (2, 2), (1, 1), 1, (7, 9)),
    "stride2-odd-unpadded": (4, 6, (3, 3), (2, 2), (0, 0), 1, (9, 7)),
    "1x3": (4, 6, (1, 3), (1, 1), (0, 1), 1, (6, 7)),
    "3x1": (4, 6, (3, 1), (1, 1), (1, 0), 1, (7, 6)),
    "grouped-pad": (8, 12, (3, 3), (1, 1), (1, 1), 4, (6, 6)),
    "depthwise-pad-stride2": (6, 6, (3, 3), (2, 2), (1, 1), 6, (7, 7)),
}


class TestConv2d:
    @pytest.mark.parametrize("path", sorted(CONV_PATHS))
    def test_rows_are_batch_invariant(self, rng, path):
        # Resume and lane packing re-run single rows and splice them into
        # batch results: a row must come out bitwise as the batch gave it.
        cin, cout, k, s, p, groups, hw = CONV_PATHS[path]
        x, w, b = _conv_operands(rng, cin, cout, k, groups, hw, n=16)
        batch = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=s, padding=p,
                         groups=groups).data
        for row in range(len(x)):
            alone = F.conv2d(Tensor(x[row : row + 1]), Tensor(w), Tensor(b),
                             stride=s, padding=p, groups=groups).data
            np.testing.assert_array_equal(batch[row], alone[0])

    @pytest.mark.parametrize("path", sorted(CONV_PATHS))
    @pytest.mark.parametrize("bias", [True, False])
    def test_output_is_c_contiguous(self, rng, path, bias):
        # DESIGN.md §7: every conv output shares one NCHW layout, so cached
        # outputs substituted on replay reduce identically downstream.
        cin, cout, k, s, p, groups, hw = CONV_PATHS[path]
        x, w, b = _conv_operands(rng, cin, cout, k, groups, hw, n=3)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b) if bias else None,
                       stride=s, padding=p, groups=groups).data
        assert out.flags["C_CONTIGUOUS"]
        np.testing.assert_allclose(
            out, naive_conv2d(x, w, b if bias else None, (s, s), (p, p), groups),
            rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize(
        "cin,cout,stride,hw",
        [(3, 8, 1, 32), (32, 64, 2, 16), (64, 64, 1, 4)],
        ids=["3to8-32x32", "32to64-stride2", "64to64-4x4"],
    )
    def test_matches_naive_at_model_shapes(self, rng, cin, cout, stride, hw):
        x, w, b = _conv_operands(rng, cin, cout, 3, 1, hw, n=2)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=1)
        np.testing.assert_allclose(
            out.data, naive_conv2d(x, w, b, (stride, stride), (1, 1)),
            rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize(
        "stride,padding,groups",
        [((1, 1), (0, 0), 1), ((1, 1), (1, 1), 1), ((2, 2), (1, 1), 1),
         ((1, 1), (1, 1), 2), ((2, 1), (0, 1), 1), ((1, 1), (0, 0), 4)],
    )
    def test_matches_naive(self, rng, stride, padding, groups):
        x = rng.standard_normal((2, 4, 7, 6)).astype(np.float32)
        w = rng.standard_normal((8, 4 // groups, 3, 3)).astype(np.float32)
        b = rng.standard_normal(8).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                       padding=padding, groups=groups)
        np.testing.assert_allclose(
            out.data, naive_conv2d(x, w, b, stride, padding, groups), rtol=1e-4, atol=1e-4
        )

    def test_no_bias(self, rng):
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), None, padding=1)
        np.testing.assert_allclose(
            out.data, naive_conv2d(x, w, None, (1, 1), (1, 1)), rtol=1e-4, atol=1e-4
        )

    def test_1x1_kernel(self, rng):
        x = rng.standard_normal((1, 4, 5, 5)).astype(np.float32)
        w = rng.standard_normal((2, 4, 1, 1)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), None)
        expected = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0])
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-4)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 5, 5)).astype(np.float32))
        w = Tensor(rng.standard_normal((2, 4, 3, 3)).astype(np.float32))
        with pytest.raises(ValueError, match="channels"):
            F.conv2d(x, w, None)

    def test_empty_output_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 2, 2)).astype(np.float32))
        w = Tensor(rng.standard_normal((1, 1, 5, 5)).astype(np.float32))
        with pytest.raises(ValueError, match="empty output"):
            F.conv2d(x, w, None)

    def test_column_tap_ranges_are_computed_once(self, rng, monkeypatch):
        calls = []
        tap_range = F._tap_range
        monkeypatch.setattr(F, "_tap_range", lambda *a: calls.append(a) or tap_range(*a))
        x, w, b = _conv_operands(rng, 3, 4, 5, 1, 8, n=1)
        F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=2)
        assert len(calls) == 10  # 5 row taps and 5 column taps
        calls.clear()
        F.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=2)  # "same": shifted planes
        assert calls == []

    def test_dilation_unsupported(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 5, 5)).astype(np.float32))
        w = Tensor(rng.standard_normal((1, 1, 3, 3)).astype(np.float32))
        with pytest.raises(NotImplementedError):
            F.conv2d(x, w, None, dilation=2)

    @pytest.mark.parametrize("w_shape,kwargs,error,match", [
        ((2, 4, 3, 3), {}, ValueError, "channels"),
        ((1, 3, 7, 7), {}, ValueError, "empty output"),
        ((4, 1, 3, 3), {"groups": 3}, ValueError, "divisible"),
        ((1, 3, 3, 3), {"stride": [1, 1, 1]}, ValueError, "pair"),
        ((1, 3, 3, 3), {"dilation": [2, 2]}, NotImplementedError, "dilation"),
    ], ids=["channels", "empty", "groups", "stride-triple", "dilation"])
    def test_invalid_geometry_raises_on_every_call(self, rng, w_shape, kwargs, error, match):
        # The geometry is memoised; a call that raised must not be.
        x = Tensor(rng.standard_normal((1, 3, 5, 5)).astype(np.float32))
        w = Tensor(rng.standard_normal(w_shape).astype(np.float32))
        for _ in range(3):
            with pytest.raises(error, match=match):
                F.conv2d(x, w, None, **kwargs)
            with pytest.raises(error, match=match):
                F.conv2d_lanes(x, w, None, lanes=[(0, (0, 0, 0, 0), 1.0)], **kwargs)

    @pytest.mark.parametrize("stride,padding", [((1, 1), (1, 1)), ((2, 2), (1, 1)),
                                                ((1, 2), (2, 0)), ((2, 1), (0, 0))])
    def test_list_and_tuple_arguments_give_the_same_bytes(self, rng, stride, padding):
        x, w, b = _conv_operands(rng, 4, 6, 3, 1, 8, n=2)
        lanes = [(1, (2, 1, 0, 2), -3.0)]
        for as_list in (False, True, False):
            kwargs = ({"stride": list(stride), "padding": list(padding)} if as_list
                      else {"stride": stride, "padding": padding})
            out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), **kwargs).data
            rows = F.conv2d_lanes(Tensor(x), Tensor(w), Tensor(b), lanes=lanes, **kwargs)
            if not as_list:
                want = out.tobytes(), rows.tobytes()
            assert (out.tobytes(), rows.tobytes()) == want

    def test_grouped_conv_gradients(self, rng):
        x = Tensor(rng.standard_normal((2, 4, 5, 5)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((6, 2, 3, 3)).astype(np.float32) * 0.4,
                   requires_grad=True)
        b = Tensor(rng.standard_normal(6).astype(np.float32) * 0.1, requires_grad=True)

        def fn():
            return (F.conv2d(x, w, b, stride=2, padding=1, groups=2) ** 2).sum()

        fn().backward()
        assert_grad_close(x.grad, numerical_gradient(fn, x))
        assert_grad_close(w.grad, numerical_gradient(fn, w))
        assert_grad_close(b.grad, numerical_gradient(fn, b))

    @pytest.mark.parametrize("edge", sorted(TAP_EDGES))
    def test_tap_edges_match_naive(self, rng, edge):
        cin, cout, kernel, stride, padding, groups, (h, w) = TAP_EDGES[edge]
        x = rng.standard_normal((2, cin, h, w)).astype(np.float32)
        wt = rng.standard_normal((cout, cin // groups) + kernel).astype(np.float32)
        b = rng.standard_normal(cout).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(wt), Tensor(b), stride=stride,
                       padding=padding, groups=groups)
        np.testing.assert_allclose(
            out.data, naive_conv2d(x, wt, b, stride, padding, groups),
            rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("edge", sorted(TAP_EDGES))
    def test_tap_edges_input_grad_matches_naive(self, rng, edge):
        cin, cout, kernel, stride, padding, groups, (h, w) = TAP_EDGES[edge]
        x = Tensor(rng.standard_normal((2, cin, h, w)).astype(np.float32),
                   requires_grad=True)
        wt = rng.standard_normal((cout, cin // groups) + kernel).astype(np.float32)
        out = F.conv2d(x, Tensor(wt), stride=stride, padding=padding, groups=groups)
        g = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(Tensor(g))
        np.testing.assert_allclose(
            x.grad.data, naive_conv2d_input_grad(g, wt, x.shape, stride, padding, groups),
            rtol=1e-4, atol=1e-4)


def argmax_max_pool2d(x, kernel_size, stride=None, padding=0):
    """The argmax max-pool kernel the running max replaced, kept verbatim
    as the naive reference: window view, ``argmax``, ``take_along_axis``."""
    kh, kw = F._pair(kernel_size)
    sh, sw = F._pair(stride if stride is not None else kernel_size)
    ph, pw = F._pair(padding)
    n, c, h, w = x.shape
    oh = F._conv_output_size(h, kh, sh, ph)
    ow = F._conv_output_size(w, kw, sw, pw)
    xd = x.data
    if ph or pw:
        padded = np.pad(xd, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf)
    else:
        padded = xd
    windows = sliding_window_view(padded, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    cols = windows.reshape(n, c, oh, ow, kh * kw)
    flat_arg = cols.argmax(axis=-1)
    out = np.take_along_axis(cols, flat_arg[..., None], axis=-1)[..., 0]

    def backward(g):
        grad_padded = np.zeros_like(padded, dtype=g.dtype)
        ki, kj = np.unravel_index(flat_arg, (kh, kw))
        ni, ci, oi, oj = np.indices((n, c, oh, ow), sparse=False)
        rows = oi * sh + ki
        colsx = oj * sw + kj
        np.add.at(grad_padded, (ni, ci, rows, colsx), g)
        if ph or pw:
            return (grad_padded[:, :, ph : ph + h, pw : pw + w],)
        return (grad_padded,)

    return Tensor._from_op(np.ascontiguousarray(out), (x,), backward, "max_pool2d", x.device)


def adversarial_pool_input(rng, shape, dtype, nan=True):
    """Values drawn from a few specials so windows tie often: signed zeros,
    ±1, ±inf and (when ``nan``) NaNs with random signs and payloads."""
    specials = [-0.0, 0.0, 1.0, -1.0, np.inf, -np.inf]
    x = np.asarray(specials, dtype=dtype)[rng.integers(0, len(specials), shape)]
    if nan:
        bits = x.view(f"u{x.itemsize}")
        nbits = 8 * x.itemsize
        mant = np.finfo(dtype).nmant
        exp_mask = ((1 << (nbits - 1 - mant)) - 1) << mant
        where = rng.random(shape) < 0.1
        payload = rng.integers(1, 1 << mant, shape, dtype=np.uint64)
        sign = rng.integers(0, 2, shape, dtype=np.uint64) << np.uint64(nbits - 1)
        nans = (sign | np.uint64(exp_mask) | payload).astype(bits.dtype)
        bits[where] = nans[where]
    return x


#: ``(kernel, stride, padding, (h, w))``: the model configs 2/2/0 (alexnet,
#: vgg, squeezenet) and 3/1/1 (googlenet), 3/2/1 and 2/1/0, sizes the
#: stride does not divide, and windows that are mostly padding.
POOL_CONFIGS = {
    "2-2-0": (2, 2, 0, (8, 8)),
    "3-1-1": (3, 1, 1, (7, 7)),
    "3-2-1": (3, 2, 1, (8, 8)),
    "2-1-0": (2, 1, 0, (6, 6)),
    "2-2-0-odd": (2, 2, 0, (7, 9)),
    "3-2-0-odd": (3, 2, 0, (9, 8)),
    "2-2-1-mostly-pad": (2, 2, 1, (2, 2)),
    "3-2-1-on-1x1": (3, 2, 1, (1, 1)),
}


def per_row_conv2d_lanes(x, weight, bias, stride, padding, groups, lanes):
    """Reference lane kernel: per lane, rewrite the weight entry, run
    ``conv2d`` on that batch row alone and restore the entry."""
    rows = []
    for row, coords, value in lanes:
        original = weight.data[coords]
        weight.data[coords] = value
        rows.append(F.conv2d(Tensor(x.data[row : row + 1], dtype=x.dtype), weight, bias,
                             stride=stride, padding=padding, groups=groups).data[0])
        weight.data[coords] = original
    return np.stack(rows)


#: ``(cin, cout, kernel, stride, padding, groups, hw)`` for the lane kernel.
LANE_PATHS = {
    "3x3-pad0": (4, 6, 3, 1, 0, 1, 7),
    "3x3-pad1-stride2": (4, 6, 3, 2, 1, 1, 9),
    "5x5-pad2": (3, 8, 5, 1, 2, 1, 8),
    "grouped": (8, 12, 3, 1, 1, 2, 6),
    "depthwise-stride2": (8, 8, 3, 2, 1, 8, 7),
    "1x1": (8, 16, 1, 1, 0, 1, 6),
    "1x1-stride2": (8, 16, 1, 2, 0, 1, 7),
    "1x1-pad1": (4, 6, 1, 1, 1, 1, 5),
}


class TestConv2dLanes:
    @pytest.mark.parametrize("path", sorted(LANE_PATHS))
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("weight_dtype", [np.float32, np.float64])
    def test_rows_are_bitwise_the_per_row_conv(self, rng, path, bias, weight_dtype):
        cin, cout, k, s, p, groups, hw = LANE_PATHS[path]
        x, w, b = _conv_operands(rng, cin, cout, k, groups, hw, n=6)
        weight = Tensor(w, dtype=weight_dtype)
        bias_t = Tensor(b, dtype=weight_dtype) if bias else None
        before = weight.data.tobytes()
        # Repeated rows, and values a bit flip makes: huge, tiny, negated.
        lanes = []
        for row in (0, 3, 3, 5, 1):
            coords = tuple(int(rng.integers(0, d)) for d in weight.shape)
            value = weight.data[coords] * rng.choice([1e30, 1e-30, -1.0, 2.0])
            lanes.append((row, coords, value))
        got = F.conv2d_lanes(Tensor(x), weight, bias_t, stride=s, padding=p,
                             groups=groups, lanes=lanes)
        assert weight.data.tobytes() == before
        want = per_row_conv2d_lanes(Tensor(x), weight, bias_t, s, p, groups, lanes)
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        assert weight.data.tobytes() == before

    def test_weight_is_restored_when_a_lane_fails(self, rng):
        x, w, b = _conv_operands(rng, 4, 6, 3, 1, 6, n=2)
        weight = Tensor(w)
        before = weight.data.tobytes()
        with pytest.raises(IndexError):
            F.conv2d_lanes(Tensor(x), weight, Tensor(b), padding=1,
                           lanes=[(0, (0, 0, 0, 0), 5.0), (1, (0, 0, 0, 9), 5.0)])
        assert weight.data.tobytes() == before


def tap_loop_im2col(xd, kernel_hw, stride, padding, out_hw, groups):
    """The tap-by-tap column builder the shifted-plane builder replaced for
    stride-1 "same" convs, kept verbatim as the naive reference: zeroed
    columns, one strided copy per tap whose inner run is an output row."""
    kh, kw = kernel_hw
    sh, sw = stride
    ph, pw = padding
    oh, ow = out_hw
    n, c, h, w = xd.shape
    if (kh, kw) == (1, 1) and not (ph or pw):
        xs = xd if (sh, sw) == (1, 1) else xd[:, :, ::sh, ::sw]
        return xs.reshape(n, groups, c // groups, oh * ow)
    cols = (np.zeros if (ph or pw) else np.empty)((n, c, kh, kw, oh, ow), dtype=xd.dtype)
    col_ranges = [F._tap_range(j, pw, sw, w, ow) for j in range(kw)]
    for i in range(kh):
        r0, r1 = F._tap_range(i, ph, sh, h, oh)
        if r0 >= r1:
            continue
        rs = r0 * sh + i - ph
        rows = slice(rs, rs + (r1 - r0 - 1) * sh + 1, sh)
        for j, (c0, c1) in enumerate(col_ranges):
            if c0 < c1:
                cs = c0 * sw + j - pw
                cols[:, :, i, j, r0:r1, c0:c1] = xd[
                    :, :, rows, cs : cs + (c1 - c0 - 1) * sw + 1 : sw]
    return cols.reshape(n, groups, c // groups * kh * kw, oh * ow)


def special_conv_input(rng, shape, dtype):
    """Normal draws with about a third replaced by signed zeros, ±1, ±inf
    and signed NaNs with random payloads."""
    x = rng.standard_normal(shape).astype(dtype)
    where = rng.random(shape) < 0.3
    x[where] = adversarial_pool_input(rng, shape, dtype)[where]
    return x


#: Plane sizes ``(h, w)`` for the "same" conv columns: planes smaller than
#: the kernel, single rows and columns, odd and non-square.
SAME_PLANES = [(1, 1), (2, 2), (1, 4), (4, 1), (3, 2), (5, 7), (8, 8)]

#: ``(cin, cout, kernel, groups, (h, w))`` at zoo shapes: alexnet's 5x5 stem,
#: the 3x3 convs of vgg and resnet at each stage's size, a plane smaller
#: than the kernel, and a depthwise conv.
SAME_ZOO = {
    "5x5-stem": (3, 16, 5, 1, (32, 32)),
    "3x3-32x32": (16, 16, 3, 1, (32, 32)),
    "3x3-16x16": (16, 32, 3, 1, (16, 16)),
    "3x3-8x8": (32, 32, 3, 1, (8, 8)),
    "3x3-4x4": (64, 64, 3, 1, (4, 4)),
    "3x3-2x2": (64, 64, 3, 1, (2, 2)),
    "5x5-on-1x1": (8, 8, 5, 1, (1, 1)),
    "depthwise": (16, 16, 3, 16, (8, 8)),
}


class TestSamePlaneColumns:
    """Stride-1 "same" convs build their columns as shifted planes; the
    bytes equal the tap loop's, so every product of them is bitwise."""

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [(3, 3), (1, 3), (3, 1), (3, 5), (5, 5), (7, 7)])
    def test_columns_are_bitwise_the_tap_loop(self, rng, dtype, kernel):
        kh, kw = kernel
        padding = (kh // 2, kw // 2)
        for h, w in SAME_PLANES:
            for c, groups in [(3, 1), (4, 2), (4, 4)]:
                for contiguous in (True, False):
                    x = special_conv_input(rng, (2, c, h, 2 * w), dtype)
                    x = x[..., ::2] if not contiguous else x[..., :w].copy()
                    args = (kernel, (1, 1), padding, (h, w), groups)
                    got = F._im2col(x, *args)
                    want = tap_loop_im2col(x, *args)
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (h, w, c, groups, contiguous)

    @pytest.mark.parametrize("shape", sorted(SAME_ZOO))
    def test_conv2d_bytes_and_gradients_are_the_tap_loop(self, rng, monkeypatch, shape):
        cin, cout, k, groups, (h, w) = SAME_ZOO[shape]
        x, wt, b = _conv_operands(rng, cin, cout, k, groups, h, n=3)
        g = rng.standard_normal((3, cout, h, w)).astype(np.float32)

        def run():
            xt = Tensor(x, requires_grad=True)
            wtt = Tensor(wt, requires_grad=True)
            out = F.conv2d(xt, wtt, Tensor(b), padding=k // 2, groups=groups)
            out.backward(Tensor(g))
            return out.data, xt.grad.data, wtt.grad.data

        got = run()
        monkeypatch.setattr(F, "_im2col", tap_loop_im2col)
        want = run()
        for a, b_ in zip(got, want):
            assert a.tobytes() == b_.tobytes()

    @pytest.mark.parametrize("shape", sorted(SAME_ZOO))
    def test_conv2d_lanes_bytes_are_the_tap_loop(self, rng, monkeypatch, shape):
        cin, cout, k, groups, (h, w) = SAME_ZOO[shape]
        x, wt, b = _conv_operands(rng, cin, cout, k, groups, h, n=4)
        weight = Tensor(wt)
        lanes = []
        for row in (0, 2, 2, 3):
            coords = tuple(int(rng.integers(0, d)) for d in weight.shape)
            lanes.append((row, coords, weight.data[coords] * -2.0))

        def run():
            return F.conv2d_lanes(Tensor(x), weight, Tensor(b), padding=k // 2,
                                  groups=groups, lanes=lanes)

        got = run()
        monkeypatch.setattr(F, "_im2col", tap_loop_im2col)
        assert got.tobytes() == run().tobytes()


class TestPooling:
    def test_max_pool_matches_naive(self, rng):
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        out = F.max_pool2d(Tensor(x), 2, 2).data
        expected = x.reshape(1, 2, 3, 2, 3, 2).max(axis=(3, 5))
        np.testing.assert_array_equal(out, expected)

    def test_max_pool_with_padding_ignores_pad(self):
        x = np.full((1, 1, 2, 2), -5.0, dtype=np.float32)
        out = F.max_pool2d(Tensor(x), 2, 2, padding=1).data
        # Padding is -inf, so every window max is a real element.
        assert (out == -5.0).all()

    def test_max_pool_gradient_routes_to_argmax(self):
        x = Tensor(np.array([[[[1.0, 3.0], [2.0, 0.0]]]], dtype=np.float32),
                   requires_grad=True)
        F.max_pool2d(x, 2, 2).sum().backward()
        np.testing.assert_array_equal(x.grad[0, 0], [[0, 1], [0, 0]])

    def test_maximum_returns_second_operand_on_ties(self):
        # The running max relies on np.maximum(tap, out) keeping ``out``, the
        # earlier value, when the two compare equal (-0.0 == +0.0): assert it
        # at contiguous, strided and odd lengths, so a numpy change shows here.
        for dtype in (np.float32, np.float64):
            for length in (1, 3, 7, 8, 15, 16, 17, 33, 64, 257):
                for first, second in ((-0.0, 0.0), (0.0, -0.0)):
                    tap = np.full(2 * length, first, dtype=dtype)[::2]
                    out = np.full(length, second, dtype=dtype)
                    np.maximum(tap, out, out=out)
                    assert (np.signbit(out) == np.signbit(second)).all(), (dtype, length)
                    assert (np.signbit(np.maximum(tap.copy(), out.copy()))
                            == np.signbit(second)).all()

    @pytest.mark.parametrize("config", sorted(POOL_CONFIGS))
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
    def test_max_pool_is_bitwise_the_argmax_kernel(self, config, dtype, nan):
        kernel, stride, padding, (h, w) = POOL_CONFIGS[config]
        rng = np.random.default_rng([sorted(POOL_CONFIGS).index(config), nan])
        for _ in range(10):
            x = adversarial_pool_input(rng, (2, 3, h, w), dtype, nan=nan)
            want = argmax_max_pool2d(Tensor(x, dtype=dtype), kernel, stride, padding).data
            with no_grad():
                got = F.max_pool2d(Tensor(x, dtype=dtype), kernel, stride, padding).data
            assert got.dtype == want.dtype and got.flags["C_CONTIGUOUS"]
            assert got.tobytes() == want.tobytes()

            xt, xr = (Tensor(x.copy(), dtype=dtype, requires_grad=True) for _ in range(2))
            out = F.max_pool2d(xt, kernel, stride, padding)
            ref = argmax_max_pool2d(xr, kernel, stride, padding)
            assert out.data.tobytes() == want.tobytes()
            g = rng.standard_normal(out.shape).astype(dtype)
            out.backward(Tensor(g, dtype=dtype))
            ref.backward(Tensor(g, dtype=dtype))
            assert xt.grad.data.tobytes() == xr.grad.data.tobytes()

    @pytest.mark.parametrize("shape,config", [((16, 16, 32, 32), "2-2-0"),
                                              ((4, 8, 15, 15), "3-1-1"),
                                              ((4, 8, 13, 13), "3-2-0-odd")])
    def test_max_pool_matches_argmax_kernel_at_model_shapes(self, rng, shape, config):
        kernel, stride, padding, _ = POOL_CONFIGS[config]
        x = rng.standard_normal(shape).astype(np.float32)
        x[x < -1] = 0.0  # ReLU-like zeros, so ±0 ties are common
        x[x < -0.5] = -0.0
        want = argmax_max_pool2d(Tensor(x), kernel, stride, padding).data
        with no_grad():
            got = F.max_pool2d(Tensor(x), kernel, stride, padding).data
        assert got.tobytes() == want.tobytes()

    def test_max_pool_records_no_argmax_without_backward(self, monkeypatch):
        calls = []
        monkeypatch.setattr(F, "_running_argmax",
                            lambda taps, out: calls.append(1) or np.zeros(out.shape, int))
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        with no_grad():
            F.max_pool2d(Tensor(x, requires_grad=True), 2, 2)
        F.max_pool2d(Tensor(x), 2, 2)
        assert calls == []
        F.max_pool2d(Tensor(x, requires_grad=True), 2, 2)
        assert calls == [1]

    def test_avg_pool_matches_naive(self, rng):
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        out = F.avg_pool2d(Tensor(x), 2, 2).data
        expected = x.reshape(2, 3, 2, 2, 2, 2).mean(axis=(3, 5))
        np.testing.assert_allclose(out, expected, rtol=1e-5)

    def test_avg_pool_gradient(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 4, 4)).astype(np.float32),
                   requires_grad=True)

        def fn():
            return (F.avg_pool2d(x, 2, 2) ** 2).sum()

        fn().backward()
        assert_grad_close(x.grad, numerical_gradient(fn, x))

    def test_adaptive_avg_pool(self, rng):
        x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        out = F.adaptive_avg_pool2d(Tensor(x), 2)
        assert out.shape == (1, 2, 2, 2)
        with pytest.raises(ValueError, match="divisible"):
            F.adaptive_avg_pool2d(Tensor(x), 3)

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        out = F.global_avg_pool2d(Tensor(x))
        assert out.shape == (2, 3, 1, 1)
        np.testing.assert_allclose(out.data[..., 0, 0], x.mean(axis=(2, 3)), rtol=1e-5)

    @pytest.mark.parametrize("kernel,stride,padding", [(2, 2, 0), (3, 1, 1), (3, 2, 0)])
    def test_avg_pool_on_a_strided_slice_is_the_contiguous_copy(self, rng, kernel, stride,
                                                                 padding):
        # The window view is built on a C-contiguous base.
        x = rng.standard_normal((2, 6, 9, 18)).astype(np.float32)[:, ::2, :, ::2]
        assert not x.flags.c_contiguous
        g = rng.standard_normal((2, 3, (9 + 2 * padding - kernel) // stride + 1,
                                 (9 + 2 * padding - kernel) // stride + 1)).astype(np.float32)
        results = []
        for data in (x, x.copy()):
            xt = Tensor(data, requires_grad=True)
            out = F.avg_pool2d(xt, kernel, stride, padding)
            out.backward(Tensor(g))
            results.append((out.data.tobytes(), xt.grad.data.tobytes()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("pool", [F.max_pool2d, F.avg_pool2d])
    def test_list_and_tuple_arguments_give_the_same_bytes(self, rng, pool):
        x = Tensor(rng.standard_normal((2, 3, 9, 9)).astype(np.float32))
        want = pool(x, (3, 2), (2, 1), (1, 0)).data.tobytes()
        assert pool(x, [3, 2], [2, 1], [1, 0]).data.tobytes() == want
        assert pool(x, [3, 2], None, [1, 1]).data.tobytes() == pool(
            x, (3, 2), (3, 2), (1, 1)).data.tobytes()

    def test_overlapping_views_are_read_only(self, rng, monkeypatch):
        views = []
        view = F._view

        def keep(*args, **kwargs):
            views.append(view(*args, **kwargs))
            return views[-1]

        monkeypatch.setattr(F, "_view", keep)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
        F.conv2d(x, w, None, padding=1)  # shifted-plane taps
        F.avg_pool2d(x, 3, 1)  # overlapping windows
        assert [v.ndim for v in views] == [5, 6]
        for v in views:
            assert not v.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                v[(0,) * v.ndim] = 1


class TestUpsample:
    def test_nearest_doubling(self):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2))
        out = F.upsample_nearest2d(x, 2)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_array_equal(
            out.data[0, 0], [[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]]
        )

    def test_upsample_gradient_sums(self):
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
        F.upsample_nearest2d(x, 2).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((1, 1, 2, 2), 4.0))


class TestBatchNorm:
    def test_training_normalises_batch(self, rng):
        x = Tensor(rng.standard_normal((8, 4, 5, 5)).astype(np.float32) * 3 + 1)
        rm = Tensor(np.zeros(4, np.float32))
        rv = Tensor(np.ones(4, np.float32))
        out = F.batch_norm(x, rm, rv, training=True).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), np.zeros(4), atol=1e-4)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), np.ones(4), atol=1e-2)

    def test_running_stats_updated(self, rng):
        x = Tensor(rng.standard_normal((8, 2, 4, 4)).astype(np.float32) + 5.0)
        rm = Tensor(np.zeros(2, np.float32))
        rv = Tensor(np.ones(2, np.float32))
        F.batch_norm(x, rm, rv, training=True, momentum=1.0)
        np.testing.assert_allclose(rm.data, x.data.mean(axis=(0, 2, 3)), rtol=1e-4)

    def test_eval_uses_running_stats(self, rng):
        x = Tensor(rng.standard_normal((4, 2, 3, 3)).astype(np.float32))
        rm = Tensor(np.full(2, 10.0, np.float32))
        rv = Tensor(np.ones(2, np.float32))
        out = F.batch_norm(x, rm, rv, training=False).data
        np.testing.assert_allclose(out, x.data - 10.0, rtol=1e-4, atol=1e-4)

    def test_affine_params_applied(self, rng):
        x = Tensor(rng.standard_normal((4, 2, 3, 3)).astype(np.float32))
        rm = Tensor(np.zeros(2, np.float32))
        rv = Tensor(np.ones(2, np.float32))
        weight = Tensor(np.full(2, 2.0, np.float32))
        bias = Tensor(np.full(2, 1.0, np.float32))
        out = F.batch_norm(x, rm, rv, weight=weight, bias=bias, training=False).data
        np.testing.assert_allclose(out, x.data * 2 + 1, rtol=1e-3, atol=1e-4)

    def test_batchnorm1d_shape(self, rng):
        layer = nn.BatchNorm1d(6)
        out = layer(Tensor(rng.standard_normal((10, 6)).astype(np.float32)))
        assert out.shape == (10, 6)


class TestBatchNormEval:
    """Eval batch norm is one op: bitwise the composed ``Tensor`` expression."""

    @staticmethod
    def _operands(rng, shape, affine, dtype=np.float32, param_dtype=np.float32):
        c = shape[1]
        x = (rng.standard_normal(shape) * 2 + 0.5).astype(dtype)
        rm = rng.standard_normal(c).astype(np.float32)
        rv = rng.uniform(0.5, 2.0, c).astype(np.float32)
        w = rng.uniform(0.5, 1.5, c).astype(param_dtype) if affine else None
        b = rng.standard_normal(c).astype(param_dtype) if affine else None
        return x, rm, rv, w, b

    @staticmethod
    def _composed(x, rm, rv, w, b, eps=1e-5):
        """The reference: eval batch norm as composed ``Tensor`` ops."""
        shape = (1, -1, 1, 1) if x.ndim == 4 else (1, -1)
        mean = Tensor(rm.reshape(shape))
        var = Tensor(rv.reshape(shape))
        out = (x - mean) * ((var + eps) ** -0.5)
        if w is not None:
            out = out * w.reshape(shape)
        if b is not None:
            out = out + b.reshape(shape)
        return out

    @staticmethod
    def _tensors(x, w, b):
        return (Tensor(x, requires_grad=True),
                None if w is None else Tensor(w, requires_grad=True),
                None if b is None else Tensor(b, requires_grad=True))

    @pytest.mark.parametrize("shape", [(6, 5), (3, 5, 4, 4)], ids=["2d", "4d"])
    @pytest.mark.parametrize("affine", [True, False])
    def test_forward_is_bitwise_the_composed_op(self, rng, shape, affine):
        x, rm, rv, w, b = self._operands(rng, shape, affine)
        tx, tw, tb = self._tensors(x, w, b)
        out = F.batch_norm(tx, Tensor(rm), Tensor(rv), tw, tb, training=False)
        expected = self._composed(Tensor(x), rm, rv, tw, tb)
        assert out.dtype == expected.dtype
        np.testing.assert_array_equal(out.data, expected.data)

    @pytest.mark.parametrize(
        "dtype,param_dtype",
        [(np.float16, np.float32), (np.float32, np.float64), (np.float64, np.float32)],
        ids=["fp16-input", "fp64-affine", "fp64-input"])
    def test_forward_keeps_the_composed_dtype_promotion(self, rng, dtype, param_dtype):
        x, rm, rv, w, b = self._operands(rng, (3, 5, 4, 4), True, dtype, param_dtype)
        # ``dtype=`` keeps float64 data float64 (Tensor's default is float32).
        tx, tw, tb = (Tensor(a, dtype=a.dtype) for a in (x, w, b))
        out = F.batch_norm(tx, Tensor(rm), Tensor(rv), tw, tb)
        expected = self._composed(tx, rm, rv, tw, tb)
        assert out.dtype == expected.dtype == np.result_type(dtype, param_dtype)
        np.testing.assert_array_equal(out.data, expected.data)

    @pytest.mark.parametrize("shape", [(6, 5), (3, 5, 4, 4)], ids=["2d", "4d"])
    @pytest.mark.parametrize("affine", [True, False])
    def test_gradients_match_composed_autograd(self, rng, shape, affine):
        x, rm, rv, w, b = self._operands(rng, shape, affine)
        g = rng.standard_normal(shape).astype(np.float32)
        fused = self._tensors(x, w, b)
        F.batch_norm(fused[0], Tensor(rm), Tensor(rv), fused[1], fused[2],
                     training=False).backward(Tensor(g))
        composed = self._tensors(x, w, b)
        self._composed(composed[0], rm, rv, composed[1], composed[2]).backward(Tensor(g))
        for got, want in zip(fused, composed):
            if want is not None:
                np.testing.assert_allclose(got.grad.data, want.grad.data,
                                           rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("c,hw", [(8, 32), (16, 16), (32, 8), (64, 4)])
    @pytest.mark.parametrize(
        "dtype,stat_dtype",
        [(np.float32, np.float32), (np.float16, np.float32), (np.float16, np.float64)],
        ids=["fp32", "fp16-input", "fp16-input-fp64-stats"])
    def test_forward_is_bitwise_the_composed_op_at_zoo_shapes(self, rng, batch, c, hw,
                                                               dtype, stat_dtype):
        # ±0, ±1, ±inf and signed NaN payloads in x (a signalling NaN raises
        # "invalid", which campaign forwards ignore); the running statistics
        # take the Tensor constructor's float64 -> float32 rule.
        x = special_conv_input(rng, (batch, c, hw, hw), dtype)
        rm = rng.standard_normal(c).astype(stat_dtype)
        rv = rng.uniform(0.5, 2.0, c).astype(stat_dtype)
        w = rng.uniform(0.5, 1.5, c).astype(np.float32)
        b = rng.standard_normal(c).astype(np.float32)
        tx, tw, tb = (Tensor(a, dtype=a.dtype) for a in (x, w, b))
        with np.errstate(invalid="ignore"):
            out = F.batch_norm(tx, Tensor(rm, dtype=stat_dtype),
                               Tensor(rv, dtype=stat_dtype), tw, tb)
            expected = self._composed(tx, rm, rv, tw, tb)
        assert out.dtype == expected.dtype
        assert out.data.tobytes() == expected.data.tobytes()

    def test_gradients_match_finite_differences(self, rng):
        x, rm, rv, w, b = self._operands(rng, (2, 3, 3, 3), True)
        tx, tw, tb = self._tensors(x, w, b)
        g = Tensor(rng.standard_normal(x.shape).astype(np.float32))

        def fn():
            return (F.batch_norm(tx, Tensor(rm), Tensor(rv), tw, tb) * g).sum()

        fn().backward()
        for t in (tx, tw, tb):
            assert_grad_close(t.grad, numerical_gradient(fn, t))

    def test_frozen_affine_params_get_no_gradient(self, rng):
        x, rm, rv, w, b = self._operands(rng, (3, 5, 4, 4), True)
        tx, tw, tb = Tensor(x, requires_grad=True), Tensor(w), Tensor(b)
        F.batch_norm(tx, Tensor(rm), Tensor(rv), tw, tb).sum().backward()
        assert tx.grad is not None and tw.grad is None and tb.grad is None


class TestDropoutAndActivations:
    def test_dropout_eval_is_identity(self, rng):
        x = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
        out = F.dropout(x, p=0.5, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_dropout_zero_p_is_identity(self, rng):
        x = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
        assert F.dropout(x, p=0.0, training=True) is x

    def test_dropout_preserves_expectation(self):
        gen = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200), dtype=np.float32))
        out = F.dropout(x, p=0.3, training=True, rng=gen).data
        assert abs(out.mean() - 1.0) < 0.02
        assert (out == 0).mean() == pytest.approx(0.3, abs=0.02)

    def test_dropout_invalid_p(self, rng):
        x = Tensor(np.ones(3))
        with pytest.raises(ValueError, match="probability"):
            F.dropout(x, p=1.5, training=True)

    def test_leaky_relu_forward_and_grad(self, rng):
        x = Tensor(np.array([-2.0, 3.0], dtype=np.float32), requires_grad=True)
        out = F.leaky_relu(x, 0.1)
        np.testing.assert_allclose(out.data, [-0.2, 3.0], rtol=1e-5)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [0.1, 1.0])


class TestLosses:
    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.standard_normal((4, 5)).astype(np.float32)
        targets = np.array([0, 2, 4, 1])
        loss = F.cross_entropy(Tensor(logits), targets).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(4), targets].mean()
        assert loss == pytest.approx(expected, rel=1e-4)

    def test_cross_entropy_reductions(self, rng):
        logits = Tensor(rng.standard_normal((4, 5)).astype(np.float32))
        targets = np.array([0, 1, 2, 3])
        mean = F.cross_entropy(logits, targets, reduction="mean").item()
        total = F.cross_entropy(logits, targets, reduction="sum").item()
        none = F.cross_entropy(logits, targets, reduction="none")
        assert total == pytest.approx(mean * 4, rel=1e-4)
        assert none.shape == (4,)
        with pytest.raises(ValueError, match="reduction"):
            F.cross_entropy(logits, targets, reduction="bogus")

    def test_cross_entropy_label_smoothing_increases_loss_on_confident(self):
        logits = Tensor(np.array([[10.0, -10.0]], dtype=np.float32))
        targets = np.array([0])
        plain = F.cross_entropy(logits, targets).item()
        smoothed = F.cross_entropy(logits, targets, label_smoothing=0.2).item()
        assert smoothed > plain

    def test_nll_matches_cross_entropy(self, rng):
        logits = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        targets = np.array([1, 0, 3])
        ce = F.cross_entropy(logits, targets).item()
        nll = F.nll_loss(logits.log_softmax(axis=-1), targets).item()
        assert ce == pytest.approx(nll, rel=1e-5)

    def test_mse(self):
        pred = Tensor(np.array([1.0, 3.0], dtype=np.float32))
        assert F.mse_loss(pred, np.array([0.0, 0.0])).item() == pytest.approx(5.0)

    def test_bce_with_logits_matches_reference(self, rng):
        logits = rng.standard_normal(20).astype(np.float32) * 3
        targets = (rng.random(20) > 0.5).astype(np.float32)
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), Tensor(targets)).item()
        p = 1 / (1 + np.exp(-logits.astype(np.float64)))
        expected = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        assert loss == pytest.approx(expected, rel=1e-4)

    def test_bce_gradient(self, rng):
        logits = Tensor(rng.standard_normal(6).astype(np.float32), requires_grad=True)
        targets = Tensor((rng.random(6) > 0.5).astype(np.float32))

        def fn():
            return F.binary_cross_entropy_with_logits(logits, targets, reduction="sum")

        fn().backward()
        assert_grad_close(logits.grad, numerical_gradient(fn, logits))

    def test_cross_entropy_gradient(self, rng):
        logits = Tensor(rng.standard_normal((3, 4)).astype(np.float32),
                        requires_grad=True)
        targets = np.array([0, 3, 2])

        def fn():
            return F.cross_entropy(logits, targets)

        fn().backward()
        assert_grad_close(logits.grad, numerical_gradient(fn, logits))


class TestLinearDtypeGuard:
    """linear() casts weight/bias to the input dtype, like conv2d does."""

    def test_output_dtype_follows_input(self, rng):
        x = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
        weight = Tensor(rng.standard_normal((3, 8)), dtype=np.float64)
        bias = Tensor(rng.standard_normal(3), dtype=np.float64)
        out = F.linear(x, weight, bias)
        assert out.dtype == np.float32
        reference = F.linear(x, weight.astype(np.float32), bias.astype(np.float32))
        np.testing.assert_array_equal(out.data, reference.data)

    def test_param_grads_keep_param_dtype(self, rng):
        x = Tensor(rng.standard_normal((4, 8)).astype(np.float32), requires_grad=True)
        weight = Tensor(rng.standard_normal((3, 8)), dtype=np.float64, requires_grad=True)
        bias = Tensor(rng.standard_normal(3), dtype=np.float64, requires_grad=True)
        F.linear(x, weight, bias).sum().backward()
        assert x.grad.dtype == np.float32
        assert weight.grad.dtype == np.float64
        assert bias.grad.dtype == np.float64

    def test_no_float64_intermediate(self, rng):
        """The largest tensor allocated must be the float32 output, not a
        float64 matmul product twice its size."""
        from repro.tensor.tensor import set_alloc_hook

        x = Tensor(rng.standard_normal((256, 64)).astype(np.float32))
        w32 = Tensor(rng.standard_normal((128, 64)).astype(np.float32))
        b32 = Tensor(rng.standard_normal(128).astype(np.float32))
        w64 = w32.astype(np.float64)
        b64 = b32.astype(np.float64)

        def max_alloc(weight, bias):
            allocs = []
            previous = set_alloc_hook(allocs.append)
            try:
                F.linear(x, weight, bias)
            finally:
                set_alloc_hook(previous)
            return max(allocs)

        baseline = max_alloc(w32, b32)
        assert baseline == 256 * 128 * 4  # the float32 output itself
        assert max_alloc(w64, b64) == baseline


class TestVectorizedBackwardBitwise:
    """The strided-accumulation backward paths match the scatter loops bitwise."""

    @pytest.mark.parametrize(
        "kernel,stride,padding,hw",
        [((2, 2), (2, 2), (0, 0), (8, 8)),      # classic non-overlapping
         ((3, 3), (3, 3), (0, 0), (9, 9)),
         ((4, 4), (4, 4), (0, 0), (16, 16)),
         ((2, 2), (3, 3), (1, 1), (8, 8)),      # gaps between windows
         ((3, 2), (2, 2), (1, 0), (8, 8)),      # overlapping rows: loop path
         ((2, 2), (1, 1), (0, 0), (6, 6))],     # fully overlapping: loop path
    )
    def test_avg_pool2d_backward_matches_scatter_loop(self, rng, kernel, stride,
                                                      padding, hw):
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        h, w = hw
        x = Tensor(rng.standard_normal((3, 5, h, w)).astype(np.float32),
                   requires_grad=True)
        out = F.avg_pool2d(x, kernel, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(Tensor(g))
        oh, ow = out.shape[2:]
        grad_padded = np.zeros((3, 5, h + 2 * ph, w + 2 * pw), dtype=np.float32)
        share = g / (kh * kw)
        for i in range(kh):
            for j in range(kw):
                grad_padded[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += share
        expected = grad_padded[:, :, ph : ph + h, pw : pw + w] if (ph or pw) else grad_padded
        np.testing.assert_array_equal(x.grad.data, expected)

    @pytest.mark.parametrize(
        "cin,cout,groups,kernel,stride,padding,hw",
        [(6, 8, 1, (3, 3), (1, 1), (1, 1), (10, 10)),
         (6, 8, 2, (3, 3), (2, 2), (1, 1), (11, 11)),
         (8, 8, 8, (3, 3), (1, 1), (1, 1), (8, 8)),   # depthwise
         (4, 6, 1, (5, 3), (2, 1), (2, 1), (12, 12)),
         (3, 8, 1, (3, 3), (1, 1), (0, 0), (9, 9))],
    )
    def test_conv2d_input_grad_matches_col2im_loop(self, rng, cin, cout, groups,
                                                   kernel, stride, padding, hw):
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        h, w = hw
        n, c_per_group = 2, cin // groups
        x = Tensor(rng.standard_normal((n, cin, h, w)).astype(np.float32),
                   requires_grad=True)
        wt = Tensor(rng.standard_normal((cout, c_per_group, kh, kw)).astype(np.float32),
                    requires_grad=True)
        out = F.conv2d(x, wt, stride=stride, padding=padding, groups=groups)
        g = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(Tensor(g))
        # Reference: the pre-vectorisation col2im scatter over a transposed copy.
        oh, ow = out.shape[2:]
        w_mat = wt.data.reshape(groups, cout // groups, c_per_group * kh * kw)
        g_mat = np.ascontiguousarray(g).reshape(n, groups, cout // groups, oh * ow)
        grad_cols = np.matmul(g_mat.transpose(0, 1, 3, 2), w_mat)
        grad_cols = grad_cols.reshape(n, groups, oh, ow, c_per_group, kh, kw)
        grad_cols = grad_cols.transpose(0, 1, 4, 2, 3, 5, 6).reshape(
            n, cin, oh, ow, kh, kw)
        gx = np.zeros((n, cin, h + 2 * ph, w + 2 * pw), dtype=np.float32)
        for i in range(kh):
            for j in range(kw):
                gx[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += (
                    grad_cols[:, :, :, :, i, j])
        expected = gx[:, :, ph : ph + h, pw : pw + w] if (ph or pw) else gx
        np.testing.assert_array_equal(x.grad.data, expected)
