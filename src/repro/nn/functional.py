"""Functional neural-network kernels with custom autograd rules.

The convolution is an im2col transform (forward) and a col2im scatter
(backward); grouped convolution supports the depthwise nets in the zoo
(MobileNet, ShuffleNet).  All kernels are pure numpy — this is the
"silicon" of the reproduction, replacing PyTorch's ATen (see DESIGN.md §2).

The im2col columns are K-major, ``(N, G, Cg*KH*KW, OH*OW)``, built by one
helper (``_im2col``) for both ``conv2d`` and the weight-lane kernel
``conv2d_lanes``.  The geometry picks one of three builders, which give
the same bytes: a 1x1 unpadded kernel's columns are the input itself; a
stride-1 "same" conv copies each input plane once into a zero-margined
flat buffer and reads every tap as that plane shifted, in one strided
copy; any other conv is written tap by tap from the unpadded input, each
copy running along whole output rows.  No padded copy of the input and
no window view is staged, and the GEMM ``w_mat @ cols`` needs no
transposed operand.  Its ``(N, G, OCg, OH*OW)`` result is NCHW as a view
(DESIGN.md §7), and each batch row is its own GEMM, so rows do not depend
on the batch around them.

Eval-mode batch norm is one op over the running statistics, computed in a
single buffer with a hand-written backward.  Max pooling is a running max
over strided tap views that follows ``argmax``'s tie rule bitwise.

The fixed cost around each kernel call is kept small (DESIGN.md §2).
Overlapping windows (the shifted-plane taps, the avg-pool windows) are
one ``np.ndarray(shape, dtype, buffer, strides=)`` view of a C-contiguous
buffer, marked read-only: about 2.1 µs a view against 7.8 µs for numpy's
``as_strided``.  A conv's or a pooling layer's geometry is validated once
per ``(input shape, weight shape, stride, padding, dilation, groups)``
and memoised in a bounded LRU memo.  Eval batch norm on a batch of more
than one row runs on ``(N, C, H*W)`` against per-channel ``(1, C, H*W)``
planes, which numpy sweeps 2-3x faster than ``(1, C, 1, 1)`` operands.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..tensor import Tensor, is_grad_enabled
from ..tensor import rng as _rng


def _pair(value):
    """Coerce an int-or-pair argument to a 2-tuple."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected an int or a pair, got {value!r}")
        return tuple(int(v) for v in value)
    return (int(value), int(value))


def _conv_output_size(size, kernel, stride, padding):
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces empty output: input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def _view(base, shape, strides, writeable=False):
    """A strided view of C-contiguous ``base`` by one ``np.ndarray`` call,
    read-only unless asked; a view whose windows overlap must stay so."""
    view = np.ndarray(shape, base.dtype, base, strides=strides)
    if not writeable:
        view.flags.writeable = False
    return view


def _windows(padded, kernel_hw, stride_hw, writeable=False):
    """Window view ``(N, C, OH, OW, KH, KW)`` over a C-contiguous NCHW array."""
    kh, kw = kernel_hw
    sh, sw = stride_hw
    n, c, h, w = padded.shape
    s0, s1, s2, s3 = padded.strides
    return _view(padded, (n, c, (h - kh) // sh + 1, (w - kw) // sw + 1, kh, kw),
                 (s0, s1, sh * s2, sw * s3, s2, s3), writeable)


def _tap_range(k, pad, stride, size, out):
    """Outputs ``[lo, hi)`` whose kernel tap ``k`` reads inside the input.

    Output ``o`` reads input index ``o * stride + k - pad``; the range is
    empty (``lo >= hi``) when every read of the tap falls in the padding.
    """
    lo = max(0, -((k - pad) // stride))
    hi = min(out, (size - 1 + pad - k) // stride + 1)
    return lo, hi


def _conv_geometry(x_shape, w_shape, stride, padding, dilation, groups):
    """Validate a conv2d call; ``((sh, sw), (ph, pw), (oh, ow))``.

    Memoised per call signature, with list arguments made tuples to key
    the memo.  A geometry that raises is not memoised, so it raises on
    every call.
    """
    return _conv_geometry_memo(tuple(x_shape), tuple(w_shape), _hashable(stride),
                               _hashable(padding), _hashable(dilation), groups)


def _hashable(value):
    return tuple(value) if isinstance(value, list) else value


@functools.lru_cache(maxsize=1024)
def _conv_geometry_memo(x_shape, w_shape, stride, padding, dilation, groups):
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    dh, dw = _pair(dilation)
    if (dh, dw) != (1, 1):
        raise NotImplementedError("dilation > 1 is not required by the model zoo and is unsupported")
    _, c, h, w = x_shape
    oc, c_per_group, kh, kw = w_shape
    if c != c_per_group * groups:
        raise ValueError(
            f"input channels ({c}) do not match weight ({c_per_group}) x groups ({groups})"
        )
    if oc % groups != 0:
        raise ValueError(f"out_channels ({oc}) must be divisible by groups ({groups})")
    oh = _conv_output_size(h, kh, sh, ph)
    ow = _conv_output_size(w, kw, sw, pw)
    return (sh, sw), (ph, pw), (oh, ow)


def _conv_operands(weight, bias, groups, dtype):
    """The GEMM weight ``(G, OCg, Cg*KH*KW)`` and the bias, in ``dtype``.

    Keeping every matmul operand in the input dtype matters: a float64
    weight (or bias) would silently upcast the whole im2col product and
    force a downcast copy of the output afterwards.  In the input dtype the
    weight matrix is a view, so an in-place edit of the weight shows in it.
    """
    oc, c_per_group, kh, kw = weight.shape
    w_mat = _as_dtype(weight.data.reshape(groups, oc // groups, c_per_group * kh * kw),
                      dtype)
    bias_vec = None if bias is None else _as_dtype(bias.data, dtype)
    return w_mat, bias_vec


def _im2col(xd, kernel_hw, stride, padding, out_hw, groups):
    """K-major columns ``(N, G, Cg*KH*KW, OH*OW)`` of NCHW input ``xd``.

    Tap (i, j) of output (r, c) reads input (r*sh + i - ph, c*sw + j - pw);
    a read that falls in the padding gives a zero.  Three builders, chosen
    by the geometry:

    * a 1x1 unpadded kernel's columns are the input itself (strided if
      needed; the reshape copies only when the stride slice is real);
    * a stride-1 "same" conv (OH, OW == H, W): tap (i, j) is the flat
      input plane shifted by ``(i - ph)*W + (j - pw)``.  Each plane is
      copied once into a zero-margined flat buffer, one strided view reads
      every tap's whole plane, and per kernel column ``j`` the outputs whose
      read wrapped into the neighbouring row are zeroed;
    * otherwise the columns ``(N, C, KH, KW, OH, OW)`` are written tap by
      tap from the unpadded input into zeros, each copy's inner run an
      output row.

    All three give the same bytes for the same geometry.
    """
    kh, kw = kernel_hw
    sh, sw = stride
    ph, pw = padding
    oh, ow = out_hw
    n, c, h, w = xd.shape
    if (kh, kw) == (1, 1) and not (ph or pw):
        xs = xd if (sh, sw) == (1, 1) else xd[:, :, ::sh, ::sw]
        return xs.reshape(n, groups, c // groups, oh * ow)
    if (sh, sw) == (1, 1) and (oh, ow) == (h, w):
        # Shifts span [-margin, margin]: a read above or below the image
        # lands in a margin zero, one left or right of it wraps a row.
        margin = ph * w + pw
        flat = np.empty((n, c, h * w + 2 * margin), dtype=xd.dtype)
        flat[:, :, :margin] = 0
        flat[:, :, margin + h * w:] = 0
        flat[:, :, margin:margin + h * w].reshape(n, c, h, w)[...] = xd
        e = flat.itemsize
        taps = _view(flat, (n, c, kh, kw, h * w), flat.strides[:2] + (w * e, e, e))
        cols = np.empty((n, c, kh, kw, oh, ow), dtype=xd.dtype)
        cols.reshape(taps.shape)[...] = taps
        for j in range(kw):
            if j < pw:
                cols[:, :, :, j, :, :pw - j] = 0
            elif j > pw:
                cols[:, :, :, j, :, max(w + pw - j, 0):] = 0
        return cols.reshape(n, groups, c // groups * kh * kw, oh * ow)
    cols = (np.zeros if (ph or pw) else np.empty)((n, c, kh, kw, oh, ow), dtype=xd.dtype)
    col_ranges = [_tap_range(j, pw, sw, w, ow) for j in range(kw)]
    for i in range(kh):
        r0, r1 = _tap_range(i, ph, sh, h, oh)
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


def conv2d(x, weight, bias=None, stride=1, padding=0, dilation=1, groups=1):
    """2-D convolution (cross-correlation) on NCHW input.

    ``weight`` has shape ``(out_channels, in_channels // groups, KH, KW)``.
    """
    (sh, sw), (ph, pw), (oh, ow) = _conv_geometry(x.shape, weight.shape, stride,
                                                  padding, dilation, groups)
    n, c, h, w = x.shape
    oc, c_per_group, kh, kw = weight.shape
    oc_per_group = oc // groups
    xd = x.data
    w_mat, bias_vec = _conv_operands(weight, bias, groups, xd.dtype)
    cols_mat = _im2col(xd, (kh, kw), (sh, sw), (ph, pw), (oh, ow), groups)

    if (kh, kw) == (1, 1) and not (ph or pw):
        # Pointwise convolution: the columns are the (strided) input.
        return _conv2d_pointwise(x, weight, bias, w_mat, bias_vec, cols_mat,
                                 (sh, sw), groups, (oh, ow))

    # (N, G, OCg, OH*OW).  This orientation reshapes to NCHW as a contiguous
    # view, so conv outputs always share one memory layout — checkpoint
    # replays that substitute cached (contiguous) outputs stay bitwise
    # identical through layout-sensitive downstream reductions.
    out = np.matmul(w_mat, cols_mat)
    out = out.reshape(n, oc, oh, ow)
    if bias_vec is not None:
        out += bias_vec.reshape(1, oc, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        g = np.ascontiguousarray(g)
        # (N, G, OCg, OH*OW)
        g_mat = g.reshape(n, groups, oc_per_group, oh * ow)
        grad_w = grad_x = grad_b = None
        if weight.requires_grad:
            # sum over batch: (G, OCg, Cg*KH*KW)
            grad_w = np.einsum("ngop,ngkp->gok", g_mat, cols_mat, optimize=True)
            grad_w = grad_w.reshape(oc, c_per_group, kh, kw)
            grad_w = _as_dtype(grad_w, weight.dtype)
        if x.requires_grad:
            # K-major like the forward's columns: (N, G, Cg*KH*KW, OH*OW)
            grad_cols = np.matmul(w_mat.transpose(0, 2, 1), g_mat)
            grad_cols = grad_cols.reshape(n, groups, c_per_group, kh, kw, oh, ow)
            gx_padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=xd.dtype)
            hp, wp = gx_padded.shape[2:]
            # Accumulate through strided views on both sides instead of
            # materialising the (N, C, OH, OW, KH, KW) transpose copy the
            # scatter used to index; per-element addition order is the same
            # (i, j) sweep, so gradients stay bitwise-identical.
            gxg = gx_padded.reshape(n, groups, c_per_group, hp, wp)
            for i in range(kh):
                for j in range(kw):
                    gxg[:, :, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += (
                        grad_cols[:, :, :, i, j])
            grad_x = gx_padded[:, :, ph : ph + h, pw : pw + w] if (ph or pw) else gx_padded
            grad_x = _as_dtype(grad_x, x.dtype)
        if bias is not None and bias.requires_grad:
            grad_b = _as_dtype(g.sum(axis=(0, 2, 3)), bias.dtype)
        if bias is None:
            return (grad_x, grad_w)
        return (grad_x, grad_w, grad_b)

    return Tensor._from_op(_as_dtype(out, x.dtype), parents, backward, "conv2d", x.device)


def _as_dtype(array, dtype):
    """``astype`` without the unconditional copy numpy's default performs."""
    if array.dtype == dtype:
        return array
    return array.astype(dtype)


def _conv2d_pointwise(x, weight, bias, w_mat, bias_vec, x_flat, stride, groups, out_hw):
    """1x1-kernel conv2d: one batched matmul over the (strided) input.

    For a 1x1 kernel the K-major im2col columns ``x_flat``,
    ``(N, G, Cg, OH*OW)``, are the input itself, so no window copy is made
    and the backward scatters the input gradient back through the stride.
    """
    sh, sw = stride
    oh, ow = out_hw
    n, c, h, w = x.shape
    oc = w_mat.shape[0] * w_mat.shape[1]
    out = np.matmul(w_mat, x_flat)  # (N, G, OCg, OH*OW)
    out = out.reshape(n, oc, oh, ow)
    if bias_vec is not None:
        out += bias_vec.reshape(1, oc, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        g_mat = np.ascontiguousarray(g).reshape(n, groups, oc // groups, oh * ow)
        grad_w = grad_x = grad_b = None
        if weight.requires_grad:
            grad_w = np.einsum("ngop,ngkp->gok", g_mat, x_flat, optimize=True)
            grad_w = _as_dtype(grad_w.reshape(weight.shape), weight.dtype)
        if x.requires_grad:
            grad_sub = np.matmul(w_mat.transpose(0, 2, 1), g_mat)  # (N, G, Cg, OH*OW)
            grad_sub = grad_sub.reshape(n, c, oh, ow)
            if (sh, sw) == (1, 1):
                grad_x = grad_sub
            else:
                grad_x = np.zeros((n, c, h, w), dtype=grad_sub.dtype)
                grad_x[:, :, ::sh, ::sw] = grad_sub
            grad_x = _as_dtype(grad_x, x.dtype)
        if bias is not None and bias.requires_grad:
            grad_b = _as_dtype(g.sum(axis=(0, 2, 3)), bias.dtype)
        if bias is None:
            return (grad_x, grad_w)
        return (grad_x, grad_w, grad_b)

    return Tensor._from_op(_as_dtype(out, x.dtype), parents, backward, "conv2d", x.device)


def conv2d_lanes(x, weight, bias=None, stride=1, padding=0, dilation=1, groups=1,
                 lanes=()):
    """Per-lane weight-perturbed conv rows (the lane-packing weight delta).

    ``lanes`` is a sequence of ``(row, coords, value)`` triples.  The lanes'
    batch rows share one im2col buffer; for each lane the weight entry at
    ``coords`` is set to ``value``, the row's one GEMM runs and the bias is
    added — the operands and ops :func:`conv2d` gives that row, so the row
    is bitwise the row a whole-batch forward under the rewritten weight
    would produce — and the weight is bitwise-restored before the next
    lane.  Returns the perturbed rows stacked on a new leading axis.
    """
    (sh, sw), (ph, pw), (oh, ow) = _conv_geometry(x.shape, weight.shape, stride,
                                                  padding, dilation, groups)
    oc, _, kh, kw = weight.shape
    xd = x.data
    cols_mat = _im2col(xd[[row for row, _, _ in lanes]], (kh, kw), (sh, sw),
                       (ph, pw), (oh, ow), groups)
    out = np.empty((len(lanes), oc, oh, ow), dtype=xd.dtype)
    wd = weight.data
    for lane, (_, coords, value) in enumerate(lanes):
        original = wd[coords]
        wd[coords] = value
        try:
            w_mat, bias_vec = _conv_operands(weight, bias, groups, xd.dtype)
            row = np.matmul(w_mat, cols_mat[lane : lane + 1]).reshape(1, oc, oh, ow)
            if bias_vec is not None:
                row += bias_vec.reshape(1, oc, 1, 1)
            out[lane] = row[0]
        finally:
            wd[coords] = original
    return out


def linear_lanes(x, weight, bias=None, lanes=()):
    """Per-lane weight-perturbed linear rows; see :func:`conv2d_lanes`."""
    rows = []
    wd = weight.data
    for row, coords, value in lanes:
        original = wd[coords]
        wd[coords] = value
        try:
            x_row = Tensor(np.ascontiguousarray(x.data[row : row + 1]),
                           device=x.device)
            rows.append(linear(x_row, weight, bias).data[0])
        finally:
            wd[coords] = original
    return np.stack(rows)


def linear(x, weight, bias=None):
    """``y = x @ weight.T + bias`` with ``weight`` of shape ``(out, in)``.

    Operands are cast to the input dtype first, the same guard ``conv2d``
    applies: a float64 weight (or bias) would silently upcast the whole
    matmul and force a downcast copy of the output.  ``Tensor.astype`` is
    autograd-aware, so parameter gradients still arrive in the parameter's
    own dtype.
    """
    if weight.dtype != x.dtype:
        weight = weight.astype(x.dtype)
    if bias is not None and bias.dtype != x.dtype:
        bias = bias.astype(x.dtype)
    out = x @ weight.transpose(1, 0) if weight.ndim == 2 else x @ weight
    if bias is not None:
        out = out + bias
    return out


def max_pool2d(x, kernel_size, stride=None, padding=0):
    """Max pooling over NCHW input with argmax-routed gradients.

    The output is a running max over the ``kh*kw`` strided tap views of the
    (``-inf``-padded) input, taken in ``(i, j)`` order, and it follows
    ``argmax``'s rule (DESIGN.md §2): a later tap replaces the value only
    if it is strictly greater, or if it is the window's first NaN.  So a
    ``-0.0``/``+0.0`` tie keeps the earlier zero and a NaN keeps its sign
    and payload.  The tap index of each maximum is tracked only where a
    backward can run.
    """
    (kh, kw), (sh, sw), (ph, pw), (oh, ow) = _pool_geometry(x.shape, kernel_size,
                                                            stride, padding)
    n, c, h, w = x.shape
    xd = x.data
    padded = xd
    if ph or pw:
        padded = np.full((n, c, h + 2 * ph, w + 2 * pw), -np.inf, dtype=xd.dtype)
        padded[:, :, ph : ph + h, pw : pw + w] = xd
    taps = [padded[:, :, i : i + sh * (oh - 1) + 1 : sh, j : j + sw * (ow - 1) + 1 : sw]
            for i in range(kh) for j in range(kw)]
    out = taps[0].copy()
    flat_arg = None
    if is_grad_enabled() and x.requires_grad:
        flat_arg = _running_argmax(taps, out)
    elif out.dtype not in (np.float32, np.float64):
        # np.maximum returns its first operand on a float16 tie.
        _running_argmax(taps, out)
    else:
        # On a float32/float64 tie np.maximum returns its second operand,
        # the earlier tap (asserted in the tests), and any NaN propagates.
        # Which NaN comes out when two meet is not argmax's, so a NaN
        # output is refolded by the rule.
        for tap in taps[1:]:
            np.maximum(tap, out, out=out)
        if np.isnan(out).any():
            np.copyto(out, taps[0])
            _running_argmax(taps, out)

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

    return Tensor._from_op(out, (x,), backward, "max_pool2d", x.device)


def _pool_geometry(x_shape, kernel_size, stride, padding):
    """``(kernel, stride, padding, out)`` pairs of a pooling call.

    A pooling window is a depthwise conv's ``(C, 1, KH, KW)`` kernel, so
    pooling shares the conv geometry memo; the stride defaults to the
    kernel size.
    """
    kernel = _pair(kernel_size)
    stride, padding, out = _conv_geometry(
        x_shape, (x_shape[1], 1) + kernel,
        kernel if stride is None else stride, padding, 1, x_shape[1])
    return kernel, stride, padding, out


def _running_argmax(taps, out):
    """Fold taps ``1..`` into ``out`` (holding tap 0) by argmax's rule.

    Returns each output's first maximal tap index, as ``argmax`` over the
    window's flattened taps would.
    """
    arg = np.zeros(out.shape, dtype=np.intp)
    with np.errstate(invalid="ignore"):
        for k, tap in enumerate(taps[1:], 1):
            take = tap > out
            if out.dtype.kind == "f":
                take |= np.isnan(tap) & ~np.isnan(out)
            np.copyto(out, tap, where=take)
            arg[take] = k
    return arg


def avg_pool2d(x, kernel_size, stride=None, padding=0):
    """Average pooling over NCHW input."""
    (kh, kw), (sh, sw), (ph, pw), (oh, ow) = _pool_geometry(x.shape, kernel_size,
                                                            stride, padding)
    n, c, h, w = x.shape
    xd = x.data
    # The window view needs a C-contiguous base.
    padded = (np.pad(xd, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw)
              else np.ascontiguousarray(xd))
    cols = _windows(padded, (kh, kw), (sh, sw))
    out = cols.mean(axis=(-2, -1))

    def backward(g):
        grad_padded = np.zeros_like(padded, dtype=g.dtype)
        share = g / (kh * kw)
        if sh >= kh and sw >= kw:
            # Non-overlapping windows: every padded cell belongs to at most
            # one window, so a single broadcast assignment through the same
            # strided window view the forward used replaces the kh*kw
            # scatter loop.  Each cell is written (not accumulated) exactly
            # once, so gradients are bitwise-identical to the loop.
            win = _windows(grad_padded, (kh, kw), (sh, sw), writeable=True)
            win[...] = share[:, :, :, :, None, None]
        else:
            for i in range(kh):
                for j in range(kw):
                    grad_padded[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += share
        if ph or pw:
            return (grad_padded[:, :, ph : ph + h, pw : pw + w],)
        return (grad_padded,)

    return Tensor._from_op(np.ascontiguousarray(out), (x,), backward, "avg_pool2d", x.device)


def adaptive_avg_pool2d(x, output_size):
    """Adaptive average pooling; requires input dims divisible by the target."""
    th, tw = _pair(output_size)
    _, _, h, w = x.shape
    if h % th or w % tw:
        raise ValueError(
            f"adaptive_avg_pool2d requires divisible sizes, got input {h}x{w} -> {th}x{tw}"
        )
    return avg_pool2d(x, kernel_size=(h // th, w // tw))


def global_avg_pool2d(x):
    """Mean over the spatial dims, keeping a 1x1 spatial footprint."""
    return x.mean(axis=(2, 3), keepdims=True)


def upsample_nearest2d(x, scale_factor=2):
    """Nearest-neighbour spatial upsampling (used by the YOLO head)."""
    s = int(scale_factor)
    n, c, h, w = x.shape
    out = np.repeat(np.repeat(x.data, s, axis=2), s, axis=3)

    def backward(g):
        g = g.reshape(n, c, h, s, w, s)
        return (g.sum(axis=(3, 5)),)

    return Tensor._from_op(out, (x,), backward, "upsample_nearest2d", x.device)


def batch_norm(x, running_mean, running_var, weight=None, bias=None, training=False,
               momentum=0.1, eps=1e-5):
    """Batch normalization over NCHW (per-channel) or NC input.

    Running statistics are updated in place when ``training`` is true,
    matching ``torch.nn.functional.batch_norm`` semantics.
    """
    axes = (0, 2, 3) if x.ndim == 4 else (0,)
    shape = (1, -1, 1, 1) if x.ndim == 4 else (1, -1)
    if not training:
        return _batch_norm_eval(x, running_mean, running_var, weight, bias, eps,
                                axes, shape)
    mean = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    if running_mean is not None:
        count = int(np.prod([x.shape[a] for a in axes]))
        unbiased = var.data.reshape(-1) * count / max(count - 1, 1)
        running_mean.data[...] = (1 - momentum) * running_mean.data + momentum * mean.data.reshape(-1)
        running_var.data[...] = (1 - momentum) * running_var.data + momentum * unbiased
    inv_std = (var + eps) ** -0.5
    out = (x - mean) * inv_std
    if weight is not None:
        out = out * weight.reshape(shape)
    if bias is not None:
        out = out + bias.reshape(shape)
    return out


def _batch_norm_eval(x, running_mean, running_var, weight, bias, eps, axes, shape):
    """Eval batch norm over the running statistics as one op.

    The forward is ``((x - mean) * inv_std) * w + b`` — the ops, operand
    dtypes and order of the composed ``Tensor`` expression, so the output
    is bitwise the same — written into one buffer instead of four
    temporaries.  The ops run on ``x`` as ``(N, C, H*W)``; when the batch
    has more than one row, against per-channel ``(1, C, H*W)`` planes built
    once per call.  Against ``(1, C, 1)`` operands numpy runs one short
    broadcast inner loop per ``(n, c)``; at batch 1 a plane costs what it
    saves.  The backward (for ``x``, ``weight`` and ``bias``; Grad-CAM
    takes eval-mode gradients) is written out by hand.
    """
    xd = x.data
    mean = _running_stat(running_mean.data)
    var = _running_stat(running_var.data)
    inv_std = (var + np.asarray(eps, dtype=var.dtype)) ** -0.5
    w = weight.data if weight is not None else None
    b = bias.data if bias is not None else None
    n, c = xd.shape[:2]
    hw = math.prod(xd.shape[2:])
    operands = [v.reshape(1, c, 1) for v in (mean, inv_std, w, b) if v is not None]
    if n > 1 and hw > 1:
        operands = [v.repeat(hw, axis=2) for v in operands]
    out = _into(np.multiply, xd.reshape(n, c, hw) - operands[0], operands[1])
    if weight is not None:
        out = _into(np.multiply, out, operands[2])
    if bias is not None:
        out = _into(np.add, out, operands[-1])
    out = out.reshape(xd.shape)
    parents = tuple(t for t in (x, weight, bias) if t is not None)

    def backward(g):
        mean_b, inv_std_b = mean.reshape(shape), inv_std.reshape(shape)
        w_b = w.reshape(shape) if weight is not None else None
        grads = [((g * w_b) if weight is not None else g) * inv_std_b
                 if x.requires_grad else None]
        if weight is not None:
            grads.append((g * ((xd - mean_b) * inv_std_b)).sum(axis=axes).reshape(weight.shape)
                         if weight.requires_grad else None)
        if bias is not None:
            grads.append(g.sum(axis=axes).reshape(bias.shape)
                         if bias.requires_grad else None)
        return tuple(grads)

    return Tensor._from_op(out, parents, backward, "batch_norm", x.device)


def _running_stat(data):
    """A running statistic in the dtype the ``Tensor`` constructor gives it
    (float64 becomes float32): the dtype rule of the composed expression
    that eval batch norm matches bitwise."""
    return data.astype(np.float32) if data.dtype == np.float64 else data


def _into(ufunc, out, operand):
    """``ufunc(out, operand)``, written into ``out`` when that keeps its dtype."""
    if np.promote_types(out.dtype, operand.dtype) == out.dtype:
        return ufunc(out, operand, out=out)
    return ufunc(out, operand)


def dropout(x, p=0.5, training=True, rng=None):
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p == 0:
        return x
    if not 0 <= p < 1:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    gen = _rng.coerce_generator(rng)
    mask = (gen.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    return x * Tensor(mask, device=x.device)


def relu(x):
    return x.relu()


def leaky_relu(x, negative_slope=0.01):
    data = np.where(x.data > 0, x.data, negative_slope * x.data)

    def backward(g):
        return (np.where(x.data > 0, g, negative_slope * g),)

    return Tensor._from_op(data.astype(x.dtype), (x,), backward, "leaky_relu", x.device)


def sigmoid(x):
    return x.sigmoid()


def tanh(x):
    return x.tanh()


def softmax(x, axis=-1):
    return x.softmax(axis=axis)


def log_softmax(x, axis=-1):
    return x.log_softmax(axis=axis)


def cross_entropy(logits, targets, reduction="mean", label_smoothing=0.0):
    """Softmax cross-entropy against integer class targets."""
    targets = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    n, num_classes = logits.shape
    log_probs = logits.log_softmax(axis=-1)
    picked = log_probs[np.arange(n), targets]
    if label_smoothing > 0:
        smooth = log_probs.mean(axis=-1)
        nll = -(1 - label_smoothing) * picked - label_smoothing * smooth
    else:
        nll = -picked
    if reduction == "mean":
        return nll.mean()
    if reduction == "sum":
        return nll.sum()
    if reduction == "none":
        return nll
    raise ValueError(f"unknown reduction {reduction!r}")


def nll_loss(log_probs, targets, reduction="mean"):
    """Negative log-likelihood on already-log-softmaxed input."""
    targets = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    n = log_probs.shape[0]
    nll = -log_probs[np.arange(n), targets]
    if reduction == "mean":
        return nll.mean()
    if reduction == "sum":
        return nll.sum()
    return nll


def mse_loss(pred, target, reduction="mean"):
    target = target if isinstance(target, Tensor) else Tensor(np.asarray(target))
    sq = (pred - target) ** 2
    if reduction == "mean":
        return sq.mean()
    if reduction == "sum":
        return sq.sum()
    return sq


def binary_cross_entropy_with_logits(logits, targets, reduction="mean"):
    """Numerically-stable BCE on logits (used by the YOLO objectness head)."""
    targets = targets if isinstance(targets, Tensor) else Tensor(np.asarray(targets))
    # log(1 + exp(-|x|)) + max(x, 0) - x * t
    neg_abs = -logits.abs()
    loss = logits.clip(min_value=0) - logits * targets + (neg_abs.exp() + 1.0).log()
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    return loss


def pad(x, padding, value=0.0):
    """Spatial padding, ``padding = (left, right, top, bottom)``."""
    return x.pad2d(padding, value=value)
