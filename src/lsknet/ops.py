"""Dense rank-4 tensor kernels with explicit backward passes.

All operations work on plain ``numpy`` arrays in ``(batch, channels, rows,
cols)`` layout.  The production dtype is float32; every kernel also accepts
float64 inputs unchanged, which is what the gradient checker uses.  The one
broadcast is the weight of :func:`broadcast_mask_mul`, each dim x's or 1:
a mask (n,1,h,w), a channel weight (n,c,1,1), a residual scale (1,c,1,1) or
the full-size gate.  Anywhere else mismatched shapes raise :class:`ShapeError`
so wiring bugs in module assembly fail loudly instead of silently stretching
axes.

Backward functions return gradients of a sum-reduction loss, i.e. they
contract the upstream gradient ``grad_out`` with the local Jacobian.

Every array an op reads (``x``, ``grad_out``, a mask, both addends of
:func:`add`) passes :func:`check_tensor4`: rank 4, positive dims and a
float32 or float64 dtype, else a :class:`ShapeError` naming the op and the
argument.  Every backward refuses what its forward refuses: the pair shares
one check of its arguments, and a ``grad_out`` not shaped like the forward's
output is refused in one wording, naming the op and both shapes.  Every op
computes in x's dtype: weights and per-channel vectors of another float
dtype are cast to it, and a weight or scale gradient is returned in the
dtype of its weight or scale.

Channel mixing (``pointwise_conv``, ``conv2d`` and their backward passes) is
one BLAS matrix product per batch item; the dense conv first gathers its
strided windows into an im2col buffer of shape ``(n, c*k*k, oh*ow)``.
``channel_pool`` pools the channels once per mode of a pooling set and
stacks the maps in one call; its backward adds the per-mode terms.

Depth-wise convolution runs on BLAS too, lowered along one axis only (MEC,
Cho & Brand, ICML 2017).  Taps that can only read padding are dropped
first.  A block of channels of the input is copied into a zero-padded
buffer with one flat row per channel and row stride ``wp = w + pc``, the
padding only as wide as the outermost kept tap.  Tap (i, j) of a (kr, kc)
kernel is then the constant flat offset ``dilation * (i * wp + j)`` from the
first output, and the outputs over the wide grid (h, wp) are contiguous;
the ``pc`` extra columns of a row double as the left padding of the next
row, and their outputs are cropped.  A tile covers a band of grid rows.  It
gathers only the kc column shifts ``flat[q + dilation * j]``, over the band
and the ``dilation * (kr - 1)`` halo rows below it, laid out ``(channel, j,
batch item, q)`` so that one matmul per channel multiplies every batch item
by the channel's taps.  The product is laid out ``(i, channel, batch item,
q)``, kernel row outermost so that its rows never look like overlapping
operands to a ufunc (which would copy one first).  Row i of the product,
read ``dilation * i * wp`` further on, is kernel row i's share of the
outputs, so the outputs are the sum of kr shifted rows: each is added into
row 0 as one contiguous pass over the whole tile, and one copy writes row
0's cropped share.  The halo rows keep every output's shifted reads inside
its own batch item; only sums in the halo rows read on into the next item
or channel, and the crop drops them.  A k x k im2col would write and re-read
all k*k taps instead.  ``_DW_TILE_BYTES`` sizes the gather and the product
together: channel blocks are as large as it allows, a channel that does not
fit on its own is cut into bands of rows instead, and every band reuses
both buffers.  The backward pass gathers such tiles from ``grad_out`` and
multiplies them by the flipped kernel for the input gradient, and against
``x`` shifted down by each kernel row for the weight gradient: ``x`` is
copied into row 0's share of the product once, and every other row is one
contiguous copy of the whole of row 0 moved on by its shift, row 0's zero
halo rows filling the gaps between items.

GELU and its backward run as chains of in-place ufuncs on buffers allocated
once per call (one in the forward, the result; three in the backward): on
the widest tensors every full-size temporary would cost a pass over memory
and fresh pages to fault in.

OpenBLAS splits a product across threads by blocks of the output, not along
the summed dimension, so the thread count changes speed but not the order in
which an output element is summed (the backbone tests check this under one
and two threads).  Tile shapes depend only on the tensor shapes and the
tile byte budget.  Everything else accumulates in a fixed order (batch items
in index order, depth-wise kernel rows in index order and their weight
gradients over bands in index order, pooling modes in set order), so repeated
runs are bit-identical.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeError

__all__ = [
    "ConvSpec",
    "Tensor4",
    "check_tensor4",
    "depthwise_conv",
    "depthwise_conv_backward",
    "conv2d",
    "conv_out_size",
    "conv2d_backward",
    "pointwise_conv",
    "pointwise_conv_backward",
    "channel_pool",
    "channel_pool_backward",
    "add",
    "sigmoid",
    "sigmoid_backward",
    "gelu",
    "gelu_backward",
    "broadcast_mask_mul",
    "broadcast_mask_mul_backward",
    "affine_channel_norm",
    "affine_channel_norm_backward",
    "batch_norm",
    "batch_norm_backward",
    "global_avg_pool",
    "global_avg_pool_backward",
]

# A Tensor4 is an ndarray with ndim == 4 and strictly positive dims; the alias
# exists for signatures, the invariants are enforced by check_tensor4.
Tensor4 = np.ndarray

NORM_EPS = 1e-5  # every norm's variance offset, as the released code's BatchNorm2d
_GELU_COEFF = 0.044715
_GELU_SCALE = float(np.sqrt(2.0 / np.pi))


@dataclass(frozen=True)
class ConvSpec:
    """Kernel size, dilation and the derived "same" padding of one conv layer.

    The padding is pinned to ``dilation * (kernel - 1) // 2`` so that output
    spatial size always equals input spatial size (zero padding outside the
    borders).
    """

    kernel: int
    dilation: int = 1

    def __post_init__(self):
        for name in ("kernel", "dilation"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ShapeError(f"ConvSpec: {name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a numpy integer is stored as an int
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ShapeError(f"ConvSpec: kernel must be odd and positive, got {self.kernel}")
        if self.dilation < 1:
            raise ShapeError(f"ConvSpec: dilation must be >= 1, got {self.dilation}")

    @property
    def padding(self) -> int:
        """The "same" padding: dilation*(kernel-1)//2."""
        return self.dilation * (self.kernel - 1) // 2

    @property
    def span(self) -> int:
        """Pixel footprint of the dilated kernel: dilation*(kernel-1)+1."""
        return self.dilation * (self.kernel - 1) + 1


def check_tensor4(x: np.ndarray, name: str = "tensor") -> np.ndarray:
    """Check that ``x`` is a rank-4 ndarray with positive dims and a float32
    or float64 dtype, and return it unchanged; ``name`` leads the message.
    Every op computes in x's dtype and casts its weights and vectors to it,
    so an integer or boolean input would truncate them and any other float
    would run in another precision."""
    if not isinstance(x, np.ndarray):
        raise ShapeError(f"{name}: expected ndarray, got {type(x).__name__}")
    if x.ndim != 4:
        raise ShapeError(f"{name}: expected 4 dims (n,c,h,w), got shape {x.shape}")
    if any(d < 1 for d in x.shape):
        raise ShapeError(f"{name}: all dims must be >= 1, got shape {x.shape}")
    if x.dtype not in (np.float32, np.float64):
        raise ShapeError(f"{name}: expected a float32 or float64 input, got dtype {x.dtype}")
    return x


def _check_grad(where: str, grad_out: np.ndarray, x: np.ndarray, want: tuple | None = None) -> None:
    """Check a backward op's ``grad_out`` and ``x`` and that ``grad_out`` has
    the shape of the forward's output, ``want`` (``x.shape`` unless given)."""
    check_tensor4(grad_out, f"{where}: grad_out")
    check_tensor4(x, f"{where}: x")
    want = x.shape if want is None else want
    if grad_out.shape != want:
        raise ShapeError(f"{where}: grad_out {grad_out.shape} != expected {want}")


def _check_vectors(where: str, length: int, **vectors: np.ndarray) -> None:
    """Check that each named vector is 1-D with ``length`` entries."""
    for name, v in vectors.items():
        if not isinstance(v, np.ndarray) or v.ndim != 1 or v.shape[0] != length:
            got = getattr(v, "shape", type(v).__name__)
            raise ShapeError(f"{where}: {name}: expected vector of length {length}, got {got}")


def _pad2d(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    out[:, :, pad : pad + h, pad : pad + w] = x
    return out


# ---------------------------------------------------------------------------
# depth-wise convolution
# ---------------------------------------------------------------------------

# Byte budget of one tile, the only tuning value of the depth-wise kernel.
# It holds the kc-row gather of the column shifts and the kr-row product of
# the taps with it.  The gather is written and read straight back by the
# matmul, and the product is written and read straight back by the row sum,
# so both should still be in cache for their second pass: 1 MiB leaves room
# for the padded source block and the output block in a 2 MiB per-core L2.
_DW_TILE_BYTES = 1 << 20


def _dw_kept(where: str, x: np.ndarray, weights: np.ndarray, spec: ConvSpec):
    """Check the (c, k, k) weights; return the kernel rows and columns whose
    taps can reach x's h x w image (a tap whose offset is at least the map
    size reads only padding), and those taps in x's dtype."""
    n, c, h, w = x.shape
    k, d, pad = spec.kernel, spec.dilation, spec.padding
    if weights.shape != (c, k, k):
        raise ShapeError(f"{where}: weights shape {weights.shape} does not match channels {c} and kernel {k}")
    dr, dc = (max(0, (pad - size) // d + 1) for size in (h, w))
    rows, cols = slice(dr, k - dr), slice(dc, k - dc)
    return rows, cols, weights[:, rows, cols].astype(x.dtype)


def _dw_correlate(
    x: np.ndarray, taps: np.ndarray, bias: np.ndarray | None, dilation: int, against=None
):
    """Same-size per-channel correlation of ``x`` with centred ``taps``
    (c, kr, kc), plus ``bias`` unless it is None, computed in the dtype of
    ``taps``.

    Returns the correlation and the (c, kr, kc) products of the same
    gathers with ``against`` (shaped like ``x``; zeros without it), summed
    over batch items inside one matmul per channel and band and then over
    bands in index order.  When ``x`` is the output gradient of a
    correlation of ``against`` and ``taps`` are its taps flipped, these are
    the gradients of the flipped taps.
    """
    n, c, h, w = x.shape
    _, kr, kc = taps.shape
    dtype = taps.dtype
    pr, pc = dilation * (kr // 2), dilation * (kc // 2)
    wp = w + pc
    base, halo, step = pr * wp + pc, 2 * pr, dilation * wp
    row = (kc + kr) * n * wp * dtype.itemsize  # tile bytes per grid row
    cb = max(1, min(c, _DW_TILE_BYTES // (row * (h + halo))))
    band = max(1, min(h, _DW_TILE_BYTES // row - halo))
    size = n * (band + halo) * wp
    gathers = np.empty(cb * kc * size, dtype=dtype)
    products = np.empty(cb * kr * size, dtype=dtype)
    taps = np.ascontiguousarray(taps)  # a strided (flipped) view falls off BLAS
    out = np.empty(x.shape, dtype=dtype)
    acc = np.zeros((c, kr, kc), dtype=dtype)
    # Only the image pixels of the block are rewritten, so its padding stays zero
    block = np.zeros((n, cb, h * wp + 2 * base), dtype)
    sn, sc, e = block.strides
    for c0 in range(0, c, cb):
        cs = slice(c0, min(c0 + cb, c))
        m = cs.stop - c0
        block[:, :m, base : base + h * wp].reshape(n, m, h, wp)[:, :, :, :w] = x[:, cs]
        for r0 in range(0, h, band):
            rows = slice(r0, min(r0 + band, h))
            r = rows.stop - r0
            length = (r + halo) * wp
            # np.ndarray builds this overlapping view far faster than as_strided
            src = np.ndarray((m, kc, n, length), dtype, block, r0 * wp * e, (sc, dilation * e, sn, e))
            gather = gathers[: m * kc * n * length].reshape(m, kc, n, length)
            np.copyto(gather, src)
            columns = gather.reshape(m, kc, n * length)
            runs = products[: kr * m * n * length].reshape(kr, m, n * length)
            by_channel = runs.transpose(1, 0, 2)
            np.matmul(taps[cs], columns, out=by_channel)
            # Kernel row i's share of item b's outputs starts at b * length +
            # step * i.  The bias and rows 1 to kr - 1 are added to row 0 in
            # index order, each as one pass over the tile, and one copy crops
            # row 0.  An output reads at most halo * wp on, inside its own item:
            # only halo sums, which are dropped, read into the next segment
            flat = runs.reshape(kr, -1)
            if bias is not None:
                runs[0] += bias[cs, None]
            for i in range(1, kr):
                flat[0, : -step * i] += flat[i, step * i :]
            share = np.ndarray((m, n, r, w), dtype, runs, 0, (n * length * e, length * e, wp * e, e))
            np.copyto(out[:, cs, rows].transpose(1, 0, 2, 3), share)
            if against is not None:
                # ``against`` laid where each kernel row's outputs lie and zero
                # elsewhere (cropped and halo outputs add nothing), so one product
                # with the gather gives every tap.  Row 0 takes it once; row i is
                # row 0 moved on by step * i, whose zero halo rows fill the gaps
                runs[0] = 0
                np.copyto(share, against[:, cs, rows].transpose(1, 0, 2, 3))
                for i in range(1, kr):
                    flat[i, : step * i] = 0
                    flat[i, step * i :] = flat[0, : -step * i]
                acc[cs] += np.matmul(by_channel, columns.transpose(0, 2, 1))
    return out, acc


def depthwise_conv(x: Tensor4, weights: np.ndarray, bias: np.ndarray, spec: ConvSpec) -> Tensor4:
    """Per-channel k x k convolution with "same" zero padding.

    ``weights`` has shape (c, k, k): each output channel depends only on the
    matching input channel.  Dilation spreads the taps without changing the
    parameter count.
    """
    check_tensor4(x, "depthwise_conv: x")
    taps = _dw_kept("depthwise_conv", x, weights, spec)[2]
    _check_vectors("depthwise_conv", x.shape[1], bias=bias)
    return _dw_correlate(x, taps, bias.astype(x.dtype, copy=False), spec.dilation)[0]


def depthwise_conv_backward(
    grad_out: Tensor4, x: Tensor4, weights: np.ndarray, spec: ConvSpec
) -> tuple[Tensor4, np.ndarray, np.ndarray]:
    """Gradients of depthwise_conv w.r.t. input, weights and bias.

    The input gradient is the forward correlation run on ``grad_out`` with
    the kernel flipped; the weight gradient multiplies the same column
    gathers of ``grad_out`` by ``x`` shifted down by each kernel row.
    """
    _check_grad("depthwise_conv_backward", grad_out, x)
    rows, cols, taps = _dw_kept("depthwise_conv_backward", x, weights, spec)
    grad_x, grad_taps = _dw_correlate(grad_out, taps[:, ::-1, ::-1], None, spec.dilation, against=x)
    grad_w = np.zeros_like(weights)
    grad_w[:, rows, cols] = grad_taps[:, ::-1, ::-1]
    grad_b = grad_out.sum(axis=(0, 2, 3))
    return grad_x, grad_w, grad_b


# ---------------------------------------------------------------------------
# dense (channel-mixing) convolution
# ---------------------------------------------------------------------------
# Exists as plumbing for the stem, the between-stage downsamplers and the
# 2->N selection conv, all three same-padded by k // 2, so the op pads that
# itself and takes odd kernels only; it is not a general-purpose conv API.

def _conv_taps(k: int, stride: int, oh: int, ow: int):
    """Row and column slices of every kernel tap, in row-major tap order."""
    for i in range(k):
        for j in range(k):
            rows = slice(i, i + stride * (oh - 1) + 1, stride)
            cols = slice(j, j + stride * (ow - 1) + 1, stride)
            yield i, j, rows, cols


def _im2col(xp: np.ndarray, k: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """Gather the strided windows of the padded input into (n, c*k*k, oh*ow).

    Rows are ordered (channel, tap row, tap col), matching
    ``weights.reshape(c_out, c*k*k)``.
    """
    n, c = xp.shape[:2]
    out = np.empty((n, c, k, k, oh, ow), dtype=xp.dtype)
    for i, j, rows, cols in _conv_taps(k, stride, oh, ow):
        out[:, :, i, j] = xp[:, :, rows, cols]
    return out.reshape(n, c * k * k, oh * ow)


def _batch_matmul_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_i a[i] @ b[i]``, each batch item's product added into one array
    in index order, so no (n, ...) stack of products is held."""
    out = np.matmul(a[0], b[0])
    for i in range(1, a.shape[0]):
        out += np.matmul(a[i], b[i])
    return out


def conv_out_size(size: int, stride: int) -> int:
    """Output length of a dense conv along one axis: ceil(size / stride)."""
    return -(-size // stride)


def _check_conv2d_args(name: str, c: int, weights: np.ndarray, stride: int) -> tuple[int, int]:
    """Check square (c_out, c, k, k) weights with k odd, and stride >= 1;
    return (c_out, k)."""
    if weights.ndim != 4 or weights.shape[1] != c or weights.shape[2] != weights.shape[3]:
        raise ShapeError(
            f"{name}: weights shape {weights.shape} does not match input channels {c}"
        )
    if weights.shape[2] % 2 == 0:
        raise ShapeError(f"{name}: kernel must be odd to pad k // 2, got {weights.shape[2]}")
    if stride < 1:
        raise ShapeError(f"{name}: stride must be >= 1, got {stride}")
    return weights.shape[0], weights.shape[2]


def conv2d(
    x: Tensor4,
    weights: np.ndarray,
    bias: np.ndarray,
    stride: int = 1,
) -> Tensor4:
    """Dense convolution padded by k // 2: weights (c_out, c_in, k, k), odd k, stride >= 1."""
    check_tensor4(x, "conv2d: x")
    n, c, h, w = x.shape
    c_out, k = _check_conv2d_args("conv2d", c, weights, stride)
    _check_vectors("conv2d", c_out, bias=bias)
    oh, ow = conv_out_size(h, stride), conv_out_size(w, stride)
    patches = _im2col(_pad2d(x, k // 2), k, stride, oh, ow)
    wmat = weights.reshape(c_out, c * k * k).astype(x.dtype, copy=False)
    out = np.matmul(wmat, patches).reshape(n, c_out, oh, ow)
    out += bias[None, :, None, None]
    return out


def conv2d_backward(
    grad_out: Tensor4,
    x: Tensor4,
    weights: np.ndarray,
    stride: int = 1,
) -> tuple[Tensor4, np.ndarray, np.ndarray]:
    """Gradients of conv2d w.r.t. input, weights and bias."""
    check_tensor4(x, "conv2d_backward: x")
    n, c, h, w = x.shape
    c_out, k = _check_conv2d_args("conv2d_backward", c, weights, stride)
    oh, ow = conv_out_size(h, stride), conv_out_size(w, stride)
    _check_grad("conv2d_backward", grad_out, x, (n, c_out, oh, ow))
    pad = k // 2
    xp = _pad2d(x, pad)
    g = grad_out.reshape(n, c_out, oh * ow)
    patches = _im2col(xp, k, stride, oh, ow)
    grad_w = _batch_matmul_sum(g, patches.transpose(0, 2, 1))
    grad_w = grad_w.reshape(weights.shape).astype(weights.dtype, copy=False)
    del patches  # grad_patches has the same size; do not hold both
    wmat = weights.reshape(c_out, c * k * k).astype(x.dtype, copy=False)
    grad_patches = np.matmul(wmat.T, g).reshape(n, c, k, k, oh, ow)
    grad_xp = np.zeros_like(xp)
    for i, j, rows, cols in _conv_taps(k, stride, oh, ow):
        grad_xp[:, :, rows, cols] += grad_patches[:, :, i, j]
    grad_x = grad_xp[:, :, pad : pad + h, pad : pad + w] if pad else grad_xp
    grad_b = grad_out.sum(axis=(0, 2, 3))
    return np.ascontiguousarray(grad_x), grad_w, grad_b


# ---------------------------------------------------------------------------
# point-wise (1x1) convolution
# ---------------------------------------------------------------------------

def _check_pointwise_weights(where: str, c: int, weights: np.ndarray) -> int:
    """Check (c_out, c) weights for ``c`` input channels; return c_out."""
    if weights.ndim != 2 or weights.shape[1] != c:
        raise ShapeError(f"{where}: weights shape {weights.shape} does not match input channels {c}")
    return weights.shape[0]


def pointwise_conv(x: Tensor4, weights: np.ndarray, bias: np.ndarray | None) -> Tensor4:
    """1x1 convolution: pure per-pixel channel mixing with weights (c_out, c_in).

    ``bias=None`` gives the bare product, a partial sum over some input
    channels that the caller adds up (the block's grouped FFN)."""
    check_tensor4(x, "pointwise_conv: x")
    n, c, h, w = x.shape
    c_out = _check_pointwise_weights("pointwise_conv", c, weights)
    out = np.matmul(weights.astype(x.dtype, copy=False), x.reshape(n, c, h * w)).reshape(n, c_out, h, w)
    if bias is not None:
        _check_vectors("pointwise_conv", c_out, bias=bias)
        out += bias[None, :, None, None]
    return out


def pointwise_conv_backward(
    grad_out: Tensor4, x: Tensor4, weights: np.ndarray
) -> tuple[Tensor4, np.ndarray, np.ndarray]:
    n, c, h, w = check_tensor4(x, "pointwise_conv_backward: x").shape
    c_out = _check_pointwise_weights("pointwise_conv_backward", c, weights)
    _check_grad("pointwise_conv_backward", grad_out, x, (n, c_out, h, w))
    g = grad_out.reshape(n, -1, h * w)
    grad_x = np.matmul(weights.astype(x.dtype, copy=False).T, g).reshape(x.shape)
    grad_w = _batch_matmul_sum(g, x.reshape(n, c, h * w).transpose(0, 2, 1))
    grad_w = grad_w.astype(weights.dtype, copy=False)
    grad_b = grad_out.sum(axis=(0, 2, 3))
    return grad_x, grad_w, grad_b


# ---------------------------------------------------------------------------
# channel pooling (the spatial-descriptor step)
# ---------------------------------------------------------------------------

def _check_pooling(where: str, pooling: Sequence[str]) -> None:
    """Check that ``pooling`` is a non-empty sequence of modes (a bare
    string is not one), each ``"avg"`` or ``"max"``."""
    if isinstance(pooling, str) or not pooling or any(m not in ("avg", "max") for m in pooling):
        raise ShapeError(f"{where}: pooling must be a non-empty sequence of 'avg' and 'max', got {pooling!r}")


def channel_pool(x: Tensor4, pooling: Sequence[str]) -> Tensor4:
    """Collapse the channels into one map per mode of ``pooling`` (``avg``
    the arithmetic mean, ``max`` the maximum), stacked in ``pooling`` order
    as (n, len(pooling), h, w)."""
    check_tensor4(x, "channel_pool: x")
    _check_pooling("channel_pool", pooling)
    return np.stack([x.mean(axis=1) if m == "avg" else x.max(axis=1) for m in pooling], axis=1)


def channel_pool_backward(grad_out: Tensor4, x: Tensor4, pooling: Sequence[str]) -> Tensor4:
    """Backward of channel_pool: x's gradient is the per-mode terms added
    in ``pooling`` order.

    Average pooling spreads its map's gradient evenly over the channels; max
    pooling routes it to the lowest-index channel attaining the maximum, so
    ties resolve deterministically.
    """
    n, c, h, w = check_tensor4(x, "channel_pool_backward: x").shape
    _check_pooling("channel_pool_backward", pooling)
    _check_grad("channel_pool_backward", grad_out, x, (n, len(pooling), h, w))
    grad_x = None
    for i, mode in enumerate(pooling):
        g = grad_out[:, i : i + 1]
        if mode == "avg":
            term = (np.broadcast_to(g, x.shape) / x.dtype.type(c)).astype(x.dtype, copy=False)
        else:
            term = np.zeros_like(x)
            np.put_along_axis(term, np.argmax(x, axis=1)[:, None], g, axis=1)  # first occurrence wins
        grad_x = term if grad_x is None else np.add(grad_x, term, out=grad_x)
    return grad_x


# ---------------------------------------------------------------------------
# element-wise operations
# ---------------------------------------------------------------------------

def add(a: Tensor4, b: Tensor4) -> Tensor4:
    """Sum of two identically shaped tensors."""
    check_tensor4(a, "add: a")
    check_tensor4(b, "add: b")
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
    return a + b


def sigmoid(x: Tensor4) -> Tensor4:
    """Numerically stable logistic function; sigmoid(0) is exactly 0.5."""
    check_tensor4(x, "sigmoid: x")
    # e = exp(-|x|) never overflows: 1 / (1 + e) for x >= 0, e / (1 + e) below
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def sigmoid_backward(grad_out: Tensor4, y: Tensor4) -> Tensor4:
    """Backward of sigmoid given its saved output ``y``."""
    check_tensor4(y, "sigmoid_backward: y")
    _check_grad("sigmoid_backward", grad_out, y)
    return grad_out * y * (1.0 - y)


def gelu(x: Tensor4) -> Tensor4:
    """GELU in the tanh approximation: 0.5*x*(1 + tanh(s*(x + 0.044715*x^3))).

    Evaluated as 0.5*x*(1 + tanh(x*(s + s*c*x^2))) by in-place ufuncs on the
    result, the only full-size buffer.
    """
    check_tensor4(x, "gelu: x")
    out = np.multiply(x, x)
    out *= _GELU_SCALE * _GELU_COEFF
    out += _GELU_SCALE
    out *= x
    np.tanh(out, out=out)
    out += 1.0
    out *= x
    out *= 0.5
    return out


def gelu_backward(grad_out: Tensor4, x: Tensor4) -> Tensor4:
    """Backward of gelu: grad_out * (1 + t) * (0.5 + a*(1 - t)) with
    t = tanh(x*(s + s*c*x^2)) and a = 0.5*x*s*(1 + 3*c*x^2).

    This is the derivative 0.5*(1 + t) + 0.5*x*(1 - t^2)*s*(1 + 3*c*x^2)
    factored so that it needs three full-size buffers, the result included.
    The result has the dtype of ``np.result_type(grad_out, x)``.
    """
    _check_grad("gelu_backward", grad_out, x)
    out = np.multiply(x, x, dtype=np.result_type(grad_out, x))
    t = out * (_GELU_SCALE * _GELU_COEFF)
    t += _GELU_SCALE
    t *= x
    np.tanh(t, out=t)
    out *= 1.5 * _GELU_SCALE * _GELU_COEFF  # a = x*(0.5*s + 1.5*s*c*x^2)
    out += 0.5 * _GELU_SCALE
    out *= x
    out *= np.subtract(1.0, t)
    out += 0.5
    t += 1.0
    out *= t
    out *= grad_out
    return out


def _check_mask(x: Tensor4, mask: Tensor4, name: str) -> None:
    check_tensor4(x, f"{name}: x")
    check_tensor4(mask, f"{name}: mask")
    if any(m not in (1, d) for m, d in zip(mask.shape, x.shape)):
        raise ShapeError(f"{name}: mask shape {mask.shape} does not fit x {x.shape}: each dim must be x's or 1")


def broadcast_mask_mul(x: Tensor4, mask: Tensor4) -> Tensor4:
    """``x * mask`` for a weight whose every dim is x's or 1: a per-pixel
    mask (n,1,h,w), a per-channel selection weight (n,c,1,1), a residual
    scale (1,c,1,1) or the full-size gate (n,c,h,w).

    This is the library's one multiply and its one sanctioned broadcast;
    it is explicit so that add() can keep rejecting shape mismatches.
    """
    _check_mask(x, mask, "broadcast_mask_mul")
    return x * mask.astype(x.dtype, copy=False)


def broadcast_mask_mul_backward(
    grad_out: Tensor4, x: Tensor4, mask: Tensor4
) -> tuple[Tensor4, Tensor4]:
    """The mask's gradient sums ``grad_out * x`` over exactly the axes along
    which the mask broadcasts, so it keeps the mask's shape (a full-size
    mask's is that product as it is: no extra pass)."""
    _check_mask(x, mask, "broadcast_mask_mul_backward")
    _check_grad("broadcast_mask_mul_backward", grad_out, x)
    grad_x = grad_out * mask.astype(x.dtype, copy=False)
    spread = tuple(a for a in range(4) if mask.shape[a] < x.shape[a])
    grad_mask = grad_out * x
    grad_mask = grad_mask.sum(axis=spread, keepdims=True) if spread else grad_mask
    return grad_x, grad_mask.astype(mask.dtype, copy=False)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def affine_channel_norm(
    x: Tensor4,
    scale: np.ndarray,
    shift: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
) -> Tensor4:
    """Per-channel affine normalization with externally supplied statistics.

    y = scale * (x - mean) / sqrt(var + NORM_EPS) + shift, per channel.  With
    mean 0, var 1 - NORM_EPS, scale 1 and shift 0 this is the identity.
    """
    check_tensor4(x, "affine_channel_norm: x")
    _check_vectors("affine_channel_norm", x.shape[1], scale=scale, shift=shift, mean=mean, var=var)
    scale, shift, mean, var = (v.astype(x.dtype, copy=False) for v in (scale, shift, mean, var))
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    return (x - mean[None, :, None, None]) * (scale * inv)[None, :, None, None] + shift[
        None, :, None, None
    ]


def _affine_norm_backward(grad_out, x, scale, mean, var, where: str):
    """The three gradients of :func:`affine_channel_norm_backward`, all in
    x's dtype, and the centred input ``x - mean`` formed on the way, which
    :func:`batch_norm_backward` reuses; errors are named after ``where``."""
    _check_grad(where, grad_out, x)
    _check_vectors(where, x.shape[1], scale=scale, mean=mean, var=var)
    scale, mean, var = (v.astype(x.dtype, copy=False) for v in (scale, mean, var))
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    grad_x = grad_out * (scale * inv)[None, :, None, None]
    centered = x - mean[None, :, None, None]
    grad_scale = (grad_out * centered * inv[None, :, None, None]).sum(axis=(0, 2, 3))
    grad_shift = grad_out.sum(axis=(0, 2, 3))
    return grad_x, grad_scale, grad_shift, centered


def affine_channel_norm_backward(
    grad_out: Tensor4,
    x: Tensor4,
    scale: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
) -> tuple[Tensor4, np.ndarray, np.ndarray]:
    """Gradients w.r.t. x, scale and shift.  mean/var are stored statistics
    and treated as constants."""
    grad_x, grad_scale, grad_shift, _ = _affine_norm_backward(
        grad_out, x, scale, mean, var, "affine_channel_norm_backward"
    )
    return grad_x, grad_scale.astype(scale.dtype, copy=False), grad_shift


def batch_norm(
    x: Tensor4, scale: np.ndarray, shift: np.ndarray
) -> tuple[Tensor4, np.ndarray, np.ndarray]:
    """Training-mode normalization: :func:`affine_channel_norm` fed the
    batch's per-channel mean and biased variance over batch and space.
    Returns ``(y, mean, var)``; :func:`batch_norm_backward` takes both."""
    check_tensor4(x, "batch_norm: x")
    mean = x.mean(axis=(0, 2, 3))
    var = ((x - mean[None, :, None, None]) ** 2).mean(axis=(0, 2, 3))
    return affine_channel_norm(x, scale, shift, mean, var), mean, var


def batch_norm_backward(
    grad_out: Tensor4, x: Tensor4, scale: np.ndarray, mean: np.ndarray, var: np.ndarray
) -> tuple[Tensor4, np.ndarray, np.ndarray]:
    """Gradients w.r.t. x, scale and shift of :func:`batch_norm`, given its
    ``mean`` and ``var``: those of :func:`affine_channel_norm_backward`, plus
    the part of ``grad_x`` that flows through the statistics, with
    d(mean)/dx = 1/m and d(var)/dx = 2 (x - mean) / m over a channel's m values."""
    grad_x, grad_scale, grad_shift, centered = _affine_norm_backward(
        grad_out, x, scale, mean, var, "batch_norm_backward"
    )
    n, _, h, w = x.shape
    m = n * h * w
    scale_x = scale.astype(x.dtype, copy=False)
    inv = 1.0 / np.sqrt(var.astype(x.dtype, copy=False) + NORM_EPS)
    grad_mean = -scale_x * inv * grad_shift  # dL/dmean = -scale * inv * sum(grad_out)
    grad_var = -0.5 * scale_x * inv * inv * grad_scale  # -scale * inv**3 * sum(grad_out * (x - mean)) / 2
    grad_x += centered * (2.0 * grad_var / m)[None, :, None, None]
    grad_x += (grad_mean / m)[None, :, None, None]
    return grad_x, grad_scale.astype(scale.dtype, copy=False), grad_shift


def global_avg_pool(x: Tensor4) -> Tensor4:
    """Spatial mean per channel, keeping (n, c, 1, 1) layout."""
    check_tensor4(x, "global_avg_pool: x")
    return x.mean(axis=(2, 3), keepdims=True)


def global_avg_pool_backward(grad_out: Tensor4, x: Tensor4) -> Tensor4:
    n, c, h, w = check_tensor4(x, "global_avg_pool_backward: x").shape
    _check_grad("global_avg_pool_backward", grad_out, x, (n, c, 1, 1))
    return (np.broadcast_to(grad_out, x.shape) / x.dtype.type(h * w)).astype(x.dtype, copy=False)
