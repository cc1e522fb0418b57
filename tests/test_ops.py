"""Forward kernels against the naive-loop oracles, plus the pinned examples,
shape validation, and determinism."""

import inspect
import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lsknet import ops
from lsknet.errors import ShapeError
from lsknet.ops import ConvSpec

from conftest import peak_allocation
from oracles import (
    affine_norm_loops,
    batch_norm_backward_loops,
    batch_norm_loops,
    channel_pool_loops,
    conv2d_backward_loops,
    conv2d_loops,
    depthwise_conv_backward_loops,
    depthwise_conv_loops,
    gelu_backward_ref,
    gelu_ref,
    global_avg_pool_loops,
    pointwise_conv_backward_loops,
    pointwise_conv_loops,
    sigmoid_ref,
)


def rand(rng, shape):
    return rng.uniform(-2.0, 2.0, size=shape)


class TestConvSpec:
    def test_same_padding_derived(self):
        assert ConvSpec(5, 1).padding == 2
        assert ConvSpec(7, 3).padding == 9
        assert ConvSpec(23, 1).padding == 11

    def test_rejects_even_kernel(self):
        with pytest.raises(ShapeError):
            ConvSpec(4, 1)

    def test_span(self):
        assert ConvSpec(7, 3).span == 19


class TestDepthwise:
    def test_dirac_kernel_is_identity(self, rng):
        x = rand(rng, (2, 3, 6, 6))
        for dilation in (1, 2, 3):
            w = np.zeros((3, 3, 3))
            w[:, 1, 1] = 1.0
            out = ops.depthwise_conv(x, w, np.zeros(3), ConvSpec(3, dilation))
            np.testing.assert_array_equal(out, x)

    def test_ones_kernel_counts_neighbourhood(self):
        x = np.ones((1, 1, 5, 5))
        w = np.ones((1, 3, 3))
        out = ops.depthwise_conv(x, w, np.zeros(1), ConvSpec(3, 1))
        assert out[0, 0, 2, 2] == 9.0
        assert out[0, 0, 0, 0] == 4.0
        assert out[0, 0, 0, 2] == 6.0

    def test_matches_loop_oracle_dilated(self, rng):
        x = rand(rng, (2, 3, 8, 8))
        w = rand(rng, (3, 5, 5))
        b = rand(rng, (3,))
        out = ops.depthwise_conv(x, w, b, ConvSpec(5, 2))
        ref = depthwise_conv_loops(x, w, b, 5, 2)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_channel_independence(self, rng):
        # perturbing channel 0 must not move channel 1's output
        x = rand(rng, (1, 2, 4, 4))
        w = rand(rng, (2, 3, 3))
        b = np.zeros(2)
        base = ops.depthwise_conv(x, w, b, ConvSpec(3, 1))
        x2 = x.copy()
        x2[:, 0] += 1.0
        out = ops.depthwise_conv(x2, w, b, ConvSpec(3, 1))
        np.testing.assert_array_equal(out[:, 1], base[:, 1])
        assert not np.allclose(out[:, 0], base[:, 0])

    def test_weight_shape_mismatch(self, rng):
        x = rand(rng, (1, 3, 4, 4))
        with pytest.raises(ShapeError, match="weights shape"):
            ops.depthwise_conv(x, rand(rng, (2, 3, 3)), np.zeros(3), ConvSpec(3, 1))

    def test_non_contiguous_inputs(self, rng):
        x = rand(rng, (2, 6, 5, 7))[:, 1:4]  # channel slice
        w = rand(rng, (3, 7, 7))
        g = rand(rng, (2, 3, 7, 5)).transpose(0, 1, 3, 2)  # transposed view
        b = rand(rng, (3,))
        np.testing.assert_allclose(
            ops.depthwise_conv(x, w, b, ConvSpec(7, 2)), depthwise_conv_loops(x, w, b, 7, 2), atol=1e-6
        )
        got = ops.depthwise_conv_backward(g, x, w, ConvSpec(7, 2))
        for a, r in zip(got, depthwise_conv_backward_loops(g, x, w, 7, 2)):
            np.testing.assert_allclose(a, r, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=2),
    h=st.integers(min_value=1, max_value=9),
    w=st.integers(min_value=1, max_value=9),
    kernel=st.sampled_from([3, 5, 7]),
    dilation=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
# maps no larger than the padding of 7x7 d=3, where outer taps read only zeros
@example(n=1, h=1, w=1, kernel=7, dilation=3, seed=0)
@example(n=2, h=2, w=3, kernel=7, dilation=3, seed=1)
@example(n=1, h=4, w=4, kernel=7, dilation=3, seed=2)
@example(n=2, h=4, w=1, kernel=7, dilation=3, seed=3)
def test_depthwise_matches_loop_oracles(n, h, w, kernel, dilation, seed):
    """Forward output and all three gradients against the naive loops."""
    rng = np.random.default_rng(seed)
    c = 2
    x = rand(rng, (n, c, h, w))
    wt, b = rand(rng, (c, kernel, kernel)), rand(rng, (c,))
    g = rand(rng, (n, c, h, w))
    spec = ConvSpec(kernel, dilation)
    np.testing.assert_allclose(
        ops.depthwise_conv(x, wt, b, spec), depthwise_conv_loops(x, wt, b, kernel, dilation), atol=1e-6
    )
    got = ops.depthwise_conv_backward(g, x, wt, spec)
    for a, r in zip(got, depthwise_conv_backward_loops(g, x, wt, kernel, dilation)):
        np.testing.assert_allclose(a, r, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=2),
    c=st.integers(min_value=1, max_value=7),
    h=st.integers(min_value=1, max_value=10),
    w=st.integers(min_value=1, max_value=10),
    kernel=st.sampled_from([1, 3, 5, 7]),
    dilation=st.integers(min_value=1, max_value=3),
    budget=st.integers(min_value=1 << 10, max_value=16 << 10),
    seed=st.integers(min_value=0, max_value=10_000),
)
# several channel blocks with a partial last one; one channel cut into bands
# of rows; bands of a single row; kernel 1
@example(n=2, c=7, h=6, w=6, kernel=3, dilation=1, budget=12 << 10, seed=0)
@example(n=1, c=3, h=10, w=9, kernel=5, dilation=2, budget=16 << 10, seed=1)
@example(n=2, c=2, h=7, w=10, kernel=7, dilation=1, budget=1 << 10, seed=2)
@example(n=2, c=5, h=9, w=4, kernel=1, dilation=3, budget=1 << 10, seed=3)
def test_depthwise_blocks_match_loop_oracles(n, c, h, w, kernel, dilation, budget, seed):
    """Forward output and all three gradients against the naive loops under a
    tile budget of a few KiB, so that channel blocks and row bands vary."""
    rng = np.random.default_rng(seed)
    x, g = rand(rng, (n, c, h, w)), rand(rng, (n, c, h, w))
    wt, b = rand(rng, (c, kernel, kernel)), rand(rng, (c,))
    spec = ConvSpec(kernel, dilation)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "_DW_TILE_BYTES", budget)
        out = ops.depthwise_conv(x, wt, b, spec)
        got = ops.depthwise_conv_backward(g, x, wt, spec)
    np.testing.assert_allclose(out, depthwise_conv_loops(x, wt, b, kernel, dilation), atol=1e-6)
    for a, r in zip(got, depthwise_conv_backward_loops(g, x, wt, kernel, dilation)):
        np.testing.assert_allclose(a, r, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    c=st.integers(min_value=1, max_value=8),
    h=st.integers(min_value=1, max_value=12),
    w=st.integers(min_value=1, max_value=12),
    kernel=st.sampled_from([1, 3, 5, 7]),
    dilation=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
# the widest halo over three items and eight channels; bands of one row
@example(n=3, c=8, h=12, w=12, kernel=7, dilation=3, seed=0)
@example(n=3, c=2, h=12, w=5, kernel=7, dilation=1, seed=1)
def test_depthwise_tile_budget_keeps_bits(n, c, h, w, kernel, dilation, seed):
    """The kernel-row sums and fills run over whole tiles, so sums in the
    halo rows read across items, channels and band edges.  None of that may
    reach an output: under budgets of 1, 3 and 16 KiB, which cut the same
    tensors into other channel blocks and row bands, the forward output and
    the input gradient equal the 1 MiB result bit for bit.  (The weight
    gradient adds its bands in index order, so it may round differently.)"""
    rng = np.random.default_rng(seed)
    x, g = (rand(rng, (n, c, h, w)).astype(np.float32) for _ in range(2))
    wt, b = rand(rng, (c, kernel, kernel)).astype(np.float32), rand(rng, (c,)).astype(np.float32)
    spec = ConvSpec(kernel, dilation)

    def run(budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ops, "_DW_TILE_BYTES", budget)
            return ops.depthwise_conv(x, wt, b, spec), ops.depthwise_conv_backward(g, x, wt, spec)[0]

    out, grad_x = run(1 << 20)
    for budget in (1 << 10, 3 << 10, 16 << 10):
        got_out, got_grad_x = run(budget)
        np.testing.assert_array_equal(got_out, out)
        np.testing.assert_array_equal(got_grad_x, grad_x)


# The dtype-refusal table: one valid float64 call of every op, by keyword.
# Each 4-D array argument of a call but conv2d's weights, which are cast to
# x's dtype, is refused in turn in every dtype of NON_FLOAT_DTYPES
_X, _V = np.ones((1, 2, 3, 3)), np.ones(2)
NON_FLOAT_DTYPES = [np.int64, np.int32, np.bool_, np.float16, np.longdouble]
VALID_CALLS = {
    "depthwise_conv": dict(x=_X, weights=np.full((2, 3, 3), 0.4), bias=_V, spec=ConvSpec(3)),
    "depthwise_conv_backward": dict(grad_out=_X, x=_X, weights=np.full((2, 3, 3), 0.4), spec=ConvSpec(3)),
    "conv2d": dict(x=_X, weights=np.full((2, 2, 3, 3), 0.4), bias=_V),
    "conv2d_backward": dict(grad_out=_X, x=_X, weights=np.full((2, 2, 3, 3), 0.4)),
    "pointwise_conv": dict(x=_X, weights=np.ones((2, 2)), bias=_V),
    "pointwise_conv_backward": dict(grad_out=_X, x=_X, weights=np.ones((2, 2))),
    "channel_pool": dict(x=_X, pooling=("avg", "max")),
    "channel_pool_backward": dict(grad_out=_X, x=_X, pooling=("avg", "max")),
    "add": dict(a=_X, b=_X),
    "sigmoid": dict(x=_X),
    "sigmoid_backward": dict(grad_out=_X, y=_X),
    "gelu": dict(x=_X),
    "gelu_backward": dict(grad_out=_X, x=_X),
    "broadcast_mask_mul": dict(x=_X, mask=_X[:, :1]),
    "broadcast_mask_mul_backward": dict(grad_out=_X, x=_X, mask=_X[:, :1]),
    "affine_channel_norm": dict(x=_X, scale=_V, shift=_V, mean=_V, var=_V),
    "affine_channel_norm_backward": dict(grad_out=_X, x=_X, scale=_V, mean=_V, var=_V),
    "batch_norm": dict(x=_X, scale=_V, shift=_V),
    "batch_norm_backward": dict(grad_out=_X, x=_X, scale=_V, mean=_V, var=_V),
    "global_avg_pool": dict(x=_X),
    "global_avg_pool_backward": dict(grad_out=_X[:, :, :1, :1], x=_X),
}
REFUSALS = [
    (op, arg) for op, call in VALID_CALLS.items()
    for arg, value in call.items() if isinstance(value, np.ndarray) and value.ndim == 4 and arg != "weights"
]


def assert_refuses(op, arg, dtype):
    """``op``'s valid call runs, and with ``arg`` cast to ``dtype`` it is
    refused by a ShapeError naming the op and the argument."""
    call = VALID_CALLS[op]
    getattr(ops, op)(**call)
    message = f"^{op}: {arg}: expected a float32 or float64 input, got dtype {np.dtype(dtype)}$"
    with pytest.raises(ShapeError, match=message):
        getattr(ops, op)(**dict(call, **{arg: call[arg].astype(dtype)}))


@pytest.mark.parametrize("dtype", NON_FLOAT_DTYPES)
@pytest.mark.parametrize("op, arg", REFUSALS, ids=[f"{op}-{arg}" for op, arg in REFUSALS])
def test_ops_refuse_non_float_arrays(op, arg, dtype):
    """Every array an op reads is float32 or float64: any other dtype would
    be promoted silently (``add`` of two bool maps is their logical OR)."""
    assert_refuses(op, arg, dtype)


def test_refusal_table_covers_every_array_argument():
    """Every function in ``ops.__all__`` but the check itself and
    ``conv_out_size``, which takes sizes, has a row refusing each of its
    Tensor4 arguments, so no new op can land with a rank-only check."""
    for name in ops.__all__:
        fn = getattr(ops, name)
        if not inspect.isfunction(fn) or name in ("check_tensor4", "conv_out_size"):
            continue
        assert name in VALID_CALLS, f"{name} has no row in the dtype-refusal table"
        tensors = [p for p, param in inspect.signature(fn).parameters.items() if param.annotation == "Tensor4"]
        assert [arg for op, arg in REFUSALS if op == name] == tensors, name


@pytest.mark.parametrize("dtype", NON_FLOAT_DTYPES)
@pytest.mark.parametrize("name", ["depthwise_conv", "depthwise_conv_backward", "conv2d", "conv2d_backward"])
def test_convs_reject_non_float_input(dtype, name):
    """The convs cast their weights to the input's dtype, so an integer or
    boolean input would run with its 0.4 taps truncated to zero (or fail
    inside numpy's casting), and a float16 or longdouble one in another
    precision."""
    assert_refuses(name, "x", dtype)


@pytest.mark.parametrize("dtype", NON_FLOAT_DTYPES)
@pytest.mark.parametrize("name", ["global_avg_pool_backward", "channel_pool_backward"])
def test_average_pool_backwards_reject_non_float_input(dtype, name):
    """Both average-pool backwards give the gradient x's dtype, so an integer
    ``x`` would turn each 0.25 share into 0, a boolean one into True and a
    float16 or longdouble one into another precision."""
    assert_refuses(name, "x", dtype)


class TestConv2d:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=2),
        c=st.integers(min_value=1, max_value=3),
        h=st.integers(min_value=1, max_value=9),
        w=st.integers(min_value=1, max_value=9),
        kernel=st.sampled_from([1, 3, 5, 7]),
        stride=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    # odd sides, where the output is ceil(side / stride); a map smaller than the kernel
    @example(n=1, c=2, h=9, w=7, kernel=3, stride=2, seed=0)
    @example(n=2, c=1, h=1, w=2, kernel=7, stride=4, seed=1)
    def test_matches_loop_oracles(self, n, c, h, w, kernel, stride, seed):
        """Forward output and all three gradients against the naive loops
        padded by k // 2, in float64."""
        rng = np.random.default_rng(seed)
        x = rand(rng, (n, c, h, w))
        wt, b = rand(rng, (3, c, kernel, kernel)), rand(rng, (3,))
        out = ops.conv2d(x, wt, b, stride=stride)
        np.testing.assert_allclose(out, conv2d_loops(x, wt, b, stride, kernel // 2), atol=1e-6)
        g = rand(rng, out.shape)
        got = ops.conv2d_backward(g, x, wt, stride=stride)
        for a, r in zip(got, conv2d_backward_loops(g, x, wt, stride, kernel // 2)):
            np.testing.assert_allclose(a, r, atol=1e-6)

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (4, 3)])
    def test_matches_loop_oracle(self, rng, stride, padding):
        k = 3 if padding == 1 else 7
        x = rand(rng, (2, 3, 8, 8))
        w = rand(rng, (4, 3, k, k))
        b = rand(rng, (4,))
        out = ops.conv2d(x, w, b, stride=stride)
        ref = conv2d_loops(x, w, b, stride, padding)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    @pytest.mark.parametrize("stride", [1, 2, 4])
    @pytest.mark.parametrize("padding", [1, 3])
    def test_backward_matches_loop_oracle(self, rng, stride, padding):
        k = 7 if padding == 3 else 3
        x = rand(rng, (2, 3, 9, 9))
        w = rand(rng, (4, 3, k, k))
        oh = (9 + 2 * padding - k) // stride + 1
        g = rand(rng, (2, 4, oh, oh))
        got = ops.conv2d_backward(g, x, w, stride=stride)
        ref = conv2d_backward_loops(g, x, w, stride, padding)
        for a, b in zip(got, ref):
            np.testing.assert_allclose(a, b, atol=1e-6)

    def test_backward_non_contiguous_inputs(self, rng):
        x = rand(rng, (2, 6, 8, 8))[:, 1:4]  # channel slice
        w = rand(rng, (5, 3, 3, 3))
        g = rand(rng, (2, 5, 4, 4)).transpose(0, 1, 3, 2)  # transposed view
        got = ops.conv2d_backward(g, x, w, stride=2)
        ref = conv2d_backward_loops(g, x, w, 2, 1)
        for a, b in zip(got, ref):
            np.testing.assert_allclose(a, b, atol=1e-6)

    @pytest.mark.parametrize(
        "w_shape,stride",
        [((4, 3, 3, 3), 0), ((4, 3, 3), 1), ((4, 2, 3, 3), 1), ((4, 3, 2, 2), 1), ((4, 3, 4, 4), 1)],
        ids=["stride-0", "3d-weights", "channel-mismatch", "even-kernel-2", "even-kernel-4"],
    )
    def test_backward_rejects_bad_arguments(self, rng, w_shape, stride):
        """An even kernel has no k // 2 padding that keeps the output at
        ceil(side / stride), so both ops refuse it."""
        x = rand(rng, (1, 3, 6, 6))
        g = rand(rng, (1, 4, 6, 6))
        w = rand(rng, w_shape)
        with pytest.raises(ShapeError):
            ops.conv2d_backward(g, x, w, stride=stride)
        with pytest.raises(ShapeError):
            ops.conv2d(x, w, rand(rng, (4,)), stride=stride)

    def test_output_shape_stride(self, rng):
        x = rand(rng, (1, 3, 64, 64))
        w = rand(rng, (8, 3, 7, 7))
        out = ops.conv2d(x, w, np.zeros(8), stride=4)
        assert out.shape == (1, 8, 16, 16)


class TestPointwise:
    def test_identity_weights(self, rng):
        x = rand(rng, (2, 4, 3, 3))
        out = ops.pointwise_conv(x, np.eye(4), np.zeros(4))
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_dot_product_example(self):
        x = np.array([3.0, 4.0]).reshape(1, 2, 1, 1)
        out = ops.pointwise_conv(x, np.array([[1.0, 1.0]]), np.zeros(1))
        assert out[0, 0, 0, 0] == 7.0

    def test_matches_loop_oracle(self, rng):
        x = rand(rng, (2, 5, 4, 4))
        w = rand(rng, (3, 5))
        b = rand(rng, (3,))
        np.testing.assert_allclose(
            ops.pointwise_conv(x, w, b), pointwise_conv_loops(x, w, b), atol=1e-6
        )

    def test_backward_matches_loop_oracle(self, rng):
        x = rand(rng, (2, 5, 4, 3))
        w = rand(rng, (3, 5))
        g = rand(rng, (2, 3, 4, 3))
        got = ops.pointwise_conv_backward(g, x, w)
        for a, b in zip(got, pointwise_conv_backward_loops(g, x, w)):
            np.testing.assert_allclose(a, b, atol=1e-6)

    def test_backward_non_contiguous_inputs(self, rng):
        x = rand(rng, (2, 8, 4, 4))[:, 2:7]  # channel slice
        w = rand(rng, (3, 5))
        g = rand(rng, (2, 3, 4, 4)).transpose(0, 1, 3, 2)  # transposed view
        got = ops.pointwise_conv_backward(g, x, w)
        for a, b in zip(got, pointwise_conv_backward_loops(g, x, w)):
            np.testing.assert_allclose(a, b, atol=1e-6)
        np.testing.assert_allclose(
            ops.pointwise_conv(x, w, np.zeros(3)), pointwise_conv_loops(x, w, np.zeros(3)), atol=1e-6
        )

    def test_channel_mismatch(self, rng):
        with pytest.raises(ShapeError, match="channels"):
            ops.pointwise_conv(rand(rng, (1, 4, 2, 2)), rand(rng, (3, 5)), np.zeros(3))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weight_gradient_adds_batch_items_in_index_order(self, rng, dtype):
        """The accumulated weight gradient is bit-identical to summing the
        stack of per-item products over the batch axis."""
        for n in range(1, 9):
            x = rand(rng, (n, 6, 3, 5)).astype(dtype)
            g = rand(rng, (n, 4, 3, 5)).astype(dtype)
            _, grad_w, _ = ops.pointwise_conv_backward(g, x, rand(rng, (4, 6)).astype(dtype))
            xm, gm = x.reshape(n, 6, 15), g.reshape(n, 4, 15)
            np.testing.assert_array_equal(grad_w, np.matmul(gm, xm.transpose(0, 2, 1)).sum(axis=0))

    def test_backward_peak_allocation(self, rng):
        """Beyond its results, the backward holds one (c_out, c_in) product
        at a time: no (n, c_out, c_in) stack of per-item products."""
        x = rng.standard_normal((4, 512, 4, 4)).astype(np.float32)
        w = rng.standard_normal((2048, 512)).astype(np.float32)
        g = rng.standard_normal((4, 2048, 4, 4)).astype(np.float32)
        results = x.nbytes + w.nbytes + 2048 * 4
        peak = peak_allocation(ops.pointwise_conv_backward, g, x, w)
        assert peak <= results + w.nbytes + 256 * 1024


class TestChannelPool:
    def test_single_channel_identity(self, rng):
        x = rand(rng, (2, 1, 3, 3))
        for mode in ("avg", "max"):
            np.testing.assert_array_equal(ops.channel_pool(x, (mode,)), x)

    def test_two_channel_values(self):
        x = np.zeros((1, 2, 1, 1))
        x[0, 0], x[0, 1] = 1.0, 3.0
        np.testing.assert_array_equal(ops.channel_pool(x, ("avg", "max", "avg")).reshape(-1), [2.0, 3.0, 2.0])

    def test_matches_loop_oracle(self, rng):
        x = rand(rng, (2, 7, 4, 4))
        for mode in ("avg", "max"):
            np.testing.assert_allclose(
                ops.channel_pool(x, (mode,)), channel_pool_loops(x, mode), atol=1e-12
            )

    def test_unknown_mode(self, rng):
        """A pooling set is a non-empty sequence of modes; a bare string
        would be read as its letters, so it is refused by name as well."""
        x = rand(rng, (1, 2, 2, 2))
        message = r"pooling must be a non-empty sequence of 'avg' and 'max', got "
        for pooling in [("median",), ("avg", "min"), (), "avg", "max"]:
            with pytest.raises(ShapeError, match=f"^channel_pool: {message}"):
                ops.channel_pool(x, pooling)
            with pytest.raises(ShapeError, match=f"^channel_pool_backward: {message}"):
                ops.channel_pool_backward(np.ones((1, 1, 2, 2)), x, pooling)

    @staticmethod
    def backward_loops(g, x, pooling):
        """x's gradient, one element at a time in float64: per mode in order,
        avg adds g/c to every channel, max adds g to the lowest-index winner."""
        n, c, h, w = x.shape
        out = np.zeros(x.shape)
        for i, mode in enumerate(pooling):
            for b, row, col in itertools.product(range(n), range(h), range(w)):
                vals = [float(x[b, ch, row, col]) for ch in range(c)]
                for ch in range(c) if mode == "avg" else [vals.index(max(vals))]:
                    out[b, ch, row, col] += float(g[b, i, row, col]) / (c if mode == "avg" else 1)
        return out

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 2),
        widths=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        pooling=st.sampled_from([("avg",), ("max",), ("avg", "max"), ("max", "avg")]),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    def test_pooling_set_matches_per_mode_loops(self, n, widths, pooling, dtype, seed):
        """The concatenated branches pool into one stacked map per mode, and
        the gradient adds the per-mode terms.  Values rounded to tenths tie
        often, so the max gradient's lowest-index rule is exercised."""
        rng = np.random.default_rng(seed)
        x = np.concatenate([np.round(rng.uniform(-2, 2, (n, c, 3, 4)), 1) for c in widths], axis=1).astype(dtype)
        g = rng.uniform(-1, 1, (n, len(pooling), 3, 4)).astype(dtype)
        tol = 1e-12 if dtype is np.float64 else 1e-6
        out = ops.channel_pool(x, pooling)
        assert out.dtype == dtype
        np.testing.assert_allclose(out, np.concatenate([channel_pool_loops(x, m) for m in pooling], axis=1), atol=tol)
        grad_x = ops.channel_pool_backward(g, x, pooling)
        assert grad_x.dtype == dtype
        np.testing.assert_allclose(grad_x, self.backward_loops(g, x, pooling), atol=tol)


class TestElementwiseAndScalars:
    def test_sigmoid_zero_is_half(self):
        out = ops.sigmoid(np.zeros((1, 2, 3, 3)))
        assert (out == 0.5).all()

    def test_sigmoid_matches_formula(self, rng):
        x = rand(rng, (2, 3, 4, 4))
        np.testing.assert_allclose(ops.sigmoid(x), sigmoid_ref(x), atol=1e-12)

    def test_sigmoid_extreme_inputs_finite(self):
        x = np.array([-1e4, -50.0, 0.0, 50.0, 1e4]).reshape(1, 1, 1, 5)
        out = ops.sigmoid(x)
        assert np.isfinite(out).all()
        assert out[0, 0, 0, 0] == 0.0 or out[0, 0, 0, 0] < 1e-20
        assert out[0, 0, 0, 4] == 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_special_values(self, dtype):
        x = np.array([0.0, -0.0, np.inf, -np.inf, 1e30, -1e30, np.nan], dtype=dtype)
        out = ops.sigmoid(x.reshape(1, 1, 1, -1)).reshape(-1)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, [0.5, 0.5, 1.0, 0.0, 1.0, 0.0, np.nan])

    def test_gelu_matches_formula(self, rng):
        x = rand(rng, (2, 3, 4, 4))
        np.testing.assert_allclose(ops.gelu(x), gelu_ref(x), atol=1e-12)

    def test_sigmoid_rejects_non_4d(self, rng):
        with pytest.raises(ShapeError, match="sigmoid"):
            ops.sigmoid(rand(rng, (2, 3, 4)))

    @pytest.mark.parametrize(
        "dtype, expected", [(np.float32, np.float32), (np.float64, np.float64)]
    )
    def test_sigmoid_result_dtype(self, dtype, expected):
        out = ops.sigmoid(np.zeros((1, 1, 1, 2), dtype=dtype))
        assert out.dtype == expected
        assert (out == 0.5).all()

    # Every backward op: the shape of its forward's output for an input of
    # X_SHAPE, and its arguments built from a gradient ``g``, an input ``x``
    # and a vector ``v`` whose length matches x's second axis
    X_SHAPE = (2, 4, 5, 5)
    BACKWARD_ARGS = {
        "depthwise_conv_backward": ((2, 4, 5, 5), lambda g, x, v: (g, x, np.ones((4, 3, 3)), ConvSpec(3))),
        "conv2d_backward": ((2, 3, 3, 3), lambda g, x, v: (g, x, np.ones((3, 4, 3, 3)), 2)),
        "pointwise_conv_backward": ((2, 3, 5, 5), lambda g, x, v: (g, x, np.ones((3, 4)))),
        "channel_pool_backward": ((2, 2, 5, 5), lambda g, x, v: (g, x, ("avg", "max"))),
        "sigmoid_backward": ((2, 4, 5, 5), lambda g, x, v: (g, x)),
        "gelu_backward": ((2, 4, 5, 5), lambda g, x, v: (g, x)),
        "broadcast_mask_mul_backward": ((2, 4, 5, 5), lambda g, x, v: (g, x, x[:, :1])),
        "affine_channel_norm_backward": ((2, 4, 5, 5), lambda g, x, v: (g, x, v, v, v * v + 1.0)),
        "batch_norm_backward": ((2, 4, 5, 5), lambda g, x, v: (g, x, v, v, v * v + 1.0)),
        "global_avg_pool_backward": ((2, 4, 1, 1), lambda g, x, v: (g, x)),
    }

    def test_registry_names_every_backward_op(self):
        assert set(self.BACKWARD_ARGS) == {name for name in ops.__all__ if name.endswith("_backward")}

    @pytest.mark.parametrize("op", list(BACKWARD_ARGS))
    def test_backward_rejects_non_4d(self, rng, op):
        a = rand(rng, (3, 4))
        with pytest.raises(ShapeError, match=op):
            getattr(ops, op)(*self.BACKWARD_ARGS[op][1](a, a, rand(rng, (4,))))

    @pytest.mark.parametrize("op", list(BACKWARD_ARGS))
    def test_backward_refuses_what_its_forward_refuses(self, rng, op):
        """The forward's output shape is the one ``grad_out`` accepted; one
        dim off is refused in one wording.  The norms' vectors have one entry
        per channel, as the forward's do."""
        fn, (out_shape, build) = getattr(ops, op), self.BACKWARD_ARGS[op]
        x, v = rand(rng, self.X_SHAPE), rand(rng, (self.X_SHAPE[1],))
        fn(*build(rand(rng, out_shape), x, v))
        for axis in range(4):
            bad = tuple(d + (a == axis) for a, d in enumerate(out_shape))
            message = rf"^{op}: grad_out {re.escape(str(bad))} != expected {re.escape(str(out_shape))}$"
            with pytest.raises(ShapeError, match=message):
                fn(*build(rand(rng, bad), x, v))
        if op.endswith("norm_backward"):
            names = list(inspect.signature(fn).parameters)
            for i in (2, 3, 4):  # scale, mean and var
                args = list(build(rand(rng, out_shape), x, v))
                args[i] = np.ones(1)
                message = rf"^{op}: {names[i]}: expected vector of length 4, got \(1,\)$"
                with pytest.raises(ShapeError, match=message):
                    fn(*args)

    def test_elementwise_requires_matching_shapes(self, rng):
        with pytest.raises(ShapeError, match="mismatch"):
            ops.add(rand(rng, (1, 2, 3, 3)), rand(rng, (1, 2, 3, 4)))

    def test_no_implicit_broadcasting(self, rng):
        # a (n,1,h,w) against (n,c,h,w) must fail in add
        with pytest.raises(ShapeError):
            ops.add(rand(rng, (1, 1, 3, 3)), rand(rng, (1, 4, 3, 3)))

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(*[st.integers(1, 4)] * 4),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    @example(shape=(2, 1, 3, 1), dtype=np.float32, seed=0)
    def test_broadcast_mask_mul(self, shape, dtype, seed):
        rng = np.random.default_rng(seed)
        x, g = (rand(rng, shape).astype(dtype) for _ in range(2))
        # every weight pattern: each dim x's (True) or 1 (False)
        for keep in itertools.product([True, False], repeat=4):
            m = rand(rng, [d if k else 1 for d, k in zip(shape, keep)]).astype(dtype)
            out = ops.broadcast_mask_mul(x, m)
            assert out.dtype == dtype and out.tobytes() == (x * m).tobytes()
            grad_x, grad_m = ops.broadcast_mask_mul_backward(g, x, m)
            np.testing.assert_array_equal(grad_x, g * m)
            ref = (g * x).sum(axis=tuple(a for a in range(4) if not keep[a]), keepdims=True)
            assert grad_m.shape == m.shape and grad_m.dtype == dtype
            np.testing.assert_array_equal(grad_m, ref)
            for a in range(4):  # a dim that is neither x's nor 1
                bad = list(m.shape)
                bad[a] = shape[a] + 1
                with pytest.raises(ShapeError, match="each dim must be x's or 1"):
                    ops.broadcast_mask_mul(x, np.ones(bad, dtype))
                with pytest.raises(ShapeError, match="each dim must be x's or 1"):
                    ops.broadcast_mask_mul_backward(g, x, np.ones(bad, dtype))


def test_all_names_every_public_op():
    """perfbench's tracer and the gradcheck registry test both find the ops
    through ``ops.__all__``, so a public op left out would escape both."""
    defined = {
        name for name, fn in vars(ops).items()
        if inspect.isfunction(fn) and fn.__module__ == ops.__name__ and not name.startswith("_")
    }
    assert defined <= set(ops.__all__)
    assert all(hasattr(ops, name) for name in ops.__all__)


@st.composite
def gelu_pairs(draw):
    """Equal-shape (grad_out, x) float64 arrays up to 2x4x9x9, values in +-30."""
    shape = draw(
        st.tuples(
            st.integers(1, 2), st.integers(1, 4), st.integers(1, 9), st.integers(1, 9)
        )
    )
    values = st.floats(-30.0, 30.0)
    return draw(arrays(np.float64, shape, elements=values)), draw(
        arrays(np.float64, shape, elements=values)
    )


class TestGelu:
    @given(gelu_pairs())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracles_float64(self, pair):
        g, x = pair
        np.testing.assert_allclose(ops.gelu(x), gelu_ref(x), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            ops.gelu_backward(g, x), gelu_backward_ref(g, x), rtol=0, atol=1e-12
        )

    def test_float32_backward_matches_oracle(self, rng):
        x = np.concatenate([rng.uniform(-30, 30, 2000), np.linspace(-8, 8, 2000)])
        x = x.reshape(2, 4, 25, 20).astype(np.float32)
        g = rng.uniform(-1, 1, x.shape).astype(np.float32)
        out = ops.gelu_backward(g, x)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, gelu_backward_ref(g, x), rtol=0, atol=1e-5)

    @pytest.mark.parametrize(
        "g_dtype, x_dtype",
        [
            (np.float32, np.float32),
            (np.float64, np.float64),
            (np.float64, np.float32),
            (np.float32, np.float64),
        ],
    )
    def test_dtypes_and_inputs_untouched(self, rng, g_dtype, x_dtype):
        x = rand(rng, (2, 3, 5, 5)).astype(x_dtype)
        g = rand(rng, x.shape).astype(g_dtype)
        x_before, g_before = x.copy(), g.copy()
        y = ops.gelu(x)
        grad_x = ops.gelu_backward(g, x)
        np.testing.assert_array_equal(x, x_before)
        np.testing.assert_array_equal(g, g_before)
        assert y.dtype == x.dtype
        assert grad_x.dtype == np.result_type(g, x)
        for out in (y, grad_x):
            assert not np.shares_memory(out, x)
            assert not np.shares_memory(out, g)
        np.testing.assert_allclose(grad_x, gelu_backward_ref(g, x), rtol=0, atol=1e-5)

    @pytest.mark.parametrize("op, copies", [("gelu", 1), ("gelu_backward", 3)])
    def test_peak_allocation(self, rng, op, copies):
        """gelu allocates only its result; gelu_backward at most three
        full-size buffers, the result included."""
        x = rng.standard_normal((1, 64, 64, 64)).astype(np.float32)
        args = (x,) if op == "gelu" else (np.ones_like(x), x)
        peak = peak_allocation(getattr(ops, op), *args)
        assert peak <= copies * x.nbytes + 64 * 1024

    def test_rejects_non_4d(self, rng):
        with pytest.raises(ShapeError, match="gelu"):
            ops.gelu(rand(rng, (2, 3, 4)))


class TestDepthwiseMemory:
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("kernel, dilation", [(3, 1), (7, 3)])
    def test_peak_allocation(self, rng, backward, kernel, dilation):
        """Beyond its results (one full-size tensor either way, plus the small
        weight and bias gradients), the depth-wise conv allocates only its
        tile budget and slack: the padded source block, at most a sixth of
        the budget, and the iteration buffers of a ufunc on strided views."""
        x = rng.standard_normal((1, 64, 64, 64)).astype(np.float32)
        w = rng.standard_normal((64, kernel, kernel)).astype(np.float32)
        spec = ConvSpec(kernel, dilation)
        if backward:
            peak = peak_allocation(ops.depthwise_conv_backward, np.ones_like(x), x, w, spec)
            results = x.nbytes + w.nbytes + 64 * 4
        else:
            peak = peak_allocation(ops.depthwise_conv, x, w, np.zeros(64, np.float32), spec)
            results = x.nbytes
        assert peak <= results + ops._DW_TILE_BYTES + ops._DW_TILE_BYTES // 4 + 64 * 1024


class TestNorms:
    def test_identity_configuration(self, rng):
        x = rand(rng, (2, 3, 4, 4))
        out = ops.affine_channel_norm(x, np.ones(3), np.zeros(3), np.zeros(3), np.full(3, 1 - ops.NORM_EPS))
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_matches_loop_oracle(self, rng):
        x = rand(rng, (2, 4, 3, 3))
        scale, shift = rand(rng, (4,)), rand(rng, (4,))
        mean, var = rand(rng, (4,)), np.abs(rand(rng, (4,))) + 0.1
        out = ops.affine_channel_norm(x, scale, shift, mean, var)
        ref = affine_norm_loops(x, scale, shift, mean, var, ops.NORM_EPS)
        np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_batch_norm_zero_mean_unit_var(self, rng):
        x = rand(rng, (4, 3, 5, 5))
        y, mean, var = ops.batch_norm(x, np.ones(3), np.zeros(3))
        assert abs(y.mean()) < 1e-10
        np.testing.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-3)
        np.testing.assert_allclose(mean, x.mean(axis=(0, 2, 3)), rtol=0, atol=1e-12)
        np.testing.assert_allclose(var, x.var(axis=(0, 2, 3)), rtol=0, atol=1e-12)

    def test_global_avg_pool(self, rng):
        x = rand(rng, (2, 3, 4, 4))
        np.testing.assert_allclose(ops.global_avg_pool(x), global_avg_pool_loops(x), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    c=st.integers(min_value=1, max_value=4),
    h=st.integers(min_value=1, max_value=5),
    w=st.integers(min_value=1, max_value=5),
    constant=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
# one element per channel, and a constant channel: zero variance either way
@example(n=1, c=2, h=1, w=1, constant=False, seed=0)
@example(n=2, c=1, h=3, w=3, constant=True, seed=1)
def test_batch_norm_matches_loop_oracles(n, c, h, w, constant, seed):
    """Forward output, batch statistics and all three gradients against the
    naive loops in float64."""
    rng = np.random.default_rng(seed)
    x = np.full((n, c, h, w), 1.5) if constant else rand(rng, (n, c, h, w))
    scale, shift, g = rand(rng, (c,)), rand(rng, (c,)), rand(rng, (n, c, h, w))
    y, mean, var = ops.batch_norm(x, scale, shift)
    for a, r in zip((y, mean, var), batch_norm_loops(x, scale, shift, 1e-5)):
        np.testing.assert_allclose(a, r, rtol=0, atol=1e-6)
    got = ops.batch_norm_backward(g, x, scale, mean, var)
    for a, r in zip(got, batch_norm_backward_loops(g, x, scale, 1e-5)):
        np.testing.assert_allclose(a, r, rtol=0, atol=1e-6)


class TestDeterminismAndFiniteness:
    def test_bit_identical_reruns(self, rng):
        x = rand(rng, (2, 4, 8, 8)).astype(np.float32)
        w = rand(rng, (4, 5, 5)).astype(np.float32)
        b = rand(rng, (4,)).astype(np.float32)
        a = ops.depthwise_conv(x, w, b, ConvSpec(5, 2))
        c = ops.depthwise_conv(x, w, b, ConvSpec(5, 2))
        assert (a == c).all()
        pw = rand(rng, (6, 4)).astype(np.float32)
        pb = rand(rng, (6,)).astype(np.float32)
        assert (ops.pointwise_conv(x, pw, pb) == ops.pointwise_conv(x, pw, pb)).all()
        cw = rand(rng, (6, 4, 3, 3)).astype(np.float32)
        a = ops.conv2d(x, cw, pb, stride=2)
        c = ops.conv2d(x, cw, pb, stride=2)
        assert (a == c).all()
        g = rand(rng, x.shape).astype(np.float32)
        a = ops.depthwise_conv_backward(g, x, w, ConvSpec(5, 2))
        c = ops.depthwise_conv_backward(g, x, w, ConvSpec(5, 2))
        assert all((p == q).all() for p, q in zip(a, c))
        assert (ops.gelu(x) == ops.gelu(x)).all()
        assert (ops.gelu_backward(g, x) == ops.gelu_backward(g, x)).all()

    def test_float32_stays_float32(self, rng):
        x = rand(rng, (1, 2, 4, 4)).astype(np.float32)
        out = ops.gelu(ops.sigmoid(x))
        assert out.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_channel_mixing_keeps_dtype(self, rng, dtype):
        x = rand(rng, (2, 3, 8, 8)).astype(dtype)
        pw, pb = rand(rng, (4, 3)).astype(dtype), rand(rng, (4,)).astype(dtype)
        cw, cb = rand(rng, (4, 3, 3, 3)).astype(dtype), rand(rng, (4,)).astype(dtype)
        dw, db = rand(rng, (3, 7, 7)).astype(dtype), rand(rng, (3,)).astype(dtype)
        y = ops.pointwise_conv(x, pw, pb)
        z = ops.conv2d(x, cw, cb, stride=2)
        u = ops.depthwise_conv(x, dw, db, ConvSpec(7, 3))
        outs = [
            y,
            *ops.pointwise_conv_backward(np.ones_like(y), x, pw),
            z,
            *ops.conv2d_backward(np.ones_like(z), x, cw, stride=2),
            u,
            *ops.depthwise_conv_backward(np.ones_like(u), x, dw, ConvSpec(7, 3)),
        ]
        assert [o.dtype for o in outs] == [np.dtype(dtype)] * 12
        # weights and vectors of the other dtype: each op gives what it gives
        # for them cast to x's dtype first, bit for bit, except that a weight
        # or scale gradient keeps the dtype of its weight or scale
        other = np.float64 if dtype is np.float32 else np.float32
        scale, shift, mean = (rand(rng, (3,)) for _ in range(3))
        var = np.abs(rand(rng, (3,))) + 0.5
        gamma = rand(rng, (1, 3, 1, 1))  # a residual scale
        spec = ConvSpec(7, 3)
        rows = {  # op, its arguments after x, the dtypes of its outputs (x's: None)
            "pointwise_conv": (ops.pointwise_conv, (pw, pb), [None]),
            "pointwise_conv_backward": (lambda x, w: ops.pointwise_conv_backward(np.ones_like(y), x, w), (pw,),
                                        [None, other, None]),
            "conv2d": (lambda x, w, b: ops.conv2d(x, w, b, stride=2), (cw, cb), [None]),
            "conv2d_backward": (lambda x, w: ops.conv2d_backward(np.ones_like(z), x, w, stride=2), (cw,),
                                [None, other, None]),
            "depthwise_conv": (lambda x, w, b: ops.depthwise_conv(x, w, b, spec), (dw, db), [None]),
            "depthwise_conv_backward": (lambda x, w: ops.depthwise_conv_backward(np.ones_like(u), x, w, spec),
                                        (dw,), [None, other, None]),
            "affine_channel_norm": (ops.affine_channel_norm, (scale, shift, mean, var), [None]),
            "affine_channel_norm_backward": (lambda x, *v: ops.affine_channel_norm_backward(np.ones_like(x), x, *v),
                                             (scale, mean, var), [None, other, None]),
            "broadcast_mask_mul": (ops.broadcast_mask_mul, (gamma,), [None]),
            "broadcast_mask_mul_backward": (lambda x, m: ops.broadcast_mask_mul_backward(np.ones_like(x), x, m),
                                            (gamma,), [None, other]),
            "batch_norm": (ops.batch_norm, (scale, shift), [None, None, None]),
            "batch_norm_backward": (lambda x, *v: ops.batch_norm_backward(np.ones_like(x), x, *v),
                                    (scale, mean, var), [None, other, None]),
        }
        for name, (op, args, dtypes) in rows.items():
            mixed = op(x, *(a.astype(other) for a in args))
            cast = op(x, *(a.astype(other).astype(dtype) for a in args))
            mixed, cast = (o if isinstance(o, tuple) else (o,) for o in (mixed, cast))
            assert [o.dtype for o in mixed] == [np.dtype(d or dtype) for d in dtypes], name
            for got, want in zip(mixed, cast):
                assert (got == want.astype(got.dtype)).all(), name

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_finite_in_finite_out(self, c, hw):
        rng = np.random.default_rng(c * 100 + hw)
        x = rng.uniform(-50, 50, size=(1, c, hw, hw)).astype(np.float32)
        for out in (ops.sigmoid(x), ops.gelu(x), ops.channel_pool(x, ("avg",))):
            assert np.isfinite(out).all()


@settings(max_examples=40, deadline=None)
@given(
    kernel=st.sampled_from([3, 5]),
    dilation=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_dirac_identity_property(kernel, dilation, seed):
    """A centred delta kernel is the identity for any dilation."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(1, 2, 6, 6))
    w = np.zeros((2, kernel, kernel))
    w[:, kernel // 2, kernel // 2] = 1.0
    out = ops.depthwise_conv(x, w, np.zeros(2), ConvSpec(kernel, dilation))
    np.testing.assert_array_equal(out, x)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_shape_preservation_property(seed):
    """Same-padded convs and pointwise/elementwise ops preserve (h, w)."""
    rng = np.random.default_rng(seed)
    n, c, h, w = 1, int(rng.integers(1, 5)), int(rng.integers(2, 8)), int(rng.integers(2, 8))
    x = rng.uniform(-2, 2, size=(n, c, h, w))
    spec = ConvSpec(3, int(rng.integers(1, 3)))
    assert ops.depthwise_conv(x, rng.uniform(-1, 1, (c, 3, 3)), np.zeros(c), spec).shape == x.shape
    assert ops.pointwise_conv(x, rng.uniform(-1, 1, (c + 1, c)), np.zeros(c + 1)).shape == (
        n,
        c + 1,
        h,
        w,
    )
    assert ops.channel_pool(x, ("max",)).shape == (n, 1, h, w)
