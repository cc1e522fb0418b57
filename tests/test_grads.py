"""Backward passes against central finite differences (64-bit, step 1e-4,
relative error < 1e-4) plus the analytically known special cases."""

import numpy as np
import pytest

from lsknet import ops
from lsknet.gradcheck import available_checks, run_check, TOLERANCE
from lsknet.ops import ConvSpec


# the layer cases draw every learnable array from the seed, so they run at
# three seeds; the op cases at one
LAYER_CHECKS = ("lsk_module_spatial", "lsk_module_channel", "lsk_module_none", "lsk_block")
CHECKS = [pytest.param(name, 0, id=name) for name in available_checks()] + [
    pytest.param(name, seed, id=f"{name}-seed{seed}") for name in LAYER_CHECKS for seed in (1, 2)
]


@pytest.mark.parametrize("name,seed", CHECKS)
def test_finite_difference_check(name, seed):
    result = run_check(name, seed=seed)
    assert result.passed, (
        f"{name} seed {seed}: max relative error {result.max_rel_error:.3e} >= {TOLERANCE} "
        f"(worst input {result.worst_input!r} at {result.worst_index})"
    )


def test_zero_upstream_gradient_gives_zero_grads(rng):
    x = rng.uniform(-2, 2, size=(2, 3, 5, 5))
    w = rng.uniform(-1, 1, size=(3, 3, 3))
    gx, gw, gb = ops.depthwise_conv_backward(np.zeros_like(x), x, w, ConvSpec(3, 1))
    assert not gx.any() and not gw.any() and not gb.any()


def test_dirac_kernel_adjoint_is_identity(rng):
    x = rng.uniform(-2, 2, size=(1, 2, 4, 4))
    w = np.zeros((2, 3, 3))
    w[:, 1, 1] = 1.0
    g = rng.uniform(-1, 1, size=x.shape)
    gx, _, _ = ops.depthwise_conv_backward(g, x, w, ConvSpec(3, 1))
    np.testing.assert_array_equal(gx, g)


def test_grad_bias_is_sum_over_batch_and_space(rng):
    x = rng.uniform(-2, 2, size=(2, 3, 4, 4))
    w = rng.uniform(-1, 1, size=(3, 3, 3))
    g = rng.uniform(-1, 1, size=x.shape)
    _, _, gb = ops.depthwise_conv_backward(g, x, w, ConvSpec(3, 1))
    np.testing.assert_allclose(gb, g.sum(axis=(0, 2, 3)), atol=1e-12)


def test_max_pool_ties_route_to_lowest_index():
    x = np.zeros((1, 3, 1, 1))
    x[0, 0] = x[0, 2] = 5.0  # tie between channels 0 and 2
    g = np.ones((1, 1, 1, 1))
    gx = ops.channel_pool_backward(g, x, ("max",))
    assert gx[0, 0, 0, 0] == 1.0 and gx[0, 1, 0, 0] == 0.0 and gx[0, 2, 0, 0] == 0.0


def test_avg_pool_backward_spreads_evenly(rng):
    x = rng.uniform(-1, 1, size=(1, 4, 2, 2))
    g = rng.uniform(-1, 1, size=(1, 1, 2, 2))
    gx = ops.channel_pool_backward(g, x, ("avg",))
    np.testing.assert_allclose(gx, np.broadcast_to(g / 4.0, x.shape), atol=1e-12)


def test_sigmoid_fd_error_is_tiny():
    # smooth scalar op: central differences agree almost to machine precision
    result = run_check("sigmoid", seed=0)
    assert result.max_rel_error < 1e-6
