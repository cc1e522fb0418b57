"""The selection module: pinned examples, the straight-line composition
oracle, the three selection modes, the scalar closed-form backward, and the
walk that names a layer tree's arrays."""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from lsknet import ops
from lsknet.errors import ShapeError
from lsknet.gradcheck import TOLERANCE, numeric_gradients
from lsknet.module import (
    ConvParams,
    SelectionMode,
    init_lsk_params,
    lsk_backward,
    lsk_forward,
    parameter_arrays,
    params_astype,
)
from lsknet.plan import validate_plan

from conftest import peak_allocation
from oracles import lsk_composition, sigmoid_ref


def make_params(plan_seq, c_in, mode=SelectionMode.SPATIAL, seed=0, dtype=np.float64):
    plan = validate_plan(plan_seq)
    params = init_lsk_params(plan, c_in, mode=mode, rng=np.random.default_rng(seed))
    return params_astype(params, dtype)


class TestForwardContracts:
    def test_shape_contract_two_kernels(self, rng):
        params = make_params([(5, 1), (7, 3)], c_in=64)
        x = rng.uniform(-1, 1, size=(1, 64, 32, 32))
        out = lsk_forward(x, params)
        assert out.y.shape == (1, 64, 32, 32)
        assert out.masks.shape == (1, 2, 32, 32)

    def test_zero_selection_conv_gives_masks_of_exactly_half(self, rng):
        params = make_params([(3, 1), (5, 2)], c_in=4)
        params.select.weight[...] = 0.0
        params.select.bias[...] = 0.0
        x = rng.uniform(-1, 1, size=(2, 4, 6, 6))
        out = lsk_forward(x, params)
        assert (out.masks == 0.5).all()
        # hence the fused feature is fuse(0.5 * sum of mixed branches)
        mixed_sum = sum(
            ops.pointwise_conv(u, params.mix[i].weight, params.mix[i].bias)
            for i, u in enumerate(_dw_chain(x, params))
        )
        expected = ops.broadcast_mask_mul(
            x, ops.pointwise_conv(0.5 * mixed_sum, params.fuse.weight, params.fuse.bias)
        )
        np.testing.assert_allclose(out.y, expected, atol=1e-12)

    def test_zero_input_annihilates_output(self, rng):
        params = make_params([(3, 1), (5, 2)], c_in=4, seed=3)
        x = np.zeros((1, 4, 5, 5))
        out = lsk_forward(x, params)
        assert not out.y.any()

    def test_masks_strictly_inside_unit_interval(self, rng):
        params = make_params([(3, 1), (5, 2)], c_in=4, seed=1)
        x = rng.uniform(-2, 2, size=(1, 4, 8, 8))
        masks = lsk_forward(x, params).masks
        assert (masks > 0.0).all() and (masks < 1.0).all()

    def test_channel_count_mismatch(self, rng):
        params = make_params([(3, 1)], c_in=4)
        with pytest.raises(ShapeError, match="channels"):
            lsk_forward(rng.uniform(-1, 1, size=(1, 3, 5, 5)), params)

    def test_empty_pooling_rejected(self):
        with pytest.raises(ShapeError, match="pooling"):
            init_lsk_params(validate_plan([(3, 1)]), 4, pooling=())


def _dw_chain(x, params):
    """Outputs of each depth-wise stage (test helper mirroring the recursion)."""
    outs, u = [], x
    for conv, spec in zip(params.dw, params.plan.stages):
        u = ops.depthwise_conv(u, conv.weight, conv.bias, spec)
        outs.append(u)
    return outs


class TestCompositionOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_straight_line_composition(self, seed):
        rng = np.random.default_rng(seed)
        params = make_params([(3, 1), (5, 2)], c_in=4, seed=seed + 50)
        x = rng.uniform(-2, 2, size=(1, 4, 6, 6))
        out = lsk_forward(x, params)
        ref_y, ref_masks = lsk_composition(x, params)
        np.testing.assert_allclose(out.y, ref_y, atol=1e-6)
        np.testing.assert_allclose(out.masks, ref_masks, atol=1e-6)

    def test_matches_composition_with_wide_selection_kernel(self):
        rng = np.random.default_rng(99)
        params = make_params([(5, 1), (7, 3)], c_in=6, seed=7)
        x = rng.uniform(-2, 2, size=(2, 6, 8, 8))
        out = lsk_forward(x, params)
        ref_y, _ = lsk_composition(x, params)
        np.testing.assert_allclose(out.y, ref_y, atol=1e-6)


class TestModes:
    def test_none_mode_sums_branches_unweighted(self, rng):
        params = make_params([(3, 1), (5, 2)], c_in=4, mode=SelectionMode.NONE, seed=2)
        x = rng.uniform(-1, 1, size=(1, 4, 6, 6))
        out = lsk_forward(x, params)
        assert out.masks is None
        mixed = [
            ops.pointwise_conv(u, params.mix[i].weight, params.mix[i].bias)
            for i, u in enumerate(_dw_chain(x, params))
        ]
        expected = ops.broadcast_mask_mul(
            x, ops.pointwise_conv(sum(mixed), params.fuse.weight, params.fuse.bias)
        )
        np.testing.assert_allclose(out.y, expected, atol=1e-12)

    def test_saturated_single_kernel_matches_none_mode(self, rng):
        # one branch with the selection logit pushed to +inf (bias 20):
        # the mask saturates at 1 and spatial selection degenerates to a sum
        params = make_params([(5, 1)], c_in=4, seed=4)
        params.select.bias[...] = 20.0
        x = rng.uniform(-1, 1, size=(1, 4, 6, 6))
        spatial = lsk_forward(x, params).y
        none = replace(params, select=None, pooling=())
        unweighted = lsk_forward(x, none).y
        np.testing.assert_allclose(spatial, unweighted, atol=1e-6)

    def test_channel_mode_shapes_and_branch_softmax(self, rng):
        params = make_params([(3, 1), (5, 2)], c_in=4, mode=SelectionMode.CHANNEL, seed=5)
        x = rng.uniform(-1, 1, size=(2, 4, 6, 6))
        out = lsk_forward(x, params)
        assert out.y.shape == x.shape
        assert out.masks is None  # spatial masks exist in spatial mode only
        weights = out.state.weights
        assert [w.shape for w in weights] == [(2, 2, 1, 1)] * 2  # per branch: (batch, c_mid, 1, 1)
        np.testing.assert_allclose(sum(weights), 1.0, atol=1e-12)

    @pytest.mark.parametrize("mode", list(SelectionMode))
    def test_mode_is_read_off_the_arrays(self, mode):
        """Only a spatial module holds a selection conv and a pooling set, and
        only a channel module holds the squeeze and expand convs."""
        params = make_params([(3, 1)], c_in=4, mode=mode)
        assert params.mode is mode
        names = [name for name, _ in parameter_arrays(params)]
        spatial = mode is SelectionMode.SPATIAL
        assert (params.select is not None) == spatial
        assert any(name.startswith("select.") for name in names) == spatial
        assert params.pooling == (("avg", "max") if spatial else ())
        assert any(name.startswith("cs_") for name in names) == (mode is SelectionMode.CHANNEL)

    def test_select_conv_and_channel_selection_together_rejected(self, rng):
        spatial = make_params([(3, 1)], c_in=4)
        channel = make_params([(3, 1)], c_in=4, mode=SelectionMode.CHANNEL)
        both = replace(spatial, cs_squeeze=channel.cs_squeeze, cs_expand=channel.cs_expand)
        with pytest.raises(ShapeError, match="not both"):
            lsk_forward(rng.uniform(-1, 1, size=(1, 4, 5, 5)), both)

    @pytest.mark.parametrize("missing", ["cs_squeeze", "cs_expand"])
    def test_channel_selection_needs_both_convs(self, missing):
        params = make_params([(3, 1)], c_in=4, mode=SelectionMode.CHANNEL)
        with pytest.raises(ShapeError, match="both its squeeze and its expand"):
            replace(params, **{missing: None}).validate()

    @pytest.mark.parametrize("pooling", [("avg",), ("max",)])
    def test_single_pooling_ablation(self, rng, pooling):
        """The pooling-set axis: a one-descriptor selection conv still yields
        per-branch masks of the right shape."""
        plan = validate_plan([(3, 1), (5, 2)])
        params = init_lsk_params(plan, 4, pooling=pooling, rng=np.random.default_rng(0))
        assert params.select.weight.shape[1] == 1 and params.pooling == pooling
        x = rng.uniform(-1, 1, size=(1, 4, 6, 6))
        out = lsk_forward(x.astype(np.float32), params)
        assert out.masks.shape == (1, 2, 6, 6)

    def test_pooling_set_mismatch_with_params(self, rng):
        params = make_params([(3, 1)], c_in=4)  # built for avg+max
        for pooling in [("avg",), ()]:
            with pytest.raises(ShapeError, match="pooling"):
                lsk_forward(rng.uniform(-1, 1, size=(1, 4, 5, 5)), replace(params, pooling=pooling))


class TestBackward:
    def test_zero_grad_y_gives_zero_gradients(self, rng):
        params = make_params([(3, 1), (5, 2)], c_in=4, seed=6)
        x = rng.uniform(-1, 1, size=(1, 4, 6, 6))
        out = lsk_forward(x, params)
        gx, grads = lsk_backward(np.zeros_like(out.y), out.state)
        grads = dict(parameter_arrays(grads))
        assert not gx.any()
        assert not any(grads[f"dw{i}.{kind}"].any() for i in range(2) for kind in ("weight", "bias"))
        assert not grads["select.weight"].any() and not grads["fuse.weight"].any()

    @pytest.mark.parametrize("built", list(SelectionMode))
    def test_one_gradient_per_parameter_array(self, rng, built):
        """Keys are the parameter_arrays() names in every mode, and every
        selection array the mode holds gets a non-zero gradient."""
        params = make_params([(3, 1), (5, 2)], c_in=4, mode=built, seed=3)
        arrays = dict(parameter_arrays(params))
        x = rng.uniform(-1, 1, size=(1, 4, 6, 6))
        out = lsk_forward(x, params)
        _, grads = lsk_backward(np.ones_like(out.y), out.state)
        grads = dict(parameter_arrays(grads))
        assert grads.keys() == arrays.keys()
        for name, g in grads.items():
            assert (g.shape, g.dtype) == (arrays[name].shape, arrays[name].dtype), name
        selection = [k for k in grads if k.startswith(("select.", "cs_"))]
        assert len(selection) == {"spatial": 2, "channel": 4, "none": 0}[built.value]
        assert all(grads[k].any() for k in selection)

    def test_scalar_closed_form(self):
        """Single pixel, one stage, one channel: y = x * f(x) with every
        coefficient known, so dy/dx has a hand-derivable closed form."""
        wc, bd = 0.7, 0.1  # depth-wise centre weight and bias
        m, mb = 1.3, -0.2  # mixer
        sa, sm, sb = 0.4, -0.3, 0.05  # selection taps (avg, max) and bias
        f, fb = 0.9, 0.2  # fusion
        params = make_params([(3, 1)], c_in=1)
        params.dw[0].weight[...] = 0.0
        params.dw[0].weight[0, 1, 1] = wc
        params.dw[0].bias[...] = bd
        params.mix[0].weight[...] = m
        params.mix[0].bias[...] = mb
        params.select.weight[...] = 0.0
        params.select.weight[0, 0, 3, 3] = sa
        params.select.weight[0, 1, 3, 3] = sm
        params.select.bias[...] = sb
        params.fuse.weight[...] = f
        params.fuse.bias[...] = fb

        x_val = 0.6
        x = np.full((1, 1, 1, 1), x_val)
        out = lsk_forward(x, params)
        u1 = wc * x_val + bd
        ut = m * u1 + mb
        logit = (sa + sm) * ut + sb
        mask = float(sigmoid_ref(np.array(logit)))
        s_val = f * mask * ut + fb
        assert out.y[0, 0, 0, 0] == pytest.approx(x_val * s_val, abs=1e-12)

        gx, _ = lsk_backward(np.ones_like(out.y), out.state)
        dmask = mask * (1 - mask) * (sa + sm) * m * wc
        ds_dx = f * (dmask * ut + mask * m * wc)
        expected = s_val + x_val * ds_dx
        assert gx[0, 0, 0, 0] == pytest.approx(expected, abs=1e-12)


class TestInputDependence:
    def test_masks_distinguish_noise_from_flat_regions(self):
        """Left half white noise, right half constant: the selection masks
        must differ between the regions (the mechanism is input-dependent)."""
        rng = np.random.default_rng(11)
        params = make_params([(3, 1), (5, 2)], c_in=4, seed=12)
        x = np.full((1, 4, 16, 16), 0.5)
        x[:, :, :, :8] = rng.standard_normal((1, 4, 16, 8))
        masks = lsk_forward(x, params).masks
        assert masks.max() - masks.min() > 1e-4  # not constant
        left = masks[:, :, :, :8].mean(axis=(0, 2, 3))
        right = masks[:, :, :, 8:].mean(axis=(0, 2, 3))
        assert np.abs(left - right).max() > 1e-3

    def test_forward_determinism(self, rng):
        params = make_params([(3, 1), (5, 2)], c_in=4, seed=8, dtype=np.float32)
        x = rng.uniform(-1, 1, size=(2, 4, 8, 8)).astype(np.float32)
        a = lsk_forward(x, params).y
        b = lsk_forward(x, params).y
        assert (a == b).all()


@pytest.mark.parametrize(
    "mode, c_in, side",
    [(SelectionMode.CHANNEL, 2, 5), (SelectionMode.SPATIAL, 4, 1), (SelectionMode.NONE, 4, 1)],
    ids=["channel-c_mid1", "spatial-1x1", "none-1x1"],
)
def test_input_gradient_where_weight_shapes_coincide(mode, c_in, side):
    """A per-pixel branch weight (n, 1, h, w) and a per-channel one
    (n, c_mid, 1, 1) have the same shape when c_mid = 1 or h = w = 1; the
    input gradient still matches central differences."""
    params = make_params([(3, 1), (5, 2)], c_in=c_in, mode=mode, seed=11)
    rng = np.random.default_rng(12)
    inputs = {"x": rng.uniform(-1, 1, size=(2, c_in, side, side))}
    probe = rng.uniform(-1, 1, size=inputs["x"].shape)
    numeric = numeric_gradients(lambda v: lsk_forward(v["x"], params, False).y, inputs, probe, ["x"])["x"]
    analytic = lsk_backward(probe, lsk_forward(inputs["x"], params).state)[0]
    rel = np.abs(analytic - numeric) / np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    assert rel.max() < TOLERANCE


@pytest.mark.parametrize("mode", list(SelectionMode))
def test_inference_frees_each_intermediate(mode):
    """Without kept state each stage output, the concatenation and the
    weighted sum are freed after their last use, so the module never holds
    all its branch tensors at once."""
    params = init_lsk_params(validate_plan([(5, 1), (7, 3)]), 64, mode=mode, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((1, 64, 128, 128)).astype(np.float32)
    kept = lsk_forward(x, params)
    dropped = lsk_forward(x, params, keep_state=False)
    assert dropped.state is None and (dropped.y == kept.y).all()
    peak = peak_allocation(lsk_forward, x, params, False)
    assert peak <= 3.5 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the input"


@dataclass
class _Inner:
    weight: np.ndarray
    tag: str = "skipped"


@dataclass
class _Outer:
    first: np.ndarray
    convs: list
    missing: ConvParams | None
    inner: _Inner
    stride: int = 2


def test_parameter_arrays_walk_rules():
    """A field gives its name, a list item appends its index, a nested layer
    adds ``.`` and its own names; ``None`` and non-array values are skipped."""
    a, b, c, d, e = (np.full(1, float(i)) for i in range(5))
    tree = _Outer(a, [ConvParams(b, c), _Inner(d)], None, _Inner(e))
    named = parameter_arrays(tree)
    assert [name for name, _ in named] == ["first", "convs0.weight", "convs0.bias", "convs1.weight", "inner.weight"]
    assert all(arr is want for (_, arr), want in zip(named, (a, b, c, d, e)))
