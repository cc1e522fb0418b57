"""Residual blocks and the four-stage backbone: identity behaviour, shape
ladders, mask bookkeeping, weight round-trips and determinism."""

import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsknet
from lsknet.backbone import (
    BackboneConfig,
    backbone_backward,
    backbone_params_astype,
    backbone_forward,
    init_backbone_params,
    named_arrays,
    params_from_arrays,
)
from lsknet.block import block_backward, block_forward, ffn_groups, init_block_params
from lsknet.cost import cost_backbone
from lsknet.errors import LskError, ShapeError, WeightMismatchError
from lsknet.fileio import read_weights, write_weights
from lsknet.module import SelectionMode, lsk_forward, parameter_arrays, params_astype
from lsknet.plan import validate_plan

from conftest import peak_allocation, state_bytes

PLAN = validate_plan([(3, 1), (5, 2)])


def tiny_block(seed=0, c=4, ffn_ratio=2.0):
    return init_block_params(PLAN, c=c, ffn_ratio=ffn_ratio, rng=np.random.default_rng(seed))


def manual_block(x, params):
    """The block wired by hand from whole-width ops: norm -> pre -> gelu ->
    lsk -> post -> +x, then norm -> fc1 -> dw -> gelu -> fc2 -> +."""
    from lsknet import ops
    from lsknet.module import lsk_forward
    from lsknet.ops import ConvSpec

    n1 = ops.affine_channel_norm(x, params.norm1.scale, params.norm1.shift, params.norm1.mean, params.norm1.var)
    branch = ops.gelu(ops.pointwise_conv(n1, params.pre.weight, params.pre.bias))
    branch = lsk_forward(branch, params.lsk).y
    branch = ops.pointwise_conv(branch, params.post.weight, params.post.bias)
    y1 = x + branch * params.scale1[None, :, None, None]
    n2 = ops.affine_channel_norm(y1, params.norm2.scale, params.norm2.shift, params.norm2.mean, params.norm2.var)
    ffn = ops.pointwise_conv(n2, params.ffn.fc1.weight, params.ffn.fc1.bias)
    ffn = ops.depthwise_conv(ffn, params.ffn.dw.weight, params.ffn.dw.bias, ConvSpec(3, 1))
    ffn = ops.pointwise_conv(ops.gelu(ffn), params.ffn.fc2.weight, params.ffn.fc2.bias)
    return y1 + ffn * params.scale2[None, :, None, None]


# hidden width 7 on a float64 256x256 plane (512 KiB a channel) under the
# 1 MiB budget: groups of 2, 2, 2 and 1 hidden channels
GROUPED_SHAPE = (1, 4, 256, 256)


class TestBlock:
    def test_inference_keeps_no_state(self, rng):
        params = tiny_block()
        x = rng.uniform(-1, 1, size=(2, 4, 8, 8)).astype(np.float32)
        kept = block_forward(x, params, keep_state=True)
        dropped = block_forward(x, params, keep_state=False)
        assert kept.state is not None and dropped.state is None
        assert (dropped.y == kept.y).all()
        assert (dropped.masks == kept.masks).all()

    def test_zeroed_projections_make_identity(self, rng):
        params = tiny_block()
        params.post.weight[...] = 0.0
        params.post.bias[...] = 0.0
        params.ffn.fc2.weight[...] = 0.0
        params.ffn.fc2.bias[...] = 0.0
        x = rng.uniform(-1, 1, size=(2, 4, 8, 8))
        out = block_forward(x, params)
        np.testing.assert_array_equal(out.y, x)

    def test_shape_preservation(self, rng):
        params = tiny_block(1)
        x = rng.uniform(-1, 1, size=(3, 4, 6, 10))
        out = block_forward(x, params)
        assert out.y.shape == x.shape
        assert out.masks.shape == (3, 2, 6, 10)

    def test_wrong_channel_count(self, rng):
        with pytest.raises(ShapeError, match="channels"):
            block_forward(rng.uniform(-1, 1, size=(1, 3, 8, 8)), tiny_block())

    @pytest.mark.parametrize("field", ["scale1", "scale2", "ffn.fc2.bias", "norm2.scale"])
    @pytest.mark.parametrize("shape", [(1,), (5,), (4, 1)])
    def test_per_channel_vectors_must_match_the_width(self, rng, field, shape):
        """A hand-built c=4 block whose residual scale or fc2 bias is not (4,)
        is refused by name when it is built, instead of broadcast over the
        channels; a wrong norm scale is refused by the forward."""
        params = tiny_block()
        vector = np.ones(shape, dtype=np.float32)
        x = rng.uniform(-1, 1, size=(1, 4, 8, 8))
        with pytest.raises(ShapeError, match=re.escape(field.removeprefix("norm2."))):
            if field == "ffn.fc2.bias":
                params = replace(params, ffn=replace(params.ffn, fc2=replace(params.ffn.fc2, bias=vector)))
            elif field == "norm2.scale":
                params = replace(params, norm2=replace(params.norm2, scale=vector))
            else:
                params = replace(params, **{field: vector})
            block_forward(x, params)

    @pytest.mark.parametrize(
        "ffn_ratio,shape,groups",
        [(2.0, (1, 4, 6, 6), [8]), (1.75, GROUPED_SHAPE, [2, 2, 2, 1])],
        ids=["one-group", "four-groups"],
    )
    def test_composition_matches_manual_wiring(self, rng, ffn_ratio, shape, groups):
        """The block is exactly norm -> pre -> gelu -> lsk -> post -> +x, then
        norm -> fc1 -> dw -> gelu -> fc2 -> +, also when the FFN runs over
        several hidden-channel groups with an uneven last one; inference and
        kept-state forwards run the same groups bit for bit."""
        params = tiny_block(3, ffn_ratio=ffn_ratio)
        x = rng.uniform(-1, 1, size=shape)
        kept = block_forward(x, params)
        np.testing.assert_allclose(kept.y, manual_block(x, params), atol=1e-12)
        assert [t.shape[1] for t in kept.state.dw_out] == groups
        dropped = block_forward(x, params, keep_state=False)
        assert dropped.y.tobytes() == kept.y.tobytes()
        assert dropped.masks.tobytes() == kept.masks.tobytes()

    def test_ffn_groups_fit_the_tile_budget(self):
        """The group width is the budget over one image's plane, at least one
        channel and at most the hidden width, whatever the batch."""
        from lsknet import ops

        budget = ops._DW_TILE_BYTES
        for n in (1, 4):
            assert ffn_groups(256, np.empty((n, 32, 128, 128), np.float32)) == [
                slice(lo, lo + 16) for lo in range(0, 256, 16)
            ]
        assert ffn_groups(1024, np.empty((2, 256, 16, 16), np.float32)) == [slice(0, 1024)]
        assert ffn_groups(7, np.empty(GROUPED_SHAPE)) == [slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 7)]
        huge = np.empty((1, 1, 1, budget // 4 + 1), np.float32)
        assert ffn_groups(3, huge) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    @pytest.mark.parametrize("train_norm", [False, True])
    def test_grouped_backward_against_finite_difference(self, rng, train_norm):
        """block_backward through four FFN groups: sampled fc1, dw and fc2
        weights in the first and the last group, and input entries, agree
        with central differences in float64; every learnable is named."""
        params = params_astype(tiny_block(5, ffn_ratio=1.75), np.float64)
        x = rng.uniform(-1, 1, size=GROUPED_SHAPE)
        probe = rng.uniform(-1, 1, size=GROUPED_SHAPE)
        out = block_forward(x, params, train_norm=train_norm)
        assert len(out.state.dw_out) == 4
        grad_x, grads = block_backward(probe, out.state)
        grads = dict(parameter_arrays(grads))

        arrays = dict(parameter_arrays(params))
        assert set(grads) == {k for k in arrays if not k.endswith((".mean", ".var"))}
        for name, g in grads.items():
            assert g.shape == arrays[name].shape, name

        def loss():
            return float((block_forward(x, params, train_norm=train_norm, keep_state=False).y * probe).sum())

        step = 1e-4
        samples = [
            ("ffn.fc1.weight", (0, 1)), ("ffn.fc1.weight", (6, 2)), ("ffn.fc1.bias", (5,)),
            ("ffn.dw.weight", (1, 0, 2)), ("ffn.dw.weight", (6, 1, 1)),
            ("ffn.fc2.weight", (3, 0)), ("ffn.fc2.weight", (0, 6)), ("ffn.fc2.bias", (2,)),
        ]
        checks = [(arrays[name], idx, grads[name][idx], name) for name, idx in samples]
        checks += [(x, idx, grad_x[idx], "x") for idx in ((0, 0, 0, 0), (0, 3, 128, 77))]
        for arr, idx, analytic, name in checks:
            original = arr[idx]
            arr[idx] = original + step
            hi = loss()
            arr[idx] = original - step
            lo = loss()
            arr[idx] = original
            numeric = (hi - lo) / (2 * step)
            denom = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / denom < 1e-4, (name, idx)


class TestBackboneConfig:
    def test_preset_t(self):
        cfg = BackboneConfig.variant("T")
        assert cfg.channels == (32, 64, 160, 256)
        assert cfg.depths == (3, 3, 5, 2)

    def test_preset_s(self):
        cfg = BackboneConfig.variant("S")
        assert cfg.channels == (64, 128, 320, 512)
        assert cfg.depths == (2, 2, 4, 2)

    def test_unknown_variant(self):
        """An unknown name, or a value that is no name at all, is refused the same way."""
        for name in ("XL", None, 3):
            with pytest.raises(ShapeError, match=rf"^unknown backbone variant {name!r} \(known: "):
                BackboneConfig.variant(name)

    def test_bad_stage_count(self):
        with pytest.raises(ShapeError):
            BackboneConfig(channels=(8, 8, 8), depths=(1, 1, 1), ffn_ratios=(2, 2, 2))

    @pytest.mark.parametrize(
        "override, match",
        [
            ({"ffn_ratios": (float("nan"), 8, 4, 4)}, "ffn ratios"),
            ({"ffn_ratios": (8, 8, float("inf"), 4)}, "ffn ratios"),
            ({"ffn_ratios": (8, 8, 4, float("-inf"))}, "ffn ratios"),
            ({"ffn_ratios": (-1, 8, 4, 4)}, "ffn ratios"),
            ({"ffn_ratios": (8, 0, 4, 4)}, "ffn ratios"),
            # FFN weights over the readers' element limit (stage 1 has 32 channels)
            ({"ffn_ratios": (1e300, 8, 4, 4)}, "FFN weight"),
            ({"ffn_ratios": (8, 8, 4, 1e308)}, "FFN weight"),
            ({"ffn_ratios": (2.0**21 + 1 / 32, 8, 4, 4)}, "FFN weight"),
            # every field of the wrong type is named
            ({"channels": (32.5, 64, 160, 256)}, "channels"),
            ({"channels": (32, 64, "160", 256)}, "channels"),
            ({"depths": (3, 3, 5.0, 2)}, "depths"),
            ({"ffn_ratios": ("8", 8, 4, 4)}, "ffn_ratios"),
            ({"selection_mode": "bogus"}, "selection_mode"),
            ({"plan": ((5, 1), (7, 3))}, "plan"),
            # within the FFN limit, but a (c, c) weight numpy cannot describe
            ({"channels": (2**31, 8, 8, 8), "ffn_ratios": (1e-12, 2, 2, 2)}, "channels"),
            # a field that is not a sequence at all is named too
            ({"channels": 32}, "channels"),
            ({"depths": 3}, "depths"),
            ({"ffn_ratios": 8.0}, "ffn_ratios"),
            ({"pooling": 5}, "pooling"),
            # a bool is an Integral and a Real, but not a width
            ({"channels": (True, 4, 8, 8)}, "channels"),
            ({"depths": (1, True, 1, 1)}, "depths"),
            ({"ffn_ratios": (True, 2.0, 2.0, 2.0)}, "ffn_ratios"),
        ],
    )
    def test_bad_widths_rejected(self, override, match):
        with pytest.raises(ShapeError, match=match):
            BackboneConfig(**{"channels": (32, 64, 160, 256), "depths": (3, 3, 5, 2), **override})

    def test_numpy_integer_widths_accepted(self):
        cfg = BackboneConfig(channels=tuple(np.int64([32, 64, 160, 256])), depths=tuple(np.int32([3, 3, 5, 2])))
        assert cfg == BackboneConfig.variant("T")
        assert all(type(v) is int for v in cfg.channels + cfg.depths)

    def test_largest_ffn_weight_accepted(self):
        # 2**21 * 32 hidden channels times 32 inputs is exactly MAX_ELEMENTS
        BackboneConfig.variant("T", ffn_ratios=(2.0**21, 8, 4, 4))

    def test_any_array_over_the_limit_rejected(self):
        """Not only the FFN weight: 65536 stage-1 channels put 2**32 values in
        the block's (c, c) projection, and the first such array is named."""
        with pytest.raises(ShapeError, match=r"stage1\.block0\.pre\.weight"):
            BackboneConfig(channels=(65536, 8, 8, 8), depths=(1, 1, 1, 1), ffn_ratios=(1e-5, 2, 2, 2))

    def test_oversized_config_refused_without_memory(self):
        """2**22 stage-1 channels put 2**44 values in the (c, c) projection.
        The shape-only tree holds no memory, so the refusal costs the same
        at any width: under 1 MiB traced and under 10 ms."""

        def refuse():
            with pytest.raises(ShapeError, match=r"stage1\.block0\.pre\.weight"):
                BackboneConfig(channels=(2**22, 8, 8, 8), depths=(1, 1, 1, 1), ffn_ratios=(1e-9, 2, 2, 2))

        assert peak_allocation(refuse) < 1 << 20
        times = []
        for _ in range(3):
            start = time.perf_counter()
            refuse()
            times.append(time.perf_counter() - start)
        assert min(times) < 0.010


TINY = BackboneConfig(channels=(4, 4, 8, 8), depths=(1, 2, 1, 1), ffn_ratios=(2, 2, 2, 2))


class TestBackboneForward:
    def test_lsknet_t_shape_ladder_and_mask_count(self, rng):
        cfg = BackboneConfig.variant("T")
        params = init_backbone_params(cfg, seed=0)
        x = rng.uniform(-1, 1, size=(1, 3, 64, 64)).astype(np.float32)
        out = backbone_forward(x, params)
        assert [f.shape for f in out.features] == [
            (1, 32, 16, 16),
            (1, 64, 8, 8),
            (1, 160, 4, 4),
            (1, 256, 2, 2),
        ]
        assert len(out.record.masks) == 13
        assert out.record.rf == (5, 23)

    def test_lsknet_s_mask_count(self, rng):
        params = init_backbone_params(BackboneConfig.variant("S"), seed=0)
        x = rng.uniform(-1, 1, size=(1, 3, 64, 64)).astype(np.float32)
        out = backbone_forward(x, params)
        assert len(out.record.masks) == 10

    def test_mask_keys_are_one_based_stage_depth(self, rng):
        params = init_backbone_params(TINY, seed=0)
        x = rng.uniform(-1, 1, size=(1, 3, 32, 32)).astype(np.float32)
        out = backbone_forward(x, params)
        assert sorted(out.record.masks) == [(1, 1), (2, 1), (2, 2), (3, 1), (4, 1)]
        assert out.record.key_name((2, 1)) == "B_2_1"

    def test_indivisible_input_rejected(self, rng):
        params = init_backbone_params(TINY, seed=0)
        with pytest.raises(ShapeError, match="divisible"):
            backbone_forward(rng.uniform(-1, 1, size=(1, 3, 48, 48)).astype(np.float32), params)

    def test_wrong_input_channels(self, rng):
        params = init_backbone_params(TINY, seed=0)
        with pytest.raises(ShapeError, match="3 input channels"):
            backbone_forward(rng.uniform(-1, 1, size=(1, 4, 32, 32)).astype(np.float32), params)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.bool_, np.float16, np.longdouble])
    @pytest.mark.parametrize(
        "forward,make_params,shape",
        [
            (backbone_forward, lambda: init_backbone_params(TINY, seed=0), (1, 3, 64, 64)),
            (block_forward, tiny_block, (1, 4, 6, 6)),
            (lsk_forward, lambda: tiny_block().lsk, (1, 4, 6, 6)),
        ],
        ids=["backbone", "block", "lsk"],
    )
    def test_non_float_input_rejected(self, dtype, forward, make_params, shape):
        """A layer casts its weights to the input's dtype, so an integer or
        boolean input would run with truncated weights and a float16 or
        longdouble one in another precision: every entry point refuses it."""
        message = f"{forward.__name__}: expected a float32 or float64 input, got dtype {np.dtype(dtype)}"
        with pytest.raises(ShapeError, match=message):
            forward(np.ones(shape, dtype=dtype), make_params())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, rng, bad):
        params = init_backbone_params(TINY, seed=0)
        x = rng.uniform(-1, 1, size=(1, 3, 32, 32)).astype(np.float32)
        x[0, 2, 31, 0] = bad
        for keep_state in (False, True):
            with pytest.raises(LskError, match="NaN or Inf"):
                backbone_forward(x, params, keep_state=keep_state)

    def test_determinism_bit_identical(self, rng):
        params = init_backbone_params(TINY, seed=5)
        x = rng.uniform(-1, 1, size=(2, 3, 32, 32)).astype(np.float32)
        a = backbone_forward(x, params)
        b = backbone_forward(x, params)
        for fa, fb in zip(a.features, b.features):
            assert (fa == fb).all()
        for key in a.record.masks:
            assert (a.record.masks[key] == b.record.masks[key]).all()

    def test_seeded_init_is_reproducible(self):
        a = named_arrays(init_backbone_params(TINY, seed=9))
        b = named_arrays(init_backbone_params(TINY, seed=9))
        c = named_arrays(init_backbone_params(TINY, seed=10))
        assert all((a[k] == b[k]).all() for k in a)
        assert any((a[k] != c[k]).any() for k in a)

    def test_channel_mode_and_none_mode_produce_no_masks(self, rng):
        x = rng.uniform(-1, 1, size=(1, 3, 32, 32)).astype(np.float32)
        for mode in (SelectionMode.CHANNEL, SelectionMode.NONE):
            cfg = BackboneConfig(
                channels=TINY.channels,
                depths=TINY.depths,
                ffn_ratios=TINY.ffn_ratios,
                selection_mode=mode,
            )
            out = backbone_forward(x, init_backbone_params(cfg, seed=0), keep_state=False)
            assert out.record.masks == {}
            assert [f.shape[1] for f in out.features] == list(cfg.channels)

    @settings(max_examples=25, deadline=None)
    @given(
        channels=st.tuples(*[st.integers(4, 16)] * 4),
        depths=st.tuples(*[st.integers(1, 2)] * 4),
        mode=st.sampled_from(list(SelectionMode)),
        pooling=st.sampled_from([("avg", "max"), ("avg",), ("max",)]),
        train_norm=st.booleans(),
        side=st.sampled_from([32, 64]),
        seed=st.integers(0, 2**16),
    )
    def test_inference_matches_kept_state(self, channels, depths, mode, pooling, train_norm, side, seed):
        """An inference forward frees what a kept-state forward keeps, but
        runs the same ops in the same order: features and masks agree bit
        for bit."""
        cfg = BackboneConfig(channels=channels, depths=depths, selection_mode=mode, pooling=pooling)
        params = init_backbone_params(cfg, seed=seed)
        x = np.random.default_rng(seed).uniform(-1, 1, size=(1, 3, side, side)).astype(np.float32)
        dropped = backbone_forward(x, params, train_norm=train_norm)
        kept = backbone_forward(x, params, keep_state=True, train_norm=train_norm)
        assert dropped.state is None and kept.state is not None
        assert [f.tobytes() for f in dropped.features] == [f.tobytes() for f in kept.features]
        assert dropped.record.masks.keys() == kept.record.masks.keys()
        assert all(dropped.record.masks[k].tobytes() == m.tobytes() for k, m in kept.record.masks.items())

    @settings(max_examples=25, deadline=None)
    @given(
        channels=st.tuples(*[st.integers(4, 16)] * 4),
        depths=st.tuples(*[st.integers(1, 2)] * 4),
        mode=st.sampled_from(list(SelectionMode)),
        pooling=st.sampled_from([("avg", "max"), ("avg",), ("max",)]),
        h=st.sampled_from([32, 64, 96]),
        w=st.sampled_from([32, 64, 96]),
        batch=st.integers(2, 3),
        seed=st.integers(0, 2**16),
    )
    def test_batch_matches_single_images(self, channels, depths, mode, pooling, h, w, batch, seed):
        """With stored statistics each image is computed on its own: a batch
        forward's features and masks equal the per-image forwards bit for
        bit (batch statistics couple the images, so training is excluded)."""
        cfg = BackboneConfig(channels=channels, depths=depths, selection_mode=mode, pooling=pooling)
        params = init_backbone_params(cfg, seed=seed)
        x = np.random.default_rng(seed).uniform(-1, 1, size=(batch, 3, h, w)).astype(np.float32)
        whole = backbone_forward(x, params)
        for i in range(batch):
            single = backbone_forward(x[i : i + 1], params)
            assert [f[i].tobytes() for f in whole.features] == [f[0].tobytes() for f in single.features]
            assert single.record.masks.keys() == whole.record.masks.keys()
            assert all(m[0].tobytes() == whole.record.masks[k][i].tobytes() for k, m in single.record.masks.items())

    def test_inference_frees_block_intermediates(self):
        """Each block intermediate is freed after its last use and the FFN runs
        over groups of hidden channels, so a T inference forward at 256x256
        peaks at no more than 1.5 stage-1 FFN hidden tensors (5.3 MiB traced);
        a kept-state forward holds only what the backward reads (58.6 MiB
        traced; 83.2 while each block also kept its fc1 outputs and its
        selection module's output, 89.4 while it also kept its norm outputs)."""
        params = init_backbone_params(BackboneConfig.variant("T"), seed=0)
        x = np.random.default_rng(0).uniform(-1, 1, size=(1, 3, 256, 256)).astype(np.float32)
        hidden = params.stages[0].blocks[0].ffn.fc1.weight.shape[0] * 64 * 64 * x.itemsize  # 4 MiB
        assert peak_allocation(backbone_forward, x, params) <= 1.5 * hidden
        assert peak_allocation(backbone_forward, x, params, True) <= 58.6 * 2**20

    def test_training_step_peak(self):
        """A T training step at 256x256, batch 1 (a kept forward with batch
        statistics, then the backward) peaks at 80.8 MiB traced; 105.6 while
        each block kept its fc1 outputs and its selection module's output."""
        params = init_backbone_params(BackboneConfig.variant("T"), seed=0)
        x = np.random.default_rng(0).uniform(-1, 1, size=(1, 3, 256, 256)).astype(np.float32)

        def step():
            out = backbone_forward(x, params, keep_state=True, train_norm=True)
            backbone_backward(np.ones_like(out.features[3]), out.state)

        assert peak_allocation(step) <= 80.8 * 2**20


class TestWeightPlumbing:
    @settings(max_examples=25, deadline=None)
    @given(
        channels=st.tuples(*[st.integers(1, 8)] * 4),
        depths=st.tuples(*[st.integers(1, 3)] * 4),
        mode=st.sampled_from(list(SelectionMode)),
    )
    def test_names_and_cost_tree_follow_the_stage_order(self, channels, depths, mode):
        """Each stage is its embedding, then its blocks: the weight names run
        stem.*, stage1.block0.* ... , down1.*, ... , stage4.block{d-1}.*, and
        the cost tree's top level reads stem, stage1, down1, ... , stage4."""
        cfg = BackboneConfig(channels=channels, depths=depths, selection_mode=mode)
        layers = [re.match(r"(stem|down\d|stage\d\.block\d+)\.", name)[1] for name in named_arrays(cfg.shape_tree)]
        want = []
        for i, depth in enumerate(depths):
            want += [f"down{i}" if i else "stem", *(f"stage{i + 1}.block{j}" for j in range(depth))]
        assert [layer for layer, _ in itertools.groupby(layers)] == want
        top = ["stem", "stage1", "down1", "stage2", "down2", "stage3", "down3", "stage4"]
        assert [name for name, _ in cost_backbone(cfg, 32, 32).breakdown] == top

    def test_named_arrays_round_trip(self):
        params = init_backbone_params(TINY, seed=3)
        arrays = {k: v.copy() for k, v in named_arrays(params).items()}
        rebuilt = params_from_arrays(TINY, arrays)
        rebuilt_arrays = named_arrays(rebuilt)
        assert set(arrays) == set(rebuilt_arrays)
        for k in arrays:
            np.testing.assert_array_equal(arrays[k], rebuilt_arrays[k])
            # float32 inputs are taken as they are, not copied into a template
            assert rebuilt_arrays[k] is arrays[k]
        wide = {k: v.astype(np.float64) for k, v in arrays.items()}
        for k, arr in named_arrays(params_from_arrays(TINY, wide)).items():
            assert arr.dtype == np.float32
            np.testing.assert_array_equal(arr, arrays[k])
            # no read-only zero view of the shape-only template survives
            assert arr.flags.writeable and 0 not in arr.strides

    @pytest.mark.parametrize("pooling", [("avg", "max"), ("avg",), ("max",)])
    @pytest.mark.parametrize("mode", list(SelectionMode))
    def test_loaded_modules_carry_the_config_mode_and_pooling(self, rng, mode, pooling):
        """The weight file holds no mode or pooling: a loaded tree takes both
        from the config and runs bit-identically to the seeded tree."""
        cfg = replace(TINY, selection_mode=mode, pooling=pooling)
        seeded = init_backbone_params(cfg, seed=0)
        loaded = params_from_arrays(cfg, named_arrays(seeded))
        for bp in (bp for stage in loaded.stages for bp in stage.blocks):
            assert bp.lsk.mode is mode
            assert bp.lsk.pooling == (pooling if mode is SelectionMode.SPATIAL else ())
        x = rng.uniform(-1, 1, size=(1, 3, 32, 32)).astype(np.float32)
        want = backbone_forward(x, seeded).features
        for got, ref in zip(backbone_forward(x, loaded).features, want):
            np.testing.assert_array_equal(got, ref)

    def test_shape_tree_matches_init(self):
        params = init_backbone_params(TINY, seed=0)
        shapes = {name: arr.shape for name, arr in named_arrays(TINY.shape_tree).items()}
        for name, arr in named_arrays(params).items():
            assert shapes[name] == tuple(arr.shape)

    def test_missing_tensor_is_named(self):
        arrays = named_arrays(init_backbone_params(TINY, seed=0))
        del arrays["stem.conv.weight"]
        with pytest.raises(WeightMismatchError, match="stem.conv.weight"):
            params_from_arrays(TINY, arrays)

    def test_shape_mismatch_is_named(self):
        arrays = dict(named_arrays(init_backbone_params(TINY, seed=0)))
        arrays["down1.conv.bias"] = np.zeros(7, dtype=np.float32)
        with pytest.raises(WeightMismatchError, match="down1.conv.bias"):
            params_from_arrays(TINY, arrays)

    def test_negative_variance_is_named(self):
        """A stored variance below 0 would make every feature NaN; the loader
        refuses it after a write/read round trip, naming the first such tensor.
        A NaN variance, which the writer already refuses, is refused alike
        when passed straight to the loader."""
        arrays = named_arrays(init_backbone_params(TINY, seed=0))
        arrays["stage1.block0.norm1.var"][0] = -1.0
        arrays["down2.norm.var"][:] = -1.0
        buf = io.BytesIO()
        write_weights(buf, arrays)
        buf.seek(0)
        loaded, _ = read_weights(buf)
        match = r"'stage1\.block0\.norm1\.var' holds a negative or NaN variance"
        with pytest.raises(WeightMismatchError, match=match):
            params_from_arrays(TINY, loaded)
        arrays = named_arrays(init_backbone_params(TINY, seed=0))
        arrays["stage1.block0.norm1.var"][1] = np.nan
        with pytest.raises(WeightMismatchError, match=match):
            params_from_arrays(TINY, arrays)

    def test_extra_tensor_rejected(self):
        arrays = dict(named_arrays(init_backbone_params(TINY, seed=0)))
        arrays["rogue.weight"] = np.zeros(3, dtype=np.float32)
        with pytest.raises(WeightMismatchError, match="rogue.weight"):
            params_from_arrays(TINY, arrays)


MODES = [SelectionMode.SPATIAL, SelectionMode.CHANNEL, SelectionMode.NONE]


class TestBackboneBackward:
    def test_gradients_cover_every_learnable(self, rng):
        self._check_gradients_cover_every_learnable(rng, TINY, False)

    @pytest.mark.parametrize("train_norm", [False, True])
    @pytest.mark.parametrize("mode", MODES)
    @settings(max_examples=10, deadline=None)
    @given(
        channels=st.tuples(*[st.integers(4, 16)] * 4),
        depths=st.tuples(*[st.integers(1, 2)] * 4),
        pooling=st.sampled_from([("avg", "max"), ("avg",), ("max",)]),
        seed=st.integers(0, 2**16),
    )
    def test_gradients_cover_every_learnable_per_mode(self, mode, train_norm, channels, depths, pooling, seed):
        """Random small configs in every mode, under both norm kinds."""
        cfg = BackboneConfig(channels=channels, depths=depths, selection_mode=mode, pooling=pooling)
        self._check_gradients_cover_every_learnable(np.random.default_rng(seed), cfg, train_norm)

    @staticmethod
    def _check_gradients_cover_every_learnable(rng, config, train_norm):
        """The gradients' names, shapes and dtypes are those of the learnable
        entries of named_arrays, and every layer's backward returns a tree of
        the layer's own parameter type."""
        params = init_backbone_params(config, seed=1)
        x = rng.uniform(-1, 1, size=(1, 3, 32, 32)).astype(np.float32)
        out = backbone_forward(x, params, keep_state=True, train_norm=train_norm)
        grad = np.ones_like(out.features[3])
        gx, grads = backbone_backward(grad, out.state)
        assert gx.shape == x.shape and gx.dtype == x.dtype
        learnables = {name: arr for name, arr in named_arrays(params).items() if not name.endswith((".mean", ".var"))}
        assert {name: (g.shape, g.dtype) for name, g in grads.items()} == {
            name: (arr.shape, arr.dtype) for name, arr in learnables.items()
        }
        for prefix, backward, layer_state in reversed(out.state.layers):
            grad, tree = backward(grad, layer_state)
            assert type(tree) is type(layer_state.params), prefix

    def test_training_state_keeps_each_value_once(self):
        """A kept training state holds no array that another kept array gives
        by one op: the S@128 batch-2 state with batch statistics is at most
        43,002,880 bytes (61,090,816 while it also kept each FFN fc1 output
        and each selection module's output, 68,143,104 while it also kept
        each norm output, 89,606,144 while it also kept each FFN GELU
        output, each norm input and each selection module's
        concatenation)."""
        params = init_backbone_params(BackboneConfig.variant("S"), seed=0)
        x = np.random.default_rng(0).uniform(-1, 1, size=(2, 3, 128, 128)).astype(np.float32)
        out = backbone_forward(x, params, keep_state=True, train_norm=True)
        assert state_bytes(out.state) <= 43_002_880

    @pytest.mark.parametrize("mode", MODES)
    def test_params_astype_copies_every_array(self, mode):
        params = init_backbone_params(replace(TINY, selection_mode=mode), seed=1)
        cast = backbone_params_astype(params, np.float64)
        before, after = named_arrays(params), named_arrays(cast)
        assert list(after) == list(before)
        for name, arr in after.items():
            assert arr.shape == before[name].shape and arr.dtype == np.float64, name
            np.testing.assert_array_equal(arr, before[name])
            assert not np.shares_memory(arr, before[name]), name
        assert cast.config is params.config and cast.config == replace(TINY, selection_mode=mode)

    @pytest.mark.parametrize("train_norm", [False, True])
    def test_spot_check_against_finite_difference(self, rng, train_norm):
        """Full-chain sanity: sampled parameters of a tiny backbone agree with
        central differences in float64, with stored and with batch statistics
        (batch 2, so the 1x1 stage-4 statistics are not degenerate).  The loss
        weights the features at random: a plain sum of batch-normalized
        features barely depends on anything before the norm."""
        params = backbone_params_astype(init_backbone_params(TINY, seed=2), np.float64)
        arrays = named_arrays(params)
        x = rng.uniform(-0.5, 0.5, size=(2, 3, 32, 32))
        weights = rng.standard_normal((2, 8, 1, 1))

        def loss():
            return float((backbone_forward(x, params, train_norm=train_norm).features[3] * weights).sum())

        out = backbone_forward(x, params, keep_state=True, train_norm=train_norm)
        _, grads = backbone_backward(weights, out.state)

        rng2 = np.random.default_rng(0)
        step = 1e-4
        names = (
            "stem.conv.weight",
            "stage1.block0.norm2.scale",
            "down1.norm.shift",
            "stage2.block1.lsk.fuse.weight",
            "down3.conv.bias",
        )
        for name in names:
            arr = arrays[name]
            idx = tuple(rng2.integers(0, s) for s in arr.shape)
            original = arr[idx]
            arr[idx] = original + step
            hi = loss()
            arr[idx] = original - step
            lo = loss()
            arr[idx] = original
            numeric = (hi - lo) / (2 * step)
            analytic = float(grads[name][idx])
            denom = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / denom < 1e-4, name


# Runs in a fresh interpreter so that LSK_THREADS is applied, through the same
# hook as the CLI, before numpy loads BLAS.  Prints one digest per array.
_THREADS_CHILD = """
import hashlib, json
from lsknet.cli import _apply_thread_cap
_apply_thread_cap()
import numpy as np
from lsknet.backbone import BackboneConfig, backbone_backward, backbone_forward, init_backbone_params

def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

params = init_backbone_params(BackboneConfig.variant("T"), seed=0)
x = np.random.default_rng(0).uniform(-1, 1, (1, 3, 256, 256)).astype(np.float32)
d = {}
for tag, train_norm in (("", False), ("batch.", True)):
    out = backbone_forward(x, params, keep_state=True, train_norm=train_norm)
    grad_x, grads = backbone_backward(np.ones_like(out.features[3]), out.state)
    d.update({f"{tag}feature{i + 1}": digest(f) for i, f in enumerate(out.features)})
    d.update({f"{tag}mask{k}": digest(m) for k, m in out.record.masks.items()})
    d[f"{tag}grad.x"] = digest(grad_x)
    d.update({f"{tag}grad.{k}": digest(v) for k, v in grads.items()})
    del out
inference = backbone_forward(x, params)
d.update({f"inference.feature{i + 1}": digest(f) for i, f in enumerate(inference.features)})
d.update({f"inference.mask{k}": digest(m) for k, m in inference.record.masks.items()})
print(json.dumps(d))
"""
_SRC = os.path.dirname(os.path.dirname(lsknet.__file__))  # the child imports this same lsknet


def test_bit_identical_across_thread_counts():
    """T forward (features, masks) with and without kept state, and backward
    (every gradient) with stored and with batch statistics at 256x256, where
    the stage-1 matrix products are large enough for BLAS to split them
    across threads, give the same bits under LSK_THREADS=1 and 2."""
    digests = []
    for threads in ("1", "2"):
        # the thread cap only sets these when unset, so an inherited value would win
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["LSK_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", _THREADS_CHILD], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        digests.append(json.loads(result.stdout))
    one, two = digests
    assert len(one) > 800 and one.keys() == two.keys()
    assert [k for k in one if one[k] != two[k]] == []
