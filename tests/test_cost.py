"""Cost accounting: closed forms, published cost ratios, scaling laws and
breakdown consistency."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsknet import ops
from lsknet.backbone import (
    BackboneConfig,
    backbone_forward,
    init_backbone_params,
    named_arrays,
    params_from_arrays,
)
from lsknet.block import init_block_params
from lsknet.cost import (
    CostReport,
    cost_backbone,
    cost_block,
    cost_depthwise,
    cost_lsk_module,
    cost_pointwise,
    report_to_kv,
    report_to_text,
)
from lsknet.errors import ShapeError
from lsknet.module import SelectionMode, init_lsk_params, parameter_arrays
from lsknet.ops import ConvSpec
from lsknet.plan import validate_plan


class TestDepthwiseClosedForm:
    # at 1x1 output the MAC count is the weight count
    def test_k23_c64_weights(self):
        report = cost_depthwise(64, ConvSpec(23, 1), 1, 1)
        assert report.macs == 64 * 23 * 23 == 33_856

    def test_two_stage_weights_and_seven_fold_saving(self):
        two = cost_depthwise(64, ConvSpec(5, 1), 1, 1).macs + cost_depthwise(64, ConvSpec(7, 3), 1, 1).macs
        assert two == 64 * 25 + 64 * 49 == 4_736
        single = cost_depthwise(64, ConvSpec(23, 1), 1, 1).macs
        assert 7.0 < single / two < 7.3

    def test_one_by_one(self):
        assert cost_depthwise(1, ConvSpec(1, 1), 1, 1).macs == 1
        assert cost_depthwise(1, ConvSpec(1, 1), 1, 1).params == 2

    def test_dilation_does_not_change_cost(self):
        a = cost_depthwise(16, ConvSpec(5, 1), 10, 10)
        b = cost_depthwise(16, ConvSpec(5, 4), 10, 10)
        assert (a.params, a.flops, a.macs) == (b.params, b.flops, b.macs)

    def test_flops_params_ratio_is_exactly_2hw(self):
        for h, w in ((7, 9), (16, 16)):
            rep = cost_depthwise(8, ConvSpec(3, 2), h, w)
            assert rep.flops == 2 * h * w * rep.params
            rep = cost_pointwise(8, 16, h, w)
            assert rep.flops == 2 * h * w * rep.params


def plan_convs(stages, c=64, h=1, w=1):
    """The ``convs`` node of the walk over the default module of a plan: the
    cost the plan search ranks by."""
    return dict(cost_lsk_module(init_lsk_params(validate_plan(stages), c), h, w).breakdown)["convs"]


class TestPlanCosts:
    def test_decomposed_23_is_at_least_3x_cheaper(self):
        single = plan_convs([(23, 1)]).params
        decomposed = plan_convs([(5, 1), (7, 3)]).params
        assert decomposed < single
        assert single / decomposed >= 3.0

    def test_decomposed_29_is_at_least_4x_cheaper(self):
        single = plan_convs([(29, 1)]).params
        decomposed = plan_convs([(3, 1), (5, 2), (7, 3)]).params
        assert single / decomposed >= 4.0

    def test_module_params_match_hand_count(self):
        # c=64, c_mid=32, q=7, both poolings, biases: the 2-stage module
        rep = plan_convs([(5, 1), (7, 3)])
        dw = (64 * 25 + 64) + (64 * 49 + 64)
        mixers = 2 * (32 * 64 + 32)
        select = 2 * 2 * 49 + 2
        fuse = 64 * 32 + 64
        assert rep.params == dw + mixers + select + fuse == 11_334

    def test_monotone_in_stages(self):
        p1 = plan_convs([(5, 1)]).params
        p2 = plan_convs([(5, 1), (7, 3)]).params
        p3 = plan_convs([(5, 1), (7, 3), (9, 5)]).params
        assert p1 < p2 < p3

    def test_breakdown_sums_exactly(self):
        rep = plan_convs([(3, 1), (5, 2), (7, 3)], 32, 8, 8)
        rep.validate()


class TestBlockAndBackbone:
    def test_block_breakdown_sums(self):
        params = init_block_params(validate_plan([(5, 1), (7, 3)]), c=64, ffn_ratio=8.0)
        rep = cost_block(params, h=16, w=16)
        rep.validate()
        names = dict(rep.breakdown)
        assert set(names) == {"lk_selection", "ffn"}

    def test_lsknet_t_params_within_20_percent(self):
        rep = cost_backbone(BackboneConfig.variant("T"), 1024, 1024)
        assert abs(rep.params - 4.3e6) / 4.3e6 < 0.20

    def test_lsknet_s_params_within_20_percent(self):
        rep = cost_backbone(BackboneConfig.variant("S"), 1024, 1024)
        assert abs(rep.params - 14.4e6) / 14.4e6 < 0.20

    def test_lsknet_s_macs_within_25_percent_of_published(self):
        rep = cost_backbone(BackboneConfig.variant("S"), 1024, 1024)
        assert abs(rep.macs - 54.4e9) / 54.4e9 < 0.25
        # the 2-flops-per-mac convention is visible in the totals
        assert rep.flops > rep.macs

    def test_doubling_resolution_exactly_quadruples_flops(self):
        cfg = BackboneConfig.variant("T")
        a = cost_backbone(cfg, 1024, 1024)
        b = cost_backbone(cfg, 2048, 2048)
        assert b.flops == 4 * a.flops
        assert b.macs == 4 * a.macs
        assert b.params == a.params

    def test_reports_are_pure_functions(self):
        cfg = BackboneConfig.variant("S")
        a = cost_backbone(cfg, 512, 512)
        b = cost_backbone(cfg, 512, 512)
        assert (a.params, a.flops, a.macs) == (b.params, b.flops, b.macs)

    def test_backbone_breakdown_sums_and_components(self):
        rep = cost_backbone(BackboneConfig.variant("T"), 256, 256)
        rep.validate()
        names = [name for name, _ in rep.breakdown]
        assert names == [
            "stem",
            "stage1",
            "down1",
            "stage2",
            "down2",
            "stage3",
            "down3",
            "stage4",
        ]

    @pytest.mark.parametrize("h, w", [(48, 64), (16, 64), (64, 0), (-32, 64)])
    def test_refuses_the_sizes_the_forward_refuses(self, h, w):
        cfg = BackboneConfig(channels=(4, 4, 8, 8), depths=(1, 1, 1, 1), ffn_ratios=(2, 2, 2, 2))
        with pytest.raises(ShapeError, match="divisible by 32"):
            cost_backbone(cfg, h, w)
        if min(h, w) > 0:
            x = np.zeros((1, 3, h, w), dtype=np.float32)
            with pytest.raises(ShapeError, match="divisible by 32"):
                backbone_forward(x, init_backbone_params(cfg, seed=0))

    def test_selection_mode_changes_cost_structure(self):
        base = dict(channels=(8, 8, 8, 8), depths=(1, 1, 1, 1), ffn_ratios=(2, 2, 2, 2))
        spatial = cost_backbone(BackboneConfig(**base), 64, 64)
        channel = cost_backbone(BackboneConfig(**base, selection_mode="channel"), 64, 64)
        none = cost_backbone(BackboneConfig(**base, selection_mode="none"), 64, 64)
        assert none.params < spatial.params  # no selection conv
        assert channel.params != spatial.params
        for rep in (spatial, channel, none):
            rep.validate()


class TestRendering:
    def test_kv_lines_are_stable_and_parseable(self):
        rep = plan_convs([(5, 1), (7, 3)], h=4, w=4)
        text = report_to_kv(rep, "module")
        lines = text.splitlines()
        assert lines[0].startswith("component=module params=")
        parsed = dict(part.split("=", 1) for part in lines[0].split(" "))
        assert int(parsed["params"]) == rep.params
        assert any(line.startswith("convention=") for line in lines)

    def test_text_rendering_mentions_conventions(self):
        rep = cost_depthwise(4, ConvSpec(3, 1), 2, 2)
        text = report_to_text(rep, "dw")
        assert "conventions:" in text and "params=" in text


@settings(max_examples=40, deadline=None)
@given(
    bad=st.one_of(st.floats(), st.booleans()),
    slot=st.sampled_from(["h", "w"]),
    count=st.sampled_from(["params", "flops", "macs"]),
    good=st.sampled_from([np.int64, np.int32, np.uint8, int]),
)
def test_counts_are_integers(bad, slot, count, good):
    """A side that is a float (64.0 included) or a bool is refused by name,
    by the backbone and the module cost alike, and so is a count that is
    one: no report counts fractional pixels.  A numpy integer count is
    stored as an int."""
    h, w = (bad, 64) if slot == "h" else (64, bad)
    cfg = BackboneConfig(channels=(4, 4, 8, 8), depths=(1, 1, 1, 1), ffn_ratios=(2, 2, 2, 2))
    with pytest.raises(ShapeError, match=rf"^cost_backbone: spatial dims must be integers, got {slot}="):
        cost_backbone(cfg, h, w)
    with pytest.raises(ShapeError, match=rf"^cost_lsk_module: spatial dims must be integers, got {slot}="):
        cost_lsk_module(init_lsk_params(validate_plan([(5, 1), (7, 3)]), 8), h, w)
    counts = dict(params=good(3), flops=good(6), macs=good(2))
    report = CostReport(**counts)
    assert [type(getattr(report, name)) for name in counts] == [int] * 3
    with pytest.raises(ShapeError, match=rf"^CostReport: {count} must be an integer, got "):
        CostReport(**{**counts, count: bad})


@pytest.mark.parametrize("fn", [cost_lsk_module, cost_block], ids=["module", "block"])
@pytest.mark.parametrize(
    "side, message",
    [(True, "must be integers, got h=True"), (0, "0x64 not positive$"), (-1, "-1x64 not positive$")],
    ids=["bool", "zero", "negative"],
)
def test_layer_costs_refuse_sides_that_are_not_positive_integers(fn, side, message):
    """A bool side would count as a 1-pixel map and a non-positive one as
    zero or negative work; both layer costs refuse them by name."""
    plan = validate_plan([(5, 1), (7, 3)])
    params = init_lsk_params(plan, 8) if fn is cost_lsk_module else init_block_params(plan, c=8, ffn_ratio=2.0)
    with pytest.raises(ShapeError, match=f"^{fn.__name__}: spatial dims {message}"):
        fn(params, side, 64)


@settings(max_examples=30, deadline=None)
@given(
    c=st.integers(min_value=1, max_value=64),
    k=st.sampled_from([1, 3, 5, 7, 23]),
    h=st.integers(min_value=1, max_value=64),
)
def test_depthwise_closed_form_property(c, k, h):
    rep = cost_depthwise(c, ConvSpec(k, 1), h, h)
    assert rep.params == c * k * k + c
    assert rep.flops == 2 * h * h * (c * k * k + c)
    assert rep.macs == h * h * c * k * k


PLANS = [[(3, 1)], [(5, 1), (7, 3)], [(3, 1), (5, 2), (7, 3)]]


def forward_macs(params, h, w):
    """Multiply-adds of one ``backbone_forward`` on a single image, counted
    at the conv kernels: ``out_h * out_w * weight.size`` per call."""
    total = 0

    def counting(fn):
        def wrapped(x, weights, *args, **kwargs):
            nonlocal total
            out = fn(x, weights, *args, **kwargs)
            total += out.shape[2] * out.shape[3] * weights.size
            return out

        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for name in ("pointwise_conv", "depthwise_conv", "conv2d"):
            mp.setattr(ops, name, counting(getattr(ops, name)))
        backbone_forward(np.zeros((1, 3, h, w), dtype=np.float32), params)
    return total


@settings(max_examples=30, deadline=None)
@given(
    channels=st.lists(st.integers(min_value=1, max_value=6), min_size=4, max_size=4),
    ffn_ratios=st.lists(
        st.sampled_from([0.1, 0.4, 0.5, 1.0, 1.5, 4.0]), min_size=4, max_size=4
    ),
    mode=st.sampled_from(["spatial", "channel", "none"]),
    pooling=st.sampled_from([("avg", "max"), ("avg",), ("max",)]),
    plan=st.sampled_from(PLANS),
)
def test_backbone_params_match_initialised_arrays(channels, ffn_ratios, mode, pooling, plan):
    """The cost model's parameter count is the size of every learnable array
    the initialiser makes (norm running statistics are buffers), including
    widths where c // 2 or ffn_ratio * c round to zero; its MAC count is the
    one a forward pass spends in its conv kernels."""
    cfg = BackboneConfig(
        channels=tuple(channels),
        depths=(1, 1, 1, 1),
        ffn_ratios=tuple(ffn_ratios),
        plan=validate_plan(plan),
        selection_mode=mode,
        pooling=pooling,
    )
    params = init_backbone_params(cfg, seed=0)
    arrays = named_arrays(params)
    learnable = sum(a.size for name, a in arrays.items() if not name.endswith((".mean", ".var")))
    report = cost_backbone(cfg, 32, 32)
    assert report.params == learnable
    assert report.macs == forward_macs(params, 32, 32)
    # the shape-only tree the walk reads has the seeded tree's names and
    # shapes; every array is a read-only zero-stride view holding no memory,
    # zero for a weight and the seeded value for everything else
    shape_only = named_arrays(cfg.shape_tree)
    assert {name: a.shape for name, a in shape_only.items()} == {name: a.shape for name, a in arrays.items()}
    for name, a in shape_only.items():
        assert set(a.strides) == {0} and not a.flags.writeable
        assert a.dtype == arrays[name].dtype
        if name.endswith(".weight"):
            assert not a.any()
        else:
            np.testing.assert_array_equal(a, arrays[name])


@pytest.mark.parametrize("mode", ["spatial", "channel", "none"])
@pytest.mark.parametrize("variant", ["T", "S"])
def test_preset_shape_trees_hold_no_memory(variant, mode):
    cfg = BackboneConfig.variant(variant, selection_mode=mode)
    for name, a in named_arrays(cfg.shape_tree).items():
        assert set(a.strides) == {0} and not a.flags.writeable, name


def test_one_config_builds_one_tree():
    """The config builds its shape-only tree once, and the cost walk and the
    weight loader read that tree instead of building their own.  A profile
    hook counts every call of the builder, however it was imported."""
    arrays = named_arrays(init_backbone_params(BackboneConfig.variant("T"), seed=0))
    seeds = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is init_backbone_params.__code__:
            seeds.append(frame.f_locals["seed"])

    sys.setprofile(count)
    try:
        cfg = BackboneConfig.variant("T")
        built = list(seeds)
        cost_backbone(cfg, 64, 64)
        loaded = params_from_arrays(cfg, arrays)
    finally:
        sys.setprofile(None)
    assert built == [None] and seeds == [None]
    assert loaded.config is cfg


@settings(max_examples=30, deadline=None)
@given(
    c=st.integers(min_value=1, max_value=12),
    mode=st.sampled_from(list(SelectionMode)),
    pooling=st.sampled_from([("avg", "max"), ("avg",), ("max",)]),
    plan=st.sampled_from(PLANS),
)
def test_module_params_match_initialised_arrays(c, mode, pooling, plan):
    """Every mixer is max(c // 2, 1) wide and a spatial module's selection
    conv is 7x7, as in the released module; the module walk over the
    shape-only tree counts exactly the learnable array sizes of the seeded
    module."""
    plan = validate_plan(plan)
    seeded = init_lsk_params(plan, c, pooling, mode, np.random.default_rng(0))
    assert all(conv.weight.shape == (max(c // 2, 1), c) for conv in seeded.mix)
    if mode is SelectionMode.SPATIAL:
        assert seeded.select.weight.shape == (plan.n_kernels, len(pooling), 7, 7)
    report = cost_lsk_module(init_lsk_params(plan, c, pooling, mode), 5, 7)
    assert report.params == sum(a.size for _, a in parameter_arrays(seeded))
    report.validate()
