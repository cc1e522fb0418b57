"""Four-stage pyramid backbone built from selection blocks.

Layout: a 7x7 stride-4 stem (the one dense, non-depth-wise conv besides the
downsamplers), then four stages of blocks at spatial reductions 4, 8, 16 and
32, joined by 3x3 stride-2 downsampling convs.  Named presets follow the two
published variants:

* ``T``: channels (32, 64, 160, 256), depths (3, 3, 5, 2)
* ``S``: channels (64, 128, 320, 512), depths (2, 2, 4, 2)

Every forward pass can capture the per-block spatial selection masks into an
:class:`ActivationRecord`, keyed ``(stage, depth)`` with 1-based indices to
match the ``B_<stage>_<depth>`` naming used by the mask export files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import ops
from .block import (
    BlockGradients,
    BlockParams,
    BlockState,
    NormParams,
    NORM_EPS,
    block_backward,
    block_forward,
    init_block_params,
)
from .errors import ShapeError, WeightMismatchError
from .module import SelectionMode, fan_in_uniform, normalize_pooling
from .ops import Tensor4
from .plan import DecompositionPlan, validate_plan

__all__ = [
    "DEFAULT_PLAN",
    "BackboneConfig",
    "BackboneParams",
    "BackboneOutput",
    "ActivationRecord",
    "init_backbone_params",
    "backbone_params_astype",
    "backbone_forward",
    "backbone_backward",
    "named_arrays",
    "expected_shapes",
    "params_from_arrays",
]

DEFAULT_PLAN = validate_plan([(5, 1), (7, 3)])

_PRESETS = {
    "T": ((32, 64, 160, 256), (3, 3, 5, 2)),
    "S": ((64, 128, 320, 512), (2, 2, 4, 2)),
}


@dataclass(frozen=True)
class BackboneConfig:
    """Stage widths/depths plus the design knobs of the selection module."""

    channels: tuple[int, int, int, int]
    depths: tuple[int, int, int, int]
    ffn_ratios: tuple[float, float, float, float] = (8.0, 8.0, 4.0, 4.0)
    plan: DecompositionPlan = DEFAULT_PLAN
    selection_mode: SelectionMode = SelectionMode.SPATIAL
    pooling: tuple[str, ...] = ("avg", "max")
    select_kernel: int = 7
    c_mid_divisor: int = 2

    def __post_init__(self):
        if len(self.channels) != 4 or len(self.depths) != 4 or len(self.ffn_ratios) != 4:
            raise ShapeError("BackboneConfig: channels, depths and ffn_ratios need 4 stages")
        if any(c < 1 for c in self.channels) or any(d < 1 for d in self.depths):
            raise ShapeError("BackboneConfig: channels and depths must be positive")
        object.__setattr__(self, "pooling", normalize_pooling(self.pooling))
        object.__setattr__(self, "selection_mode", SelectionMode(self.selection_mode))

    def branch_width(self, c: int) -> int:
        return max(c // self.c_mid_divisor, 1)

    @property
    def total_blocks(self) -> int:
        return sum(self.depths)

    @classmethod
    def variant(cls, name: str, **overrides) -> "BackboneConfig":
        key = name.upper()
        if key not in _PRESETS:
            raise ShapeError(f"unknown backbone variant {name!r} (known: {sorted(_PRESETS)})")
        channels, depths = _PRESETS[key]
        return cls(channels=channels, depths=depths, **overrides)

    @classmethod
    def lsknet_t(cls, **overrides) -> "BackboneConfig":
        return cls.variant("T", **overrides)

    @classmethod
    def lsknet_s(cls, **overrides) -> "BackboneConfig":
        return cls.variant("S", **overrides)


@dataclass
class ActivationRecord:
    """Spatial selection masks captured during one forward pass.

    ``masks[(stage, depth)]`` is the (n, n_kernels, h, w) sigmoid stack of the
    block at 1-based (stage, depth); ``rf`` is the receptive field of each
    kernel branch, ascending.
    """

    rf: tuple[int, ...]
    masks: dict[tuple[int, int], Tensor4] = field(default_factory=dict)

    @property
    def n_kernels(self) -> int:
        return len(self.rf)

    def block_keys(self) -> list[tuple[int, int]]:
        return sorted(self.masks.keys())

    def key_name(self, key: tuple[int, int]) -> str:
        return f"B_{key[0]}_{key[1]}"


@dataclass
class DenseConvParams:
    weight: np.ndarray  # (c_out, c_in, k, k)
    bias: np.ndarray


@dataclass
class BackboneParams:
    config: BackboneConfig
    stem_conv: DenseConvParams
    stem_norm: NormParams
    stages: list[list[BlockParams]]
    down_convs: list[DenseConvParams]  # 3 entries, between consecutive stages
    down_norms: list[NormParams]


def init_backbone_params(config: BackboneConfig, seed: int = 0) -> BackboneParams:
    """Fresh weights with a fixed draw order, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    stem_conv = DenseConvParams(
        weight=fan_in_uniform(rng, (config.channels[0], 3, 7, 7), 3 * 49),
        bias=np.zeros(config.channels[0], dtype=np.float32),
    )
    stem_norm = NormParams.identity(config.channels[0])
    stages: list[list[BlockParams]] = []
    down_convs: list[DenseConvParams] = []
    down_norms: list[NormParams] = []
    for i in range(4):
        c = config.channels[i]
        blocks = [
            init_block_params(
                config.plan,
                c,
                config.ffn_ratios[i],
                c_mid=config.branch_width(c),
                select_kernel=config.select_kernel,
                pooling=config.pooling,
                mode=config.selection_mode,
                rng=rng,
            )
            for _ in range(config.depths[i])
        ]
        stages.append(blocks)
        if i < 3:
            c_next = config.channels[i + 1]
            down_convs.append(
                DenseConvParams(
                    weight=fan_in_uniform(rng, (c_next, c, 3, 3), c * 9),
                    bias=np.zeros(c_next, dtype=np.float32),
                )
            )
            down_norms.append(NormParams.identity(c_next))
    return BackboneParams(
        config=config,
        stem_conv=stem_conv,
        stem_norm=stem_norm,
        stages=stages,
        down_convs=down_convs,
        down_norms=down_norms,
    )


def backbone_params_astype(params: BackboneParams, dtype) -> BackboneParams:
    """Copy with every array cast to ``dtype`` (float64 for gradient checks)."""
    return BackboneParams(
        config=params.config,
        stem_conv=DenseConvParams(
            weight=params.stem_conv.weight.astype(dtype), bias=params.stem_conv.bias.astype(dtype)
        ),
        stem_norm=params.stem_norm.astype(dtype),
        stages=[[bp.astype(dtype) for bp in blocks] for blocks in params.stages],
        down_convs=[
            DenseConvParams(weight=dc.weight.astype(dtype), bias=dc.bias.astype(dtype))
            for dc in params.down_convs
        ],
        down_norms=[nm.astype(dtype) for nm in params.down_norms],
    )


# ---------------------------------------------------------------------------
# flat named-array view (shared by the weight-file format and the trainer)
# ---------------------------------------------------------------------------

def _block_named(prefix: str, bp: BlockParams) -> Iterator[tuple[str, np.ndarray]]:
    for stat in ("scale", "shift", "mean", "var"):
        yield f"{prefix}.norm1.{stat}", getattr(bp.norm1, stat)
    yield f"{prefix}.pre.weight", bp.pre_weight
    yield f"{prefix}.pre.bias", bp.pre_bias
    for name, arr in bp.lsk.parameter_arrays():
        yield f"{prefix}.lsk.{name}", arr
    yield f"{prefix}.post.weight", bp.post_weight
    yield f"{prefix}.post.bias", bp.post_bias
    yield f"{prefix}.scale1", bp.scale1
    for stat in ("scale", "shift", "mean", "var"):
        yield f"{prefix}.norm2.{stat}", getattr(bp.norm2, stat)
    yield f"{prefix}.ffn.fc1.weight", bp.fc1_weight
    yield f"{prefix}.ffn.fc1.bias", bp.fc1_bias
    yield f"{prefix}.ffn.dw.weight", bp.ffn_dw_weight
    yield f"{prefix}.ffn.dw.bias", bp.ffn_dw_bias
    yield f"{prefix}.ffn.fc2.weight", bp.fc2_weight
    yield f"{prefix}.ffn.fc2.bias", bp.fc2_bias
    yield f"{prefix}.scale2", bp.scale2


def named_arrays(params: BackboneParams) -> dict[str, np.ndarray]:
    """Stable dotted-name view of every tensor in the backbone."""
    out: dict[str, np.ndarray] = {}
    out["stem.conv.weight"] = params.stem_conv.weight
    out["stem.conv.bias"] = params.stem_conv.bias
    for stat in ("scale", "shift", "mean", "var"):
        out[f"stem.norm.{stat}"] = getattr(params.stem_norm, stat)
    for i, blocks in enumerate(params.stages):
        for j, bp in enumerate(blocks):
            for name, arr in _block_named(f"stage{i + 1}.block{j}", bp):
                out[name] = arr
        if i < 3:
            out[f"down{i + 1}.conv.weight"] = params.down_convs[i].weight
            out[f"down{i + 1}.conv.bias"] = params.down_convs[i].bias
            for stat in ("scale", "shift", "mean", "var"):
                out[f"down{i + 1}.norm.{stat}"] = getattr(params.down_norms[i], stat)
    return out


def expected_shapes(config: BackboneConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape map a weight file must satisfy for this configuration."""
    template = init_backbone_params(config, seed=0)
    return {name: tuple(arr.shape) for name, arr in named_arrays(template).items()}


def params_from_arrays(config: BackboneConfig, arrays: dict[str, np.ndarray]) -> BackboneParams:
    """Rebuild structured params from a flat name -> array map.

    Every expected tensor must be present with exactly the expected shape;
    the first offending tensor is named in the error.
    """
    params = init_backbone_params(config, seed=0)
    expected = named_arrays(params)
    for name, target in expected.items():
        if name not in arrays:
            raise WeightMismatchError(f"missing tensor {name!r}")
        src = arrays[name]
        if tuple(src.shape) != tuple(target.shape):
            raise WeightMismatchError(
                f"tensor {name!r} has shape {tuple(src.shape)}, expected {tuple(target.shape)}"
            )
        target[...] = src.astype(np.float32, copy=False)
    extra = set(arrays) - set(expected)
    if extra:
        raise WeightMismatchError(f"unexpected tensor(s) in weights: {sorted(extra)[:5]}")
    return params


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

@dataclass
class _DownState:
    x: Tensor4
    conv_out: Tensor4
    bn_xhat: Tensor4 | None
    bn_inv: np.ndarray | None


@dataclass
class BackboneState:
    params: BackboneParams
    train_norm: bool
    x: Tensor4
    stem: _DownState
    block_states: list[list[BlockState]]
    down_states: list[_DownState]


@dataclass
class BackboneOutput:
    features: list[Tensor4]  # one per stage
    record: ActivationRecord
    state: BackboneState | None


def _norm_apply(x, norm: NormParams, train: bool):
    if train:
        return ops.batch_norm(x, norm.scale, norm.shift, NORM_EPS)
    return (
        ops.affine_channel_norm(x, norm.scale, norm.shift, norm.mean, norm.var, NORM_EPS),
        None,
        None,
    )


def backbone_forward(
    x: Tensor4,
    params: BackboneParams,
    keep_state: bool = False,
    train_norm: bool = False,
) -> BackboneOutput:
    """Run the whole backbone; input spatial dims must be divisible by 32."""
    ops.check_tensor4(x, "backbone_forward: x")
    config = params.config
    n, c, h, w = x.shape
    if c != 3:
        raise ShapeError(f"backbone_forward: expected 3 input channels, got {c}")
    if h % 32 or w % 32:
        raise ShapeError(f"backbone_forward: spatial dims {h}x{w} not divisible by 32")

    conv_out = ops.conv2d(x, params.stem_conv.weight, params.stem_conv.bias, stride=4, padding=3)
    cur, xhat, inv = _norm_apply(conv_out, params.stem_norm, train_norm)
    stem_state = _DownState(x=x, conv_out=conv_out, bn_xhat=xhat, bn_inv=inv)

    record = ActivationRecord(rf=config.plan.rf_per_stage)
    features: list[Tensor4] = []
    block_states: list[list[BlockState]] = []
    down_states: list[_DownState] = []
    for i in range(4):
        stage_states: list[BlockState] = []
        for j, bp in enumerate(params.stages[i]):
            out = block_forward(
                cur,
                bp,
                mode=config.selection_mode,
                pooling=config.pooling,
                train_norm=train_norm,
                keep_state=keep_state,
            )
            cur = out.y
            if out.masks is not None:
                record.masks[(i + 1, j + 1)] = out.masks
            if keep_state:
                stage_states.append(out.state)
        features.append(cur)
        block_states.append(stage_states)
        if i < 3:
            dc = params.down_convs[i]
            conv_out = ops.conv2d(cur, dc.weight, dc.bias, stride=2, padding=1)
            nxt, xhat, inv = _norm_apply(conv_out, params.down_norms[i], train_norm)
            down_states.append(_DownState(x=cur, conv_out=conv_out, bn_xhat=xhat, bn_inv=inv))
            cur = nxt

    state = None
    if keep_state:
        state = BackboneState(
            params=params,
            train_norm=train_norm,
            x=x,
            stem=stem_state,
            block_states=block_states,
            down_states=down_states,
        )
    return BackboneOutput(features=features, record=record, state=state)


def _lsk_grads_named(prefix: str, g) -> Iterator[tuple[str, np.ndarray]]:
    for i, (w, b) in enumerate(zip(g.dw_weights, g.dw_biases)):
        yield f"{prefix}.dw{i}.weight", w
        yield f"{prefix}.dw{i}.bias", b
    for i, (w, b) in enumerate(zip(g.mix_weights, g.mix_biases)):
        yield f"{prefix}.mix{i}.weight", w
        yield f"{prefix}.mix{i}.bias", b
    if g.select_weight is not None:
        yield f"{prefix}.select.weight", g.select_weight
        yield f"{prefix}.select.bias", g.select_bias
    yield f"{prefix}.fuse.weight", g.fuse_weight
    yield f"{prefix}.fuse.bias", g.fuse_bias
    if g.cs_squeeze_weight is not None:
        yield f"{prefix}.cs_squeeze.weight", g.cs_squeeze_weight
        yield f"{prefix}.cs_squeeze.bias", g.cs_squeeze_bias
        yield f"{prefix}.cs_expand.weight", g.cs_expand_weight
        yield f"{prefix}.cs_expand.bias", g.cs_expand_bias


def block_grads_named(prefix: str, g: BlockGradients) -> Iterator[tuple[str, np.ndarray]]:
    yield f"{prefix}.norm1.scale", g.norm1_scale
    yield f"{prefix}.norm1.shift", g.norm1_shift
    yield f"{prefix}.pre.weight", g.pre_weight
    yield f"{prefix}.pre.bias", g.pre_bias
    yield from _lsk_grads_named(f"{prefix}.lsk", g.lsk)
    yield f"{prefix}.post.weight", g.post_weight
    yield f"{prefix}.post.bias", g.post_bias
    yield f"{prefix}.scale1", g.scale1
    yield f"{prefix}.norm2.scale", g.norm2_scale
    yield f"{prefix}.norm2.shift", g.norm2_shift
    yield f"{prefix}.ffn.fc1.weight", g.fc1_weight
    yield f"{prefix}.ffn.fc1.bias", g.fc1_bias
    yield f"{prefix}.ffn.dw.weight", g.ffn_dw_weight
    yield f"{prefix}.ffn.dw.bias", g.ffn_dw_bias
    yield f"{prefix}.ffn.fc2.weight", g.fc2_weight
    yield f"{prefix}.ffn.fc2.bias", g.fc2_bias
    yield f"{prefix}.scale2", g.scale2


def backbone_backward(grad_stage4: Tensor4, state: BackboneState) -> tuple[Tensor4, dict[str, np.ndarray]]:
    """Backprop from a gradient on the final stage feature.

    Returns (grad wrt input, flat name -> gradient map over all learnables).
    """
    params = state.params
    grads: dict[str, np.ndarray] = {}
    grad = grad_stage4
    for i in range(3, -1, -1):
        if i < 3:
            ds = state.down_states[i]
            norm = params.down_norms[i]
            if state.train_norm:
                g_conv, g_scale, g_shift = ops.batch_norm_backward(
                    grad, ds.bn_xhat, ds.bn_inv, norm.scale
                )
            else:
                g_conv, g_scale, g_shift = ops.affine_channel_norm_backward(
                    grad, ds.conv_out, norm.scale, norm.mean, norm.var, NORM_EPS
                )
            grads[f"down{i + 1}.norm.scale"] = g_scale
            grads[f"down{i + 1}.norm.shift"] = g_shift
            g_in, g_w, g_b = ops.conv2d_backward(
                g_conv, ds.x, params.down_convs[i].weight, stride=2, padding=1
            )
            grads[f"down{i + 1}.conv.weight"] = g_w
            grads[f"down{i + 1}.conv.bias"] = g_b
            grad = g_in
        for j in range(len(params.stages[i]) - 1, -1, -1):
            bg = block_backward(grad, state.block_states[i][j])
            for name, arr in block_grads_named(f"stage{i + 1}.block{j}", bg):
                grads[name] = arr
            grad = bg.x
    stem = state.stem
    if state.train_norm:
        g_conv, g_scale, g_shift = ops.batch_norm_backward(
            grad, stem.bn_xhat, stem.bn_inv, params.stem_norm.scale
        )
    else:
        g_conv, g_scale, g_shift = ops.affine_channel_norm_backward(
            grad, stem.conv_out, params.stem_norm.scale, params.stem_norm.mean,
            params.stem_norm.var, NORM_EPS,
        )
    grads["stem.norm.scale"] = g_scale
    grads["stem.norm.shift"] = g_shift
    g_in, g_w, g_b = ops.conv2d_backward(g_conv, stem.x, params.stem_conv.weight, stride=4, padding=3)
    grads["stem.conv.weight"] = g_w
    grads["stem.conv.bias"] = g_b
    return g_in, grads
