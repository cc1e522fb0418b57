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

import math
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .block import (
    BlockParams,
    BlockState,
    NormParams,
    block_backward,
    block_forward,
    init_block_params,
    norm_backward,
    norm_forward,
    prefixed,
)
from .errors import ShapeError, WeightMismatchError
from .module import SelectionMode, fan_in_uniform, normalize_pooling, params_astype, params_map
from .ops import Tensor4
from .plan import DecompositionPlan, validate_plan

__all__ = [
    "DEFAULT_PLAN",
    "STEM_STRIDE_PADDING",
    "DOWN_STRIDE_PADDING",
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
# (stride, padding) of the dense convs; each kernel size is read off its weight
STEM_STRIDE_PADDING = (4, 3)
DOWN_STRIDE_PADDING = (2, 1)

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
        if not all(math.isfinite(r) and r > 0 for r in self.ffn_ratios):
            raise ShapeError(f"BackboneConfig: ffn ratios must be finite and positive, got {self.ffn_ratios}")
        if self.c_mid_divisor < 1:
            raise ShapeError(f"BackboneConfig: c_mid_divisor must be >= 1, got {self.c_mid_divisor}")
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

    @staticmethod
    def key_name(key: tuple[int, int]) -> str:
        """``B_<stage>_<depth>``: the block name in mask files and reports."""
        return f"B_{key[0]}_{key[1]}"


@dataclass
class DenseConvParams:
    weight: np.ndarray  # (c_out, c_in, k, k)
    bias: np.ndarray

    def parameter_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [("weight", self.weight), ("bias", self.bias)]


@dataclass
class BackboneParams:
    config: BackboneConfig
    stem_conv: DenseConvParams
    stem_norm: NormParams
    stages: list[list[BlockParams]]
    down_convs: list[DenseConvParams]  # 3 entries, between consecutive stages
    down_norms: list[NormParams]


def init_backbone_params(config: BackboneConfig, seed: int | None = 0) -> BackboneParams:
    """Fresh weights with a fixed draw order, reproducible from the seed;
    ``seed=None`` draws nothing and gives the shape-only tree (read-only zero
    weights) that the cost walk and the weight loader read."""
    rng = None if seed is None else np.random.default_rng(seed)
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
    return params_astype(params, dtype)


# ---------------------------------------------------------------------------
# flat named-array view (shared by the weight-file format and the trainer)
# ---------------------------------------------------------------------------

def named_arrays(params: BackboneParams) -> dict[str, np.ndarray]:
    """Stable dotted-name view of every tensor in the backbone."""
    out = dict(prefixed("stem.conv", params.stem_conv.parameter_arrays()))
    out.update(prefixed("stem.norm", params.stem_norm.parameter_arrays()))
    for i, blocks in enumerate(params.stages):
        for j, bp in enumerate(blocks):
            out.update(prefixed(f"stage{i + 1}.block{j}", bp.parameter_arrays()))
        if i < 3:
            out.update(prefixed(f"down{i + 1}.conv", params.down_convs[i].parameter_arrays()))
            out.update(prefixed(f"down{i + 1}.norm", params.down_norms[i].parameter_arrays()))
    return out


def expected_shapes(config: BackboneConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape map a weight file must satisfy for this configuration."""
    template = init_backbone_params(config, seed=None)
    return {name: tuple(arr.shape) for name, arr in named_arrays(template).items()}


def params_from_arrays(config: BackboneConfig, arrays: dict[str, np.ndarray]) -> BackboneParams:
    """Rebuild structured params from a flat name -> array map.

    Every expected tensor must be present with exactly the expected shape;
    the first offending tensor is named in the error.  The result holds the
    caller's float32 arrays themselves (no copy) and a cast of any other.
    """
    template = init_backbone_params(config, seed=None)
    expected = named_arrays(template)
    for name, target in expected.items():
        if name not in arrays:
            raise WeightMismatchError(f"missing tensor {name!r}")
        if tuple(arrays[name].shape) != target.shape:
            raise WeightMismatchError(
                f"tensor {name!r} has shape {tuple(arrays[name].shape)}, expected {target.shape}"
            )
    extra = set(arrays) - set(expected)
    if extra:
        raise WeightMismatchError(f"unexpected tensor(s) in weights: {sorted(extra)[:5]}")
    loaded = {id(target): arrays[name].astype(np.float32, copy=False) for name, target in expected.items()}
    return params_map(template, lambda arr: loaded[id(arr)])


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


def backbone_forward(
    x: Tensor4,
    params: BackboneParams,
    keep_state: bool = False,
    train_norm: bool = False,
) -> BackboneOutput:
    """Run the whole backbone; input spatial dims must be divisible by 32."""
    ops.check_tensor4(x, "backbone_forward: x")
    n, c, h, w = x.shape
    if c != 3:
        raise ShapeError(f"backbone_forward: expected 3 input channels, got {c}")
    if h % 32 or w % 32:
        raise ShapeError(f"backbone_forward: spatial dims {h}x{w} not divisible by 32")

    conv_out = ops.conv2d(x, params.stem_conv.weight, params.stem_conv.bias, *STEM_STRIDE_PADDING)
    cur, xhat, inv = norm_forward(conv_out, params.stem_norm, train_norm)
    stem_state = _DownState(x=x, conv_out=conv_out, bn_xhat=xhat, bn_inv=inv)

    record = ActivationRecord(rf=params.config.plan.rf_per_stage)
    features: list[Tensor4] = []
    block_states: list[list[BlockState]] = []
    down_states: list[_DownState] = []
    for i in range(4):
        stage_states: list[BlockState] = []
        for j, bp in enumerate(params.stages[i]):
            out = block_forward(cur, bp, train_norm=train_norm, keep_state=keep_state)
            cur = out.y
            if out.masks is not None:
                record.masks[(i + 1, j + 1)] = out.masks
            if keep_state:
                stage_states.append(out.state)
        features.append(cur)
        block_states.append(stage_states)
        if i < 3:
            dc = params.down_convs[i]
            conv_out = ops.conv2d(cur, dc.weight, dc.bias, *DOWN_STRIDE_PADDING)
            nxt, xhat, inv = norm_forward(conv_out, params.down_norms[i], train_norm)
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


def _conv_norm_backward(grad, ds: _DownState, conv: DenseConvParams, norm: NormParams,
                        train: bool, stride_padding: tuple[int, int]):
    """Backward of a dense conv followed by a norm (the stem and the
    downsamplers): ``(grad_x, grads)`` keyed ``conv.*`` and ``norm.*``."""
    g_conv, g_scale, g_shift = norm_backward(grad, norm, train, ds.conv_out, ds.bn_xhat, ds.bn_inv)
    g_in, g_w, g_b = ops.conv2d_backward(g_conv, ds.x, conv.weight, *stride_padding)
    return g_in, {"norm.scale": g_scale, "norm.shift": g_shift, "conv.weight": g_w, "conv.bias": g_b}


def backbone_backward(grad_stage4: Tensor4, state: BackboneState) -> tuple[Tensor4, dict[str, np.ndarray]]:
    """Backprop from a gradient on the final stage feature.

    Returns (grad wrt input, flat name -> gradient map over all learnables).
    """
    params = state.params
    grads: dict[str, np.ndarray] = {}
    grad = grad_stage4
    for i in range(3, -1, -1):
        if i < 3:
            grad, down_grads = _conv_norm_backward(
                grad, state.down_states[i], params.down_convs[i], params.down_norms[i],
                state.train_norm, DOWN_STRIDE_PADDING,
            )
            grads.update(prefixed(f"down{i + 1}", down_grads.items()))
        for j in range(len(params.stages[i]) - 1, -1, -1):
            grad, block_grads = block_backward(grad, state.block_states[i][j])
            grads.update(prefixed(f"stage{i + 1}.block{j}", block_grads.items()))
    grad, stem_grads = _conv_norm_backward(
        grad, state.stem, params.stem_conv, params.stem_norm, state.train_norm, STEM_STRIDE_PADDING
    )
    grads.update(prefixed("stem", stem_grads.items()))
    return grad, grads
