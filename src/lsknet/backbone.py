"""Four-stage pyramid backbone built from selection blocks.

Layout: four stages (:class:`StageParams`) at spatial reductions 4, 8, 16
and 32, each its embedding, then its blocks.  An embedding is one conv-norm
layer (:class:`ConvNormParams`, the released code's ``OverlapPatchEmbed``: a
conv zero-padded by k // 2, a norm and a stride) with one forward and one
backward function: the 7x7 stride-4 ``stem``, then 3x3 stride-2 ``down<i>``.
Named presets follow the two published variants:

* ``T``: channels (32, 64, 160, 256), depths (3, 3, 5, 2)
* ``S``: channels (64, 128, 320, 512), depths (2, 2, 4, 2)

Every forward pass can capture the per-block spatial selection masks into an
:class:`ActivationRecord`, keyed ``(stage, depth)`` with 1-based indices to
match the ``B_<stage>_<depth>`` naming used by the mask export files.

:func:`named_arrays` lays the layers out as stem, stage 1, down1, stage 2, ...
and reads the names below each layer's prefix off its field tree
(:func:`~lsknet.module.parameter_arrays`).  A config builds its shape-only tree
once (:attr:`BackboneConfig.shape_tree`), which its size check, the cost walk
and the weight loader share.  A configuration holding any array over
:data:`MAX_ELEMENTS` values is refused, since no weight file could hold it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import ops
from .block import (
    BlockParams,
    BlockState,
    NormParams,
    block_backward,
    block_forward,
    ffn_width,
    init_block_params,
    norm_backward,
    norm_forward,
)
from .errors import LskError, ShapeError, WeightMismatchError
from .module import (
    ConvParams,
    SelectionMode,
    init_conv,
    normalize_pooling,
    parameter_arrays,
    params_astype,
    params_map,
    prefixed,
)
from .ops import Tensor4
from .plan import DecompositionPlan, validate_plan

__all__ = [
    "DEFAULT_PLAN",
    "STEM_STRIDE",
    "DOWN_STRIDE",
    "EMBED_NAMES",
    "MAX_ELEMENTS",
    "BackboneConfig",
    "ConvNormParams",
    "StageParams",
    "BackboneParams",
    "BackboneOutput",
    "ActivationRecord",
    "check_input_size",
    "init_backbone_params",
    "backbone_params_astype",
    "backbone_forward",
    "backbone_backward",
    "named_arrays",
    "params_from_arrays",
]

DEFAULT_PLAN = validate_plan([(5, 1), (7, 3)])
STEM_STRIDE = 4
DOWN_STRIDE = 2
# the weight-name prefix, and the kernel and stride, of each stage's embedding
EMBED_NAMES = ("stem", "down1", "down2", "down3")
_EMBEDS = ((7, STEM_STRIDE), (3, DOWN_STRIDE), (3, DOWN_STRIDE), (3, DOWN_STRIDE))
# the largest array a configuration may hold; the file readers refuse larger
MAX_ELEMENTS = 1 << 31

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

    def __post_init__(self):
        for name in ("channels", "depths", "ffn_ratios", "pooling"):
            values = getattr(self, name)
            try:
                object.__setattr__(self, name, tuple(values))
            except TypeError:
                raise ShapeError(f"BackboneConfig: {name} must be a sequence, got {name}={values!r}") from None
            if any(isinstance(v, bool) for v in getattr(self, name)):  # an Integral and a Real, but no width
                raise ShapeError(f"BackboneConfig: {name} must not hold booleans, got {name}={getattr(self, name)}")
        for name in ("channels", "depths"):
            values = getattr(self, name)
            if len(values) != 4 or not all(isinstance(v, numbers.Integral) and v >= 1 for v in values):
                raise ShapeError(f"BackboneConfig: {name} must be 4 positive integers, got {name}={values}")
            object.__setattr__(self, name, tuple(int(v) for v in values))
        ratios = self.ffn_ratios
        if len(ratios) != 4 or not all(isinstance(r, numbers.Real) and math.isfinite(r) and r > 0 for r in ratios):
            raise ShapeError(f"BackboneConfig: ffn ratios must be 4 finite positive numbers, got ffn_ratios={ratios}")
        if any(not math.isfinite(r * c) or ffn_width(c, r) * c > MAX_ELEMENTS for c, r in zip(self.channels, ratios)):
            raise ShapeError(f"BackboneConfig: ffn ratios {ratios} put over {MAX_ELEMENTS} values in an FFN weight")
        if not isinstance(self.plan, DecompositionPlan):
            raise ShapeError(f"BackboneConfig: plan must be a DecompositionPlan, got plan={self.plan!r}")
        try:
            object.__setattr__(self, "selection_mode", SelectionMode(self.selection_mode))
        except ValueError:
            raise ShapeError(f"BackboneConfig: unknown selection_mode={self.selection_mode!r}") from None
        object.__setattr__(self, "pooling", normalize_pooling(self.pooling))
        try:
            arrays = named_arrays(self.shape_tree)
        except ValueError:  # the FFN check bounds c, but a (c, c) weight can pass numpy's size limit
            raise ShapeError(f"BackboneConfig: channels={self.channels} put an array past numpy's limit") from None
        for name, arr in arrays.items():
            if arr.size > MAX_ELEMENTS:
                raise ShapeError(f"BackboneConfig: {name} would hold {arr.size} values, over {MAX_ELEMENTS}")

    @cached_property
    def shape_tree(self) -> "BackboneParams":
        """``init_backbone_params(self, seed=None)``: built once, read by every shape reader."""
        return init_backbone_params(self, seed=None)

    @classmethod
    def variant(cls, name: str, **overrides) -> "BackboneConfig":
        key = name.upper()
        if key not in _PRESETS:
            raise ShapeError(f"unknown backbone variant {name!r} (known: {sorted(_PRESETS)})")
        channels, depths = _PRESETS[key]
        return cls(channels=channels, depths=depths, **overrides)


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
class ConvNormParams:
    """A dense k x k conv at ``stride`` (the op pads k // 2), then a norm."""

    conv: ConvParams  # weight (c_out, c_in, k, k)
    norm: NormParams
    stride: int


def _init_conv_norm(rng, c_in: int, c_out: int, k: int, stride: int) -> ConvNormParams:
    return ConvNormParams(init_conv(rng, (c_out, c_in, k, k), c_in * k * k), NormParams.identity(c_out, rng), stride)


@dataclass
class StageParams:
    """One stage: its embedding conv-norm layer, then its blocks."""

    embed: ConvNormParams
    blocks: list[BlockParams]


@dataclass
class BackboneParams:
    config: BackboneConfig
    stages: list[StageParams]  # 4 entries


def init_backbone_params(config: BackboneConfig, seed: int | None = 0) -> BackboneParams:
    """Fresh weights with a fixed draw order, reproducible from the seed;
    ``seed=None`` draws nothing and gives the shape-only tree, whose arrays are
    all read-only zero-stride views holding no memory (read it as
    ``config.shape_tree``, built once per config)."""
    rng = None if seed is None else np.random.default_rng(seed)
    stages: list[StageParams] = []
    for i, (c_in, c) in enumerate(zip((3, *config.channels), config.channels)):
        embed = _init_conv_norm(rng, c_in, c, *_EMBEDS[i])
        blocks = [
            init_block_params(
                config.plan,
                c,
                config.ffn_ratios[i],
                pooling=config.pooling,
                mode=config.selection_mode,
                rng=rng,
            )
            for _ in range(config.depths[i])
        ]
        stages.append(StageParams(embed, blocks))
    return BackboneParams(config=config, stages=stages)


def backbone_params_astype(params: BackboneParams, dtype) -> BackboneParams:
    """Copy with every array cast to ``dtype`` (float64 for gradient checks)."""
    return params_astype(params, dtype)


# ---------------------------------------------------------------------------
# flat named-array view (shared by the weight-file format and the trainer)
# ---------------------------------------------------------------------------

def named_arrays(params: BackboneParams) -> dict[str, np.ndarray]:
    """Stable dotted-name view of every tensor in the backbone."""
    out: dict[str, np.ndarray] = {}
    for i, stage in enumerate(params.stages):
        out.update(prefixed(EMBED_NAMES[i], parameter_arrays(stage.embed)))
        for j, bp in enumerate(stage.blocks):
            out.update(prefixed(f"stage{i + 1}.block{j}", parameter_arrays(bp)))
    return out


def params_from_arrays(config: BackboneConfig, arrays: dict[str, np.ndarray]) -> BackboneParams:
    """Rebuild structured params from a flat name -> array map.

    Every expected tensor must be present with exactly the expected shape,
    and no stored norm variance negative or NaN (every feature would be
    NaN); the first offending tensor is named in the error.  The result holds
    the caller's float32 arrays themselves (no copy) and a cast of any other.
    """
    template = config.shape_tree
    expected = named_arrays(template)
    for name, target in expected.items():
        if name not in arrays:
            raise WeightMismatchError(f"missing tensor {name!r}")
        if tuple(arrays[name].shape) != target.shape:
            raise WeightMismatchError(
                f"tensor {name!r} has shape {tuple(arrays[name].shape)}, expected {target.shape}"
            )
        if name.endswith(".var") and not (arrays[name] >= 0).all():
            raise WeightMismatchError(f"tensor {name!r} holds a negative or NaN variance")
    extra = set(arrays) - set(expected)
    if extra:
        raise WeightMismatchError(f"unexpected tensor(s) in weights: {sorted(extra)[:5]}")
    loaded = {id(target): arrays[name].astype(np.float32, copy=False) for name, target in expected.items()}
    return params_map(template, lambda arr: loaded[id(arr)])


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

@dataclass
class _ConvNormState:
    params: ConvNormParams
    x: Tensor4
    norm_cache: tuple[Tensor4, np.ndarray, np.ndarray] | Tensor4  # made from the conv output


@dataclass
class BackboneState:
    # (weight-name prefix, backward, state) of every layer, in forward order
    layers: list[tuple[str, Callable, BlockState | _ConvNormState]]


@dataclass
class BackboneOutput:
    features: list[Tensor4]  # one per stage
    record: ActivationRecord
    state: BackboneState | None


def check_input_size(h: int, w: int, where: str) -> None:
    """Refuse input sides that are not integers (a bool is none here) or not
    positive multiples of the product of the stem's and the three
    downsamplers' strides (32)."""
    for name, side in (("h", h), ("w", w)):
        if isinstance(side, bool) or not isinstance(side, numbers.Integral):
            raise ShapeError(f"{where}: spatial dims must be integers, got {name}={side!r}")
    m = STEM_STRIDE * DOWN_STRIDE**3
    if min(h, w) < 1 or h % m or w % m:
        raise ShapeError(f"{where}: spatial dims {h}x{w} not positive and divisible by {m}")


def backbone_forward(
    x: Tensor4,
    params: BackboneParams,
    keep_state: bool = False,
    train_norm: bool = False,
) -> BackboneOutput:
    """Run the whole backbone; see :func:`check_input_size` for the input sides.

    The input must be a finite float array: an integer or boolean dtype is a
    :class:`ShapeError` and a NaN or Inf entry an :class:`LskError`, both
    raised before any layer runs."""
    ops.check_float_input(x, "backbone_forward")
    n, c, h, w = x.shape
    if c != 3:
        raise ShapeError(f"backbone_forward: expected 3 input channels, got {c}")
    check_input_size(h, w, "backbone_forward")
    if not np.isfinite(x).all():
        raise LskError("backbone_forward: input holds NaN or Inf values")

    layers = []
    record = ActivationRecord(rf=params.config.plan.rf_per_stage)
    features: list[Tensor4] = []
    cur = x
    for i, stage in enumerate(params.stages):
        cur, embed_state = _conv_norm_forward(cur, stage.embed, train_norm, keep_state)
        layers.append((EMBED_NAMES[i], _conv_norm_backward, embed_state))
        for j, bp in enumerate(stage.blocks):
            out = block_forward(cur, bp, train_norm=train_norm, keep_state=keep_state)
            cur = out.y
            if out.masks is not None:
                record.masks[(i + 1, j + 1)] = out.masks
            layers.append((f"stage{i + 1}.block{j}", block_backward, out.state))
        features.append(cur)
    state = BackboneState(layers) if keep_state else None
    return BackboneOutput(features=features, record=record, state=state)


def _conv_norm_forward(x: Tensor4, p: ConvNormParams, train_norm: bool, keep_state: bool):
    """``(y, state)`` of a stage's embedding; ``state`` is ``None`` unless
    ``keep_state``."""
    conv_out = ops.conv2d(x, p.conv.weight, p.conv.bias, p.stride)
    y, norm_cache = norm_forward(conv_out, p.norm, train_norm)
    return y, (_ConvNormState(p, x, norm_cache) if keep_state else None)


def _conv_norm_backward(grad: Tensor4, state: _ConvNormState) -> tuple[Tensor4, ConvNormParams]:
    """``(grad_x, grads)`` of :func:`_conv_norm_forward`: ``grads`` is a
    :class:`ConvNormParams` with the conv's and the norm's gradients, the
    stored norm statistics ``None`` and the layer's stride."""
    p = state.params
    g_conv, *norm = norm_backward(grad, p.norm, state.norm_cache)
    g_in, *conv = ops.conv2d_backward(g_conv, state.x, p.conv.weight, p.stride)
    return g_in, ConvNormParams(ConvParams(*conv), NormParams(*norm, None, None), p.stride)


def backbone_backward(grad_stage4: Tensor4, state: BackboneState) -> tuple[Tensor4, dict[str, np.ndarray]]:
    """Backprop from a gradient on the final stage feature.

    Returns (grad wrt input, flat name -> gradient map over all learnables).
    """
    grads: dict[str, np.ndarray] = {}
    grad = grad_stage4
    for prefix, backward, layer_state in reversed(state.layers):
        grad, layer_grads = backward(grad, layer_state)
        grads.update(prefixed(prefix, parameter_arrays(layer_grads)))
    return grad, grads
