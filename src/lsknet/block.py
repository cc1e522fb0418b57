"""Backbone building block: a selection sub-block and an FFN sub-block.

Both halves are residual.  The first normalizes the input, expands it with a
1x1 conv and a GELU, runs the selection module, projects back and adds the
result (scaled per channel) onto the input.  The second is the feed-forward
half: norm, 1x1 expand, 3x3 depth-wise conv, GELU, 1x1 contract, again scaled
and added residually.  Zeroing the projection weights therefore turns the
whole block into the identity map.

Normalization uses stored per-channel statistics by default; ``train_norm``
switches to the batch's own statistics (used by the toy trainer).  The norm
cache, ``(x, mean, var)`` for batch statistics or the norm's input ``x`` for
stored ones, is all its backward reads; no norm output is kept, and
:func:`norm_output` rebuilds it bit for bit from the cache.  Every conv is one
:class:`~lsknet.module.ConvParams` leaf and every width is read off the
arrays; the selection module carries its own mode and pooling set, so
:func:`block_forward` takes only the input and the parameters.  Like
:func:`~lsknet.module.lsk_forward`, it frees each intermediate after its last
use, builds the backward's state only when ``keep_state`` is set and returns a
:class:`~lsknet.module.LayerOutput`; both modes run the same ops in the same
order, and :func:`block_backward` starts every gradient from its first term.

The FFN runs over consecutive groups of hidden channels (:func:`ffn_groups`):
each group takes its rows of ``fc1``, its channels of the depth-wise conv and
GELU, and its columns of ``fc2``, whose partial products are added into the
c-wide output in group order before the bias.  A group's per-image plane
fits the depth-wise tile budget, so an inference block never holds an
FFN-wide tensor.  The state keeps each group's depth-wise output only, and
the backward walks the same groups: it takes each GELU again from the
depth-wise output and each ``fc1`` output again from the rebuilt norm output,
with the forward's call, so a training block holds one FFN hidden tensor per
group.  The selection module's output is rebuilt the same way from its kept
input and fused map.  Only two sums change order against the whole-width
FFN, ``fc2``'s forward sum and ``fc1``'s input-gradient sum, and only in
blocks with two or more groups.  The weight names below a block's prefix are
read off its field tree (:func:`~lsknet.module.parameter_arrays`:
``pre.weight``, ``ffn.fc1.bias``, ``norm2.var``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ops
from .errors import ShapeError
from .module import (
    ConvParams,
    LayerOutput,
    LskModuleParams,
    LskState,
    SelectionMode,
    constant,
    init_conv,
    init_lsk_params,
    lsk_backward,
    lsk_forward,
    prefixed,
)
from .ops import ConvSpec, Tensor4
from .plan import DecompositionPlan

__all__ = [
    "NormParams",
    "FfnParams",
    "BlockParams",
    "ffn_width",
    "ffn_groups",
    "init_block_params",
    "block_forward",
    "block_backward",
]

NORM_EPS = 1e-5
RESIDUAL_SCALE_INIT = 1e-2  # near-identity start keeps deep random stacks stable
_FFN_SPEC = ConvSpec(3, 1)


@dataclass
class NormParams:
    scale: np.ndarray
    shift: np.ndarray
    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def identity(cls, c: int, rng: np.random.Generator | None) -> "NormParams":
        """Scale 1, shift 0, mean 0, var 1 as :func:`~lsknet.module.constant` arrays."""
        return cls(
            scale=constant(rng, (c,), 1.0),
            shift=constant(rng, (c,), 0.0),
            mean=constant(rng, (c,), 0.0),
            var=constant(rng, (c,), 1.0),
        )


@dataclass
class FfnParams:
    fc1: ConvParams  # weight (hidden, c)
    dw: ConvParams  # weight (hidden, 3, 3)
    fc2: ConvParams  # weight (c, hidden)


@dataclass
class BlockParams:
    norm1: NormParams
    pre: ConvParams  # weight (c, c)
    lsk: LskModuleParams
    post: ConvParams  # weight (c, c)
    scale1: np.ndarray  # (c,)
    norm2: NormParams
    ffn: FfnParams
    scale2: np.ndarray  # (c,)

    @property
    def c(self) -> int:
        return int(self.pre.weight.shape[0])

    def __post_init__(self):
        # a (1,) residual scale or bias would broadcast over every channel
        for name, vector in (("scale1", self.scale1), ("scale2", self.scale2), ("ffn.fc2.bias", self.ffn.fc2.bias)):
            if vector.shape != (self.c,):
                raise ShapeError(f"BlockParams: {name} has shape {vector.shape}, want ({self.c},)")


def ffn_width(c: int, ffn_ratio: float) -> int:
    """Hidden width of a ``c``-channel block's FFN: ``round(ffn_ratio * c)``, at least 1."""
    return max(round(ffn_ratio * c), 1)


def ffn_groups(hidden: int, x: Tensor4) -> list[slice]:
    """Consecutive slices of an FFN's ``hidden`` channels run one at a time
    on the block's ``x``-shaped input.  A group's per-image plane fits the
    depth-wise tile budget (at least one channel each), so the group count
    depends on the image size and dtype, not on the batch."""
    _, _, h, w = x.shape
    width = min(hidden, max(1, ops._DW_TILE_BYTES // (h * w * x.itemsize)))
    return [slice(lo, min(lo + width, hidden)) for lo in range(0, hidden, width)]


def init_block_params(
    plan: DecompositionPlan,
    c: int,
    ffn_ratio: float,
    select_kernel: int = 7,
    pooling: Sequence[str] = ("avg", "max"),
    mode: SelectionMode = SelectionMode.SPATIAL,
    rng: np.random.Generator | None = None,
) -> BlockParams:
    """Block weights drawn from ``rng``; ``rng=None`` gives the shape-only tree."""
    hidden = ffn_width(c, ffn_ratio)
    return BlockParams(
        norm1=NormParams.identity(c, rng),
        pre=init_conv(rng, (c, c), c),
        lsk=init_lsk_params(plan, c, select_kernel=select_kernel, pooling=pooling, mode=mode, rng=rng),
        post=init_conv(rng, (c, c), c),
        scale1=constant(rng, (c,), RESIDUAL_SCALE_INIT),
        norm2=NormParams.identity(c, rng),
        ffn=FfnParams(
            fc1=init_conv(rng, (hidden, c), c),
            dw=init_conv(rng, (hidden, 3, 3), 9),
            fc2=init_conv(rng, (c, hidden), hidden),
        ),
        scale2=constant(rng, (c,), RESIDUAL_SCALE_INIT),
    )


@dataclass
class BlockState:
    params: BlockParams
    x: Tensor4
    norm1_cache: tuple[Tensor4, np.ndarray, np.ndarray] | Tensor4
    pre_out: Tensor4
    lsk_state: LskState
    post_out: Tensor4
    norm2_cache: tuple[Tensor4, np.ndarray, np.ndarray] | Tensor4
    dw_out: list[Tensor4]  # one tensor per hidden-channel group
    fc2_out: Tensor4


def norm_output(norm: NormParams, cache) -> Tensor4:
    """The ``y`` that :func:`norm_forward` returned with ``cache``, rebuilt
    bit for bit by the same op on the same inputs."""
    x, mean, var = cache if isinstance(cache, tuple) else (cache, norm.mean, norm.var)
    return ops.affine_channel_norm(x, norm.scale, norm.shift, mean, var, NORM_EPS)


def norm_forward(x, norm: NormParams, train: bool):
    """``(y, cache)``: with ``train`` the batch's own statistics and the cache
    ``(x, mean, var)``, else the stored statistics and the cache ``x``."""
    if train:
        y, mean, var = ops.batch_norm(x, norm.scale, norm.shift, NORM_EPS)
        return y, (x, mean, var)
    return norm_output(norm, x), x


def norm_backward(grad, norm: NormParams, cache):
    """``(grad_x, grad_scale, grad_shift)`` of :func:`norm_forward`; the
    cache it returned decides which statistics were used."""
    if isinstance(cache, tuple):
        x, mean, var = cache
        return ops.batch_norm_backward(grad, x, norm.scale, mean, var, NORM_EPS)
    return ops.affine_channel_norm_backward(grad, cache, norm.scale, norm.mean, norm.var, NORM_EPS)


def block_forward(
    x: Tensor4, params: BlockParams, train_norm: bool = False, keep_state: bool = True
) -> LayerOutput:
    ops.check_float_input(x, "block_forward")
    if x.shape[1] != params.c:
        raise ShapeError(f"block_forward: input has {x.shape[1]} channels, block expects {params.c}")

    # ``h`` is rebound along each half, so every intermediate is freed after
    # its last use unless ``keep`` stored it as a state field
    kept: dict = {}
    keep = kept.update if keep_state else lambda **fields: None

    h, cache = norm_forward(x, params.norm1, train_norm)
    keep(norm1_cache=cache)
    h = ops.pointwise_conv(h, params.pre.weight, params.pre.bias)
    keep(pre_out=h)
    h = ops.gelu(h)
    lsk_out = lsk_forward(h, params.lsk, keep_state=keep_state)
    keep(lsk_state=lsk_out.state)
    h, masks = lsk_out.y, lsk_out.masks
    del lsk_out
    h = ops.pointwise_conv(h, params.post.weight, params.post.bias)
    keep(post_out=h)
    y1 = ops.add(x, ops.broadcast_mask_mul(h, params.scale1.reshape(1, -1, 1, 1)))

    ffn = params.ffn
    normed2, cache = norm_forward(y1, params.norm2, train_norm)
    keep(norm2_cache=cache)
    # ``t`` is rebound along each group, so a group's hidden tensors are freed
    # within its iteration unless ``keep_group`` appended its depth-wise output
    # to the state's list; the fc2 partial products are summed in group
    # order, then the bias is added
    dw_out = []
    keep(dw_out=dw_out)
    keep_group = list.append if keep_state else lambda group, t: None
    h = None
    for g in ffn_groups(ffn.fc1.weight.shape[0], normed2):
        t = ops.pointwise_conv(normed2, ffn.fc1.weight[g], ffn.fc1.bias[g])
        t = ops.depthwise_conv(t, ffn.dw.weight[g], ffn.dw.bias[g], _FFN_SPEC)
        keep_group(dw_out, t)
        t = ops.gelu(t)
        t = ops.pointwise_conv(t, ffn.fc2.weight[:, g], None)
        if h is None:
            h = t
        else:
            h += t
    del normed2, t
    h += ffn.fc2.bias[None, :, None, None]
    keep(fc2_out=h)
    y = ops.add(y1, ops.broadcast_mask_mul(h, params.scale2.reshape(1, -1, 1, 1)))
    return LayerOutput(y=y, masks=masks, state=BlockState(params=params, x=x, **kept) if keep_state else None)


def _joined(parts: list[np.ndarray], axis: int = 0) -> np.ndarray:
    """The per-group gradient slices as one array; a single group's is
    returned as it is, not copied (stage-4 FFN weights are 4 MiB each)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def block_backward(grad_y: Tensor4, state: BlockState) -> tuple[Tensor4, dict[str, np.ndarray]]:
    """Returns ``(grad_x, grads)``: ``grads`` is keyed by the names
    :func:`~lsknet.module.parameter_arrays` reads off the block and covers
    every learnable array (all but the stored norm statistics)."""
    p = state.params
    if grad_y.shape != state.x.shape:
        raise ShapeError(f"block_backward: grad_y {grad_y.shape} != input {state.x.shape}")
    grads: dict[str, np.ndarray] = {}

    # FFN half: y = y1 + scale2 * fc2_out
    grad_fc2_out, grad_scale = ops.broadcast_mask_mul_backward(grad_y, state.fc2_out, p.scale2.reshape(1, -1, 1, 1))
    grads["scale2"] = grad_scale.reshape(-1)
    ffn = p.ffn
    normed2 = norm_output(p.norm2, state.norm2_cache)
    grad_normed2 = None
    fc2_w, dw_w, dw_b, fc1_w, fc1_b = [], [], [], [], []
    groups = ffn_groups(ffn.fc1.weight.shape[0], normed2)
    for g, dw_out in zip(groups, state.dw_out, strict=True):
        grad, w, fc2_b = ops.pointwise_conv_backward(grad_fc2_out, ops.gelu(dw_out), ffn.fc2.weight[:, g])
        fc2_w.append(w)
        grad = ops.gelu_backward(grad, dw_out)
        # the group's fc1 output is rebuilt by the forward's call and freed
        # once the depth-wise backward has read it
        fc1_out = ops.pointwise_conv(normed2, ffn.fc1.weight[g], ffn.fc1.bias[g])
        grad, w, b = ops.depthwise_conv_backward(grad, fc1_out, ffn.dw.weight[g], _FFN_SPEC)
        del fc1_out
        dw_w.append(w)
        dw_b.append(b)
        grad, w, b = ops.pointwise_conv_backward(grad, normed2, ffn.fc1.weight[g])
        fc1_w.append(w)
        fc1_b.append(b)
        if grad_normed2 is None:
            grad_normed2 = grad
        else:
            grad_normed2 += grad
    del grad, normed2
    grads["ffn.fc2.weight"] = _joined(fc2_w, axis=1)
    grads["ffn.fc2.bias"] = fc2_b  # every group's call sums the same grad_fc2_out
    grads["ffn.dw.weight"] = _joined(dw_w)
    grads["ffn.dw.bias"] = _joined(dw_b)
    grads["ffn.fc1.weight"] = _joined(fc1_w)
    grads["ffn.fc1.bias"] = _joined(fc1_b)
    grad_y1, grads["norm2.scale"], grads["norm2.shift"] = norm_backward(grad_normed2, p.norm2, state.norm2_cache)
    grad_y1 += grad_y  # the residual path

    # selection half: y1 = x + scale1 * post_out
    grad_post_out, grad_scale = ops.broadcast_mask_mul_backward(grad_y1, state.post_out, p.scale1.reshape(1, -1, 1, 1))
    grads["scale1"] = grad_scale.reshape(-1)
    lsk = state.lsk_state
    grad_lsk_y, grads["post.weight"], grads["post.bias"] = ops.pointwise_conv_backward(
        grad_post_out, ops.broadcast_mask_mul(lsk.u[0], lsk.fused), p.post.weight  # the LSK output
    )
    grad_gelu1, lsk_grads = lsk_backward(grad_lsk_y, lsk)
    grads.update(prefixed("lsk", lsk_grads.items()))
    grad_pre_out = ops.gelu_backward(grad_gelu1, state.pre_out)
    grad_normed1, grads["pre.weight"], grads["pre.bias"] = ops.pointwise_conv_backward(
        grad_pre_out, norm_output(p.norm1, state.norm1_cache), p.pre.weight
    )
    grad_x, grads["norm1.scale"], grads["norm1.shift"] = norm_backward(grad_normed1, p.norm1, state.norm1_cache)
    grad_x += grad_y1  # the residual path
    return grad_x, grads
