"""The large-selective-kernel module: decompose, mix, pool, select, fuse, gate.

Forward pipeline (spatial selection, the reference mode):

1. run the input through the plan's depth-wise stages, keeping every
   intermediate as a branch feature with its own receptive field;
2. mix each branch with a per-branch 1x1 conv down to the branch width;
3. concatenate the branches and pool across channels (average / maximum)
   into single-channel spatial descriptors;
4. a small dense conv turns the stacked descriptors into one attention map
   per branch; a sigmoid turns each map into an independent mask in (0, 1);
5. the masked branches are summed, fused back to the input width by a 1x1
   conv, and the result gates the original input element-wise.

``channel`` mode swaps step 3-4 for squeeze-excite style per-channel branch
weights with a softmax across branches, and ``none`` sums the branches
unweighted; both exist for comparison runs.  A module's mode is read off the
arrays it holds (a selection conv means spatial, ``cs`` means channel,
neither means none), and a spatial module stores its own pooling set, so
:func:`lsk_forward` takes only the input and the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from . import ops
from .errors import ShapeError
from .plan import DecompositionPlan
from .ops import ConvSpec, Tensor4

__all__ = [
    "SelectionMode",
    "ChannelSelectParams",
    "LskModuleParams",
    "LskOutput",
    "normalize_pooling",
    "init_lsk_params",
    "lsk_forward",
    "lsk_backward",
    "params_map",
    "params_astype",
]

POOL_ORDER = ("avg", "max")


class SelectionMode(str, Enum):
    SPATIAL = "spatial"
    CHANNEL = "channel"
    NONE = "none"


def normalize_pooling(pooling: Sequence[str]) -> tuple[str, ...]:
    """Return the pooling set in canonical (avg, max) order; reject junk."""
    chosen = tuple(p for p in POOL_ORDER if p in pooling)
    unknown = set(pooling) - set(POOL_ORDER)
    if unknown:
        raise ShapeError(f"unknown pooling mode(s): {sorted(unknown)}")
    if not chosen:
        raise ShapeError("pooling set must contain at least one of 'avg', 'max'")
    return chosen


@dataclass
class ChannelSelectParams:
    """Squeeze/expand weights for the channel-selection comparison mode."""

    squeeze_weight: np.ndarray  # (z, c_mid)
    squeeze_bias: np.ndarray  # (z,)
    expand_weight: np.ndarray  # (n_kernels, c_mid, z)
    expand_bias: np.ndarray  # (n_kernels, c_mid)


@dataclass
class LskModuleParams:
    """All learnable weights of one selection module, plus the pooling set its
    selection conv reads (``()`` unless the module selects spatially)."""

    plan: DecompositionPlan
    dw_weights: list[np.ndarray]  # per stage: (c_in, k, k)
    dw_biases: list[np.ndarray]  # per stage: (c_in,)
    mix_weights: list[np.ndarray]  # per branch: (c_mid, c_in)
    mix_biases: list[np.ndarray]  # per branch: (c_mid,)
    select_weight: np.ndarray | None  # (n_kernels, len(pooling), q, q); spatial mode only
    select_bias: np.ndarray | None  # (n_kernels,)
    pooling: tuple[str, ...]  # descriptor order of the selection conv's input
    fuse_weight: np.ndarray  # (c_in, c_mid)
    fuse_bias: np.ndarray  # (c_in,)
    cs: ChannelSelectParams | None = None

    @property
    def mode(self) -> SelectionMode:
        """Spatial with a selection conv, channel with ``cs``, else none."""
        if self.select_weight is not None:
            return SelectionMode.SPATIAL
        if self.cs is not None:
            return SelectionMode.CHANNEL
        return SelectionMode.NONE

    @property
    def c_in(self) -> int:
        return int(self.fuse_weight.shape[0])

    @property
    def c_mid(self) -> int:
        return int(self.fuse_weight.shape[1])

    @property
    def n_kernels(self) -> int:
        return self.plan.n_kernels

    @property
    def select_kernel(self) -> int:
        return int(self.select_weight.shape[2])

    def validate(self) -> None:
        n = self.n_kernels
        if self.fuse_weight.ndim != 2:
            raise ShapeError(f"fusion conv weight must be (c_in, c_mid), got shape {self.fuse_weight.shape}")
        if len(self.dw_weights) != n or len(self.dw_biases) != n:
            raise ShapeError(f"expected {n} depth-wise stages, got {len(self.dw_weights)}")
        if len(self.mix_weights) != n or len(self.mix_biases) != n:
            raise ShapeError(f"expected {n} mixer branches, got {len(self.mix_weights)}")
        for i, spec in enumerate(self.plan.stages):
            if self.dw_weights[i].shape != (self.c_in, spec.k, spec.k):
                raise ShapeError(
                    f"dw stage {i}: weight shape {self.dw_weights[i].shape} != "
                    f"{(self.c_in, spec.k, spec.k)}"
                )
            if self.mix_weights[i].shape != (self.c_mid, self.c_in):
                raise ShapeError(
                    f"mixer {i}: weight shape {self.mix_weights[i].shape} != "
                    f"{(self.c_mid, self.c_in)}"
                )
        if self.select_weight is not None:
            if self.select_weight.ndim != 4 or self.select_weight.shape[0] != n:
                raise ShapeError(
                    f"selection conv must map pooled descriptors to {n} maps, "
                    f"got weight shape {self.select_weight.shape}"
                )
            if self.cs is not None:
                raise ShapeError("a module holds either a selection conv or channel selection, not both")
        n_desc = 0 if self.select_weight is None else self.select_weight.shape[1]
        if n_desc != len(self.pooling):
            raise ShapeError(
                f"pooling set {self.pooling} does not match the selection conv "
                f"({n_desc} descriptor channels)"
            )

    def parameter_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Stable (name, array) listing of every learnable array."""
        out: list[tuple[str, np.ndarray]] = []
        for i in range(self.n_kernels):
            out.append((f"dw{i}.weight", self.dw_weights[i]))
            out.append((f"dw{i}.bias", self.dw_biases[i]))
        for i in range(self.n_kernels):
            out.append((f"mix{i}.weight", self.mix_weights[i]))
            out.append((f"mix{i}.bias", self.mix_biases[i]))
        if self.select_weight is not None:
            out.append(("select.weight", self.select_weight))
            out.append(("select.bias", self.select_bias))
        out.append(("fuse.weight", self.fuse_weight))
        out.append(("fuse.bias", self.fuse_bias))
        if self.cs is not None:
            out.append(("cs_squeeze.weight", self.cs.squeeze_weight))
            out.append(("cs_squeeze.bias", self.cs.squeeze_bias))
            out.append(("cs_expand.weight", self.cs.expand_weight))
            out.append(("cs_expand.bias", self.cs.expand_bias))
        return out


def fan_in_uniform(rng: np.random.Generator | None, shape: tuple[int, ...], fan_in: int, dtype=np.float32):
    """Zero-mean uniform init with bound 1/sqrt(fan_in); ``rng=None`` draws
    nothing and returns a read-only zero view of ``shape`` (all strides 0)."""
    if rng is None:
        return np.broadcast_to(np.zeros((), dtype), shape)
    bound = 1.0 / np.sqrt(float(max(fan_in, 1)))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def init_lsk_params(
    plan: DecompositionPlan,
    c_in: int,
    c_mid: int | None = None,
    select_kernel: int = 7,
    pooling: Sequence[str] = POOL_ORDER,
    mode: SelectionMode = SelectionMode.SPATIAL,
    rng: np.random.Generator | None = None,
) -> LskModuleParams:
    """Build freshly initialized module weights.

    All biases start at zero; in particular the selection-conv bias is zero so
    every mask starts centred at 0.5.  The draw order is fixed, so a seeded
    generator reproduces the same weights bit for bit; ``rng=None`` gives the
    shape-only tree, whose weights are read-only zero views.
    """
    if c_in < 1:
        raise ShapeError(f"c_in must be >= 1, got {c_in}")
    cm = max(c_in // 2, 1) if c_mid is None else c_mid
    if cm < 1:
        raise ShapeError(f"c_mid must be >= 1, got {cm}")
    pooling = normalize_pooling(pooling)
    q = select_kernel
    if q < 1 or q % 2 == 0:
        raise ShapeError(f"selection kernel must be odd and positive, got {q}")
    n = plan.n_kernels
    dw_w = [fan_in_uniform(rng, (c_in, s.k, s.k), s.k * s.k) for s in plan.stages]
    dw_b = [np.zeros(c_in, dtype=np.float32) for _ in plan.stages]
    mix_w = [fan_in_uniform(rng, (cm, c_in), c_in) for _ in range(n)]
    mix_b = [np.zeros(cm, dtype=np.float32) for _ in range(n)]
    # drawn in every mode, so one seed gives the same other arrays in all modes
    sel_w = fan_in_uniform(rng, (n, len(pooling), q, q), len(pooling) * q * q)
    sel_b = np.zeros(n, dtype=np.float32)
    if mode is not SelectionMode.SPATIAL:  # only spatial selection has the conv
        sel_w = sel_b = None
    fuse_w = fan_in_uniform(rng, (c_in, cm), cm)
    fuse_b = np.zeros(c_in, dtype=np.float32)
    cs = None
    if mode is SelectionMode.CHANNEL:
        z = max(cm // 4, 4)
        cs = ChannelSelectParams(
            squeeze_weight=fan_in_uniform(rng, (z, cm), cm),
            squeeze_bias=np.zeros(z, dtype=np.float32),
            expand_weight=fan_in_uniform(rng, (n, cm, z), z),
            expand_bias=np.zeros((n, cm), dtype=np.float32),
        )
    params = LskModuleParams(
        plan=plan,
        dw_weights=dw_w,
        dw_biases=dw_b,
        mix_weights=mix_w,
        mix_biases=mix_b,
        select_weight=sel_w,
        select_bias=sel_b,
        pooling=pooling if mode is SelectionMode.SPATIAL else (),
        fuse_weight=fuse_w,
        fuse_bias=fuse_b,
        cs=cs,
    )
    params.validate()
    return params


@dataclass
class LskState:
    """Forward intermediates needed by lsk_backward."""

    params: LskModuleParams
    x: Tensor4
    u: list[Tensor4]  # u[0] = x, u[i] = output of stage i
    u_mixed: list[Tensor4]
    weighted: Tensor4
    fused: Tensor4
    # spatial mode
    cat: Tensor4 | None = None
    pooled: Tensor4 | None = None
    masks: Tensor4 | None = None
    # channel mode
    cs_sum: Tensor4 | None = None
    cs_pre: Tensor4 | None = None
    cs_hidden: Tensor4 | None = None
    cs_weights: np.ndarray | None = None  # softmax output (n, n_kernels, c_mid)


@dataclass
class LskOutput:
    y: Tensor4
    masks: Tensor4 | None  # (n, n_kernels, h, w) in spatial mode, else None
    state: LskState | None


def _softmax_branches(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def lsk_forward(x: Tensor4, params: LskModuleParams, keep_state: bool = True) -> LskOutput:
    """Run the selection module in the mode its arrays give; returns output,
    masks and (optionally) the saved state for the backward pass.

    Masks are the per-branch sigmoid maps, stacked as (n, n_kernels, h, w);
    they are produced by the spatial mode only.
    """
    ops.check_tensor4(x, "lsk_forward: x")
    params.validate()
    if x.shape[1] != params.c_in:
        raise ShapeError(
            f"lsk_forward: input has {x.shape[1]} channels, module expects {params.c_in}"
        )
    mode = params.mode
    n = params.n_kernels

    u: list[Tensor4] = [x]
    for i, spec in enumerate(params.plan.stages):
        u.append(
            ops.depthwise_conv(u[-1], params.dw_weights[i], params.dw_biases[i], ConvSpec(spec.k, spec.d))
        )
    u_mixed = [
        ops.pointwise_conv(u[i + 1], params.mix_weights[i], params.mix_biases[i]) for i in range(n)
    ]

    cat = pooled = masks = None
    cs_sum = cs_pre = cs_hidden = cs_weights = None
    if mode is SelectionMode.SPATIAL:
        cat = ops.concat_channels(u_mixed)
        pooled = ops.concat_channels([ops.channel_pool(cat, m) for m in params.pooling])
        q = params.select_kernel
        logits = ops.conv2d(pooled, params.select_weight, params.select_bias, padding=(q - 1) // 2)
        masks = ops.sigmoid(logits)
        weighted = ops.broadcast_mask_mul(u_mixed[0], masks[:, 0:1])
        for i in range(1, n):
            weighted = ops.elementwise(
                weighted, ops.broadcast_mask_mul(u_mixed[i], masks[:, i : i + 1]), "add"
            )
    elif mode is SelectionMode.CHANNEL:
        cs_sum = ops.global_avg_pool(u_mixed[0])
        for i in range(1, n):
            cs_sum = ops.elementwise(cs_sum, ops.global_avg_pool(u_mixed[i]), "add")
        cs_pre = ops.pointwise_conv(cs_sum, params.cs.squeeze_weight, params.cs.squeeze_bias)
        cs_hidden = ops.gelu(cs_pre)
        branch_logits = np.stack(
            [
                ops.pointwise_conv(cs_hidden, params.cs.expand_weight[i], params.cs.expand_bias[i])[
                    :, :, 0, 0
                ]
                for i in range(n)
            ],
            axis=1,
        )  # (n_batch, n_kernels, c_mid)
        cs_weights = _softmax_branches(branch_logits)
        weighted = u_mixed[0] * cs_weights[:, 0][:, :, None, None]
        for i in range(1, n):
            weighted = weighted + u_mixed[i] * cs_weights[:, i][:, :, None, None]
    else:
        weighted = u_mixed[0]
        for i in range(1, n):
            weighted = ops.elementwise(weighted, u_mixed[i], "add")

    fused = ops.pointwise_conv(weighted, params.fuse_weight, params.fuse_bias)
    y = ops.elementwise(x, fused, "mul")

    state = None
    if keep_state:
        state = LskState(
            params=params,
            x=x,
            u=u,
            u_mixed=u_mixed,
            weighted=weighted,
            fused=fused,
            cat=cat,
            pooled=pooled,
            masks=masks,
            cs_sum=cs_sum,
            cs_pre=cs_pre,
            cs_hidden=cs_hidden,
            cs_weights=cs_weights,
        )
    return LskOutput(y=y, masks=masks, state=state)


def lsk_backward(grad_y: Tensor4, state: LskState) -> tuple[Tensor4, dict[str, np.ndarray]]:
    """Chain-rule pass through the whole module for a sum-reduction loss.

    Returns ``(grad_x, grads)``: ``grads`` holds one gradient per entry of
    :meth:`LskModuleParams.parameter_arrays`, keyed by its name.
    """
    params = state.params
    n = params.n_kernels
    if grad_y.shape != state.x.shape:
        raise ShapeError(
            f"lsk_backward: grad_y shape {grad_y.shape} != forward input {state.x.shape}"
        )
    grads: dict[str, np.ndarray] = {}

    # y = x * fused
    grad_x_total, grad_fused = ops.elementwise_backward(grad_y, state.x, state.fused, "mul")
    grad_weighted, grads["fuse.weight"], grads["fuse.bias"] = ops.pointwise_conv_backward(
        grad_fused, state.weighted, params.fuse_weight
    )

    grad_mixed = [np.zeros_like(m) for m in state.u_mixed]
    if params.mode is SelectionMode.SPATIAL:
        masks = state.masks
        grad_masks = np.zeros_like(masks)
        for i in range(n):
            g_m, g_mask = ops.broadcast_mask_mul_backward(
                grad_weighted, state.u_mixed[i], masks[:, i : i + 1]
            )
            grad_mixed[i] += g_m
            grad_masks[:, i : i + 1] = g_mask
        grad_logits = ops.sigmoid_backward(grad_masks, masks)
        q = params.select_kernel
        grad_pooled, grads["select.weight"], grads["select.bias"] = ops.conv2d_backward(
            grad_logits, state.pooled, params.select_weight, padding=(q - 1) // 2
        )
        desc_grads = ops.concat_channels_backward(grad_pooled, [1] * len(params.pooling))
        grad_cat = np.zeros_like(state.cat)
        for mode_name, g_desc in zip(params.pooling, desc_grads):
            grad_cat += ops.channel_pool_backward(g_desc, state.cat, mode_name)
        for i, g_part in enumerate(
            ops.concat_channels_backward(grad_cat, [params.c_mid] * n)
        ):
            grad_mixed[i] += g_part
    elif params.mode is SelectionMode.CHANNEL:
        a = state.cs_weights  # (n_batch, n, c_mid)
        grad_a = np.zeros_like(a)
        for i in range(n):
            grad_mixed[i] += grad_weighted * a[:, i][:, :, None, None]
            grad_a[:, i] = (grad_weighted * state.u_mixed[i]).sum(axis=(2, 3))
        # softmax over the branch axis
        grad_logits = a * (grad_a - (grad_a * a).sum(axis=1, keepdims=True))
        grad_hidden = np.zeros_like(state.cs_hidden)
        grad_exp_w = np.zeros_like(params.cs.expand_weight)
        grad_exp_b = np.zeros_like(params.cs.expand_bias)
        for i in range(n):
            g_li = grad_logits[:, i][:, :, None, None]
            g_h, grad_exp_w[i], grad_exp_b[i] = ops.pointwise_conv_backward(
                g_li, state.cs_hidden, params.cs.expand_weight[i]
            )
            grad_hidden += g_h
        grad_pre = ops.gelu_backward(grad_hidden, state.cs_pre)
        grad_sum, grads["cs_squeeze.weight"], grads["cs_squeeze.bias"] = ops.pointwise_conv_backward(
            grad_pre, state.cs_sum, params.cs.squeeze_weight
        )
        grads["cs_expand.weight"], grads["cs_expand.bias"] = grad_exp_w, grad_exp_b
        for i in range(n):
            grad_mixed[i] += ops.global_avg_pool_backward(grad_sum, state.u_mixed[i])
    else:  # NONE: plain sum of branches
        for i in range(n):
            grad_mixed[i] += grad_weighted

    # mixers, then the depth-wise chain in reverse
    grad_u = [np.zeros_like(t) for t in state.u]
    for i in range(n):
        g_u, grads[f"mix{i}.weight"], grads[f"mix{i}.bias"] = ops.pointwise_conv_backward(
            grad_mixed[i], state.u[i + 1], params.mix_weights[i]
        )
        grad_u[i + 1] += g_u
    for i in range(n - 1, -1, -1):
        spec = params.plan.stages[i]
        g_prev, grads[f"dw{i}.weight"], grads[f"dw{i}.bias"] = ops.depthwise_conv_backward(
            grad_u[i + 1], state.u[i], params.dw_weights[i], ConvSpec(spec.k, spec.d)
        )
        grad_u[i] += g_prev
    return grad_x_total + grad_u[0], grads


def params_map(tree, fn):
    """Copy of a parameter tree with every array replaced by ``fn(array)``.

    Walks dataclasses, lists and arrays; a dataclass holding no array (a plan
    or a config) and every other value is shared, not copied.
    """
    if isinstance(tree, np.ndarray):
        return fn(tree)
    if isinstance(tree, list):
        return [params_map(item, fn) for item in tree]
    if is_dataclass(tree):
        mapped = {f.name: params_map(getattr(tree, f.name), fn) for f in fields(tree)}
        if all(value is getattr(tree, name) for name, value in mapped.items()):
            return tree
        return replace(tree, **mapped)
    return tree


def params_astype(tree, dtype):
    """Copy of a parameter tree with every array cast to ``dtype`` (gradcheck
    runs the production code in float64 this way)."""
    return params_map(tree, lambda arr: arr.astype(dtype))
