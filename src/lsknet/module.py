"""The large-selective-kernel module: decompose, mix, pool, select, fuse, gate.

Forward pipeline (spatial selection, the reference mode):

1. run the input through the plan's depth-wise stages, keeping every
   intermediate as a branch feature with its own receptive field;
2. mix each branch with a per-branch 1x1 conv down to the branch width and
   concatenate the mixed branches into one tensor;
3. pool that tensor across channels (average / maximum) into single-channel
   spatial descriptors;
4. a small dense conv turns the stacked descriptors into one attention map
   per branch; a sigmoid turns each map into an independent mask in (0, 1);
5. the masked branches are summed, fused back to the input width by a 1x1
   conv, and the result gates the original input element-wise.

``channel`` mode swaps step 3-4 for squeeze-excite style per-channel branch
weights with a softmax across branches, and ``none`` sums the branches
unweighted; both exist for comparison runs.  A mode only produces the branch
weights (a mask (n, 1, h, w) or a softmax slice (n, c_mid, 1, 1) per branch,
or none), which one loop weighs and sums, reading each branch as a channel
slice of the concatenation.  A module's mode is read off the convs it holds
(a selection conv means spatial, the squeeze and expand convs mean channel,
neither means none), and a spatial module stores its own pooling set, so
:func:`lsk_forward` takes only the input and the parameters.  It frees each
intermediate after its last use and builds the backward's state only when
``keep_state`` is set; both modes run the same ops in the same order.  The
state keeps each value once: the input is ``u[0]``, the state keeps the
concatenated branches once, and the backward takes the channel GELU again.
The module and the block return the same :class:`LayerOutput`, and their
backward passes start every gradient from its first term.

Every conv is one :class:`ConvParams` leaf, and :func:`parameter_arrays`
reads the weight-file names of any layer off its field tree (``dw0.weight``,
``fuse.bias``, ...).  Each backward returns its gradients as a tree of the
layer's own type, so the same walk names them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from functools import reduce
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import ops
from .errors import ShapeError
from .plan import DecompositionPlan
from .ops import Tensor4

if TYPE_CHECKING:  # pragma: no cover
    from .block import BlockState

__all__ = [
    "SelectionMode",
    "ConvParams",
    "LskModuleParams",
    "LayerOutput",
    "normalize_pooling",
    "constant",
    "init_conv",
    "init_lsk_params",
    "lsk_forward",
    "lsk_backward",
    "params_map",
    "params_astype",
    "parameter_arrays",
]

POOL_ORDER = ("avg", "max")
SELECT_KERNEL = 7  # the selection conv's side, as the released LSKblock's conv_squeeze


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
class ConvParams:
    """One conv: its weight and its bias (one value per output channel)."""

    weight: np.ndarray
    bias: np.ndarray


@dataclass
class LskModuleParams:
    """All learnable weights of one selection module, plus the pooling set its
    selection conv reads (``()`` unless the module selects spatially)."""

    plan: DecompositionPlan
    dw: list[ConvParams]  # per stage: weight (c_in, k, k)
    mix: list[ConvParams]  # per branch: weight (c_mid, c_in)
    select: ConvParams | None  # weight (n_kernels, len(pooling), SELECT_KERNEL, SELECT_KERNEL); spatial mode only
    pooling: tuple[str, ...]  # descriptor order of the selection conv's input
    fuse: ConvParams  # weight (c_in, c_mid)
    cs_squeeze: ConvParams | None = None  # weight (z, c_mid); channel mode only
    cs_expand: ConvParams | None = None  # weight (n_kernels, c_mid, z), bias (n_kernels, c_mid)

    @property
    def mode(self) -> SelectionMode:
        """Spatial with a selection conv, channel with the squeeze conv, else none."""
        if self.select is not None:
            return SelectionMode.SPATIAL
        if self.cs_squeeze is not None:
            return SelectionMode.CHANNEL
        return SelectionMode.NONE

    @property
    def c_in(self) -> int:
        return int(self.fuse.weight.shape[0])

    @property
    def c_mid(self) -> int:
        return int(self.fuse.weight.shape[1])

    @property
    def n_kernels(self) -> int:
        return self.plan.n_kernels

    def validate(self) -> None:
        n = self.n_kernels
        if self.fuse.weight.ndim != 2:
            raise ShapeError(f"fusion conv weight must be (c_in, c_mid), got shape {self.fuse.weight.shape}")
        if len(self.dw) != n:
            raise ShapeError(f"expected {n} depth-wise stages, got {len(self.dw)}")
        if len(self.mix) != n:
            raise ShapeError(f"expected {n} mixer branches, got {len(self.mix)}")
        for i, spec in enumerate(self.plan.stages):
            if self.dw[i].weight.shape != (self.c_in, spec.kernel, spec.kernel):
                raise ShapeError(
                    f"dw stage {i}: weight shape {self.dw[i].weight.shape} != "
                    f"{(self.c_in, spec.kernel, spec.kernel)}"
                )
            if self.mix[i].weight.shape != (self.c_mid, self.c_in):
                raise ShapeError(
                    f"mixer {i}: weight shape {self.mix[i].weight.shape} != "
                    f"{(self.c_mid, self.c_in)}"
                )
        if (self.cs_squeeze is None) != (self.cs_expand is None):
            raise ShapeError("channel selection needs both its squeeze and its expand conv")
        if self.select is not None:
            if self.select.weight.ndim != 4 or self.select.weight.shape[0] != n:
                raise ShapeError(
                    f"selection conv must map pooled descriptors to {n} maps, "
                    f"got weight shape {self.select.weight.shape}"
                )
            if self.cs_squeeze is not None:
                raise ShapeError("a module holds either a selection conv or channel selection, not both")
        n_desc = 0 if self.select is None else self.select.weight.shape[1]
        if n_desc != len(self.pooling):
            raise ShapeError(
                f"pooling set {self.pooling} does not match the selection conv "
                f"({n_desc} descriptor channels)"
            )


def constant(rng: np.random.Generator | None, shape: tuple[int, ...], value: float) -> np.ndarray:
    """A float32 array of ``shape`` filled with ``value``, drawing nothing;
    ``rng=None`` gives a read-only view whose strides are all 0."""
    if rng is None:  # a view of one read-only scalar (cheaper than np.broadcast_to)
        return np.ndarray(shape, np.float32, np.float32(value), strides=(0,) * len(shape))
    return np.full(shape, value, np.float32)


def fan_in_uniform(rng: np.random.Generator | None, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Zero-mean float32 uniform init, bound 1/sqrt(fan_in); ``rng=None`` gives a zero :func:`constant`."""
    if rng is None:
        return constant(None, shape, 0.0)
    bound = 1.0 / np.sqrt(float(max(fan_in, 1)))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def init_conv(rng: np.random.Generator | None, shape: tuple[int, ...], fan_in: int) -> ConvParams:
    """A conv with a :func:`fan_in_uniform` weight of ``shape`` and a zero bias
    of ``shape[0]`` values."""
    return ConvParams(fan_in_uniform(rng, shape, fan_in), constant(rng, shape[:1], 0.0))


def init_lsk_params(
    plan: DecompositionPlan,
    c_in: int,
    pooling: Sequence[str] = POOL_ORDER,
    mode: SelectionMode = SelectionMode.SPATIAL,
    rng: np.random.Generator | None = None,
) -> LskModuleParams:
    """Fresh module weights: half-width branches (at least 1 channel), a :data:`SELECT_KERNEL`-square selection conv.

    All biases start at zero; in particular the selection-conv bias is zero so
    every mask starts centred at 0.5.  The draw order is fixed, so a seeded
    generator reproduces the same weights bit for bit; ``rng=None`` gives the
    shape-only tree, whose arrays are read-only zero-stride views.
    """
    if c_in < 1:
        raise ShapeError(f"c_in must be >= 1, got {c_in}")
    cm = max(c_in // 2, 1)
    pooling = normalize_pooling(pooling)
    n = plan.n_kernels
    dw = [init_conv(rng, (c_in, s.kernel, s.kernel), s.kernel * s.kernel) for s in plan.stages]
    mix = [init_conv(rng, (cm, c_in), c_in) for _ in range(n)]
    # drawn in every mode, so one seed gives the same other arrays in all modes
    select = init_conv(rng, (n, len(pooling), SELECT_KERNEL, SELECT_KERNEL), len(pooling) * SELECT_KERNEL**2)
    fuse = init_conv(rng, (c_in, cm), cm)
    squeeze = expand = None
    if mode is SelectionMode.CHANNEL:
        z = max(cm // 4, 4)
        squeeze = init_conv(rng, (z, cm), cm)
        expand = ConvParams(fan_in_uniform(rng, (n, cm, z), z), constant(rng, (n, cm), 0.0))
    spatial = mode is SelectionMode.SPATIAL  # only spatial selection has the conv
    params = LskModuleParams(
        plan, dw, mix, select if spatial else None, pooling if spatial else (), fuse, squeeze, expand
    )
    params.validate()
    return params


@dataclass
class LskState:
    """Forward intermediates needed by lsk_backward."""

    params: LskModuleParams
    u: list[Tensor4]  # u[0] = the input, u[i] = output of stage i
    u_mixed: Tensor4  # the mixed branches, concatenated along the channels
    weighted: Tensor4
    fused: Tensor4
    weights: list[Tensor4] | None = None  # per branch; None: summed unweighted
    # spatial mode
    pooled: Tensor4 | None = None
    masks: Tensor4 | None = None
    # channel mode
    cs_sum: Tensor4 | None = None
    cs_pre: Tensor4 | None = None


@dataclass
class LayerOutput:
    """What a selection module's or a block's forward returns."""

    y: Tensor4
    masks: Tensor4 | None  # (n, n_kernels, h, w) in spatial mode, else None
    state: LskState | BlockState | None  # the backward's state, only when kept


def _softmax_branches(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def lsk_forward(x: Tensor4, params: LskModuleParams, keep_state: bool = True) -> LayerOutput:
    """Run the selection module in the mode its arrays give; returns output,
    masks and (optionally) the saved state for the backward pass.

    Masks are the per-branch sigmoid maps, stacked as (n, n_kernels, h, w);
    they are produced by the spatial mode only.
    """
    ops.check_tensor4(x, "lsk_forward")
    params.validate()
    if x.shape[1] != params.c_in:
        raise ShapeError(f"lsk_forward: input has {x.shape[1]} channels, module expects {params.c_in}")
    mode = params.mode
    n = params.n_kernels

    # every intermediate is freed after its last use unless ``keep`` stored
    # it as a state field
    kept: dict = {}
    keep = kept.update if keep_state else lambda **fields: None

    u = [x]
    for conv, spec in zip(params.dw, params.plan.stages):
        u.append(ops.depthwise_conv(u[-1], conv.weight, conv.bias, spec))
    keep(u=u[:])
    # each stage output u[i + 1] is dropped once mixer i has read it, and the
    # mixers' outputs once they are concatenated
    mixed = np.concatenate([ops.pointwise_conv(u.pop(1), conv.weight, conv.bias) for conv in params.mix], axis=1)
    keep(u_mixed=mixed)
    branches = np.split(mixed, n, axis=1)

    masks = weights = None
    if mode is SelectionMode.SPATIAL:
        h = ops.channel_pool(mixed, params.pooling)
        keep(pooled=h)
        masks = ops.sigmoid(ops.conv2d(h, params.select.weight, params.select.bias))
        keep(masks=masks)
        weights = np.split(masks, n, axis=1)
    elif mode is SelectionMode.CHANNEL:
        h = reduce(ops.add, np.split(ops.global_avg_pool(mixed), n, axis=1))
        keep(cs_sum=h)
        h = ops.pointwise_conv(h, params.cs_squeeze.weight, params.cs_squeeze.bias)
        keep(cs_pre=h)
        expand = params.cs_expand
        h = ops.pointwise_conv(ops.gelu(h), expand.weight.reshape(n * params.c_mid, -1), expand.bias.reshape(-1))
        a = _softmax_branches(h.reshape(len(h), n, -1, 1, 1))
        weights = [a[:, i] for i in range(n)]
    keep(weights=weights)
    weigh = (lambda i: branches[i]) if weights is None else (lambda i: ops.broadcast_mask_mul(branches[i], weights[i]))
    h = reduce(ops.add, map(weigh, range(n)))  # in branch order
    del mixed, branches

    keep(weighted=h)
    h = ops.pointwise_conv(h, params.fuse.weight, params.fuse.bias)
    keep(fused=h)
    y = ops.broadcast_mask_mul(x, h)
    return LayerOutput(y=y, masks=masks, state=LskState(params=params, **kept) if keep_state else None)


def lsk_backward(grad_y: Tensor4, state: LskState) -> tuple[Tensor4, LskModuleParams]:
    """Chain-rule pass through the whole module for a sum-reduction loss.

    Returns ``(grad_x, grads)``: ``grads`` is a copy of the module's
    :class:`LskModuleParams` holding each conv's gradient in its place, with
    the plan and the pooling set kept and the convs the mode lacks ``None``,
    so :func:`parameter_arrays` names the gradients as it names the weights.
    """
    params = state.params
    n = params.n_kernels
    if grad_y.shape != state.u[0].shape:
        raise ShapeError(f"lsk_backward: grad_y shape {grad_y.shape} != forward input {state.u[0].shape}")
    select = squeeze = expand = None  # the selection convs' gradients, in the modes that hold them

    # y = x * fused, with x = u[0]
    grad_x, grad_fused = ops.broadcast_mask_mul_backward(grad_y, state.u[0], state.fused)
    grad_weighted, *fuse = ops.pointwise_conv_backward(grad_fused, state.weighted, params.fuse.weight)

    branches = np.split(state.u_mixed, n, axis=1)
    if state.weights is None:  # the branches were summed unweighted
        grad_mixed = [grad_weighted] * n
    else:
        pairs = [ops.broadcast_mask_mul_backward(grad_weighted, m, w) for m, w in zip(branches, state.weights)]
        grad_mixed, grad_weights = zip(*pairs)
    if params.mode is SelectionMode.SPATIAL:
        grad_logits = ops.sigmoid_backward(np.concatenate(grad_weights, axis=1), state.masks)
        grad_pooled, w, b = ops.conv2d_backward(grad_logits, state.pooled, params.select.weight)
        select = ConvParams(w, b)
        grad_cat = ops.channel_pool_backward(grad_pooled, state.u_mixed, params.pooling)
        for g_m, g_part in zip(grad_mixed, np.split(grad_cat, n, axis=1)):
            g_m += g_part
    elif params.mode is SelectionMode.CHANNEL:
        a, grad_a = np.stack(state.weights, axis=1), np.stack(grad_weights, axis=1)  # (n_batch, n, c_mid, 1, 1)
        grad_logits = a * (grad_a - (grad_a * a).sum(axis=1, keepdims=True))  # softmax over the branches
        expand = params.cs_expand
        grad_hidden, grad_exp_w, grad_exp_b = ops.pointwise_conv_backward(
            grad_logits.reshape(len(a), -1, 1, 1), ops.gelu(state.cs_pre), expand.weight.reshape(n * params.c_mid, -1)
        )
        grad_pre = ops.gelu_backward(grad_hidden, state.cs_pre)
        grad_sum, w, b = ops.pointwise_conv_backward(grad_pre, state.cs_sum, params.cs_squeeze.weight)
        squeeze = ConvParams(w, b)
        expand = ConvParams(grad_exp_w.reshape(expand.weight.shape), grad_exp_b.reshape(expand.bias.shape))
        for g_m, m in zip(grad_mixed, branches):
            g_m += ops.global_avg_pool_backward(grad_sum, m)

    # mixers[i] is mixer i's (gradient on u[i + 1], weight, bias); then the depth-wise chain
    # in reverse, where stage i's input u[i] also feeds mixer i - 1 (or the gate for i = 0)
    mixers = [ops.pointwise_conv_backward(g, u, conv.weight) for g, u, conv in zip(grad_mixed, state.u[1:], params.mix)]
    grad = mixers[-1][0]
    dw = []
    for i in range(n - 1, -1, -1):
        grad, *conv = ops.depthwise_conv_backward(grad, state.u[i], params.dw[i].weight, params.plan.stages[i])
        dw.insert(0, ConvParams(*conv))
        grad += mixers[i - 1][0] if i else grad_x
    mix = [ConvParams(w, b) for _, w, b in mixers]
    return grad, replace(
        params, dw=dw, mix=mix, select=select, fuse=ConvParams(*fuse), cs_squeeze=squeeze, cs_expand=expand
    )


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


def prefixed(prefix: str, listing) -> list[tuple[str, np.ndarray]]:
    """``(name, array)`` pairs with ``prefix.`` put before every name."""
    return [(f"{prefix}.{name}", arr) for name, arr in listing]


def parameter_arrays(tree) -> list[tuple[str, np.ndarray]]:
    """``(name, array)`` of every array in a layer's field tree, in field order:
    the weight-file names below the layer's prefix.

    A field contributes its name, a list item appends its index to it
    (``dw0``) and a nested layer adds ``.`` and its own names
    (``dw0.weight``).  ``None`` and every other value (a plan, a pooling set,
    a stride) are skipped.
    """
    out: list[tuple[str, np.ndarray]] = []
    for f in fields(tree):
        value = getattr(tree, f.name)
        items = enumerate(value) if isinstance(value, list) else [("", value)]
        for suffix, item in items:
            name = f"{f.name}{suffix}"
            if isinstance(item, np.ndarray):
                out.append((name, item))
            elif is_dataclass(item):
                out += prefixed(name, parameter_arrays(item))
    return out


def params_astype(tree, dtype):
    """Copy of a parameter tree with every array cast to ``dtype`` (gradcheck
    runs the production code in float64 this way)."""
    return params_map(tree, lambda arr: arr.astype(dtype))
