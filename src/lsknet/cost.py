"""Parameter / FLOP / MAC accounting read off the layer tree.

:func:`cost_lsk_module`, :func:`cost_block` and :func:`cost_backbone` walk
the shapes of a parameter tree (``LskModuleParams``, ``BlockParams``,
``BackboneParams``), such as the shape-only tree ``init_*`` build with no
generator or seed: every width, kernel size and selection mode is read off
the arrays a layer holds, so ``params`` equals the learnable array sizes by
construction.  :func:`cost_backbone` walks the config's own ``shape_tree``
stage by stage: the embedding at ceil(side / stride), then the blocks there.
The plan search ranks a plan by the ``convs`` node of the walk over
``init_lsk_params(plan, 64)``.

Counting rules (also read from every report's ``conventions`` property):

* ``params`` counts every learnable value: conv weights, biases, norm scale
  and shift, residual scales.  Norm running statistics are buffers, not
  parameters.
* ``flops`` treats one multiply-accumulate as 2 flops.  A conv component
  contributes ``2 * out_h * out_w * params`` where params includes its bias,
  so the flops/params ratio of any conv component is exactly ``2 * h * w`` at
  its operating resolution.  Dilation never changes
  cost.
* ``macs`` is the fused multiply-add count over conv weights only (biases,
  norms and activations excluded).  This is the figure comparable to the
  common model-complexity tools and to published backbone tables.  Channel
  selection's squeeze and expand convs run on the pooled 1x1 descriptor and
  count at 1x1.
* Normalizations and activations (gelu / sigmoid / softmax) cost 2
  flops/element; plain element-wise add/mul (residuals, gating, mask
  weighting, pooling reductions) cost 1 flop/element.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .backbone import BackboneConfig, ConvNormParams, EMBED_NAMES, check_input_size
from .block import BlockParams, NormParams
from .errors import ShapeError
from .module import ConvParams, LskModuleParams, SelectionMode
from .ops import ConvSpec, conv_out_size

__all__ = [
    "CONVENTIONS",
    "CostReport",
    "combine",
    "cost_depthwise",
    "cost_pointwise",
    "cost_conv2d",
    "cost_norm",
    "cost_activation",
    "cost_elementwise",
    "cost_lsk_module",
    "cost_block",
    "cost_backbone",
    "report_to_text",
    "report_to_kv",
]

CONVENTIONS: tuple[str, ...] = (
    "params = all learnables (conv weights, biases, norm scale/shift, residual scales); norm statistics buffers excluded",
    "flops: 1 multiply-accumulate = 2 flops; conv flops = 2*out_h*out_w*params_of_component (bias included when counted)",
    "macs = out_h*out_w*conv_weights only (no bias/norm/activation); comparable to common complexity tools",
    "norms and activations (gelu/sigmoid/softmax) = 2 flops/element; elementwise add/mul/pool = 1 flop/element",
    "dilation does not change cost",
)


@dataclass(frozen=True)
class CostReport:
    """Exact integer cost of a component, with a per-sub-component breakdown.

    The breakdown always sums to the totals: parents are built by
    :func:`combine`, never by hand.
    """

    params: int
    flops: int
    macs: int = 0
    breakdown: tuple[tuple[str, "CostReport"], ...] = ()

    @property
    def conventions(self) -> tuple[str, ...]:
        """The counting rules every report follows: :data:`CONVENTIONS`."""
        return CONVENTIONS

    def __post_init__(self):
        for name in ("params", "flops", "macs"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ShapeError(f"CostReport: {name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a numpy integer is stored as an int
        if self.params < 0 or self.flops < 0 or self.macs < 0:
            raise ShapeError("CostReport: negative counts are invalid")

    def validate(self) -> None:
        """Recursively re-check that breakdowns sum to totals."""
        if not self.breakdown:
            return
        totals = (
            sum(r.params for _, r in self.breakdown),
            sum(r.flops for _, r in self.breakdown),
            sum(r.macs for _, r in self.breakdown),
        )
        if totals != (self.params, self.flops, self.macs):
            raise ShapeError(f"CostReport: breakdown {totals} does not sum to totals")
        for _, r in self.breakdown:
            r.validate()


def combine(children: Iterable[tuple[str, CostReport]]) -> CostReport:
    """Sum child reports into one parent report."""
    kids = tuple(children)
    return CostReport(
        params=sum(r.params for _, r in kids),
        flops=sum(r.flops for _, r in kids),
        macs=sum(r.macs for _, r in kids),
        breakdown=kids,
    )


def _conv_cost(weights: int, biases: int, out_hw: int) -> CostReport:
    params = weights + biases
    return CostReport(params=params, flops=2 * out_hw * params, macs=out_hw * weights)


def _conv_leaf(conv: ConvParams, out_hw: int) -> CostReport:
    """A conv read off its arrays, evaluated at ``out_hw`` output pixels."""
    return _conv_cost(conv.weight.size, conv.bias.size, out_hw)


def cost_depthwise(c: int, spec: ConvSpec, h: int, w: int) -> CostReport:
    """Depth-wise conv: c * k^2 weights plus c biases; dilation is free."""
    return _conv_cost(c * spec.kernel * spec.kernel, c, h * w)


def cost_pointwise(c_in: int, c_out: int, h: int, w: int) -> CostReport:
    return _conv_cost(c_out * c_in, c_out, h * w)


def cost_conv2d(c_in: int, c_out: int, k: int, out_h: int, out_w: int) -> CostReport:
    """Dense conv evaluated at its *output* resolution (covers strided layers)."""
    return _conv_cost(c_out * c_in * k * k, c_out, out_h * out_w)


def cost_norm(norm: NormParams, h: int, w: int) -> CostReport:
    """A per-channel affine norm: its scale and shift are the parameters."""
    return CostReport(params=norm.scale.size + norm.shift.size, flops=2 * norm.scale.size * h * w)


def _cost_scale(scale: np.ndarray, h: int, w: int) -> CostReport:
    """A per-channel residual scale."""
    return CostReport(params=scale.size, flops=scale.size * h * w)


def cost_activation(c: int, h: int, w: int) -> CostReport:
    return CostReport(params=0, flops=2 * c * h * w)


def cost_elementwise(c: int, h: int, w: int, n_ops: int = 1) -> CostReport:
    return CostReport(params=0, flops=n_ops * c * h * w)


def cost_lsk_module(params: LskModuleParams, h: int, w: int) -> CostReport:
    """Full module cost: its convs, then the pooling, mask activation and
    branch weighting of the selection mode whose arrays it holds, and the
    final input gating."""
    hw = h * w
    n = params.n_kernels
    c, c_mid = params.c_in, params.c_mid
    convs = [(f"dw{i}", _conv_leaf(conv, hw)) for i, conv in enumerate(params.dw)]
    convs += [(f"mix{i}", _conv_leaf(conv, hw)) for i, conv in enumerate(params.mix)]
    if params.mode is SelectionMode.SPATIAL:
        convs.append(("select", _conv_leaf(params.select, hw)))
    convs.append(("fuse", _conv_leaf(params.fuse, hw)))
    parts = [("convs", combine(convs))]
    if params.mode is SelectionMode.SPATIAL:
        parts.append(("pool", cost_elementwise(n * c_mid, h, w, n_ops=len(params.pooling))))
        parts.append(("mask_sigmoid", cost_activation(n, h, w)))
    elif params.mode is SelectionMode.CHANNEL:
        parts.append(("cs_squeeze", _conv_leaf(params.cs_squeeze, 1)))
        parts.append(("cs_expand", _conv_leaf(params.cs_expand, 1)))
        parts.append(("cs_pool", cost_elementwise(n * c_mid, h, w)))
        parts.append(("cs_softmax", CostReport(params=0, flops=2 * n * c_mid)))
    else:
        parts.append(("sum", cost_elementwise(c_mid, h, w, n_ops=n - 1)))
    if params.mode is not SelectionMode.NONE:  # a product and an add per branch
        parts.append(("weighting", cost_elementwise(n * c_mid, h, w, n_ops=2)))
    parts.append(("gate", cost_elementwise(c, h, w)))
    return combine(parts)


def cost_block(params: BlockParams, h: int, w: int) -> CostReport:
    """One backbone block: LK-selection sub-block plus FFN sub-block."""
    hw = h * w
    c, hidden = params.scale1.size, params.ffn.fc1.weight.shape[0]
    selection = combine(
        [
            ("norm1", cost_norm(params.norm1, h, w)),
            ("pre", _conv_leaf(params.pre, hw)),
            ("gelu", cost_activation(c, h, w)),
            ("lsk", cost_lsk_module(params.lsk, h, w)),
            ("post", _conv_leaf(params.post, hw)),
            ("scale", _cost_scale(params.scale1, h, w)),
            ("residual", cost_elementwise(c, h, w)),
        ]
    )
    ffn = combine(
        [
            ("norm2", cost_norm(params.norm2, h, w)),
            ("fc1", _conv_leaf(params.ffn.fc1, hw)),
            ("dw", _conv_leaf(params.ffn.dw, hw)),
            ("gelu", cost_activation(hidden, h, w)),
            ("fc2", _conv_leaf(params.ffn.fc2, hw)),
            ("scale", _cost_scale(params.scale2, h, w)),
            ("residual", cost_elementwise(c, h, w)),
        ]
    )
    return combine([("lk_selection", selection), ("ffn", ffn)])


def _cost_conv_norm(p: ConvNormParams, h: int, w: int) -> tuple[CostReport, int, int]:
    """A stage's embedding at its conv's output resolution, plus that
    resolution."""
    oh, ow = conv_out_size(h, p.stride), conv_out_size(w, p.stride)
    report = combine([("conv", _conv_leaf(p.conv, oh * ow)), ("norm", cost_norm(p.norm, oh, ow))])
    return report, oh, ow


def cost_backbone(config: BackboneConfig, h: int, w: int) -> CostReport:
    """Whole-backbone cost at input resolution (h, w), read off
    ``config.shape_tree``, the shape-only tree the config built once.

    Each stage's embedding (the stem or a downsampler: a dense conv, then a
    norm) shows up as its own breakdown entry before the stage's blocks, so
    its contribution to the totals is auditable.
    """
    check_input_size(h, w, "cost_backbone")
    parts = []
    for i, stage in enumerate(config.shape_tree.stages):
        embed, h, w = _cost_conv_norm(stage.embed, h, w)
        blocks = combine((f"block{j}", cost_block(bp, h, w)) for j, bp in enumerate(stage.blocks))
        parts += [(EMBED_NAMES[i], embed), (f"stage{i + 1}", blocks)]
    return combine(parts)


def report_to_text(report: CostReport, name: str = "total") -> str:
    """Indented human-readable rendering of a report two levels deep (its
    parts and theirs, as ``lsk count`` prints), then the counting conventions."""
    rows = [(0, name, report)]
    for child_name, child in report.breakdown:
        rows += [(1, child_name, child)] + [(2, part, rep) for part, rep in child.breakdown]
    lines = [
        f"{'  ' * depth}{label}: params={rep.params:,} macs={rep.macs:,} flops={rep.flops:,}"
        for depth, label, rep in rows
    ]
    lines.append("conventions:")
    lines += [f"  - {conv}" for conv in report.conventions]
    return "\n".join(lines)


def report_to_kv(report: CostReport, name: str = "total") -> str:
    """Machine-readable rendering: one line per component, stable key order."""
    lines: list[str] = []

    def emit(rep: CostReport, path: str) -> None:
        lines.append(f"component={path} params={rep.params} macs={rep.macs} flops={rep.flops}")
        for child_name, child in rep.breakdown:
            emit(child, f"{path}.{child_name}")

    emit(report, name)
    for conv in report.conventions:
        lines.append(f"convention={conv}")
    return "\n".join(lines)
