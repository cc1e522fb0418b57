"""Closed-form parameter / FLOP / MAC accounting.

Counting rules (also embedded in every report's ``conventions`` field):

* ``params`` counts every learnable value: conv weights, biases, norm scale
  and shift, residual scales.  Norm running statistics are buffers, not
  parameters.
* ``flops`` treats one multiply-accumulate as 2 flops.  A conv component
  contributes ``2 * out_h * out_w * params`` where params includes its bias
  when biases are counted, so the flops/params ratio of any conv component is
  exactly ``2 * h * w`` at its operating resolution.  Dilation never changes
  cost.
* ``macs`` is the fused multiply-add count over conv weights only (biases,
  norms and activations excluded).  This is the figure comparable to the
  common model-complexity tools and to published backbone tables.
* Normalizations and activations (gelu / sigmoid / softmax) cost 2
  flops/element; plain element-wise add/mul (residuals, gating, mask
  weighting, pooling reductions) cost 1 flop/element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .errors import ShapeError

if TYPE_CHECKING:  # pragma: no cover
    from .backbone import BackboneConfig
    from .ops import ConvSpec
    from .plan import DecompositionPlan

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
    "cost_plan",
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
    conventions: tuple[str, ...] = CONVENTIONS

    def __post_init__(self):
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


def _conv_cost(weights: int, biases: int, out_hw: int, include_bias: bool) -> CostReport:
    params = weights + (biases if include_bias else 0)
    return CostReport(params=params, flops=2 * out_hw * params, macs=out_hw * weights)


def cost_depthwise(c: int, spec: "ConvSpec", h: int, w: int, include_bias: bool = True) -> CostReport:
    """Depth-wise conv: c * k^2 weights (+c bias); dilation is free."""
    return _conv_cost(c * spec.kernel * spec.kernel, c, h * w, include_bias)


def cost_pointwise(c_in: int, c_out: int, h: int, w: int, include_bias: bool = True) -> CostReport:
    return _conv_cost(c_out * c_in, c_out, h * w, include_bias)


def cost_conv2d(
    c_in: int, c_out: int, k: int, out_h: int, out_w: int, include_bias: bool = True
) -> CostReport:
    """Dense conv evaluated at its *output* resolution (covers strided layers)."""
    return _conv_cost(c_out * c_in * k * k, c_out, out_h * out_w, include_bias)


def cost_norm(c: int, h: int, w: int) -> CostReport:
    return CostReport(params=2 * c, flops=2 * c * h * w)


def cost_activation(c: int, h: int, w: int) -> CostReport:
    return CostReport(params=0, flops=2 * c * h * w)


def cost_elementwise(c: int, h: int, w: int, n_ops: int = 1) -> CostReport:
    return CostReport(params=0, flops=n_ops * c * h * w)


def cost_plan(
    plan: "DecompositionPlan",
    c: int,
    c_mid: int,
    h: int,
    w: int,
    q: int = 7,
    n_pools: int = 2,
    include_bias: bool = True,
    include_select: bool = True,
) -> CostReport:
    """Conv cost of the selection module a plan drives: the depth-wise stages
    plus per-branch 1x1 mixers, the pooled-descriptor selection conv, and the
    fusion conv.  With c_mid = 0 the mixer/selection/fusion contributions are
    all zero."""
    n = plan.n_kernels
    parts: list[tuple[str, CostReport]] = []
    for i, spec in enumerate(plan.stages):
        from .ops import ConvSpec  # local import: avoid cycle at module load

        parts.append((f"dw{i}", cost_depthwise(c, ConvSpec(spec.k, spec.d), h, w, include_bias)))
    if c_mid > 0:
        for i in range(n):
            parts.append((f"mix{i}", cost_pointwise(c, c_mid, h, w, include_bias)))
        if include_select:
            parts.append(("select", cost_conv2d(n_pools, n, q, h, w, include_bias)))
        parts.append(("fuse", cost_pointwise(c_mid, c, h, w, include_bias)))
    return combine(parts)


def cost_lsk_module(
    plan: "DecompositionPlan",
    c: int,
    c_mid: int,
    h: int,
    w: int,
    q: int = 7,
    n_pools: int = 2,
    selection_mode: str = "spatial",
) -> CostReport:
    """Full module cost: the convs of cost_plan plus pooling, mask activation,
    branch weighting and the final input gating."""
    n = plan.n_kernels
    parts: list[tuple[str, CostReport]] = [("convs", cost_plan(plan, c, c_mid, h, w, q, n_pools))]
    if selection_mode == "spatial":
        parts.append(("pool", cost_elementwise(n * c_mid, h, w, n_ops=n_pools)))
        parts.append(("mask_sigmoid", cost_activation(n, h, w)))
        parts.append(("weighting", cost_elementwise(n * c_mid, h, w, n_ops=2)))
    elif selection_mode == "channel":
        z = max(c_mid // 4, 4) if c_mid > 0 else 0
        # the spatial select conv is replaced by the squeeze/expand pair
        parts = [("convs", cost_plan(plan, c, c_mid, h, w, include_select=False))]
        parts.append(("cs_squeeze", CostReport(params=z * c_mid + z, flops=2 * (z * c_mid + z))))
        parts.append(
            ("cs_expand", CostReport(params=n * c_mid * z + n * c_mid, flops=2 * (n * c_mid * z + n * c_mid)))
        )
        parts.append(("cs_pool", cost_elementwise(n * c_mid, h, w)))
        parts.append(("cs_softmax", CostReport(params=0, flops=2 * n * c_mid)))
        parts.append(("weighting", cost_elementwise(n * c_mid, h, w, n_ops=2)))
    elif selection_mode == "none":
        parts = [("convs", cost_plan(plan, c, c_mid, h, w, include_select=False))]
        parts.append(("sum", cost_elementwise(c_mid, h, w, n_ops=n - 1 if n > 1 else 0)))
    else:
        raise ShapeError(f"cost_lsk_module: unknown selection mode {selection_mode!r}")
    parts.append(("gate", cost_elementwise(c, h, w)))
    return combine(parts)


def cost_block(
    plan: "DecompositionPlan",
    c: int,
    ffn_ratio: float,
    h: int,
    w: int,
    q: int = 7,
    n_pools: int = 2,
    selection_mode: str = "spatial",
    c_mid: int | None = None,
) -> CostReport:
    """One backbone block: LK-selection sub-block plus FFN sub-block."""
    # the widths init_block_params gives the arrays, at least 1 each
    cm = max(c // 2, 1) if c_mid is None else c_mid
    hidden = max(round(ffn_ratio * c), 1)
    selection = combine(
        [
            ("norm1", cost_norm(c, h, w)),
            ("pre", cost_pointwise(c, c, h, w)),
            ("gelu", cost_activation(c, h, w)),
            ("lsk", cost_lsk_module(plan, c, cm, h, w, q, n_pools, selection_mode)),
            ("post", cost_pointwise(c, c, h, w)),
            ("scale", CostReport(params=c, flops=c * h * w)),
            ("residual", cost_elementwise(c, h, w)),
        ]
    )
    ffn = combine(
        [
            ("norm2", cost_norm(c, h, w)),
            ("fc1", cost_pointwise(c, hidden, h, w)),
            ("dw", cost_depthwise(hidden, _spec3(), h, w)),
            ("gelu", cost_activation(hidden, h, w)),
            ("fc2", cost_pointwise(hidden, c, h, w)),
            ("scale", CostReport(params=c, flops=c * h * w)),
            ("residual", cost_elementwise(c, h, w)),
        ]
    )
    return combine([("lk_selection", selection), ("ffn", ffn)])


def _spec3():
    from .ops import ConvSpec

    return ConvSpec(3, 1)


def cost_backbone(config: "BackboneConfig", h: int, w: int) -> CostReport:
    """Whole-backbone cost at input resolution (h, w).

    The stem and the between-stage downsamplers are plain dense convolutions
    (the only non-depth-wise convs in the network) and show up as their own
    breakdown entries so their contribution to the totals is auditable.
    """
    if h < 32 or w < 32:
        raise ShapeError(f"cost_backbone: input {h}x{w} below the 32x spatial ladder")

    def out_hw(size: int, k: int, s: int, p: int) -> int:
        return (size + 2 * p - k) // s + 1

    parts: list[tuple[str, CostReport]] = []
    ch, cw = out_hw(h, 7, 4, 3), out_hw(w, 7, 4, 3)
    parts.append(
        (
            "stem",
            combine(
                [
                    ("conv", cost_conv2d(3, config.channels[0], 7, ch, cw)),
                    ("norm", cost_norm(config.channels[0], ch, cw)),
                ]
            ),
        )
    )
    for i in range(4):
        c = config.channels[i]
        blocks = [
            (
                f"block{j}",
                cost_block(
                    config.plan,
                    c,
                    config.ffn_ratios[i],
                    ch,
                    cw,
                    q=config.select_kernel,
                    n_pools=len(config.pooling),
                    selection_mode=config.selection_mode.value,
                    c_mid=config.branch_width(c),
                ),
            )
            for j in range(config.depths[i])
        ]
        parts.append((f"stage{i + 1}", combine(blocks)))
        if i < 3:
            nh, nw = out_hw(ch, 3, 2, 1), out_hw(cw, 3, 2, 1)
            parts.append(
                (
                    f"down{i + 1}",
                    combine(
                        [
                            ("conv", cost_conv2d(c, config.channels[i + 1], 3, nh, nw)),
                            ("norm", cost_norm(config.channels[i + 1], nh, nw)),
                        ]
                    ),
                )
            )
            ch, cw = nh, nw
    return combine(parts)


def report_to_text(report: CostReport, name: str = "total", indent: int = 0, max_depth: int = 8) -> str:
    """Indented human-readable rendering of a report tree."""
    pad = "  " * indent
    lines = [f"{pad}{name}: params={report.params:,} macs={report.macs:,} flops={report.flops:,}"]
    if indent < max_depth:
        for child_name, child in report.breakdown:
            lines.append(report_to_text(child, child_name, indent + 1, max_depth))
    if indent == 0:
        lines.append(f"{pad}conventions:")
        for conv in report.conventions:
            lines.append(f"{pad}  - {conv}")
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
