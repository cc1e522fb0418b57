"""Kernel-decomposition calculus for sequences of dilated depth-wise convs.

A plan is a sequence of (kernel size, dilation) stages applied back to back,
each held as the :class:`~lsknet.ops.ConvSpec` its depth-wise conv runs with.
The construction rules guarantee that the composed receptive field grows
quickly while no dilated kernel skips over pixels the previous stage has not
already covered:

    k[i] odd, k[i] >= 3,  k[i-1] <= k[i]
    d[1] = 1,  d[i-1] < d[i] <= RF[i-1]

and the cumulative receptive field obeys

    RF[1] = k[1],  RF[i] = d[i] * (k[i] - 1) + RF[i-1].
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import PlanError
from .ops import ConvSpec

__all__ = ["DecompositionPlan", "validate_plan", "enumerate_plans"]


@dataclass(frozen=True)
class DecompositionPlan:
    """A validated stage sequence plus its cumulative receptive fields."""

    stages: tuple[ConvSpec, ...]
    rf_per_stage: tuple[int, ...]

    @property
    def n_kernels(self) -> int:
        return len(self.stages)

    @property
    def rf(self) -> int:
        """Receptive field of the full sequence."""
        return self.rf_per_stage[-1]

    def sequence(self) -> tuple[tuple[int, int], ...]:
        return tuple((s.kernel, s.dilation) for s in self.stages)

    def __str__(self) -> str:
        return " -> ".join(f"({k},{d})" for k, d in self.sequence())


def _as_spec(i: int, stage: ConvSpec | tuple[int, int]) -> ConvSpec:
    """Stage ``i`` (from 1) of a plan: a ConvSpec or a (k, d) pair of an odd
    integer kernel size k >= 3 and an integer dilation d >= 1 (a bool is no
    integer here)."""
    if isinstance(stage, ConvSpec):
        k, d = stage.kernel, stage.dilation
    else:
        try:
            k, d = stage
        except (TypeError, ValueError):
            raise PlanError(f"stage {i} must be a (k, d) pair or a ConvSpec, got {stage!r}") from None
    for what, name, value in (("kernel size", "k", k), ("dilation", "d", d)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise PlanError(f"{what} must be an integer, got {name}={value!r}")
    if k < 3 or k % 2 == 0:
        raise PlanError(f"kernel size must be an odd integer >= 3, got k={k}")
    if d < 1:
        raise PlanError(f"dilation must be an integer >= 1, got d={d}")
    return ConvSpec(k, d)


def validate_plan(stages: Sequence[ConvSpec | tuple[int, int]]) -> DecompositionPlan:
    """Check the construction constraints and fill in receptive fields.

    Raises :class:`PlanError` naming the first violated inequality, the
    first stage that is not a (k, d) pair, or a plan that is not a sequence.
    """
    if not isinstance(stages, Iterable):
        raise PlanError(f"a decomposition plan must be a sequence of stages, got {stages!r}")
    specs = [_as_spec(i, s) for i, s in enumerate(stages, start=1)]
    if not specs:
        raise PlanError("a decomposition plan needs at least one stage")
    if specs[0].dilation != 1:
        raise PlanError(f"d_1 must be 1, got d_1={specs[0].dilation}")
    rf = [specs[0].kernel]
    for i in range(1, len(specs)):
        prev, cur = specs[i - 1], specs[i]
        if cur.kernel < prev.kernel:
            raise PlanError(
                f"kernel sizes must be non-decreasing: k_{i + 1}={cur.kernel} < k_{i}={prev.kernel}"
            )
        if cur.dilation <= prev.dilation:
            raise PlanError(
                f"dilations must be strictly increasing: d_{i + 1}={cur.dilation} <= d_{i}={prev.dilation}"
            )
        if cur.dilation > rf[-1]:
            raise PlanError(
                f"d_{i + 1}={cur.dilation} > RF_{i}={rf[-1]}: dilation would skip uncovered pixels"
            )
        rf.append(cur.dilation * (cur.kernel - 1) + rf[-1])
    return DecompositionPlan(stages=tuple(specs), rf_per_stage=tuple(rf))


def _extend(
    seq: list[ConvSpec], rf: int, target: int, max_stages: int, max_k: int
) -> Iterator[tuple[ConvSpec, ...]]:
    if rf == target:
        yield tuple(seq)
        # a longer sequence cannot keep RF constant, so stop here
        return
    if len(seq) == max_stages:
        return
    for k in range(seq[-1].kernel, max_k + 1, 2):
        for d in range(seq[-1].dilation + 1, rf + 1):
            gain = d * (k - 1)
            if rf + gain > target:
                break
            seq.append(ConvSpec(k, d))
            yield from _extend(seq, rf + gain, target, max_stages, max_k)
            seq.pop()


def enumerate_plans(target_rf: int, max_stages: int, max_k: int) -> list[DecompositionPlan]:
    """All valid plans whose final receptive field is exactly ``target_rf``.

    Results are sorted by the parameter cost of the full selection module the
    plan would drive (the cost walk over ``init_lsk_params(plan, 64)``),
    with ties broken lexicographically by the (k, d) sequence.  An infeasible
    target yields an empty list, not an error.
    """
    if target_rf < 1:
        raise PlanError(f"target receptive field must be >= 1, got {target_rf}")
    if max_stages < 1 or max_k < 3:
        return []
    from .cost import cost_lsk_module  # deferred: cost and module import this module
    from .module import init_lsk_params

    found: list[tuple[int, tuple[tuple[int, int], ...], DecompositionPlan]] = []
    for k in range(3, max_k + 1, 2):
        if k > target_rf:
            break
        for seq in _extend([ConvSpec(k, 1)], k, target_rf, max_stages, max_k):
            plan = validate_plan(seq)
            params = dict(cost_lsk_module(init_lsk_params(plan, 64), 1, 1).breakdown)["convs"].params
            found.append((params, plan.sequence(), plan))
    found.sort(key=lambda t: (t[0], t[1]))
    return [plan for _, _, plan in found]
