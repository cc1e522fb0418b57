"""Central finite-difference verification of every backward pass.

Each named case builds a small float64 problem, computes analytic gradients
with the production backward code, and compares them against central
differences of the loss L(theta) = sum(forward(theta) * probe) with a fixed
random probe.  The relative error uses max(|analytic|, |numeric|, 1e-8) as
denominator and must stay below 1e-4.

The registry ``_CASES`` is a table with one row per op: its inputs in draw
order, each with shape and draw scale, its forward, and a backward adapter
returning the gradients in input order (``_op`` turns a row into a case).
``channel_pool_max`` keeps its own builder to resample until the per-pixel
winners are 1e-2 apart (:func:`_winners_apart`), so no difference straddles
an argmax switch, and
``affine_channel_norm`` to draw its fixed mean and var before the inputs.
The layer cases vary the input and every learnable array of the LSK module
(per selection mode) or the block, and resample likewise around a max-pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import ops
from .block import block_backward, block_forward, init_block_params
from .module import SelectionMode, init_lsk_params, lsk_backward, lsk_forward, parameter_arrays, params_astype
from .plan import validate_plan

__all__ = ["CheckResult", "available_checks", "run_check", "run_suite", "TOLERANCE", "FD_STEP"]

TOLERANCE = 1e-4
FD_STEP = 1e-4


@dataclass
class CheckResult:
    name: str
    max_rel_error: float
    passed: bool
    worst_input: str = ""
    worst_index: int = -1


@dataclass
class _Case:
    forward: Callable[[dict[str, np.ndarray]], np.ndarray]
    inputs: dict[str, np.ndarray]
    analytic: Callable[[dict[str, np.ndarray], np.ndarray], dict[str, np.ndarray]]


def _uniform(rng, shape, scale=1.0):
    return rng.uniform(-scale, scale, size=shape).astype(np.float64)


def numeric_gradients(
    forward: Callable[[dict[str, np.ndarray]], np.ndarray],
    inputs: dict[str, np.ndarray],
    probe: np.ndarray,
    keys: Sequence[str],
) -> dict[str, np.ndarray]:
    """Central differences, step ``FD_STEP``, of sum(forward(inputs) * probe)."""
    grads: dict[str, np.ndarray] = {}
    for key in keys:
        arr = inputs[key]
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + FD_STEP
            hi = float((forward(inputs) * probe).sum())
            flat[idx] = original - FD_STEP
            lo = float((forward(inputs) * probe).sum())
            flat[idx] = original
            gflat[idx] = (hi - lo) / (2.0 * FD_STEP)
        grads[key] = grad
    return grads


def _compare(analytic: dict, numeric: dict) -> tuple[float, str, int]:
    worst, worst_key, worst_idx = 0.0, "", -1
    for key, num in numeric.items():
        ana = analytic[key]
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), 1e-8)
        rel = np.abs(ana - num) / denom
        idx = int(np.argmax(rel))
        if rel.reshape(-1)[idx] > worst:
            worst = float(rel.reshape(-1)[idx])
            worst_key, worst_idx = key, idx
    return worst, worst_key, worst_idx


# ---------------------------------------------------------------------------
# case builders
# ---------------------------------------------------------------------------

def _op(inputs, forward, backward) -> Callable[[np.random.Generator], _Case]:
    """Builder of one op-table row: ``inputs`` lists ``(name, shape[, scale])``
    in draw order, ``forward(*arrays)`` runs the op and ``backward(probe,
    *arrays)`` returns the gradients in input order."""
    names = [name for name, *_ in inputs]

    def build(rng) -> _Case:
        return _Case(
            lambda v: forward(*(v[name] for name in names)),
            {name: _uniform(rng, *draw) for name, *draw in inputs},
            lambda v, probe: dict(zip(names, backward(probe, *(v[name] for name in names)))),
        )

    return build


def _winners_apart(x: np.ndarray, margin: float) -> bool:
    """Whether every per-pixel channel maximum of ``x`` beats its runner-up by
    more than ``margin``, so no FD step straddles an argmax switch."""
    top2 = np.sort(x, axis=1)[:, -2:]
    return float((top2[:, 1] - top2[:, 0]).min()) > margin


def _case_channel_pool_max(rng) -> _Case:
    draw = _op(
        [("x", (2, 5, 3, 3))],
        lambda x: ops.channel_pool(x, "max"),
        lambda g, x: (ops.channel_pool_backward(g, x, "max"),),
    )
    # resample until the winner-vs-runner-up margin dwarfs the FD step
    while True:
        case = draw(rng)
        if _winners_apart(case.inputs["x"], 1e-2):
            return case


def _case_affine_channel_norm(rng) -> _Case:
    mean = _uniform(rng, (4,))
    var = np.abs(_uniform(rng, (4,))) + 0.5
    return _op(
        [("x", (2, 4, 3, 3)), ("scale", (4,)), ("shift", (4,))],
        lambda x, scale, shift: ops.affine_channel_norm(x, scale, shift, mean, var),
        lambda g, x, scale, shift: ops.affine_channel_norm_backward(g, x, scale, mean, var),
    )(rng)


def _layer_case(rng, params, forward, backward, cat_of=None) -> _Case:
    """Case over the input and every learnable array of one layer.

    ``forward(x, params)`` returns an output with ``y`` and ``state``, and
    ``backward(grad_y, state)`` returns ``(grad_x, grads)`` with ``grads`` a
    tree of the layer's own type; the arrays :func:`parameter_arrays` finds
    in it are the learnables, named as in ``params`` and drawn after the
    input in listing order.  ``cat_of(state)`` is the input of a channel
    max-pool whose winners must stay well separated from the FD step.
    """
    arrays = dict(parameter_arrays(params))
    inputs: dict[str, np.ndarray] = {"x": _uniform(rng, (1, 4, 5, 5))}
    out = forward(inputs["x"], params)
    learnable = dict(parameter_arrays(backward(np.zeros_like(out.y), out.state)[1]))
    inputs |= {name: _uniform(rng, grad.shape, scale=0.5) for name, grad in learnable.items()}

    def load(v) -> None:
        for name in learnable:
            arrays[name][...] = v[name]

    def fwd(v):
        load(v)
        return forward(v["x"], params).y

    def analytic(v, probe):
        load(v)
        grad_x, grads = backward(probe, forward(v["x"], params).state)
        return {"x": grad_x, **dict(parameter_arrays(grads))}

    if cat_of is not None:
        for _ in range(64):
            load(inputs)
            if _winners_apart(cat_of(forward(inputs["x"], params).state), 5e-3):
                break
            inputs["x"] = _uniform(rng, (1, 4, 5, 5))
    return _Case(fwd, inputs, analytic)


def _module_case(rng, mode: SelectionMode) -> _Case:
    plan = validate_plan([(3, 1), (5, 2)])
    base = init_lsk_params(plan, c_in=4, mode=mode, rng=rng)
    cat_of = (lambda state: ops.concat_channels(state.u_mixed)) if mode is SelectionMode.SPATIAL else None
    return _layer_case(rng, params_astype(base, np.float64), lsk_forward, lsk_backward, cat_of)


def _block_case(rng) -> _Case:
    plan = validate_plan([(3, 1)])
    base = init_block_params(plan, c=4, ffn_ratio=2.0, rng=rng)
    return _layer_case(
        rng, params_astype(base, np.float64), block_forward, block_backward,
        lambda state: ops.concat_channels(state.lsk_state.u_mixed),
    )


# the rows look the ops up when they run, so a patched op is what gets checked
_CASES: dict[str, Callable[[np.random.Generator], _Case]] = {
    "depthwise_conv": _op(
        [("x", (2, 3, 5, 5)), ("w", (3, 3, 3)), ("b", (3,))],
        lambda x, w, b: ops.depthwise_conv(x, w, b, ops.ConvSpec(3, 2)),
        lambda g, x, w, b: ops.depthwise_conv_backward(g, x, w, ops.ConvSpec(3, 2)),
    ),
    "conv2d": _op(
        [("x", (2, 3, 6, 6)), ("w", (4, 3, 3, 3)), ("b", (4,))],
        lambda x, w, b: ops.conv2d(x, w, b, stride=2),
        lambda g, x, w, b: ops.conv2d_backward(g, x, w, stride=2),
    ),
    "pointwise_conv": _op(
        [("x", (2, 3, 4, 4)), ("w", (5, 3)), ("b", (5,))],
        lambda x, w, b: ops.pointwise_conv(x, w, b),
        lambda g, x, w, b: ops.pointwise_conv_backward(g, x, w),
    ),
    "channel_pool_avg": _op(
        [("x", (2, 5, 3, 3))],
        lambda x: ops.channel_pool(x, "avg"),
        lambda g, x: (ops.channel_pool_backward(g, x, "avg"),),
    ),
    "channel_pool_max": _case_channel_pool_max,
    "broadcast_mask_mul_full": _op(
        [("x", (2, 3, 4, 4)), ("m", (2, 3, 4, 4))],
        lambda x, m: ops.broadcast_mask_mul(x, m),
        lambda g, x, m: ops.broadcast_mask_mul_backward(g, x, m),
    ),
    "sigmoid": _op(
        [("x", (2, 3, 4, 4), 3.0)],
        lambda x: ops.sigmoid(x),
        lambda g, x: (ops.sigmoid_backward(g, ops.sigmoid(x)),),
    ),
    "gelu": _op(
        [("x", (2, 3, 4, 4), 3.0)], lambda x: ops.gelu(x), lambda g, x: (ops.gelu_backward(g, x),)
    ),
    "concat_channels": _op(
        [("a", (2, 2, 3, 3)), ("b", (2, 3, 3, 3)), ("c", (2, 1, 3, 3))],
        lambda a, b, c: ops.concat_channels([a, b, c]),
        lambda g, a, b, c: ops.concat_channels_backward(g, [2, 3, 1]),
    ),
    "broadcast_mask_mul": _op(
        [("x", (2, 4, 3, 3)), ("m", (2, 1, 3, 3))],
        lambda x, m: ops.broadcast_mask_mul(x, m),
        lambda g, x, m: ops.broadcast_mask_mul_backward(g, x, m),
    ),
    "broadcast_mask_mul_channel": _op(
        [("x", (2, 4, 3, 3)), ("m", (2, 4, 1, 1))],
        lambda x, m: ops.broadcast_mask_mul(x, m),
        lambda g, x, m: ops.broadcast_mask_mul_backward(g, x, m),
    ),
    "broadcast_mask_mul_scale": _op(
        [("x", (2, 4, 3, 3)), ("m", (1, 4, 1, 1))],
        lambda x, m: ops.broadcast_mask_mul(x, m),
        lambda g, x, m: ops.broadcast_mask_mul_backward(g, x, m),
    ),
    "affine_channel_norm": _case_affine_channel_norm,
    "batch_norm": _op(
        [("x", (2, 3, 4, 4)), ("scale", (3,)), ("shift", (3,))],
        lambda x, scale, shift: ops.batch_norm(x, scale, shift)[0],
        lambda g, x, scale, shift: ops.batch_norm_backward(g, x, scale, *ops.batch_norm(x, scale, shift)[1:]),
    ),
    "global_avg_pool": _op(
        [("x", (2, 4, 3, 3))],
        lambda x: ops.global_avg_pool(x),
        lambda g, x: (ops.global_avg_pool_backward(g, x),),
    ),
    "lsk_module_spatial": partial(_module_case, mode=SelectionMode.SPATIAL),
    "lsk_module_channel": partial(_module_case, mode=SelectionMode.CHANNEL),
    "lsk_module_none": partial(_module_case, mode=SelectionMode.NONE),
    "lsk_block": _block_case,
}


def available_checks() -> list[str]:
    return list(_CASES)


def run_check(name: str, seed: int = 0) -> CheckResult:
    """Run one named check; raises KeyError for unknown names."""
    builder = _CASES[name]
    rng = np.random.default_rng(seed)
    case = builder(rng)
    probe_shape = case.forward(case.inputs).shape
    probe = rng.uniform(-1.0, 1.0, size=probe_shape)
    analytic = case.analytic(case.inputs, probe)
    numeric = numeric_gradients(case.forward, case.inputs, probe, list(analytic.keys()))
    worst, key, idx = _compare(analytic, numeric)
    return CheckResult(
        name=name,
        max_rel_error=worst,
        passed=worst < TOLERANCE,
        worst_input=key,
        worst_index=idx,
    )


def run_suite(names: Sequence[str] | None = None, seed: int = 0) -> list[CheckResult]:
    """Run several checks; default is the full registry."""
    return [run_check(name, seed) for name in (names or available_checks())]
