"""Central finite-difference verification of every backward pass.

Each named case builds a small float64 problem, computes analytic gradients
with the production backward code, and compares them against central
differences of the loss L(theta) = sum(forward(theta) * probe) with a fixed
random probe.  The relative error uses max(|analytic|, |numeric|, 1e-8) as
denominator and must stay below 1e-4.

Cases that contain a channel max-pool resample their inputs until the
per-pixel winner margin is comfortably larger than the difference step, so
the finite differences never straddle an argmax switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import ops
from .block import block_backward, block_forward, init_block_params
from .module import (
    SelectionMode,
    init_lsk_params,
    lsk_backward,
    lsk_forward,
    params_astype,
)
from .ops import ConvSpec
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
    step: float = FD_STEP,
) -> dict[str, np.ndarray]:
    """Central finite differences of sum(forward(inputs) * probe)."""
    grads: dict[str, np.ndarray] = {}
    for key in keys:
        arr = inputs[key]
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            hi = float((forward(inputs) * probe).sum())
            flat[idx] = original - step
            lo = float((forward(inputs) * probe).sum())
            flat[idx] = original
            gflat[idx] = (hi - lo) / (2.0 * step)
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

def _case_depthwise(rng) -> _Case:
    spec = ConvSpec(3, 2)
    inputs = {
        "x": _uniform(rng, (2, 3, 5, 5)),
        "w": _uniform(rng, (3, 3, 3)),
        "b": _uniform(rng, (3,)),
    }
    fwd = lambda v: ops.depthwise_conv(v["x"], v["w"], v["b"], spec)

    def analytic(v, probe):
        gx, gw, gb = ops.depthwise_conv_backward(probe, v["x"], v["w"], spec)
        return {"x": gx, "w": gw, "b": gb}

    return _Case(fwd, inputs, analytic)


def _case_conv2d(rng) -> _Case:
    inputs = {
        "x": _uniform(rng, (2, 3, 6, 6)),
        "w": _uniform(rng, (4, 3, 3, 3)),
        "b": _uniform(rng, (4,)),
    }
    fwd = lambda v: ops.conv2d(v["x"], v["w"], v["b"], stride=2, padding=1)

    def analytic(v, probe):
        gx, gw, gb = ops.conv2d_backward(probe, v["x"], v["w"], stride=2, padding=1)
        return {"x": gx, "w": gw, "b": gb}

    return _Case(fwd, inputs, analytic)


def _case_pointwise(rng) -> _Case:
    inputs = {
        "x": _uniform(rng, (2, 3, 4, 4)),
        "w": _uniform(rng, (5, 3)),
        "b": _uniform(rng, (5,)),
    }
    fwd = lambda v: ops.pointwise_conv(v["x"], v["w"], v["b"])

    def analytic(v, probe):
        gx, gw, gb = ops.pointwise_conv_backward(probe, v["x"], v["w"])
        return {"x": gx, "w": gw, "b": gb}

    return _Case(fwd, inputs, analytic)


def _case_pool_avg(rng) -> _Case:
    inputs = {"x": _uniform(rng, (2, 5, 3, 3))}
    fwd = lambda v: ops.channel_pool(v["x"], "avg")
    analytic = lambda v, probe: {"x": ops.channel_pool_backward(probe, v["x"], "avg")}
    return _Case(fwd, inputs, analytic)


def _case_pool_max(rng) -> _Case:
    # resample until the winner-vs-runner-up margin dwarfs the FD step
    while True:
        x = _uniform(rng, (2, 5, 3, 3))
        top2 = np.sort(x, axis=1)[:, -2:]
        if float((top2[:, 1] - top2[:, 0]).min()) > 1e-2:
            break
    inputs = {"x": x}
    fwd = lambda v: ops.channel_pool(v["x"], "max")
    analytic = lambda v, probe: {"x": ops.channel_pool_backward(probe, v["x"], "max")}
    return _Case(fwd, inputs, analytic)


def _case_elementwise(op: str):
    def build(rng) -> _Case:
        inputs = {"a": _uniform(rng, (2, 3, 4, 4)), "b": _uniform(rng, (2, 3, 4, 4))}
        fwd = lambda v: ops.elementwise(v["a"], v["b"], op)

        def analytic(v, probe):
            ga, gb = ops.elementwise_backward(probe, v["a"], v["b"], op)
            return {"a": ga, "b": gb}

        return _Case(fwd, inputs, analytic)

    return build


def _case_sigmoid(rng) -> _Case:
    inputs = {"x": _uniform(rng, (2, 3, 4, 4), scale=3.0)}
    fwd = lambda v: ops.sigmoid(v["x"])
    analytic = lambda v, probe: {"x": ops.sigmoid_backward(probe, ops.sigmoid(v["x"]))}
    return _Case(fwd, inputs, analytic)


def _case_gelu(rng) -> _Case:
    inputs = {"x": _uniform(rng, (2, 3, 4, 4), scale=3.0)}
    fwd = lambda v: ops.gelu(v["x"])
    analytic = lambda v, probe: {"x": ops.gelu_backward(probe, v["x"])}
    return _Case(fwd, inputs, analytic)


def _case_concat(rng) -> _Case:
    inputs = {
        "a": _uniform(rng, (2, 2, 3, 3)),
        "b": _uniform(rng, (2, 3, 3, 3)),
        "c": _uniform(rng, (2, 1, 3, 3)),
    }
    fwd = lambda v: ops.concat_channels([v["a"], v["b"], v["c"]])

    def analytic(v, probe):
        ga, gb, gc = ops.concat_channels_backward(probe, [2, 3, 1])
        return {"a": ga, "b": gb, "c": gc}

    return _Case(fwd, inputs, analytic)


def _case_mask_mul(rng) -> _Case:
    inputs = {"x": _uniform(rng, (2, 4, 3, 3)), "m": _uniform(rng, (2, 1, 3, 3))}
    fwd = lambda v: ops.broadcast_mask_mul(v["x"], v["m"])

    def analytic(v, probe):
        gx, gm = ops.broadcast_mask_mul_backward(probe, v["x"], v["m"])
        return {"x": gx, "m": gm}

    return _Case(fwd, inputs, analytic)


def _case_channel_scale(rng) -> _Case:
    inputs = {"x": _uniform(rng, (2, 4, 3, 3)), "s": _uniform(rng, (4,))}
    fwd = lambda v: ops.channel_scale(v["x"], v["s"])

    def analytic(v, probe):
        gx, gs = ops.channel_scale_backward(probe, v["x"], v["s"])
        return {"x": gx, "s": gs}

    return _Case(fwd, inputs, analytic)


def _case_affine_norm(rng) -> _Case:
    mean = _uniform(rng, (4,))
    var = np.abs(_uniform(rng, (4,))) + 0.5
    inputs = {
        "x": _uniform(rng, (2, 4, 3, 3)),
        "scale": _uniform(rng, (4,)),
        "shift": _uniform(rng, (4,)),
    }
    fwd = lambda v: ops.affine_channel_norm(v["x"], v["scale"], v["shift"], mean, var)

    def analytic(v, probe):
        gx, gs, gh = ops.affine_channel_norm_backward(probe, v["x"], v["scale"], mean, var)
        return {"x": gx, "scale": gs, "shift": gh}

    return _Case(fwd, inputs, analytic)


def _case_batch_norm(rng) -> _Case:
    inputs = {
        "x": _uniform(rng, (2, 3, 4, 4)),
        "scale": _uniform(rng, (3,)),
        "shift": _uniform(rng, (3,)),
    }
    fwd = lambda v: ops.batch_norm(v["x"], v["scale"], v["shift"])[0]

    def analytic(v, probe):
        _, x_hat, inv_std = ops.batch_norm(v["x"], v["scale"], v["shift"])
        gx, gs, gh = ops.batch_norm_backward(probe, x_hat, inv_std, v["scale"])
        return {"x": gx, "scale": gs, "shift": gh}

    return _Case(fwd, inputs, analytic)


def _case_gap(rng) -> _Case:
    inputs = {"x": _uniform(rng, (2, 4, 3, 3))}
    fwd = lambda v: ops.global_avg_pool(v["x"])
    analytic = lambda v, probe: {"x": ops.global_avg_pool_backward(probe, v["x"])}
    return _Case(fwd, inputs, analytic)


def _layer_case(rng, params, forward, backward, cat_of=None) -> _Case:
    """Case over the input and every learnable array of one layer.

    ``forward(x, params)`` returns an output with ``y`` and ``state``, and
    ``backward(grad_y, state)`` returns ``(grad_x, grads)`` keyed by the names
    of ``params.parameter_arrays()``; the arrays it returns a gradient for are
    the learnables, drawn after the input in listing order.  ``cat_of(state)``
    is the input of a channel max-pool whose winners must stay well separated
    from the FD step.
    """
    arrays = dict(params.parameter_arrays())
    inputs: dict[str, np.ndarray] = {"x": _uniform(rng, (1, 4, 5, 5))}
    out = forward(inputs["x"], params)
    learnable = backward(np.zeros_like(out.y), out.state)[1]
    for name, arr in arrays.items():
        if name in learnable:
            inputs[name] = _uniform(rng, arr.shape, scale=0.5)

    def load(v) -> None:
        for name in learnable:
            arrays[name][...] = v[name]

    def fwd(v):
        load(v)
        return forward(v["x"], params).y

    def analytic(v, probe):
        load(v)
        grad_x, grads = backward(probe, forward(v["x"], params).state)
        return {"x": grad_x, **grads}

    if cat_of is not None:
        for _ in range(64):
            load(inputs)
            top2 = np.sort(cat_of(forward(inputs["x"], params).state), axis=1)[:, -2:]
            if float((top2[:, 1] - top2[:, 0]).min()) > 5e-3:
                break
            inputs["x"] = _uniform(rng, (1, 4, 5, 5))
    return _Case(fwd, inputs, analytic)


def _module_case(mode: SelectionMode):
    plan = validate_plan([(3, 1), (5, 2)])
    cat_of = (lambda state: state.cat) if mode is SelectionMode.SPATIAL else None

    def build(rng) -> _Case:
        base = init_lsk_params(plan, c_in=4, c_mid=2, select_kernel=3, mode=mode, rng=rng)
        forward = lambda x, params: lsk_forward(x, params, mode=mode)
        return _layer_case(rng, params_astype(base, np.float64), forward, lsk_backward, cat_of)

    return build


def _case_block(rng) -> _Case:
    plan = validate_plan([(3, 1)])
    base = init_block_params(plan, c=4, ffn_ratio=2.0, c_mid=2, select_kernel=3, rng=rng)
    return _layer_case(
        rng, params_astype(base, np.float64), block_forward, block_backward,
        lambda state: state.lsk_state.cat,
    )


_CASES: dict[str, Callable[[np.random.Generator], _Case]] = {
    "depthwise_conv": _case_depthwise,
    "conv2d": _case_conv2d,
    "pointwise_conv": _case_pointwise,
    "channel_pool_avg": _case_pool_avg,
    "channel_pool_max": _case_pool_max,
    "elementwise_mul": _case_elementwise("mul"),
    "elementwise_add": _case_elementwise("add"),
    "sigmoid": _case_sigmoid,
    "gelu": _case_gelu,
    "concat_channels": _case_concat,
    "broadcast_mask_mul": _case_mask_mul,
    "channel_scale": _case_channel_scale,
    "affine_channel_norm": _case_affine_norm,
    "batch_norm": _case_batch_norm,
    "global_avg_pool": _case_gap,
    "lsk_module_spatial": _module_case(SelectionMode.SPATIAL),
    "lsk_module_channel": _module_case(SelectionMode.CHANNEL),
    "lsk_module_none": _module_case(SelectionMode.NONE),
    "lsk_block": _case_block,
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
