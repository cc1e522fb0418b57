"""Toy gradient-descent training used to validate the backward passes.

Three scopes, all full-batch plain gradient descent on the mean-squared error
of a scalar linear head over globally pooled features:

* ``head``     - features come from a frozen random selection module; only the
                 head trains (a convex problem, used for descent checks).
* ``module``   - one selection module plus the head train end to end; the
                 default smoke test overfits 8 synthetic samples.
* ``backbone`` - a small four-stage backbone trains end to end on 4
                 samples with batch-statistics normalization, head on
                 pooled stage-4 features.

Each scope only builds its forward, backward and trainable arrays; one loop,
:func:`_descend`, trains them all.  A non-finite loss raises
:class:`DivergenceError` carrying the step index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .backbone import (
    BackboneConfig,
    backbone_backward,
    backbone_forward,
    init_backbone_params,
    named_arrays,
)
from .errors import DivergenceError, ShapeError
from .module import init_lsk_params, lsk_backward, lsk_forward, parameter_arrays
from .plan import validate_plan

__all__ = ["ToyProblem", "make_synthetic_dataset", "toy_train", "DEFAULT_LR", "DEFAULT_STEPS"]

DEFAULT_STEPS = 500
# Learning rate per scope; the backbone diverges at the module's 0.5.
DEFAULT_LR = {"module": 0.5, "head": 0.5, "backbone": 0.05}
MODULE_CHANNELS = 8
MODULE_SIZE = 8
MODULE_PLAN = ((3, 1), (5, 2))
MODULE_SAMPLES = 8
BACKBONE_SAMPLES = 4
MAX_SAMPLES = 16


@dataclass
class ToyProblem:
    inputs: np.ndarray  # (m, c, h, w) float32
    targets: np.ndarray  # (m,) float32


def make_synthetic_dataset(
    n_samples: int, channels: int, h: int, w: int, seed: int = 0
) -> ToyProblem:
    """Random inputs with random scalar targets; capped at 16 samples."""
    if n_samples < 1 or n_samples > MAX_SAMPLES:
        raise ShapeError(f"toy datasets hold 1..{MAX_SAMPLES} samples, got {n_samples}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_samples, channels, h, w)).astype(np.float32)
    t = rng.uniform(0.2, 0.8, size=n_samples).astype(np.float32)
    return ToyProblem(inputs=x, targets=t)


def _mse(pred: np.ndarray, targets: np.ndarray) -> float:
    return float(np.mean((pred - targets) ** 2))


def _check_finite(loss: float, step: int) -> None:
    if not np.isfinite(loss):
        raise DivergenceError(step)


def toy_train(
    steps: int = DEFAULT_STEPS,
    lr: float | None = None,
    seed: int = 0,
    scope: str = "module",
) -> list[float]:
    """Run plain gradient descent; returns the loss trajectory.

    ``losses[k]`` is the loss after ``k`` updates, so the list holds
    ``steps + 1`` values and ``losses[-1]`` is the final loss.  ``lr=None``
    takes the scope's ``DEFAULT_LR``; any other ``lr`` must be a finite number
    >= 0 (0 keeps the loss constant, a negative rate would ascend).
    """
    if scope not in DEFAULT_LR:
        raise ShapeError(f"toy_train: unknown scope {scope!r} (want head|module|backbone)")
    if steps < 0:
        raise ShapeError(f"toy_train: steps must be >= 0, got {steps}")
    if lr is None:
        lr = DEFAULT_LR[scope]
    elif not (math.isfinite(lr) and lr >= 0):
        raise ShapeError(f"toy_train: lr must be a finite number >= 0, got {lr!r}")
    rng = np.random.default_rng(seed)
    if scope == "backbone":
        setup = _backbone_scope(seed)
    else:
        setup = _module_scope(rng, seed, train_module=scope == "module")
    return _descend(*setup, rng, steps, lr)


def _module_scope(rng, seed, train_module):
    """``(forward, backward, arrays, targets)`` of one selection module; with
    ``train_module`` off its features are computed once and stay frozen."""
    params = init_lsk_params(validate_plan(MODULE_PLAN), MODULE_CHANNELS, rng=rng)
    dataset = make_synthetic_dataset(MODULE_SAMPLES, MODULE_CHANNELS, MODULE_SIZE, MODULE_SIZE, seed)
    x = dataset.inputs
    if not train_module:
        frozen = lsk_forward(x, params, keep_state=False).y
        return (lambda: (frozen, None)), None, {}, dataset.targets

    def forward():
        out = lsk_forward(x, params)
        return out.y, out.state

    def backward(grad, state):
        grad_x, grads = lsk_backward(grad, state)
        return grad_x, dict(parameter_arrays(grads))

    return forward, backward, dict(parameter_arrays(params)), dataset.targets


def _backbone_scope(seed):
    """``(forward, backward, arrays, targets)`` of a small backbone trained
    with batch statistics; the head reads the stage-4 features."""
    config = BackboneConfig(channels=(4, 4, 8, 8), depths=(1, 1, 1, 1), ffn_ratios=(2.0, 2.0, 2.0, 2.0))
    params = init_backbone_params(config, seed=seed)
    dataset = make_synthetic_dataset(BACKBONE_SAMPLES, 3, 32, 32, seed)
    x = dataset.inputs

    def forward():
        out = backbone_forward(x, params, keep_state=True, train_norm=True)
        return out.features[3], out.state

    return forward, backbone_backward, named_arrays(params), dataset.targets


def _descend(forward, backward, arrays, targets, rng, steps, lr) -> list[float]:
    """Full-batch gradient descent on the MSE of a linear head over globally
    pooled features.

    ``forward()`` returns ``(features, state)`` and ``backward(grad_features,
    state)`` returns ``(grad_input, grads)`` with ``grads`` a flat name ->
    gradient dict keyed by names of ``arrays`` (the module scope flattens its
    gradient tree with :func:`~lsknet.module.parameter_arrays`, the walk that
    named ``arrays``); every step moves those arrays and the head, which is
    drawn from ``rng`` once the first features are known.  With no
    ``arrays`` only the head trains.
    """
    m = targets.shape[0]
    feat, state = forward()
    head_w = rng.uniform(-0.3, 0.3, size=feat.shape[1]).astype(np.float32)
    head_b = np.zeros(1, dtype=np.float32)
    losses: list[float] = []
    for step in range(steps + 1):
        pooled = ops.global_avg_pool(feat)[:, :, 0, 0]
        pred = pooled @ head_w + head_b[0]
        loss = _mse(pred, targets)
        _check_finite(loss, step)
        losses.append(loss)
        if step == steps:
            break

        grad_pred = (2.0 / m) * (pred - targets)
        grad_w = pooled.T @ grad_pred
        grad_b = grad_pred.sum()
        if arrays:
            grad_pooled = np.outer(grad_pred, head_w).astype(feat.dtype)
            grad_feat = ops.global_avg_pool_backward(grad_pooled[:, :, None, None], feat)
            _, grads = backward(grad_feat, state)
            for name, g in grads.items():
                arrays[name] -= (lr * g).astype(arrays[name].dtype)
        head_w -= (lr * grad_w).astype(head_w.dtype)
        head_b -= np.float32(lr * grad_b)
        feat, state = forward()
    return losses
