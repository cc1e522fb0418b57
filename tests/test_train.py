"""Toy trainer: constancy at lr 0, the descent property, divergence
reporting, and a short-run sanity check of the full overfit."""

import numpy as np
import pytest

from lsknet.errors import DivergenceError, ShapeError
from lsknet.train import make_synthetic_dataset, toy_train


def test_zero_learning_rate_keeps_loss_constant():
    losses = toy_train(steps=10, lr=0.0, seed=0)
    assert len(losses) == 11
    assert all(l == losses[0] for l in losses)
    assert losses[0] > 1e-2  # so the CLI exits non-zero for lr 0


def test_tiny_step_strictly_decreases_convex_head_loss():
    losses = toy_train(steps=1, lr=1e-4, seed=0, scope="head")
    assert losses[1] < losses[0]


def test_head_only_converges_monotonically():
    losses = toy_train(steps=200, lr=0.05, seed=1, scope="head")
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0] / 2


def test_module_overfit_short_run_decreases():
    losses = toy_train(steps=60, lr=0.5, seed=0)
    assert losses[-1] < losses[0] * 0.5


def test_backbone_scope_trains_without_diverging():
    losses = toy_train(steps=8, lr=0.05, seed=0, scope="backbone")
    assert np.isfinite(losses).all()
    assert losses[-1] < losses[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_divergence_raises_with_step_index():
    with pytest.raises(DivergenceError) as err:
        toy_train(steps=200, lr=50.0, seed=0)
    assert err.value.step > 0


def test_dataset_size_cap():
    with pytest.raises(ShapeError):
        make_synthetic_dataset(17, 3, 8, 8)


def test_unknown_scope():
    with pytest.raises(ShapeError, match="scope"):
        toy_train(steps=1, lr=0.1, scope="everything")


def test_negative_steps_rejected():
    with pytest.raises(ShapeError, match="steps"):
        toy_train(steps=-1)
    assert len(toy_train(steps=0, lr=0.1)) == 1


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf"), -0.5])
def test_learning_rate_must_be_finite_and_not_negative(lr):
    with pytest.raises(ShapeError, match="lr"):
        toy_train(steps=1, lr=lr)


def test_trajectory_is_deterministic_per_seed():
    a = toy_train(steps=20, lr=0.3, seed=7)
    b = toy_train(steps=20, lr=0.3, seed=7)
    c = toy_train(steps=20, lr=0.3, seed=8)
    assert a == b
    assert a != c
