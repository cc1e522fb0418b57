"""The gradcheck registry covers every backward op, checks the op that
``lsknet.ops`` holds when it runs, and `lsk gradcheck` reports each
registered case once, in registry order."""

import numpy as np
import pytest

from lsknet import ops
from lsknet.cli import main
from lsknet.gradcheck import available_checks, run_check

BACKWARD_OPS = [name for name in ops.__all__ if name.endswith("_backward")]


def cases_of(backward: str) -> list[str]:
    """Gradcheck cases named after the forward op of ``backward``: the
    forward name itself or the forward name plus a ``_variant`` suffix."""
    forward = backward.removesuffix("_backward")
    return [name for name in available_checks() if name == forward or name.startswith(forward + "_")]


@pytest.mark.parametrize("backward", BACKWARD_OPS)
def test_every_backward_op_has_a_case(backward):
    assert cases_of(backward), f"no gradcheck case for {backward}"


@pytest.mark.parametrize("backward", BACKWARD_OPS)
def test_perturbed_backward_fails_its_cases(backward, monkeypatch):
    true_backward = getattr(ops, backward)

    def perturbed(*args, **kwargs):
        grads = true_backward(*args, **kwargs)
        if isinstance(grads, np.ndarray):
            return grads * 1.02
        return [grad * 1.02 for grad in grads]

    monkeypatch.setattr(ops, backward, perturbed)
    for name in cases_of(backward):
        assert not run_check(name).passed, name


def test_cli_prints_one_line_per_case_in_order(capsys):
    assert main(["gradcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == available_checks()
