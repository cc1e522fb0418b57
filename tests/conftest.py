import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def rand4(rng, shape, lo=-2.0, hi=2.0, dtype=np.float64):
    return rng.uniform(lo, hi, size=shape).astype(dtype)


def peak_allocation(fn, *args) -> int:
    """Peak bytes traced during one call, above what was traced before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
