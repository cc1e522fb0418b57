import sys
import tracemalloc
from dataclasses import fields, is_dataclass
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


def state_bytes(state) -> int:
    """Bytes of the distinct arrays a kept backward state holds: each base
    array counts once, wherever it is referenced, and ``params`` fields are
    skipped."""
    seen: dict[int, int] = {}

    def walk(obj):
        if isinstance(obj, np.ndarray):
            base = obj if obj.base is None else obj.base
            if isinstance(base, np.ndarray):
                seen[id(base)] = base.nbytes
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)
        elif is_dataclass(obj):
            for f in fields(obj):
                if f.name != "params":
                    walk(getattr(obj, f.name))

    walk(state)
    return sum(seen.values())
