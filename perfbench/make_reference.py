#!/usr/bin/env python3
"""Write ``reference.json``: float64 reference values for the benchmark.

For ``infer-T512`` it holds digests (channel means, RMS, fixed samples) of
the stage features and masks of every pool image; for ``train-S128`` the loss
and per-array gradient norms of one step from the initial weights, for every
pool batch.  Both come from the library's own forward and backward passes run
in float64, so the float32 runs under test are never their own reference.

Run from the repository root (takes a few minutes):

    python3 perfbench/make_reference.py

Regenerate only when the benchmark's inputs or sizes change, never to make a
failing check pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def _round(obj):
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, list):
        return [_round(o) for o in obj]
    if isinstance(obj, dict):
        return {k: _round(v) for k, v in obj.items()}
    return obj


def main() -> int:
    doc = {}
    for name, make in workloads.REFERENCES.items():
        cfg = workloads.SIZES[name][0]
        print(f"computing {name} reference for {cfg}", file=sys.stderr)
        doc[name] = _round(make(cfg))
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
