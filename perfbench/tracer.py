"""In-memory span tracing around the public functions of ``lsknet``.

Only the traced benchmark run (``--trace 1``) installs a :class:`Tracer`; the
library itself is never edited.  Installing replaces each traced function on
its defining module *and* on every ``lsknet`` module that imported it by name
(``lsknet.block.lsk_forward``, ``lsknet.backbone.block_forward``, ...), so
calls made inside the library are seen too.  Uninstalling puts the original
functions back.

A span is ``(name, start, end, parent, meta)``.  Self time is the span's
duration minus the durations of its direct children; children of one parent
never overlap because the library is single-threaded at the Python level.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from lsknet import analysis, backbone, block, cost, fileio, module, ops

CONV_FORWARD = ("depthwise_conv", "pointwise_conv", "conv2d")
MODELLED_OPS = CONV_FORWARD + ("gelu",) + tuple(f"{f}_backward" for f in CONV_FORWARD + ("gelu",))
FILEIO_RATED = ("save_record", "load_record", "write_tensor", "read_tensor")
ANALYSIS_FNS = ("parse_annotations", "analyze_images", "emit_analysis")

MODEL_RULES = (
    "forward FLOPs: lsknet.cost primitives on each call's shapes (per image) times the batch size",
    "backward conv FLOPs = 2 x forward conv MACs x 2 flops per MAC (x batch); "
    "gelu_backward FLOPs = 2 x forward gelu FLOPs",
    "bytes are computed from argument and result array sizes, not measured",
    "no roofline ratio: peak FLOP rate and memory bandwidth are not measured",
    "fileio mb_per_s = array bytes written or read / inclusive call time, 1 MB = 1e6 bytes",
)


def _layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out: list[tuple[str, str, str]] = []
    for fn in MODELLED_OPS:
        p = f"ops.{fn}"
        out += [
            (f"{p}.calls", "count", "lower"),
            (f"{p}.self_s", "s", "lower"),
            (f"{p}.share", "fraction", "lower"),
            (f"{p}.gflop_per_s", "GFLOP/s", "higher"),
            (f"{p}.bytes", "B", "lower"),
            (f"{p}.flop_per_byte", "FLOP/B", "higher"),
        ]
    out.append(("ops.other.self_s", "s", "lower"))
    for p in ("module.lsk_forward", "module.lsk_backward", "block.block_forward", "block.block_backward"):
        out += [(f"{p}.calls", "count", "lower"), (f"{p}.self_s", "s", "lower"), (f"{p}.share", "fraction", "lower")]
    for p in ("backbone.backbone_forward", "backbone.backbone_backward"):
        out += [(f"{p}.self_s", "s", "lower"), (f"{p}.share", "fraction", "lower")]
    out.append(("backbone.state_mib", "MiB", "lower"))
    for fn in FILEIO_RATED:
        p = f"fileio.{fn}"
        out += [
            (f"{p}.calls", "count", "lower"),
            (f"{p}.self_s", "s", "lower"),
            (f"{p}.share", "fraction", "lower"),
            (f"{p}.mb_per_s", "MB/s", "higher"),
        ]
    out.append(("fileio.read_weights.self_s", "s", "lower"))
    for fn in ANALYSIS_FNS:
        p = f"analysis.{fn}"
        out += [(f"{p}.calls", "count", "lower"), (f"{p}.self_s", "s", "lower"), (f"{p}.share", "fraction", "lower")]
    out += [
        ("analysis.boxes_parsed", "count", "higher"),
        ("analysis.lines_malformed", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.self_time_coverage", "fraction", "higher"),
        ("trace.forward_macs", "count", "lower"),
        ("trace.forward_macs_model", "count", "lower"),
    ]
    return out


PER_LAYER = _layer_metrics()


def _nbytes(obj, depth: int = 0) -> int:
    """Array bytes reachable from a call argument or result."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth > 2:
        return 0
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(o, depth + 1) for o in obj)
    if isinstance(obj, dict):
        return sum(_nbytes(v, depth + 1) for v in obj.values())
    if isinstance(obj, backbone.ActivationRecord):
        return _nbytes(obj.masks, depth + 1)
    return 0


def _shape_of(value):
    return value.shape if isinstance(value, np.ndarray) else value


def _ops_meta(args, kwargs, result):
    """Array bytes of the call, and the shapes the FLOP model needs."""
    sig = (
        tuple(_shape_of(a) for a in args),
        {k: _shape_of(v) for k, v in kwargs.items()},
        _shape_of(result),
    )
    return _nbytes(args) + _nbytes(kwargs) + _nbytes(result), sig


def _io_meta(args, kwargs, result):
    return _nbytes(args) + _nbytes(kwargs) + _nbytes(result), None


def _parse_meta(args, kwargs, result):
    return len(result.boxes), result.malformed_lines


def _targets():
    """(module, attribute, span name, meta function) of every traced function."""
    out = []
    for name in ops.__all__:
        fn = getattr(ops, name)
        if inspect.isfunction(fn) and name != "check_tensor4":
            out.append((ops, name, f"ops.{name}", _ops_meta if name in MODELLED_OPS else None))
    for mod, names in ((module, ("lsk_forward", "lsk_backward")),
                       (block, ("block_forward", "block_backward")),
                       (backbone, ("backbone_forward", "backbone_backward"))):
        for name in names:
            out.append((mod, name, f"{mod.__name__.split('.')[-1]}.{name}", None))
    for name in FILEIO_RATED + ("read_weights",):
        out.append((fileio, name, f"fileio.{name}", _io_meta))
    for name in ANALYSIS_FNS:
        out.append((analysis, name, f"analysis.{name}", _parse_meta if name == "parse_annotations" else None))
    return out


class Tracer:
    """Records spans while installed; keeps them in memory until written."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        for mod, attr, name, meta_fn in _targets():
            original = getattr(mod, attr)
            self._originals[name] = original
            self._wrappers[id(original)] = self._wrap(name, original, meta_fn)
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, meta_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                meta = meta_fn(args, kwargs, result) if meta_fn and done else None
                spans[idx] = (name, start, end, parent, meta)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lsknet" or mod_name.startswith("lsknet.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and value is getattr(wrapper, "__wrapped__"):
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    @contextmanager
    def active(self):
        """Trace the calls made inside the block."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            for idx, (name, start, end, parent, _meta) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent}) + "\n")

    # -- aggregation ----------------------------------------------------------

    def _model(self, name: str, sig) -> tuple[int, int]:
        """(modelled FLOPs of the call, forward conv MACs per image)."""
        fn = name[4:]
        arg_shapes, kw_shapes, result_shape = sig
        bound = inspect.signature(self._originals[name]).bind(*arg_shapes, **kw_shapes)
        bound.apply_defaults()
        a = bound.arguments
        if fn.endswith("_backward"):
            fwd = fn[: -len("_backward")]
            n, c, h, w = a["x"]
            if fwd == "gelu":
                return 2 * n * cost.cost_activation(c, h, w).flops, 0
            if fwd == "depthwise_conv":
                report = cost.cost_depthwise(c, a["spec"], h, w)
            elif fwd == "pointwise_conv":
                report = cost.cost_pointwise(c, a["grad_out"][1], h, w)
            else:
                c_out, c_in, k, _ = a["weights"]
                report = cost.cost_conv2d(c_in, c_out, k, a["grad_out"][2], a["grad_out"][3])
            return 2 * report.macs * 2 * n, 0
        n, c, h, w = a["x"]
        if fn == "gelu":
            return n * cost.cost_activation(c, h, w).flops, 0
        if fn == "depthwise_conv":
            report = cost.cost_depthwise(c, a["spec"], h, w)
        elif fn == "pointwise_conv":
            report = cost.cost_pointwise(c, a["weights"][0], h, w)
        else:
            c_out, c_in, k, _ = a["weights"]
            report = cost.cost_conv2d(c_in, c_out, k, result_shape[2], result_shape[3])
        return n * report.flops, report.macs

    def per_layer(self, wall_s: float, overhead_s: float, state_mib: float, model_macs: int) -> dict[str, float]:
        """Every metric of :data:`PER_LAYER`, from the recorded spans.

        ``wall_s`` is the traced time that shares are taken of: the set-up and
        the timed calls of every traced operation.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        nbytes: dict[str, int] = defaultdict(int)
        flops: dict[str, int] = defaultdict(int)
        boxes = malformed = 0
        for idx, (name, start, end, parent, meta) in enumerate(spans):
            calls[name] += 1
            incl_s[name] += end - start
            self_s[name] += end - start - child_s[idx]
            if meta is None:
                continue
            if name == "analysis.parse_annotations":
                boxes += meta[0]
                malformed += meta[1]
                continue
            nbytes[name] += meta[0]
            if name.startswith("ops."):
                flops[name] += self._model(name, meta[1])[0]

        wall = wall_s
        m: dict[str, float] = {}

        def share(name: str) -> float:
            return self_s[name] / wall if wall > 0 else 0.0

        for fn in MODELLED_OPS:
            key = f"ops.{fn}"
            m[f"{key}.calls"] = calls[key]
            m[f"{key}.self_s"] = self_s[key]
            m[f"{key}.share"] = share(key)
            m[f"{key}.gflop_per_s"] = flops[key] / self_s[key] / 1e9 if self_s[key] > 0 else 0.0
            m[f"{key}.bytes"] = nbytes[key]
            m[f"{key}.flop_per_byte"] = flops[key] / nbytes[key] if nbytes[key] else 0.0
        m["ops.other.self_s"] = sum(
            s for k, s in self_s.items() if k.startswith("ops.") and k[4:] not in MODELLED_OPS
        )
        for key in ("module.lsk_forward", "module.lsk_backward", "block.block_forward", "block.block_backward"):
            m[f"{key}.calls"] = calls[key]
            m[f"{key}.self_s"] = self_s[key]
            m[f"{key}.share"] = share(key)
        for key in ("backbone.backbone_forward", "backbone.backbone_backward"):
            m[f"{key}.self_s"] = self_s[key]
            m[f"{key}.share"] = share(key)
        m["backbone.state_mib"] = state_mib
        for fn in FILEIO_RATED:
            key = f"fileio.{fn}"
            m[f"{key}.calls"] = calls[key]
            m[f"{key}.self_s"] = self_s[key]
            m[f"{key}.share"] = share(key)
            m[f"{key}.mb_per_s"] = nbytes[key] / incl_s[key] / 1e6 if incl_s[key] > 0 else 0.0
        m["fileio.read_weights.self_s"] = self_s["fileio.read_weights"]
        for fn in ANALYSIS_FNS:
            key = f"analysis.{fn}"
            m[f"{key}.calls"] = calls[key]
            m[f"{key}.self_s"] = self_s[key]
            m[f"{key}.share"] = share(key)
        m["analysis.boxes_parsed"] = boxes
        m["analysis.lines_malformed"] = malformed
        m["trace.overhead_s"] = overhead_s
        m["trace.self_time_coverage"] = sum(self_s.values()) / wall if wall > 0 else 0.0
        m["trace.forward_macs"] = self.forward_macs()
        m["trace.forward_macs_model"] = model_macs
        return m

    def forward_macs(self) -> int:
        """Summed per-image conv MACs of the calls inside the first traced
        ``backbone_forward`` (0 when no forward ran)."""
        spans = self.spans
        root = next((i for i, s in enumerate(spans) if s[0] == "backbone.backbone_forward"), None)
        if root is None:
            return 0
        total = 0
        for idx in range(root + 1, len(spans)):
            name, start, _end, _parent, meta = spans[idx]
            if start > spans[root][2]:
                break
            if name.startswith("ops.") and name[4:] in CONV_FORWARD:
                total += self._model(name, meta[1])[1]
        return total
