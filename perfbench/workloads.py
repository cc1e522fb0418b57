"""The three benchmark workloads: their inputs, one operation, and its check.

Every workload is a closed loop with one caller.  ``prepare()`` is one
set-up (repeated by the runner to time it) and ``warm_up()`` the first,
untimed operation; ``operate(i)`` runs operation ``i`` on inputs that depend
only on the run seed and ``i``, times the calls into the library, and checks
what they returned.  Input generation and checks run outside the timed calls.

* ``infer-T512``   backbone_forward, preset T, 512x512, batch 1, spatial mode.
* ``train-S128``   one training step, preset S, 128x128, batch 2.
* ``analyze-masks`` save_record per image, then the ``lsk analyze`` path.

The float32 outputs of the first two are compared with float64 reference
digests stored in ``reference.json`` (see ``make_reference.py``); the analysis
output is compared with values the benchmark computes from the inputs it
generated.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lsknet import analysis, backbone, cost, fileio, ops
from lsknet.errors import DivergenceError

clock = time.perf_counter

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

WEIGHT_SEED = 7
HEAD_SEED = 11
IMAGE_TAG = 101
BATCH_TAG = 202
CORPUS_TAG = 303

# float32 result against float64 reference: |got - ref| <= ATOL + RTOL * |ref|.
# Measured float32 error is below 1e-6 absolute on features and masks.
INFER_RTOL, INFER_ATOL = 1e-4, 1e-5
# Loss relative tolerance; gradient norms get an absolute floor scaled by the
# global gradient norm, because the gradients of conv biases that feed a
# batch norm are zero up to rounding.
LOSS_RTOL = 1e-5
GRAD_RTOL, GRAD_ATOL_GLOBAL = 1e-4, 1e-5
# Analysis numbers are float64 on both sides; only the summation order differs.
CSV_RTOL, CSV_ATOL = 1e-9, 1e-12

SIZES = {
    # name: full size, tiny size (smoke test)
    "infer-T512": ({"variant": "T", "size": 512, "pool": 8}, {"variant": "T", "size": 64, "pool": 2}),
    "train-S128": ({"variant": "S", "size": 128, "batch": 2, "pool": 8, "lr": 0.01},
                   {"variant": "T", "size": 64, "batch": 2, "pool": 2, "lr": 0.01}),
    "analyze-masks": ({"variant": "T", "size": 512, "images": 200}, {"variant": "T", "size": 64, "images": 12}),
}

CAL_EVERY = 10  # exports per file calibration in analyze-masks
ANALYZE_REPS = 4  # runs of the analyze path over each exported pass
WARM_IMAGES = 20  # images of the analyze-masks warm-up pass
CAL_RECORDS = 40  # records read back per analyze-path calibration

CATEGORIES = ("plane", "ship", "storage-tank", "harbor", "bridge", "large-vehicle", "small-vehicle", "helicopter")


@dataclass
class OpResult:
    items: int  # images or steps attempted
    failed: int  # of those, how many failed their check
    timed_s: float  # all timed seconds of the operation
    latencies: list[float] = field(default_factory=list)  # per image forward, step or record export
    latency_cals: list[float] = field(default_factory=list)  # the calibration of each latency
    rates: list[tuple[int, float, float]] = field(default_factory=list)  # (items, seconds, calibration)
    state_bytes: int = 0


class Calibrator:
    """Fixed kernels that do not use lsknet, timed next to the library calls.

    On a shared machine the speed of the same code drifts by tens of percent
    over minutes, and file creation on a disk-backed filesystem drifts more.
    A run's median latency divided by the median calibration time taken next
    to its timed calls drifts several times less, so the gated metrics are in
    these calibration units ("cal"); the raw seconds are printed alongside.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.random((1, 64, 130, 130), dtype=np.float32)
        self.w = rng.random((64, 3, 3), dtype=np.float32)
        self.mix = rng.random((128, 64), dtype=np.float32)

    def cpu(self) -> float:
        """A 3x3 shifted multiply-add and a 1x1 channel mix, the two loop
        shapes that dominate the numeric kernels."""
        start = clock()
        for _ in range(2):
            acc = np.zeros((1, 64, 128, 128), dtype=np.float32)
            for i in range(3):
                for j in range(3):
                    acc += self.w[:, i, j][None, :, None, None] * self.x[:, :, i : i + 128, j : j + 128]
            np.einsum("oc,nchw->nohw", self.mix, acc)
        return clock() - start

    @staticmethod
    def files(directory: Path, sizes: list[int]) -> float:
        """Create ``directory`` and write one file of each size: the file
        pattern of one exported record, written without the library."""
        blob = memoryview(bytes(max(sizes)))
        start = clock()
        directory.mkdir(parents=True)
        for k, size in enumerate(sizes):
            with open(directory / f"f{k}", "wb") as fh:
                fh.write(blob[:size])
        elapsed = clock() - start
        shutil.rmtree(directory)
        return elapsed

    @staticmethod
    def records(masks_root: Path, count: int) -> float:
        """Read back up to ``count`` exported record directories with plain
        file reads, ``json`` and numpy: the mix of system calls and array
        reductions of the analyze path, without the library."""
        start = clock()
        for directory in sorted(masks_root.iterdir())[:count]:
            json.loads((directory / "manifest.json").read_text())
            for path in sorted(directory.glob("*.lskt")):
                np.frombuffer(path.read_bytes(), dtype="<f4", offset=40).sum(dtype=np.float64)
        return clock() - start


def _fail(what: str, exc: BaseException | None = None) -> None:
    print(f"# check failed: {what}", file=sys.stderr)
    if exc is not None:
        traceback.print_exception(exc, file=sys.stderr)


def _close(got: np.ndarray, ref: np.ndarray, rtol: float, atol) -> bool:
    return got.shape == ref.shape and bool(np.all(np.abs(got - ref) <= atol + rtol * np.abs(ref)))


def _spread_index(size: int, count: int, tag: int) -> np.ndarray:
    """Fixed, seed-free sample positions spread over a flat array."""
    return (np.arange(1, count + 1, dtype=np.int64) * 2654435761 + 97 * tag) % size


def load_reference(workload: str, cfg: dict) -> dict:
    doc = json.loads(REFERENCE_PATH.read_text())[workload]
    if doc["config"] != cfg:
        raise SystemExit(f"reference.json holds {doc['config']} for {workload}, run needs {cfg}")
    return doc


# ---------------------------------------------------------------------------
# infer-T512
# ---------------------------------------------------------------------------

def infer_image(cfg: dict, image_id: int) -> np.ndarray:
    rng = np.random.default_rng([IMAGE_TAG, image_id])
    return rng.random((1, 3, cfg["size"], cfg["size"]), dtype=np.float32)


def infer_digest(out) -> list[float]:
    """Channel means, RMS and fixed samples of each stage feature, plus mean
    and fixed samples of each block's masks, as one float64 vector."""
    parts = []
    for s, feat in enumerate(out.features):
        f = feat.astype(np.float64)
        flat = f.ravel()
        parts += [f.mean(axis=(0, 2, 3)), [math.sqrt(float(flat @ flat) / flat.size)],
                  flat[_spread_index(flat.size, 16, s)]]
    for key in out.record.block_keys():
        m = out.record.masks[key].astype(np.float64)
        parts += [m.mean(axis=(0, 2, 3)), m.ravel()[_spread_index(m.size, 8, 10 * key[0] + key[1])]]
    return np.concatenate([np.asarray(p, dtype=np.float64) for p in parts]).tolist()


def infer_reference(cfg: dict) -> dict:
    """Float64 digests of every pool image (what reference.json stores)."""
    params = backbone.backbone_params_astype(
        backbone.init_backbone_params(backbone.BackboneConfig.variant(cfg["variant"]), seed=WEIGHT_SEED),
        np.float64,
    )
    digests = [
        infer_digest(backbone.backbone_forward(infer_image(cfg, i).astype(np.float64), params))
        for i in range(cfg["pool"])
    ]
    return {"config": cfg, "digests": digests}


class InferWorkload:
    def __init__(self, cfg: dict, seed: int, work_dir: Path, reference: dict):
        self.cfg = cfg
        self.config = backbone.BackboneConfig.variant(cfg["variant"])
        self.order = np.random.default_rng(seed).permutation(cfg["pool"])
        self.weights_path = work_dir / "weights.lskw"
        self.ref = [np.asarray(d) for d in reference["digests"]]
        self.model_macs = cost.cost_backbone(self.config, cfg["size"], cfg["size"]).macs
        self.calibrate = Calibrator().cpu

    def warm_up(self) -> OpResult:
        return self.operate(0)

    def prepare(self) -> None:
        self.weights_path.parent.mkdir(parents=True, exist_ok=True)
        fileio.write_weights(
            self.weights_path,
            backbone.named_arrays(backbone.init_backbone_params(self.config, seed=WEIGHT_SEED)),
        )
        arrays, _ = fileio.read_weights(self.weights_path)
        self.params = backbone.params_from_arrays(self.config, arrays)
        self.images = [infer_image(self.cfg, i) for i in range(self.cfg["pool"])]

    def operate(self, i: int) -> OpResult:
        image_id = int(self.order[i % len(self.order)])
        cal = self.calibrate()
        start = clock()
        try:
            out = backbone.backbone_forward(self.images[image_id], self.params, keep_state=False)
        except Exception as exc:  # the operation failed; keep measuring
            _fail(f"forward of image {image_id}", exc)
            return OpResult(1, 1, clock() - start)
        dt = clock() - start
        cal = (cal + self.calibrate()) / 2
        ok = _close(np.asarray(infer_digest(out)), self.ref[image_id], INFER_RTOL, INFER_ATOL)
        if not ok:
            _fail(f"features or masks of image {image_id} differ from the reference")
        return OpResult(1, 0 if ok else 1, dt, [dt], [cal], [(1, dt, cal)])


# ---------------------------------------------------------------------------
# train-S128
# ---------------------------------------------------------------------------

def train_batch(cfg: dict, batch_id: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([BATCH_TAG, batch_id])
    x = rng.standard_normal((cfg["batch"], 3, cfg["size"], cfg["size"])).astype(np.float32)
    t = rng.uniform(0.2, 0.8, size=cfg["batch"]).astype(np.float32)
    return x, t


def train_head(config) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(HEAD_SEED)
    return rng.uniform(-0.3, 0.3, size=config.channels[3]).astype(np.float32), np.zeros(1, np.float32)


def train_step(params, arrays, head_w, head_b, x, targets, lr, step):
    """One step as the backbone toy trainer takes it: forward with saved state
    and batch statistics, MSE of a linear head on pooled stage-4 features,
    backward, and an SGD update of every named array and the head."""
    out = backbone.backbone_forward(x, params, keep_state=True, train_norm=True)
    feat = out.features[3]
    pooled = ops.global_avg_pool(feat)[:, :, 0, 0]
    pred = pooled @ head_w + head_b[0]
    loss = float(np.mean((pred - targets) ** 2))
    if not np.isfinite(loss):
        raise DivergenceError(step)
    grad_pred = (2.0 / x.shape[0]) * (pred - targets)
    grad_w = pooled.T @ grad_pred
    grad_b = grad_pred.sum()
    grad_pooled = np.outer(grad_pred, head_w).astype(x.dtype)
    grad_feat = ops.global_avg_pool_backward(grad_pooled[:, :, None, None], feat)
    _, grads = backbone.backbone_backward(grad_feat, out.state)
    for name, g in grads.items():
        arrays[name] -= (lr * g).astype(arrays[name].dtype)
    head_w -= (lr * grad_w).astype(head_w.dtype)
    head_b -= (lr * grad_b).astype(head_b.dtype)
    return loss, grads, out.state


def grad_norms(grads: dict, names: list[str]) -> np.ndarray:
    return np.array([math.sqrt(float(np.sum(np.square(grads[n], dtype=np.float64)))) for n in names])


def train_reference(cfg: dict) -> dict:
    """Float64 loss and per-array gradient norms of one step from the initial
    weights, for every pool batch."""
    config = backbone.BackboneConfig.variant(cfg["variant"])
    base = backbone.init_backbone_params(config, seed=WEIGHT_SEED)
    names = None
    losses, norms = [], []
    for b in range(cfg["pool"]):
        params = backbone.backbone_params_astype(base, np.float64)
        head_w, head_b = (a.astype(np.float64) for a in train_head(config))
        x, t = (a.astype(np.float64) for a in train_batch(cfg, b))
        loss, grads, _ = train_step(params, backbone.named_arrays(params), head_w, head_b, x, t, cfg["lr"], b)
        names = names or sorted(grads)
        losses.append(loss)
        norms.append(grad_norms(grads, names).tolist())
    return {"config": cfg, "grad_names": names, "losses": losses, "grad_norms": norms}


def state_bytes(state) -> int:
    """Bytes of the distinct activation arrays a saved backward state holds
    (parameters excluded)."""
    seen: set[int] = set()
    total = 0

    def walk(obj):
        nonlocal total
        if isinstance(obj, np.ndarray):
            base = obj if obj.base is None else obj.base
            if isinstance(base, np.ndarray) and id(base) not in seen:
                seen.add(id(base))
                total += base.nbytes
        elif isinstance(obj, (list, tuple)):
            for o in obj:
                walk(o)
        elif hasattr(obj, "__dataclass_fields__"):
            for name in obj.__dataclass_fields__:
                if name != "params":
                    walk(getattr(obj, name))

    walk(state)
    return total


class TrainWorkload:
    def __init__(self, cfg: dict, seed: int, work_dir: Path, reference: dict):
        self.cfg = cfg
        self.config = backbone.BackboneConfig.variant(cfg["variant"])
        self.order = np.random.default_rng(seed).permutation(cfg["pool"])
        self.ref_names = reference["grad_names"]
        self.ref_losses = reference["losses"]
        self.ref_norms = [np.asarray(n) for n in reference["grad_norms"]]
        self.model_macs = cost.cost_backbone(self.config, cfg["size"], cfg["size"]).macs
        self.calibrate = Calibrator().cpu

    def warm_up(self) -> OpResult:
        return self.operate(0)

    def prepare(self) -> None:
        self.params = backbone.init_backbone_params(self.config, seed=WEIGHT_SEED)
        self.arrays = backbone.named_arrays(self.params)
        self.initial = {n: a.copy() for n, a in self.arrays.items()}
        self.head_w, self.head_b = train_head(self.config)
        self.batches = [train_batch(self.cfg, b) for b in range(self.cfg["pool"])]

    def _restore(self) -> None:
        # every step starts from the initial weights so that its loss has a
        # stored reference; the copy is outside the timed step
        for name, arr in self.arrays.items():
            np.copyto(arr, self.initial[name])
        self.head_w, self.head_b = train_head(self.config)

    def operate(self, i: int) -> OpResult:
        b = int(self.order[i % len(self.order)])
        x, t = self.batches[b]
        cal = self.calibrate()
        start = clock()
        try:
            loss, grads, state = train_step(
                self.params, self.arrays, self.head_w, self.head_b, x, t, self.cfg["lr"], i
            )
        except Exception as exc:  # DivergenceError included: a failed step
            _fail(f"training step {i} on batch {b}", exc)
            self._restore()
            return OpResult(1, 1, clock() - start)
        dt = clock() - start
        cal = (cal + self.calibrate()) / 2
        ref_norms = self.ref_norms[b]
        atol = GRAD_ATOL_GLOBAL * float(np.linalg.norm(ref_norms))
        ok = sorted(grads) == self.ref_names
        ok = ok and math.isclose(loss, self.ref_losses[b], rel_tol=LOSS_RTOL)
        ok = ok and _close(grad_norms(grads, self.ref_names), ref_norms, GRAD_RTOL, atol)
        if not ok:
            _fail(f"loss {loss!r} or gradients of step {i} (batch {b}) differ from the reference")
        nbytes = state_bytes(state)
        del state, grads
        self._restore()
        return OpResult(1, 0 if ok else 1, dt, [dt], [cal], [(1, dt, cal)], nbytes)


# ---------------------------------------------------------------------------
# analyze-masks
# ---------------------------------------------------------------------------

@dataclass
class ImageTruth:
    """What the generator knows about one image, for the oracle."""

    digest: bytes
    activation: float  # sum over blocks and kernels of rf * mask sum
    deltas: dict  # block key -> (signed mean, mean abs) of larger - smaller mask
    boxes: list = field(default_factory=list)  # (category, twice the area), valid boxes only
    malformed: int = 0
    degenerate: int = 0


def record_layout(cfg: dict) -> tuple[tuple[int, ...], dict[tuple[int, int], int]]:
    """Receptive fields and block -> side length of the masks a T-style
    backbone captures at the configured input size."""
    config = backbone.BackboneConfig.variant(cfg["variant"])
    side = cfg["size"] // 4
    blocks = {}
    for stage, depth in enumerate(config.depths, start=1):
        for d in range(1, depth + 1):
            blocks[(stage, d)] = side
        side //= 2
    return config.plan.rf_per_stage, blocks


def _record_digest(record) -> bytes:
    h = hashlib.blake2b()
    h.update(repr(tuple(record.rf)).encode())
    for key in record.block_keys():
        m = record.masks[key]
        h.update(repr((key, m.shape, m.dtype.str)).encode())
        h.update(np.ascontiguousarray(m).tobytes())
    return h.digest()


def make_image(rng: np.random.Generator, rf, blocks, size: int):
    """One synthetic record and its annotation text, plus the truth."""
    record = backbone.ActivationRecord(rf=tuple(rf))
    activation = 0.0
    deltas = {}
    for (stage, depth), side in blocks.items():
        m = rng.random((1, 2, side, side), dtype=np.float32)
        m[:, 1] = 0.1 * stage + 0.6 * m[:, 1]  # deeper blocks lean to the larger kernel
        record.masks[(stage, depth)] = m
        activation += sum(float(r) * float(m[:, n].sum(dtype=np.float64)) for n, r in enumerate(rf))
        delta = m[:, 1].astype(np.float64) - m[:, 0].astype(np.float64)
        deltas[(stage, depth)] = (float(delta.mean()), float(np.abs(delta).mean()))

    truth = ImageTruth(digest=_record_digest(record), activation=activation, deltas=deltas)
    lines = ["imagesource:GoogleEarth", f"gsd:{rng.uniform(0.1, 1.0):.6f}"]
    n_cat = 2 if rng.random() < 0.3 else 1
    cats = [CATEGORIES[int(c)] for c in rng.permutation(len(CATEGORIES))[:n_cat]]
    body = []
    for b in range(int(rng.integers(1, 9))):
        cat = cats[b % n_cat]
        x0, y0 = (int(v) for v in rng.integers(24, 24 + size // 2, 2))
        a, bb, c, d = (int(v) for v in rng.integers((4, 0, 0, 4), (40, 20, 20, 40)))
        if b > 0 and rng.random() < 0.05:
            c, d = -2 * a, 2 * bb  # collinear sides: a zero-area box
        pts = [(x0, y0), (x0 + a, y0 + bb), (x0 + a - c, y0 + bb + d), (x0 - c, y0 + d)]
        twice = abs(sum(pts[k][0] * pts[k - 3][1] - pts[k - 3][0] * pts[k][1] for k in range(4)))
        if twice == 0:
            truth.degenerate += 1
        else:
            truth.boxes.append((cat, twice))
        body.append(" ".join(f"{px}.0 {py}.0" for px, py in pts) + f" {cat} {int(rng.integers(0, 2))}")
    for _ in range(int(rng.integers(0, 3))):
        kind = int(rng.integers(0, 3))
        coords = " ".join(str(int(v)) + ".0" for v in rng.integers(0, size, 8))
        if kind == 0:
            bad = f"{coords} {CATEGORIES[0]}"  # difficulty missing
        elif kind == 1:
            bad = f"{coords[:-3]}x.5 {CATEGORIES[1]} 0"  # unparsable coordinate
        else:
            bad = f"{coords} {CATEGORIES[2]} 1.5"  # non-integer difficulty
        body.insert(int(rng.integers(0, len(body) + 1)), bad)
        truth.malformed += 1
    return record, "\n".join(lines + body) + "\n", truth


def _normalize(values: list[float]) -> list[float]:
    lo, hi = min(values), max(values)
    return [1.0] * len(values) if hi == lo else [(v - lo) / (hi - lo) for v in values]


def expected_rows(truths: list[ImageTruth]) -> tuple[list[list], list[list]]:
    """rc.csv and selection_diff.csv rows (without header) the corpus must give."""
    categories = sorted({c for t in truths for c, _ in t.boxes})
    rc, diff = [], []
    for cat in categories:
        eligible = [t for t in truths if t.boxes and all(c == cat for c, _ in t.boxes)]
        if not eligible:
            continue
        ratios = [t.activation / (sum(tw for _, tw in t.boxes) / 2) for t in eligible]
        rc.append([cat, math.fsum(ratios) / len(ratios), None, len(eligible)])
        keys = sorted(eligible[0].deltas)
        signed = [math.fsum(t.deltas[k][0] for t in eligible) / len(eligible) for k in keys]
        absolute = [math.fsum(t.deltas[k][1] for t in eligible) / len(eligible) for k in keys]
        for k, s, n, a in zip(keys, signed, _normalize(signed), absolute):
            diff.append([cat, f"B_{k[0]}_{k[1]}", s, n, a])
    for row, norm in zip(rc, _normalize([r[1] for r in rc])):
        row[2] = norm
    return rc, diff


def _rows_match(path: Path, header: tuple, expected: list[list]) -> bool:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != header or len(rows) - 1 != len(expected):
        return False
    for got, want in zip(rows[1:], expected):
        if len(got) != len(want):
            return False
        for g, w in zip(got, want):
            if isinstance(w, float):
                if not math.isclose(float(g), w, rel_tol=CSV_RTOL, abs_tol=CSV_ATOL):
                    return False
            elif g != str(w):
                return False
    return True


class AnalyzeWorkload:
    def __init__(self, cfg: dict, seed: int, work_dir: Path, reference: dict | None = None):
        self.cfg = cfg
        self.seed = seed
        self.work_dir = work_dir
        self.model_macs = 0
        self.calibrate = Calibrator()

    def prepare(self) -> None:
        self.rf, self.blocks = record_layout(self.cfg)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        # LSKT header (8 + 32 bytes) plus one mask plane per file, and the manifest
        self.file_sizes = [40 + 4 * side * side for side in self.blocks.values() for _ in self.rf] + [200]

    def warm_up(self) -> OpResult:
        return self._pass(0, WARM_IMAGES, 1)

    def operate(self, i: int) -> OpResult:
        return self._pass(i, self.cfg["images"], ANALYZE_REPS)

    def _pass(self, i: int, n: int, reps: int) -> OpResult:
        """Export ``n`` generated records, then run the analyze path ``reps``
        times over them."""
        root = self.work_dir / f"pass{i}"
        result = OpResult(n, 0, 0.0)
        try:
            truths = self._export(i, n, root, result)
            rows = expected_rows(truths)
            bad: set[int] = set()
            for _ in range(reps):
                bad |= self._analyze(i, root, truths, rows, result)
            result.failed = len(bad)
        except Exception as exc:  # the pass failed; keep measuring
            _fail(f"analysis pass {i}", exc)
            result.failed = n
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return result

    def _export(self, i: int, n: int, root: Path, result: OpResult) -> list[ImageTruth]:
        """Generate the pass's corpus; time save_record of every record."""
        (root / "annotations").mkdir(parents=True)
        truths, cals = [], []
        for j in range(n):
            if j % CAL_EVERY == 0:
                cals.append(self.calibrate.files(root / "calibration", self.file_sizes))
            rng = np.random.default_rng([CORPUS_TAG, self.seed, i, j])
            record, text, truth = make_image(rng, self.rf, self.blocks, self.cfg["size"])
            (root / "annotations" / f"img{j:04d}.txt").write_text(text)
            truths.append(truth)
            start = clock()
            fileio.save_record(record, root / "masks" / f"img{j:04d}")
            dt = clock() - start
            result.latencies.append(dt)
            result.timed_s += dt
        # file-creation speed shifts from pass to pass; every export of the
        # pass is calibrated by the median of the pass's calibrations
        result.latency_cals += [statistics.median(cals)] * n
        return truths

    def _analyze(self, i: int, root: Path, truths: list[ImageTruth], rows, result: OpResult) -> set[int]:
        """Time the ``lsk analyze`` path over the exported pass; return the
        indices of images whose output failed a check."""
        n = len(truths)
        cal = self.calibrate.records(root / "masks", CAL_RECORDS)
        start = clock()
        images, parsed = [], []
        for j in range(n):
            rec = fileio.load_record(root / "masks" / f"img{j:04d}")
            ann = analysis.parse_annotations((root / "annotations" / f"img{j:04d}.txt").read_text())
            images.append((rec, ann.boxes))
            parsed.append(ann)
        stats, diffs = analysis.analyze_images(images)
        rc_path, diff_path = analysis.emit_analysis(stats, diffs, root / "out")
        dt = clock() - start
        result.rates.append((n, dt, cal))
        result.timed_s += dt

        bad = set()
        for j, (truth, (rec, _), ann) in enumerate(zip(truths, images, parsed)):
            counts = (len(ann.boxes), ann.malformed_lines, ann.degenerate_boxes)
            if _record_digest(rec) != truth.digest or counts != (len(truth.boxes), truth.malformed, truth.degenerate):
                _fail(f"pass {i} image {j}: reloaded masks or parsed annotation counts differ")
                bad.add(j)
        if not (_rows_match(rc_path, analysis.RC_HEADER, rows[0])
                and _rows_match(diff_path, analysis.DIFF_HEADER, rows[1])):
            _fail(f"pass {i}: analysis CSV rows differ from the expected rows")
            bad.update(range(n))
        return bad


WORKLOADS = {"infer-T512": InferWorkload, "train-S128": TrainWorkload, "analyze-masks": AnalyzeWorkload}
REFERENCES = {"infer-T512": infer_reference, "train-S128": train_reference}


def make(name: str, seed: int, tiny: bool, work_dir: Path):
    cfg = SIZES[name][1 if tiny else 0]
    reference = None
    if name in REFERENCES:
        # the tiny size has no stored reference: compute it here, in float64
        reference = REFERENCES[name](cfg) if tiny else load_reference(name, cfg)
    return WORKLOADS[name](cfg, seed, work_dir, reference)
