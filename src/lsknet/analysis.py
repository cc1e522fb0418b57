"""Selection-behavior analysis over captured activation records.

Two metrics, computed per object category from oriented-box annotations:

* the ratio of expected selective receptive-field area to ground-truth box
  area: per image, sum over blocks and kernel branches of (branch RF times
  the spatial sum of its selection mask), divided by the total annotated box
  area; averaged over the images that contain that category only and
  whose boxes have a positive total area;
* the per-block kernel selection difference for two-kernel plans: the mean
  (larger-kernel mask minus smaller-kernel mask), kept signed, with the mean
  absolute difference alongside, over the same images as the ratio.

Both are reported raw and min-max normalized (a singleton or all-equal set
normalizes to 1.0 by convention).  Masks are summed at each block's native
resolution; no rescaling across block resolutions is applied.

:func:`analyze_images` finds each category's eligible images in one scan and
reduces each record once, in float64, into both its RF-weighted activation
sum and every block's signed and absolute difference.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .backbone import ActivationRecord
from .errors import AnalysisError

__all__ = [
    "OrientedBox",
    "ParseResult",
    "CategoryStats",
    "BlockSelectionDiff",
    "parse_annotations",
    "polygon_area",
    "compute_selection_diff",
    "analyze_images",
    "emit_analysis",
]

log = logging.getLogger(__name__)

RC_HEADER = ("category", "r_c_raw", "r_c_norm", "images")
DIFF_HEADER = ("category", "block", "delta_raw", "delta_norm", "delta_abs")


@dataclass
class OrientedBox:
    """Quadrilateral ground-truth annotation with a category label."""

    vertices: np.ndarray  # (4, 2) float64 pixel coordinates
    category: str
    difficulty: int = 0

    @cached_property
    def area(self) -> float:
        """Shoelace area, computed on first use and kept."""
        return polygon_area(self.vertices)


@dataclass
class ParseResult:
    boxes: list[OrientedBox]
    malformed_lines: int = 0
    degenerate_boxes: int = 0


def polygon_area(vertices: np.ndarray) -> float:
    """Absolute shoelace area of a 4-vertex polygon."""
    v = np.asarray(vertices, dtype=np.float64)
    if v.shape != (4, 2):
        raise AnalysisError(f"polygon_area: expected 4 (x, y) vertices, got shape {v.shape}")
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = v.tolist()
    twice = (x0 * y1 - x1 * y0) + (x1 * y2 - x2 * y1) + (x2 * y3 - x3 * y2) + (x3 * y0 - x0 * y3)
    return abs(twice) / 2.0


def parse_annotations(text: str) -> ParseResult:
    """Parse oriented-box annotation text, one box per line.

    Expected line layout: eight reals (four x,y vertices), a category token
    and an integer difficulty flag.  Header lines whose first token is not
    numeric are skipped silently; lines with the wrong token count,
    unparsable numbers, a coordinate or difficulty written with an underscore
    or a non-ASCII digit (forms ``float`` and ``int`` accept, such as ``1_0``)
    or a NaN or infinite coordinate count as malformed; the category token
    may be any text.  Boxes with zero area are dropped and counted as
    degenerate.  One leading byte-order mark (U+FEFF) is ignored.
    """
    result = ParseResult(boxes=[])
    for raw in text.removeprefix("\ufeff").splitlines():
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            float(tokens[0])
        except ValueError:
            continue  # metadata header such as image source or resolution
        if len(tokens) != 10:
            result.malformed_lines += 1
            continue
        numerals = "".join(tokens[:8]) + tokens[9]
        if "_" in numerals or not numerals.isascii():
            result.malformed_lines += 1
            continue
        try:
            coords = [float(t) for t in tokens[:8]]
            difficulty = int(tokens[9])
        except ValueError:
            result.malformed_lines += 1
            continue
        if not all(map(math.isfinite, coords)):
            result.malformed_lines += 1
            continue
        vertices = np.asarray(coords, dtype=np.float64).reshape(4, 2)
        box = OrientedBox(vertices=vertices, category=tokens[8], difficulty=difficulty)
        if box.area <= 0.0:
            result.degenerate_boxes += 1
            continue
        result.boxes.append(box)
    return result


@dataclass
class CategoryStats:
    category: str
    r_c_raw: float
    r_c_normalized: float
    image_count: int


@dataclass
class BlockSelectionDiff:
    block_key: tuple[int, int]
    delta_raw: float  # signed mean (larger - smaller)
    delta_normalized: float
    delta_abs: float  # mean |larger - smaller|


def _record_terms(record: ActivationRecord) -> tuple[float, list[tuple[float, float]] | None]:
    """Reduce one image's record in float64, in one pass over its masks.

    Returns the activation sum (over blocks and kernels of RF_n times the
    spatial sum of mask n) and, for a two-kernel record, the signed and
    absolute mean of (larger - smaller) per block in ``block_keys()`` order.
    The masks are laid out kernel-major in one buffer of this record only, so
    every block's sums come from one ``reduceat``.
    """
    keys = record.block_keys()
    sizes = [record.masks[key][:, 0].size for key in keys]
    starts = np.cumsum([0, *sizes], dtype=np.intp)[:-1]
    flat = np.empty((record.n_kernels, sum(sizes)))
    for key, start, size in zip(keys, starts, sizes):
        masks = record.masks[key]
        if masks.shape[1] != record.n_kernels:
            raise AnalysisError(
                f"block {key}: {masks.shape[1]} mask(s) for {record.n_kernels} receptive field(s)"
            )
        planes = masks.swapaxes(0, 1)  # (kernels, n, h, w)
        flat[:, start : start + size].reshape(planes.shape)[...] = planes
    activation = 0.0
    for block_sums in np.add.reduceat(flat, starts, axis=1).T.tolist():
        for rf, total in zip(record.rf, block_sums):
            activation += rf * total
    if record.n_kernels != 2:
        return activation, None
    delta = np.subtract(flat[1], flat[0], out=flat[1])
    signed = np.add.reduceat(delta, starts).tolist()
    absolute = np.add.reduceat(np.abs(delta, out=delta), starts).tolist()
    return activation, [(s / n, a / n) for s, a, n in zip(signed, absolute, sizes)]


def _normalize(values: Sequence[float]) -> list[float]:
    """Min-max to [0, 1]; singleton or all-equal sets map to 1.0."""
    if not values:
        return []
    lo, hi = min(values), max(values)
    if hi == lo:
        return [1.0] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def _selection_diffs(
    category: str,
    records: Sequence[ActivationRecord],
    deltas: Sequence[list[tuple[float, float]] | None],
) -> list[BlockSelectionDiff]:
    """Average each block's per-record (signed, absolute) differences over
    the records, then min-max normalize the signed means across blocks."""
    if not records:
        raise AnalysisError(f"category {category!r}: no records to analyse")
    for rec in records:
        if rec.n_kernels != 2:
            raise AnalysisError(
                f"kernel selection difference needs a 2-kernel plan, record has {rec.n_kernels}"
            )
    keys = records[0].block_keys()
    for rec in records[1:]:
        if rec.block_keys() != keys:
            raise AnalysisError(f"category {category!r}: records disagree on block keys {keys} and {rec.block_keys()}")
    diffs = [
        BlockSelectionDiff(
            block_key=key,
            delta_raw=float(np.mean([d[b][0] for d in deltas])),
            delta_normalized=1.0,
            delta_abs=float(np.mean([d[b][1] for d in deltas])),
        )
        for b, key in enumerate(keys)
    ]
    for d, norm in zip(diffs, _normalize([d.delta_raw for d in diffs])):
        d.delta_normalized = norm
    return diffs


def analyze_images(
    images: Sequence[tuple[ActivationRecord, Sequence[OrientedBox]]],
) -> tuple[list[CategoryStats], dict[str, list[BlockSelectionDiff]]]:
    """R_c per category, min-max normalized across the reported set, and the
    per-block selection differences of every category recorded with a
    2-kernel plan.

    An image counts for a category only when every box it contains is of
    that category (single-category images) and their total area is positive;
    one such set serves both metrics.  Each eligible record is reduced once.
    """
    eligible: dict[str, list[tuple[ActivationRecord, float]]] = {}
    for rec, boxes in images:
        if boxes and all(b.category == boxes[0].category for b in boxes):
            area = sum(b.area for b in boxes)
            if area <= 0.0:
                log.warning("category %s: image with zero annotated area skipped", boxes[0].category)
                continue
            eligible.setdefault(boxes[0].category, []).append((rec, area))
    stats: list[CategoryStats] = []
    diffs: dict[str, list[BlockSelectionDiff]] = {}
    for category in sorted({b.category for _, boxes in images for b in boxes}):
        pairs = eligible.get(category, [])
        if not pairs:
            log.info("category %s excluded: no eligible single-category images", category)
            continue
        counts = sorted({rec.n_kernels for rec, _ in pairs})
        if len(counts) > 1:  # one count decides whether differences are computed, in any image order
            raise AnalysisError(f"category {category!r}: records hold different kernel counts {counts}")
        terms = [_record_terms(rec) for rec, _ in pairs]
        raw = float(np.mean([t[0] / area for t, (_, area) in zip(terms, pairs)]))
        stats.append(
            CategoryStats(category=category, r_c_raw=raw, r_c_normalized=1.0, image_count=len(pairs))
        )
        if counts == [2]:
            diffs[category] = _selection_diffs(category, [rec for rec, _ in pairs], [t[1] for t in terms])
    for s, norm in zip(stats, _normalize([s.r_c_raw for s in stats])):
        s.r_c_normalized = norm
    return stats, diffs


def compute_selection_diff(
    records: Sequence[ActivationRecord], category: str
) -> list[BlockSelectionDiff]:
    """Per-block kernel selection difference for a category's image records.

    Only two-kernel plans are supported: mask index 0 is the smaller-RF
    branch, index 1 the larger.  ``records`` must already be restricted to
    the category's eligible images (same rule as :func:`analyze_images`).
    """
    return _selection_diffs(category, records, [_record_terms(rec)[1] for rec in records])


def emit_analysis(
    stats: Sequence[CategoryStats],
    diffs: Mapping[str, Sequence[BlockSelectionDiff]],
    out_dir: str | Path,
) -> tuple[Path, Path]:
    """Write the two CSV documents; deterministic lexicographic row order."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rc_path = out / "rc.csv"
    diff_path = out / "selection_diff.csv"

    with rc_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RC_HEADER)
        for s in sorted(stats, key=lambda s: s.category):
            writer.writerow([s.category, repr(float(s.r_c_raw)), repr(float(s.r_c_normalized)), s.image_count])

    with diff_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DIFF_HEADER)
        for category in sorted(diffs):
            for d in sorted(diffs[category], key=lambda d: d.block_key):
                writer.writerow(
                    [
                        category,
                        ActivationRecord.key_name(d.block_key),
                        repr(float(d.delta_raw)),
                        repr(float(d.delta_normalized)),
                        repr(float(d.delta_abs)),
                    ]
                )
    return rc_path, diff_path
