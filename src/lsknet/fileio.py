"""Bit-exact binary formats plus PGM/PPM image ingestion.

Tensor files ("LSKT"): 8-byte magic ``LSKT0001``, four little-endian unsigned
64-bit dims (n, c, h, w), then n*c*h*w little-endian IEEE-754 float32 values
in row-major order.

Weight files ("LSKW"): 8-byte magic ``LSKW0001``, a little-endian unsigned
32-bit manifest byte length, a UTF-8 JSON manifest mapping dotted tensor
names to (byte offset, shape), then the contiguous float32 payload.

Both manifests (the LSKW one and a record directory's ``manifest.json``)
carry a ``format_version``; the readers refuse any version but 1, and a
manifest without the key reads as version 1.  Every number in a manifest
(the version, a tensor's offset and shape dims, a record's receptive fields
and block indices) must be a JSON integer: a bool, a float such as 4.0 or a
numeric string is a ManifestError that names the field.  A record's ``rf``
must strictly ascend, as every plan's receptive fields do.

Images: binary 8-bit PGM (P5) and PPM (P6) only; values are scaled to [0, 1]
and grayscale is replicated to three channels.

Readers never read past declared lengths; every malformed input maps to a
distinct error kind (bad magic, truncation, dim overflow, manifest problems);
a payload holding NaN or Inf is a format error.

Reading a tensor takes one open, one read of the 40-byte header and one
``readinto`` of the payload straight into the returned array, with no stat
before the open and no intermediate copy.  A record directory costs one read
of the manifest, then per mask file one unbuffered open, one 40-byte header
read and one ``readinto`` of the payload into its kernel's plane of one
(k, n, h, w) float32 array per block; the block's masks are that array's
(n, k, h, w) transpose (C-contiguous when n = 1).  The first file's header is
parsed by the same check as a tensor's, each later file's must equal it byte
for byte, and each block gets one finite check.  A manifest or mask file that
is missing, or is a directory, is a ManifestError or FormatError naming it.

Writing a record refuses, before any file is written, a block that is not 4-D,
does not hold one plane per receptive field, or holds values that are not
finite as float32: a FormatError naming the block, since the reader would
refuse the files or the record would lose planes.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Mapping

import numpy as np

from .backbone import MAX_ELEMENTS, ActivationRecord
from .errors import (
    BadMagicError,
    DimOverflowError,
    FormatError,
    ManifestError,
    TruncatedFileError,
)

__all__ = [
    "TENSOR_MAGIC",
    "WEIGHTS_MAGIC",
    "Manifest",
    "read_tensor",
    "write_tensor",
    "read_weights",
    "write_weights",
    "read_image",
    "save_record",
    "load_record",
]

TENSOR_MAGIC = b"LSKT0001"
WEIGHTS_MAGIC = b"LSKW0001"
FORMAT_VERSION = 1  # the one manifest layout the readers know; a missing key means 1
_F4 = np.dtype("<f4")
_TENSOR_HEADER = 40  # magic plus four u64 dims


def _read_exact(fh: BinaryIO, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise TruncatedFileError(f"truncated while reading {what}: wanted {count} bytes, got {len(data)}")
    return data


def _open(target, mode: str, buffering: int = -1):
    if isinstance(target, (str, Path)):
        return open(target, mode, buffering=buffering), True
    return target, False


def _readinto_exact(fh: BinaryIO, out: np.ndarray, what: str) -> None:
    """Fill ``out`` from ``fh``; one ``readinto`` unless the read comes back
    short (a truncated file, or a payload above one system call's limit)."""
    got = fh.readinto(out) or 0
    if got < out.nbytes:
        view = memoryview(out).cast("B")
        while got < len(view) and (n := fh.readinto(view[got:])):
            got += n
        if got < len(view):
            raise TruncatedFileError(f"truncated while reading {what}: wanted {len(view)} bytes, got {got}")


def _json_int(value, what: str) -> int:
    """Return ``value`` if it is a JSON integer.  ``int()`` would truncate a
    float, read ``true`` as 1 and parse a numeric string."""
    if type(value) is not int:
        raise ManifestError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    """Return ``arr``; a payload holding NaN or Inf is a format error."""
    if not np.isfinite(arr).all():
        raise FormatError(f"{what}: payload holds NaN or Inf values")
    return arr


# ---------------------------------------------------------------------------
# LSKT tensors
# ---------------------------------------------------------------------------

def write_tensor(target, x: np.ndarray) -> None:
    """Write a rank-4 float array as an LSKT file (path or binary stream)."""
    if x.ndim != 4:
        raise FormatError(f"write_tensor: expected rank-4 array, got shape {x.shape}")
    fh, owned = _open(target, "wb")
    try:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<4Q", *x.shape))
        fh.write(np.ascontiguousarray(x, dtype=_F4))
    finally:
        if owned:
            fh.close()


def _tensor_dims(header: bytes, what: str) -> tuple[int, int, int, int]:
    """The dims of a 40-byte LSKT header, checked: magic, length, every dim
    at least 1 and the element count within ``MAX_ELEMENTS``."""
    magic = header[:8]
    if len(magic) != 8:
        raise TruncatedFileError(f"{what}: truncated while reading magic: wanted 8 bytes, got {len(magic)}")
    if magic != TENSOR_MAGIC:
        raise BadMagicError(f"{what}: not a tensor file: magic {magic!r}")
    if len(header) != _TENSOR_HEADER:
        raise TruncatedFileError(f"{what}: truncated while reading dims: wanted 32 bytes, got {len(header) - 8}")
    dims = struct.unpack_from("<4Q", header, 8)
    if min(dims) < 1:
        raise DimOverflowError(f"{what}: invalid dims {dims}: all must be >= 1")
    count = math.prod(dims)
    if count > MAX_ELEMENTS:
        raise DimOverflowError(f"{what}: dims {dims} declare {count} elements (limit {MAX_ELEMENTS})")
    return dims


def read_tensor(target, expected_shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Read an LSKT file back into a float32 (n, c, h, w) array."""
    fh, owned = _open(target, "rb", buffering=0)
    what = f"tensor {target if owned else 'stream'}"
    try:
        dims = _tensor_dims(fh.read(_TENSOR_HEADER), what)
        if expected_shape is not None and tuple(dims) != tuple(expected_shape):
            raise FormatError(f"tensor shape {dims} does not match expected {tuple(expected_shape)}")
        out = np.empty(dims, dtype=_F4)
        _readinto_exact(fh, out, f"{what} payload")
        return _finite(out, what)
    finally:
        if owned:
            fh.close()


# ---------------------------------------------------------------------------
# LSKW weight files
# ---------------------------------------------------------------------------

@dataclass
class Manifest:
    """Ordered name -> (byte offset, shape) directory of a weight file."""

    entries: dict[str, tuple[int, tuple[int, ...]]]
    format_version: int = FORMAT_VERSION


def write_weights(target, arrays: Mapping[str, np.ndarray]) -> Manifest:
    """Write named float arrays contiguously; returns the manifest written.
    The offsets come from the shapes, and each tensor is written from its own
    float32 array, so at most one converted copy is held at a time."""
    entries: dict[str, tuple[int, tuple[int, ...]]] = {}
    offset = 0
    for name, arr in arrays.items():
        entries[name] = (offset, tuple(arr.shape))
        offset += math.prod(arr.shape) * _F4.itemsize
    manifest = Manifest(entries=entries)
    doc = {
        "format_version": manifest.format_version,
        "entries": [
            {"name": name, "offset": off, "shape": list(shape)}
            for name, (off, shape) in entries.items()
        ],
    }
    payload = json.dumps(doc).encode("utf-8")
    fh, owned = _open(target, "wb")
    try:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype=_F4))
    finally:
        if owned:
            fh.close()
    return manifest


def read_weights(target) -> tuple[dict[str, np.ndarray], Manifest]:
    """Read a weight file into an ordered name -> float32 array map; each
    tensor is read with one ``readinto`` straight into its own array."""
    fh, owned = _open(target, "rb", buffering=0)
    try:
        magic = _read_exact(fh, 8, "magic")
        if magic != WEIGHTS_MAGIC:
            raise BadMagicError(f"not a weights file: magic {magic!r}")
        (manifest_len,) = struct.unpack("<I", _read_exact(fh, 4, "manifest length"))
        manifest_raw = _read_exact(fh, manifest_len, "manifest")
        try:
            doc = json.loads(manifest_raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ManifestError(f"manifest is not valid UTF-8 JSON: {exc}") from exc
        if not isinstance(doc, dict) or "entries" not in doc:
            raise ManifestError("manifest missing 'entries'")
        where = f"weights {target if owned else 'stream'}"
        version = _json_int(doc.get("format_version", FORMAT_VERSION), f"{where}: format_version")
        if version != FORMAT_VERSION:
            raise ManifestError(f"{where}: unsupported format_version {version!r}")
        start = fh.tell()
        payload_len = fh.seek(0, os.SEEK_END) - start

        entries: dict[str, tuple[int, tuple[int, ...]]] = {}
        spans: list[tuple[int, int, str]] = []
        for item in doc["entries"]:
            try:
                name = item["name"]
                if not isinstance(name, str):
                    raise ManifestError(f"manifest entry {item!r}: name {name!r} is not a string")
                offset = _json_int(item["offset"], f"tensor {name!r}: offset")
                shape = tuple(_json_int(s, f"tensor {name!r}: shape dim") for s in item["shape"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ManifestError(f"malformed manifest entry {item!r}") from exc
            if name in entries:
                raise ManifestError(f"duplicate tensor name {name!r}")
            if not shape or any(s < 1 for s in shape) or len(shape) > 4:
                raise DimOverflowError(f"tensor {name!r}: invalid shape {shape}")
            count = math.prod(shape)
            if count > MAX_ELEMENTS:
                raise DimOverflowError(f"tensor {name!r}: {count} elements exceeds limit")
            end = offset + count * 4
            if offset < 0 or end > payload_len:
                raise TruncatedFileError(
                    f"tensor {name!r}: extent [{offset}, {end}) outside payload of {payload_len} bytes"
                )
            entries[name] = (offset, shape)
            spans.append((offset, end, name))
        spans.sort()
        for (s0, e0, n0), (s1, _e1, n1) in zip(spans, spans[1:]):
            if s1 < e0:
                raise ManifestError(f"tensors {n0!r} and {n1!r} overlap in the payload")

        arrays = {}
        for name, (off, shape) in entries.items():
            out = np.empty(shape, dtype=_F4)
            fh.seek(start + off)
            _readinto_exact(fh, out, f"tensor {name!r}")
            arrays[name] = _finite(out, f"tensor {name!r}")
        return arrays, Manifest(entries=entries, format_version=version)
    finally:
        if owned:
            fh.close()


# ---------------------------------------------------------------------------
# PGM / PPM images
# ---------------------------------------------------------------------------

def read_image(target) -> np.ndarray:
    """Read a binary P5/P6 image into a (1, 3, h, w) float32 tensor in [0, 1]."""
    fh, owned = _open(target, "rb")
    try:
        data = fh.read()
    finally:
        if owned:
            fh.close()
    if len(data) < 2 or data[:2] not in (b"P5", b"P6"):
        raise BadMagicError(f"not a binary PGM/PPM: starts with {data[:2]!r}")
    kind = data[:2]

    pos = 2
    tokens: list[int] = []
    while len(tokens) < 3:
        if pos >= len(data):
            raise TruncatedFileError("image header ended before width/height/maxval")
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            token = data[start:pos]
            if not token.isdigit():
                raise FormatError(f"non-numeric header token {token!r}")
            tokens.append(int(token))
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = tokens
    if width < 1 or height < 1:
        raise DimOverflowError(f"invalid image size {width}x{height}")
    if not 0 < maxval <= 255:
        raise FormatError(f"only 8-bit images supported, maxval={maxval}")
    n_channels = 1 if kind == b"P5" else 3
    need = width * height * n_channels
    raw = data[pos : pos + need]
    if len(raw) != need:
        raise TruncatedFileError(f"image payload: wanted {need} bytes, got {len(raw)}")
    pixels = np.frombuffer(raw, dtype=np.uint8).astype(np.float32) / np.float32(maxval)
    if kind == b"P5":
        plane = pixels.reshape(1, 1, height, width)
        return np.repeat(plane, 3, axis=1)
    return pixels.reshape(1, height, width, 3).transpose(0, 3, 1, 2).copy()


# ---------------------------------------------------------------------------
# activation-record directories (mask export for the analysis pipeline)
# ---------------------------------------------------------------------------

RECORD_MANIFEST = "manifest.json"


def save_record(record: ActivationRecord, directory: str | Path) -> list[Path]:
    """Write one LSKT file per (block, kernel) mask: ``B_<stage>_<depth>_<n>``.

    A manifest.json carries the per-kernel receptive fields and block keys so
    the analysis stage can rebuild the record.  Before any file is written,
    every block must be a 4-D (n, len(rf), h, w) stack whose values are
    finite as float32; otherwise it is a FormatError naming the block, since
    :func:`load_record` would refuse the files or drop planes.
    """
    blocks = {}
    for key, masks in sorted(record.masks.items()):
        block = record.key_name(key)
        if masks.ndim != 4 or masks.shape[1] != record.n_kernels or min(masks.shape) < 1:
            raise FormatError(
                f"save_record: block {block} has masks of shape {masks.shape}, "
                f"want (n, {record.n_kernels}, h, w) for rf {list(record.rf)}"
            )
        if masks.dtype != _F4:  # converted once per block; an overflow reads as Inf below
            with np.errstate(over="ignore"):
                masks = masks.astype(_F4)
        if not np.isfinite(masks).all():
            raise FormatError(f"save_record: block {block} holds NaN or Inf values (as float32)")
        blocks[block] = masks
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for block, masks in blocks.items():
        for n_idx in range(record.n_kernels):
            path = out / f"{block}_{n_idx + 1}.lskt"
            write_tensor(path, masks[:, n_idx : n_idx + 1])
            written.append(path)
    doc = {
        "format_version": FORMAT_VERSION,
        "rf": list(record.rf),
        "blocks": [[s, d] for s, d in sorted(record.masks.keys())],
    }
    (out / RECORD_MANIFEST).write_text(json.dumps(doc, indent=1))
    return written


def load_record(directory: str | Path) -> ActivationRecord:
    """Rebuild an activation record from a mask directory.

    Every mask file of a block must hold one (n, 1, h, w) plane of the same
    shape; the manifest must list at least one positive receptive field and
    each block once.  Every manifest number must be a JSON integer, block
    indices must be positive and ``rf`` must strictly ascend.

    A block's k files are read straight into one (k, n, h, w) array, whose
    (n, k, h, w) transpose becomes the block's masks.  The first file's
    header sets the block's shape; every later file's header must equal it
    byte for byte, and only a header that differs is parsed, to name what is
    wrong with it.
    """
    src = Path(directory)
    try:
        text = (src / RECORD_MANIFEST).read_text()
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise ManifestError(f"no {RECORD_MANIFEST} in {src}") from exc
    where = f"record manifest in {src}"
    try:
        doc = json.loads(text)
        rf = tuple(_json_int(v, f"{where}: rf value") for v in doc["rf"])
        blocks = [tuple(_json_int(i, f"{where}: block index") for i in pair) for pair in doc["blocks"]]
        version = _json_int(doc.get("format_version", FORMAT_VERSION), f"{where}: format_version")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"malformed record manifest in {src}: {exc}") from exc
    if version != FORMAT_VERSION:
        raise ManifestError(f"{where}: unsupported format_version {version!r}")
    if not rf or min(rf) < 1:
        raise ManifestError(f"{where}: rf {list(rf)} must list positive receptive fields")
    if any(a >= b for a, b in zip(rf, rf[1:])):
        raise ManifestError(f"{where}: rf {list(rf)} must strictly ascend")
    if any(len(key) != 2 or min(key) < 1 for key in blocks):
        raise ManifestError(f"{where}: blocks {doc['blocks']} must be pairs of positive indices")
    record = ActivationRecord(rf=rf)
    # joining strings, not Paths: a Path join costs a third of a mask read
    folder = str(src)
    base = os.path.join(folder, "")
    for stage, depth in blocks:
        if (stage, depth) in record.masks:
            raise ManifestError(f"{where}: block ({stage}, {depth}) is listed twice")
        block = record.key_name((stage, depth))
        names = [f"{block}_{n_idx + 1}.lskt" for n_idx in range(len(rf))]
        planes = first = None
        for plane, name in enumerate(names):
            what = f"mask file {name} in {folder}"
            try:
                fh = open(base + name, "rb", buffering=0)
            except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
                raise FormatError(f"missing {what}") from exc
            with fh:
                header = fh.read(_TENSOR_HEADER)
                if header != first:
                    # the first header, or a later one that is bound to fail
                    dims = _tensor_dims(header, what)
                    want = (dims[0], 1, *dims[2:]) if planes is None else (planes.shape[1], 1, *planes.shape[2:])
                    if planes is not None or dims != want:
                        raise FormatError(
                            f"block ({stage}, {depth}) in {folder}: mask file {name} has shape {dims}, want {want}"
                        )
                    first, planes = header, np.empty((len(rf), dims[0], *dims[2:]), dtype=_F4)
                _readinto_exact(fh, planes[plane], what)
        if not np.isfinite(planes).all():  # then find the file to name
            for name, plane in zip(names, planes):
                _finite(plane, f"mask file {name} in {folder}")
        record.masks[(stage, depth)] = planes.transpose(1, 0, 2, 3)
    return record
