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
a payload holding NaN or Inf is a format error, found by one chunked check.
No reader allocates a length a file declares before checking it against the
bytes left: a tensor or weights file's, path or stream, by one seek to its
end and back, a mask file's by ``os.fstat`` of its descriptor.  A tensor
stream that cannot seek is read in bounded chunks; a weights file that
cannot seek (a pipe) is a FormatError, as its tensors are read at their
offsets.

Tensor and weight paths are opened by one helper and closed on exit (reads
unbuffered, writes buffered); a stream is used as given and left open.  Every
reader error names the path, or ``stream``.  Every read is first one direct
call: a tensor is one read of its 40-byte header and one ``readinto``
straight into the returned array; a record is ``os.read`` of its manifest to
the end, then per mask file one ``os.open``, one ``os.readv`` and one
``os.close`` (a block's first file reads its header alone, as it sets the
block's shape, and takes one ``os.fstat`` to check its size against it).
Only a short read (a truncated file, a pipe, or a payload above one system
call's limit) enters the one fill loop, so a record of B blocks of k kernels
takes 2 + B * (k + 1) reads.

A record is written the same way: per file one ``os.open``, one
``os.writev`` (of the block's 40-byte header, built once, and the plane, or
of the manifest) and one ``os.close``, so a record of B blocks of k kernels
takes B * k + 1 of each.  Only a short write enters a loop.  An existing
manifest is removed before the first mask file is written and the new one is
written last, so a save that fails part way leaves a directory that
:func:`load_record` refuses, not a mix of old and new planes that it would
read.  ``os.readv`` and ``os.writev`` exist on POSIX only, so loading and
saving a record need them.

Writing refuses what the readers refuse, before any byte is written or any
path created: values that are not finite as float32 (NaN, Inf, or a float64
past float32's range) are a FormatError naming the tensor, the weight entry
or the record's block.  A record's manifest must pass the reader's checks
and each block be 4-D with one plane per receptive field, else the reader
would refuse the files or drop planes; the planes are then written unchecked.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import nullcontext
from pathlib import Path
from typing import Mapping

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
_FINITE_CHUNK = 1 << 16  # values per finiteness check
_READ_CHUNK = 1 << 14  # bytes per read of a stream that cannot seek
_MANIFEST_CHUNK = 1 << 12  # bytes per read of a record manifest, a few hundred long
WeightEntries = dict[str, tuple[int, tuple[int, ...]]]  # name -> (byte offset, shape), in file order


def _opened(target, mode: str):
    """``target`` ready for ``with``: a path opened (reads unbuffered, writes
    buffered) and closed on exit, or a stream as given and left open."""
    if isinstance(target, (str, Path)):
        return open(target, mode, buffering=0 if "r" in mode else -1)
    return nullcontext(target)


def _name(target) -> str:
    """How a reader's errors name ``target``: its path, or ``stream``."""
    return target if isinstance(target, (str, Path)) else "stream"


def _fill(read, buffers, got: int = 0) -> int:
    """Read on into ``buffers``, in order, past the ``got`` bytes they hold,
    until they are full or the source ends; return the bytes they then hold.
    ``read`` fills the start of one byte view and returns its count (0 or None
    at the end): a stream's ``readinto``, or ``os.readv`` of the one view."""
    done = 0  # the bytes held by the buffers before this one
    for buf in buffers:
        view = memoryview(buf).cast("B")
        held = min(max(got - done, 0), len(view))
        while held < len(view) and (n := read(view[held:])):
            held += n
        done += held
        if held < len(view):  # the source ended
            break
    return done


def _read_full(read, src, buffers, want: int) -> int:
    """Read ``buffers`` full from ``src`` and return the bytes read, fewer than
    ``want`` only if ``src`` ended.  ``read(src, buffers)`` is ``os.readv`` on
    a descriptor, or a stream's ``readinto`` of its one buffer.  One direct
    call reads all the buffers; only a short one enters the fill loop, whose
    byte views cost numpy memory per array."""
    got = read(src, buffers) or 0
    if got < want:
        got = _fill(lambda view: read(src, (view,)), buffers, got)
    return got


def _read_stream(fh, buf, what: str):
    """Fill ``buf``, a bytearray or an array, from the stream ``fh`` and return
    it; a stream ending sooner is a truncated ``what``."""
    want = buf.nbytes if isinstance(buf, np.ndarray) else len(buf)
    got = _read_full(lambda stream, bufs: stream.readinto(*bufs), fh, (buf,), want)
    if got < want:
        raise _truncated(what, want, got)
    return buf


def _truncated(what: str, want: int, got: int) -> TruncatedFileError:
    return TruncatedFileError(f"truncated while reading {what}: wanted {want} bytes, got {got}")


def _json_int(value, where: str, field: str) -> int:
    """Return ``value`` if it is a JSON integer.  ``int()`` would truncate a
    float, read ``true`` as 1 and parse a numeric string.  The message naming
    ``where`` and ``field`` is built only when the check fails."""
    if type(value) is not int:
        raise ManifestError(f"{where}: {field} must be a JSON integer, got {value!r}")
    return value


def _manifest(raw, where: str, malformed: str) -> dict:
    """Decode a manifest: UTF-8 JSON (else ``malformed: <reason>``), an
    object, and a ``format_version`` that is a JSON integer and 1; a missing
    key reads as 1.  ``where`` names the file in the other errors."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError(f"{malformed}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"{malformed}: not a JSON object")
    version = _json_int(doc.get("format_version", FORMAT_VERSION), where, "format_version")
    if version != FORMAT_VERSION:
        raise ManifestError(f"{where}: unsupported format_version {version!r}")
    return doc


def _float32(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` as a C-contiguous float32 array checked by :func:`_finite`;
    with that chunked check a writer holds no copy of a float32 tensor."""
    if arr.dtype == _F4:  # numpy's error state costs about 1 us per call
        out = np.ascontiguousarray(arr)
    else:
        with np.errstate(over="ignore"):  # an overflow reads as Inf below
            out = np.ascontiguousarray(arr, dtype=_F4)
    return _finite(out, what)


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    """Return the C-contiguous float32 ``arr``; a NaN or Inf in it is a
    FormatError naming ``what``.  The check reads ``_FINITE_CHUNK`` values at
    a time, so its boolean mask stays small beside the array."""
    flat = arr.reshape(-1)
    for i in range(0, flat.size, _FINITE_CHUNK):
        if not np.isfinite(flat[i : i + _FINITE_CHUNK]).all():
            raise FormatError(f"{what} holds NaN or Inf values (as float32)")
    return arr


# ---------------------------------------------------------------------------
# LSKT tensors
# ---------------------------------------------------------------------------

def write_tensor(target, x: np.ndarray) -> None:
    """Write a rank-4 float array, finite as float32, as an LSKT file (path or
    binary stream)."""
    if x.ndim != 4:
        raise FormatError(f"write_tensor: expected rank-4 array, got shape {x.shape}")
    x = _float32(x, f"write_tensor: tensor {_name(target)}")
    with _opened(target, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<4Q", *x.shape))
        fh.write(x)


def _tensor_dims(header: bytes, what: str) -> tuple[int, int, int, int]:
    """The dims of a 40-byte LSKT header, checked: magic, length, every dim
    at least 1 and the element count within ``MAX_ELEMENTS``."""
    magic = bytes(header[:8])
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


def _bytes_left(fh) -> int | None:
    """The bytes after ``fh``'s position, found by one seek to its end and
    back, or None if it cannot seek (a pipe)."""
    if not fh.seekable():
        return None
    here = fh.tell()
    end = fh.seek(0, os.SEEK_END)
    fh.seek(here)
    return end - here


def read_tensor(target) -> np.ndarray:
    """Read an LSKT file back into a float32 (n, c, h, w) array."""
    what = f"tensor {_name(target)}"
    with _opened(target, "rb") as fh:
        header = bytearray(_TENSOR_HEADER)
        got = _fill(fh.readinto, (header,))
        dims = _tensor_dims(header[:got], what)
        want = math.prod(dims) * _F4.itemsize
        left = _bytes_left(fh)
        if left is None:  # grown a chunk at a time, so a stream that ends early costs what it held
            buf = bytearray()
            while len(buf) < want and (chunk := fh.read(min(_READ_CHUNK, want - len(buf)))):
                buf += chunk
            if len(buf) < want:
                raise _truncated(f"{what} payload", want, len(buf))
            out = np.frombuffer(buf, dtype=_F4).reshape(dims)
        elif left < want:  # checked before an array of the size the header claims is made
            raise _truncated(f"{what} payload", want, left)
        else:
            out = _read_stream(fh, np.empty(dims, dtype=_F4), f"{what} payload")
    return _finite(out, what)


# ---------------------------------------------------------------------------
# LSKW weight files
# ---------------------------------------------------------------------------

def write_weights(target, arrays: Mapping[str, np.ndarray]) -> WeightEntries:
    """Write named float arrays contiguously; returns the manifest's entries.
    The offsets come from the shapes, and each tensor is written from its own
    float32 array, so at most one converted copy is held at a time; every
    array is checked finite as float32 before the first byte is written."""
    entries: WeightEntries = {}
    offset = 0
    for name, arr in arrays.items():
        _float32(arr, f"write_weights: entry {name!r}")
        entries[name] = (offset, tuple(arr.shape))
        offset += math.prod(arr.shape) * _F4.itemsize
    doc = {
        "format_version": FORMAT_VERSION,
        "entries": [
            {"name": name, "offset": off, "shape": list(shape)}
            for name, (off, shape) in entries.items()
        ],
    }
    payload = json.dumps(doc).encode("utf-8")
    with _opened(target, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype=_F4))
    return entries


def read_weights(target) -> tuple[dict[str, np.ndarray], WeightEntries]:
    """Read a weight file: its name -> float32 array map and its manifest's
    entries, in file order; each tensor is one ``readinto`` into its own array."""
    where = f"weights {_name(target)}"
    with _opened(target, "rb") as fh:
        magic = bytes(_read_stream(fh, bytearray(8), f"{where} magic"))
        if magic != WEIGHTS_MAGIC:
            raise BadMagicError(f"{where}: not a weights file: magic {magic!r}")
        (manifest_len,) = struct.unpack("<I", _read_stream(fh, bytearray(4), f"{where} manifest length"))
        left = _bytes_left(fh)
        if left is None:
            raise FormatError(f"{where}: tensors are read at their offsets, so the file must be seekable")
        start = fh.tell()
        if manifest_len > left:  # checked before a buffer of the length the file claims is made
            raise _truncated(f"{where} manifest", manifest_len, left)
        manifest_raw = _read_stream(fh, bytearray(manifest_len), f"{where} manifest")
        doc = _manifest(manifest_raw, where, f"{where}: manifest is not valid UTF-8 JSON")
        if not isinstance(doc.get("entries"), list):  # absent, or nothing to iterate
            raise ManifestError(f"{where}: manifest missing 'entries'")
        start += manifest_len
        payload_len = left - manifest_len

        entries: WeightEntries = {}
        spans: list[tuple[int, int, str]] = []
        for item in doc["entries"]:
            try:
                name = item["name"]
                if not isinstance(name, str):
                    raise ManifestError(f"{where}: manifest entry {item!r}: name {name!r} is not a string")
                offset = _json_int(item["offset"], f"{where}: tensor {name!r}", "offset")
                shape = tuple(_json_int(s, f"{where}: tensor {name!r}", "shape dim") for s in item["shape"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ManifestError(f"{where}: malformed manifest entry {item!r}") from exc
            if name in entries:
                raise ManifestError(f"{where}: duplicate tensor name {name!r}")
            if not shape or any(s < 1 for s in shape) or len(shape) > 4:
                raise DimOverflowError(f"{where}: tensor {name!r}: invalid shape {shape}")
            count = math.prod(shape)
            if count > MAX_ELEMENTS:
                raise DimOverflowError(f"{where}: tensor {name!r}: {count} elements exceeds limit")
            end = offset + count * 4
            if offset < 0 or end > payload_len:
                raise TruncatedFileError(
                    f"{where}: tensor {name!r}: extent [{offset}, {end}) outside payload of {payload_len} bytes"
                )
            entries[name] = (offset, shape)
            spans.append((offset, end, name))
        spans.sort()
        for (s0, e0, n0), (s1, _e1, n1) in zip(spans, spans[1:]):
            if s1 < e0:
                raise ManifestError(f"{where}: tensors {n0!r} and {n1!r} overlap in the payload")

        arrays = {}
        for name, (off, shape) in entries.items():
            fh.seek(start + off)
            out = _read_stream(fh, np.empty(shape, dtype=_F4), f"{where} tensor {name!r}")
            arrays[name] = _finite(out, f"{where}: tensor {name!r}")
    return arrays, entries


# ---------------------------------------------------------------------------
# PGM / PPM images
# ---------------------------------------------------------------------------

def read_image(target) -> np.ndarray:
    """Read a binary P5/P6 image into a (1, 3, h, w) float32 tensor in [0, 1]."""
    with _opened(target, "rb") as fh:
        data = fh.read()
    what = f"image {_name(target)}"
    if len(data) < 2 or data[:2] not in (b"P5", b"P6"):
        raise BadMagicError(f"{what}: not a binary PGM/PPM: starts with {data[:2]!r}")
    kind = data[:2]

    pos = 2
    tokens: list[int] = []
    while len(tokens) < 3:
        if pos >= len(data):
            raise TruncatedFileError(f"{what}: header ended before width/height/maxval")
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
                raise FormatError(f"{what}: non-numeric header token {token!r}")
            tokens.append(int(token))
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = tokens
    if width < 1 or height < 1:
        raise DimOverflowError(f"{what}: invalid image size {width}x{height}")
    if not 0 < maxval <= 255:
        raise FormatError(f"{what}: only 8-bit images supported, maxval={maxval}")
    n_channels = 1 if kind == b"P5" else 3
    need = width * height * n_channels
    raw = data[pos : pos + need]
    if len(raw) != need:
        raise TruncatedFileError(f"{what}: truncated payload: wanted {need} bytes, got {len(raw)}")
    pixels = np.frombuffer(raw, dtype=np.uint8).astype(np.float32) / np.float32(maxval)
    if kind == b"P5":
        plane = pixels.reshape(1, 1, height, width)
        return np.repeat(plane, 3, axis=1)
    return pixels.reshape(1, height, width, 3).transpose(0, 3, 1, 2).copy()


# ---------------------------------------------------------------------------
# activation-record directories (mask export for the analysis pipeline)
# ---------------------------------------------------------------------------

RECORD_MANIFEST = "manifest.json"


def _record_keys(doc: dict, where: str) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """``rf`` and the block keys of a record manifest ``doc``: JSON integers,
    ``rf`` non-empty, positive and strictly ascending, at least one key and
    every key a pair of positive indices; else a ManifestError naming
    ``where``."""
    try:
        rf = tuple(_json_int(v, where, "rf value") for v in doc["rf"])
        blocks = [tuple(_json_int(i, where, "block index") for i in pair) for pair in doc["blocks"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"malformed {where}: {exc}") from exc
    if not rf or min(rf) < 1:
        raise ManifestError(f"{where}: rf {list(rf)} must list positive receptive fields")
    if any(a >= b for a, b in zip(rf, rf[1:])):
        raise ManifestError(f"{where}: rf {list(rf)} must strictly ascend")
    if not blocks:
        raise ManifestError(f"{where}: blocks [] must list at least one block")
    if any(len(key) != 2 or min(key) < 1 for key in blocks):
        raise ManifestError(f"{where}: blocks {doc['blocks']} must be pairs of positive indices")
    return rf, blocks


def _json_ints(values) -> list:
    """``values`` with every numpy integer as an int, as JSON writes it."""
    return [int(v) if isinstance(v, np.integer) else v for v in values]


def save_record(record: ActivationRecord, directory: str | Path) -> list[Path]:
    """Write one LSKT file per (block, kernel) mask: ``B_<stage>_<depth>_<n>``;
    return their paths.

    A manifest.json carries the per-kernel receptive fields and block keys
    (numpy integers as JSON integers) so the analysis stage can rebuild the
    record.  Before any path is created, it must pass :func:`load_record`'s
    checks, else a ManifestError names the field, and every block must be a
    4-D (n, len(rf), h, w) stack finite as float32, else a FormatError names
    the block: the reader would refuse the files or drop planes.

    A block is converted to float32 once and its header built once; each
    file is then one ``os.open``, one ``os.writev`` of the header and the
    plane, and one ``os.close``.  An old manifest.json in ``directory`` is
    removed before the first mask file is written, and the new one is
    written last, so a save that fails part way over an existing record
    leaves no manifest and the directory no longer loads.
    """
    doc = {
        "format_version": FORMAT_VERSION,
        "rf": _json_ints(record.rf),
        "blocks": [_json_ints(key) for key in sorted(record.masks)],
    }
    _record_keys(doc, "save_record: manifest")
    blocks = {}
    for key, masks in sorted(record.masks.items()):
        block = record.key_name(key)
        if masks.ndim != 4 or masks.shape[1] != record.n_kernels or min(masks.shape) < 1:
            raise FormatError(
                f"save_record: block {block} has masks of shape {masks.shape}, "
                f"want (n, {record.n_kernels}, h, w) for rf {list(record.rf)}"
            )
        blocks[block] = _float32(masks, f"save_record: block {block}")  # converted once per block
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    # joining strings, not Paths, as load_record does
    base = os.path.join(str(out), "")
    try:  # an old manifest would vouch for a half-written record
        os.unlink(base + RECORD_MANIFEST)
    except FileNotFoundError:
        pass
    names: list[str] = []
    for block, masks in blocks.items():
        n, _, h, w = masks.shape
        header = TENSOR_MAGIC + struct.pack("<4Q", n, 1, h, w)
        size = _TENSOR_HEADER + n * h * w * _F4.itemsize
        for n_idx in range(record.n_kernels):
            name = f"{block}_{n_idx + 1}.lskt"
            _write_file(base + name, (header, np.ascontiguousarray(masks[:, n_idx])), size)
            names.append(name)
    manifest = json.dumps(doc, indent=1).encode("utf-8")
    _write_file(base + RECORD_MANIFEST, (manifest,), len(manifest))
    return [out / name for name in names]


def _write_file(path: str, parts, size: int) -> None:
    """Create or truncate the file ``path`` and write ``parts``, contiguous
    bytes-like objects of ``size`` bytes in all, in order: one ``os.open``,
    one ``os.writev`` and one ``os.close``.  Only a short write (a pipe, or a
    total above one system call's limit) enters a loop, which goes on from
    where the write stopped, as :func:`_fill` does for reads."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        sent = os.writev(fd, parts)
        if sent < size:
            for part in parts:
                view = memoryview(part).cast("B")
                view, sent = view[min(sent, len(view)) :], max(sent - len(view), 0)
                while view:
                    view = view[os.writev(fd, (view,)) :]
    finally:
        os.close(fd)


def _shape_error(stage: int, depth: int, folder: str, name: str, dims, want) -> FormatError:
    return FormatError(f"block ({stage}, {depth}) in {folder}: mask file {name} has shape {dims}, want {want}")


def load_record(directory: str | Path) -> ActivationRecord:
    """Rebuild an activation record from a mask directory.

    Every mask file of a block must hold one (n, 1, h, w) plane of the same
    shape, and the manifest must pass :func:`_record_keys` and list each
    block once.

    A block's k files are read straight into one (k, n, h, w) array, whose
    (n, k, h, w) transpose becomes the block's masks (C-contiguous if n = 1).
    The first file's header sets the block's shape, and its size, from one
    ``os.fstat``, must hold that payload before the array is made; every
    later file's header is read with its payload by one ``os.readv`` and
    must equal the first byte for byte, and only a header that differs is
    parsed, to name what is wrong with it.  Error messages are built only
    when a check fails.
    """
    src = Path(directory)
    # joining strings, not Paths: a Path join costs a third of a mask read
    folder = str(src)
    base = os.path.join(folder, "")
    try:
        fd = os.open(base + RECORD_MANIFEST, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, _MANIFEST_CHUNK):
                chunks.append(chunk)
        finally:
            os.close(fd)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise ManifestError(f"no {RECORD_MANIFEST} in {src}") from exc
    where = f"record manifest in {src}"
    doc = _manifest(b"".join(chunks), where, f"malformed {where}")
    rf, blocks = _record_keys(doc, where)
    record = ActivationRecord(rf=rf)
    header = bytearray(_TENSOR_HEADER)  # every file's header lands here
    for stage, depth in blocks:
        if (stage, depth) in record.masks:
            raise ManifestError(f"{where}: block ({stage}, {depth}) is listed twice")
        block = record.key_name((stage, depth))
        names = [f"{block}_{n_idx + 1}.lskt" for n_idx in range(len(rf))]
        planes = first = None
        for plane, name in enumerate(names):
            try:
                fd = os.open(base + name, os.O_RDONLY)
                try:
                    if first is None:  # the block's first file sets its shape: its header comes alone
                        got = _read_full(os.readv, fd, (header,), _TENSOR_HEADER)
                        dims = _tensor_dims(header[:got], f"mask file {name} in {folder}")
                        if dims[1] != 1:
                            raise _shape_error(stage, depth, folder, name, dims, (dims[0], 1, *dims[2:]))
                        first = bytes(header)
                        payload = math.prod(dims) * _F4.itemsize
                        left = os.fstat(fd).st_size - _TENSOR_HEADER
                        if left < payload:  # checked before the block's array is made
                            raise _truncated(f"mask file {name} in {folder}", payload, left)
                        planes = np.empty((len(rf), dims[0], *dims[2:]), dtype=_F4)
                        buffers, want = (planes[0],), payload
                    else:
                        buffers, want = (header, planes[plane]), _TENSOR_HEADER + payload
                    # _read_full written out: a call per file costs load_record about 3%
                    got = os.readv(fd, buffers)
                    if got < want:
                        got = _fill(lambda view: os.readv(fd, (view,)), buffers, got)
                finally:
                    os.close(fd)
            except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
                raise FormatError(f"missing mask file {name} in {folder}") from exc
            if plane and (got < _TENSOR_HEADER or header != first):
                # a later header that is bound to fail: parse it to name the fault
                dims = _tensor_dims(header[:got], f"mask file {name} in {folder}")
                raise _shape_error(stage, depth, folder, name, dims, (planes.shape[1], 1, *planes.shape[2:]))
            if got < want:
                raise _truncated(f"mask file {name} in {folder}", payload, got - (want - payload))
        if not np.isfinite(planes).all():  # then find the file to name
            for name, plane in zip(names, planes):
                _finite(plane, f"mask file {name} in {folder}")
        record.masks[(stage, depth)] = planes.transpose(1, 0, 2, 3)
    return record
