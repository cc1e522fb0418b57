"""Binary formats: bit-exact round trips, truncation fuzzing, image decoding
and weight-file validation."""

import copy
import io
import json
import os
import re
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsknet.backbone import ActivationRecord, BackboneConfig, init_backbone_params, named_arrays
from lsknet.errors import (
    BadMagicError,
    DimOverflowError,
    FormatError,
    LskError,
    ManifestError,
    TruncatedFileError,
)
from lsknet.fileio import (
    TENSOR_MAGIC,
    _fill,
    load_record,
    read_image,
    read_tensor,
    read_weights,
    save_record,
    write_tensor,
    write_weights,
)

from conftest import peak_allocation


def tensor_bytes(x):
    buf = io.BytesIO()
    write_tensor(buf, x)
    return buf.getvalue()


def with_value_at(raw: bytes, x: np.ndarray, index, value) -> bytes:
    """``raw``, the file written from ``x``, with the float32 bytes of
    ``x[index]`` replaced by those of ``value``: the writers refuse a file
    holding a non-finite value, so the readers' tests make one this way."""
    old = np.float32(x[index]).tobytes()
    assert raw.count(old) == 1
    return raw.replace(old, np.float32(value).tobytes())


class TestTensorRoundTrip:
    def test_simple_round_trip_bit_exact(self, rng):
        x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        y = read_tensor(io.BytesIO(tensor_bytes(x)))
        assert (x == y).all() and y.dtype == np.float32

    def test_file_round_trip(self, rng, tmp_path):
        x = rng.standard_normal((1, 2, 3, 4)).astype(np.float32)
        path = tmp_path / "t.lskt"
        write_tensor(path, x)
        assert (read_tensor(path) == x).all()

    def test_write_holds_no_copy_of_the_tensor(self, tmp_path):
        x = np.zeros((1, 256, 128, 128), dtype=np.float32)  # 16 MiB
        path = tmp_path / "t.lskt"
        peak = peak_allocation(write_tensor, path, x)
        assert peak < 1 << 20, f"peak {peak} B for a {x.nbytes} B tensor"
        assert path.stat().st_size == 40 + x.nbytes

    def test_read_holds_only_the_tensor(self, tmp_path):
        """The finiteness check reads a chunk at a time: no whole-tensor
        boolean mask is held beside the array read."""
        x = np.zeros((1, 256, 128, 128), dtype=np.float32)  # 16 MiB
        path = tmp_path / "t.lskt"
        write_tensor(path, x)
        peak = peak_allocation(read_tensor, path)
        assert peak < x.nbytes + (1 << 20), f"peak {peak} B for a {x.nbytes} B tensor"

    def test_non_contiguous_slice_round_trip(self, rng):
        masks = rng.standard_normal((2, 3, 5, 7)).astype(np.float32)
        part = masks[:, 1:2]
        assert not part.flags.c_contiguous
        assert (read_tensor(io.BytesIO(tensor_bytes(part))) == part).all()

    def test_header_layout(self):
        x = np.zeros((1, 2, 3, 4), dtype=np.float32)
        raw = tensor_bytes(x)
        assert raw[:8] == b"LSKT0001"
        assert struct.unpack("<4Q", raw[8:40]) == (1, 2, 3, 4)
        assert len(raw) == 40 + 24 * 4

    def test_special_values_survive(self):
        x = np.array([0.0, -0.0, 1e-38, 3.4e38, np.pi], dtype=np.float32)
        x = np.resize(x, (1, 1, 1, 5))
        y = read_tensor(io.BytesIO(tensor_bytes(x)))
        assert (x.view(np.uint32) == y.view(np.uint32)).all()  # bit-exact


class TestTensorErrors:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, rng, tmp_path, bad):
        x = rng.standard_normal((1, 2, 3, 4)).astype(np.float32)
        path = tmp_path / "bad.lskt"
        path.write_bytes(with_value_at(tensor_bytes(x), x, (0, 1, 2, 3), bad))
        with pytest.raises(FormatError, match="bad.lskt.*NaN or Inf"):
            read_tensor(path)

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            read_tensor(io.BytesIO(b"NOPE0001" + b"\x00" * 64))

    def test_zero_dim_rejected(self):
        raw = TENSOR_MAGIC + struct.pack("<4Q", 1, 0, 3, 4)
        with pytest.raises(DimOverflowError):
            read_tensor(io.BytesIO(raw))

    def test_huge_dims_rejected_before_allocation(self):
        raw = TENSOR_MAGIC + struct.pack("<4Q", 2**40, 2**40, 2**40, 2**40)
        with pytest.raises(DimOverflowError):
            read_tensor(io.BytesIO(raw))

    def test_truncations_fail_cleanly(self, rng, tmp_path):
        raw = tensor_bytes(rng.standard_normal((2, 2, 3, 3)).astype(np.float32))
        path = tmp_path / "cut.lskt"
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            for target in (io.BytesIO(raw[:cut]), path):
                with pytest.raises(TruncatedFileError):
                    read_tensor(target)


class TestWeights:
    def test_round_trip_preserves_names_shapes_bits(self, rng):
        arrays = {
            "stage1.block0.lsk.dw0.weight": rng.standard_normal((4, 5, 5)).astype(np.float32),
            "stage1.block0.lsk.dw0.bias": rng.standard_normal(4).astype(np.float32),
            "stem.conv.weight": rng.standard_normal((8, 3, 7, 7)).astype(np.float32),
        }
        buf = io.BytesIO()
        entries = write_weights(buf, arrays)
        buf.seek(0)
        loaded, entries2 = read_weights(buf)
        assert list(loaded) == list(arrays)
        assert entries == entries2
        for name in arrays:
            assert (arrays[name] == loaded[name]).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, rng, bad):
        arrays = {
            "stem.conv.bias": rng.standard_normal(4).astype(np.float32),
            "stem.conv.weight": rng.standard_normal((4, 3, 7, 7)).astype(np.float32),
        }
        buf = io.BytesIO()
        write_weights(buf, arrays)
        raw = with_value_at(buf.getvalue(), arrays["stem.conv.weight"], (2, 1, 0, 6), bad)
        with pytest.raises(FormatError, match="'stem.conv.weight'.*NaN or Inf"):
            read_weights(io.BytesIO(raw))

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            read_weights(io.BytesIO(b"LSKT0001" + b"\x00" * 16))

    def test_truncated_manifest(self, rng):
        buf = io.BytesIO()
        write_weights(buf, {"a": rng.standard_normal(3).astype(np.float32)})
        raw = buf.getvalue()
        with pytest.raises(TruncatedFileError):
            read_weights(io.BytesIO(raw[:10]))

    @pytest.mark.parametrize("as_path", [True, False], ids=["path", "stream"])
    def test_manifest_length_beyond_the_file_allocates_nothing(self, tmp_path, as_path):
        """A 12-byte file claiming a 4 GiB manifest is refused before a buffer
        of that size is made."""
        raw = b"LSKW0001" + struct.pack("<I", 0xFFFFFFFF)
        path = tmp_path / "bad.lskw"
        path.write_bytes(raw)
        target = path if as_path else io.BytesIO(raw)
        name = re.escape(str(path) if as_path else "stream")
        with pytest.raises(TruncatedFileError, match=f"weights {name} manifest: wanted 4294967295 bytes, got 0"):
            read_weights(target)
        target = path if as_path else io.BytesIO(raw)
        assert peak_allocation(lambda: pytest.raises(TruncatedFileError, read_weights, target)) < 1 << 16

    def test_manifest_must_be_json(self):
        payload = b"this is not json"
        raw = b"LSKW0001" + struct.pack("<I", len(payload)) + payload
        with pytest.raises(ManifestError):
            read_weights(io.BytesIO(raw))

    def test_extent_outside_payload(self):
        doc = b'{"format_version":1,"entries":[{"name":"a","offset":0,"shape":[100]}]}'
        raw = b"LSKW0001" + struct.pack("<I", len(doc)) + doc + b"\x00" * 16
        with pytest.raises(TruncatedFileError, match="extent"):
            read_weights(io.BytesIO(raw))

    def test_overlapping_entries_rejected(self):
        doc = (
            b'{"format_version":1,"entries":['
            b'{"name":"a","offset":0,"shape":[4]},'
            b'{"name":"b","offset":8,"shape":[4]}]}'
        )
        raw = b"LSKW0001" + struct.pack("<I", len(doc)) + doc + b"\x00" * 24
        with pytest.raises(ManifestError, match="overlap"):
            read_weights(io.BytesIO(raw))

    def test_duplicate_names_rejected(self):
        doc = (
            b'{"format_version":1,"entries":['
            b'{"name":"a","offset":0,"shape":[1]},'
            b'{"name":"a","offset":4,"shape":[1]}]}'
        )
        raw = b"LSKW0001" + struct.pack("<I", len(doc)) + doc + b"\x00" * 8
        with pytest.raises(ManifestError, match="duplicate"):
            read_weights(io.BytesIO(raw))

    @pytest.mark.parametrize("name", [["x"], 5, None, True, {}])
    def test_entry_name_must_be_a_string(self, name):
        doc = json.dumps({"format_version": 1, "entries": [{"name": name, "offset": 0, "shape": [2]}]}).encode()
        raw = b"LSKW0001" + struct.pack("<I", len(doc)) + doc + b"\x00" * 8
        with pytest.raises(ManifestError, match="is not a string"):
            read_weights(io.BytesIO(raw))

    def test_format_version_other_than_1_rejected(self, tmp_path):
        def weights_file(doc: bytes):
            path = tmp_path / "w.lskw"
            path.write_bytes(b"LSKW0001" + struct.pack("<I", len(doc)) + doc + b"\x00" * 4)
            return path

        entries = b'"entries":[{"name":"a","offset":0,"shape":[1]}]'
        with pytest.raises(ManifestError, match=r"w\.lskw.*format_version 99"):
            read_weights(weights_file(b'{"format_version":99,' + entries + b"}"))
        _, read = read_weights(weights_file(b"{" + entries + b"}"))
        assert read == {"a": (0, (1,))}  # a missing key reads as version 1

    def test_read_peak_is_about_one_file_size(self, tmp_path):
        """Each tensor is read straight into its own array: no whole-payload
        buffer is held beside the arrays."""
        path = tmp_path / "t.lskw"
        write_weights(path, named_arrays(init_backbone_params(BackboneConfig.variant("T"), seed=0)))
        size = path.stat().st_size
        peak = peak_allocation(read_weights, path)
        assert sum(a.nbytes for a in read_weights(path)[0].values()) < size
        assert peak <= size + (1 << 20), f"peak {peak} B for a {size} B file"

    def test_write_peak_is_under_two_tensors(self, tmp_path):
        """Offsets come from the shapes and each tensor is written from its own
        array, so no copy of the whole payload is held while writing."""
        arrays = named_arrays(init_backbone_params(BackboneConfig.variant("T"), seed=0))
        largest = max(a.nbytes for a in arrays.values())
        peak = peak_allocation(write_weights, tmp_path / "t.lskw", arrays)
        assert peak < 2 * largest, f"peak {peak} B, largest tensor {largest} B"
        assert (tmp_path / "t.lskw").stat().st_size > sum(a.nbytes for a in arrays.values())

    def test_weight_fuzz_truncations(self, rng):
        buf = io.BytesIO()
        write_weights(buf, {"w": rng.standard_normal((3, 3)).astype(np.float32)})
        raw = buf.getvalue()
        for cut in range(0, len(raw), 7):
            try:
                read_weights(io.BytesIO(raw[:cut]))
            except FormatError:
                pass  # every failure must be a clean, typed error

    @pytest.mark.parametrize(
        "raw",
        [
            b"LSKT0001" + b"\x00" * 16,
            b"LSKW0",
            b"LSKW0001\x05",
            b"LSKW0001" + struct.pack("<I", 100) + b"{}",
            b"LSKW0001" + struct.pack("<I", 8) + b"not json",
            b"LSKW0001" + struct.pack("<I", 2) + b"[]",
            b"LSKW0001" + struct.pack("<I", 21) + b'{"format_version":99}',
            b"LSKW0001" + struct.pack("<I", 2) + b"{}",
            b"LSKW0001" + struct.pack("<I", 14) + b'{"entries":5}',
            *(
                b"LSKW0001" + struct.pack("<I", len(doc)) + doc + struct.pack("<2f", 1.0, payload)
                for doc, payload in [
                    (b'{"entries":[{"name":"a"}]}', 0.0),
                    (b'{"entries":[{"name":5,"offset":0,"shape":[1]}]}', 0.0),
                    (b'{"entries":[{"name":"a","offset":"0","shape":[1]}]}', 0.0),
                    (b'{"entries":[{"name":"a","offset":0,"shape":[0]}]}', 0.0),
                    (b'{"entries":[{"name":"a","offset":0,"shape":[1]},{"name":"a","offset":4,"shape":[1]}]}',
                     0.0),
                    (b'{"entries":[{"name":"a","offset":0,"shape":[2]},{"name":"b","offset":4,"shape":[1]}]}',
                     0.0),
                    (b'{"entries":[{"name":"a","offset":0,"shape":[3]}]}', 0.0),
                    (b'{"entries":[{"name":"a","offset":0,"shape":[2]}]}', np.nan),
                ]
            ),
        ],
        ids=[
            "bad-magic", "magic-cut", "length-cut", "manifest-cut", "not-json", "not-an-object", "version",
            "no-entries", "entries-not-a-list", "entry", "name", "offset", "shape", "duplicate", "overlap",
            "extent", "NaN",
        ],
    )
    def test_every_error_names_the_file(self, tmp_path, raw):
        path = tmp_path / "w.lskw"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=re.escape(f"weights {path}")):
            read_weights(path)


class TestImages:
    def test_p5_grayscale_replicates_channels(self):
        raw = b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])
        t = read_image(io.BytesIO(raw))
        assert t.shape == (1, 3, 2, 2)
        expected = np.array([[0, 255], [128, 64]], dtype=np.float32) / 255.0
        for c in range(3):
            np.testing.assert_allclose(t[0, c], expected, atol=1e-7)

    def test_p6_rgb_layout(self):
        # one red, one green pixel
        raw = b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0])
        t = read_image(io.BytesIO(raw))
        assert t.shape == (1, 3, 1, 2)
        assert t[0, 0, 0, 0] == 1.0 and t[0, 1, 0, 1] == 1.0
        assert t[0, 1, 0, 0] == 0.0 and t[0, 0, 0, 1] == 0.0

    def test_comments_in_header(self):
        raw = b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([10, 20])
        t = read_image(io.BytesIO(raw))
        assert t.shape == (1, 3, 1, 2)

    def test_sixteen_bit_rejected(self):
        raw = b"P5\n1 1\n65535\n\x00\x00"
        with pytest.raises(FormatError, match="8-bit"):
            read_image(io.BytesIO(raw))

    def test_wrong_magic(self):
        with pytest.raises(BadMagicError):
            read_image(io.BytesIO(b"P3\n1 1\n255\n0"))

    def test_truncated_payload(self):
        with pytest.raises(TruncatedFileError):
            read_image(io.BytesIO(b"P5\n4 4\n255\n\x00\x00"))

    @pytest.mark.parametrize(
        "raw",
        [b"", b"P3\n1 1\n255\n0", b"P5\n2 2", b"P5\nx 2 255\n", b"P5\n0 2 255\n", b"P5\n1 1 65535\n\x00\x00",
         b"P5\n4 4\n255\n\x00\x00"],
        ids=["empty", "bad-magic", "header-cut", "token", "size", "maxval", "payload-cut"],
    )
    def test_every_error_names_the_file(self, tmp_path, raw):
        path = tmp_path / "i.pgm"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=re.escape(f"image {path}")):
            read_image(path)


class TestRecords:
    def test_save_load_round_trip(self, rng, tmp_path):
        rec = ActivationRecord(rf=(5, 23))
        rec.masks[(1, 1)] = rng.uniform(0.1, 0.9, (1, 2, 8, 8)).astype(np.float32)
        rec.masks[(2, 1)] = rng.uniform(0.1, 0.9, (1, 2, 4, 4)).astype(np.float32)
        files = save_record(rec, tmp_path / "img")
        assert sorted(f.name for f in files) == [
            "B_1_1_1.lskt",
            "B_1_1_2.lskt",
            "B_2_1_1.lskt",
            "B_2_1_2.lskt",
        ]
        loaded = load_record(tmp_path / "img")
        assert loaded.rf == (5, 23)
        for key in rec.masks:
            assert (loaded.masks[key] == rec.masks[key]).all()

    def test_missing_mask_file_is_an_error(self, rng, tmp_path):
        rec = ActivationRecord(rf=(5, 23))
        rec.masks[(1, 1)] = rng.uniform(0, 1, (1, 2, 4, 4)).astype(np.float32)
        save_record(rec, tmp_path / "img")
        (tmp_path / "img" / "B_1_1_2.lskt").unlink()
        with pytest.raises(FormatError, match="missing"):
            load_record(tmp_path / "img")

    def test_missing_manifest_is_an_error(self, tmp_path):
        (tmp_path / "img").mkdir()
        with pytest.raises(ManifestError):
            load_record(tmp_path / "img")

    def test_directory_in_place_of_mask_file(self, rng, tmp_path):
        rec = ActivationRecord(rf=(5, 23))
        rec.masks[(1, 1)] = rng.uniform(0, 1, (1, 2, 4, 4)).astype(np.float32)
        save_record(rec, tmp_path / "img")
        (tmp_path / "img" / "B_1_1_2.lskt").unlink()
        (tmp_path / "img" / "B_1_1_2.lskt").mkdir()
        with pytest.raises(FormatError, match="B_1_1_2.lskt"):
            load_record(tmp_path / "img")

    def test_kernel_files_of_one_block_must_agree_in_shape(self, rng, tmp_path):
        rec = ActivationRecord(rf=(5, 23))
        rec.masks[(2, 1)] = rng.uniform(0, 1, (1, 2, 4, 4)).astype(np.float32)
        save_record(rec, tmp_path / "img")
        write_tensor(tmp_path / "img" / "B_2_1_2.lskt", np.zeros((1, 1, 4, 5), dtype=np.float32))
        with pytest.raises(FormatError, match=r"block \(2, 1\).*img.*B_2_1_2.lskt") as info:
            load_record(tmp_path / "img")
        assert not isinstance(info.value, ManifestError)

    def _manifest_case(self, rng, tmp_path, **changes):
        rec = ActivationRecord(rf=(5, 23))
        rec.masks[(1, 1)] = rng.uniform(0, 1, (1, 2, 4, 4)).astype(np.float32)
        save_record(rec, tmp_path / "img")
        manifest = tmp_path / "img" / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), **changes}))
        return tmp_path / "img"

    def test_manifest_without_receptive_fields(self, rng, tmp_path):
        directory = self._manifest_case(rng, tmp_path, rf=[])
        with pytest.raises(ManifestError, match="img.*rf"):
            load_record(directory)

    def test_manifest_listing_a_block_twice(self, rng, tmp_path):
        directory = self._manifest_case(rng, tmp_path, blocks=[[1, 1], [1, 1]])
        with pytest.raises(ManifestError, match=r"img.*block \(1, 1\) is listed twice"):
            load_record(directory)

    def test_manifest_format_version_other_than_1(self, rng, tmp_path):
        directory = self._manifest_case(rng, tmp_path, format_version=99)
        with pytest.raises(ManifestError, match=r"img.*format_version 99"):
            load_record(directory)
        manifest = directory / "manifest.json"
        doc = json.loads(manifest.read_text())
        del doc["format_version"]
        manifest.write_text(json.dumps(doc))
        assert load_record(directory).rf == (5, 23)  # a missing key reads as version 1

    @pytest.mark.parametrize(
        "raw",
        [b'{"rf": [5, 23], "blocks": [[1, 1]], "note": "caf\xe9"}', b"\xff\xfe{}"],
        ids=["latin-1-byte", "utf-16-bom"],
    )
    def test_manifest_that_is_not_utf8(self, rng, tmp_path, raw):
        directory = self._manifest_case(rng, tmp_path)
        (directory / "manifest.json").write_bytes(raw)
        with pytest.raises(ManifestError, match=r"malformed record manifest in .*img.*utf-8"):
            load_record(directory)

    @pytest.mark.parametrize("raw", [b"[5, 23]", b'"rf"', b"7"], ids=["list", "string", "number"])
    def test_manifest_that_is_not_an_object(self, rng, tmp_path, raw):
        directory = self._manifest_case(rng, tmp_path)
        (directory / "manifest.json").write_bytes(raw)
        with pytest.raises(ManifestError, match=r"malformed record manifest in .*img: not a JSON object"):
            load_record(directory)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 4),
    h=st.integers(1, 6),
    w=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_tensor_round_trip_property(n, c, h, w, seed):
    x = np.random.default_rng(seed).standard_normal((n, c, h, w)).astype(np.float32)
    y = read_tensor(io.BytesIO(tensor_bytes(x)))
    assert (x.view(np.uint32) == y.view(np.uint32)).all()


# A bool, a non-integral float, a numeric string or a negative integer: none
# may stand for a manifest number (int() would take the first three).
_BAD_NUMBERS = st.one_of(
    st.booleans(),
    st.floats(-1e3, 1e3).filter(lambda v: not v.is_integer()),
    st.integers(0, 99).map(str),
    st.integers(-99, -1),
)
_WEIGHTS_DOC = {
    "format_version": 1,
    "entries": [{"name": "a", "offset": 0, "shape": [2, 3]}, {"name": "b", "offset": 32, "shape": [2]}],
}


def _weights_file(doc) -> io.BytesIO:
    raw = json.dumps(doc).encode("utf-8")
    return io.BytesIO(b"LSKW0001" + struct.pack("<I", len(raw)) + raw + np.arange(10, dtype="<f4").tobytes())


@pytest.fixture(scope="module")
def record_dir(tmp_path_factory):
    rec = ActivationRecord(rf=(5, 23))
    for key in [(1, 1), (2, 1)]:
        rec.masks[key] = np.full((1, 2, 4, 4), 0.5, dtype=np.float32)
    directory = tmp_path_factory.mktemp("record")
    save_record(rec, directory)
    return directory


@settings(max_examples=150, deadline=None)
@given(
    field=st.sampled_from(["offset", "shape dim", "weights version", "record version", "rf value", "block index"]),
    bad=_BAD_NUMBERS,
    where=st.integers(0, 3),
    descending=st.tuples(st.integers(1, 60), st.integers(0, 60)).map(lambda p: [p[0] + p[1], p[0]]),
)
def test_manifest_numbers_are_json_integers_and_rf_ascends(record_dir, field, bad, where, descending):
    """Replacing one manifest number of a valid weight file or record by a
    non-integer or negative value, or the record's ``rf`` by a pair that does
    not strictly ascend, is a named error, never a load."""
    weights = copy.deepcopy(_WEIGHTS_DOC)
    manifest = record_dir / "manifest.json"
    record = {"format_version": 1, "rf": [5, 23], "blocks": [[1, 1], [2, 1]]}
    manifest.write_text(json.dumps(record))
    read_weights(_weights_file(weights))
    load_record(record_dir)

    entry = weights["entries"][where % 2]
    if field == "offset":
        entry["offset"] = bad
    elif field == "shape dim":
        entry["shape"][where % len(entry["shape"])] = bad
    elif field == "weights version":
        weights["format_version"] = bad
    elif field == "record version":
        record["format_version"] = bad
    elif field == "rf value":
        record["rf"][where % 2] = bad
    else:
        record["blocks"][where // 2][where % 2] = bad
    manifest.write_text(json.dumps(record))
    with pytest.raises(LskError) as info:
        if field in ("offset", "shape dim", "weights version"):
            read_weights(_weights_file(weights))
        else:
            load_record(record_dir)
    assert type(info.value) is not LskError

    manifest.write_text(json.dumps({**record, "format_version": 1, "rf": descending, "blocks": [[1, 1]]}))
    with pytest.raises(ManifestError, match="record.*rf.*must strictly ascend"):
        load_record(record_dir)


def _random_record(n, k, sides, dtype, seed):
    """A record of len(sides) blocks (stage b, depth 1) of (n, k, h, w) masks."""
    rng = np.random.default_rng(seed)
    rec = ActivationRecord(rf=tuple(range(3, 3 + 4 * k, 4)))
    for stage, (h, w) in enumerate(sides, start=1):
        rec.masks[(stage, 1)] = rng.standard_normal((n, k, h, w)).astype(dtype)
    return rec


_SIDES = st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    k=st.integers(1, 3),
    sides=_SIDES,
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**31 - 1),
)
def test_record_round_trip_property(n, k, sides, dtype, seed):
    """A saved record loads back bit for bit as the float32 values written,
    each block as an (n, k, h, w) array (C-contiguous for a batch of one)."""
    rec = _random_record(n, k, sides, dtype, seed)
    with tempfile.TemporaryDirectory() as directory:
        save_record(rec, directory)
        loaded = load_record(directory)
    assert loaded.rf == rec.rf and loaded.block_keys() == rec.block_keys()
    for key, masks in rec.masks.items():
        got = loaded.masks[key]
        assert got.dtype == np.float32 and got.shape == masks.shape
        assert (got.view(np.uint32) == masks.astype(np.float32).view(np.uint32)).all()
        assert got.flags.c_contiguous or n > 1


def _corrupt(path: Path, kind: str) -> type:
    """Damage one saved mask file; return the error class loading must raise."""
    raw = path.read_bytes()
    n, _, h, w = struct.unpack_from("<4Q", raw, 8)
    if kind == "truncated payload":
        path.write_bytes(raw[:-2])
        return TruncatedFileError
    if kind == "truncated header":  # cut inside the dims
        path.write_bytes(raw[:20])
        return TruncatedFileError
    if kind == "empty file":
        path.write_bytes(b"")
        return TruncatedFileError
    if kind == "other dims":  # two planes where a mask file holds one
        path.write_bytes(raw[:8] + struct.pack("<4Q", n, 2, h, w) + raw[40:])
        return FormatError
    if kind == "bad magic":
        path.write_bytes(b"LSKX0001" + raw[8:])
        return BadMagicError
    if kind == "NaN":
        path.write_bytes(raw[:-4] + struct.pack("<f", float("nan")))
        return FormatError
    path.unlink()  # a directory in place of the file
    path.mkdir()
    return FormatError


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 3),
    k=st.integers(2, 3),
    sides=_SIDES,
    kind=st.sampled_from(
        ["truncated payload", "truncated header", "empty file", "other dims", "bad magic", "NaN", "directory"]
    ),
    later_file=st.booleans(),
    later_block=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_damaged_mask_file_is_named(n, k, sides, kind, later_file, later_block, seed):
    """Each kind of damage to the first or a later kernel file of a block is
    its own error class, and the message names the file.  The first file of a
    block sets its shape and later ones are checked against it, so both are
    covered."""
    rec = _random_record(n, k, sides, np.float32, seed)
    with tempfile.TemporaryDirectory() as directory:
        save_record(rec, directory)
        stage = len(sides) if later_block else 1
        name = f"B_{stage}_1_{k if later_file else 1}.lskt"
        expected = _corrupt(Path(directory) / name, kind)
        with pytest.raises(FormatError, match=name) as info:
            load_record(directory)
    assert type(info.value) is expected


class _OpenLog:
    """Paths opened while ``paths`` is a list.  An audit hook sees every open,
    whatever the call; hooks cannot be removed, so one is added on first use
    and left idle."""

    paths: list[str] | None = None
    hooked = False

    @classmethod
    def _hook(cls, event, args):
        if event == "open" and cls.paths is not None:
            cls.paths.append(str(args[0]))

    @classmethod
    def record(cls, fn, *args) -> list[str]:
        if not cls.hooked:
            sys.addaudithook(cls._hook)
            cls.hooked = True
        cls.paths = []
        try:
            fn(*args)
            return cls.paths
        finally:
            cls.paths = None


def test_load_record_opens_the_manifest_and_each_mask_file_once(tmp_path):
    rec = _random_record(2, 3, [(4, 4), (2, 3), (1, 1)], np.float32, 0)
    files = save_record(rec, tmp_path)
    opened = _OpenLog.record(load_record, tmp_path)
    assert sorted(Path(p).name for p in opened) == sorted(["manifest.json", *(f.name for f in files)])


@pytest.mark.parametrize(
    "first, sent", [(30, 64), (30, 50), (50, 64)], ids=["header-then-all", "header-then-cut", "plane-then-all"]
)
def test_short_vectored_read_is_finished(first, sent):
    """A vectored read that returns early, as a pipe does, inside the header
    or inside the plane, is continued into what the two buffers still lack,
    until they are full or the data ends."""
    data = bytes(range(40)) + np.arange(6, dtype="<f4").tobytes()
    header, plane = bytearray(40), np.zeros(6, np.float32)
    r, w = os.pipe()
    try:
        os.write(w, data[:first])
        assert os.readv(r, [header, plane]) == first
        os.write(w, data[first:sent])
        os.close(w)
        assert _fill(lambda view: os.readv(r, [view]), [header, plane], first) == sent
    finally:
        os.close(r)
    assert bytes(header) + plane.tobytes()[: sent - 40] == data[:sent]


class _SevenByteStream(io.BytesIO):
    """A stream whose ``readinto`` returns at most 7 bytes per call, as a pipe
    or a socket may."""

    def readinto(self, buf):
        return super().readinto(memoryview(buf).cast("B")[:7])


def test_seven_byte_reads_round_trip_bit_exact(rng):
    x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
    y = read_tensor(_SevenByteStream(tensor_bytes(x)))
    assert y.shape == x.shape and (x.view(np.uint32) == y.view(np.uint32)).all()
    arrays = {"a.weight": rng.standard_normal((4, 3, 3)).astype(np.float32), "a.bias": np.float32([0.5, -0.0])}
    buf = io.BytesIO()
    write_weights(buf, arrays)
    loaded, _ = read_weights(_SevenByteStream(buf.getvalue()))
    assert list(loaded) == list(arrays)
    for name, arr in arrays.items():
        assert loaded[name].shape == arr.shape and (loaded[name].view(np.uint32) == arr.view(np.uint32)).all()


@pytest.mark.parametrize("cut", [3, 10, 30, -3])
@pytest.mark.parametrize("reader", [read_tensor, read_weights])
def test_truncated_seven_byte_stream_names_the_stream(rng, reader, cut):
    x = rng.standard_normal((1, 2, 3, 4)).astype(np.float32)
    buf = io.BytesIO()
    if reader is read_tensor:
        write_tensor(buf, x)
    else:
        write_weights(buf, {"x": x})
    with pytest.raises(TruncatedFileError, match="stream"):
        reader(_SevenByteStream(buf.getvalue()[:cut]))


def test_load_record_takes_one_read_per_file_and_one_per_block_header(tmp_path, monkeypatch):
    """The manifest takes its data and an empty read at its end; a block's
    first file a header read and one ``readv``, each later file one ``readv``.
    Only a short read would take more."""
    blocks, k = 3, 3
    save_record(_random_record(2, k, [(4, 4), (2, 3), (1, 1)], np.float32, 0), tmp_path)
    calls = []
    for fn in ("read", "readv"):
        monkeypatch.setattr(os, fn, lambda *args, _fn=getattr(os, fn), _name=fn: calls.append(_name) or _fn(*args))
    load_record(tmp_path)
    monkeypatch.undo()
    assert calls[:2] == ["read", "read"]
    assert len(calls) == 2 + blocks * (k + 1)


@pytest.mark.parametrize("as_path", [True, False], ids=["path", "stream"])
@pytest.mark.parametrize(
    "dtype, bad", [(np.float32, np.nan), (np.float32, -np.inf), (np.float64, 1e39)], ids=["NaN", "Inf", "1e39"]
)
@pytest.mark.parametrize("writer", ["write_tensor", "write_weights"])
def test_writers_refuse_what_their_readers_refuse(tmp_path, writer, dtype, bad, as_path):
    """A value that is not finite as float32 (1e39 is finite only as float64)
    is refused, naming the tensor or the entry, before any byte is written:
    no path is created and a stream receives nothing.  The value is the last
    of three checked chunks."""
    x = np.full((1, 2, 3, 1 << 15), 0.5, dtype)
    x[0, 1, 2, -1] = bad
    target = tmp_path / "out" if as_path else io.BytesIO()
    if writer == "write_tensor":
        what = f"write_tensor: tensor {target if as_path else 'stream'}"
        call = lambda: write_tensor(target, x)  # noqa: E731
    else:
        what = "write_weights: entry 'b'"
        call = lambda: write_weights(target, {"a": np.zeros(3, np.float32), "b": x})  # noqa: E731
    with pytest.raises(FormatError, match=f"^{re.escape(what)} holds NaN or Inf values"):
        call()
    assert not target.exists() if as_path else target.getvalue() == b""


@pytest.mark.parametrize(
    "masks",
    [
        np.full((1, 3, 4, 4), 0.5, np.float32),  # a third plane under a two-value rf
        np.full((1, 1, 4, 4), 0.5, np.float32),  # one plane short
        np.full((2, 4, 4), 0.5, np.float32),  # not 4-D
        np.full((1, 2, 0, 4), 0.5, np.float32),  # an empty plane
        np.array([np.nan, 0.5]).reshape(1, 2, 1, 1),
        np.array([1e39, 0.5]).reshape(1, 2, 1, 1),  # finite, but not as float32
    ],
    ids=["three-planes", "one-plane", "3-D", "empty", "NaN", "float32-overflow"],
)
def test_save_record_refuses_what_it_cannot_round_trip(tmp_path, masks):
    rec = ActivationRecord(rf=(5, 23))
    rec.masks[(1, 1)] = np.full((1, 2, 4, 4), 0.5, np.float32)
    rec.masks[(2, 1)] = masks
    with pytest.raises(FormatError, match="block B_2_1") as info:
        save_record(rec, tmp_path / "img")
    assert type(info.value) is FormatError
    assert not (tmp_path / "img").exists()  # nothing written, not even the good block


@pytest.mark.parametrize(
    "rf, key, message",
    [
        ((23, 5), (1, 1), r"rf \[23, 5\] must strictly ascend"),
        ((0, 23), (1, 1), r"rf \[0, 23\] must list positive"),
        ((5.0, 23), (1, 1), "rf value must be a JSON integer, got 5.0"),
        ((True, 23), (1, 1), "rf value must be a JSON integer, got True"),
        ((5, 23), (0, 1), r"blocks \[\[0, 1\]\] must be pairs of positive indices"),
    ],
    ids=["descending", "zero", "float", "bool", "zero-index"],
)
def test_save_record_refuses_a_manifest_load_record_refuses(tmp_path, rf, key, message):
    """``rf`` and the block keys pass the reader's checks before any path is
    created, so a record that would not load leaves no directory."""
    rec = ActivationRecord(rf=rf)
    rec.masks[key] = np.full((1, 2, 4, 4), 0.5, np.float32)
    with pytest.raises(FormatError, match=f"^save_record: manifest: {message}"):
        save_record(rec, tmp_path / "img")
    assert not (tmp_path / "img").exists()


def test_save_record_writes_numpy_integers_as_json_integers(tmp_path):
    rec = ActivationRecord(rf=(np.int64(5), 23))
    rec.masks[(np.int64(1), 1)] = np.full((1, 2, 4, 4), 0.5, np.float32)
    save_record(rec, tmp_path / "img")
    loaded = load_record(tmp_path / "img")
    assert loaded.rf == (5, 23) and loaded.block_keys() == [(1, 1)]
    assert (loaded.masks[(1, 1)] == rec.masks[(1, 1)]).all()
