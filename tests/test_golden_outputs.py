"""Golden digests of outputs that are pure arithmetic on the layer layout.

The weight-file manifest (tensor names, shapes, byte offsets), the ``lsk
count`` and ``lsk plan`` outputs and the cost reports do not depend on the
random stream, so any change to them means the layer tree, its naming or the
cost model changed.  Update the digests only for an intended change of the
weight format or of the report.  The channel-mode report digests were taken
once the squeeze and expand convs counted their MACs at 1x1.

The payload digests are the one exception: they hash the whole LSKW file of
``init_backbone_params(config, seed=0)``, so they pin the seeded draw (its
order, bounds and float32 rounding) as well as the layout.  The ``lsk
analyze`` digests likewise pin the two CSV reports over a seeded corpus that
goes through ``save_record`` and ``load_record``, so they catch a change of
the mask files' round trip or of the analysis arithmetic.  The record-bytes
digest pins the files ``save_record`` writes for that corpus, every name and
byte of them, which a lossless round trip alone would not.

The API digest pins the public callables of every ``lsknet`` submodule: the
names, kinds and default presence of their parameters.  A new option, or a
removed one, fails it until the digest is updated on purpose.
"""

import hashlib
import importlib
import inspect
import io
import struct

import numpy as np
import pytest

import lsknet
from lsknet.backbone import ActivationRecord, BackboneConfig, init_backbone_params, named_arrays
from lsknet.cli import main
from lsknet.cost import cost_backbone, report_to_kv
from lsknet.fileio import WEIGHTS_MAGIC, save_record, write_weights

MANIFEST_SHA256 = {
    ("T", "spatial"): "4119940704501a460d76726c842c74d1d31c1f91b380039bd2311023eea6e082",
    ("T", "channel"): "22fc994d84d942c6e5e996cb12614afa07be1f2c960a0df33dfa3356eaa4e1c9",
    ("T", "none"): "cc17802fc71bfc3a1ef3ce25be4e63765f6152c6b86c93e4b9a639cf0030baa2",
    ("S", "spatial"): "8bf92b909c5e9cda11f2a1767faa09a9aaceafd2ba91f32c54d63b82469d2319",
    ("S", "channel"): "6cc795a50094aacca52323407ed7ff76b7e2e0c1a2b1f4655309ca21cfe3b75d",
    ("S", "none"): "138a4e7560924814fe3d3c54b26a2d3e018b1359ad533bd492dccd155a54eae8",
}

# sha256 of the full LSKW bytes written from init_backbone_params(config, seed=0)
PAYLOAD_SHA256 = {
    ("T", "spatial"): "9e6feb49beba9aa1ed1d1400019ece034510a6bf1cb5c697008e57b12d6b70d2",
    ("T", "channel"): "ba0d8e1fa3591ff2db83754d15ab53e516c14d3cf8f8c8fdda390bb71e6ef94a",
    ("T", "none"): "b9a986d627ecdd9af3d8573a23fa4ab9351cfcf4b34d157d6d733b7fbba8b7b1",
    ("S", "spatial"): "5fe839b6035718162f62c84d0017556ec19c7dc18b9b8d48b77dd3f06d300491",
}

COUNT_KV_SHA256 = {
    "T": "138b2fe05ca8e29971a42719c5802b1e577dc77aac320a9a641ff6205368a137",
    "S": "abc0beb789af0605a726589ece267fbf016f00dcb9b8e2ac6db8ace1d7239243",
}

CLI_SHA256 = {
    "count --variant T": "0ce90358871517503afe301de5271771665078ccd0be1241cf834dc4aefea041",
    "count --variant S": "bb45217b5be2dea05421bfc9befa387293b20b9f01226cf25f6429acc15bc243",
    "plan --target-rf 23 --max-stages 2 --max-k 23 --format kv":
        "79b8551bf5865b89ecd85ef32b89abe910774b32903fce9be3520789bdc29750",
    "plan --target-rf 29 --max-stages 3 --max-k 29 --format kv":
        "d7c402f8ec034a3e03eef1d4eb213fe8d38f9f12f778f3ac453c374d1b2b419d",
}

# report_to_kv(cost_backbone(config, 96, 160)) per (variant, selection mode, pooling set)
REPORT_KV_SHA256 = {
    ("T", "none", "avg+max"): "2a8c5a94ad789116935fe6c8113170d67a24e1db21bdd38246b41a58cd47d3e0",
    ("T", "spatial", "max"): "13e9321c2a9644747c2ea67083ad3050246b30bef35acc30c87f14b1f0fe8e7b",
    ("T", "channel", "avg+max"): "2bbc1314ecfa42760e5b8ac94b20f9d65e0853361aa310a3851b3e6a00edde90",
    ("S", "none", "avg+max"): "78cd6556f625764c6802551d43fd6622f1082e318dcf922193efd5fc0b43c64d",
    ("S", "spatial", "max"): "74a01e2dd8f2054d9bed68c3ef8111fb42251371b056bdab6d0021ed81febd77",
    ("S", "channel", "avg+max"): "456ebaf9f071f50ac6741a840d717cc28b860befcc620843676667929bec4694",
}


@pytest.mark.parametrize("variant,mode", list(MANIFEST_SHA256))
def test_weight_manifest_digest(variant, mode):
    params = init_backbone_params(BackboneConfig.variant(variant, selection_mode=mode), seed=0)
    buf = io.BytesIO()
    write_weights(buf, named_arrays(params))
    raw = buf.getvalue()
    assert raw[:8] == WEIGHTS_MAGIC
    (length,) = struct.unpack("<I", raw[8:12])
    digest = hashlib.sha256(raw[12 : 12 + length]).hexdigest()
    assert digest == MANIFEST_SHA256[(variant, mode)]


@pytest.mark.parametrize("variant,mode", list(PAYLOAD_SHA256))
def test_seeded_weight_payload_digest(variant, mode):
    params = init_backbone_params(BackboneConfig.variant(variant, selection_mode=mode), seed=0)
    buf = io.BytesIO()
    write_weights(buf, named_arrays(params))
    assert hashlib.sha256(buf.getvalue()).hexdigest() == PAYLOAD_SHA256[(variant, mode)]


@pytest.mark.parametrize("variant", list(COUNT_KV_SHA256))
def test_count_kv_digest(variant, capsys):
    assert main(["count", "--variant", variant, "--format", "kv"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == COUNT_KV_SHA256[variant]


@pytest.mark.parametrize("command", list(CLI_SHA256))
def test_cli_output_digest(command, capsys):
    assert main(command.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CLI_SHA256[command]


@pytest.mark.parametrize("variant,mode,pooling", list(REPORT_KV_SHA256))
def test_cost_report_digest(variant, mode, pooling):
    config = BackboneConfig.variant(variant, selection_mode=mode, pooling=pooling.split("+"))
    digest = hashlib.sha256(report_to_kv(cost_backbone(config, 96, 160)).encode()).hexdigest()
    assert digest == REPORT_KV_SHA256[(variant, mode, pooling)]


# the two ``lsk analyze`` reports over the corpus of write_analyze_corpus()
ANALYZE_SHA256 = {
    "rc.csv": "d15394ac51ea68a24ad4a6635118d60691c047e151253765ad12621135e56b14",
    "selection_diff.csv": "ba00ac717668fa5695d965a483d6d864a6d38a36e80e160b69dab8e710f07856",
}


def write_analyze_corpus(root):
    """Eight images from one seeded stream: two-kernel mask records of batch 1
    and batch 2 (four blocks at three resolutions), and annotation text with
    header lines, single- and two-category images and one malformed line."""
    rng = np.random.default_rng(2023)
    sides = {(1, 1): 8, (1, 2): 8, (2, 1): 4, (3, 1): 2}
    categories = ["harbor", "plane", "ship"]
    (root / "annotations").mkdir(parents=True)
    for j in range(8):
        record = ActivationRecord(rf=(5, 23))
        for key, side in sides.items():
            record.masks[key] = rng.random((1 + j % 2, 2, side, side), dtype=np.float32)
        save_record(record, root / "masks" / f"img{j}")
        lines = ["imagesource:GoogleEarth", f"gsd:{rng.uniform(0.1, 1.0):.6f}"]
        for b in range(1 + j % 3):
            category = categories[(j + (b if j == 5 else 0)) % 3]  # image 5 holds two categories
            x, y = (int(v) for v in rng.integers(0, 64, 2))
            w, h = (int(v) for v in rng.integers(2, 24, 2))
            lines.append(f"{x}.0 {y}.0 {x + w}.0 {y}.0 {x + w}.0 {y + h}.0 {x}.0 {y + h}.0 {category} {b % 2}")
        if j == 3:
            lines.append("1.0 2.0 3.0 4.0 5.0 6.0 7.0 plane 0")  # seven coordinates
        (root / "annotations" / f"img{j}.txt").write_text("\n".join(lines) + "\n")


# tree_digest() of the masks/ tree that write_analyze_corpus() saves
RECORD_TREE_SHA256 = "4f14d74afcc58428264f6bccec2d9865816304813f23b9f37222afd227efedc8"


def tree_digest(root) -> str:
    """sha256 over the files under ``root`` in order of their relative
    names: each name, its byte length and its bytes."""
    h = hashlib.sha256()
    for name in sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()):
        data = (root / name).read_bytes()
        h.update(f"{name}\n{len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def test_saved_record_bytes_digest(tmp_path):
    write_analyze_corpus(tmp_path)
    assert len(list((tmp_path / "masks").rglob("*.lskt"))) == 64
    assert tree_digest(tmp_path / "masks") == RECORD_TREE_SHA256


def test_analyze_report_digest(tmp_path, capsys):
    write_analyze_corpus(tmp_path)
    out = tmp_path / "out"
    argv = ["analyze", "--masks", str(tmp_path / "masks"), "--annotations", str(tmp_path / "annotations")]
    assert main([*argv, "--out", str(out)]) == 0
    assert "skipped 1 malformed line(s)" in capsys.readouterr().err
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ANALYZE_SHA256}
    assert digests == ANALYZE_SHA256


# api_listing() of the public callables
API_SHA256 = "d1f2f5abdb19c25e08436067994e1304a05f3fa77939b5043b91bb7fce91c288"


def api_listing() -> str:
    """One line per public callable of each ``lsknet`` submodule with its
    parameters' names and kinds, and ``=Ellipsis`` where one has a default.  A
    module's public names are its ``__all__``, or every public name it
    defines when it has none (``errors``, ``cli``).  A class is listed by the
    ``__init__`` it defines, so dataclass fields count; one inherited from
    Python itself is left out.  Annotations and default values are left out
    too, as their text varies with the Python version."""
    lines = []
    for sub in (name for name in lsknet.__all__ if name != "__version__"):
        module = importlib.import_module(f"lsknet.{sub}")
        names = getattr(module, "__all__", None) or [
            name for name, value in vars(module).items()
            if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__
        ]
        for name in names:
            obj = getattr(module, name)
            if isinstance(obj, type):
                owner = next(k for k in obj.__mro__ if "__init__" in vars(k))
                obj = owner.__init__ if owner.__module__.startswith("lsknet") else None
                if obj is None:
                    lines.append(f"{sub}.{name}: inherited __init__")
                    continue
            elif not callable(obj):
                continue
            sig = inspect.signature(obj)
            params = [
                p.replace(annotation=p.empty, default=p.empty if p.default is p.empty else ...)
                for p in sig.parameters.values()
            ]
            lines.append(f"{sub}.{name}{sig.replace(parameters=params, return_annotation=sig.empty)}")
    return "\n".join(lines)


def test_public_api_digest():
    listing = api_listing()
    digest = hashlib.sha256(listing.encode()).hexdigest()
    assert digest == API_SHA256, f"public API changed; update API_SHA256 on purpose:\n{listing}"
