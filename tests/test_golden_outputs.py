"""Golden digests of outputs that are pure arithmetic on the layer layout.

The weight-file manifest (tensor names, shapes, byte offsets) and the
``lsk count`` report do not depend on the random stream, so any change to
them means the layer tree, its naming or the cost model changed.  Update the
digests only for an intended change of the weight format or of the report.
"""

import hashlib
import io
import struct

import pytest

from lsknet.backbone import BackboneConfig, init_backbone_params, named_arrays
from lsknet.cli import main
from lsknet.fileio import WEIGHTS_MAGIC, write_weights

MANIFEST_SHA256 = {
    ("T", "spatial"): "4119940704501a460d76726c842c74d1d31c1f91b380039bd2311023eea6e082",
    ("T", "channel"): "22fc994d84d942c6e5e996cb12614afa07be1f2c960a0df33dfa3356eaa4e1c9",
    ("T", "none"): "cc17802fc71bfc3a1ef3ce25be4e63765f6152c6b86c93e4b9a639cf0030baa2",
    ("S", "spatial"): "8bf92b909c5e9cda11f2a1767faa09a9aaceafd2ba91f32c54d63b82469d2319",
    ("S", "channel"): "6cc795a50094aacca52323407ed7ff76b7e2e0c1a2b1f4655309ca21cfe3b75d",
    ("S", "none"): "138a4e7560924814fe3d3c54b26a2d3e018b1359ad533bd492dccd155a54eae8",
}

COUNT_KV_SHA256 = {
    "T": "138b2fe05ca8e29971a42719c5802b1e577dc77aac320a9a641ff6205368a137",
    "S": "abc0beb789af0605a726589ece267fbf016f00dcb9b8e2ac6db8ace1d7239243",
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


@pytest.mark.parametrize("variant", list(COUNT_KV_SHA256))
def test_count_kv_digest(variant, capsys):
    assert main(["count", "--variant", variant, "--format", "kv"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == COUNT_KV_SHA256[variant]
