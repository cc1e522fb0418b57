"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance and runtime budget is pinned here; nothing is
deferred to later calibration.
"""

import io
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lsknet import ops
from lsknet.backbone import BackboneConfig, backbone_forward, init_backbone_params
from lsknet.cost import cost_backbone, cost_lsk_module
from lsknet.errors import FormatError
from lsknet.fileio import read_tensor, read_weights, write_tensor, write_weights
from lsknet.gradcheck import TOLERANCE, run_suite
from lsknet.module import SelectionMode, init_lsk_params, lsk_forward, params_astype
from lsknet.ops import ConvSpec
from lsknet.plan import validate_plan
from lsknet.train import toy_train

from oracles import (
    channel_pool_loops,
    conv2d_loops,
    depthwise_conv_loops,
    gelu_ref,
    lsk_composition,
    pointwise_conv_loops,
    sigmoid_ref,
)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"
    print(f"ACCEPTANCE {number} PASS: {description} [{elapsed:.3f}s]")


def test_criterion_1_receptive_field_arithmetic():
    with criterion(1, "receptive-field arithmetic exact (RF 23 and 29 sequences)", 1.0):
        cases = [
            ([(5, 1), (7, 3)], (5, 23)),
            ([(29, 1)], (29,)),
            ([(5, 1), (7, 4)], (5, 29)),
            ([(3, 1), (5, 2), (7, 3)], (3, 11, 29)),
        ]
        for stages, expected in cases:  # warm-up plus correctness
            assert validate_plan(stages).rf_per_stage == expected
        start = time.perf_counter()
        for stages, expected in cases:
            assert validate_plan(stages).rf_per_stage == expected
        per_call = (time.perf_counter() - start) / len(cases)
        assert per_call < 1e-3, f"validate_plan took {per_call * 1e3:.3f} ms per call"


def test_criterion_2_decomposition_efficiency_ordering():
    with criterion(2, "decomposition cost ratios >= 3.0 (RF 23) and >= 4.0 (RF 29)", 1.0):
        def module_convs(stages):
            """The plan search's cost: the convs node of the walk over the
            plan's default 64-channel module (shape-only tree)."""
            module = init_lsk_params(validate_plan(stages), 64)
            return dict(cost_lsk_module(module, 1, 1).breakdown)["convs"]

        single_23 = module_convs([(23, 1)]).params
        decomp_23 = module_convs([(5, 1), (7, 3)]).params
        assert single_23 / decomp_23 >= 3.0
        single_29 = module_convs([(29, 1)]).params
        decomp_29 = module_convs([(3, 1), (5, 2), (7, 3)]).params
        assert single_29 / decomp_29 >= 4.0
        start = time.perf_counter()
        module_convs([(23, 1)])
        assert time.perf_counter() - start < 1e-3


def test_criterion_3_forward_oracle_equivalence():
    with criterion(3, "forward kernels match naive-loop oracles to 1e-6 (100+ instances each)", 30.0):
        rng = np.random.default_rng(0)

        def rand(shape):
            return rng.uniform(-2.0, 2.0, size=shape)

        for _ in range(100):
            n, c = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            h, w = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            k = int(rng.choice([3, 5]))
            d = int(rng.integers(1, 4))
            x = rand((n, c, h, w))

            wdw, b = rand((c, k, k)), rand((c,))
            got = ops.depthwise_conv(x, wdw, b, ConvSpec(k, d))
            ref = depthwise_conv_loops(x, wdw, b, k, d)
            np.testing.assert_allclose(got, ref, atol=1e-6)

            c_out = int(rng.integers(1, 4))
            wpw, bpw = rand((c_out, c)), rand((c_out,))
            np.testing.assert_allclose(
                ops.pointwise_conv(x, wpw, bpw), pointwise_conv_loops(x, wpw, bpw), atol=1e-6
            )

            stride = int(rng.choice([1, 2]))
            wc, bc = rand((c_out, c, 3, 3)), rand((c_out,))
            np.testing.assert_allclose(
                ops.conv2d(x, wc, bc, stride=stride),
                conv2d_loops(x, wc, bc, stride, 1),
                atol=1e-6,
            )

            for mode in ("avg", "max"):
                np.testing.assert_allclose(
                    ops.channel_pool(x, mode), channel_pool_loops(x, mode), atol=1e-6
                )
            y = rand(x.shape)
            np.testing.assert_allclose(ops.broadcast_mask_mul(x, y), x * y, atol=1e-6)
            np.testing.assert_allclose(ops.add(x, y), x + y, atol=1e-6)
            np.testing.assert_allclose(ops.sigmoid(x), sigmoid_ref(x), atol=1e-6)
            np.testing.assert_allclose(ops.gelu(x), gelu_ref(x), atol=1e-6)
            np.testing.assert_allclose(
                ops.concat_channels([x, y]), np.concatenate([x, y], axis=1), atol=1e-6
            )
            mask = rand((n, 1, h, w))
            np.testing.assert_allclose(ops.broadcast_mask_mul(x, mask), x * mask, atol=1e-6)
            scale, shift = rand((c,)), rand((c,))
            mean, var = rand((c,)), np.abs(rand((c,))) + 0.1
            ref_norm = scale[None, :, None, None] * (x - mean[None, :, None, None]) / np.sqrt(
                var[None, :, None, None] + 1e-5
            ) + shift[None, :, None, None]
            np.testing.assert_allclose(
                ops.affine_channel_norm(x, scale, shift, mean, var), ref_norm, atol=1e-6
            )

        # module forward against the straight-line composition oracle
        for seed in range(10):
            rng_i = np.random.default_rng(seed)
            plan = validate_plan([(3, 1), (5, 2)])
            params = params_astype(init_lsk_params(plan, 4, rng=rng_i), np.float64)
            x = rng_i.uniform(-2, 2, size=(1, 4, 6, 6))
            out = lsk_forward(x, params)
            ref_y, ref_masks = lsk_composition(x, params)
            np.testing.assert_allclose(out.y, ref_y, atol=1e-6)
            np.testing.assert_allclose(out.masks, ref_masks, atol=1e-6)


def test_criterion_4_gradient_checks():
    with criterion(4, "all backward passes pass 64-bit finite differences (<1e-4)", 120.0):
        results = run_suite(seed=0)
        failures = [r for r in results if not r.passed]
        assert not failures, [(r.name, r.max_rel_error) for r in failures]
        assert len(results) >= 15
        assert all(r.max_rel_error < TOLERANCE for r in results)


def test_criterion_5_structural_invariants():
    with criterion(5, "mask invariants, identity blocks, 13/10 mask entries", 10.0):
        rng = np.random.default_rng(0)
        plan = validate_plan([(5, 1), (7, 3)])

        params = init_lsk_params(plan, 8, rng=rng)
        params.select.weight[...] = 0.0
        params.select.bias[...] = 0.0
        x = rng.uniform(-1, 1, size=(2, 8, 12, 12)).astype(np.float32)
        out = lsk_forward(x, params)
        assert (out.masks == 0.5).all()
        assert out.masks.shape == (2, 2, 12, 12)

        from lsknet.block import block_forward, init_block_params

        bp = init_block_params(plan, c=8, ffn_ratio=2.0, rng=np.random.default_rng(1))
        bp.post.weight[...] = 0.0
        bp.post.bias[...] = 0.0
        bp.ffn.fc2.weight[...] = 0.0
        bp.ffn.fc2.bias[...] = 0.0
        xb = rng.uniform(-1, 1, size=(1, 8, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(block_forward(xb, bp).y, xb)

        img = rng.uniform(-1, 1, size=(1, 3, 64, 64)).astype(np.float32)
        out_t = backbone_forward(img, init_backbone_params(BackboneConfig.variant("T"), 0))
        assert len(out_t.record.masks) == 13
        for masks in out_t.record.masks.values():
            assert masks.shape[1] == 2
        out_s = backbone_forward(img, init_backbone_params(BackboneConfig.variant("S"), 0))
        assert len(out_s.record.masks) == 10


def test_criterion_6_count_reproduction():
    with criterion(6, "parameter/FLOP counts near published totals, fully attributed", 1.0):
        rep_t = cost_backbone(BackboneConfig.variant("T"), 1024, 1024)
        assert abs(rep_t.params - 4.3e6) / 4.3e6 < 0.20
        rep_s = cost_backbone(BackboneConfig.variant("S"), 1024, 1024)
        assert abs(rep_s.params - 14.4e6) / 14.4e6 < 0.20
        # the published complexity column counts fused multiply-adds, so the
        # comparison runs on the report's mac figure; the 2-flops-per-mac
        # figure is carried alongside and documented in the conventions
        assert abs(rep_s.macs - 54.4e9) / 54.4e9 < 0.25
        for rep in (rep_t, rep_s):
            rep.validate()  # breakdown sums exactly: every deviation attributable
            assert rep.conventions  # counting rules are part of the report


def test_criterion_7_analysis_correctness():
    with criterion(7, "analysis metrics match hand oracles; biased fixture ordering", 5.0):
        from lsknet.analysis import OrientedBox, analyze_images, compute_selection_diff
        from lsknet.backbone import ActivationRecord

        def box(x0, y0, x1, y1, category="ship"):
            verts = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=np.float64)
            return OrientedBox(vertices=verts, category=category)

        def record(rf, entries):
            rec = ActivationRecord(rf=tuple(rf))
            for key, mask in entries.items():
                rec.masks[key] = np.asarray(mask, dtype=np.float64)
            return rec

        rec = record([23], {(1, 1): np.ones((1, 1, 4, 4))})
        (stats,), _ = analyze_images([(rec, [box(0, 0, 10, 4.6)])])
        assert abs(stats.r_c_raw - 8.0) < 1e-9

        def const(vals, h=4, w=4):
            out = np.zeros((1, len(vals), h, w))
            for i, v in enumerate(vals):
                out[0, i] = v
            return out

        img1 = record([5, 23], {(1, 1): const([0.2, 0.6]), (1, 2): const([0.5, 0.5]),
                                (2, 1): const([0.1, 0.9])})
        img2 = record([5, 23], {(1, 1): const([0.2, 0.6]), (1, 2): const([0.5, 0.5]),
                                (2, 1): const([0.3, 0.5])})
        diffs = {d.block_key: d for d in compute_selection_diff([img1, img2], "ship")}
        assert abs(diffs[(1, 1)].delta_raw - 0.4) < 1e-9
        assert abs(diffs[(1, 2)].delta_raw - 0.0) < 1e-9
        assert abs(diffs[(2, 1)].delta_raw - 0.5) < 1e-9
        assert abs(diffs[(1, 1)].delta_normalized - 0.8) < 1e-9

        rng = np.random.default_rng(3)

        def image(cat, larger_bias):
            entries = {}
            for key in ((1, 1), (2, 1)):
                small = rng.uniform(0.1, 0.3, (1, 1, 4, 4))
                large = np.clip(small + larger_bias, 0, 1)
                entries[key] = np.concatenate([small, large], axis=1)
            return record([5, 23], entries), [box(0, 0, 8, 8, cat)]

        images = [image("needs-context", 0.5) for _ in range(3)]
        images += [image("local-texture", 0.05) for _ in range(3)]
        _, cat_diffs = analyze_images(images)
        mean_delta = {c: np.mean([d.delta_raw for d in ds]) for c, ds in cat_diffs.items()}
        assert mean_delta["needs-context"] > mean_delta["local-texture"]


def test_criterion_8_toy_training_overfits():
    with criterion(8, "selection module + linear head overfits 8 samples to MSE < 1e-2", 120.0):
        losses = toy_train(steps=500, lr=0.5, seed=0, scope="module")
        assert losses[-1] < 1e-2, f"final loss {losses[-1]:.3e}"
        assert len(losses) == 501


def test_criterion_9_io_robustness():
    with criterion(9, "1000-instance bit-exact round trips; truncation fuzz is clean", 30.0):
        rng = np.random.default_rng(0)
        for i in range(1000):
            shape = tuple(int(rng.integers(1, 5)) for _ in range(4))
            x = rng.standard_normal(shape).astype(np.float32)
            buf = io.BytesIO()
            write_tensor(buf, x)
            buf.seek(0)
            y = read_tensor(buf)
            assert (x.view(np.uint32) == y.view(np.uint32)).all()

        for i in range(1000):
            arrays = {
                f"t{j}": rng.standard_normal(tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 5))))).astype(np.float32)
                for j in range(int(rng.integers(1, 4)))
            }
            buf = io.BytesIO()
            write_weights(buf, arrays)
            buf.seek(0)
            loaded, _ = read_weights(buf)
            assert list(loaded) == list(arrays)
            for k in arrays:
                assert (arrays[k].view(np.uint32) == loaded[k].view(np.uint32)).all()

        # fuzz: every truncation must raise a typed format error, never abort
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        tbuf = io.BytesIO()
        write_tensor(tbuf, x)
        traw = tbuf.getvalue()
        wbuf = io.BytesIO()
        write_weights(wbuf, {"a": x})
        wraw = wbuf.getvalue()
        for cut in range(0, len(traw) - 1, 3):
            with pytest.raises(FormatError):
                read_tensor(io.BytesIO(traw[:cut]))
        for cut in range(0, len(wraw) - 1, 3):
            with pytest.raises(FormatError):
                read_weights(io.BytesIO(wraw[:cut]))
