"""Annotation parsing, shoelace areas, the RF-area ratio, kernel selection
differences, normalization conventions and CSV emission."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsknet.analysis import (
    BlockSelectionDiff,
    OrientedBox,
    analyze_images,
    compute_selection_diff,
    emit_analysis,
    parse_annotations,
    polygon_area,
)
from lsknet.backbone import ActivationRecord
from lsknet.errors import AnalysisError
from oracles import analyze_images_loops


def box(x0, y0, x1, y1, category="ship"):
    verts = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=np.float64)
    return OrientedBox(vertices=verts, category=category)


def record(rf, entries):
    rec = ActivationRecord(rf=tuple(rf))
    for key, mask in entries.items():
        rec.masks[key] = np.asarray(mask, dtype=np.float64)
    return rec


def rc(images):
    """The stats of the one category the images hold (normalized to 1.0)."""
    (stats,), _ = analyze_images(images)
    return stats


def const_masks(values, h=4, w=4):
    """(1, N, h, w) stack of constant masks."""
    n = len(values)
    out = np.zeros((1, n, h, w), dtype=np.float64)
    for i, v in enumerate(values):
        out[0, i] = v
    return out


class TestParse:
    def test_single_box(self):
        result = parse_annotations("0 0 10 0 10 10 0 10 ship 0")
        assert len(result.boxes) == 1
        b = result.boxes[0]
        assert b.category == "ship"
        assert b.difficulty == 0
        assert b.area == pytest.approx(100.0)

    def test_empty_input(self):
        result = parse_annotations("")
        assert result.boxes == [] and result.malformed_lines == 0

    def test_seven_coordinates_is_malformed(self):
        result = parse_annotations("0 0 10 0 10 10 0 ship 0")
        assert result.boxes == [] and result.malformed_lines == 1

    def test_metadata_headers_skipped_silently(self):
        text = "imagesource:GoogleEarth\ngsd:0.12\n0 0 4 0 4 4 0 4 plane 1\n"
        result = parse_annotations(text)
        assert len(result.boxes) == 1 and result.malformed_lines == 0
        assert result.boxes[0].difficulty == 1

    def test_leading_byte_order_mark_is_ignored(self):
        result = parse_annotations("\ufeff0 0 10 0 10 10 0 10 ship 0\n0 0 4 0 4 4 0 4 plane 1\n")
        assert [b.category for b in result.boxes] == ["ship", "plane"]
        assert result.malformed_lines == 0

    def test_degenerate_box_dropped_with_count(self):
        result = parse_annotations("0 0 1 1 2 2 3 3 ship 0")  # collinear
        assert result.boxes == [] and result.degenerate_boxes == 1

    def test_non_numeric_difficulty_is_malformed(self):
        result = parse_annotations("0 0 1 0 1 1 0 1 ship x")
        assert result.malformed_lines == 1

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1_0", "\u0661", "\uff11"])
    @pytest.mark.parametrize("position", [0, 2, 9], ids=["first-token", "coordinate", "difficulty"])
    def test_non_finite_coordinate_is_malformed(self, bad, position):
        tokens = "0 0 1 0 1 1 0 1 plane 0".split()
        tokens[position] = bad
        result = parse_annotations(" ".join(tokens) + "\n0 0 4 0 4 4 0 4 plane 1\n")
        assert result.malformed_lines == 1 and result.degenerate_boxes == 0
        assert [b.area for b in result.boxes] == [16.0]
        rec = record([23], {(1, 1): np.ones((1, 1, 4, 4))})
        assert rc([(rec, result.boxes)]).r_c_raw == 23.0


class TestArea:
    def test_axis_aligned_square(self):
        assert polygon_area(np.array([[0, 0], [10, 0], [10, 10], [0, 10]])) == 100.0

    def test_rotated_square_with_diagonal_two(self):
        verts = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        assert polygon_area(verts) == pytest.approx(2.0)

    def test_collinear_points_have_zero_area(self):
        assert polygon_area(np.array([[0, 0], [1, 1], [2, 2], [3, 3]])) == 0.0

    def test_vertex_order_does_not_change_magnitude(self):
        verts = np.array([[0, 0], [4, 0], [4, 3], [0, 3]], dtype=float)
        assert polygon_area(verts) == polygon_area(verts[::-1]) == 12.0


class TestRcRatio:
    def test_hand_computed_single_image(self):
        # one block, one kernel with RF 23, all-ones 4x4 mask, box area 46:
        # A = 23 * 16 = 368, R = 368 / 46 = 8
        rec = record([23], {(1, 1): np.ones((1, 1, 4, 4))})
        stats = rc([(rec, [box(0, 0, 10, 4.6)])])
        assert stats.r_c_raw == pytest.approx(8.0, abs=1e-9)
        assert stats.image_count == 1
        assert stats.r_c_normalized == 1.0  # singleton convention

    def test_zero_masks_give_zero_ratio(self):
        rec = record([23], {(1, 1): np.zeros((1, 1, 4, 4))})
        stats = rc([(rec, [box(0, 0, 10, 10)])])
        assert stats.r_c_raw == 0.0

    def test_mixed_category_images_are_excluded(self):
        rec = record([23], {(1, 1): np.ones((1, 1, 4, 4))})
        mixed = [(rec, [box(0, 0, 2, 2, "ship"), box(3, 3, 5, 5, "plane")])]
        stats, diffs = analyze_images(mixed)
        assert stats == [] and diffs == {}

    def test_zero_area_and_excluded_categories_are_logged(self, caplog):
        rec = record([23], {(1, 1): np.ones((1, 1, 4, 4))})
        images = [
            (rec, [box(0, 0, 0, 5, "ship")]),
            (rec, [box(0, 0, 2, 2, "ship"), box(0, 0, 2, 2, "plane")]),
        ]
        with caplog.at_level("INFO", logger="lsknet.analysis"):
            assert analyze_images(images) == ([], {})
        messages = [r.getMessage() for r in caplog.records]
        assert "category ship: image with zero annotated area skipped" in messages
        assert "category ship excluded: no eligible single-category images" in messages
        assert "category plane excluded: no eligible single-category images" in messages

    def test_record_without_blocks(self):
        """A record without masks has no selection differences, and an
        image it stands for is refused by category rather than read as an
        R_c of 0; it counts for no category it is not eligible for."""
        rec = record([5, 23], {})
        assert compute_selection_diff([rec], "ship") == []
        with pytest.raises(AnalysisError, match=r"^category 'ship': a record holds no mask blocks$"):
            analyze_images([(rec, [box(0, 0, 1, 1)])])
        assert analyze_images([(rec, [box(0, 0, 1, 1), box(0, 0, 1, 1, "plane")])]) == ([], {})

    def test_activation_sum_weights_by_rf(self):
        rec = record([5, 23], {(1, 1): const_masks([1.0, 1.0], 2, 2)})
        # 5 * 4 + 23 * 4, over a unit-area box
        assert rc([(rec, [box(0, 0, 1, 1)])]).r_c_raw == pytest.approx(112.0)

    def test_batch_order_invariance(self):
        rng = np.random.default_rng(0)
        images = []
        for _ in range(6):
            rec = record([5, 23], {(1, 1): rng.uniform(0.1, 0.9, (1, 2, 4, 4))})
            images.append((rec, [box(0, 0, 10, 10)]))
        forward = rc(images).r_c_raw
        backward = rc(list(reversed(images))).r_c_raw
        assert forward == pytest.approx(backward, abs=1e-9)

    def test_mask_scaling_scales_raw_ratio_linearly(self):
        rng = np.random.default_rng(1)
        masks = rng.uniform(0.1, 0.9, (1, 2, 4, 4))
        lam = 0.37
        base = rc([(record([5, 23], {(1, 1): masks}), [box(0, 0, 10, 10)])])
        scaled = rc([(record([5, 23], {(1, 1): lam * masks}), [box(0, 0, 10, 10)])])
        assert scaled.r_c_raw == pytest.approx(lam * base.r_c_raw, rel=1e-6)

    def test_mask_scaling_preserves_normalized_ordering(self):
        rng = np.random.default_rng(4)

        def images(lam):
            out = []
            for cat, level in (("a", 0.2), ("b", 0.6), ("c", 0.9)):
                masks = lam * np.full((1, 2, 4, 4), level) + rng.uniform(0, 1e-3)
                out.append((record([5, 23], {(1, 1): masks}), [box(0, 0, 10, 10, cat)]))
            return out

        order = lambda stats: [s.category for s in sorted(stats, key=lambda s: s.r_c_normalized)]
        assert order(analyze_images(images(1.0))[0]) == order(analyze_images(images(0.25))[0])

    def test_normalization_across_categories(self):
        def image(cat, level):
            rec = record([23], {(1, 1): np.full((1, 1, 4, 4), level, dtype=np.float32)})
            return rec, [box(0, 0, 10, 10, cat)]

        stats, _ = analyze_images([image("low", 0.2), image("mid", 0.5), image("high", 0.8)])
        by_cat = {s.category: s for s in stats}
        assert by_cat["low"].r_c_normalized == 0.0
        assert by_cat["high"].r_c_normalized == 1.0
        assert 0.0 < by_cat["mid"].r_c_normalized < 1.0

    def test_equal_categories_normalize_equal(self):
        def image(cat):
            rec = record([23], {(1, 1): np.full((1, 1, 4, 4), 0.5, dtype=np.float32)})
            return rec, [box(0, 0, 10, 10, cat)]

        stats, _ = analyze_images([image("a"), image("b")])
        assert [s.r_c_normalized for s in stats] == [1.0, 1.0]


class TestSelectionDiff:
    def test_identical_masks_give_zero(self):
        recs = [record([5, 23], {(1, 1): const_masks([0.4, 0.4]), (2, 1): const_masks([0.7, 0.7])})]
        diffs = compute_selection_diff(recs, "ship")
        assert all(d.delta_raw == 0.0 for d in diffs)

    def test_maximal_difference_is_one(self):
        recs = [record([5, 23], {(1, 1): const_masks([0.0, 1.0])})]
        (d,) = compute_selection_diff(recs, "ship")
        assert d.delta_raw == 1.0 and d.delta_abs == 1.0

    def test_signed_range_is_bounded(self):
        rng = np.random.default_rng(2)
        recs = [record([5, 23], {(1, 1): rng.uniform(0, 1, (1, 2, 4, 4))}) for _ in range(5)]
        for d in compute_selection_diff(recs, "ship"):
            assert -1.0 <= d.delta_raw <= 1.0
            assert 0.0 <= d.delta_abs <= 1.0

    def test_hand_computed_three_blocks(self):
        img1 = record(
            [5, 23],
            {
                (1, 1): const_masks([0.2, 0.6]),
                (1, 2): const_masks([0.5, 0.5]),
                (2, 1): const_masks([0.1, 0.9]),
            },
        )
        img2 = record(
            [5, 23],
            {
                (1, 1): const_masks([0.2, 0.6]),
                (1, 2): const_masks([0.5, 0.5]),
                (2, 1): const_masks([0.3, 0.5]),
            },
        )
        diffs = compute_selection_diff([img1, img2], "ship")
        by_key = {d.block_key: d for d in diffs}
        assert by_key[(1, 1)].delta_raw == pytest.approx(0.4, abs=1e-6)
        assert by_key[(1, 2)].delta_raw == pytest.approx(0.0, abs=1e-6)
        assert by_key[(2, 1)].delta_raw == pytest.approx(0.5, abs=1e-6)
        # min-max across blocks: 0.0 -> 0, 0.5 -> 1, 0.4 -> 0.8
        assert by_key[(1, 1)].delta_normalized == pytest.approx(0.8, abs=1e-9)
        assert by_key[(1, 2)].delta_normalized == 0.0
        assert by_key[(2, 1)].delta_normalized == 1.0

    def test_zero_area_image_is_left_out_of_both_metrics(self):
        """R_c and the selection difference average one image set: an image
        whose boxes enclose no area counts for neither."""
        images = [
            (record([5, 23], {(1, 1): const_masks([0.0, 1.0])}), [box(0, 0, 4, 4)]),  # delta +1
            (record([5, 23], {(1, 1): const_masks([1.0, 0.0])}), [box(0, 0, 0, 4)]),  # delta -1, area 0
        ]
        (stats,), diffs = analyze_images(images)
        assert stats.image_count == 1
        (d,) = diffs["ship"]
        assert d.delta_raw == 1.0 and d.delta_abs == 1.0

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["one-kernel-first", "two-kernel-first"])
    def test_mixed_kernel_counts_in_a_category_are_refused(self, order):
        """Whatever the image order, a category whose records hold different
        kernel counts is an error naming the category and the counts; a
        category of its own count alone is analysed as before."""
        ship = [
            (record([5], {(1, 1): const_masks([0.5])}), [box(0, 0, 4, 4)]),
            (record([5, 23], {(1, 1): const_masks([0.2, 0.4])}), [box(0, 0, 4, 4)]),
        ]
        with pytest.raises(AnalysisError, match=r"^category 'ship': records hold different kernel counts \[1, 2\]$"):
            analyze_images([ship[i] for i in order])
        plane = (record([5, 23], {(1, 1): const_masks([0.2, 0.4])}), [box(0, 0, 4, 4, "plane")])
        stats, diffs = analyze_images([ship[0], plane][:: 1 if order[0] == 0 else -1])
        assert [s.category for s in stats] == ["plane", "ship"] and list(diffs) == ["plane"]

    def test_records_with_different_block_keys_name_the_category(self):
        """A category whose records hold different blocks is refused, naming
        the category and both key lists, so ``lsk analyze`` points at them."""
        images = [
            (record([5, 23], {(1, 1): const_masks([0.2, 0.4])}), [box(0, 0, 4, 4)]),
            (record([5, 23], {(1, 2): const_masks([0.2, 0.4])}), [box(0, 0, 4, 4)]),
        ]
        with pytest.raises(
            AnalysisError, match=r"^category 'ship': records disagree on block keys \[\(1, 1\)\] and \[\(1, 2\)\]$"
        ):
            analyze_images(images)

    def test_three_kernel_plan_rejected(self):
        rec = record([3, 11, 29], {(1, 1): const_masks([0.2, 0.4, 0.6])})
        with pytest.raises(AnalysisError, match="2-kernel"):
            compute_selection_diff([rec], "ship")

    def test_category_ordering_on_biased_fixture(self):
        """Context-hungry category (larger-kernel dominant masks) must rank
        above the texture category (smaller-kernel dominant)."""
        rng = np.random.default_rng(3)

        def image(cat, larger_bias):
            entries = {}
            for key in ((1, 1), (2, 1)):
                small = rng.uniform(0.1, 0.3, (1, 1, 4, 4))
                large = small + larger_bias + rng.uniform(0, 0.05, (1, 1, 4, 4))
                entries[key] = np.concatenate([small, np.clip(large, 0, 1)], axis=1)
            return record([5, 23], entries), [box(0, 0, 8, 8, cat)]

        images = [image("needs-context", +0.5) for _ in range(3)]
        images += [image("local-texture", +0.05) for _ in range(3)]
        _, diffs = analyze_images(images)
        mean_delta = {
            cat: np.mean([d.delta_raw for d in block_diffs]) for cat, block_diffs in diffs.items()
        }
        assert mean_delta["needs-context"] > mean_delta["local-texture"]


class TestEmit:
    def test_empty_stats_write_header_only(self, tmp_path):
        rc_path, diff_path = emit_analysis([], {}, tmp_path)
        assert rc_path.read_text().strip() == "category,r_c_raw,r_c_norm,images"
        assert diff_path.read_text().strip() == "category,block,delta_raw,delta_norm,delta_abs"

    def test_round_trip_preserves_values(self, tmp_path):
        rec = record([5, 23], {(1, 1): const_masks([0.25, 0.75])})
        images = [(rec, [box(0, 0, 7, 9)])]
        stats, diffs = analyze_images(images)
        rc_path, diff_path = emit_analysis(stats, diffs, tmp_path)

        with rc_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert abs(float(rows[0]["r_c_raw"]) - stats[0].r_c_raw) < 1e-9
        assert rows[0]["category"] == "ship"
        assert int(rows[0]["images"]) == 1

        with diff_path.open() as fh:
            diff_rows = list(csv.DictReader(fh))
        assert diff_rows[0]["block"] == "B_1_1"
        assert abs(float(diff_rows[0]["delta_raw"]) - diffs["ship"][0].delta_raw) < 1e-9

    def test_rows_are_lexicographically_ordered(self, tmp_path):
        stats = [
            type("S", (), dict(category=c, r_c_raw=1.0, r_c_normalized=1.0, image_count=1))()
            for c in ("zebra", "apple", "mango")
        ]
        diffs = {
            "zebra": [BlockSelectionDiff((2, 1), 0.1, 1.0, 0.1)],
            "apple": [
                BlockSelectionDiff((1, 2), 0.2, 1.0, 0.2),
                BlockSelectionDiff((1, 1), 0.3, 1.0, 0.3),
            ],
        }
        rc_path, diff_path = emit_analysis(stats, diffs, tmp_path)
        cats = [row.split(",")[0] for row in rc_path.read_text().splitlines()[1:]]
        assert cats == ["apple", "mango", "zebra"]
        diff_lines = diff_path.read_text().splitlines()[1:]
        assert [line.split(",")[:2] for line in diff_lines] == [
            ["apple", "B_1_1"],
            ["apple", "B_1_2"],
            ["zebra", "B_2_1"],
        ]


@st.composite
def image_sets(draw):
    """Images sharing one block layout: 1-3 kernels, float32 or float64
    masks in [0, 1], boxes of three categories (mixed-category images and
    zero-area boxes included)."""
    n_kernels = draw(st.integers(1, 3))
    rf = sorted(draw(st.lists(st.integers(1, 31), min_size=n_kernels, max_size=n_kernels, unique=True)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    batch = draw(st.integers(1, 2))
    layout = {
        (stage, depth): (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
        for stage, depth in draw(
            st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=1, max_size=3, unique=True)
        )
    }
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images = []
    for _ in range(draw(st.integers(1, 6))):
        rec = ActivationRecord(rf=tuple(rf))
        for key, (h, w) in layout.items():
            rec.masks[key] = rng.random((batch, n_kernels, h, w)).astype(dtype)
        boxes = [
            box(x0, y0, x0 + bw, y0 + bh, cat)
            for cat, x0, y0, bw, bh in draw(
                st.lists(
                    st.tuples(
                        st.sampled_from("abc"),
                        st.integers(0, 50),
                        st.integers(0, 50),
                        st.integers(0, 20),
                        st.integers(0, 20),
                    ),
                    max_size=3,
                )
            )
        ]
        images.append((rec, boxes))
    return images


@settings(max_examples=60, deadline=None)
@given(images=image_sets())
def test_analyze_images_matches_loop_oracle(images):
    stats, diffs = analyze_images(images)
    want_rc, want_diffs = analyze_images_loops(images)
    assert [s.category for s in stats] == list(want_rc)
    for s in stats:
        raw, norm, count = want_rc[s.category]
        assert s.r_c_raw == pytest.approx(raw, rel=1e-12)
        assert s.r_c_normalized == pytest.approx(norm, rel=1e-12)
        assert s.image_count == count
    assert set(diffs) == set(want_diffs)
    for category, block_diffs in diffs.items():
        want = want_diffs[category]
        assert [d.block_key for d in block_diffs] == list(want)
        for d in block_diffs:
            raw, norm, absolute = want[d.block_key]
            assert d.delta_raw == pytest.approx(raw, rel=1e-12)
            assert d.delta_normalized == pytest.approx(norm, rel=1e-12)
            assert d.delta_abs == pytest.approx(absolute, rel=1e-12)
