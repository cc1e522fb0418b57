"""CLI contract: subcommand behaviour, exit codes (0 success, 1 domain
failure, 2 usage), determinism under --seed, and machine-readable output."""

import os
import subprocess
import sys

import numpy as np
import pytest

import lsknet
from lsknet import cli, ops
from lsknet.backbone import ActivationRecord
from lsknet.cli import main
from lsknet.fileio import save_record, write_tensor


@pytest.fixture
def lskt_input(tmp_path):
    path = tmp_path / "input.lskt"
    x = np.random.default_rng(3).standard_normal((1, 3, 64, 64)).astype(np.float32)
    write_tensor(path, x)
    return path


def kv_totals(captured: str, component: str):
    for line in captured.splitlines():
        parts = dict(p.split("=", 1) for p in line.split(" ")) if "=" in line else {}
        if parts.get("component") == component:
            return int(parts["params"]), int(parts["macs"]), int(parts["flops"])
    raise AssertionError(f"component {component} not found")


class TestPlanCommand:
    def test_table_contains_expected_rows_in_cost_order(self, capsys):
        assert main(["plan", "--target-rf", "23", "--max-stages", "2", "--max-k", "23"]) == 0
        out = capsys.readouterr().out
        decomposed = out.index("(5,1) -> (7,3)")
        single = out.index("(23,1)")
        assert decomposed < single

    def test_target_29_lists_the_three_sequences(self, capsys):
        assert main(["plan", "--target-rf", "29", "--max-stages", "3", "--max-k", "29"]) == 0
        out = capsys.readouterr().out
        for seq in ("(29,1)", "(5,1) -> (7,4)", "(3,1) -> (5,2) -> (7,3)"):
            assert seq in out

    def test_infeasible_target_exits_one(self, capsys):
        assert main(["plan", "--target-rf", "2", "--max-stages", "3", "--max-k", "23"]) == 1
        assert "no feasible plan" in capsys.readouterr().err

    def test_kv_format(self, capsys):
        assert main(
            ["plan", "--target-rf", "23", "--max-stages", "2", "--max-k", "23", "--format", "kv"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(line.startswith("plan=") for line in lines)
        assert any("rf=5->23" in line for line in lines)

    def test_top_limits_rows(self, capsys):
        assert main(
            ["plan", "--target-rf", "23", "--max-stages", "2", "--max-k", "23",
             "--top", "1", "--format", "kv"]
        ) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1


class TestValidateCommand:
    def test_valid_sequence(self, capsys):
        assert main(["validate", "5,1", "7,3"]) == 0
        out = capsys.readouterr().out
        assert "rf=23" in out and "valid" in out

    def test_invalid_sequence_exits_one(self, capsys):
        assert main(["validate", "3,1", "5,4"]) == 1
        assert "d_2=4 > RF_1=3" in capsys.readouterr().err

    def test_malformed_token_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "5;1"])
        assert exc.value.code == 2


class TestCountCommand:
    def test_variant_t_params_near_published(self, capsys):
        assert main(["count", "--variant", "T", "--format", "kv"]) == 0
        params, macs, _ = kv_totals(capsys.readouterr().out, "lsknet-t@1024x1024")
        assert abs(params - 4.3e6) / 4.3e6 < 0.20

    def test_variant_s_params_and_macs_near_published(self, capsys):
        assert main(["count", "--variant", "S", "--format", "kv"]) == 0
        params, macs, _ = kv_totals(capsys.readouterr().out, "lsknet-s@1024x1024")
        assert abs(params - 14.4e6) / 14.4e6 < 0.20
        assert abs(macs - 54.4e9) / 54.4e9 < 0.25

    def test_doubling_resolution_quadruples_flops(self, capsys):
        assert main(["count", "--variant", "T", "--format", "kv"]) == 0
        _, macs1, flops1 = kv_totals(capsys.readouterr().out, "lsknet-t@1024x1024")
        assert main(["count", "--variant", "T", "--h", "2048", "--w", "2048", "--format", "kv"]) == 0
        _, macs2, flops2 = kv_totals(capsys.readouterr().out, "lsknet-t@2048x2048")
        assert flops2 == 4 * flops1 and macs2 == 4 * macs1

    def test_unknown_variant_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--variant", "XL"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("ratios", ["nan,8,4,4", "8,inf,4,4", "-1,8,4,4", "0,8,4,4", "1e300,8,4,4"])
    def test_bad_ffn_ratios_fail_with_error_line(self, capsys, ratios):
        assert main(["count", "--variant", "T", f"--ffn-ratios={ratios}"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "ffn ratios" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("size", [["--h", "48"], ["--h", "33", "--w", "1000"], ["--w", "0"]])
    def test_input_sizes_the_forward_refuses_fail(self, capsys, size):
        assert main(["count", "--variant", "T", *size]) == 1
        assert "error:" in capsys.readouterr().err

    def test_custom_ffn_ratios_change_param_count(self, capsys):
        assert main(["count", "--variant", "T", "--format", "kv"]) == 0
        base, _, _ = kv_totals(capsys.readouterr().out, "lsknet-t@1024x1024")
        assert main(["count", "--variant", "T", "--ffn-ratios", "4,4,2,2", "--format", "kv"]) == 0
        slim, _, _ = kv_totals(capsys.readouterr().out, "lsknet-t@1024x1024")
        assert slim < base

    def test_text_format_shows_conventions(self, capsys):
        assert main(["count", "--variant", "T"]) == 0
        assert "conventions:" in capsys.readouterr().out


class TestForwardCommand:
    def test_features_and_masks_written(self, tmp_path, lskt_input, capsys):
        out_dir, mask_dir = tmp_path / "feats", tmp_path / "masks"
        rc = main(
            ["forward", "--input", str(lskt_input), "--variant", "T", "--out", str(out_dir),
             "--export-masks", str(mask_dir), "--seed", "5"]
        )
        assert rc == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "stage1.lskt", "stage2.lskt", "stage3.lskt", "stage4.lskt",
        ]
        img_dir = mask_dir / "input"
        mask_files = sorted(p.name for p in img_dir.glob("*.lskt"))
        assert len(mask_files) == 26  # 13 blocks x 2 kernels
        block_groups = {name.rsplit("_", 1)[0] for name in mask_files}
        assert len(block_groups) == 13

    def test_seeded_runs_are_byte_identical(self, tmp_path, lskt_input, capsys):
        dirs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / tag
            rc = main(
                ["forward", "--input", str(lskt_input), "--variant", "T",
                 "--out", str(out_dir), "--export-masks", str(out_dir / "masks"), "--seed", "11"]
            )
            assert rc == 0
            dirs.append(out_dir)
        for rel in ["stage1.lskt", "stage4.lskt", "masks/input/B_1_1_1.lskt", "masks/input/B_4_2_2.lskt"]:
            assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes()

    def test_mode_none_writes_features_but_no_masks(self, tmp_path, lskt_input, capsys):
        out_dir, mask_dir = tmp_path / "feats", tmp_path / "masks"
        rc = main(
            ["forward", "--input", str(lskt_input), "--variant", "T", "--out", str(out_dir),
             "--export-masks", str(mask_dir), "--mode", "none"]
        )
        assert rc == 0
        assert (out_dir / "stage4.lskt").exists()
        assert not (mask_dir / "input").exists()

    def test_pgm_image_input(self, tmp_path, capsys):
        img = tmp_path / "img.pgm"
        img.write_bytes(b"P5\n64 64\n255\n" + bytes(range(256)) * 16)
        rc = main(["forward", "--input", str(img), "--variant", "T", "--out", str(tmp_path / "f")])
        assert rc == 0

    def test_indivisible_input_fails(self, tmp_path, capsys):
        path = tmp_path / "odd.lskt"
        write_tensor(path, np.zeros((1, 3, 48, 48), dtype=np.float32))
        rc = main(["forward", "--input", str(path), "--variant", "T", "--out", str(tmp_path / "f")])
        assert rc == 1
        assert "divisible" in capsys.readouterr().err

    def test_saved_weights_reproduce_random_init(self, tmp_path, lskt_input, capsys):
        wpath = tmp_path / "weights.lskw"
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main(["forward", "--input", str(lskt_input), "--variant", "T",
                     "--out", str(a_dir), "--seed", "5", "--save-weights", str(wpath)]) == 0
        assert main(["forward", "--input", str(lskt_input), "--variant", "T",
                     "--out", str(b_dir), "--weights", str(wpath)]) == 0
        assert (a_dir / "stage4.lskt").read_bytes() == (b_dir / "stage4.lskt").read_bytes()

    def test_wrong_weight_shapes_fail_with_tensor_name(self, tmp_path, lskt_input, capsys):
        from lsknet.fileio import write_weights

        wpath = tmp_path / "bad.lskw"
        write_weights(wpath, {"stem.conv.weight": np.zeros((2, 2), dtype=np.float32)})
        rc = main(["forward", "--input", str(lskt_input), "--variant", "T",
                   "--out", str(tmp_path / "f"), "--weights", str(wpath)])
        assert rc == 1
        assert "stem.conv" in capsys.readouterr().err

    def test_negative_variance_fails_with_tensor_name(self, tmp_path, lskt_input, capsys):
        from lsknet.backbone import BackboneConfig, init_backbone_params, named_arrays
        from lsknet.fileio import write_weights

        arrays = named_arrays(init_backbone_params(BackboneConfig.variant("T"), seed=0))
        arrays["stage2.block1.norm2.var"][3] = -0.5
        wpath = tmp_path / "negvar.lskw"
        write_weights(wpath, arrays)
        rc = main(["forward", "--input", str(lskt_input), "--variant", "T",
                   "--out", str(tmp_path / "f"), "--weights", str(wpath)])
        assert rc == 1
        assert "'stage2.block1.norm2.var' holds a negative or NaN variance" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()


class TestGradcheckCommand:
    def test_single_smooth_op_reports_tiny_error(self, capsys):
        assert main(["gradcheck", "--op", "sigmoid"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        err_value = float(out.split("max_rel_err=")[1].split()[0])
        assert err_value < 1e-6

    def test_all_ops_pass(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.count("PASS") >= 15

    def test_all_ops_report_errors_in_one_column(self, capsys):
        assert main(["gradcheck"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) >= 15
        assert len({line.index("max_rel_err=") for line in lines}) == 1
        assert any(line.startswith("broadcast_mask_mul_channel max_rel_err=") for line in lines)

    def test_perturbed_backward_is_caught(self, capsys, monkeypatch):
        true_backward = ops.sigmoid_backward

        def wrong_backward(grad_out, y):
            return true_backward(grad_out, y) * 1.02  # 2% systematic error

        monkeypatch.setattr(ops, "sigmoid_backward", wrong_backward)
        assert main(["gradcheck", "--op", "sigmoid"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "worst input" in out

    def test_unknown_op_is_usage_error(self, capsys):
        assert main(["gradcheck", "--op", "nonsense"]) == 2


class TestTrainToyCommand:
    def test_zero_lr_constant_loss_and_exit_one(self, capsys):
        assert main(["train-toy", "--steps", "5", "--lr", "0", "--seed", "0"]) == 1
        out = capsys.readouterr()
        losses = [line.split("loss=")[1] for line in out.out.splitlines() if "loss=" in line]
        assert len(set(losses)) == 1
        assert "did not converge" in out.err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergent_lr_reports_step(self, capsys):
        assert main(["train-toy", "--steps", "50", "--lr", "50", "--seed", "0"]) == 1
        assert "non-finite" in capsys.readouterr().err

    def test_negative_steps_fail_with_error_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train-toy", "--steps", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "lsk train-toy: error: argument --steps: expected a non-negative integer, got '-1'"
        )

    @pytest.mark.parametrize("lr", ["nan", "inf", "-0.5", "x"])
    def test_bad_lr_is_usage_error(self, lr, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train-toy", "--steps", "1", "--lr", lr])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"lsk train-toy: error: argument --lr: expected a finite number >= 0, got {lr!r}"
        )

    def test_head_scope_is_usage_error(self):
        """The frozen-feature head fit cannot reach the 1e-2 rule by plain
        descent, so the CLI does not offer it; the library still does."""
        with pytest.raises(SystemExit) as exc:
            main(["train-toy", "--scope", "head"])
        assert exc.value.code == 2

    def test_backbone_default_lr_trains(self, capsys):
        main(["train-toy", "--scope", "backbone", "--steps", "20", "--seed", "0"])
        out = capsys.readouterr()
        assert "non-finite" not in out.err
        losses = [float(line.split("loss=")[1]) for line in out.out.splitlines() if "loss=" in line]
        assert len(losses) == 21
        assert np.isfinite(losses).all() and losses[-1] < losses[0]


class TestAnalyzeCommand:
    @pytest.fixture
    def mask_and_ann_dirs(self, tmp_path, lskt_input):
        masks = tmp_path / "masks"
        main(["forward", "--input", str(lskt_input), "--variant", "T",
              "--out", str(tmp_path / "f"), "--export-masks", str(masks), "--seed", "1"])
        anns = tmp_path / "anns"
        anns.mkdir()
        (anns / "input.txt").write_text(
            "imagesource:synthetic\n0 0 10 0 10 10 0 10 ship 0\n5 5 9 5 9 9 5 9 ship 0\n"
        )
        return masks, anns

    def test_end_to_end_csvs(self, tmp_path, mask_and_ann_dirs, capsys):
        masks, anns = mask_and_ann_dirs
        out = tmp_path / "report"
        assert main(["analyze", "--masks", str(masks), "--annotations", str(anns),
                     "--out", str(out)]) == 0
        rc_lines = (out / "rc.csv").read_text().splitlines()
        assert rc_lines[0] == "category,r_c_raw,r_c_norm,images"
        assert rc_lines[1].startswith("ship,")
        diff_lines = (out / "selection_diff.csv").read_text().splitlines()
        assert len(diff_lines) == 1 + 13  # one row per block

    def test_byte_order_mark_in_annotation_file_changes_nothing(self, tmp_path, mask_and_ann_dirs):
        masks, anns = mask_and_ann_dirs
        args = ["analyze", "--masks", str(masks), "--annotations", str(anns)]
        ann = anns / "input.txt"
        ann.write_text(ann.read_text().split("\n", 1)[1])  # a box on the first line
        assert main([*args, "--out", str(tmp_path / "plain")]) == 0
        ann.write_bytes(b"\xef\xbb\xbf" + ann.read_bytes())
        assert main([*args, "--out", str(tmp_path / "bom")]) == 0
        assert (tmp_path / "bom" / "rc.csv").read_bytes() == (tmp_path / "plain" / "rc.csv").read_bytes()

    def test_annotation_file_that_is_not_utf8_is_named(self, tmp_path, mask_and_ann_dirs, capsys):
        masks, anns = mask_and_ann_dirs
        (anns / "input.txt").write_bytes(b"0 0 10 0 10 10 0 10 caf\xe9 0\n")
        assert main(["analyze", "--masks", str(masks), "--annotations", str(anns),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"error: annotation file {anns / 'input.txt'} is not valid UTF-8")

    @pytest.mark.parametrize("one_kernel_stem", ["a", "b"])
    def test_mixed_kernel_counts_in_a_category_fail(self, tmp_path, one_kernel_stem, capsys):
        """Whichever image sorts first, a category recorded with 1- and
        2-kernel plans fails naming the category and both counts."""
        masks, anns = tmp_path / "masks", tmp_path / "anns"
        anns.mkdir()
        for stem in ("a", "b"):
            rf = (5,) if stem == one_kernel_stem else (5, 23)
            save_record(ActivationRecord(rf=rf, masks={(1, 1): np.full((1, len(rf), 4, 4), 0.5)}), masks / stem)
            (anns / f"{stem}.txt").write_text("0 0 10 0 10 10 0 10 ship 0\n")
        assert main(["analyze", "--masks", str(masks), "--annotations", str(anns),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "error: category 'ship': records hold different kernel counts [1, 2]"
        assert not (tmp_path / "o").exists()

    def test_missing_masks_dir_fails(self, tmp_path, capsys):
        assert main(["analyze", "--masks", str(tmp_path / "nope"),
                     "--annotations", str(tmp_path), "--out", str(tmp_path / "o")]) == 1

    def test_no_matching_stems_fails(self, tmp_path, mask_and_ann_dirs, capsys):
        masks, _ = mask_and_ann_dirs
        empty_anns = tmp_path / "empty"
        empty_anns.mkdir()
        assert main(["analyze", "--masks", str(masks), "--annotations", str(empty_anns),
                     "--out", str(tmp_path / "o")]) == 1
        assert "no (masks, annotation) pairs" in capsys.readouterr().err


class TestCliPlumbing:
    @pytest.mark.parametrize(
        "command", ["plan", "validate", "count", "forward", "gradcheck", "train-toy", "analyze"]
    )
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["count"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command",
        [["forward", "--input", "x.lskt", "--variant", "T", "--out", "o"], ["gradcheck"], ["train-toy"]],
        ids=["forward", "gradcheck", "train-toy"],
    )
    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_is_usage_error(self, command, seed, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"lsk {command[0]}: error: argument --seed: expected a non-negative integer, got {seed!r}"
        )

    def test_negative_top_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--target-rf", "23", "--max-stages", "2", "--max-k", "23", "--top", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == "lsk plan: error: argument --top: expected a non-negative integer, got '-1'"

    def test_thread_cap_env(self, monkeypatch):
        monkeypatch.setenv("LSK_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        try:
            cli._apply_thread_cap()
            assert os.environ["OMP_NUM_THREADS"] == "2"
        finally:
            os.environ.pop("OMP_NUM_THREADS", None)

    def test_thread_cap_zero_means_auto(self, monkeypatch):
        monkeypatch.setenv("LSK_THREADS", "0")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        cli._apply_thread_cap()
        assert "OMP_NUM_THREADS" not in os.environ

    def test_thread_cap_negative_is_ignored_with_a_warning(self, monkeypatch, capsys):
        monkeypatch.setenv("LSK_THREADS", "-3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        cli._apply_thread_cap()
        assert "OMP_NUM_THREADS" not in os.environ
        assert "ignoring negative LSK_THREADS='-3' (want 0 or a positive integer)" in capsys.readouterr().err

    def test_console_script_runs(self):
        # the child imports this same lsknet, installed or not
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(lsknet.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "lsknet.cli", "validate", "5,1", "7,3"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        assert "rf=23" in result.stdout
