"""Command-line surface: plan search, cost reports, forward passes with mask
export, gradient checks, toy training and selection-behavior analysis.

Exit codes: 0 success, 1 domain failure (infeasible plan, bad file, failed
check, divergence), 2 usage error.  The environment variable ``LSK_THREADS``
caps internal parallelism (0 or unset = automatic); it must be applied before
the numeric backend loads, which is why the heavyweight imports live inside
the command handlers.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import LskError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _apply_thread_cap() -> None:
    raw = os.environ.get("LSK_THREADS", "").strip()
    if not raw:
        return
    try:
        n = int(raw)
    except ValueError:
        print(f"warning: ignoring non-integer LSK_THREADS={raw!r}", file=sys.stderr)
        return
    if n < 0:
        print(f"warning: ignoring negative LSK_THREADS={raw!r} (want 0 or a positive integer)", file=sys.stderr)
    elif n > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(n))


def _stage_pair(token: str):
    try:
        k, d = token.split(",")
        return int(k), int(d)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected 'k,d' pair, got {token!r}") from exc


def _non_negative_int(token: str) -> int:
    if not (token.isascii() and token.isdigit()):  # numpy's generators take no negative seed
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {token!r}")
    return int(token)


def _learning_rate(token: str) -> float:
    try:
        lr = float(token)
    except ValueError:
        lr = math.nan
    if not (math.isfinite(lr) and lr >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {token!r}")
    return lr


def _pool_list(token: str):
    return tuple(p.strip() for p in token.split(",") if p.strip())


def _ratio_list(token: str):
    try:
        ratios = tuple(float(r) for r in token.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated ratios, got {token!r}") from exc
    if len(ratios) != 4:
        raise argparse.ArgumentTypeError("need exactly 4 ffn ratios")
    return ratios


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsk",
        description="large-selective-kernel backbone toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="search kernel-decomposition plans for a target receptive field")
    p.add_argument("--target-rf", type=int, required=True)
    p.add_argument("--max-stages", type=int, required=True)
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--top", type=_non_negative_int, default=0, help="limit output to the T cheapest plans (0: all)")
    p.add_argument("--format", choices=("table", "kv"), default="table")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("validate", help="validate a (k,d) stage sequence and print its RF trace")
    p.add_argument("stages", type=_stage_pair, nargs="+", metavar="k,d")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("count", help="parameter/FLOP report for a backbone variant")
    p.add_argument("--variant", choices=("T", "S"), required=True)
    p.add_argument("--h", type=int, default=1024)
    p.add_argument("--w", type=int, default=1024)
    p.add_argument("--ffn-ratios", type=_ratio_list, default=None)
    p.add_argument("--format", choices=("table", "kv"), default="table")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("forward", help="run a backbone forward pass, export features and masks")
    p.add_argument("--input", required=True, help="LSKT tensor or binary P5/P6 image")
    p.add_argument("--variant", choices=("T", "S"), required=True)
    p.add_argument("--out", required=True, help="directory for stage feature tensors")
    p.add_argument("--weights", default="random", help="LSKW file, or 'random' for seeded init")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--export-masks", default=None, help="directory for per-block mask tensors")
    p.add_argument("--mode", choices=("spatial", "channel", "none"), default="spatial")
    p.add_argument("--pool", type=_pool_list, default=("avg", "max"))
    p.add_argument("--save-weights", default=None, help="also write the weights used as an LSKW file")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("gradcheck", help="finite-difference checks of the backward passes")
    p.add_argument("--op", default=None, help="single check name (default: all)")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train-toy", help="overfit a tiny synthetic problem by gradient descent")
    p.add_argument("--steps", type=_non_negative_int, default=None, help="default: lsknet.train.DEFAULT_STEPS")
    p.add_argument(
        "--lr", type=_learning_rate, default=None, help="default: per --scope, from lsknet.train.DEFAULT_LR"
    )
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--scope", choices=("module", "backbone"), default="module")
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("analyze", help="selection-behavior metrics from masks and annotations")
    p.add_argument("--masks", required=True, help="directory of per-image mask directories")
    p.add_argument("--annotations", required=True, help="directory of per-image annotation .txt files")
    p.add_argument("--out", required=True, help="output directory for the two CSV reports")
    p.set_defaults(func=cmd_analyze)

    return parser


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def cmd_plan(args) -> int:
    from .cost import cost_lsk_module
    from .module import init_lsk_params
    from .plan import enumerate_plans

    plans = enumerate_plans(args.target_rf, args.max_stages, args.max_k)
    if not plans:
        print(
            f"no feasible plan reaches receptive field {args.target_rf} "
            f"(max_stages={args.max_stages}, max_k={args.max_k})",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    if args.top > 0:
        plans = plans[: args.top]
    rows = []
    for plan in plans:
        report = dict(cost_lsk_module(init_lsk_params(plan, 64), 1024, 1024).breakdown)["convs"]
        trace = "->".join(str(r) for r in plan.rf_per_stage)
        rows.append((str(plan), trace, report.params, report.macs, report.flops))
    if args.format == "kv":
        for seq, trace, params, macs, flops in rows:
            compact = seq.replace(" ", "")
            print(f"plan={compact} rf={trace} params={params} macs={macs} flops={flops}")
    else:
        print(f"{'sequence':<32} {'rf trace':<16} {'params':>10} {'macs':>14} {'flops':>14}")
        for seq, trace, params, macs, flops in rows:
            print(f"{seq:<32} {trace:<16} {params:>10,} {macs:>14,} {flops:>14,}")
        print("(costs for a 64-channel module at 1024x1024)")
    return EXIT_OK


def cmd_validate(args) -> int:
    from .plan import validate_plan

    plan = validate_plan(args.stages)
    for spec, rf in zip(plan.stages, plan.rf_per_stage):
        print(f"(k={spec.kernel}, d={spec.dilation})  span={spec.span:>4}  rf={rf}")
    print(f"valid: {plan}  final rf={plan.rf}")
    return EXIT_OK


def cmd_count(args) -> int:
    from .backbone import BackboneConfig
    from .cost import cost_backbone, report_to_kv, report_to_text

    overrides = {}
    if args.ffn_ratios is not None:
        overrides["ffn_ratios"] = args.ffn_ratios
    config = BackboneConfig.variant(args.variant, **overrides)
    report = cost_backbone(config, args.h, args.w)
    name = f"lsknet-{args.variant.lower()}@{args.h}x{args.w}"
    if args.format == "kv":
        print(report_to_kv(report, name))
    else:
        print(report_to_text(report, name))
    return EXIT_OK


def _load_input(path: str):
    from .errors import BadMagicError
    from .fileio import TENSOR_MAGIC, read_image, read_tensor

    with open(path, "rb") as fh:
        head = fh.read(8)
    if head[: len(TENSOR_MAGIC)] == TENSOR_MAGIC:
        return read_tensor(path)
    if head[:2] in (b"P5", b"P6"):
        return read_image(path)
    raise BadMagicError(f"{path}: neither an LSKT tensor nor a binary PGM/PPM image")


def cmd_forward(args) -> int:
    from pathlib import Path

    from .backbone import (
        BackboneConfig,
        backbone_forward,
        init_backbone_params,
        named_arrays,
        params_from_arrays,
    )
    from .fileio import read_weights, save_record, write_tensor, write_weights
    from .module import SelectionMode

    config = BackboneConfig.variant(
        args.variant, selection_mode=SelectionMode(args.mode), pooling=args.pool
    )
    x = _load_input(args.input)
    if args.weights == "random":
        params = init_backbone_params(config, seed=args.seed)
    else:
        arrays, _ = read_weights(args.weights)
        params = params_from_arrays(config, arrays)
    if args.save_weights is not None:
        write_weights(args.save_weights, named_arrays(params))
        print(f"weights -> {args.save_weights}")

    out = backbone_forward(x, params)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, feat in enumerate(out.features):
        write_tensor(out_dir / f"stage{i + 1}.lskt", feat)
        print(f"stage{i + 1}: shape {feat.shape}")
    if args.export_masks is not None and out.record.masks:
        stem = Path(args.input).stem
        mask_dir = Path(args.export_masks) / stem
        written = save_record(out.record, mask_dir)
        print(f"masks: {len(out.record.masks)} blocks, {len(written)} files -> {mask_dir}")
    elif args.export_masks is not None:
        print("masks: none captured (selection mode exports masks in spatial mode only)")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .gradcheck import available_checks, run_suite

    if args.op is not None and args.op not in available_checks():
        print(f"unknown op {args.op!r}; available: {', '.join(available_checks())}", file=sys.stderr)
        return EXIT_USAGE
    width = max(map(len, available_checks()))  # every line's max_rel_err= in one column
    failures = 0
    for result in run_suite(None if args.op is None else [args.op], seed=args.seed):
        status = "PASS" if result.passed else "FAIL"
        detail = ""
        if not result.passed:
            detail = f"  (worst input {result.worst_input!r}, flat index {result.worst_index})"
            failures += 1
        print(f"{result.name:<{width}} max_rel_err={result.max_rel_error:.3e}  {status}{detail}")
    return EXIT_OK if failures == 0 else EXIT_FAILURE


def cmd_train_toy(args) -> int:
    from .train import DEFAULT_STEPS, toy_train

    steps = DEFAULT_STEPS if args.steps is None else args.steps
    losses = toy_train(steps=steps, lr=args.lr, seed=args.seed, scope=args.scope)
    for step, loss in enumerate(losses):
        print(f"step {step:>4d}  loss={loss:.6e}")
    final = losses[-1]
    if final < 1e-2:
        print(f"converged: final loss {final:.3e} < 1e-2")
        return EXIT_OK
    print(f"did not converge: final loss {final:.3e} >= 1e-2", file=sys.stderr)
    return EXIT_FAILURE


def cmd_analyze(args) -> int:
    from pathlib import Path

    from .analysis import analyze_images, emit_analysis, parse_annotations
    from .errors import AnalysisError
    from .fileio import load_record

    masks_root = Path(args.masks)
    ann_root = Path(args.annotations)
    if not masks_root.is_dir():
        print(f"masks directory not found: {masks_root}", file=sys.stderr)
        return EXIT_FAILURE
    if not ann_root.is_dir():
        print(f"annotations directory not found: {ann_root}", file=sys.stderr)
        return EXIT_FAILURE

    mask_dirs = {p.name: p for p in sorted(masks_root.iterdir()) if p.is_dir()}
    ann_files = {p.stem: p for p in sorted(ann_root.glob("*.txt"))}
    for stem in sorted(set(mask_dirs) - set(ann_files)):
        print(f"warning: masks {stem!r} have no matching annotation file", file=sys.stderr)
    for stem in sorted(set(ann_files) - set(mask_dirs)):
        print(f"warning: annotation {stem!r} has no matching mask directory", file=sys.stderr)
    stems = sorted(set(mask_dirs) & set(ann_files))
    if not stems:
        print("no (masks, annotation) pairs matched by stem name", file=sys.stderr)
        return EXIT_FAILURE

    images = []
    malformed = degenerate = 0
    for stem in stems:
        record = load_record(mask_dirs[stem])
        try:
            text = ann_files[stem].read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise AnalysisError(f"annotation file {ann_files[stem]} is not valid UTF-8: {exc}") from exc
        parsed = parse_annotations(text)
        malformed += parsed.malformed_lines
        degenerate += parsed.degenerate_boxes
        images.append((record, parsed.boxes))
    if malformed or degenerate:
        print(
            f"warning: skipped {malformed} malformed line(s), {degenerate} degenerate box(es)",
            file=sys.stderr,
        )

    stats, diffs = analyze_images(images)
    if not diffs and stats:
        print("note: selection differences need a 2-kernel plan; emitting ratios only", file=sys.stderr)
    rc_path, diff_path = emit_analysis(stats, diffs, args.out)
    print(f"analyzed {len(stems)} image(s), {len(stats)} categor{'y' if len(stats) == 1 else 'ies'}")
    print(f"wrote {rc_path}")
    print(f"wrote {diff_path}")
    return EXIT_OK


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not our failure
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except LskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
