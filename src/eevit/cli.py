"""Command-line interface: train, eval, sweep, macs, analyze, gen-data.

Exit codes: 0 on success, 1 on configuration or validation failures,
2 on runtime errors.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .analysis import attention_map_export, cka_heatmap, layer_feature_taps, write_grid_csv
from .checkpoint import load_checkpoint
from .config import ConfigError, apply_overrides, build_run_config, build_system, parse_config_file
from .costs import model_macs, path_macs
from .data import build_dataset, gen_synthetic, quantize_to_bytes, write_raw_images
from .inference import ExitPolicy, evaluate_dataset, threshold_sweep
from .metrics import MetricsWriter, write_csv
from .train import load_full_state, stage1_train, stage2_train


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eevit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="path to a key-value config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry (repeatable)",
        )

    p = sub.add_parser("train", help="run training stages")
    common(p)
    p.add_argument("--stage", choices=["1", "2", "all"], default="all")
    p.add_argument("--checkpoint", default=None, help="stage-1 checkpoint to start stage 2 from")

    p = sub.add_parser("eval", help="early-exit evaluation at one threshold")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tau", type=float, default=None)

    p = sub.add_parser("sweep", help="evaluate a list of thresholds with cached confidences")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--taus", required=True, help="comma-separated threshold list")

    p = sub.add_parser("macs", help="print the analytic cost report")
    common(p)

    p = sub.add_parser("analyze", help="CKA self-heatmap and attention-map export")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--probe", type=int, default=128, help="number of probe samples")
    p.add_argument("--attn-layer", type=int, default=None, help="layer for the attention grid")
    p.add_argument("--attn-sample", type=int, default=0)

    p = sub.add_parser("gen-data", help="write a synthetic dataset in the raw binary format")
    common(p)
    p.add_argument("--out", required=True)
    return parser


def _load_run(args):
    """The run config of the file, the ``--set`` overrides, then ``--tau``."""
    entries = parse_config_file(args.config) if args.config else {}
    overrides = list(args.overrides)
    if getattr(args, "tau", None) is not None:
        overrides.append(f"policy.tau={args.tau!r}")
    return build_run_config(apply_overrides(entries, overrides))


def _restore(run, checkpoint: str):
    """The run's system with ``checkpoint`` loaded, and its dataset."""
    system = build_system(run)
    load_full_state(load_checkpoint(checkpoint), system.model, system.branches)
    return system, build_dataset(run.data)


def _cmd_train(args) -> int:
    run = _load_run(args)
    os.makedirs(run.output_dir, exist_ok=True)
    system = build_system(run)
    dataset = build_dataset(run.data)
    if args.stage in ("1", "all"):
        writer = MetricsWriter(os.path.join(run.output_dir, "metrics_stage1.txt"))
        history = stage1_train(system.model, dataset, run.train, run.output_dir, writer)
        print(f"stage 1 done: train_acc={history[-1]['train_acc']:.4f}")
    if args.stage in ("2", "all"):
        if args.stage == "2":
            ckpt = args.checkpoint or os.path.join(run.output_dir, "stage1_final.ckpt")
            backbone = {k: v for k, v in load_checkpoint(ckpt).items() if k.startswith("model.")}
            load_full_state(backbone, system.model)
        writer = MetricsWriter(os.path.join(run.output_dir, "metrics_stage2.txt"))
        history = stage2_train(
            system.model, system.branches, dataset, run.train, system.placement,
            run.output_dir, writer,
        )
        accs = " ".join(
            f"exit{i + 1}={history[-1][f'exit{i + 1}_acc']:.4f}"
            for i in range(len(system.branches))
        )
        print(f"stage 2 done: {accs}")
    return 0


def _report(run, phase: str, summaries) -> list[dict[str, float]]:
    """Print each summary and write it to ``output_dir/<phase>.txt`` at steps 0, 1, ...

    Returns the records, whose keys are in CSV column order.
    """
    records = [
        {
            "tau": summary.tau,
            "accuracy": summary.accuracy,
            "speedup": summary.speedup,
            "expected_macs": summary.expected_macs,
        }
        for summary in summaries
    ]
    os.makedirs(run.output_dir, exist_ok=True)
    writer = MetricsWriter(os.path.join(run.output_dir, f"{phase}.txt"))
    for step, record in enumerate(records):
        print(
            f"tau={record['tau']} accuracy={record['accuracy']:.4f} "
            f"speedup={record['speedup']:.4f} expected_macs={record['expected_macs']:.1f}"
        )
        writer.write(phase, step, record)
    return records


def _cmd_eval(args) -> int:
    run = _load_run(args)
    system, dataset = _restore(run, args.checkpoint)
    summary = evaluate_dataset(
        system.model, system.branches, dataset.images, dataset.labels,
        run.policy, system.profile, system.placement,
    )
    _report(run, "eval", [summary])
    return 0


def _cmd_sweep(args) -> int:
    run = _load_run(args)
    taus = [ExitPolicy(float(part)).tau for part in args.taus.split(",") if part.strip()]
    if not taus:
        raise ConfigError(f"--taus names no threshold: {args.taus!r}")
    system, dataset = _restore(run, args.checkpoint)
    summaries = threshold_sweep(
        system.model, system.branches, dataset.images, dataset.labels,
        taus, system.profile, system.placement,
    )
    records = _report(run, "sweep", summaries)
    csv_path = os.path.join(run.output_dir, "sweep.csv")
    write_csv(csv_path, list(records[0]), [list(record.values()) for record in records])
    print(f"wrote {csv_path}")
    return 0


def _cmd_macs(args) -> int:
    run = _load_run(args)
    placement, kernels, windows = run.resolve()
    profile = model_macs(run.model, placement, kernels, windows)
    records = [
        ("backbone_macs", profile.backbone_total()),
        ("full_macs_with_heads", profile.full_total()),
    ]
    for layer in sorted({*placement.positions, profile.layers_total}):
        records.append((f"path_macs_layer_{layer}", path_macs(profile, placement, layer)))
    for key, value in records:
        print(f"{key} = {value}")
    print(f"total_gmacs = {profile.backbone_total() / 1e9:.4f}")
    return 0


def _cmd_analyze(args) -> int:
    run = _load_run(args)
    if args.probe < 2:
        raise ConfigError(f"--probe must be at least 2, got {args.probe}")
    system, dataset = _restore(run, args.checkpoint)
    if not 0 <= args.attn_sample < len(dataset):
        raise ConfigError(f"--attn-sample {args.attn_sample} out of range 0..{len(dataset) - 1}")
    os.makedirs(run.output_dir, exist_ok=True)
    layer = run.model.layers if args.attn_layer is None else args.attn_layer
    # Exported first, so that its layer check fails before any CSV is written.
    grid, cls_self = attention_map_export(system.model, dataset.images[args.attn_sample], layer)
    taps = layer_feature_taps(system.model, dataset.images[: args.probe])
    heatmap = cka_heatmap(taps, taps)
    write_grid_csv(os.path.join(run.output_dir, "cka_self.csv"), heatmap)
    print(f"cka diagonal: {np.diagonal(heatmap).round(6).tolist()}")
    write_grid_csv(os.path.join(run.output_dir, f"attention_layer{layer}.csv"), grid)
    print(f"attention grid written for layer {layer}; cls self-weight {cls_self:.6f}")
    return 0


def _cmd_gen_data(args) -> int:
    run = _load_run(args)
    spec = run.data
    pixels, labels = gen_synthetic(
        spec.num_classes, spec.per_class, spec.image_side, spec.channels, spec.noise, spec.seed
    )
    write_raw_images(args.out, quantize_to_bytes(pixels), labels)
    print(f"wrote {len(labels)} records to {args.out}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "macs": _cmd_macs,
    "analyze": _cmd_analyze,
    "gen-data": _cmd_gen_data,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
