"""Command line interface: generate | train | detect | eval | ablation."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import pipeline
from .config import ExperimentConfig, load_config, save_config
from .model import MODES
from .records import ConfigValueError


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    overrides = {k: getattr(args, k, None) for k in ("mode", "s_test")}
    return dataclasses.replace(
        cfg, **{k: v for k, v in overrides.items() if v is not None})


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="griddet",
        description="Iterative grid-based object detection harness")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, mode=False, s_test=False):
        sp.add_argument("--config", help="YAML experiment config")
        sp.add_argument("--seed", type=int, help="override synth/train seed")
        if mode:
            sp.add_argument("--mode", choices=MODES,
                            help="training strategy override")
        if s_test:
            sp.add_argument("--s-test", type=int, dest="s_test",
                            help="iteration count override")

    sp = sub.add_parser("generate", help="write train/test dataset manifests")
    common(sp)
    sp.add_argument("--n-train", type=int, default=None)
    sp.add_argument("--n-test", type=int, default=None)
    sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("train", help="train models on a dataset manifest")
    common(sp, mode=True)
    sp.add_argument("--dataset", required=True, help="train manifest path")
    sp.add_argument("--out", required=True, help="checkpoint output path")
    sp.add_argument("--log", help="training loss log path (JSON)")

    sp = sub.add_parser("detect", help="run detection over a dataset")
    common(sp, s_test=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--dataset", required=True, help="test manifest path")
    sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("eval", help="score a detection dump")
    common(sp)
    sp.add_argument("--detections", required=True)
    sp.add_argument("--dataset", required=True, help="manifest path")
    sp.add_argument("--out", help="report output path")

    sp = sub.add_parser("ablation",
                        help="train and compare all strategies across seeds")
    common(sp)
    sp.add_argument("--seeds", default="0,1,2,3,4",
                    help="comma-separated seed list")
    sp.add_argument("--n-train", type=int, default=None)
    sp.add_argument("--n-test", type=int, default=None)
    sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("init-config", help="write a default config file")
    sp.add_argument("--out", required=True)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "init-config":
            save_config(ExperimentConfig(), args.out)
            print(f"wrote {args.out}")
            return 0
        cfg = _load(args)
        if args.command == "generate":
            train_path, test_path = pipeline.cmd_generate(
                cfg, cfg.n_train if args.n_train is None else args.n_train,
                cfg.n_test if args.n_test is None else args.n_test, args.out)
            print(f"wrote {train_path} and {test_path}")
        elif args.command == "train":
            _, _, log = pipeline.cmd_train(cfg, args.dataset, args.out,
                                           log_path=args.log)
            warning = pipeline.divergence_warning(f"mode {cfg.mode}", log)
            if warning:
                print(warning, file=sys.stderr)
            print(f"wrote {args.out} ({log.total_iterations} iterations)")
        elif args.command == "detect":
            det_path, traj_path = pipeline.cmd_detect(
                cfg, args.checkpoint, args.dataset, args.out)
            print(f"wrote {det_path} and {traj_path}")
        elif args.command == "eval":
            _, map_value, _, report = pipeline.cmd_eval(
                cfg, args.detections, args.dataset, report_path=args.out)
            sys.stdout.write(report)
            print(f"mAP = {map_value:.4f}")
        elif args.command == "ablation":
            try:
                seeds = [int(s) for s in args.seeds.split(",") if s != ""]
            except ValueError:
                raise ValueError(f"--seeds must be comma-separated integers, "
                                 f"got {args.seeds!r}") from None
            pipeline.cmd_ablation(cfg, seeds, args.out,
                                  n_train=args.n_train, n_test=args.n_test,
                                  progress=lambda msg: print(msg, flush=True))
            print(f"wrote {args.out}/ablation.json")
        return 0
    except (ValueError, OSError, RuntimeError) as exc:
        if isinstance(exc, ConfigValueError):
            exc = f"config file {args.config or '(the defaults)'}: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
