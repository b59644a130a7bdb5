"""Command-line operator surface.

Subcommands:
  run            execute every (method x seed) cell of a config
  verify-bounds  certify the closed-form loss against the Monte-Carlo oracle
  ablate         component grid or hyperparameter sweep (--sweep)
  time           wall-time and work-counter comparison of the method roster

Exit codes: 0 success, 1 runtime failure or violated bound, 2 invalid config.
The output directory resolves as --out > $SEVA_OUT > config out_dir.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, load_config, resolve_config
from .runner import (
    execute_ablate,
    execute_run,
    execute_time,
    execute_verify_bounds,
    format_bound_report,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seva", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help, writes_artifacts=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, metavar="PATH", help="JSON run config")
        if writes_artifacts:
            p.add_argument("--out", metavar="DIR", help="output directory override")
            p.add_argument("--seeds", type=int, metavar="N", help="override seeds with range(N)")
        return p

    add_command("run", "execute all (method x seed) cells")
    verify = add_command("verify-bounds", "Monte-Carlo bound certification sweep", writes_artifacts=False)
    verify.add_argument("--fast", action="store_true", help="fast Monte-Carlo mode")
    ablate = add_command("ablate", "component grid / hyperparameter sweeps")
    ablate.add_argument(
        "--sweep",
        choices=["components", "sigma_scale", "rho"],
        default="components",
        help="which grid to run (default: components)",
    )
    add_command("time", "timing and work-counter table")
    return parser


def _resolve_out_dir(args, cfg: RunConfig) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get("SEVA_OUT")
    if env:
        return Path(env)
    return Path(cfg.out_dir)


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if getattr(args, "seeds", None) is not None:
        cfg = resolve_config(dict(cfg.tree, seeds=list(range(args.seeds))))
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "verify-bounds":
            reports, all_ok = execute_verify_bounds(cfg, fast=args.fast)
            for i, report in enumerate(reports):
                print(format_bound_report(i, report))
            if not all_ok:
                violations = [i for i, report in enumerate(reports) if not report.satisfied]
                print(f"violated instances: {violations}", file=sys.stderr)
                return EXIT_RUNTIME
            print(f"all {len(reports)} bounds satisfied")
            return EXIT_OK

        out = _resolve_out_dir(args, cfg)
        if args.command == "run":
            result = execute_run(cfg, out)
            for row in result["rows"]:
                print(
                    f"{row['method']:>16s} seed={row['seed']:<3d} "
                    f"accuracy={row['accuracy']:.4f} selected={row['n_selected']}"
                )
            print(f"summary: {result['summary']}")
            return EXIT_OK

        if args.command == "ablate":
            rows = execute_ablate(cfg, out, sweep=args.sweep)
            cells: dict = {}
            for row in rows:
                cells.setdefault(row["cell"], []).append(row["accuracy"])
            for cell, accs in cells.items():
                print(f"{cell:>20s}: mean accuracy {sum(accs) / len(accs):.4f} over {len(accs)} seeds")
            return EXIT_OK

        # time
        rows = execute_time(cfg, out)
        for row in rows:
            print(
                f"{row['method']:>16s} wall={row['total_wall_time']:.3f}s "
                f"step={row['mean_step_ms']:.2f}ms fwd={row['n_forward']} "
                f"bwd={row['n_backward']} steps={row['n_optimizer_steps']} "
                f"acc={row['accuracy']:.4f}"
            )
        return EXIT_OK
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure contract: exit 1, message on stderr
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
