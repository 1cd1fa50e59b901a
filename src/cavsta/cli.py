"""Command line entry point.

    cavsta run <config.ini> [--strict] [--out DIR] [--threads N]
    cavsta sweep <config.ini> [--strict] [--out DIR] [--threads N]

Exit codes: 0 success, 1 a hard numerical check failed or the run raised,
2 strict-only violations (superluminal effective trajectory, skipped exact
solve) with --strict set.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import CavstaError
from .runner import load_config, run, sweep_tau

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cavsta",
        description="Moore functions, shortcut trajectories, and field energy "
        "for a two-mirror cavity.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "single scenario: trajectories, Moore functions, energy record"),
        ("sweep", "repeat over a list of timescales tau"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("config", help="INI config file")
        sp.add_argument(
            "--strict",
            action="store_true",
            help="treat superluminal effective trajectories and skipped exact "
            "solves as fatal",
        )
        sp.add_argument("--out", default=None, help="override output directory")
        sp.add_argument(
            "--threads", type=int, default=1,
            help="accepted and ignored: sweeps run serially",
        )
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = replace(cfg, strict=args.strict)
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        result = run(cfg) if args.command == "run" else sweep_tau(cfg)
    except CavstaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a grid too fine for this machine, such as a tiny time_step;
        # numpy's message names the array it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    for msg in result.hard_failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    for msg in result.strict_failures:
        tag = "FAIL" if cfg.strict else "warning"
        print(f"{tag}: {msg}", file=sys.stderr)
    for path in result.files:
        print(path)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
