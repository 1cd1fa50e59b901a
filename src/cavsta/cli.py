"""Command line entry point.

    cavsta run <config.ini> [--strict] [--out DIR] [--threads N]
    cavsta sweep <config.ini> [--strict] [--out DIR] [--threads N]

run     single scenario: trajectories, Moore functions, energy record
sweep   repeat over a list of timescales tau

--strict     treat superluminal effective trajectories and skipped exact
             solves as fatal
--out DIR    override the config's output directory
--threads N  accepted and ignored: sweeps run serially

Options may come anywhere on the line, as --out=DIR too, and a long
option may be cut to any unique prefix (--str).  -h/--help prints this text.

Exit codes: 0 success; 1 a failed hard numerical check, or one `error:`
line (a bad config, a grid past memory or numpy's index limit, a thermal
sum Z(T d0) past the float range); 2 a command line that does not parse,
or strict-only violations (superluminal effective trajectory, skipped
exact solve, a kinetic weight near zero) with --strict set.
"""

from __future__ import annotations

import getopt
import sys
from dataclasses import replace

from .errors import CavstaError
from .runner import load_config, run, sweep_tau

__all__ = ["main"]

_USAGE = "usage: cavsta {run,sweep} <config.ini> [--strict] [--out DIR] [--threads N]"
_COMMANDS = {"run": run, "sweep": sweep_tau}


def _parse(argv):
    """(command, config path, strict, out dir or None) of a command line;
    exits 0 after -h/--help, and 2 after the usage line and one `error:`
    line for a line that does not parse."""
    try:
        opts, args = getopt.gnu_getopt(argv, "h", ["help", "strict", "out=", "threads="])
        strict, out = False, None
        for opt, value in opts:
            if opt in ("-h", "--help"):
                print((__doc__ or _USAGE).strip())  # python -OO strips docstrings
                raise SystemExit(0)
            if opt == "--strict":
                strict = True
            elif opt == "--out":
                out = value
            elif opt == "--threads":
                try:
                    int(value)
                except ValueError:
                    raise getopt.GetoptError(f"--threads takes an integer, got {value!r}")
        if not args or args[0] not in _COMMANDS:
            got = f", got {args[0]!r}" if args else ""
            raise getopt.GetoptError(f"a command is required: run or sweep{got}")
        if len(args) != 2:
            raise getopt.GetoptError(
                "the config file is required" if len(args) < 2
                else f"unexpected arguments: {' '.join(args[2:])}"
            )
    except getopt.GetoptError as exc:
        print(_USAGE, file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    return args[0], args[1], strict, out


def main(argv=None) -> int:
    command, config, strict, out = _parse(sys.argv[1:] if argv is None else argv)
    try:
        cfg = replace(load_config(config), strict=strict)
        if out is not None:
            cfg = replace(cfg, out_dir=out)
        result = _COMMANDS[command](cfg)
    except CavstaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, ValueError) as exc:
        # a grid too fine for this machine, such as a tiny time_step (numpy's
        # message names the array), or past numpy's index limit: a ValueError
        if isinstance(exc, ValueError) and str(exc) != "Maximum allowed size exceeded":
            raise
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
