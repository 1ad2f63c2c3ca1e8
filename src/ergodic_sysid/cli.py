"""Batch command-line front end.

    ergodic-sysid <command> --config cfg.json [--out DIR]

Commands: simulate | histogram | fit | eval | delay. Exit codes: 0 on
success, 2 on configuration errors (unknown or missing keys, bad values,
unknown flags), 3 on runtime failures. The log level comes from the
ERGODIC_SYSID_LOG environment variable; BLAS thread pools follow the
usual environment variables (OMP_NUM_THREADS, OPENBLAS_NUM_THREADS).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import experiments
from .config import ConfigError, load_config

log = logging.getLogger("ergodic_sysid")

_COMMANDS = {
    "simulate": experiments.cmd_simulate,
    "histogram": experiments.cmd_histogram,
    "fit": experiments.cmd_fit,
    "eval": experiments.cmd_eval,
    "delay": experiments.cmd_delay,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergodic-sysid",
        description="System identification from invariant trajectory "
                    "statistics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment JSON")
        p.add_argument("--out", default=None,
                       help="override the output directory")
    return parser


def _setup_logging():
    name = os.environ.get("ERGODIC_SYSID_LOG", "WARNING")
    level = logging.getLevelName(name.upper())  # a number for a level name
    known = isinstance(level, int)
    logging.basicConfig(level=level if known else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    if not known:
        log.warning("ERGODIC_SYSID_LOG: %r is not a log level name; logging "
                    "at WARNING", name)


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        outdir = Path(args.out or cfg.get("out", "runs/" +
                                          cfg.get("name", "run")))
        result = _COMMANDS[args.command](cfg, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure contract
        log.exception("command failed")
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
