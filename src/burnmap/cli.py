"""Command-line front-end.

    burnmap synth      --config synth.cfg --out runs/data --seed 7
    burnmap ingest     --config ingest.cfg --out runs/data
    burnmap index-eval --config index.cfg --out runs/dnbr
    burnmap ml-run     --config rf.cfg --out runs/rf --repeats 5
    burnmap dl-run     --config net.cfg --out runs/net --repeats 5
    burnmap report runs/dnbr runs/rf runs/net --out runs/summary

Configs are flat key=value files ('#' comments). Exit codes: 0 success,
2 configuration error, 3 data error, 4 training divergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import runs
from .errors import ConfigError, DataError, DivergenceError
from .runconfig import load_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, DivergenceError):
        return EXIT_DIVERGENCE
    if isinstance(exc, (DataError, OSError)):
        return EXIT_DATA
    raise exc


# Commands that read a config: name -> (runs function, help, takes --repeats).
RUN_COMMANDS = {
    "synth": (runs.cmd_synth, "generate a synthetic patch dataset", False),
    "ingest": (runs.cmd_ingest, "tile scene archives into a patch dataset", False),
    "index-eval": (runs.cmd_index_eval, "fit and evaluate a delta-index threshold", False),
    "ml-run": (runs.cmd_ml_run, "train and evaluate a pixel classifier", True),
    "dl-run": (runs.cmd_dl_run, "train and evaluate the change-detection network", True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burnmap",
        description="Burnt-area mapping pipeline: synthesize or ingest data, "
        "fit index/classical/network methods, and merge reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, repeats) in RUN_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None, help="key=value config file")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0, help="root random seed")
        if repeats:
            p.add_argument(
                "--repeats", type=int, default=1, help="independent repeat count"
            )

    p = sub.add_parser("report", help="merge run directories into one table")
    p.add_argument("run_dirs", nargs="+", type=Path, help="directories with metrics.csv")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "report":
        print(runs.cmd_report(args.run_dirs, args.out), end="")
        return EXIT_OK
    run, _, repeats = RUN_COMMANDS[args.command]
    config = load_config(args.config) if args.config else {}
    result = run(config, args.out, args.seed, *([args.repeats] if repeats else []))
    if isinstance(result, Path):  # synth and ingest return the manifest they wrote
        print(f"wrote {result}")
    else:
        print((args.out / "report.txt").read_text(encoding="utf-8"), end="")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, DataError, DivergenceError, OSError) as exc:
        print(f"burnmap {args.command}: error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
