"""Command-line entry point: run the study described by a config file.

    fracstep <subcommand> --config study.ini --out table.csv

Subcommands (weights, diagnostics, operator-study, fode, wave, subdiff) must
match the ``kind`` of the study sections they run.  With several sections in
one file, each writes ``<out-stem>-<section><suffix>``.  Exit code 0 on
success; any cell failure aborts with a diagnostic naming the study.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import parse_config, run_study

_SUBCOMMANDS = {
    "weights": "weights",
    "diagnostics": "diagnostics",
    "operator-study": "operator",
    "fode": "fode",
    "wave": "wave",
    "subdiff": "subdiff",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracstep",
        description="fractional-derivative convergence studies (CSV output)",
    )
    parser.add_argument("command", choices=list(_SUBCOMMANDS), help="run the config's studies of this kind")
    parser.add_argument("--config", required=True, help="INI-style study config")
    parser.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    kind = _SUBCOMMANDS[args.command]
    where = args.config
    try:
        studies = [s for s in parse_config(args.config) if s.kind == kind]
        if not studies:
            print(f"error: no '{kind}' study sections in {args.config}", file=sys.stderr)
            return 2
        out = Path(args.out)
        for study in studies:
            where = f"study [{study.name}]"
            target = out if len(studies) == 1 else out.with_name(f"{out.stem}-{study.name}{out.suffix}")
            run_study(study, str(target))
            print(f"{study.name}: wrote {target}")
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error in {where}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
