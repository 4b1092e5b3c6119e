"""Command line for repro-lint.

::

    python -m tools.repro_lint src/                       # text report
    python -m tools.repro_lint src/ --format json         # machine report
    python -m tools.repro_lint src/ --format json --output report.json
    python -m tools.repro_lint src/ --disable determinism
    python -m tools.repro_lint --list-rules

Exit codes: 0 clean, 1 findings, 2 usage error.  ``--output`` writes the
report to a file *in addition to* stdout, so CI can both fail the step
and upload the artifact from one invocation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .engine import lint_paths
from .findings import RULES


def _rule_list(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.repro_lint",
        description=(
            "AST-based invariant checker for this repository: lock "
            "discipline, determinism, durability, exception "
            "boundaries."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", help="python files or directories to lint"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="also write the report (in the chosen format) to PATH",
    )
    parser.add_argument(
        "--enable", metavar="RULE[,RULE]", default=None,
        help="run only these rules (the suppression meta-rule always runs)",
    )
    parser.add_argument(
        "--disable", metavar="RULE[,RULE]", default=None,
        help="skip these rules",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the known rules and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, description in RULES.items():
            print(f"{name}: {description}")
        return 0
    if not args.paths:
        parser.error("no paths given (try: python -m tools.repro_lint src/)")

    try:
        report = lint_paths(
            args.paths,
            enable=_rule_list(args.enable),
            disable=_rule_list(args.disable),
        )
    except (FileNotFoundError, ValueError, SyntaxError) as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    rendered = (
        json.dumps(report.as_dict(), indent=2)
        if args.format == "json"
        else report.as_text()
    )
    print(rendered)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered + "\n")
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
