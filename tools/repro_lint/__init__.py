"""repro-lint: AST-based invariant checker for this repository.

Four project-specific rules, stdlib-``ast`` only (no third-party deps),
wired into CI so discipline violations fail review instead of
production:

* ``lock-discipline`` — ``# guarded-by:``-annotated state accessed
  outside its ``with <lock>:`` block (the PR 4 meter race, statically);
* ``determinism`` — unseeded/global RNGs anywhere, wall-clock values
  feeding seeds or solve/wire paths (PR 8's byte-identity);
* ``durability`` — ``os.replace`` publishes without a dominating
  ``os.fsync``, bare writable ``open()`` on store-owned paths (PR 5);
* ``exception-boundary`` — bare ``except:``, and broad catches without
  a ``# boundary:`` justification.

See ``docs/invariants.md`` for the catalog of enforced invariants and
how to suppress a finding with a justification.
"""

from .engine import LintReport, SourceFile, lint_file, lint_paths
from .findings import RULES, Finding

__all__ = [
    "Finding",
    "LintReport",
    "RULES",
    "SourceFile",
    "lint_file",
    "lint_paths",
]
