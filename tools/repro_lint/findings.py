"""Finding record and the rule registry.

Every checker reports :class:`Finding` rows tagged with one of the rule
names in :data:`RULES`; the engine sorts, suppresses, and renders them.
Rule names are stable identifiers — they appear in suppression comments
(``# repro-lint: disable=<rule> <justification>``), in the JSON report,
and in CI logs, so renaming one is a breaking change.
"""

from __future__ import annotations

from dataclasses import dataclass


#: rule name -> one-line description (shown by ``--list-rules``).
RULES: dict[str, str] = {
    "lock-discipline": (
        "state annotated `# guarded-by: <lock>` must only be read or "
        "mutated inside `with <lock>:` (or in a function annotated "
        "`# requires-lock: <lock>`)"
    ),
    "determinism": (
        "no unseeded RNGs, no global-state randomness, and no wall-clock "
        "values feeding seeds or solve/wire paths (timing meters need a "
        "`# timing-ok: <why>` annotation)"
    ),
    "durability": (
        "store-owned index publishes must fsync before os.replace, and "
        "store modules may not open files for writing outside the "
        "whitelisted tmp+replace helpers"
    ),
    "exception-boundary": (
        "bare `except:` is forbidden; `except Exception`/`BaseException` "
        "must re-raise or carry a `# boundary: <justification>` comment"
    ),
    "suppression": (
        "`# repro-lint: disable=...` comments and checker annotations "
        "must name known rules and carry a real justification"
    ),
}

#: The meta-rule cannot be turned off or suppressed — it polices the
#: escape hatches themselves.
UNSUPPRESSABLE = frozenset({"suppression"})


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def as_text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }
