"""The four checkers, keyed by rule name.

Each checker is a function ``(SourceFile, config) -> list[Finding]``;
the engine runs the ones whose rule is enabled.  A checker may also emit
``suppression`` findings for malformed annotations it owns (guarded-by
without a lock name, timing-ok/boundary without a real justification).
"""

from __future__ import annotations

from . import boundaries, determinism, durability, locks

CHECKERS = {
    locks.RULE: locks.check,
    determinism.RULE: determinism.check,
    durability.RULE: durability.check,
    boundaries.RULE: boundaries.check,
}

__all__ = ["CHECKERS"]
