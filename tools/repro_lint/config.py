"""Project-specific scoping for the checkers.

The checkers are generic AST passes; everything repo-specific — which
modules must not read the wall clock, which modules own durable store
paths and which of their functions may write — lives here as data.  Module keys are posix path *suffixes* matched against the
linted file's path, so the config works for absolute paths, relative
paths, and test fixtures alike.

Whitelist entries carry a justification string: an empty justification
is rejected at load time, the same standard inline suppressions are
held to.
"""

from __future__ import annotations


DEFAULT_CONFIG: dict = {
    # ------------------------------------------------------------- #
    # determinism: modules where *any* wall-clock read is an error
    # unless annotated `# timing-ok: <why>` — these are the solve and
    # wire-format paths whose outputs must be pure functions of
    # (seed, x0) (PR 8).  Seed-flow checks apply everywhere.
    "wallclock_modules": [
        "repro/core/sampling.py",
        "repro/core/engine.py",
        "repro/core/openapi.py",
        "repro/core/rounds.py",
        "repro/core/equations.py",
        "repro/core/batch.py",
        "repro/serving/worker.py",
        "repro/serving/index.py",
    ],
    # ------------------------------------------------------------- #
    # durability: modules that own crash-safe store paths (PR 5/8).
    # os.replace there must be preceded by an os.fsync in the same
    # function; open()-for-write is only allowed in the whitelisted
    # tmp+replace / append helpers.
    "store_modules": [
        "repro/serving/store.py",
        "repro/serving/gateway.py",
    ],
    "store_write_whitelist": {
        "repro/serving/store.py": {
            "_acquire_writer_lock": (
                "opens the advisory-lock sentinel file, not record data; "
                "contents are never read"
            ),
            "_persist_index": (
                "the tmp+fsync+os.replace helper itself — the one "
                "sanctioned index publish path"
            ),
            "append": (
                "segment append; fsynced before the index that points "
                "at it is published"
            ),
            "compact": (
                "rewrites the live set into a fresh segment, fsynced "
                "before the index rename adopts it"
            ),
            "_recover_tail": (
                "recovery truncation of a torn trailing frame; "
                "discards bytes, never publishes them"
            ),
        },
        "repro/serving/gateway.py": {
            "_popen_worker": (
                "per-worker stderr log capture (initial spawn and "
                "supervisor respawn); diagnostics, not store data"
            ),
        },
    },
}


def validate_config(config: dict) -> None:
    """Reject whitelist entries whose justification is empty.

    The config is the widest escape hatch the linter has; holding it to
    the same justified-suppression standard keeps 'just whitelist it'
    from becoming the path of least resistance.
    """
    key = "store_write_whitelist"
    for module, entries in config.get(key, {}).items():
        for func, why in entries.items():
            if not str(why).strip():
                raise ValueError(
                    f"config {key}[{module!r}][{func!r}] has an empty "
                    "justification"
                )
