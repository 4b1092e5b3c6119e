"""Tests for ``tools/repro_lint`` — the AST invariant checker.

Three layers:

* fixture snippets per rule (violating / clean / suppressed variants),
  run through the real engine with a fixture-scoped config;
* a regression fixture that re-introduces the PR 4 unsynchronized meter
  mutation and proves the race checker flags it;
* a meta-test that the shipped ``src/`` tree lints clean with the
  shipped config — the same gate CI's lint job enforces.
"""

from __future__ import annotations

import json
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.repro_lint import RULES, SourceFile, lint_file, lint_paths  # noqa: E402
from tools.repro_lint.cli import main as lint_main  # noqa: E402
from tools.repro_lint.config import DEFAULT_CONFIG, validate_config  # noqa: E402
from tools.repro_lint.engine import resolve_rules  # noqa: E402

ALL_RULES = sorted(RULES)

#: Fixture config: the fixture's fake paths are the scoped modules.
FIXTURE_CONFIG = {
    "wallclock_modules": ["fixtures/wire_mod.py"],
    "store_modules": ["fixtures/store_mod.py"],
    "store_write_whitelist": {
        "fixtures/store_mod.py": {
            "sanctioned_writer": "fixture tmp+replace helper justification",
        },
    },
}


def lint_snippet(code: str, path: str = "fixtures/plain_mod.py"):
    sf = SourceFile(Path(path), path, textwrap.dedent(code))
    findings, suppressed = lint_file(sf, ALL_RULES, FIXTURE_CONFIG)
    return findings, suppressed


def rules_of(findings):
    return [f.rule for f in findings]


# ===================================================================== #
# lock-discipline
# ===================================================================== #
class TestLockDiscipline:
    def test_unlocked_mutation_flagged(self):
        findings, _ = lint_snippet(
            """
            class Meter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0  # guarded-by: _lock

                def bump(self):
                    self._count += 1
            """
        )
        assert rules_of(findings) == ["lock-discipline"]
        assert "mutated" in findings[0].message
        assert "_count" in findings[0].message

    def test_unlocked_read_flagged(self):
        findings, _ = lint_snippet(
            """
            class Meter:
                def __init__(self):
                    self._count = 0  # guarded-by: _lock

                def peek(self):
                    return self._count
            """
        )
        assert rules_of(findings) == ["lock-discipline"]
        assert "read" in findings[0].message

    def test_locked_access_clean(self):
        findings, _ = lint_snippet(
            """
            class Meter:
                def __init__(self):
                    self._count = 0  # guarded-by: _lock

                def bump(self):
                    with self._lock:
                        self._count += 1
                    with self._lock:
                        return self._count
            """
        )
        assert findings == []

    def test_subscripted_lock_expression_counts(self):
        findings, _ = lint_snippet(
            """
            class Striped:
                def __init__(self):
                    self._hits = 0  # guarded-by: _locks

                def bump(self, si):
                    with self._locks[si]:
                        self._hits += 1
            """
        )
        assert findings == []

    def test_requires_lock_annotation_trusted(self):
        findings, _ = lint_snippet(
            """
            class Meter:
                def __init__(self):
                    self._count = 0  # guarded-by: _lock

                def _bump_locked(self):  # requires-lock: _lock
                    self._count += 1
            """
        )
        assert findings == []

    def test_declaring_function_exempt(self):
        # __init__ builds the object before it is shared.
        findings, _ = lint_snippet(
            """
            class Meter:
                def __init__(self, n):
                    self._count = 0  # guarded-by: _lock
                    self._count = n  # construction, same function
            """
        )
        assert findings == []

    def test_nested_function_under_with_not_credited(self):
        # A closure created under the lock runs later, lock not held.
        findings, _ = lint_snippet(
            """
            class Meter:
                def __init__(self):
                    self._count = 0  # guarded-by: _lock

                def make_reader(self):
                    with self._lock:
                        def reader():
                            return self._count
                    return reader
            """
        )
        assert rules_of(findings) == ["lock-discipline"]

    def test_module_global_discipline(self):
        findings, _ = lint_snippet(
            """
            _cache = {}  # guarded-by: _mu

            def good(k):
                with _mu:
                    return _cache.get(k)

            def bad(k):
                return _cache.get(k)
            """
        )
        assert rules_of(findings) == ["lock-discipline"]
        assert "`bad`" in findings[0].message

    def test_pr4_meter_race_reproduction(self):
        """The PR 4 bug, as an AST fixture: PredictionAPI._score_blocks
        check-then-committed the query meter with no lock — concurrent
        broker-off callers lost `+= n_rows` updates and double-passed
        the budget check.  The race checker must flag both the
        unsynchronized check (read) and the commit (mutation)."""
        findings, _ = lint_snippet(
            """
            class PredictionAPI:
                def __init__(self, model, budget):
                    self._model = model
                    self._budget = budget
                    self._meter_lock = threading.Lock()
                    self._query_count = 0  # guarded-by: _meter_lock

                def _score_blocks(self, blocks):
                    n_rows = sum(b.shape[0] for b in blocks)
                    if self._query_count + n_rows > self._budget:
                        raise APIBudgetExceededError()
                    results = [self._model.predict_proba(b) for b in blocks]
                    self._query_count += n_rows
                    return results
            """
        )
        assert rules_of(findings) == ["lock-discipline", "lock-discipline"]
        lines = sorted(f.line for f in findings)
        messages = " ".join(f.message for f in findings)
        assert "read" in messages and "mutated" in messages
        assert lines[0] < lines[1]  # the check, then the commit

    def test_fixed_pr4_shape_is_clean(self):
        findings, _ = lint_snippet(
            """
            class PredictionAPI:
                def __init__(self, model, budget):
                    self._meter_lock = threading.Lock()
                    self._query_count = 0  # guarded-by: _meter_lock

                def _score_blocks(self, blocks):
                    n_rows = sum(b.shape[0] for b in blocks)
                    with self._meter_lock:
                        if self._query_count + n_rows > self._budget:
                            raise APIBudgetExceededError()
                    results = [self._model.predict_proba(b) for b in blocks]
                    with self._meter_lock:
                        self._query_count += n_rows
                    return results
            """
        )
        assert findings == []

    def test_suppression_with_justification(self):
        findings, suppressed = lint_snippet(
            """
            class Meter:
                def __init__(self):
                    self._count = 0  # guarded-by: _lock

                def racy_peek(self):
                    # repro-lint: disable=lock-discipline atomic int read; drift is acceptable for monitoring
                    return self._count
            """
        )
        assert findings == []
        assert suppressed == 1


# ===================================================================== #
# determinism
# ===================================================================== #
WIRE = "fixtures/wire_mod.py"


class TestDeterminism:
    def test_unseeded_default_rng_flagged(self):
        findings, _ = lint_snippet(
            """
            def sample():
                return np.random.default_rng().normal(size=3)
            """
        )
        assert rules_of(findings) == ["determinism"]

    def test_none_seed_flagged(self):
        findings, _ = lint_snippet("rng = np.random.default_rng(None)\n")
        assert rules_of(findings) == ["determinism"]

    def test_seeded_rng_clean(self):
        findings, _ = lint_snippet(
            "rng = np.random.default_rng(1234)\n"
            "rng2 = np.random.default_rng(seed)\n"
        )
        assert findings == []

    def test_stdlib_random_flagged(self):
        findings, _ = lint_snippet(
            """
            import random

            def jitter():
                return random.random()
            """
        )
        assert rules_of(findings) == ["determinism"]

    def test_legacy_np_global_rng_flagged(self):
        findings, _ = lint_snippet(
            """
            def reset():
                np.random.seed(0)
            """
        )
        assert rules_of(findings) == ["determinism"]

    def test_wallclock_into_seed_flagged_everywhere(self):
        findings, _ = lint_snippet(
            """
            def worker_rng():
                seed = time.time_ns()
                return np.random.default_rng(seed)
            """,
            path="fixtures/not_covered.py",
        )
        assert rules_of(findings) == ["determinism"]
        assert "seed" in findings[0].message

    def test_wallclock_as_seed_kwarg_flagged(self):
        findings, _ = lint_snippet(
            "api = Transport(seed=time.time())\n",
            path="fixtures/not_covered.py",
        )
        assert rules_of(findings) == ["determinism"]

    def test_wallclock_in_wire_module_flagged(self):
        findings, _ = lint_snippet(
            """
            def handle(request):
                started = time.perf_counter()
                return started
            """,
            path=WIRE,
        )
        assert rules_of(findings) == ["determinism"]

    def test_timing_ok_annotation_whitelists_meters(self):
        findings, _ = lint_snippet(
            """
            def handle(request):
                started = time.perf_counter()  # timing-ok: latency meter, never enters the payload
                return compute(request)
            """,
            path=WIRE,
        )
        assert findings == []

    def test_timing_ok_needs_real_justification(self):
        findings, _ = lint_snippet(
            """
            def handle(request):
                started = time.perf_counter()  # timing-ok: yes
                return compute(request)
            """,
            path=WIRE,
        )
        assert rules_of(findings) == ["suppression"]

    def test_plain_timing_outside_scope_clean(self):
        findings, _ = lint_snippet(
            "t0 = time.perf_counter()\n",
            path="fixtures/not_covered.py",
        )
        assert findings == []


# ===================================================================== #
# durability
# ===================================================================== #
STORE = "fixtures/store_mod.py"


class TestDurability:
    def test_replace_without_fsync_flagged(self):
        findings, _ = lint_snippet(
            """
            def publish(tmp, dst):
                with open(tmp, "rb") as h:
                    pass
                os.replace(tmp, dst)
            """,
            path=STORE,
        )
        assert rules_of(findings) == ["durability"]
        assert "fsync" in findings[0].message

    def test_fsync_then_replace_clean(self):
        findings, _ = lint_snippet(
            """
            def sanctioned_writer(tmp, dst, payload):
                with open(tmp, "w") as h:
                    h.write(payload)
                    h.flush()
                    os.fsync(h.fileno())
                os.replace(tmp, dst)
            """,
            path=STORE,
        )
        assert findings == []

    def test_replace_outside_store_modules_clean(self):
        findings, _ = lint_snippet(
            "def publish(a, b):\n    os.replace(a, b)\n",
            path="fixtures/not_covered.py",
        )
        assert findings == []

    def test_bare_write_open_flagged(self):
        findings, _ = lint_snippet(
            """
            def sneak(path):
                with open(path, "w") as h:
                    h.write("x")
            """,
            path=STORE,
        )
        assert rules_of(findings) == ["durability"]

    def test_append_and_plus_modes_count_as_writes(self):
        findings, _ = lint_snippet(
            """
            def sneak_a(path):
                open(path, "ab")

            def sneak_plus(path):
                open(path, "r+b")
            """,
            path=STORE,
        )
        assert rules_of(findings) == ["durability", "durability"]

    def test_read_open_clean(self):
        findings, _ = lint_snippet(
            "def load(path):\n    return open(path, 'rb').read()\n",
            path=STORE,
        )
        assert findings == []

    def test_dynamic_mode_flagged(self):
        findings, _ = lint_snippet(
            "def sneak(path, mode):\n    return open(path, mode)\n",
            path=STORE,
        )
        assert rules_of(findings) == ["durability"]

    def test_whitelisted_writer_clean(self):
        findings, _ = lint_snippet(
            """
            def sanctioned_writer(path):
                with open(path, "wb") as h:
                    h.write(b"x")
            """,
            path=STORE,
        )
        assert findings == []

    def test_suppressed_with_justification(self):
        findings, suppressed = lint_snippet(
            """
            def stderr_log(path):
                # repro-lint: disable=durability diagnostics log, not store data
                return open(path, "wb")
            """,
            path=STORE,
        )
        assert findings == []
        assert suppressed == 1


# ===================================================================== #
# exception-boundary
# ===================================================================== #
class TestExceptionBoundary:
    def test_bare_except_flagged(self):
        findings, _ = lint_snippet(
            """
            def run(job):
                try:
                    job()
                except:
                    pass
            """
        )
        assert rules_of(findings) == ["exception-boundary"]
        assert "bare" in findings[0].message

    def test_broad_catch_without_comment_flagged(self):
        findings, _ = lint_snippet(
            """
            def run(job):
                try:
                    job()
                except Exception:
                    pass
            """
        )
        assert rules_of(findings) == ["exception-boundary"]

    def test_broad_catch_in_tuple_flagged(self):
        findings, _ = lint_snippet(
            """
            def run(job):
                try:
                    job()
                except (ValueError, Exception):
                    pass
            """
        )
        assert rules_of(findings) == ["exception-boundary"]

    def test_justified_boundary_clean(self):
        findings, _ = lint_snippet(
            """
            def loop(jobs):
                for job in jobs:
                    try:
                        job()
                    except Exception:  # boundary: one job must not kill the loop
                        continue
            """
        )
        assert findings == []

    def test_cleanup_and_reraise_clean(self):
        findings, _ = lint_snippet(
            """
            def run(job, lock):
                try:
                    job()
                except BaseException:
                    lock.release()
                    raise
            """
        )
        assert findings == []

    def test_reraise_of_bound_name_clean(self):
        findings, _ = lint_snippet(
            """
            def run(job):
                try:
                    job()
                except Exception as exc:
                    log(exc)
                    raise exc
            """
        )
        assert findings == []

    def test_short_justification_is_a_finding(self):
        findings, _ = lint_snippet(
            """
            def run(job):
                try:
                    job()
                except Exception:  # boundary: ok
                    pass
            """
        )
        assert rules_of(findings) == ["suppression"]

    def test_narrow_catches_clean(self):
        findings, _ = lint_snippet(
            """
            def run(job):
                try:
                    job()
                except (OSError, ValueError):
                    pass
            """
        )
        assert findings == []


# ===================================================================== #
# suppression meta-rule + engine behavior
# ===================================================================== #
class TestSuppressionMeta:
    def test_unknown_rule_flagged(self):
        findings, _ = lint_snippet(
            "# repro-lint: disable=no-such-rule because reasons apply\nx = 1\n"
        )
        assert rules_of(findings) == ["suppression"]
        assert "unknown rule" in findings[0].message

    def test_malformed_comment_flagged(self):
        findings, _ = lint_snippet("# repro-lint: disable everything\nx = 1\n")
        assert rules_of(findings) == ["suppression"]

    def test_suppression_rule_cannot_be_suppressed(self):
        findings, _ = lint_snippet(
            "# repro-lint: disable=suppression because I said so\nx = 1\n"
        )
        assert rules_of(findings) == ["suppression"]
        assert "cannot be suppressed" in findings[0].message

    def test_multi_rule_suppression(self):
        findings, suppressed = lint_snippet(
            """
            class Meter:
                def __init__(self):
                    self._count = 0  # guarded-by: _lock

                def noisy_peek(self):
                    # repro-lint: disable=lock-discipline,determinism monitoring-only read with deliberate jitter
                    return self._count + np.random.default_rng().normal()
            """
        )
        assert findings == []
        assert suppressed == 2

    def test_resolve_rules_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown rule"):
            resolve_rules(enable=["no-such-rule"])

    def test_suppression_rule_always_active(self):
        assert "suppression" in resolve_rules(disable=["suppression"])

    def test_config_validation_rejects_empty_justification(self):
        bad = dict(DEFAULT_CONFIG)
        bad["store_write_whitelist"] = {"m.py": {"fn": "   "}}
        with pytest.raises(ValueError, match="empty justification"):
            validate_config(bad)


# ===================================================================== #
# CLI
# ===================================================================== #
class TestCli:
    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert lint_main([str(target)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one_and_json_schema(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text(
            "def run(job):\n"
            "    try:\n"
            "        job()\n"
            "    except:\n"
            "        pass\n"
        )
        report_path = tmp_path / "report.json"
        code = lint_main([
            str(target), "--format", "json", "--output", str(report_path),
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro-lint"
        assert payload["n_findings"] == 1
        assert payload["files_checked"] == 1
        finding = payload["findings"][0]
        assert set(finding) == {"path", "line", "col", "rule", "message"}
        assert finding["rule"] == "exception-boundary"
        # --output wrote the same report for the CI artifact.
        assert json.loads(report_path.read_text()) == payload

    def test_disable_rule(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text(
            "def run(job):\n"
            "    try:\n"
            "        job()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert lint_main([str(target)]) == 1
        assert lint_main([str(target), "--disable", "exception-boundary"]) == 0

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert lint_main([str(target), "--disable", "bogus"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert lint_main(["/no/such/dir/file.py"]) == 2


# ===================================================================== #
# the repository itself
# ===================================================================== #
class TestRepositoryLintsClean:
    def test_src_tree_lints_clean(self):
        """The CI lint gate, as a test: the shipped tree has zero
        findings under the shipped config."""
        report = lint_paths([REPO_ROOT / "src"])
        assert report.findings == [], "\n" + "\n".join(
            f.as_text() for f in report.findings
        )
        assert report.files_checked > 50
        # The one deliberate, justified escape (a lock-discipline
        # suppression) is visible, and no other creeps in unnoticed.
        assert report.suppressed == 1

    def test_annotated_modules_participate(self):
        """Every module ISSUE 9 names carries at least one guarded-by
        annotation, so the race checker is actually armed there."""
        for rel in [
            "src/repro/api/service.py",
            "src/repro/api/transport.py",
            "src/repro/serving/service.py",
            "src/repro/serving/gateway.py",
            "src/repro/serving/store.py",
        ]:
            text = (REPO_ROOT / rel).read_text()
            assert "guarded-by:" in text, f"{rel} lost its annotations"
