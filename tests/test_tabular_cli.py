"""Tests for the credit-scoring dataset, the experiment runner and the CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data import (
    CREDIT_CLASS_NAMES,
    CREDIT_FEATURE_NAMES,
    load_dataset,
    make_credit_scoring,
)
from repro.data.tabular import _creditworthiness
from repro.eval.runner import (
    EXPERIMENT_IDS,
    ExperimentReport,
    resolve_config,
    run_experiments,
)
from repro.exceptions import ValidationError


class TestCreditScoring:
    def test_shapes_and_names(self):
        ds = make_credit_scoring(200, seed=0)
        assert ds.X.shape == (200, len(CREDIT_FEATURE_NAMES))
        assert ds.class_names == CREDIT_CLASS_NAMES
        assert ds.X.min() >= 0.0 and ds.X.max() <= 1.0

    def test_all_classes_present(self):
        ds = make_credit_scoring(300, seed=1)
        assert set(ds.y.tolist()) == {0, 1, 2}

    def test_class_imbalance_matches_cutoffs(self):
        ds = make_credit_scoring(1000, label_noise=0.0, seed=2)
        counts = np.bincount(ds.y)
        # 30% deny / 30% review / 40% approve by construction.
        assert counts[0] == pytest.approx(300, abs=20)
        assert counts[2] == pytest.approx(400, abs=20)

    def test_reproducible(self):
        a = make_credit_scoring(100, seed=5)
        b = make_credit_scoring(100, seed=5)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_label_noise_flips_labels(self):
        clean = make_credit_scoring(500, label_noise=0.0, seed=3)
        noisy = make_credit_scoring(500, label_noise=0.3, seed=3)
        assert (clean.y != noisy.y).mean() > 0.1

    def test_learnable_by_plnn(self):
        from repro.models import ReLUNetwork, TrainingConfig, train_network

        ds = make_credit_scoring(800, seed=4)
        net = ReLUNetwork([ds.n_features, 24, 3], seed=4)
        report = train_network(
            net, ds.X, ds.y,
            TrainingConfig(epochs=120, learning_rate=3e-3, seed=4),
        )
        assert report.final_train_accuracy > 0.85

    def test_ground_truth_is_piecewise(self):
        """The secured-loan regime changes collateral's marginal effect."""
        base = np.full((1, 10), 0.5)
        collateral_idx = CREDIT_FEATURE_NAMES.index("collateral")

        def marginal(at):
            lo = base.copy()
            hi = base.copy()
            lo[0, collateral_idx] = at - 0.01
            hi[0, collateral_idx] = at + 0.01
            return float(
                (_creditworthiness(hi) - _creditworthiness(lo))[0]
            ) / 0.02

        assert marginal(0.8) > marginal(0.2) + 0.5

    def test_registry_integration(self):
        ds = load_dataset("credit-scoring", 50, seed=0)
        assert ds.name == "credit-scoring"

    def test_validations(self):
        with pytest.raises(ValidationError):
            make_credit_scoring(5)
        with pytest.raises(ValidationError):
            make_credit_scoring(100, label_noise=1.0)


class TestRunner:
    def test_resolve_config(self):
        assert resolve_config("test").n_features == 36
        assert resolve_config("paper").n_features == 784
        with pytest.raises(ValidationError):
            resolve_config("galactic")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValidationError):
            run_experiments(["fig99"], scale="test")

    def test_single_experiment(self):
        cfg = resolve_config("test").scaled(
            datasets=("synthetic-digits",), models=("lmt",)
        )
        report = run_experiments(["table1"], config=cfg)
        assert isinstance(report, ExperimentReport)
        assert "table1" in report.sections
        assert "LMT" in report.sections["table1"]
        assert "table1" in report.as_text()

    def test_all_expands(self):
        cfg = resolve_config("test").scaled(
            datasets=("synthetic-digits",),
            models=("lmt",),
            n_interpret=2,
            h_grid=(1e-4,),
        )
        report = run_experiments(["all"], config=cfg)
        assert set(report.sections) == set(EXPERIMENT_IDS)


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "table1", "--scale", "test"])
        assert args.command == "run" and args.ids == ["table1"]
        args = parser.parse_args(["interpret", "--dataset", "blobs"])
        assert args.command == "interpret"
        args = parser.parse_args(["list"])
        assert args.command == "list"

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "credit-scoring" in out
        assert "scale paper" in out

    def test_run_command_writes_output(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        code = main(["run", "table1", "--scale", "test", "--output", str(out_file)])
        assert code == 0
        assert out_file.exists()
        assert "table1" in out_file.read_text()

    def test_interpret_command(self, capsys):
        code = main(["interpret", "--dataset", "blobs", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "certified=True" in out
        assert "verification PASS" in out

    def test_interpret_bad_instance(self, capsys):
        code = main([
            "interpret", "--dataset", "blobs", "--instance", "100000"
        ])
        assert code == 2


class TestServeFlagValidation:
    """Regression: ``serve`` used to silently accept contradictory flag
    combinations (``--ttl-s`` under LRU eviction was ignored, transport
    knobs without ``--broker`` did nothing).  Every such combination must exit 2 with a clear error."""

    def run_serve(self, capsys, *flags: str) -> tuple[int, str]:
        code = main(["serve", *flags])
        return code, capsys.readouterr().err

    def test_ttl_s_requires_ttl_eviction(self, capsys):
        code, err = self.run_serve(capsys, "--ttl-s", "30")
        assert code == 2
        assert "--ttl-s" in err and "--eviction ttl" in err

    def test_ttl_eviction_requires_ttl_s(self, capsys):
        code, err = self.run_serve(capsys, "--eviction", "ttl")
        assert code == 2
        assert "--ttl-s" in err

    def test_nonpositive_ttl_rejected(self, capsys):
        code, err = self.run_serve(
            capsys, "--eviction", "ttl", "--ttl-s", "0"
        )
        assert code == 2
        assert "--ttl-s" in err

    def test_transport_flags_require_broker(self, capsys):
        for flags in (
            ["--latency-ms", "5"],
            ["--failure-rate", "0.1"],
            ["--rate-limit", "100"],
        ):
            code, err = self.run_serve(capsys, *flags)
            assert code == 2
            assert "--broker" in err

    def test_range_error_reported_even_without_broker(self, capsys):
        """An out-of-range transport value must surface the range error
        in one shot, not hide behind the requires---broker message."""
        code, err = self.run_serve(capsys, "--latency-ms", "-5")
        assert code == 2
        assert "must be >= 0" in err

    def test_bad_failure_rate_rejected(self, capsys):
        code, err = self.run_serve(
            capsys, "--broker", "--failure-rate", "1.5"
        )
        assert code == 2
        assert "--failure-rate" in err

    def test_negative_retries_rejected(self, capsys):
        code, err = self.run_serve(capsys, "--broker", "--retries", "-1")
        assert code == 2
        assert "--retries" in err

    def test_l2_flags_require_l2_dir(self, capsys):
        for flags in (
            ["--l2-max-bytes", "1048576"],
            ["--compact-ratio", "0.7"],
        ):
            code, err = self.run_serve(capsys, *flags)
            assert code == 2
            assert "--l2-dir" in err

    def test_l2_dir_conflicts_with_no_cache(self, capsys):
        code, err = self.run_serve(capsys, "--no-cache", "--l2-dir", "l2")
        assert code == 2
        assert "--no-cache" in err and "--l2-dir" in err

    def test_l2_range_errors_reported(self, capsys):
        code, err = self.run_serve(
            capsys, "--l2-dir", "l2", "--l2-max-bytes", "0"
        )
        assert code == 2
        assert "--l2-max-bytes" in err
        code, err = self.run_serve(
            capsys, "--l2-dir", "l2", "--compact-ratio", "1.5"
        )
        assert code == 2
        assert "--compact-ratio" in err

    def test_index_bits_requires_region_index(self, capsys):
        code, err = self.run_serve(capsys, "--index-bits", "8")
        assert code == 2
        assert "--index-bits" in err and "--region-index" in err

    def test_region_index_conflicts_with_no_cache(self, capsys):
        code, err = self.run_serve(capsys, "--no-cache", "--region-index")
        assert code == 2
        assert "--no-cache" in err and "--region-index" in err

    def test_index_bits_range_enforced(self, capsys):
        for bits in ("0", "65"):
            code, err = self.run_serve(
                capsys, "--region-index", "--index-bits", bits
            )
            assert code == 2
            assert "--index-bits" in err and "[1, 64]" in err

    def test_coherent_index_flags_pass_validation(self):
        from repro.cli import _validate_serve_flags

        args = build_parser().parse_args(
            ["serve", "--region-index", "--index-bits", "12",
             "--l2-dir", "l2"]
        )
        assert _validate_serve_flags(args) is None

    def test_index_flag_defaults_mirror_serving_constants(self):
        """The parser keeps literal copies of the serving-layer index
        constants (to stay import-light); they must not drift."""
        from repro.cli import _INDEX_FLAG_DEFAULTS, _MAX_INDEX_BITS
        from repro.serving.index import DEFAULT_INDEX_BITS, MAX_INDEX_BITS

        assert _INDEX_FLAG_DEFAULTS["index_bits"] == DEFAULT_INDEX_BITS
        assert _MAX_INDEX_BITS == MAX_INDEX_BITS

    def test_coherent_flags_pass_validation(self):
        from repro.cli import _validate_serve_flags

        args = build_parser().parse_args(
            ["serve", "--eviction", "ttl", "--ttl-s", "30",
             "--broker", "--latency-ms", "2", "--failure-rate", "0.05"]
        )
        assert _validate_serve_flags(args) is None

    def test_coherent_l2_flags_pass_validation(self):
        from repro.cli import _validate_serve_flags

        args = build_parser().parse_args(
            ["serve", "--l2-dir", "l2", "--l2-max-bytes", "1048576",
             "--compact-ratio", "0.6", "--max-entries", "64"]
        )
        assert _validate_serve_flags(args) is None


class TestServeL2Shutdown:
    """``serve --l2-dir`` closes its tiered store however the replay
    ends: L1-only regions reach the disk even when serving raises, and
    a clean run drains L1 exactly once."""

    FLAGS = ["serve", "--dataset", "blobs", "--requests", "40",
             "--clusters", "6", "--max-entries", "64"]

    def test_regions_persist_when_replay_raises(self, tmp_path, monkeypatch):
        from repro.serving import InterpretationService, TieredRegionStore

        serve_all = InterpretationService.interpret_many
        solved = {}

        def serve_then_raise(service, *args, **kwargs):
            serve_all(service, *args, **kwargs)
            solved["regions"] = len(service.cache)
            raise RuntimeError("replay failed after serving")

        monkeypatch.setattr(
            InterpretationService, "interpret_many", serve_then_raise
        )
        directory = tmp_path / "l2"
        with pytest.raises(RuntimeError, match="replay failed"):
            main([*self.FLAGS, "--l2-dir", str(directory)])
        # max-entries 64 never evicts: every region lived only in L1.
        assert solved["regions"] > 0
        reopened = TieredRegionStore(directory)
        assert len(reopened.l2) == solved["regions"]
        reopened.close()

    def test_clean_run_drains_once(self, tmp_path, monkeypatch, capsys):
        from repro.serving import TieredRegionStore

        drain = TieredRegionStore.drain
        calls = []

        def counted_drain(store):
            calls.append(drain(store))
            return calls[-1]

        monkeypatch.setattr(TieredRegionStore, "drain", counted_drain)
        directory = tmp_path / "l2"
        assert main([*self.FLAGS, "--l2-dir", str(directory)]) == 0
        assert len(calls) == 1 and calls[0] > 0
        assert (f"({calls[0]} L1 entries drained to disk at shutdown)"
                in capsys.readouterr().out)
        monkeypatch.undo()
        reopened = TieredRegionStore(directory)
        assert len(reopened.l2) == calls[0]
        reopened.close()


class TestGatewayFlagValidation:
    """The multi-process gateway flags must be coherent before any
    worker process is spawned: every contradictory combination exits 2
    naming the offending flag, never silently ignores it."""

    def run_serve(self, capsys, *flags: str) -> tuple[int, str]:
        code = main(["serve", *flags])
        return code, capsys.readouterr().err

    def test_gateway_knobs_require_gateway(self, capsys):
        for flags in (
            ["--gateway-workers", "4"],
            ["--port", "8080"],
            ["--queue-capacity", "8"],
            ["--drain-deadline-s", "5"],
            ["--no-supervise"],
            ["--rolling-restart"],
        ):
            code, err = self.run_serve(capsys, *flags)
            assert code == 2
            assert "--gateway" in err and "silently ignored" in err

    def test_queue_capacity_range(self, capsys):
        code, err = self.run_serve(
            capsys, "--gateway", "--l2-dir", "l2", "--queue-capacity", "0"
        )
        assert code == 2
        assert "--queue-capacity" in err and ">= 1" in err

    def test_drain_deadline_range(self, capsys):
        code, err = self.run_serve(
            capsys, "--gateway", "--l2-dir", "l2",
            "--drain-deadline-s", "0",
        )
        assert code == 2
        assert "--drain-deadline-s" in err and "> 0" in err

    def test_rolling_restart_contradicts_no_supervise(self, capsys):
        code, err = self.run_serve(
            capsys, "--gateway", "--l2-dir", "l2",
            "--rolling-restart", "--no-supervise",
        )
        assert code == 2
        assert "--rolling-restart" in err and "--no-supervise" in err

    def test_gateway_requires_l2_dir(self, capsys):
        code, err = self.run_serve(capsys, "--gateway")
        assert code == 2
        assert "--l2-dir" in err and "single writer" in err

    def test_gateway_worker_count_range(self, capsys):
        code, err = self.run_serve(
            capsys, "--gateway", "--l2-dir", "l2", "--gateway-workers", "0"
        )
        assert code == 2
        assert "--gateway-workers" in err and ">= 1" in err

    def test_port_range_enforced(self, capsys):
        code, err = self.run_serve(
            capsys, "--gateway", "--l2-dir", "l2", "--port", "70000"
        )
        assert code == 2
        assert "--port" in err and "[0, 65535]" in err

    def test_gateway_conflicts_with_in_process_tiers(self, capsys):
        base = ["--gateway", "--l2-dir", "l2"]
        for flags, named in (
            (["--no-cache"], "--no-cache"),
            (["--broker"], "--broker"),
            (["--eviction", "ttl", "--ttl-s", "30"], "--eviction"),
            (["--l2-max-bytes", "1048576"], "--l2-max-bytes"),
            (["--compact-ratio", "0.6"], "--compact-ratio"),
        ):
            code, err = self.run_serve(capsys, *base, *flags)
            assert code == 2, flags
            assert named in err, (flags, err)

    def test_gateway_rejects_batch_size(self):
        """Gateway workers build their service with its own batch cap;
        a non-default ``--batch-size`` would never reach them."""
        from repro.cli import _validate_serve_flags

        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--gateway", "--l2-dir", "l2", "--batch-size", "4"]
        )
        error = _validate_serve_flags(args)
        assert error is not None and "drop --batch-size" in error
        args = parser.parse_args(["serve", "--l2-dir", "l2", "--batch-size", "4"])
        assert _validate_serve_flags(args) is None

    def test_coherent_gateway_flags_pass_validation(self):
        from repro.cli import _validate_serve_flags

        args = build_parser().parse_args(
            ["serve", "--gateway", "--l2-dir", "l2",
             "--gateway-workers", "4", "--port", "8080",
             "--queue-capacity", "16", "--drain-deadline-s", "5",
             "--rolling-restart",
             "--region-index", "--index-bits", "12"]
        )
        assert _validate_serve_flags(args) is None

    def test_gateway_flag_defaults_pinned(self):
        """The validator detects non-default gateway knobs against this
        table; the parser defaults must not drift from it."""
        from repro.cli import _GATEWAY_FLAG_DEFAULTS

        parser = build_parser()
        args = parser.parse_args(["serve"])
        for attr, default in _GATEWAY_FLAG_DEFAULTS.items():
            assert getattr(args, attr) == default
