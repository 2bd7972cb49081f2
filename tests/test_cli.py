"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "KV cache" in out
        assert "shape checks" in out

    def test_fig1_custom_lifetime(self, capsys):
        assert main(["fig1", "--years", "3"]) == 0

    def test_tradeoff(self, capsys):
        assert main(["tradeoff"]) == 0
        out = capsys.readouterr().out
        assert "rram-weebit" in out
        assert "endurance" in out

    def test_tradeoff_other_reference(self, capsys):
        assert main(["tradeoff", "--reference", "pcm-optane"]) == 0
        assert "pcm-optane" in capsys.readouterr().out

    def test_tradeoff_unknown_reference(self, capsys):
        assert main(["tradeoff", "--reference", "unobtainium"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "unobtainium" in err
        assert err.count("\n") == 1  # one line, no traceback

    def test_characterize(self, capsys):
        assert main(["characterize", "--requests", "3"]) == 0
        out = capsys.readouterr().out
        assert "read:write ratio" in out
        assert "sequentiality" in out

    def test_provisioning(self, capsys):
        assert main(["provisioning"]) == 0
        out = capsys.readouterr().out
        assert "overprovisioned" in out
        assert "underprovisioned" in out

    def test_serve(self, capsys):
        assert main(["serve", "--duration", "5", "--engines", "1"]) == 0
        out = capsys.readouterr().out
        assert "throughput tok/s" in out
        assert "memory-bound" in out

    def test_sensitivity(self, capsys):
        assert main(["sensitivity"]) == 0
        out = capsys.readouterr().out
        assert "hbm_overprovisioned" in out

    def test_trace_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        assert main(
            ["trace", "--out", str(out_path), "--duration", "5"]
        ) == 0
        from repro.workload.traces import read_trace

        assert len(read_trace(out_path)) > 0

    def test_trace_code_profile(self, tmp_path):
        out_path = tmp_path / "code.jsonl"
        assert main(
            ["trace", "--out", str(out_path), "--profile", "code",
             "--duration", "5"]
        ) == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestAnalyticMode:
    def test_serve_analytic_prints_same_table(self, capsys):
        assert main(
            ["serve", "--mode", "analytic", "--duration", "5",
             "--engines", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "throughput tok/s" in out
        assert "memory-bound" in out

    def test_serve_analytic_rejects_event_level_flags(self, tmp_path, capsys):
        assert main(
            ["serve", "--mode", "analytic", "--duration", "5",
             "--metrics", str(tmp_path / "m.json")]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "--mode des" in err
        assert err.count("\n") == 1

    def test_sweep_cross_validate_tiny(self, capsys):
        assert main(
            ["sweep", "--mode", "cross-validate", "--tiny"]
        ) == 0
        out = capsys.readouterr().out
        assert "max rel err" in out
        assert "tolerance" in out

    def test_sweep_analytic_tiny(self, capsys):
        assert main(["sweep", "--mode", "analytic", "--tiny"]) == 0
        out = capsys.readouterr().out
        assert "tok/s" in out

    def test_sweep_unknown_mode_is_one_line_error(self, capsys):
        assert main(["sweep", "--mode", "quantum", "--tiny"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_sweep_workers_below_one_is_one_line_error(self, capsys):
        assert main(["sweep", "--tiny", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestFaultsCommand:
    def test_controller_tiny(self, capsys):
        assert main(
            ["faults", "--tiny",
             "--param", "duration_s=900", "--param", "step_s=300"]
        ) == 0
        out = capsys.readouterr().out
        assert "avail (mitigated)" in out
        assert "rate_multiplier" in out

    def test_serving_tiny(self, capsys):
        assert main(
            ["faults", "--family", "serving", "--tiny",
             "--param", "num_requests=12", "--param", "horizon_s=10"]
        ) == 0
        out = capsys.readouterr().out
        assert "kv_loss_per_hour" in out

    def test_unknown_family_is_one_line_error(self, capsys):
        assert main(["faults", "--family", "quantum"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown fault experiment 'quantum'")
        assert "controller" in err and "serving" in err
        assert err.count("\n") == 1

    def test_malformed_param_is_one_line_error(self, capsys):
        assert main(["faults", "--tiny", "--param", "duration"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed --param 'duration'")
        assert err.count("\n") == 1

    def test_param_type_coercion(self):
        from repro.cli import _parse_params

        params = _parse_params(
            ["a=1", "b=2.5", "c=true", "d=False", "e=text"]
        )
        assert params == {
            "a": 1, "b": 2.5, "c": True, "d": False, "e": "text"
        }
        assert isinstance(params["a"], int)

    def test_malformed_param_empty_key(self):
        import pytest as _pytest

        from repro.cli import CLIError, _parse_params

        with _pytest.raises(CLIError):
            _parse_params(["=3"])

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_one_line_error(self, workers, capsys):
        assert main(["faults", "--tiny", "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --workers must be >= 1")
        assert workers in err
        assert err.count("\n") == 1

    def test_metrics_snapshot_merges_arms(self, tmp_path, capsys):
        out = tmp_path / "faults.json"
        assert main(
            ["faults", "--family", "serving", "--tiny",
             "--param", "num_requests=8", "--param", "horizon_s=8",
             "--metrics", str(out)]
        ) == 0
        from repro.obs import load_snapshot

        snap = load_snapshot(str(out))
        counters = snap["counters"]
        assert "sim.events_total{arm=baseline}" in counters
        assert "sim.events_total{arm=mitigated}" in counters


class TestAutoMode:
    def test_serve_auto_in_envelope(self, capsys):
        assert main(
            ["serve", "--mode", "auto", "--duration", "5", "--engines", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "throughput tok/s" in out
        assert "falling back" not in out

    def test_serve_auto_falls_back_on_overload(self, capsys):
        # rho >> 1 on one engine: the analytic stability guard raises
        # UnsupportedScenario; auto degrades to the DES instead of
        # exiting 2.
        assert main(
            ["serve", "--mode", "auto", "--rate", "40",
             "--duration", "5", "--engines", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "analytic evaluator declined" in out
        assert "throughput tok/s" in out

    def test_serve_analytic_stays_strict_on_overload(self, capsys):
        assert main(
            ["serve", "--mode", "analytic", "--rate", "40",
             "--duration", "5", "--engines", "1"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "use mode=des" in err
        assert err.count("\n") == 1

    def test_serve_auto_with_metrics_records_fallback(self, tmp_path, capsys):
        out = tmp_path / "auto.json"
        assert main(
            ["serve", "--mode", "auto", "--duration", "5",
             "--engines", "1", "--metrics", str(out)]
        ) == 0
        from repro.obs import load_snapshot

        counters = load_snapshot(str(out))["counters"]
        key = "serve.analytic_fallback_total{reason=event-artifacts}"
        assert counters[key] == 1

    def test_sweep_auto_tiny(self, capsys):
        assert main(["sweep", "--mode", "auto", "--tiny"]) == 0
        out = capsys.readouterr().out
        assert "mode auto" in out
        assert "analytic evaluator declined" in out

    def test_serve_point_auto_reports_evaluator(self):
        import numpy as np

        from repro.inference.sweep import serve_point

        seed = np.random.SeedSequence(0)
        easy = serve_point(
            {"mode": "auto", "rate": 0.4, "duration": 10.0, "engines": 1,
             "tp": 4, "batch": 16, "model": "llama2-13b",
             "accelerator": "a100-80g"},
            seed,
        )
        assert easy["mode"] == "analytic"
        assert easy["requested_mode"] == "auto"
        assert easy["analytic_fallback"] is False
        hard = serve_point(
            {"mode": "auto", "rate": 40.0, "duration": 5.0, "engines": 1,
             "tp": 4, "batch": 16, "model": "llama2-13b",
             "accelerator": "a100-80g"},
            seed,
        )
        assert hard["mode"] == "des"
        assert hard["analytic_fallback"] is True


#: ``(rate, duration)`` on one TP-4 A100 engine serving Llama2-13B:
#: "in" sits inside the analytic envelope, "out" overloads the engine.
_ENVELOPE = {"in": (0.5, 20.0), "out": (40.0, 2.0)}


def _scenario(envelope):
    from repro.inference.sweep import resolve_accelerator, resolve_model
    from repro.workload.requests import PoissonArrivals
    from repro.workload.traces import generate_trace, replay_trace

    rate, duration = _ENVELOPE[envelope]
    model = resolve_model("llama2-13b")
    trace = generate_trace(model, arrivals=PoissonArrivals(rate),
                           duration_s=duration, seed=0)
    return resolve_accelerator("a100-80g", 4), model, list(replay_trace(trace))


class TestEvaluateCluster:
    """The one des|analytic|auto dispatch behind serve, sweep and fleet."""

    @pytest.mark.parametrize("envelope", sorted(_ENVELOPE))
    def test_des_never_calls_analytic(self, envelope, monkeypatch):
        from repro.inference import analytic
        from repro.inference.sweep import evaluate_cluster

        def refuse(*args, **kwargs):
            raise AssertionError("des mode called the analytic evaluator")

        monkeypatch.setattr(analytic, "analytic_cluster_report", refuse)
        report, evaluated, declined = evaluate_cluster(
            *_scenario(envelope), "des", num_engines=1, max_batch_size=16
        )
        assert (evaluated, declined) == ("des", None)
        assert report.requests_completed > 0

    @pytest.mark.parametrize("mode", ["analytic", "auto"])
    def test_in_envelope_returns_the_analytic_report(self, mode):
        from repro.inference.analytic import analytic_cluster_report
        from repro.inference.sweep import evaluate_cluster, report_to_dict

        accelerator, model, requests = _scenario("in")
        report, evaluated, declined = evaluate_cluster(
            accelerator, model, requests, mode,
            num_engines=1, max_batch_size=16,
        )
        assert (evaluated, declined) == ("analytic", None)
        expected = analytic_cluster_report(
            accelerator, model, requests, num_engines=1, max_batch_size=16
        )
        assert report_to_dict(report) == report_to_dict(expected)

    def test_analytic_out_of_envelope_is_strict(self):
        from repro.inference.analytic import UnsupportedScenario
        from repro.inference.sweep import evaluate_cluster

        with pytest.raises(UnsupportedScenario, match="use mode=des"):
            evaluate_cluster(*_scenario("out"), "analytic", num_engines=1,
                             max_batch_size=16)

    def test_auto_out_of_envelope_falls_back_to_des(self):
        from repro.inference.analytic import (
            UnsupportedScenario,
            analytic_cluster_report,
        )
        from repro.inference.sweep import evaluate_cluster

        accelerator, model, requests = _scenario("out")
        with pytest.raises(UnsupportedScenario) as refusal:
            analytic_cluster_report(accelerator, model, requests,
                                    num_engines=1, max_batch_size=16)
        report, evaluated, declined = evaluate_cluster(
            accelerator, model, requests, "auto",
            num_engines=1, max_batch_size=16,
        )
        assert evaluated == "des"
        assert declined == str(refusal.value)
        assert report.requests_completed == len(requests)

    def test_unknown_mode_names_the_known_modes(self):
        from repro.inference.sweep import SERVE_MODES, evaluate_cluster

        with pytest.raises(ValueError, match="quantum") as error:
            evaluate_cluster(*_scenario("in"), "quantum", num_engines=1,
                             max_batch_size=16)
        for mode in SERVE_MODES:
            assert mode in str(error.value)


class TestChaosCommand:
    _FAST = [
        "--param", "num_requests=8", "--param", "horizon_s=8",
        "--param", "arrival_period_s=0.5",
    ]

    def test_chaos_tiny(self, capsys):
        assert main(
            ["faults", "--family", "chaos", "--tiny", *self._FAST]
        ) == 0
        out = capsys.readouterr().out
        assert "strike_rate_per_hour" in out
        assert "avail (mitigated)" in out

    def test_chaos_in_known_families(self, capsys):
        assert main(["faults", "--family", "quantum"]) == 2
        err = capsys.readouterr().err
        assert "chaos" in err
        assert err.count("\n") == 1

    def test_chaos_nan_rate_is_one_line_error(self, capsys):
        assert main(
            ["faults", "--family", "chaos", "--tiny",
             "--param", "strike_rate_per_hour=nan"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "non-finite strike rate" in err
        assert err.count("\n") == 1

    def test_chaos_zero_horizon_is_one_line_error(self, capsys):
        assert main(
            ["faults", "--family", "chaos", "--tiny",
             "--param", "horizon_s=0"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "horizon must be > 0" in err
        assert err.count("\n") == 1

    def test_controller_negative_multiplier_is_one_line_error(self, capsys):
        assert main(
            ["faults", "--family", "controller", "--tiny",
             "--param", "rate_multiplier=-1"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: rate multiplier must be a number >= 0")
        assert err.count("\n") == 1


class TestObservabilityFlags:
    def _serve(self, tmp_path, capsys):
        metrics = tmp_path / "serve.json"
        trace = tmp_path / "serve.jsonl"
        assert main(
            ["serve", "--duration", "5", "--engines", "1",
             "--metrics", str(metrics), "--trace-out", str(trace)]
        ) == 0
        capsys.readouterr()
        return metrics, trace

    def test_serve_writes_snapshot_and_trace(self, tmp_path, capsys):
        metrics, trace = self._serve(tmp_path, capsys)
        from repro.obs import load_snapshot

        snap = load_snapshot(str(metrics))
        assert "sim.events_total" in snap["counters"]
        assert snap["info"]["run.command"] == "serve"
        header = trace.read_text().splitlines()[0]
        assert '"trace_schema": "repro.obs.trace/1"' in header

    def test_serve_prometheus_extension(self, tmp_path, capsys):
        out = tmp_path / "serve.prom"
        assert main(
            ["serve", "--duration", "5", "--engines", "1",
             "--metrics", str(out)]
        ) == 0
        text = out.read_text()
        assert "# TYPE sim.events_total counter" in text

    def test_obs_top_and_spans(self, tmp_path, capsys):
        metrics, trace = self._serve(tmp_path, capsys)
        assert main(["obs", "top", str(metrics), "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "top 3 counters" in out
        assert main(["obs", "spans", str(trace)]) == 0
        assert "process:" in capsys.readouterr().out

    def test_obs_diff_exit_codes(self, tmp_path, capsys):
        metrics, _trace = self._serve(tmp_path, capsys)
        assert main(["obs", "diff", str(metrics), str(metrics)]) == 0
        assert "identical" in capsys.readouterr().out
        from repro.obs import load_snapshot, write_snapshot

        snap = load_snapshot(str(metrics))
        name = next(iter(snap["counters"]))
        snap["counters"][name] += 1
        other = tmp_path / "other.json"
        write_snapshot(str(other), snap)
        assert main(["obs", "diff", str(metrics), str(other)]) == 1
        assert name in capsys.readouterr().out

    def test_obs_missing_file_is_one_line_error(self, tmp_path, capsys):
        assert main(["obs", "top", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestFleetCommand:
    def test_small_fleet_run(self, capsys):
        assert main(
            ["fleet", "--clusters", "2", "--horizon", "60", "--epoch", "30"]
        ) == 0
        out = capsys.readouterr().out
        assert "fleet — 2 clusters" in out
        assert "users/day" in out
        assert "cells analytic" in out
        for tenant in ("chat", "code", "batch"):
            assert tenant in out

    def test_metrics_snapshot_is_loadable(self, tmp_path, capsys):
        metrics = tmp_path / "fleet.json"
        assert main(
            ["fleet", "--clusters", "2", "--horizon", "60", "--epoch", "30",
             "--metrics", str(metrics)]
        ) == 0
        from repro.obs import load_snapshot

        snap = load_snapshot(str(metrics))
        assert "fleet_requests_admitted{tenant=chat}" in snap["counters"]

    def test_unknown_routing_is_one_line_error(self, capsys):
        assert main(["fleet", "--routing", "random"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "random" in err
        assert err.count("\n") == 1

    def test_unknown_experiment_is_one_line_error(self, capsys):
        assert main(["fleet", "--experiment", "e99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "e99" in err
        assert err.count("\n") == 1

    def test_workers_below_one_is_one_line_error(self, capsys):
        assert main(["fleet", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
