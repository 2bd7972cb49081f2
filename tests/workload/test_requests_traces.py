"""Tests for request generation, arrival processes and trace files."""

import numpy as np
import pytest

from repro.workload.distributions import SPLITWISE_CONVERSATION
from repro.workload.model import LLAMA2_70B
from repro.workload.requests import (
    BurstyArrivals,
    InferenceRequest,
    PoissonArrivals,
    RequestGenerator,
    SLAClass,
)
from repro.workload.traces import (
    TraceRecord,
    generate_trace,
    read_trace,
    replay_trace,
    write_trace,
)


class TestInferenceRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            InferenceRequest(arrival_time=0.0, prompt_tokens=0, output_tokens=1)
        with pytest.raises(ValueError):
            InferenceRequest(arrival_time=-1.0, prompt_tokens=1, output_tokens=1)
        with pytest.raises(ValueError, match="arrival time"):
            InferenceRequest(
                arrival_time=float("nan"), prompt_tokens=1, output_tokens=1
            )

    def test_totals_and_kv(self):
        req = InferenceRequest(0.0, prompt_tokens=100, output_tokens=28)
        assert req.total_tokens == 128
        assert req.kv_cache_bytes_final(LLAMA2_70B) == 128 * LLAMA2_70B.kv_bytes_per_token

    def test_ids_unique(self):
        a = InferenceRequest(0.0, 1, 1)
        b = InferenceRequest(0.0, 1, 1)
        assert a.request_id != b.request_id


class TestArrivals:
    def test_poisson_rate(self):
        rng = np.random.default_rng(0)
        arrivals = PoissonArrivals(rate_per_s=10.0)
        gaps = [arrivals.next_gap(rng) for _ in range(20000)]
        assert np.mean(gaps) == pytest.approx(0.1, rel=0.05)

    def test_bursty_rate_between_base_and_burst(self):
        rng = np.random.default_rng(1)
        arrivals = BurstyArrivals(
            base_rate_per_s=1.0, burst_rate_per_s=50.0,
            mean_quiet_s=10.0, mean_burst_s=10.0,
        )
        gaps = [arrivals.next_gap(rng) for _ in range(20000)]
        rate = 1.0 / np.mean(gaps)
        assert 1.0 < rate < 50.0

    def test_bursty_validation(self):
        with pytest.raises(ValueError):
            BurstyArrivals(base_rate_per_s=10.0, burst_rate_per_s=1.0)

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)


class TestRequestGenerator:
    def make(self, **kwargs) -> RequestGenerator:
        defaults = dict(
            profile=SPLITWISE_CONVERSATION,
            arrivals=PoissonArrivals(2.0),
            model=LLAMA2_70B,
            seed=3,
        )
        defaults.update(kwargs)
        return RequestGenerator(**defaults)

    def test_generates_by_duration(self):
        requests = list(self.make().generate(duration_s=30.0))
        assert requests
        assert all(r.arrival_time <= 30.0 for r in requests)
        times = [r.arrival_time for r in requests]
        assert times == sorted(times)

    def test_generates_by_count(self):
        assert len(list(self.make().generate(count=17))) == 17

    def test_needs_a_bound(self):
        with pytest.raises(ValueError):
            list(self.make().generate())

    def test_seeded_reproducibility(self):
        a = [(r.arrival_time, r.prompt_tokens) for r in self.make().generate(count=20)]
        b = [(r.arrival_time, r.prompt_tokens) for r in self.make().generate(count=20)]
        assert a == b

    def test_context_limit_respected(self):
        for request in self.make().generate(count=200):
            assert request.total_tokens <= LLAMA2_70B.context_limit_tokens

    def test_sla_mix(self):
        generator = self.make(
            sla_mix={SLAClass.INTERACTIVE: 0.5, SLAClass.BEST_EFFORT: 0.5}
        )
        slas = {r.sla for r in generator.generate(count=200)}
        assert slas == {SLAClass.INTERACTIVE, SLAClass.BEST_EFFORT}

    def test_bad_sla_mix_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            self.make(sla_mix={SLAClass.INTERACTIVE: 0.4})


class TestTraces:
    def test_roundtrip(self, tmp_path):
        records = generate_trace(LLAMA2_70B, count=50, duration_s=None, seed=9)
        path = tmp_path / "trace.jsonl"
        assert write_trace(records, path) == 50
        assert read_trace(path) == records

    def test_bad_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"arrival_time": 1.0}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:"):
            read_trace(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = generate_trace(LLAMA2_70B, count=3, duration_s=None)
        write_trace(records, path)
        path.write_text(path.read_text() + "\n\n")
        assert len(read_trace(path)) == 3

    def test_replay_preserves_fields(self):
        records = generate_trace(LLAMA2_70B, count=10, duration_s=None, seed=1)
        requests = list(replay_trace(records))
        assert [r.prompt_tokens for r in requests] == [
            rec.prompt_tokens for rec in records
        ]

    def test_replay_rate_multiplier_compresses_time(self):
        records = generate_trace(LLAMA2_70B, count=10, duration_s=None, seed=1)
        normal = list(replay_trace(records, rate_multiplier=1.0))
        fast = list(replay_trace(records, rate_multiplier=2.0))
        assert fast[-1].arrival_time == pytest.approx(
            normal[-1].arrival_time / 2.0
        )

    def test_replay_validation(self):
        with pytest.raises(ValueError):
            list(replay_trace([], rate_multiplier=0.0))

    def test_generate_trace_sla_roundtrips(self, tmp_path):
        records = generate_trace(
            LLAMA2_70B, count=20, duration_s=None,
            sla_mix={SLAClass.BEST_EFFORT: 1.0},
        )
        requests = list(replay_trace(records))
        assert all(r.sla is SLAClass.BEST_EFFORT for r in requests)
