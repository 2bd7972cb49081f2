"""Trace-driven arrival generation: seed purity, modulation, merging."""

import itertools

import numpy as np
import pytest

from repro.fleet import arrivals
from repro.fleet import (
    DEFAULT_TENANTS,
    TenantConfig,
    diurnal_multiplier,
    generate_fleet_traces,
    generate_tenant_trace,
    merge_arrivals,
    offered_rate_per_s,
)
from repro.units import DAY


def _seed(value=0):
    return np.random.SeedSequence(value)


class TestDiurnalMultiplier:
    def test_peak_and_trough(self):
        assert diurnal_multiplier(6.0, 0.5, 6.0) == pytest.approx(1.5)
        assert diurnal_multiplier(6.0 + DAY / 2, 0.5, 6.0) == pytest.approx(
            0.5
        )

    def test_zero_amplitude_is_flat(self):
        for t in (0.0, 1000.0, 40000.0):
            assert diurnal_multiplier(t, 0.0, 0.0) == 1.0

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError, match="period"):
            diurnal_multiplier(0.0, 0.1, 0.0, period_s=0.0)


class TestTenantTrace:
    def test_seed_purity(self):
        tenant = DEFAULT_TENANTS[0]
        a = generate_tenant_trace(tenant, 120.0, _seed(3))
        b = generate_tenant_trace(tenant, 120.0, _seed(3))
        assert a == b

    def test_different_seeds_differ(self):
        tenant = DEFAULT_TENANTS[0]
        a = generate_tenant_trace(tenant, 120.0, _seed(3))
        b = generate_tenant_trace(tenant, 120.0, _seed(4))
        assert a != b

    def test_zero_rate_yields_empty_trace(self):
        idle = TenantConfig(name="idle", rate_per_s=0.0)
        assert generate_tenant_trace(idle, 3600.0, _seed()) == []

    def test_zero_duration_yields_empty_trace(self):
        assert generate_tenant_trace(DEFAULT_TENANTS[0], 0.0, _seed()) == []

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            generate_tenant_trace(DEFAULT_TENANTS[0], -1.0, _seed())

    def test_arrivals_sorted_and_in_horizon(self):
        trace = generate_tenant_trace(DEFAULT_TENANTS[1], 300.0, _seed(9))
        times = [record.arrival_time for record in trace]
        assert times == sorted(times)
        assert all(0.0 <= t < 300.0 for t in times)

    def test_mean_rate_tracks_configured_rate(self):
        # Flat tenant (no diurnal swing, no bursts): the thinned process
        # is plain Poisson at rate_per_s.
        flat = TenantConfig(
            name="flat", rate_per_s=4.0, diurnal_amplitude=0.0,
            burst_multiplier=1.0,
        )
        trace = generate_tenant_trace(flat, 2000.0, _seed(1))
        rate = offered_rate_per_s(trace, 2000.0)
        assert rate == pytest.approx(4.0, rel=0.1)

    def test_sla_mix_respected(self):
        mixed = TenantConfig(
            name="mixed",
            rate_per_s=5.0,
            sla_mix=(("interactive", 0.7), ("best-effort", 0.3)),
        )
        trace = generate_tenant_trace(mixed, 1000.0, _seed(2))
        classes = {record.sla for record in trace}
        assert classes == {"interactive", "best-effort"}
        share = sum(
            1 for r in trace if r.sla == "interactive"
        ) / len(trace)
        assert share == pytest.approx(0.7, abs=0.05)

    def test_sla_draw_on_cdf_boundary(self, monkeypatch):
        # Weights 0.25/0.25/0.5 give the exact CDF [0.25, 0.5, 1.0].  A
        # uniform landing exactly on a boundary picks the class above it,
        # as ``np.searchsorted(cdf, u, side="right")`` does.
        tenant = TenantConfig(
            name="mixed",
            rate_per_s=2.0,
            sla_mix=(
                ("interactive", 0.25),
                ("throughput", 0.25),
                ("best-effort", 0.5),
            ),
        )
        cdf = np.cumsum([weight for _sla, weight in tenant.sla_mix])
        boundaries = [0.0, 0.25, 0.5]
        real_rng = np.random.default_rng

        class ScriptedUniforms:
            """A real generator whose uniform draws alternate between
            0.0 (always accept the thinning test) and a boundary."""

            def __init__(self, seed):
                self._rng = real_rng(seed)
                self._uniforms = itertools.cycle(
                    u for b in boundaries for u in (0.0, b)
                )

            def random(self):
                return next(self._uniforms)

            def __getattr__(self, name):
                return getattr(self._rng, name)

        monkeypatch.setattr(
            arrivals.np.random, "default_rng", ScriptedUniforms
        )
        trace = generate_tenant_trace(tenant, 30.0, _seed(7))
        assert len(trace) >= len(boundaries)
        names = [sla for sla, _weight in tenant.sla_mix]
        for record, u in zip(trace, itertools.cycle(boundaries)):
            index = int(np.searchsorted(cdf, u, side="right"))
            assert record.sla == names[index]
        assert [r.sla for r in trace[:3]] == [
            "interactive", "throughput", "best-effort"
        ]

    def test_burst_raises_offered_load(self):
        quiet = TenantConfig(
            name="q", rate_per_s=2.0, burst_multiplier=1.0
        )
        bursty = TenantConfig(
            name="b", rate_per_s=2.0, burst_multiplier=3.0,
            mean_quiet_s=30.0, mean_burst_s=30.0,
        )
        horizon = 3000.0
        n_quiet = len(generate_tenant_trace(quiet, horizon, _seed(5)))
        n_bursty = len(generate_tenant_trace(bursty, horizon, _seed(5)))
        assert n_bursty > n_quiet


class TestFleetTraces:
    def test_spawn_prefix_stability(self):
        """Appending a tenant never perturbs earlier tenants' traces."""
        two = DEFAULT_TENANTS[:2]
        three = DEFAULT_TENANTS
        a = generate_fleet_traces(two, 120.0, _seed(11))
        b = generate_fleet_traces(three, 120.0, _seed(11))
        for tenant in two:
            assert a[tenant.name] == b[tenant.name]

    def test_merge_is_total_order(self):
        traces = generate_fleet_traces(DEFAULT_TENANTS, 120.0, _seed(0))
        order = [t.name for t in DEFAULT_TENANTS]
        merged = merge_arrivals(traces, order)
        assert len(merged) == sum(len(v) for v in traces.values())
        times = [item[0] for item in merged]
        assert times == sorted(times)

    def test_merge_rejects_unknown_tenant(self):
        with pytest.raises(ValueError, match="unknown tenant"):
            merge_arrivals({"ghost": []}, ["chat"])

    def test_merge_tolerates_missing_tenant(self):
        # A zero-traffic tenant may be absent from the traces dict.
        assert merge_arrivals({}, ["chat"]) == []

    def test_offered_rate_guards_horizon(self):
        with pytest.raises(ValueError, match="duration"):
            offered_rate_per_s([], 0.0)
