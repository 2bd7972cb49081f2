"""Trace-driven fleet arrivals: diurnal + bursty modulation, seed-pure.

Production LLM traffic is neither flat nor memoryless: it follows the
day (interactive products peak in waking hours) and it bursts (feature
launches, batch kickoffs, retry storms).  The fleet layer composes both
effects over the Splitwise-shaped request generator:

- a **diurnal profile** — a sinusoid with configurable amplitude and
  peak time modulating the tenant's base rate over a 24 h period;
- a **burst process** — a two-state (quiet/burst) Markov modulation
  multiplying the diurnal rate by ``burst_multiplier`` during bursts.

Arrivals are drawn by *thinning* (Lewis & Shedler): candidates arrive
at the tenant's constant peak-envelope rate and are accepted with
probability ``rate(t) / peak_rate``.  Thinning keeps the process exact
for any bounded rate function while consuming a deterministic draw
sequence, which is what makes traces a pure function of
``(tenant, horizon, seed)``.

Seed discipline: :func:`generate_fleet_traces` spawns one child
``SeedSequence`` per tenant **in tenant declaration order**, so adding
a tenant at the end never perturbs earlier tenants' traces, and
per-tenant streams are independent by construction.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.fleet.tenant import TenantConfig
from repro.units import DAY
from repro.workload.traces import TraceRecord


def diurnal_multiplier(
    t: float, amplitude: float, peak_time_s: float, period_s: float = DAY
) -> float:
    """Rate multiplier at simulated time ``t``: ``1 + a*cos(...)``,
    peaking (``1 + a``) at ``peak_time_s`` and bottoming (``1 - a``)
    half a period later."""
    if period_s <= 0:
        raise ValueError("period must be positive")
    phase = 2.0 * math.pi * (t - peak_time_s) / period_s
    return 1.0 + amplitude * math.cos(phase)


class _BurstState:
    """The quiet/burst telegraph process, advanced lazily.

    Sojourn times are drawn from the tenant's RNG *only when the
    timeline reaches them*, so the draw sequence — and therefore the
    whole trace — is a pure function of the seed.  Starts quiet.
    """

    def __init__(
        self, rng: np.random.Generator, mean_quiet_s: float, mean_burst_s: float
    ) -> None:
        self._rng = rng
        self._mean = (mean_quiet_s, mean_burst_s)
        self.in_burst = False
        self._until = float(rng.exponential(mean_quiet_s))

    def advance_to(self, t: float) -> bool:
        """State at time ``t`` (drawing any sojourns crossed en route)."""
        while self._until < t:
            self.in_burst = not self.in_burst
            mean = self._mean[1] if self.in_burst else self._mean[0]
            self._until += float(self._rng.exponential(mean))
        return self.in_burst


def generate_tenant_trace(
    tenant: TenantConfig,
    duration_s: float,
    seed: np.random.SeedSequence,
    context_limit_tokens: int = 4096,
) -> List[TraceRecord]:
    """One tenant's modulated arrival trace over ``[0, duration_s)``.

    Pure in ``(tenant, duration_s, seed)``.  A ``rate_per_s`` of zero
    yields the empty trace (the zero-traffic tenant).
    """
    if duration_s < 0:
        raise ValueError("duration must be >= 0")
    if tenant.rate_per_s == 0 or duration_s == 0:
        return []
    rng = np.random.default_rng(seed)
    burst = _BurstState(rng, tenant.mean_quiet_s, tenant.mean_burst_s)
    peak = tenant.peak_rate_per_s
    profile = tenant.token_profile
    sla_values = [sla for sla, _weight in tenant.sla_mix]
    sla_cdf = np.cumsum([weight for _sla, weight in tenant.sla_mix]).tolist()

    records: List[TraceRecord] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / peak))
        if t >= duration_s:
            return records
        in_burst = burst.advance_to(t)
        rate = tenant.rate_per_s * diurnal_multiplier(
            t, tenant.diurnal_amplitude, tenant.peak_time_s
        )
        if in_burst:
            rate *= tenant.burst_multiplier
        # Thinning: accept this candidate with probability rate/peak.
        # The uniform draw happens unconditionally so the stream shape
        # never depends on float round-off in the acceptance test.
        u = float(rng.random())
        if u >= rate / peak:
            continue
        prompt, output = profile.sample(rng, context_limit_tokens)
        sla_index = bisect.bisect_right(sla_cdf, float(rng.random()))
        sla_index = min(sla_index, len(sla_values) - 1)
        records.append(
            TraceRecord(
                arrival_time=t,
                prompt_tokens=prompt,
                output_tokens=output,
                sla=sla_values[sla_index],
            )
        )


def generate_fleet_traces(
    tenants: Sequence[TenantConfig],
    duration_s: float,
    root_seed: np.random.SeedSequence,
) -> Dict[str, List[TraceRecord]]:
    """Per-tenant traces from independent spawned seed streams.

    Children are spawned in tenant declaration order; the result maps
    tenant name to its (possibly empty) trace.
    """
    tenants = list(tenants)
    children = root_seed.spawn(len(tenants))
    return {
        tenant.name: generate_tenant_trace(tenant, duration_s, child)
        for tenant, child in zip(tenants, children)
    }


def merge_arrivals(
    traces: Dict[str, List[TraceRecord]],
    tenant_order: Sequence[str],
) -> List[Tuple[float, str, int, TraceRecord]]:
    """All tenants' arrivals in one deterministic timeline.

    Returns ``(arrival_time, tenant, per_tenant_index, record)`` tuples
    sorted by arrival time with ties broken by tenant declaration
    order, then per-tenant index — a total order independent of dict
    insertion history.
    """
    rank = {name: index for index, name in enumerate(tenant_order)}
    unknown = sorted(set(traces) - set(rank))
    if unknown:
        raise ValueError(f"traces for unknown tenant(s): {unknown}")
    merged: List[Tuple[float, str, int, TraceRecord]] = []
    for name in tenant_order:
        for index, record in enumerate(traces.get(name, [])):
            merged.append((record.arrival_time, name, index, record))
    merged.sort(key=lambda item: (item[0], rank[item[1]], item[2]))
    return merged


def offered_rate_per_s(
    trace: Sequence[TraceRecord], duration_s: float
) -> float:
    """Mean offered request rate of a trace over a horizon."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    return len(trace) / duration_s
