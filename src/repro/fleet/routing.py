"""Fleet-level request routing: tenant arrivals onto clusters.

The fleet has two dispatch layers.  *Inside* a cluster the existing
join-shortest-queue dispatcher (:class:`repro.inference.cluster.Cluster`)
places requests on engines.  *Above* the clusters, this module decides
which cluster serves each arriving request — the decision a real
front-end makes before a request ever reaches an inference scheduler.

Three policy families:

- ``least-loaded`` — route to the candidate cluster with the lowest
  estimated outstanding work per replica (ties by cluster id);
- ``tenant-affinity`` — each tenant prefers a *home* rotation of
  clusters (cache/locality affinity); it spills to the least-loaded
  candidate only when the home's estimated load crosses
  ``spill_outstanding_per_replica``;
- ``power-of-two`` — classic two-random-choices: sample two candidate
  clusters from the router's seeded stream, route to the less loaded.

The router never inspects simulator state (routing happens *before*
cell evaluation, so cells stay independent and fan out across sweep
workers).  Instead it runs a deterministic **work estimator**: each
``(tenant, cluster)`` replica group carries an outstanding-request
count that drains at ``replicas × target_rps_per_replica`` — the same
per-replica rate target the autoscaler provisions against.  The
estimate is deliberately simple; it is the router's *belief*, and like
any front-end load signal it can be wrong in detail while still
shaping sensible placements.

Shedding: a request is shed when its tenant has **zero replicas**
fleet-wide in the epoch (``no-capacity``), or when the chosen group's
estimated backlog exceeds ``shed_outstanding_per_replica`` requests per
replica (``overload``; ``0`` disables the bound, mirroring the
``max_queue_depth=0`` idiom in :class:`~repro.inference.resilience.
ResiliencePolicy`).  Every arrival therefore ends in exactly one of
{routed, shed} — the first leg of the fleet conservation identity the
property tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.autoscaler import TenantAllocation
from repro.fleet.tenant import TenantConfig
from repro.workload.traces import TraceRecord

#: The routing policy families the fleet knows.
ROUTING_POLICIES = ("least-loaded", "tenant-affinity", "power-of-two")

#: Shed reasons a decision may carry.
SHED_NO_CAPACITY = "no-capacity"
SHED_OVERLOAD = "overload"


@dataclass(frozen=True)
class RoutingDecision:
    """Where one arrival went (or why it did not)."""

    tenant: str
    index: int  # per-tenant arrival index
    epoch: int
    arrival_time: float
    cluster: Optional[int]  # None when shed
    shed_reason: Optional[str] = None

    @property
    def shed(self) -> bool:
        return self.cluster is None


class FleetRouter:
    """Deterministic fleet-level router over an epoch capacity plan.

    Parameters
    ----------
    tenants:
        Fleet tenants in declaration order (the order fixes affinity
        rotations and tie-breaks).
    num_clusters:
        Cluster count; clusters are addressed ``0..num_clusters-1``.
    policy:
        One of :data:`ROUTING_POLICIES`.
    seed:
        Seed stream for the power-of-two choices (unused by the other
        policies, but always consumed from the same child so policy
        comparisons share tenant traces).
    spill_outstanding_per_replica:
        Tenant-affinity spill threshold (estimated outstanding requests
        per replica at the home cluster).
    shed_outstanding_per_replica:
        Shed threshold on the *chosen* group's estimated backlog;
        ``0`` disables shedding by overload.
    """

    def __init__(
        self,
        tenants: Sequence[TenantConfig],
        num_clusters: int,
        policy: str = "least-loaded",
        seed: Optional[np.random.SeedSequence] = None,
        spill_outstanding_per_replica: float = 4.0,
        shed_outstanding_per_replica: float = 0.0,
    ) -> None:
        if policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {policy!r}; known: "
                f"{', '.join(ROUTING_POLICIES)}"
            )
        if num_clusters < 1:
            raise ValueError("need at least one cluster")
        if spill_outstanding_per_replica <= 0:
            raise ValueError("spill threshold must be positive")
        if shed_outstanding_per_replica < 0:
            raise ValueError("shed threshold must be >= 0")
        self.policy = policy
        self.num_clusters = num_clusters
        self.tenants = {tenant.name: tenant for tenant in tenants}
        self._rank = {
            tenant.name: index for index, tenant in enumerate(tenants)
        }
        self.spill_outstanding_per_replica = spill_outstanding_per_replica
        self.shed_outstanding_per_replica = shed_outstanding_per_replica
        self._rng = np.random.default_rng(
            seed if seed is not None else np.random.SeedSequence(0)
        )
        # Work estimator state per (tenant, cluster): outstanding
        # request estimate and the time it was last drained to.
        self._outstanding: Dict[Tuple[str, int], float] = {}
        self._drained_at: Dict[Tuple[str, int], float] = {}

    # ------------------------------------------------------------------
    # Work estimator
    # ------------------------------------------------------------------
    def _drain(self, tenant: TenantConfig, cluster: int, now: float,
               replicas: int) -> float:
        """Outstanding estimate for a group, drained to ``now``."""
        key = (tenant.name, cluster)
        outstanding = self._outstanding.get(key, 0.0)
        last = self._drained_at.get(key, 0.0)
        if now > last:
            rate = replicas * tenant.target_rps_per_replica
            outstanding = max(0.0, outstanding - rate * (now - last))
        self._outstanding[key] = outstanding
        self._drained_at[key] = max(last, now)
        return outstanding

    # ------------------------------------------------------------------
    # Policy choice
    # ------------------------------------------------------------------
    def _choose(
        self,
        tenant: TenantConfig,
        candidates: List[int],
        loads: Dict[int, float],
    ) -> int:
        """Pick a cluster among ``candidates`` (all with replicas)."""
        if self.policy == "least-loaded":
            return min(candidates, key=lambda c: (loads[c], c))
        if self.policy == "tenant-affinity":
            rotation = self._rank[tenant.name] % len(candidates)
            home = candidates[rotation]
            if loads[home] < self.spill_outstanding_per_replica:
                return home
            return min(candidates, key=lambda c: (loads[c], c))
        # power-of-two: two seeded draws over the candidate list.  Both
        # draws always happen so the stream stays aligned across
        # requests regardless of candidate-set size.
        first = int(self._rng.integers(len(candidates)))
        second = int(self._rng.integers(len(candidates)))
        a, b = candidates[first], candidates[second]
        return min((a, b), key=lambda c: (loads[c], c))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(
        self,
        merged_arrivals: Sequence[Tuple[float, str, int, TraceRecord]],
        epoch_plan: Sequence[Dict[str, TenantAllocation]],
        epoch_s: float,
    ) -> List[RoutingDecision]:
        """Route a merged arrival timeline against an epoch plan.

        ``merged_arrivals`` comes from
        :func:`repro.fleet.arrivals.merge_arrivals`;
        ``epoch_plan[e][tenant]`` is the epoch's
        :class:`~repro.fleet.autoscaler.TenantAllocation`.
        """
        if epoch_s <= 0:
            raise ValueError("epoch length must be positive")
        decisions: List[RoutingDecision] = []
        # (epoch, tenant) -> (replicas per cluster, sorted candidates);
        # the plan is fixed for the call, so each group is built once.
        groups: Dict[Tuple[int, str], Tuple[Dict[int, int], List[int]]] = {}
        for arrival_time, name, index, _record in merged_arrivals:
            tenant = self.tenants[name]
            epoch = min(int(arrival_time // epoch_s), len(epoch_plan) - 1)
            group = groups.get((epoch, name))
            if group is None:
                allocation = epoch_plan[epoch].get(name)
                per_cluster = (
                    dict(allocation.per_cluster)
                    if allocation is not None else {}
                )
                candidates = sorted(
                    cluster
                    for cluster, replicas in per_cluster.items()
                    if replicas > 0
                )
                group = groups[(epoch, name)] = (per_cluster, candidates)
            per_cluster, candidates = group
            if not candidates:
                decisions.append(
                    RoutingDecision(
                        tenant=name, index=index, epoch=epoch,
                        arrival_time=arrival_time, cluster=None,
                        shed_reason=SHED_NO_CAPACITY,
                    )
                )
                continue
            loads = {
                cluster: self._drain(
                    tenant, cluster, arrival_time, per_cluster[cluster]
                )
                / per_cluster[cluster]
                for cluster in candidates
            }
            chosen = self._choose(tenant, candidates, loads)
            threshold = self.shed_outstanding_per_replica
            if threshold > 0 and loads[chosen] >= threshold:
                decisions.append(
                    RoutingDecision(
                        tenant=name, index=index, epoch=epoch,
                        arrival_time=arrival_time, cluster=None,
                        shed_reason=SHED_OVERLOAD,
                    )
                )
                continue
            self._outstanding[(name, chosen)] += 1.0
            decisions.append(
                RoutingDecision(
                    tenant=name, index=index, epoch=epoch,
                    arrival_time=arrival_time, cluster=chosen,
                )
            )
        return decisions
