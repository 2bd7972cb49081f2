"""Serving sweeps with a DES and an analytic evaluation mode.

:func:`serve_point` is the pure point function (picklable, top level)
that :func:`repro.parallel.run_sweep` fans out: one serving scenario in,
one JSON-able result dict out.  Each point's ``mode`` field selects
the evaluator through :func:`evaluate_cluster` (shared with ``serve``
and fleet cells) —

- ``"des"`` builds a :class:`~repro.inference.cluster.Cluster` on the
  discrete-event kernel and runs the trace to completion (exact);
- ``"analytic"`` evaluates the *same trace* through
  :func:`repro.inference.analytic.analytic_cluster_report`
  (closed-form, ~100-1000x faster);
- ``"auto"`` tries analytic first and falls back to the DES when the
  scenario is outside the analytic envelope
  (:class:`~repro.inference.analytic.UnsupportedScenario`), recording
  the fallback in the result row.  Explicit ``"analytic"`` stays
  strict so validity-envelope violations still fail loudly.

Both modes derive the trace from the point's sweep seed, so a DES sweep
and an analytic sweep at the same ``root_seed`` see identical request
streams — that is what makes :func:`cross_validate` an apples-to-apples
comparison, and it is how the cross-validation tests, the CI smoke grid
and ``python -m repro sweep`` are all driven.

The cross-validation contract: on :func:`cross_validation_grid` (pinned
low-to-moderate-load points inside the analytic validity envelope —
see ``docs/PERFORMANCE.md``), every metric in :data:`CROSS_VAL_METRICS`
agrees within :data:`CROSS_VAL_TOLERANCE` relative error.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.parallel import run_sweep

#: Evaluation modes a sweep point may select.  ``"auto"`` tries the
#: analytic evaluator first and falls back to the DES on
#: :class:`~repro.inference.analytic.UnsupportedScenario`; explicit
#: ``"analytic"`` stays strict (the error propagates).
SERVE_MODES = ("des", "analytic", "auto")

#: Metrics compared by :func:`cross_validate`, with the shared relative
#: tolerance.  Count metrics (requests, tokens) and KV byte traffic are
#: exact by construction; the timing-derived metrics are where the fluid
#: approximations earn (or lose) their keep.
CROSS_VAL_METRICS = (
    "requests_completed",
    "tokens_generated",
    "duration_s",
    "throughput_tokens_per_s",
    "ttft_p50_s",
    "tbt_p50_s",
    "tbt_p99_s",
    "access_energy_j",
    "board_energy_j",
    "memory_bound_fraction",
)
CROSS_VAL_TOLERANCE = 0.05

#: Defaults mirroring ``python -m repro serve``.
DEFAULT_POINT = {
    "mode": "des",
    "rate": 1.0,
    "duration": 30.0,
    "engines": 2,
    "tp": 4,
    "batch": 16,
    "model": "llama2-70b",
    "accelerator": "h100-80g",
}


def resolve_model(name: str):
    """Catalog lookup for a sweep/fleet model key (raises on unknown)."""
    from repro.workload.model import LLAMA2_13B, LLAMA2_70B, PHI_3_MINI

    models = {
        "llama2-70b": LLAMA2_70B,
        "llama2-13b": LLAMA2_13B,
        "phi-3-mini": PHI_3_MINI,
    }
    try:
        return models[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; known: {', '.join(sorted(models))}"
        ) from None


def resolve_accelerator(name: str, tp: int):
    """Catalog lookup for a sweep/fleet accelerator key, as a TP-``tp`` group."""
    from repro.inference.accelerator import A100_80G, B200, H100_80G
    from repro.inference.cluster import tensor_parallel_group

    accelerators = {
        "a100-80g": A100_80G,
        "h100-80g": H100_80G,
        "b200": B200,
    }
    try:
        accelerator = accelerators[name]
    except KeyError:
        raise ValueError(
            f"unknown accelerator {name!r}; known: "
            f"{', '.join(sorted(accelerators))}"
        ) from None
    return tensor_parallel_group(accelerator, int(tp))


def evaluate_cluster(
    accelerator,
    model,
    requests: Sequence[Any],
    mode: str,
    num_engines: int,
    max_batch_size: int,
    placement: Optional[Mapping[str, str]] = None,
    obs=None,
    tracer=None,
) -> Tuple[Any, str, Optional[str]]:
    """Evaluate one serving scenario under the ``mode`` policy.

    The dispatch behind ``serve``, :func:`serve_point` and fleet cells.
    Returns ``(report, evaluated, declined)``: the evaluator that ran
    (``"analytic"`` or ``"des"``) and, when ``auto`` fell back to the
    DES, the analytic refusal message (else ``None``).  ``requests``
    must be a sequence: ``auto`` may read it twice.  ``obs`` and
    ``tracer`` only reach the DES.
    """
    # Looked up at call time, so instrumented evaluators are the ones run.
    from repro.inference import analytic
    from repro.inference.cluster import Cluster
    from repro.sim import Simulator

    if mode not in SERVE_MODES:
        raise ValueError(
            f"unknown serve mode {mode!r}; known: {', '.join(SERVE_MODES)}"
        )
    declined = None
    if mode != "des":
        try:
            report = analytic.analytic_cluster_report(
                accelerator,
                model,
                requests,
                num_engines=num_engines,
                placement=placement,
                max_batch_size=max_batch_size,
            )
            return report, "analytic", None
        except analytic.UnsupportedScenario as exc:
            if mode == "analytic":
                raise  # explicit analytic stays strict
            declined = str(exc)
    cluster = Cluster(
        Simulator(obs=obs, tracer=tracer),
        accelerator,
        model,
        num_engines=num_engines,
        placement=placement,
        max_batch_size=max_batch_size,
        obs=obs,
    )
    return cluster.run(requests), "des", declined


def report_to_dict(report) -> Dict[str, Any]:
    """Flatten a :class:`ClusterReport` into a JSON-able dict (the
    cacheable/picklable sweep value; SLA keys become strings)."""
    return {
        "engines": report.engines,
        "duration_s": report.duration_s,
        "requests_completed": report.requests_completed,
        "tokens_generated": report.tokens_generated,
        "throughput_tokens_per_s": report.throughput_tokens_per_s,
        "ttft_p50_s": report.ttft_p50_s,
        "ttft_p99_s": report.ttft_p99_s,
        "tbt_p50_s": report.tbt_p50_s,
        "tbt_p99_s": report.tbt_p99_s,
        "memory_bound_fraction": report.memory_bound_fraction,
        "tier_bytes_read": dict(sorted(report.tier_bytes_read.items())),
        "tier_bytes_written": dict(sorted(report.tier_bytes_written.items())),
        "access_energy_j": report.access_energy_j,
        "board_energy_j": report.board_energy_j,
        "sla_attainment": {
            sla.value: value
            for sla, value in sorted(
                (report.sla_attainment or {}).items(), key=lambda kv: kv[0].value
            )
        },
        "requests_failed": report.requests_failed,
        "availability": report.availability,
        "tokens_per_joule": report.tokens_per_joule,
    }


def serve_point(point: Mapping[str, Any], seed: np.random.SeedSequence) -> dict:
    """Evaluate one serving scenario; pure in ``(point, seed)``.

    The trace seed derives from the sweep seed, so the same
    ``(grid index, root_seed)`` sees the same request stream in both
    modes.
    """
    from repro.workload.requests import PoissonArrivals
    from repro.workload.traces import generate_trace, replay_trace

    merged = dict(DEFAULT_POINT, **point)
    model = resolve_model(merged["model"])
    trace_seed = int(seed.generate_state(1, dtype=np.uint32)[0])
    trace = generate_trace(
        model,
        arrivals=PoissonArrivals(float(merged["rate"])),
        duration_s=float(merged["duration"]),
        seed=trace_seed,
    )
    report, evaluated, declined = evaluate_cluster(
        resolve_accelerator(merged["accelerator"], merged["tp"]),
        model,
        list(replay_trace(trace)),
        merged["mode"],
        num_engines=int(merged["engines"]),
        max_batch_size=int(merged["batch"]),
    )
    result = report_to_dict(report)
    # ``mode`` reports the evaluator that actually ran; auto points also
    # carry the request and whether the analytic evaluator declined.
    result["mode"] = evaluated
    if merged["mode"] == "auto":
        result["requested_mode"] = "auto"
        result["analytic_fallback"] = declined is not None
    return result


def run_serve_sweep(
    points: Sequence[Mapping[str, Any]],
    root_seed: int = 0,
    workers: Optional[int] = None,
    mode: Optional[str] = None,
    cache=None,
) -> List[dict]:
    """Sweep :func:`serve_point` over ``points`` (grid order).

    ``mode`` overrides every point's mode field — the one-liner for
    "re-run this grid analytically".
    """
    if mode is not None:
        if mode not in SERVE_MODES:
            raise ValueError(
                f"unknown serve mode {mode!r}; known: {', '.join(SERVE_MODES)}"
            )
        points = [dict(p, mode=mode) for p in points]
    return run_sweep(
        serve_point, points, root_seed=root_seed, workers=workers, cache=cache
    )


def cross_validation_grid(tiny: bool = False) -> List[dict]:
    """The pinned DES-vs-analytic grid.

    Points sit inside the analytic validity envelope (per-engine offered
    load under ~0.5, batches well below the cap) across two models, two
    accelerators and 1-2 engines.  The tiny variant is the CI smoke
    grid: one small point per model.
    """
    if tiny:
        return [
            {"rate": 0.4, "duration": 20.0, "engines": 1, "tp": 4,
             "batch": 16, "model": "llama2-13b", "accelerator": "a100-80g"},
            {"rate": 0.5, "duration": 15.0, "engines": 2, "tp": 4,
             "batch": 16, "model": "llama2-70b", "accelerator": "h100-80g"},
        ]
    return [
        {"rate": 0.4, "duration": 60.0, "engines": 1, "tp": 4,
         "batch": 16, "model": "llama2-70b", "accelerator": "h100-80g"},
        {"rate": 1.0, "duration": 60.0, "engines": 2, "tp": 4,
         "batch": 16, "model": "llama2-70b", "accelerator": "h100-80g"},
        {"rate": 2.0, "duration": 60.0, "engines": 4, "tp": 4,
         "batch": 16, "model": "llama2-70b", "accelerator": "h100-80g"},
        {"rate": 0.5, "duration": 60.0, "engines": 1, "tp": 8,
         "batch": 16, "model": "llama2-70b", "accelerator": "a100-80g"},
        {"rate": 1.0, "duration": 60.0, "engines": 1, "tp": 2,
         "batch": 16, "model": "llama2-13b", "accelerator": "a100-80g"},
        {"rate": 2.0, "duration": 60.0, "engines": 2, "tp": 2,
         "batch": 16, "model": "llama2-13b", "accelerator": "h100-80g"},
    ]


def _relative_error(reference: float, candidate: float) -> float:
    if reference == candidate:
        return 0.0  # covers exact zeros
    denominator = max(abs(reference), 1e-300)
    return abs(candidate - reference) / denominator


def cross_validate(
    points: Optional[Sequence[Mapping[str, Any]]] = None,
    root_seed: int = 0,
    workers: Optional[int] = None,
    metrics: Sequence[str] = CROSS_VAL_METRICS,
) -> List[dict]:
    """Run each point through both modes and compare.

    Returns one row per point: the point, per-metric
    ``{des, analytic, rel_err}`` triples, and ``max_rel_err``.
    """
    points = list(points if points is not None else cross_validation_grid())
    des = run_serve_sweep(points, root_seed=root_seed, workers=workers,
                          mode="des")
    analytic = run_serve_sweep(points, root_seed=root_seed, workers=workers,
                               mode="analytic")
    rows: List[dict] = []
    for point, d, a in zip(points, des, analytic):
        comparison = {
            name: {
                "des": d[name],
                "analytic": a[name],
                "rel_err": _relative_error(d[name], a[name]),
            }
            for name in metrics
        }
        rows.append(
            {
                "point": dict(point),
                "metrics": comparison,
                "max_rel_err": max(
                    entry["rel_err"] for entry in comparison.values()
                ),
            }
        )
    return rows
