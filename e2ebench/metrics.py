"""Every metric the benchmark reports: name, unit, direction, and bound.

``BENCHMARK.json`` at the repository root lists the same metrics; a test
keeps the two in step.
"""

from __future__ import annotations

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
# The timings are CPU time scaled to an uncontended host (see
# harness._measure): the wall-clock latency and throughput of the same
# requests swing with how loaded a shared host is, far past any bound
# allowed, so they are reported without a bound, with the per-layer metrics.
#   setup_s             median over the run's set-ups of the CPU seconds one
#                       takes (spawn to ready, registration, subscriptions,
#                       warm-up), the server processes' and the client's
#   request_cpu_p50_ms  median CPU one open-loop read costs: the ServiceClient
#                       thread's plus every server process's (router and
#                       workers) while it is in flight
#   capacity_rps        closed-loop correct completions per CPU-second of the
#                       server processes: the saturation throughput of a
#                       server on one dedicated core
#   server_rss_mb       VmHWM summed over the server processes, read after
#                       set-up and the open loop's fixed number of requests
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("request_cpu_p50_ms", "ms", "lower", 0.25),
    ("capacity_rps", "1/s", "higher", 0.25),
    ("server_rss_mb", "MiB", "lower", 0.15),
)

# (name, unit, better, what it measures).  Reported by the traced run of
# every workload; 0 where the workload does not exercise the layer.
PER_LAYER = (
    ("latency_p50_ms", "ms", "lower",
     "open-loop read p50, wall clock from the due time"),
    ("latency_p90_ms", "ms", "lower", "open-loop read p90, wall clock"),
    ("throughput_rps", "1/s", "higher",
     "closed-loop correct completions per wall-clock second"),
    ("client.self_ms", "ms", "lower",
     "ServiceClient call minus a raw-socket round trip"),
    ("http.connect_ms", "ms", "lower", "TCP connect to the server"),
    ("http.self_ms", "ms", "lower",
     "raw-socket round trip minus in-process CountingService.handle"),
    ("wire.decode_ms", "ms", "lower", "task_from_wire (or the update decoder)"),
    ("wire.encode_ms", "ms", "lower", "result_to_wire plus JSON"),
    ("service.self_ms", "ms", "lower", "CountingService.handle minus Session.run"),
    ("scheduler.coalesce_rate", "ratio", "higher",
     "coalesced over submitted, /stats delta"),
    ("scheduler.max_queue_depth", "count", "lower", "deepest scheduler queue"),
    ("scheduler.failed", "count", "lower", "failed scheduler jobs, /stats delta"),
    ("api.self_ms", "ms", "lower",
     "Session.run minus the queries or engine call beneath it"),
    ("queries.self_ms", "ms", "lower",
     "interpolated answer count minus its kernel executions"),
    ("queries.power_sums_ms", "ms", "lower", "power_sum_vector"),
    ("queries.solve_ms", "ms", "lower", "count_answers_from_power_sums"),
    ("queries.ell_max", "count", "lower", "largest l of F_l fetched"),
    ("engine.self_ms", "ms", "lower", "HomEngine.count minus CountPlan.execute"),
    ("engine.compile_ms", "ms", "lower", "compile_plan"),
    ("engine.count_hit_ms", "ms", "lower", "HomEngine.count on a cached key"),
    ("engine.count_miss_ms", "ms", "lower",
     "HomEngine.count on a new key, plan cached"),
    ("engine.count_hit_rate", "ratio", "higher", "count cache hits, /stats delta"),
    ("engine.plan_hit_rate", "ratio", "higher", "plan cache hits, /stats delta"),
    ("kernel.execute_ms", "ms", "lower", "CountPlan.execute"),
    ("kernel.numpy_share", "ratio", "higher",
     "numpy share of repro_backend_selected_total, delta"),
    ("dynamic.update_ms", "ms", "lower",
     "Session.update plus reading every subscription"),
    ("dynamic.delta_ratio", "ratio", "higher",
     "delta refreshes over all refreshes, /target-update payloads"),
    ("dynamic.patch_ratio", "ratio", "higher",
     "index patches over patches and recompiles, /target-update payloads"),
    ("store.save_ms", "ms", "lower", "PersistentStore.save_count"),
    ("store.appends", "count", "lower", "persistent count appends, /stats delta"),
    ("router.hop_ms", "ms", "lower",
     "routed raw round trip minus the owning worker's raw round trip"),
    ("router.retries", "count", "lower", "repro_router_retries_total delta"),
    ("router.hedges", "count", "lower", "repro_router_hedges_total delta"),
    ("router.balance", "ratio", "lower",
     "busiest worker's requests over the mean"),
    ("write_p50_ms", "ms", "lower", "/target-update open-loop p50"),
    ("write_p90_ms", "ms", "lower", "/target-update open-loop p90"),
    ("loadgen.lag_p99_ms", "ms", "lower",
     "open-loop send lateness p99; a validity check on the run"),
    ("ladder.residual_share", "ratio", "lower",
     "client time the ladder's self times leave unattributed"),
    ("obs.trace_overhead", "ratio", "lower",
     "closed-loop time per request, tracing on over off"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
