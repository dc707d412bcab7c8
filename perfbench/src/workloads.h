// The three workloads and the metrics they report. Every run prints the
// same metric names (BENCHMARK.json): the end-to-end set untraced, the
// per-layer set traced. A layer a workload does not touch reads 0.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "common.h"
#include "trace.h"

namespace perfbench {

/// End-to-end readings of one untraced run.
struct EndToEnd {
  double setup_s = 0;         ///< median of the repeated set-ups
  double ops_per_s = 0;       ///< served requests / planned queries per s
  double latency_p50_us = 0;  ///< client round trip / Optimize call
  double latency_p90_us = 0;
  uint64_t latency_samples = 0;
  double peak_rss_mb = 0;
};

/// Per-layer readings of one traced run (means unless the name says
/// otherwise; README.md tables what each should move).
struct PerLayer {
  double query_parse_us = 0;
  double query_canonicalize_us = 0;
  double query_canonicalize_subplan_us = 0;
  double query_subplans_per_query = 0;
  double est_max_hop_max_us = 0;
  double est_all_hops_avg_us = 0;
  double est_molp_us = 0;
  double est_cbs_us = 0;
  double est_cs_us = 0;
  double est_plan_estimate_us = 0;
  /// Median q-error of max-hop-max against matcher truth (served answers
  /// on serve_*, the planned query's root estimate on plan_dp).
  double est_qerror_p50 = 0;
  double engine_ceg_hit_ratio = 0;
  double engine_ceg_builds = 0;
  double engine_markov_hit_ratio = 0;
  double engine_markov_misses = 0;
  double engine_snapshot_open_ms = 0;
  double engine_prewarm_ms = 0;
  double service_estimate_us = 0;
  double service_self_us = 0;
  double service_wire_codec_us = 0;
  double service_server_us = 0;
  double service_bytes_per_request = 0;
  double service_post_fold_us = 0;
  double dynamic_fold_ms = 0;
  double dynamic_visible_ms = 0;
  double dynamic_evicted_per_fold = 0;
  double dynamic_carried_per_fold = 0;
  double dynamic_cs_drops = 0;
  double planner_dp_self_ms = 0;
  double planner_estimator_share = 0;
  double planner_execute_ms = 0;
  double planner_plan_tuples = 0;
  double trace_overhead_pct = 0;
  double trace_spans = 0;
};

/// What a workload hands back to main: its counts and one of the two
/// metric sets (whichever the run's --trace selects).
struct WorkloadReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  EndToEnd e2e;
  PerLayer layers;
};

WorkloadReport RunServeHot(const Options& options, Tracer& tracer,
                           Checks& checks);
WorkloadReport RunServeChurn(const Options& options, Tracer& tracer,
                             Checks& checks);
WorkloadReport RunPlanDp(const Options& options, Tracer& tracer,
                         Checks& checks);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
