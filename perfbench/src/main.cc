// perfbench — one benchmark for cegraph: served estimates, DP planning
// and delta churn, measured end to end (untraced) or layer by layer
// (traced). See README.md.
//
//   perfbench --workload serve_hot|serve_churn|plan_dp --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics. Exit status 0 only when every check passed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

Options ParseArgs(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Die("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Die("bad --seed " + value);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0) || options.seconds > 600) {
        Die("bad --seconds " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") Die("bad --trace " + value);
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      Die("unknown argument " + arg);
    }
  }
  if (!have_workload) Die("--workload is required");
  return options;
}

void AddEndToEnd(const EndToEnd& e, RunResult& out) {
  out.Add("setup_s", e.setup_s, "s");
  out.Add("latency_p50_us", e.latency_p50_us, "us");
  out.Add("peak_rss_mb", e.peak_rss_mb, "MiB");
}

void AddPerLayer(const PerLayer& l, RunResult& out) {
  out.Add("query.parse_us", l.query_parse_us, "us");
  out.Add("query.canonicalize_us", l.query_canonicalize_us, "us");
  out.Add("query.canonicalize_subplan_us", l.query_canonicalize_subplan_us,
          "us");
  out.Add("query.subplans_per_query", l.query_subplans_per_query, "count");
  out.Add("estimators.max-hop-max_us", l.est_max_hop_max_us, "us");
  out.Add("estimators.all-hops-avg_us", l.est_all_hops_avg_us, "us");
  out.Add("estimators.molp_us", l.est_molp_us, "us");
  out.Add("estimators.cbs_us", l.est_cbs_us, "us");
  out.Add("estimators.cs_us", l.est_cs_us, "us");
  out.Add("estimators.plan_estimate_us", l.est_plan_estimate_us, "us");
  out.Add("estimators.qerror_p50", l.est_qerror_p50, "ratio");
  out.Add("engine.ceg_hit_ratio", l.engine_ceg_hit_ratio, "ratio");
  out.Add("engine.ceg_builds", l.engine_ceg_builds, "count");
  out.Add("engine.markov_hit_ratio", l.engine_markov_hit_ratio, "ratio");
  out.Add("engine.markov_misses", l.engine_markov_misses, "count");
  out.Add("engine.snapshot_open_ms", l.engine_snapshot_open_ms, "ms");
  out.Add("engine.prewarm_ms", l.engine_prewarm_ms, "ms");
  out.Add("service.estimate_us", l.service_estimate_us, "us");
  out.Add("service.self_us", l.service_self_us, "us");
  out.Add("service.wire_codec_us", l.service_wire_codec_us, "us");
  out.Add("service.server_us", l.service_server_us, "us");
  out.Add("service.bytes_per_request", l.service_bytes_per_request, "B");
  out.Add("service.post_fold_us", l.service_post_fold_us, "us");
  out.Add("dynamic.fold_ms", l.dynamic_fold_ms, "ms");
  out.Add("dynamic.visible_ms", l.dynamic_visible_ms, "ms");
  out.Add("dynamic.evicted_per_fold", l.dynamic_evicted_per_fold, "count");
  out.Add("dynamic.carried_per_fold", l.dynamic_carried_per_fold, "count");
  out.Add("dynamic.cs_drops", l.dynamic_cs_drops, "count");
  out.Add("planner.dp_self_ms", l.planner_dp_self_ms, "ms");
  out.Add("planner.estimator_share", l.planner_estimator_share, "ratio");
  out.Add("planner.execute_ms", l.planner_execute_ms, "ms");
  out.Add("planner.plan_tuples", l.planner_plan_tuples, "tuples");
  out.Add("trace.overhead_pct", l.trace_overhead_pct, "%");
  out.Add("trace.spans", l.trace_spans, "count");
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) Die("work dir " + options.work_dir + ": " + ec.message());

  Tracer tracer(options.trace);
  Checks checks;
  WorkloadReport report;
  if (options.workload == "serve_hot") {
    report = RunServeHot(options, tracer, checks);
  } else if (options.workload == "serve_churn") {
    report = RunServeChurn(options, tracer, checks);
  } else if (options.workload == "plan_dp") {
    report = RunPlanDp(options, tracer, checks);
  } else {
    Die("unknown workload " + options.workload);
  }

  RunResult result;
  result.attempted = report.attempted;
  // Every failed operation also fails a check, so the larger count covers
  // both without counting one failure twice.
  result.failed = std::max(report.failed, checks.failures());
  if (options.trace) {
    report.layers.trace_spans = static_cast<double>(tracer.size());
    const std::string path = options.work_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".jsonl";
    if (!tracer.WriteJsonLines(path)) Die("cannot write " + path);
    std::fprintf(stderr, "trace: %zu spans in %s\n", tracer.size(),
                 path.c_str());
    AddPerLayer(report.layers, result);
  } else {
    // Throughput and p90 spread too widely between runs on a shared host
    // to carry a bound (README.md); they are printed for reference only.
    std::fprintf(stderr,
                 "latency samples: %llu, ops_per_s %.1f, latency_p90_us %.1f "
                 "(reference, not gated)\n",
                 static_cast<unsigned long long>(report.e2e.latency_samples),
                 report.e2e.ops_per_s, report.e2e.latency_p90_us);
    AddEndToEnd(report.e2e, result);
  }
  std::printf("%s\n", result.ToJson(checks.correct()).c_str());
  return checks.correct() ? 0 : 1;
}
