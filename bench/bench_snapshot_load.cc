// bench_snapshot_load — time-to-first-estimate from a saved statistics
// snapshot: a fresh load, which attaches the arena in place, vs a stale
// load of the same file, the remaining eager path.
//
// Two gates:
//
//  1. On the largest snapshot, fresh open + first estimate must be >= 5x
//     faster than stale load + first estimate. A stale load (the context
//     has folded one delta since the snapshot was taken) dry-walks and
//     decodes every index entry into the memo caches, then scrubs the
//     entries the delta touched; a fresh load attaches the section
//     indexes in place, so that per-entry work (decoding, hashing, node
//     allocation, map insertion) never happens. The delta is folded
//     before the clock starts.
//
//  2. Fresh open time must grow sublinearly with snapshot size: across a
//     wide spread of snapshot bytes, the open-time ratio must stay under
//     half the byte ratio. The arena maps, validates section headers, and
//     attaches the big hash indexes in place.
//
// The size sweep scales the label alphabet on a fixed vertex/edge budget:
// the index-backed sections (markov patterns, degree joins, dispersion)
// grow superlinearly with labels while the vertex-bound sections stay
// put, which is exactly the regime where in-place attachment pays.
//
// Usage: bench_snapshot_load [instances_per_template]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "dynamic/delta_io.h"
#include "engine/snapshot.h"
#include "graph/generators.h"
#include "util/table_printer.h"

namespace {

using namespace cegraph;

double Millis(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Loads `path` into a new engine and runs one estimate; returns the
/// best-of-`reps` wall millis for the combined load + first estimate, i.e.
/// time-to-first-estimate. A non-empty `drift` is folded into the engine
/// first (outside the clock), which makes the load stale.
double TimeToFirstEstimate(const graph::Graph& g, const std::string& path,
                           const query::WorkloadQuery& probe,
                           const std::vector<dynamic::EdgeDelta>& drift,
                           int reps, double* open_millis) {
  double best = 1e300;
  double best_open = 1e300;
  for (int r = 0; r < reps; ++r) {
    engine::EstimationEngine engine(g);
    if (!drift.empty()) {
      if (auto applied = engine.ApplyDeltas(drift); !applied.ok()) {
        std::fprintf(stderr, "apply: %s\n",
                     applied.status().ToString().c_str());
        std::abort();
      }
    }
    auto estimator = engine.Estimator("max-hop-max");
    if (!estimator.ok()) {
      std::fprintf(stderr, "estimator: %s\n",
                   estimator.status().ToString().c_str());
      std::abort();
    }
    engine::EstimationContext::SnapshotLoadReport report;
    const auto t0 = std::chrono::steady_clock::now();
    const auto loaded = engine.context().LoadSnapshot(path, &report);
    const double open = Millis(t0);
    if (!loaded.ok() || report.stale == drift.empty()) {
      std::fprintf(stderr, "load %s: %s (stale=%d)\n", path.c_str(),
                   loaded.ToString().c_str(), report.stale ? 1 : 0);
      std::abort();
    }
    (void)(*estimator)->Estimate(probe.query);
    best = std::min(best, Millis(t0));
    best_open = std::min(best_open, open);
  }
  if (open_millis != nullptr) *open_millis = best_open;
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const int instances = bench::InstancesFromArgs(argc, argv, 6);
  constexpr int kReps = 5;

  const auto tmp = std::filesystem::temp_directory_path();
  const std::vector<uint32_t> label_scales = {6, 16, 40};

  util::TablePrinter table({"labels", "bytes", "stale ttfe (ms)",
                            "fresh ttfe (ms)", "speedup", "fresh open (ms)"});
  std::vector<double> open_ms;
  std::vector<uint64_t> snapshot_bytes;
  double last_speedup = 0;
  for (const uint32_t labels : label_scales) {
    graph::GeneratorConfig config;
    config.num_vertices = 5000;
    config.num_edges = 40000;
    config.num_labels = labels;
    config.seed = 17;
    auto g = graph::GenerateGraph(config);
    if (!g.ok()) {
      std::fprintf(stderr, "graph: %s\n", g.status().ToString().c_str());
      return 1;
    }
    query::WorkloadOptions options;
    options.instances_per_template = instances;
    options.seed = 99;
    auto wl = query::GenerateWorkload(*g, bench::SuiteByName("acyclic"),
                                      options);
    if (!wl.ok()) {
      std::fprintf(stderr, "workload: %s\n", wl.status().ToString().c_str());
      return 1;
    }

    engine::EstimationContext builder(*g);
    engine::PrewarmOptions prewarm;
    prewarm.dispersion = true;
    builder.Prewarm(*wl, prewarm);
    const std::string path =
        (tmp / ("bench_snap_" + std::to_string(labels) + ".snap")).string();
    if (auto s = builder.SaveSnapshot(path); !s.ok()) {
      std::fprintf(stderr, "save: %s\n", s.ToString().c_str());
      return 1;
    }

    const uint64_t size = std::filesystem::file_size(path);
    const auto drift = dynamic::RandomEdgeBatch(*g, 1, 43);
    double open = 0;
    const double t_stale =
        TimeToFirstEstimate(*g, path, wl->front(), drift, kReps, nullptr);
    const double t_fresh =
        TimeToFirstEstimate(*g, path, wl->front(), {}, kReps, &open);
    last_speedup = t_fresh > 0 ? t_stale / t_fresh : 0;
    open_ms.push_back(open);
    snapshot_bytes.push_back(size);
    table.AddRow({std::to_string(labels), std::to_string(size),
                  util::TablePrinter::Num(t_stale),
                  util::TablePrinter::Num(t_fresh),
                  util::TablePrinter::Num(last_speedup),
                  util::TablePrinter::Num(open)});
    std::remove(path.c_str());
  }
  table.Print(std::cout);

  const bool speedup_pass = last_speedup >= 5.0;
  std::printf("\n[%s] fresh time-to-first-estimate >= 5x faster than a "
              "stale load at the largest snapshot (%.1fx)\n",
              speedup_pass ? "PASS" : "FAIL", last_speedup);

  const double byte_ratio =
      static_cast<double>(snapshot_bytes.back()) /
      static_cast<double>(std::max<uint64_t>(1, snapshot_bytes.front()));
  const double open_ratio = open_ms.back() / std::max(1e-6, open_ms.front());
  const bool sublinear_pass = open_ratio < 0.5 * byte_ratio;
  std::printf("[%s] fresh open grows sublinearly with snapshot size "
              "(bytes grew %.1fx, open time %.1fx)\n",
              sublinear_pass ? "PASS" : "FAIL", byte_ratio, open_ratio);
  return speedup_pass && sublinear_pass ? 0 : 1;
}
