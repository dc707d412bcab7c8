// Seeded input generation. Everything the program is handed — graphs,
// request lines, the prewarmed arena snapshot, delta batches and the plan
// workload — is built here from --seed, before any timing starts. Ground
// truth is counted by the matcher (inside query::GenerateWorkload) and by
// the benchmark's own replay of the delta batches; none of it is timed.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "dynamic/delta_graph.h"
#include "graph/graph.h"
#include "query/workload.h"

namespace perfbench {

namespace dynamic = cegraph::dynamic;
namespace graph = cegraph::graph;
namespace query = cegraph::query;

/// Make-up of the inputs (also tabled in README.md).
inline constexpr const char* kServeDataset = "epinions_like";
inline constexpr int kHotInstancesPerTemplate = 8;     ///< acyclic suite
inline constexpr int kChurnAcyclicInstances = 12;      ///< acyclic suite
inline constexpr int kChurnCyclicInstances = 12;       ///< cyclic suite
inline constexpr size_t kDeltaBatchOps = 16;           ///< ops per batch
/// The writer folds one batch each time the readers have completed this
/// many more requests: a schedule in requests, not seconds, so the share
/// of requests that meet freshly evicted caches does not depend on how
/// fast the machine is.
inline constexpr uint64_t kRequestsPerBatch = 150;
inline constexpr size_t kBatchesPerSecond = 20;  ///< pre-generated supply
inline constexpr const char* kPlanDataset = "imdb_like";
inline constexpr int kPlanInstancesPerTemplate = 3;    ///< acyclic suite
inline constexpr double kPlanMaxCardinality = 2e6;     ///< Fig. 15 cap

/// Derives an independent sub-seed for one purpose from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t purpose);

struct ServeInputs {
  std::shared_ptr<const graph::Graph> graph;
  /// The distinct queries served, with truth counted on the base graph.
  std::vector<query::WorkloadQuery> queries;
  /// One request line per query: workload lines (truth attached) for the
  /// hot set, bare patterns for the churn pool.
  std::vector<std::string> lines;
  /// Seeded permutation of query indices; connections cycle through it.
  std::vector<size_t> order;
  /// Arena snapshot prewarmed on `queries` (built by the benchmark).
  std::string snapshot_path;
  double prewarm_ms = 0;
  /// serve_churn: the writer's batches, in schedule order, each drawn
  /// with dynamic::RandomEdgeBatch from the base graph (a delete of an
  /// edge an earlier batch removed is a no-op).
  std::vector<std::vector<dynamic::EdgeDelta>> batches;
};

/// serve_hot: a small acyclic set with truth, an arena snapshot over it.
ServeInputs MakeHotInputs(uint64_t seed, const std::string& work_dir);

/// serve_churn: a pool of several hundred distinct acyclic + cyclic bare
/// patterns, the snapshot, and `num_batches` delta batches.
ServeInputs MakeChurnInputs(uint64_t seed, const std::string& work_dir,
                            size_t num_batches);

/// The graph the benchmark gets by applying `batches` (in order, with set
/// semantics: an insert adds a missing edge, a delete removes a present
/// one) to `base`, rebuilt from scratch with graph::Graph::Create.
graph::Graph ApplyBatches(
    const graph::Graph& base,
    const std::vector<std::vector<dynamic::EdgeDelta>>& batches,
    size_t count);

struct PlanInputs {
  std::shared_ptr<const graph::Graph> graph;
  std::vector<query::WorkloadQuery> queries;  ///< truth attached
  std::vector<size_t> order;  ///< seeded permutation the loop cycles
};

/// plan_dp: the Fig. 15 acyclic workload on imdb_like.
PlanInputs MakePlanInputs(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
