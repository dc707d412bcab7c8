#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <tuple>
#include <unordered_set>

#include "dynamic/delta_io.h"
#include "engine/estimation_context.h"
#include "engine/snapshot.h"
#include "graph/datasets.h"
#include "query/parser.h"
#include "query/templates.h"
#include "util/random.h"

namespace perfbench {

namespace {

graph::Graph Dataset(const std::string& name) {
  auto g = graph::MakeDataset(name);
  if (!g.ok()) Die("dataset " + name + ": " + g.status().ToString());
  return std::move(g).value();
}

std::vector<query::WorkloadQuery> Generate(const graph::Graph& g,
                                           const std::string& suite,
                                           int instances, uint64_t seed,
                                           double max_cardinality = 1e12) {
  auto templates = query::SuiteTemplatesByName(suite);
  if (!templates.ok()) Die(templates.status().ToString());
  query::WorkloadOptions options;
  options.instances_per_template = instances;
  options.seed = seed;
  options.max_cardinality = max_cardinality;
  auto wl = query::GenerateWorkload(g, *templates, options);
  if (!wl.ok()) Die("workload " + suite + ": " + wl.status().ToString());
  return std::move(wl).value();
}

/// Drops repeated patterns (same text), keeping the first.
void Dedupe(std::vector<query::WorkloadQuery>& queries) {
  std::unordered_set<std::string> seen;
  std::erase_if(queries, [&](const query::WorkloadQuery& wq) {
    return !seen.insert(query::FormatQuery(wq.query)).second;
  });
}

std::vector<size_t> SeededOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  cegraph::util::Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  return order;
}

/// Prewarms a context over `queries` and saves it as an arena snapshot.
void BuildSnapshot(ServeInputs& in, const std::string& path) {
  cegraph::engine::EstimationContext context(*in.graph);
  const auto t0 = Clock::now();
  context.Prewarm(in.queries);
  in.prewarm_ms = SecondsSince(t0) * 1e3;
  auto saved =
      context.SaveSnapshot(path, cegraph::engine::SnapshotFormat::kArena);
  if (!saved.ok()) Die("snapshot: " + saved.ToString());
  in.snapshot_path = path;
}

std::string WorkloadLine(const query::WorkloadQuery& wq) {
  char truth[64];
  std::snprintf(truth, sizeof(truth), "%.17g", wq.true_cardinality);
  return wq.template_name + " " + truth + " " + query::FormatQuery(wq.query);
}

}  // namespace

uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  return cegraph::util::MixHash(seed * 0x9E3779B97F4A7C15ull + purpose);
}

ServeInputs MakeHotInputs(uint64_t seed, const std::string& work_dir) {
  ServeInputs in;
  in.graph = std::make_shared<const graph::Graph>(Dataset(kServeDataset));
  in.queries = Generate(*in.graph, "acyclic", kHotInstancesPerTemplate,
                        SubSeed(seed, 1));
  Dedupe(in.queries);
  for (const auto& wq : in.queries) in.lines.push_back(WorkloadLine(wq));
  in.order = SeededOrder(in.queries.size(), SubSeed(seed, 2));
  BuildSnapshot(in, work_dir + "/serve_hot.arena");
  return in;
}

ServeInputs MakeChurnInputs(uint64_t seed, const std::string& work_dir,
                            size_t num_batches) {
  ServeInputs in;
  in.graph = std::make_shared<const graph::Graph>(Dataset(kServeDataset));
  in.queries = Generate(*in.graph, "acyclic", kChurnAcyclicInstances,
                        SubSeed(seed, 3));
  auto cyclic = Generate(*in.graph, "cyclic", kChurnCyclicInstances,
                         SubSeed(seed, 4));
  in.queries.insert(in.queries.end(), cyclic.begin(), cyclic.end());
  Dedupe(in.queries);
  for (const auto& wq : in.queries) {
    in.lines.push_back(query::FormatQuery(wq.query));
  }
  in.order = SeededOrder(in.queries.size(), SubSeed(seed, 5));
  BuildSnapshot(in, work_dir + "/serve_churn.arena");
  for (size_t k = 0; k < num_batches; ++k) {
    in.batches.push_back(dynamic::RandomEdgeBatch(*in.graph, kDeltaBatchOps,
                                                  SubSeed(seed, 100 + k)));
  }
  return in;
}

graph::Graph ApplyBatches(
    const graph::Graph& base,
    const std::vector<std::vector<dynamic::EdgeDelta>>& batches,
    size_t count) {
  using Key = std::tuple<graph::VertexId, graph::VertexId, graph::Label>;
  std::set<Key> edges;
  for (const graph::Edge& e : base.edges()) edges.insert({e.src, e.dst, e.label});
  for (size_t k = 0; k < count; ++k) {
    for (const dynamic::EdgeDelta& d : batches[k]) {
      const Key key{d.edge.src, d.edge.dst, d.edge.label};
      if (d.op == dynamic::DeltaOp::kInsert) {
        edges.insert(key);
      } else {
        edges.erase(key);
      }
    }
  }
  std::vector<graph::Edge> list;
  list.reserve(edges.size());
  for (const auto& [src, dst, label] : edges) list.push_back({src, dst, label});
  auto g = graph::Graph::Create(base.num_vertices(), base.num_labels(),
                                std::move(list), base.vertex_labels());
  if (!g.ok()) Die("rebuilding graph: " + g.status().ToString());
  return std::move(g).value();
}

PlanInputs MakePlanInputs(uint64_t seed) {
  PlanInputs in;
  in.graph = std::make_shared<const graph::Graph>(Dataset(kPlanDataset));
  in.queries = Generate(*in.graph, "acyclic", kPlanInstancesPerTemplate,
                        SubSeed(seed, 6), kPlanMaxCardinality);
  Dedupe(in.queries);
  in.order = SeededOrder(in.queries.size(), SubSeed(seed, 7));
  return in;
}

}  // namespace perfbench
