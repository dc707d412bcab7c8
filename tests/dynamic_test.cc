// Tests for the dynamic graph layer: DeltaGraph overlay reads vs
// compaction, fingerprint/delta-hash identities, incremental SumRDF
// maintenance, and the end-to-end equivalence contract — after a delta
// batch, every registry estimator must produce bit-identical estimates on
// (incrementally maintained context) vs a cold full rebuild over the
// compacted graph; stale snapshots must replay to the same place.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "dynamic/delta_graph.h"
#include "dynamic/delta_io.h"
#include "dynamic/stats_maintainer.h"
#include "engine/engine.h"
#include "engine/snapshot.h"
#include "graph/generators.h"
#include "query/templates.h"
#include "query/workload.h"
#include "stats/summary_graph.h"

namespace cegraph::dynamic {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& stem)
      : path_((std::filesystem::temp_directory_path() /
               ("cegraph_dynamic_test_" + stem + ".snap"))
                  .string()) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

graph::Graph SmallGraph(uint64_t seed = 7) {
  graph::GeneratorConfig config;
  config.num_vertices = 400;
  config.num_edges = 2400;
  config.num_labels = 6;
  config.seed = seed;
  auto g = graph::GenerateGraph(config);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

/// Acyclic and cyclic templates, per the equivalence acceptance criterion.
std::vector<query::WorkloadQuery> SmallWorkload(const graph::Graph& g) {
  query::WorkloadOptions options;
  options.instances_per_template = 3;
  options.seed = 99;
  auto wl = query::GenerateWorkload(g,
                                    {{"path2", query::PathShape(2)},
                                     {"star2", query::StarShape(2)},
                                     {"tri", query::CycleShape(3)},
                                     {"cyc4", query::CycleShape(4)}},
                                    options);
  EXPECT_TRUE(wl.ok());
  return std::move(wl).value();
}

/// A deterministic mixed batch: deletes of existing edges (every stride-th)
/// plus inserts of fresh edges, with a redundant insert and a no-op delete
/// thrown in to exercise the net-delta semantics.
std::vector<EdgeDelta> MixedBatch(const graph::Graph& g, size_t deletes,
                                  size_t inserts, uint64_t seed = 5) {
  std::vector<EdgeDelta> batch;
  const auto& edges = g.edges();
  const size_t stride = std::max<size_t>(1, edges.size() / (deletes + 1));
  for (size_t i = 0; i < deletes && i * stride < edges.size(); ++i) {
    batch.push_back({edges[i * stride], DeltaOp::kDelete});
  }
  std::mt19937_64 rng(seed);
  while (inserts > 0) {
    graph::Edge e{static_cast<graph::VertexId>(rng() % g.num_vertices()),
                  static_cast<graph::VertexId>(rng() % g.num_vertices()),
                  static_cast<graph::Label>(rng() % g.num_labels())};
    if (g.HasEdge(e.src, e.dst, e.label)) continue;
    batch.push_back({e, DeltaOp::kInsert});
    --inserts;
  }
  if (!edges.empty()) {
    batch.push_back({edges[1], DeltaOp::kInsert});  // no-op: already present
  }
  return batch;
}

std::vector<double> AllEstimates(
    const engine::EstimationEngine& engine,
    const std::vector<query::WorkloadQuery>& workload) {
  std::vector<double> out;
  for (const std::string& name :
       engine::EstimatorRegistry::Default().RegisteredNames()) {
    auto estimator = engine.Estimator(name);
    EXPECT_TRUE(estimator.ok()) << name;
    for (const query::WorkloadQuery& wq : workload) {
      auto est = (*estimator)->Estimate(wq.query);
      out.push_back(est.ok() ? *est
                             : std::numeric_limits<double>::quiet_NaN());
    }
  }
  return out;
}

void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i])) {
      EXPECT_TRUE(std::isnan(b[i])) << "index " << i;
    } else {
      EXPECT_EQ(a[i], b[i]) << "index " << i;  // exact, not approximate
    }
  }
}

TEST(GraphFingerprintTest, OrderIndependent) {
  const graph::Graph reference = SmallGraph();
  std::vector<graph::Edge> edges = reference.edges();
  for (uint64_t seed : {1u, 2u, 3u}) {
    std::mt19937_64 rng(seed);
    std::shuffle(edges.begin(), edges.end(), rng);
    auto permuted =
        graph::Graph::Create(reference.num_vertices(), reference.num_labels(),
                             edges, reference.vertex_labels());
    ASSERT_TRUE(permuted.ok());
    EXPECT_EQ(permuted->fingerprint(), reference.fingerprint()) << seed;
  }
  // Duplicated edges deduplicate to the same fingerprint.
  std::vector<graph::Edge> doubled = reference.edges();
  doubled.insert(doubled.end(), edges.begin(), edges.end());
  auto deduped =
      graph::Graph::Create(reference.num_vertices(), reference.num_labels(),
                           doubled, reference.vertex_labels());
  ASSERT_TRUE(deduped.ok());
  EXPECT_EQ(deduped->fingerprint(), reference.fingerprint());
}

TEST(DeltaGraphTest, MergedReadsMatchCompaction) {
  const graph::Graph g = SmallGraph();
  DeltaGraph overlay(g);
  ASSERT_TRUE(overlay.Apply(MixedBatch(g, 60, 80)).ok());

  auto compacted = overlay.Compact();
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ(overlay.num_edges(), compacted->num_edges());

  for (graph::Label l = 0; l < g.num_labels(); ++l) {
    ASSERT_EQ(overlay.RelationSize(l), compacted->RelationSize(l)) << l;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(overlay.OutDegree(v, l), compacted->OutDegree(v, l));
      ASSERT_EQ(overlay.InDegree(v, l), compacted->InDegree(v, l));
      const auto out = overlay.OutNeighbors(v, l);
      const auto expected_out = compacted->OutNeighbors(v, l);
      ASSERT_TRUE(std::equal(out.begin(), out.end(), expected_out.begin(),
                             expected_out.end()))
          << "out v=" << v << " l=" << l;
      const auto in = overlay.InNeighbors(v, l);
      const auto expected_in = compacted->InNeighbors(v, l);
      ASSERT_TRUE(std::equal(in.begin(), in.end(), expected_in.begin(),
                             expected_in.end()))
          << "in v=" << v << " l=" << l;
    }
  }
  // Membership spot checks across the whole merged edge set.
  for (const graph::Edge& e : compacted->edges()) {
    ASSERT_TRUE(overlay.HasEdge(e.src, e.dst, e.label));
  }
}

TEST(DeltaGraphTest, NetSemanticsAndHashReversal) {
  const graph::Graph g = SmallGraph();
  DeltaGraph overlay(g);
  const graph::Edge existing = g.edges()[0];
  graph::Edge fresh{1, 2, 0};
  while (g.HasEdge(fresh.src, fresh.dst, fresh.label)) ++fresh.dst;

  // Inserting an existing edge is a no-op.
  ASSERT_TRUE(overlay.Apply(std::vector<EdgeDelta>{
                                {existing, DeltaOp::kInsert}})
                  .ok());
  EXPECT_EQ(overlay.delta_size(), 0u);
  EXPECT_EQ(overlay.delta_hash(), 0u);
  EXPECT_EQ(overlay.epoch(), 1u);  // the batch was still observed

  // Insert then delete of a fresh edge cancels back to the base.
  ASSERT_TRUE(
      overlay.Apply(std::vector<EdgeDelta>{{fresh, DeltaOp::kInsert}}).ok());
  EXPECT_EQ(overlay.delta_size(), 1u);
  EXPECT_NE(overlay.delta_hash(), 0u);
  ASSERT_TRUE(
      overlay.Apply(std::vector<EdgeDelta>{{fresh, DeltaOp::kDelete}}).ok());
  EXPECT_EQ(overlay.delta_size(), 0u);
  EXPECT_EQ(overlay.delta_hash(), 0u);
  EXPECT_EQ(overlay.num_edges(), g.num_edges());

  // Delete then re-insert of a base edge also cancels.
  ASSERT_TRUE(
      overlay.Apply(std::vector<EdgeDelta>{{existing, DeltaOp::kDelete}})
          .ok());
  EXPECT_EQ(overlay.num_edges(), g.num_edges() - 1);
  EXPECT_FALSE(overlay.HasEdge(existing.src, existing.dst, existing.label));
  ASSERT_TRUE(
      overlay.Apply(std::vector<EdgeDelta>{{existing, DeltaOp::kInsert}})
          .ok());
  EXPECT_EQ(overlay.delta_hash(), 0u);
  EXPECT_EQ(overlay.num_edges(), g.num_edges());
}

TEST(DeltaGraphTest, DeltaHashStableUnderPermutation) {
  const graph::Graph g = SmallGraph();
  std::vector<EdgeDelta> batch = MixedBatch(g, 40, 40);

  DeltaGraph reference(g);
  ASSERT_TRUE(reference.Apply(batch).ok());
  ASSERT_NE(reference.delta_hash(), 0u);

  // Permuted insert orders must agree on the whole fingerprint triple.
  // (Only pure permutations of net-effective ops are order-independent;
  // MixedBatch's trailing no-op is order-independent too since it never
  // takes effect.)
  for (uint64_t seed : {11u, 22u, 33u}) {
    std::mt19937_64 rng(seed);
    std::shuffle(batch.begin(), batch.end(), rng);
    DeltaGraph permuted(g);
    ASSERT_TRUE(permuted.Apply(batch).ok());
    EXPECT_EQ(permuted.fingerprint(), reference.fingerprint()) << seed;
  }

  // Splitting into two batches keeps the delta hash (the net log is the
  // same) and advances the epoch differently.
  DeltaGraph split(g);
  const size_t half = batch.size() / 2;
  ASSERT_TRUE(
      split.Apply(std::span<const EdgeDelta>(batch).subspan(0, half)).ok());
  ASSERT_TRUE(
      split.Apply(std::span<const EdgeDelta>(batch).subspan(half)).ok());
  EXPECT_EQ(split.delta_hash(), reference.delta_hash());
  EXPECT_EQ(split.epoch(), 2u);
  EXPECT_EQ(reference.epoch(), 1u);
}

TEST(DeltaGraphTest, RejectsOutOfRangeOpsAtomically) {
  const graph::Graph g = SmallGraph();
  DeltaGraph overlay(g);
  std::vector<EdgeDelta> batch = MixedBatch(g, 5, 5);
  batch.push_back({{0, 1, g.num_labels()}, DeltaOp::kInsert});
  auto status = overlay.Apply(batch);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  // Nothing applied, epoch untouched.
  EXPECT_EQ(overlay.delta_size(), 0u);
  EXPECT_EQ(overlay.epoch(), 0u);

  batch.back() = {{g.num_vertices(), 0, 0}, DeltaOp::kDelete};
  EXPECT_EQ(overlay.Apply(batch).code(),
            util::StatusCode::kInvalidArgument);
}

TEST(SummaryGraphDynamicTest, IncrementalMatchesColdRebuild) {
  const graph::Graph g = SmallGraph();
  DeltaGraph overlay(g);
  ASSERT_TRUE(overlay.Apply(MixedBatch(g, 80, 100)).ok());
  const NetDelta net = overlay.CollectNetDelta();
  auto compacted = overlay.Compact();
  ASSERT_TRUE(compacted.ok());

  stats::SummaryGraph incremental(g, 32);
  size_t moved = 0;
  incremental.ApplyDeltas(g, *compacted, net.deleted, net.inserted, &moved);
  const stats::SummaryGraph cold(*compacted, 32);

  ASSERT_EQ(incremental.num_buckets(), cold.num_buckets());
  for (uint32_t b = 0; b < cold.num_buckets(); ++b) {
    EXPECT_EQ(incremental.bucket_size(b), cold.bucket_size(b)) << b;
  }
  for (graph::Label l = 0; l < g.num_labels(); ++l) {
    for (uint32_t b = 0; b < cold.num_buckets(); ++b) {
      const auto& out_inc = incremental.OutEdges(b, l);
      const auto& out_cold = cold.OutEdges(b, l);
      ASSERT_EQ(out_inc, out_cold) << "out l=" << l << " b=" << b;
      const auto& in_inc = incremental.InEdges(b, l);
      const auto& in_cold = cold.InEdges(b, l);
      ASSERT_EQ(in_inc, in_cold) << "in l=" << l << " b=" << b;
    }
  }
}

TEST(CanonicalCodeParseTest, ExtractsLabelsExactly) {
  std::vector<bool> changed(10, false);
  changed[3] = true;
  auto q = query::QueryGraph::Create(
      3, {{0, 1, 2}, {1, 2, 5}});
  EXPECT_FALSE(CodeTouchesChangedLabel(q->CanonicalCode(), changed, 10));
  auto touching = query::QueryGraph::Create(3, {{0, 1, 2}, {1, 2, 3}});
  EXPECT_TRUE(
      CodeTouchesChangedLabel(touching->CanonicalCode(), changed, 10));
  // Marked dispersion keys unwrap through the modulus.
  auto marked = query::QueryGraph::Create(3, {{0, 1, 2}, {1, 2, 13}});
  EXPECT_TRUE(CodeTouchesChangedLabel(marked->CanonicalCode(), changed, 10));
  // Malformed codes are conservatively treated as touching.
  EXPECT_TRUE(CodeTouchesChangedLabel("garbage", changed, 10));
}

// The acceptance criterion of the dynamic layer: for a mixed delta batch,
// every registry estimator produces bit-identical estimates on the
// incrementally maintained context vs a cold full rebuild of the compacted
// graph, across acyclic and cyclic templates.
TEST(DynamicContextTest, ApplyDeltasMatchesColdRebuild) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  const auto batch = MixedBatch(g, 30, 40);

  engine::EstimationEngine incremental(g);
  engine::PrewarmOptions prewarm;
  prewarm.num_threads = 2;
  prewarm.dispersion = true;
  incremental.context().Prewarm(workload, prewarm);
  // Warm the CEG cache pre-delta so its targeted invalidation is on the
  // equivalence path too.
  (void)AllEstimates(incremental, workload);

  auto report = incremental.ApplyDeltas(batch);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->inserted_edges, 0u);
  EXPECT_GT(report->deleted_edges, 0u);
  EXPECT_GT(report->markov_exact_updates, 0u);
  EXPECT_TRUE(report->summary_updated);
  EXPECT_TRUE(report->char_sets_dropped);
  EXPECT_EQ(incremental.context().epoch(), 1u);
  EXPECT_NE(incremental.context().dynamic_fingerprint().delta_hash, 0u);

  DeltaGraph overlay(g);
  ASSERT_TRUE(overlay.Apply(batch).ok());
  auto compacted = overlay.Compact();
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ(incremental.context().graph().fingerprint(),
            compacted->fingerprint());

  engine::EstimationEngine cold(*compacted);
  ExpectBitIdentical(AllEstimates(incremental, workload),
                     AllEstimates(cold, workload));
}

// With mid-hop-free closing-rate sampling the rate cache is evicted
// per-key: entries over untouched labels survive the delta and the OCR
// estimators still match a cold rebuild bit-for-bit.
TEST(DynamicContextTest, TargetedClosingRateEviction) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);

  engine::ContextOptions options;
  options.cycle_closing.max_mid_hops = 0;

  engine::EstimationEngine incremental(g, options);
  incremental.context().Prewarm(workload);
  const size_t warm_rates =
      incremental.context().cycle_closing_rates().num_cached();
  ASSERT_GT(warm_rates, 0u);

  // Touch only label 0: delete its first few edges.
  std::vector<EdgeDelta> batch;
  for (const graph::Edge& e : g.RelationEdges(0)) {
    batch.push_back({e, DeltaOp::kDelete});
    if (batch.size() == 5) break;
  }
  ASSERT_EQ(batch.size(), 5u);
  auto report = incremental.ApplyDeltas(batch);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->changed_labels, 1u);
  EXPECT_GT(report->closing_carried, 0u);  // targeted, not wholesale
  EXPECT_EQ(report->closing_carried + report->closing_evicted, warm_rates);

  DeltaGraph overlay(g);
  ASSERT_TRUE(overlay.Apply(batch).ok());
  auto compacted = overlay.Compact();
  ASSERT_TRUE(compacted.ok());
  engine::EstimationEngine cold(*compacted, options);
  ExpectBitIdentical(AllEstimates(incremental, workload),
                     AllEstimates(cold, workload));
}

TEST(DynamicContextTest, StaleSnapshotReplaysToColdEquivalence) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  const auto batch = MixedBatch(g, 25, 30);
  TempFile file("stale");

  // Snapshot at the base epoch.
  {
    engine::EstimationEngine base(g);
    base.context().Prewarm(workload);
    ASSERT_TRUE(base.context().SaveSnapshot(file.path()).ok());
  }

  // A drifted context loads it: stale but usable.
  engine::EstimationEngine drifted(g);
  ASSERT_TRUE(drifted.ApplyDeltas(batch).ok());
  engine::EstimationContext::SnapshotLoadReport report;
  auto loaded = drifted.context().LoadSnapshot(file.path(), &report);
  ASSERT_TRUE(loaded.ok()) << loaded;
  EXPECT_TRUE(report.stale);
  EXPECT_EQ(report.snapshot_epoch, 0u);
  EXPECT_GT(report.replayed_deltas, 0u);
  EXPECT_GT(report.evicted_entries, 0u);

  DeltaGraph overlay(g);
  ASSERT_TRUE(overlay.Apply(batch).ok());
  auto compacted = overlay.Compact();
  ASSERT_TRUE(compacted.ok());
  engine::EstimationEngine cold(*compacted);
  ExpectBitIdentical(AllEstimates(drifted, workload),
                     AllEstimates(cold, workload));
}

TEST(DynamicContextTest, SnapshotMismatchesAreRejectedLoudly) {
  const graph::Graph g = SmallGraph(7);
  const auto workload = SmallWorkload(g);
  const auto batch = MixedBatch(g, 10, 10);
  TempFile file("mismatch");

  // A post-delta snapshot...
  engine::EstimationEngine drifted(g);
  drifted.context().Prewarm(workload);
  ASSERT_TRUE(drifted.ApplyDeltas(batch).ok());
  ASSERT_TRUE(drifted.context().SaveSnapshot(file.path()).ok());

  // ...is rejected by a pristine context over the base graph (it has no
  // way to verify or replay the snapshot's delta log)...
  engine::EstimationEngine pristine(g);
  auto loaded = pristine.context().LoadSnapshot(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), util::StatusCode::kFailedPrecondition);

  // ...and by a context over a different graph entirely.
  const graph::Graph other = SmallGraph(8);
  engine::EstimationEngine unrelated(other);
  loaded = unrelated.context().LoadSnapshot(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), util::StatusCode::kFailedPrecondition);

  // A context that applied a *different* batch is also a mismatch.
  engine::EstimationEngine diverged(g);
  ASSERT_TRUE(diverged.ApplyDeltas(MixedBatch(g, 3, 3, 1234)).ok());
  loaded = diverged.context().LoadSnapshot(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), util::StatusCode::kFailedPrecondition);

  // The drifted context itself reloads its own snapshot as fresh.
  engine::EstimationContext::SnapshotLoadReport report;
  ASSERT_TRUE(drifted.context().LoadSnapshot(file.path(), &report).ok());
  EXPECT_FALSE(report.stale);
}

// A post-delta snapshot is self-contained: a consumer holding only the
// base graph replays the embedded delta log to reconstruct the described
// graph state, after which the load is fresh and estimates match the
// producer bit for bit.
TEST(DynamicContextTest, EmbeddedDeltaLogReconstructsSnapshotState) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  const auto batch = MixedBatch(g, 20, 25);
  TempFile file("reconstruct");

  engine::EstimationEngine producer(g);
  producer.context().Prewarm(workload);
  ASSERT_TRUE(producer.ApplyDeltas(batch).ok());
  ASSERT_TRUE(producer.context().SaveSnapshot(file.path()).ok());

  auto log = engine::ReadSnapshotDeltaLog(file.path());
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_FALSE(log->empty());

  engine::EstimationEngine consumer(g);
  // Without the replay the snapshot does not apply...
  EXPECT_EQ(consumer.context().LoadSnapshot(file.path()).code(),
            util::StatusCode::kFailedPrecondition);
  // ...after it, the load is fresh (content match, not log-prefix match).
  ASSERT_TRUE(consumer.ApplyDeltas(*log).ok());
  engine::EstimationContext::SnapshotLoadReport report;
  ASSERT_TRUE(consumer.context().LoadSnapshot(file.path(), &report).ok());
  EXPECT_FALSE(report.stale);

  ExpectBitIdentical(AllEstimates(consumer, workload),
                     AllEstimates(producer, workload));
}

TEST(DeltaIoTest, RoundTripsAndRejectsGarbage) {
  const graph::Graph g = SmallGraph();
  const auto batch = MixedBatch(g, 8, 8);
  std::ostringstream os;
  ASSERT_TRUE(WriteDeltaText(batch, os).ok());
  std::istringstream is(os.str());
  auto loaded = ReadDeltaText(is);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ((*loaded)[i], batch[i]) << i;
  }

  std::istringstream bad("+ 1 2\n");
  EXPECT_EQ(ReadDeltaText(bad).status().code(),
            util::StatusCode::kInvalidArgument);
  std::istringstream bad_op("* 1 2 3\n");
  EXPECT_EQ(ReadDeltaText(bad_op).status().code(),
            util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cegraph::dynamic
