#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "graph/generators.h"
#include "matching/matcher.h"
#include "query/subquery.h"
#include "query/templates.h"
#include "stats/char_sets.h"
#include "stats/cycle_closing.h"
#include "stats/degree_stats.h"
#include "stats/markov_table.h"
#include "stats/summary_graph.h"

namespace cegraph::stats {
namespace {

using graph::Graph;
using query::QueryGraph;

Graph TinyGraph() {
  // Label 0 (A): 0->1, 0->2, 3->1 ; Label 1 (B): 1->4, 2->4, 1->5.
  auto g = graph::Graph::Create(
      6, 2, {{0, 1, 0}, {0, 2, 0}, {3, 1, 0}, {1, 4, 1}, {2, 4, 1},
             {1, 5, 1}});
  return std::move(g).value();
}

QueryGraph Q(uint32_t n, std::vector<query::QueryEdge> edges) {
  auto q = QueryGraph::Create(n, std::move(edges));
  return std::move(q).value();
}

TEST(MarkovTableTest, SingleEdgeCardinality) {
  Graph g = TinyGraph();
  MarkovTable markov(g, 2);
  auto c = markov.Cardinality(Q(2, {{0, 1, 0}}));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, 3.0);
}

TEST(MarkovTableTest, TwoPathCardinality) {
  Graph g = TinyGraph();
  MarkovTable markov(g, 2);
  auto c = markov.Cardinality(Q(3, {{0, 1, 0}, {1, 2, 1}}));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, 5.0);
}

TEST(MarkovTableTest, RejectsOversizePattern) {
  Graph g = TinyGraph();
  MarkovTable markov(g, 2);
  EXPECT_FALSE(markov.Contains(query::PathShape(3)));
  EXPECT_FALSE(markov.Cardinality(query::PathShape(3)).ok());
}

TEST(MarkovTableTest, CachesByIsomorphism) {
  Graph g = TinyGraph();
  MarkovTable markov(g, 2);
  ASSERT_TRUE(markov.Cardinality(Q(3, {{0, 1, 0}, {1, 2, 1}})).ok());
  const size_t entries = markov.num_entries();
  // Isomorphic relabeled pattern must hit the cache.
  ASSERT_TRUE(markov.Cardinality(Q(3, {{2, 0, 0}, {0, 1, 1}})).ok());
  EXPECT_EQ(markov.num_entries(), entries);
}

TEST(MarkovTableTest, SizeAccountingGrowsWithEntries) {
  Graph g = TinyGraph();
  MarkovTable markov(g, 2);
  EXPECT_EQ(markov.ApproximateSizeBytes(), 0u);
  ASSERT_TRUE(markov.Cardinality(Q(2, {{0, 1, 0}})).ok());
  const size_t one = markov.ApproximateSizeBytes();
  EXPECT_GT(one, 0u);
  ASSERT_TRUE(markov.Cardinality(Q(3, {{0, 1, 0}, {1, 2, 1}})).ok());
  EXPECT_GT(markov.ApproximateSizeBytes(), one);
}

TEST(MarkovTableTest, H3ContainsTriangles) {
  Graph g = TinyGraph();
  MarkovTable markov(g, 3);
  auto c = markov.Cardinality(Q(3, {{0, 1, 0}, {1, 2, 0}, {2, 0, 0}}));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, 0.0);  // no directed triangle in TinyGraph
}

TEST(DegreeMapTest, ComputesProjectionsAndDegrees) {
  // Relation {(0,1),(0,2),(1,2)} over attrs {a0,a1}.
  std::vector<std::array<graph::VertexId, 3>> tuples = {
      {0, 1, 0}, {0, 2, 0}, {1, 2, 0}};
  DegreeMap dm = ComputeDegreeMap(2, tuples);
  EXPECT_EQ(dm.Get(0, 3), 3.0);   // |R|
  EXPECT_EQ(dm.Get(0, 1), 2.0);   // distinct a0
  EXPECT_EQ(dm.Get(0, 2), 2.0);   // distinct a1
  EXPECT_EQ(dm.Get(1, 3), 2.0);   // max fanout of a0
  EXPECT_EQ(dm.Get(2, 3), 2.0);   // max fanin of a1
  EXPECT_EQ(dm.Get(1, 1), 1.0);
  EXPECT_EQ(dm.Get(3, 3), 1.0);
}

TEST(DegreeMapTest, ThreeAttributes) {
  // Tuples (a,b,c): (0,0,0), (0,0,1), (0,1,0).
  std::vector<std::array<graph::VertexId, 3>> tuples = {
      {0, 0, 0}, {0, 0, 1}, {0, 1, 0}};
  DegreeMap dm = ComputeDegreeMap(3, tuples);
  EXPECT_EQ(dm.Get(0, 7), 3.0);
  EXPECT_EQ(dm.Get(1, 7), 3.0);   // a=0 extends to 3 (b,c) pairs
  EXPECT_EQ(dm.Get(3, 7), 2.0);   // (a,b)=(0,0) extends to 2 c's
  EXPECT_EQ(dm.Get(0, 6), 3.0);   // distinct (b,c)
  EXPECT_EQ(dm.Get(2, 6), 2.0);   // b=0 pairs with 2 c's
}

TEST(DegreeMapTest, DeduplicatesTuples) {
  std::vector<std::array<graph::VertexId, 3>> tuples = {
      {0, 1, 0}, {0, 1, 0}, {0, 1, 0}};
  DegreeMap dm = ComputeDegreeMap(2, tuples);
  EXPECT_EQ(dm.Get(0, 3), 1.0);
}

TEST(StatsCatalogTest, BaseRelationMatchesGraph) {
  Graph g = TinyGraph();
  StatsCatalog catalog(g);
  const DegreeMap& dm = catalog.BaseRelation(0);
  EXPECT_EQ(dm.Get(0, 3), 3.0);  // |A|
  EXPECT_EQ(dm.Get(1, 3), 2.0);  // max out-degree (vertex 0)
  EXPECT_EQ(dm.Get(2, 3), 2.0);  // max in-degree (vertex 1)
  EXPECT_EQ(dm.Get(0, 1), 2.0);  // distinct sources {0,3}
  EXPECT_EQ(dm.Get(0, 2), 2.0);  // distinct dests {1,2}
}

TEST(StatsCatalogTest, TwoJoinStatsMatchEnumeration) {
  Graph g = TinyGraph();
  StatsCatalog catalog(g);
  QueryGraph pattern = Q(3, {{0, 1, 0}, {1, 2, 1}});
  const auto* js = catalog.TwoJoin(pattern);
  ASSERT_NE(js, nullptr);
  EXPECT_EQ(js->cardinality, 5.0);
  // Shared across isomorphic requests.
  const auto* js2 = catalog.TwoJoin(Q(3, {{1, 2, 0}, {2, 0, 1}}));
  EXPECT_EQ(js, js2);
}

TEST(DegreeStatsTest, BaseRelationsMappedToQueryVertices) {
  Graph g = TinyGraph();
  StatsCatalog catalog(g);
  QueryGraph q = Q(3, {{0, 1, 0}, {1, 2, 1}});
  auto stats = DegreeStats::Build(catalog, q, /*include_two_joins=*/false);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->relations().size(), 2u);
  const StatRelation& r0 = stats->relations()[0];
  EXPECT_EQ(r0.attrs, 0b011u);
  EXPECT_EQ(r0.Get(0, 0b011), 3.0);
  EXPECT_EQ(r0.Get(0b001, 0b011), 2.0);  // deg(src)
}

TEST(DegreeStatsTest, TwoJoinRelationsAdded) {
  Graph g = TinyGraph();
  StatsCatalog catalog(g);
  QueryGraph q = Q(3, {{0, 1, 0}, {1, 2, 1}});
  auto stats = DegreeStats::Build(catalog, q, /*include_two_joins=*/true);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->relations().size(), 3u);
  const StatRelation& join = stats->relations()[2];
  EXPECT_EQ(join.attrs, 0b111u);
  EXPECT_EQ(join.Get(0, 0b111), 5.0);  // |A ⋈ B| = 5
}

TEST(DegreeStatsTest, SelfLoopRelation) {
  auto g = graph::Graph::Create(3, 1, {{0, 0, 0}, {1, 1, 0}, {0, 1, 0}});
  ASSERT_TRUE(g.ok());
  StatsCatalog catalog(*g);
  QueryGraph q = Q(1, {{0, 0, 0}});
  auto stats = DegreeStats::Build(catalog, q, false);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->relations()[0].Get(0, 0b1), 2.0);  // two self-loops
}

TEST(CycleClosingTest, DeterministicAndCached) {
  Graph g = TinyGraph();
  CycleClosingRates rates(g);
  ClosingKey key{.first_label = 0, .last_label = 1, .close_label = 0};
  const double r1 = rates.Rate(key);
  const double r2 = rates.Rate(key);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(rates.num_cached(), 1u);
  EXPECT_GT(r1, 0.0);
  EXPECT_LE(r1, 1.0);
}

TEST(CycleClosingTest, DenseCycleGraphHasHighRate) {
  // Complete-ish digraph with one label: almost every 2-path closes.
  std::vector<graph::Edge> edges;
  for (uint32_t i = 0; i < 12; ++i) {
    for (uint32_t j = 0; j < 12; ++j) {
      if (i != j) edges.push_back({i, j, 0});
    }
  }
  auto g = graph::Graph::Create(12, 1, std::move(edges));
  ASSERT_TRUE(g.ok());
  CycleClosingRates rates(*g);
  ClosingKey key{.first_label = 0,
                 .last_label = 0,
                 .close_label = 0,
                 .first_forward = true,
                 .last_forward = true,
                 .close_from_end = true};
  EXPECT_GT(rates.Rate(key), 0.8);
}

TEST(CycleClosingTest, NoClosingEdgesLowRate) {
  // Bipartite-ish: closing label never present.
  Graph g = TinyGraph();
  CycleClosingOptions options;
  options.walks_per_key = 500;
  CycleClosingRates rates(g, options);
  ClosingKey key{.first_label = 0, .last_label = 1, .close_label = 1,
                 .first_forward = true, .last_forward = true,
                 .close_from_end = true};
  EXPECT_LT(rates.Rate(key), 0.05);
  EXPECT_GT(rates.Rate(key), 0.0);  // smoothing keeps it positive
}

TEST(CharSetsTest, GroupsVerticesBySignature) {
  Graph g = TinyGraph();
  CharacteristicSets cs(g);
  // Vertex 0: {A}; vertex 3: {A}; vertex 1: {B}; vertex 2: {B}.
  EXPECT_EQ(cs.num_groups(), 2u);
}

TEST(CharSetsTest, StarEstimateExactForSingleLabel) {
  Graph g = TinyGraph();
  CharacteristicSets cs(g);
  // Single-edge star with label A: exact count 3.
  EXPECT_DOUBLE_EQ(cs.EstimateStar({0}), 3.0);
  EXPECT_DOUBLE_EQ(cs.EstimateStar({1}), 3.0);
}

TEST(CharSetsTest, TwoEdgeStarUniformityAssumption) {
  Graph g = TinyGraph();
  CharacteristicSets cs(g);
  // B,B 2-star: group {B} has 2 vertices, avg multiplicity 1.5 -> 2*1.5^2.
  EXPECT_DOUBLE_EQ(cs.EstimateStar({1, 1}), 4.5);
}

TEST(CharSetsTest, MissingLabelGivesZero) {
  Graph g = TinyGraph();
  CharacteristicSets cs(g);
  EXPECT_DOUBLE_EQ(cs.EstimateStar({0, 1}), 0.0);  // no vertex has both
}

// The owned Characteristic-Sets build and star loop the flat layout
// replaced: vertices grouped in a std::map<std::set<Label>, Group>, and the
// CS formula over std::set / std::map lookups. Kept here as the reference
// the one flat EstimateStar loop is held bit-identical to.
struct ReferenceGroup {
  std::set<graph::Label> char_set;
  uint64_t vertex_count = 0;
  std::map<graph::Label, uint64_t> label_edges;
};

std::vector<ReferenceGroup> ReferenceGroups(const Graph& g) {
  std::map<std::set<graph::Label>, ReferenceGroup> by_set;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    std::set<graph::Label> cs;
    for (graph::Label l = 0; l < g.num_labels(); ++l) {
      if (g.OutDegree(v, l) > 0) cs.insert(l);
    }
    if (cs.empty()) continue;
    ReferenceGroup& group = by_set[cs];
    group.char_set = cs;
    ++group.vertex_count;
    for (graph::Label l : cs) group.label_edges[l] += g.OutDegree(v, l);
  }
  std::vector<ReferenceGroup> groups;
  for (auto& [cs, group] : by_set) groups.push_back(std::move(group));
  return groups;
}

double ReferenceEstimateStar(const std::vector<ReferenceGroup>& groups,
                             const std::vector<graph::Label>& labels) {
  std::map<graph::Label, int> need;
  for (graph::Label l : labels) ++need[l];
  double total = 0;
  for (const ReferenceGroup& group : groups) {
    bool covers = true;
    for (const auto& [l, cnt] : need) {
      if (!group.char_set.contains(l)) {
        covers = false;
        break;
      }
    }
    if (!covers) continue;
    double contribution = static_cast<double>(group.vertex_count);
    for (const auto& [l, cnt] : need) {
      const double avg = static_cast<double>(group.label_edges.at(l)) /
                         static_cast<double>(group.vertex_count);
      contribution *= std::pow(avg, cnt);
    }
    total += contribution;
  }
  return total;
}

TEST(CharSetsTest, FlatEstimateStarMatchesOwnedReferenceBitForBit) {
  for (const uint64_t seed : {3u, 11u}) {
    graph::GeneratorConfig config;
    config.num_vertices = 600;
    config.num_edges = 4000;
    config.num_labels = 7;
    config.seed = seed;
    auto g = graph::GenerateGraph(config);
    ASSERT_TRUE(g.ok()) << g.status();
    const std::vector<ReferenceGroup> reference = ReferenceGroups(*g);
    const CharacteristicSets built(*g);
    // The same bytes attached the way a snapshot load does (deferred
    // per-group scan included).
    auto attached = CharacteristicSets::Attach(built.bytes(), nullptr);
    ASSERT_TRUE(attached.ok()) << attached.status();
    ASSERT_TRUE(attached->ValidateNow().ok());
    EXPECT_EQ(built.num_groups(), reference.size());
    EXPECT_GT(reference.size(), 10u);  // enough groups to mean something

    // Every label multiset of size 1..3 over the graph's labels.
    const graph::Label n = g->num_labels();
    size_t checked = 0;
    for (graph::Label a = 0; a < n; ++a) {
      for (graph::Label b = a; b <= n; ++b) {
        for (graph::Label c = b; c <= n; ++c) {
          std::vector<graph::Label> labels = {a};
          if (b < n) labels.push_back(b);
          if (b < n && c < n) labels.push_back(c);
          if (b == n && c != n) continue;  // size-1 multisets once
          const double expected = ReferenceEstimateStar(reference, labels);
          EXPECT_EQ(built.EstimateStar(labels), expected) << "seed " << seed;
          EXPECT_EQ(attached->EstimateStar(labels), expected)
              << "seed " << seed;
          ++checked;
        }
      }
    }
    EXPECT_EQ(checked, size_t{7 + 28 + 84});  // C(7,1) + C(8,2) + C(9,3)
  }
}

TEST(SummaryGraphTest, PreservesTotalEdgeWeight) {
  Graph g = TinyGraph();
  SummaryGraph summary(g, 3);
  double total = 0;
  for (uint32_t b1 = 0; b1 < summary.num_buckets(); ++b1) {
    for (graph::Label l = 0; l < summary.num_labels(); ++l) {
      for (const auto& [b2, w] : summary.OutEdges(b1, l)) total += w;
    }
  }
  EXPECT_DOUBLE_EQ(total, 6.0);
}

TEST(SummaryGraphTest, BucketSizesSumToVertices) {
  Graph g = TinyGraph();
  SummaryGraph summary(g, 4);
  uint64_t total = 0;
  for (uint32_t b = 0; b < summary.num_buckets(); ++b) {
    total += summary.bucket_size(b);
  }
  EXPECT_EQ(total, 6u);
}

TEST(SummaryGraphTest, InEdgesMirrorOutEdges) {
  Graph g = TinyGraph();
  SummaryGraph summary(g, 3);
  for (uint32_t b1 = 0; b1 < summary.num_buckets(); ++b1) {
    for (graph::Label l = 0; l < summary.num_labels(); ++l) {
      for (const auto& [b2, w] : summary.OutEdges(b1, l)) {
        EXPECT_EQ(summary.EdgeWeight(b1, l, b2), w);
        bool found = false;
        for (const auto& [bb1, ww] : summary.InEdges(b2, l)) {
          if (bb1 == b1) {
            found = true;
            EXPECT_EQ(ww, w);
          }
        }
        EXPECT_TRUE(found);
      }
    }
  }
}

}  // namespace
}  // namespace cegraph::stats
