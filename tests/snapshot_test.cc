// Tests for the persistent summary-snapshot layer: Prewarm → SaveSnapshot →
// LoadSnapshot round-trips reproduce bit-identical estimates (and cache
// counters) for every registry estimator, fingerprint-mismatched,
// corrupted and retired-format files are rejected cleanly, and the
// markov(h) validation satellite holds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/snapshot.h"
#include "graph/generators.h"
#include "query/templates.h"
#include "query/workload.h"
#include "util/arena.h"
#include "util/serde.h"
#include "util/shard.h"

namespace cegraph::engine {
namespace {

/// A unique temp path per test, removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& stem)
      : path_((std::filesystem::temp_directory_path() /
               ("cegraph_test_" + stem + ".snap"))
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

/// Every estimate of every registered estimator over `workload`, as raw
/// doubles (NaN marks a failed estimate so comparisons stay positional).
std::vector<double> AllEstimates(
    const EstimationEngine& engine,
    const std::vector<query::WorkloadQuery>& workload) {
  std::vector<double> out;
  for (const std::string& name :
       EstimatorRegistry::Default().RegisteredNames()) {
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

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Hits and misses each keyed cache of `context` gained between `before`
/// (a CollectCacheStats result) and now; caches created in between count
/// from zero.
std::map<std::string, std::pair<uint64_t, uint64_t>> CounterDeltas(
    const std::vector<EstimationContext::CacheStats>& before,
    const EstimationContext& context) {
  std::map<std::string, std::pair<uint64_t, uint64_t>> deltas;
  for (const auto& cache : context.CollectCacheStats()) {
    deltas[cache.name] = {cache.counters.hits, cache.counters.misses};
  }
  for (const auto& cache : before) {
    deltas[cache.name].first -= cache.counters.hits;
    deltas[cache.name].second -= cache.counters.misses;
  }
  return deltas;
}

TEST(SnapshotTest, RoundTripReproducesBitIdenticalEstimates) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  TempFile file("roundtrip");

  // Build: prewarm (dispersion included so every section is exercised)
  // and save.
  EstimationEngine cold(g);
  PrewarmOptions prewarm;
  prewarm.num_threads = 2;
  prewarm.dispersion = true;
  const PrewarmReport report = cold.context().Prewarm(workload, prewarm);
  EXPECT_GT(report.markov_patterns, 0u);
  EXPECT_GT(report.base_relations, 0u);
  EXPECT_GT(report.closing_keys, 0u);  // workload has 4-cycles, h = 2
  ASSERT_TRUE(cold.context().SaveSnapshot(file.path()).ok());
  const auto cold_before = cold.context().CollectCacheStats();
  const std::vector<double> cold_estimates = AllEstimates(cold, workload);
  const auto cold_deltas = CounterDeltas(cold_before, cold.context());

  // Load into a fresh context and compare every estimator's estimates.
  EstimationEngine warm(g);
  EstimationContext::SnapshotLoadReport load;
  auto loaded = warm.context().LoadSnapshot(file.path(), &load);
  ASSERT_TRUE(loaded.ok()) << loaded;
  EXPECT_TRUE(load.mapped);
  const auto warm_before = warm.context().CollectCacheStats();
  ExpectBitIdentical(AllEstimates(warm, workload), cold_estimates);

  // The same estimate calls move every keyed cache's counters by exactly
  // as much on both contexts: a lookup the attached index answers is a
  // hit, like the memo hit it stands in for on the building context.
  const auto warm_deltas = CounterDeltas(warm_before, warm.context());
  EXPECT_EQ(warm_deltas, cold_deltas);
  EXPECT_GT(warm_deltas.at("markov(h=2)").first, 0u);
}

TEST(SnapshotTest, PrewarmCoversEveryOptimisticLookup) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  EstimationEngine engine(g);
  engine.context().Prewarm(workload);
  const size_t markov_entries = engine.context().markov().num_entries();
  const size_t closing_entries =
      engine.context().cycle_closing_rates().num_cached();
  ASSERT_GT(markov_entries, 0u);

  // Running the optimistic suites must not add a single cache entry:
  // prewarm enumerated everything they can touch.
  for (const char* name : {"max-hop-max", "all-hops-avg", "min-hop-min",
                           "max-hop-max@ocr", "molp", "molp+2j"}) {
    auto estimator = engine.Estimator(name);
    ASSERT_TRUE(estimator.ok()) << name;
    for (const query::WorkloadQuery& wq : workload) {
      (void)(*estimator)->Estimate(wq.query);
    }
  }
  EXPECT_EQ(engine.context().markov().num_entries(), markov_entries);
  EXPECT_EQ(engine.context().cycle_closing_rates().num_cached(),
            closing_entries);
}

TEST(SnapshotTest, InspectReportsSections) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  TempFile file("inspect");
  EstimationEngine engine(g);
  engine.context().Prewarm(workload);
  ASSERT_TRUE(engine.context().SaveSnapshot(file.path()).ok());

  auto info = ReadSnapshotInfo(file.path());
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, kSnapshotVersionArena);
  EXPECT_EQ(info->fingerprint, g.fingerprint());
  EXPECT_EQ(info->epoch, 0u);
  // meta, markov, rates, degree bases + joins, cs, sumrdf
  EXPECT_GE(info->sections.size(), 7u);
  bool saw_markov = false;
  for (const auto& section : info->sections) {
    if (section.name == "markov") {
      saw_markov = true;
      EXPECT_EQ(section.markov_h, 2u);
      EXPECT_GT(section.entries, 0u);
    }
    EXPECT_GT(section.payload_bytes, 0u);
  }
  EXPECT_TRUE(saw_markov);
}

TEST(SnapshotTest, FingerprintMismatchRejected) {
  const graph::Graph g1 = SmallGraph(7);
  const graph::Graph g2 = SmallGraph(8);  // different seed → different edges
  const auto workload = SmallWorkload(g1);
  TempFile file("fingerprint");
  EstimationEngine engine(g1);
  engine.context().Prewarm(workload);
  ASSERT_TRUE(engine.context().SaveSnapshot(file.path()).ok());

  EstimationEngine other(g2);
  auto loaded = other.context().LoadSnapshot(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), util::StatusCode::kFailedPrecondition);
  // Nothing may have been applied before the rejection.
  EXPECT_EQ(other.context().markov().num_entries(), 0u);
}

TEST(SnapshotTest, OptionsMismatchRejected) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  TempFile file("options");
  ContextOptions small_cap;
  small_cap.stats_materialize_cap = 1000;
  EstimationEngine engine(g, small_cap);
  engine.context().Prewarm(workload);
  ASSERT_TRUE(engine.context().SaveSnapshot(file.path()).ok());

  // Loading into a context with the default cap must be refused: the
  // snapshot's over-cap verdicts would silently degrade molp+2j.
  EstimationEngine other(g);
  auto loaded = other.context().LoadSnapshot(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), util::StatusCode::kFailedPrecondition);

  // A context with the matching cap loads fine; a different default
  // markov_h alone does not reject (markov sections carry their own h).
  ContextOptions same_cap_other_h = small_cap;
  same_cap_other_h.markov_h = 3;
  EstimationEngine compatible(g, same_cap_other_h);
  EXPECT_TRUE(compatible.context().LoadSnapshot(file.path()).ok());
}

TEST(SnapshotTest, CorruptedFilesRejected) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  TempFile file("corrupt");
  EstimationEngine engine(g);
  engine.context().Prewarm(workload);
  ASSERT_TRUE(engine.context().SaveSnapshot(file.path()).ok());
  const std::string bytes = ReadAll(file.path());
  auto info = ReadSnapshotInfo(file.path());
  ASSERT_TRUE(info.ok()) << info.status();

  // Truncation at several depths: container header, section table,
  // mid-payload, and the last payload (a cut of 8 bytes always reaches
  // past its at most 7 bytes of alignment padding). A failed load must
  // also leave the context untouched (nothing attached or imported).
  for (size_t keep : {size_t{4}, size_t{20}, bytes.size() / 2,
                      bytes.size() - 8}) {
    WriteAll(file.path(), bytes.substr(0, keep));
    EstimationEngine fresh(g);
    auto loaded = fresh.context().LoadSnapshot(file.path());
    EXPECT_FALSE(loaded.ok()) << "kept " << keep << " of " << bytes.size();
    EXPECT_EQ(fresh.context().markov().num_entries(), 0u);
    EXPECT_EQ(fresh.context().cycle_closing_rates().num_cached(), 0u);
  }

  // Bad magic.
  {
    std::string bad = bytes;
    bad[0] = 'X';
    WriteAll(file.path(), bad);
    EstimationEngine fresh(g);
    auto loaded = fresh.context().LoadSnapshot(file.path());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), util::StatusCode::kInvalidArgument);
  }

  // Unsupported container version (the u32 after magic + endian word).
  {
    std::string bad = bytes;
    bad[12] = 99;
    WriteAll(file.path(), bad);
    EstimationEngine fresh(g);
    EXPECT_FALSE(fresh.context().LoadSnapshot(file.path()).ok());
  }

  // Unsupported snapshot version inside the arena-meta section.
  {
    std::string bad = bytes;
    for (const SnapshotSectionInfo& section : info->sections) {
      if (section.id == static_cast<uint32_t>(SnapshotSection::kArenaMeta)) {
        bad[section.offset] = 99;
      }
    }
    WriteAll(file.path(), bad);
    EstimationEngine fresh(g);
    auto loaded = fresh.context().LoadSnapshot(file.path());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(SnapshotTest, UnknownSectionsAreSkipped) {
  const graph::Graph g = SmallGraph();
  const auto workload = SmallWorkload(g);
  TempFile file("forward_compat");
  EstimationEngine engine(g);
  engine.context().Prewarm(workload);
  ASSERT_TRUE(engine.context().SaveSnapshot(file.path()).ok());
  const std::vector<double> expected = AllEstimates(engine, workload);

  // Re-emit the arena with an extra section whose id comes from the future.
  auto arena = util::MappedArena::FromBytes(ReadAll(file.path()));
  ASSERT_TRUE(arena.ok()) << arena.status();
  util::ArenaBuilder builder;
  for (const util::MappedArena::Section& section : (*arena)->sections()) {
    builder.AddSection(section.id,
                       std::string((*arena)->SectionBytes(section)));
  }
  builder.AddSection(999, "hello");
  WriteAll(file.path(), builder.Finish());

  EstimationEngine fresh(g);
  EstimationContext::SnapshotLoadReport report;
  auto loaded = fresh.context().LoadSnapshot(file.path(), &report);
  ASSERT_TRUE(loaded.ok()) << loaded;
  EXPECT_TRUE(report.mapped);
  ExpectBitIdentical(AllEstimates(fresh, workload), expected);
}

TEST(SnapshotTest, RetiredFormatsRejectedWithRebuildHint) {
  const graph::Graph g = SmallGraph();
  TempFile retired("retired");
  TempFile v2_manifest("retired_v2_manifest");
  TempFile v3_manifest("retired_v3_manifest");
  // A version-1 header: the "CEGSNAP1" magic, the version, then a body
  // this build no longer parses.
  util::serde::Writer old;
  old.WriteRaw("CEGSNAP1");
  old.WriteU32(1);
  old.WriteRaw(std::string(64, '\0'));
  WriteAll(retired.path(), old.buffer());

  // Manifests naming the file: one recording the retired version 2, one
  // claiming version 3 with a matching size and hash.
  auto write_manifest = [&](const std::string& path, uint32_t version) {
    util::serde::Writer w;
    w.WriteRaw(std::string_view(kShardManifestMagic, 8));
    w.WriteU32(kShardManifestVersion);
    for (int i = 0; i < 3; ++i) w.WriteU32(0);  // fingerprint u32 triple
    w.WriteU64(0);                              // num_edges
    w.WriteU64(0);                              // edge_hash
    for (int i = 0; i < 2; ++i) w.WriteU32(0);  // options u32 pair
    w.WriteU64(0);                              // materialize cap
    for (int i = 0; i < 3; ++i) w.WriteU32(0);  // cc sampling
    w.WriteU64(0);                              // cc seed
    w.WriteU32(version);
    w.WriteU32(1);  // num_shards
    const std::string name =
        std::filesystem::path(retired.path()).filename().string();
    for (const bool common : {true, false}) {
      if (!common) {
        w.WriteU32(1);  // entry count
        w.WriteU32(0);  // shard id
      }
      w.WriteString(name);
      w.WriteU64(old.size());
      w.WriteU64(util::StableHash64(old.buffer()));
    }
    WriteAll(path, w.buffer());
  };
  write_manifest(v2_manifest.path(), 2);
  write_manifest(v3_manifest.path(), kSnapshotVersionArena);

  auto expect_rebuild_hint = [](const util::Status& status,
                                const std::string& what) {
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument) << what;
    EXPECT_NE(status.message().find("rebuild with `cegraph_stats build`"),
              std::string::npos)
        << what << ": " << status;
  };
  for (const std::string& path :
       {retired.path(), v2_manifest.path(), v3_manifest.path()}) {
    EstimationContext context(g);
    expect_rebuild_hint(context.LoadSnapshot(path), "load " + path);
    expect_rebuild_hint(ReadSnapshotDeltaLog(path).status(),
                        "delta log " + path);
  }
  expect_rebuild_hint(ReadSnapshotInfo(retired.path()).status(), "info");
  expect_rebuild_hint(ReadShardManifest(v2_manifest.path()).status(),
                      "manifest");
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  const graph::Graph g = SmallGraph();
  EstimationEngine engine(g);
  auto loaded = engine.context().LoadSnapshot("/nonexistent/stats.snap");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), util::StatusCode::kNotFound);
}

TEST(SnapshotTest, SaveBeforeAnyStatsWritesEmptySnapshot) {
  const graph::Graph g = SmallGraph();
  TempFile file("empty");
  EstimationEngine engine(g);
  ASSERT_TRUE(engine.context().SaveSnapshot(file.path()).ok());
  auto info = ReadSnapshotInfo(file.path());
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->sections.size(), 1u);  // the header only
  EXPECT_EQ(info->sections[0].id,
            static_cast<uint32_t>(SnapshotSection::kArenaMeta));
  // And an empty snapshot loads as a no-op.
  EstimationEngine fresh(g);
  EXPECT_TRUE(fresh.context().LoadSnapshot(file.path()).ok());
}

// --- markov(h) validation satellite -----------------------------------------

TEST(MarkovValidationTest, NegativeHIsInvalidArgument) {
  const graph::Graph g = SmallGraph();
  EstimationContext context(g);
  auto table = context.TryMarkov(-1);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), util::StatusCode::kInvalidArgument);
  auto table2 = context.TryMarkov(-100);
  EXPECT_FALSE(table2.ok());
}

TEST(MarkovValidationTest, ZeroMeansContextDefault) {
  const graph::Graph g = SmallGraph();
  ContextOptions options;
  options.markov_h = 3;
  EstimationContext context(g, options);
  auto table = context.TryMarkov(0);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->h(), 3);
  EXPECT_EQ(&context.markov(), *table);  // same shared instance
}

TEST(MarkovValidationTest, BadContextDefaultIsInvalidArgument) {
  const graph::Graph g = SmallGraph();
  ContextOptions options;
  options.markov_h = 0;
  EstimationContext context(g, options);
  auto table = context.TryMarkov(0);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cegraph::engine
