#ifndef CEGRAPH_ENGINE_ESTIMATION_CONTEXT_H_
#define CEGRAPH_ENGINE_ESTIMATION_CONTEXT_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dynamic/delta_graph.h"
#include "dynamic/stats_maintainer.h"
#include "engine/ceg_cache.h"
#include "engine/snapshot.h"
#include "graph/graph.h"
#include "learn/feedback_store.h"
#include "query/workload.h"
#include "stats/char_sets.h"
#include "stats/cycle_closing.h"
#include "stats/degree_stats.h"
#include "stats/dispersion.h"
#include "stats/markov_table.h"
#include "stats/summary_graph.h"
#include "util/status.h"

namespace cegraph::util {
class MappedArena;
}

namespace cegraph::engine {

/// Construction knobs for the shared statistic structures. Defaults follow
/// the paper's experimental setup (§6.1): h = 2 Markov tables, 64-bucket
/// SumRDF summaries.
struct ContextOptions {
  /// Markov table size used by estimators that don't name one explicitly.
  int markov_h = 2;
  /// CEG construction rules shared by every optimistic estimator.
  ceg::CegOOptions ceg_options;
  /// Cycle-closing-rate sampling (CEG_OCR).
  stats::CycleClosingOptions cycle_closing;
  /// SumRDF summary buckets.
  uint32_t summary_buckets = 64;
  /// SumRDF matching step budget (its "timeout").
  uint64_t sumrdf_step_budget = 50'000'000;
  /// Cap for materializing 2-join degree statistics (MOLP+2j).
  uint64_t stats_materialize_cap = 4'000'000;
};

/// What Prewarm should fill and how hard it may work. Every toggle maps to
/// one statistics substrate; all of them default on except dispersion
/// (whose exact extension analysis is by far the most expensive and only
/// feeds the §8 future-work estimators).
struct PrewarmOptions {
  /// Worker threads (0 = all cores, 1 = serial), applied through a
  /// harness::WorkloadRunner.
  int num_threads = 0;
  bool markov = true;          ///< sub-pattern cardinalities (h-sized)
  bool closing_rates = true;   ///< CEG_OCR cycle-closing statistics
  bool degree = true;          ///< base-relation degree maps
  bool two_joins = true;       ///< materialized 2-join degree statistics
  bool dispersion = false;     ///< extension-dispersion statistics (§8)
  bool summaries = true;       ///< CS + SumRDF eager summaries
};

/// What one Prewarm pass enumerated and filled (deduplicated task counts,
/// not per-query touches).
struct PrewarmReport {
  size_t markov_patterns = 0;
  size_t closing_keys = 0;
  size_t base_relations = 0;
  size_t two_join_patterns = 0;
  size_t dispersion_pairs = 0;
  double seconds = 0;
};

/// The shared substrate of every estimator over one graph: the graph
/// itself, lazily built summary/statistic structures (Markov tables per h,
/// cycle-closing rates, degree-statistics catalog, characteristic sets,
/// SumRDF summary) and the CEG build cache. Estimators constructed through
/// the EstimatorRegistry borrow these instead of each bench/example
/// re-instantiating its own copies.
///
/// Every accessor is thread-safe; the returned structures are themselves
/// safe for concurrent use (their memo caches are mutex-guarded), so one
/// context serves a parallel WorkloadRunner. The context must outlive every
/// estimator created from it.
///
/// The statistics substrate is a durable artifact: Prewarm fills the lazy
/// caches for a workload ahead of time, SaveSnapshot persists everything
/// built so far to an mmap-able arena file, and LoadSnapshot maps it back
/// on a later process start (guarded by the graph fingerprint, so stats
/// never load against the wrong dataset). See engine/snapshot.h for the
/// file format.
///
/// The context is also *update-aware*: ApplyDeltas folds a batch of edge
/// inserts/deletes into the graph (via a dynamic::DeltaGraph compaction)
/// and maintains the statistics incrementally — exact in-place updates
/// where cheap, targeted per-key eviction elsewhere (see
/// dynamic::StatsMaintainer) — instead of rebuilding from scratch. The
/// context's identity then becomes a dynamic fingerprint triple
/// (base fingerprint, delta-log hash, epoch); snapshots taken at an earlier
/// epoch of the same log remain loadable (stale-but-replayable), snapshots
/// of unrelated graphs are rejected. ApplyDeltas must run quiesced: no
/// concurrent estimation, and estimator instances created before the call
/// hold dangling statistics references afterwards (EstimationEngine
/// re-creates its instances; direct users must do the same).
class EstimationContext {
 public:
  /// Borrows `g`, which must outlive the context. After ApplyDeltas the
  /// context serves a new compacted graph it owns; the borrowed base is
  /// never modified.
  explicit EstimationContext(const graph::Graph& g, ContextOptions options = {})
      : g_(&g), options_(options), base_fingerprint_(g.fingerprint()) {
    epoch_history_.push_back({0, 0});
  }
  /// Takes ownership of `g`.
  explicit EstimationContext(graph::Graph&& g, ContextOptions options = {})
      : owned_(std::make_shared<const graph::Graph>(std::move(g))),
        g_(owned_.get()),
        options_(options),
        base_fingerprint_(g_->fingerprint()) {
    epoch_history_.push_back({0, 0});
  }
  /// Shares ownership of `g` — the constructor for serving states, where
  /// the same base graph backs a chain of contexts (the service keeps it
  /// alive across snapshot hot-swaps).
  explicit EstimationContext(std::shared_ptr<const graph::Graph> g,
                             ContextOptions options = {})
      : owned_(std::move(g)),
        g_(owned_.get()),
        options_(options),
        base_fingerprint_(g_->fingerprint()) {
    epoch_history_.push_back({0, 0});
  }

  EstimationContext(const EstimationContext&) = delete;
  EstimationContext& operator=(const EstimationContext&) = delete;

  /// The current graph: the construction-time graph until the first
  /// ApplyDeltas, the owned compacted graph afterwards.
  const graph::Graph& graph() const { return *g_; }
  const ContextOptions& options() const { return options_; }

  /// The size-`h` Markov table (h = 0 means options().markov_h). Built on
  /// first use, then shared. `h` must be >= 0: a negative size is a
  /// programming bug and crashes with a clear message (use TryMarkov for a
  /// recoverable Status instead).
  const stats::MarkovTable& markov(int h = 0) const;

  /// Status-returning variant of markov(): InvalidArgument for h < 0 (or a
  /// non-positive options().markov_h when h == 0) instead of crashing. The
  /// pointer is never null on the OK path and lives as long as the context.
  util::StatusOr<const stats::MarkovTable*> TryMarkov(int h = 0) const;

  /// Cycle-closing rates for CEG_OCR.
  const stats::CycleClosingRates& cycle_closing_rates() const;

  /// Degree-statistics catalog for MOLP / CBS.
  const stats::StatsCatalog& stats_catalog() const;

  /// Characteristic Sets summary.
  const stats::CharacteristicSets& characteristic_sets() const;

  /// SumRDF summary graph.
  const stats::SummaryGraph& summary_graph() const;

  /// Extension-dispersion catalog (§8 future-work estimators).
  const stats::DispersionCatalog& dispersion_catalog() const;

  /// The shared CEG build cache.
  CegCache& ceg_cache() const { return ceg_cache_; }

  /// The learned-feedback store (per-class multiplicative q-error
  /// corrections; see learn/feedback_store.h). Created lazily on first
  /// use, stamped with a digest of the *base* graph fingerprint so
  /// snapshot loads can discard corrections learned against a different
  /// graph. ForkWithDeltas shares the pointer across epochs — delta
  /// batches never invalidate corrections, because the base graph (and
  /// hence the stamp) is unchanged; only a different dataset does.
  learn::FeedbackStore& feedback_store() const {
    return *feedback_store_ptr();
  }
  std::shared_ptr<learn::FeedbackStore> feedback_store_ptr() const;

  /// Replaces this context's feedback store wholesale. The serving layer
  /// uses this to (a) seed a fresh context with its configured learner
  /// knobs before a snapshot load and (b) carry the live store across a
  /// hot-swap, so learning survives state replacement.
  void AdoptFeedbackStore(std::shared_ptr<learn::FeedbackStore> store) const;

  /// The stamp feedback payloads are guarded by: a 64-bit digest of the
  /// base fingerprint.
  uint64_t feedback_stamp() const {
    return learn::StampFingerprint(
        base_fingerprint_.num_vertices, base_fingerprint_.num_labels,
        base_fingerprint_.num_vertex_labels, base_fingerprint_.num_edges,
        base_fingerprint_.edge_hash);
  }

  // ---- Dynamic layer ----

  /// Applies one batch of edge deltas: compacts the overlay into a fresh
  /// CSR graph, migrates every built statistics structure onto it
  /// incrementally (exact in-place updates for 1-edge Markov entries,
  /// base-relation degree maps and SumRDF buckets; targeted per-key
  /// eviction for entries whose labels changed; Characteristic Sets
  /// dropped for lazy rebuild), evicts affected CegCache entries, appends
  /// the net delta to the replay log and advances the epoch. No-op batches
  /// (all operations cancelled or redundant) still advance the epoch.
  ///
  /// Must run quiesced — no concurrent estimation — and invalidates every
  /// estimator instance constructed from this context (they hold
  /// references to the replaced statistics structures). Go through
  /// EstimationEngine::ApplyDeltas to have instances refreshed
  /// automatically.
  util::StatusOr<dynamic::MaintenanceReport> ApplyDeltas(
      const std::vector<dynamic::EdgeDelta>& batch);

  /// Builds the *next-epoch* context off to the side, leaving this one
  /// fully serviceable: the batch is compacted into a fresh graph and every
  /// built statistics structure is migrated incrementally into a brand-new
  /// context (same mechanics as ApplyDeltas, including CEG-cache carry of
  /// unaffected builds), while `this` is only read through its thread-safe
  /// accessors. This is the RCU building block of the serving layer:
  /// readers keep estimating against the old context for as long as they
  /// hold it, the maintainer publishes the fork atomically, and
  /// ApplyDeltas' quiescence requirement is satisfied by never mutating
  /// the live state at all.
  ///
  /// Safe to run concurrently with estimation on `this`; NOT safe to run
  /// concurrently with another mutation (ApplyDeltas, TrimReplayLog, a
  /// second Fork) — maintenance is single-writer. `report`, if non-null,
  /// receives the same accounting ApplyDeltas would produce.
  util::StatusOr<std::unique_ptr<EstimationContext>> ForkWithDeltas(
      const std::vector<dynamic::EdgeDelta>& batch,
      dynamic::MaintenanceReport* report = nullptr) const;

  /// The context's dynamic identity: construction-time base fingerprint,
  /// XOR-combined hash of the net delta log, number of applied batches.
  dynamic::DynamicFingerprint dynamic_fingerprint() const {
    return {base_fingerprint_, delta_hash_, epoch_};
  }
  uint64_t epoch() const { return epoch_; }
  /// Net delta operations applied so far, in application order (the replay
  /// log that makes earlier-epoch snapshots stale-but-usable). After
  /// TrimReplayLog this is the surviving suffix: only deltas at epochs
  /// >= min_replayable_epoch() remain.
  const std::vector<dynamic::EdgeDelta>& delta_log() const {
    return replay_log_;
  }

  /// Drops the replay-log prefix (and epoch history) below `min_epoch`, so
  /// a long-lived churning process' net delta log stops growing without
  /// bound. Snapshots taken at epochs >= min_epoch stay stale-replayable;
  /// older ones will be rejected as fingerprint mismatches (their replay
  /// suffix is gone). Once anything has been trimmed, SaveSnapshot stops
  /// embedding the delta log — a partial log could not reconstruct the
  /// state from the base graph. Returns the number of net operations
  /// discarded. Same single-writer discipline as ApplyDeltas/Fork; safe
  /// against concurrent estimation (estimators never read the log).
  size_t TrimReplayLog(uint64_t min_epoch);

  /// The oldest epoch whose snapshot can still be replayed against this
  /// context (0 until the first TrimReplayLog).
  uint64_t min_replayable_epoch() const { return history_base_epoch_; }

  /// Per-cache resident sizes and hit/miss/evict counters, for
  /// observability (cegraph_stats inspect/refresh).
  struct CacheStats {
    std::string name;
    size_t entries = 0;
    util::CacheCounters counters;
  };
  std::vector<CacheStats> CollectCacheStats() const;

  /// Fills the statistics caches for `workload` ahead of time: enumerates
  /// every connected sub-query a Markov lookup can hit, every two-join
  /// pattern, every base relation and every CEG_OCR closing key the
  /// workload's queries can request, deduplicates across the workload, and
  /// computes them in parallel (harness::WorkloadRunner work-stealing over
  /// the flat task list). After Prewarm, estimation runs entirely on warm
  /// caches. Like the lazy accessors this is const: it only fills the
  /// mutable memo caches. Implemented in engine/prewarm.cc.
  PrewarmReport Prewarm(const std::vector<query::WorkloadQuery>& workload,
                        const PrewarmOptions& options = {}) const;

  /// Persists every statistic built so far (lazily or via Prewarm) to an
  /// arena snapshot at `path` (version 3, see engine/snapshot.h), stamped
  /// with the context's dynamic fingerprint (base fingerprint, delta hash
  /// and epoch). `format` has the one value kArena. Entries a freshly
  /// loaded context still serves off its attached indexes are written too,
  /// so re-saving (or re-sharding) a loaded snapshot is lossless.
  /// Implemented in engine/snapshot.cc.
  util::Status SaveSnapshot(
      const std::string& path,
      SnapshotFormat format = SnapshotFormat::kArena) const;

  /// How one LoadSnapshot resolved.
  struct SnapshotLoadReport {
    /// False: the snapshot matched this context's state exactly. True: the
    /// snapshot was taken at an earlier epoch of the same delta log and
    /// was made usable by replaying the missing deltas against its
    /// entries (targeted eviction + exact refresh).
    bool stale = false;
    uint64_t snapshot_epoch = 0;
    size_t replayed_deltas = 0;
    size_t evicted_entries = 0;
    /// True: arena indexes were attached in place (zero-copy; lookups
    /// serve straight off the mapped bytes until first touch). False: the
    /// sections were materialized into the memo caches (stale loads — the
    /// replay scrub only sees memo entries).
    bool mapped = false;
    /// Total bytes of arena images backing this load.
    uint64_t mapped_bytes = 0;
    /// Time opening + validating the container(s): mmap and header/index
    /// checks for arenas, file reads and manifest hash checks for shards.
    double map_millis = 0;
    /// Time parsing/merging/attaching sections into the context.
    double parse_millis = 0;
  };

  /// Persists the same statistics as a *sharded* snapshot: a manifest at
  /// `manifest_path` plus `<manifest_path>.common` (whole-graph summaries
  /// and dynamic state) and `<manifest_path>.shard<k>` for k in
  /// [0, num_shards) (the keyed sections split by key-hash range; see
  /// engine/snapshot.h). The union of all shards is entry-for-entry
  /// equivalent to SaveSnapshot's monolithic file; a fleet process loads
  /// only its shard set. Every file is an arena image (`format` as in
  /// SaveSnapshot). Implemented in engine/snapshot.cc.
  util::Status SaveSnapshotShards(
      const std::string& manifest_path, uint32_t num_shards,
      SnapshotFormat format = SnapshotFormat::kArena) const;

  /// Restores a sharded snapshot from the manifest at `manifest_path`,
  /// loading the common file plus the shard files named in `shards`
  /// (empty = all shards). Every referenced file is checked against the
  /// manifest's size/content hash before parsing, so a corrupt shard is a
  /// clean InvalidArgument, and fingerprint/options guards apply per file
  /// exactly as in LoadSnapshot. Requested ids must be in range and
  /// distinct. Implemented in engine/snapshot.cc.
  util::Status LoadSnapshotShards(const std::string& manifest_path,
                                  const std::vector<uint32_t>& shards,
                                  SnapshotLoadReport* report = nullptr) const;

  /// Restores a snapshot written by SaveSnapshot: mmaps the file and
  /// attaches its per-section hash indexes behind the stats structures'
  /// lookup APIs — nothing is parsed up front, lookups serve straight off
  /// the mapped page cache and copy into the memo caches on first use.
  /// Rejects files whose magic/version are unknown or retired (v1/v2:
  /// InvalidArgument with a rebuild hint), that are truncated or corrupted
  /// (OutOfRange/InvalidArgument from the bounds-checked readers), or whose
  /// fingerprint is incompatible (FailedPrecondition: "fingerprint
  /// mismatch — rebuild"). A shard-manifest path (see engine/snapshot.h)
  /// is accepted transparently and loads the union of all shards.
  ///
  /// Compatibility is judged against the dynamic fingerprint: a snapshot
  /// whose described graph equals this context's current graph attaches
  /// fully; a snapshot taken at an *earlier epoch of the same delta log* is
  /// stale but usable — its keyed-cache sections are materialized into the
  /// memo caches and then scrubbed for the labels the missing deltas
  /// touched (whole-graph summaries are skipped and rebuild lazily; stale
  /// indexes are never left attached); anything else is a mismatch.
  /// `report`, if non-null, receives which path was taken. Loaded entries
  /// merge into the lazy caches (existing entries win). Call before
  /// handing out estimators. Implemented in engine/snapshot.cc.
  util::Status LoadSnapshot(const std::string& path,
                            SnapshotLoadReport* report = nullptr) const;

 private:
  /// The dynamic fingerprint after each epoch: epoch_history_[k] is the
  /// (delta hash, replay-log length) right after epoch
  /// history_base_epoch_ + k (the first entry is the oldest replayable
  /// point; pristine contexts start with {0, 0} at epoch 0). LoadSnapshot
  /// uses it to recognize snapshots taken at any earlier epoch of this
  /// log. `log_size` counts from epoch 0, so after TrimReplayLog the
  /// in-memory replay_log_ index is log_size - log_trimmed_.
  struct EpochMark {
    uint64_t delta_hash = 0;
    size_t log_size = 0;
  };

  /// Uninitialized shell for ForkWithDeltas, which fills every field
  /// itself (the public constructors seed a pristine epoch history).
  struct ForkTag {};
  explicit EstimationContext(ForkTag) : g_(nullptr) {}

  /// The load over one mapped image, behind LoadSnapshot and
  /// LoadSnapshotShards (which verifies each file against the manifest
  /// hash first and must load exactly the bytes it verified). Validates
  /// the meta section and every index header first (`validate_only` stops
  /// there, so the manifest path can validate every image before applying
  /// any and a failed multi-file load leaves the context untouched), then
  /// either attaches the indexes in place (fresh) or materializes them into
  /// the memo caches and scrubs (stale). `scrub_stale` gates that scrub;
  /// the manifest path runs it once, on the last image (every file of one
  /// artifact carries the same epoch stamp). The structures keep `arena`
  /// alive through shared_ptr owners, so a hot-swap drops the mapping only
  /// once the last reader is gone. Implemented in engine/snapshot.cc.
  util::Status LoadSnapshotArena(
      const std::shared_ptr<const util::MappedArena>& arena,
      SnapshotLoadReport* report, bool validate_only = false,
      bool scrub_stale = true) const;

  /// The EpochMark of `epoch`, or null when it predates the trimmed
  /// history or postdates the current epoch.
  const EpochMark* MarkAt(uint64_t epoch) const {
    if (epoch < history_base_epoch_ ||
        epoch - history_base_epoch_ >= epoch_history_.size()) {
      return nullptr;
    }
    return &epoch_history_[epoch - history_base_epoch_];
  }

  /// Owns the graph after compaction (or from the owning constructor);
  /// null while serving a borrowed base graph.
  std::shared_ptr<const graph::Graph> owned_;
  const graph::Graph* g_;
  ContextOptions options_;

  graph::GraphFingerprint base_fingerprint_;
  uint64_t delta_hash_ = 0;
  uint64_t epoch_ = 0;
  std::vector<dynamic::EdgeDelta> replay_log_;
  std::vector<EpochMark> epoch_history_;
  uint64_t history_base_epoch_ = 0;  ///< epoch of epoch_history_[0]
  size_t log_trimmed_ = 0;  ///< ops dropped from the front of the log

  mutable std::mutex mutex_;
  mutable std::map<int, std::unique_ptr<stats::MarkovTable>> markov_;
  mutable std::unique_ptr<stats::CycleClosingRates> rates_;
  mutable std::unique_ptr<stats::StatsCatalog> catalog_;
  mutable std::unique_ptr<stats::CharacteristicSets> char_sets_;
  mutable std::unique_ptr<stats::SummaryGraph> summary_;
  mutable std::unique_ptr<stats::DispersionCatalog> dispersion_;
  mutable CegCache ceg_cache_;

  /// Learned-feedback corrections, shared across ForkWithDeltas epochs
  /// (guarded by mutex_ for creation; the store itself is thread-safe).
  mutable std::shared_ptr<learn::FeedbackStore> feedback_;

  /// Unparsed summary-graph payload adopted from a mapped arena snapshot,
  /// parsed on first use so arena open time stays O(sections). The owner
  /// handle keeps the mapping alive until the parse (or forever, if the
  /// summary is never touched). Guarded by mutex_; a null owner means no
  /// payload is pending.
  mutable std::string_view pending_summary_;
  mutable std::shared_ptr<const void> pending_summary_owner_;

  /// Parses pending_summary_ into summary_ (mutex_ must be held). A
  /// payload that fails to parse is dropped: the summary is derived data,
  /// so summary_graph() then falls back to building one from the graph.
  void MaterializePendingSummaryLocked() const;
};

}  // namespace cegraph::engine

#endif  // CEGRAPH_ENGINE_ESTIMATION_CONTEXT_H_
