#ifndef CEGRAPH_STATS_DISPERSION_H_
#define CEGRAPH_STATS_DISPERSION_H_

#include <string>
#include <string_view>

#include "graph/graph.h"
#include "query/query_graph.h"
#include "util/keyed_cache.h"
#include "util/status.h"

namespace cegraph::stats {

/// Dispersion statistics of one CEG_O extension step: how *regular* the
/// conditional degree behind the average-degree weight |E|/|I| really is.
/// For each embedding of the intersection pattern I, let X be the number
/// of ways it extends to the pattern E (zero included). Then:
///   mean       = E[X] = |E| / |I|          (the CEG_O edge weight)
///   cv2        = Var[X] / E[X]^2           (squared coefficient of variation;
///                                           0 iff the uniformity assumption
///                                           is exact)
///   entropy    = Shannon entropy (bits) of the distribution of extensions
///                over I-embeddings, normalized by log2 |E| so 1 = maximal
///                regularity (every extension equally likely).
struct ExtensionDispersion {
  double mean = 0;
  double cv2 = 0;
  double entropy = 0;
};

/// Per-graph catalog of extension-dispersion statistics, cached by the
/// isomorphism class of the (E, I) pattern pair. This is the statistics
/// substrate for the paper's §8 future-work estimator ("one can use
/// variance, standard deviation, or entropies of the distributions of
/// small-size joins as edge weights in a CEG ... and pick the
/// minimum-weight, e.g. 'lowest entropy', paths").
class DispersionCatalog {
 public:
  /// `materialize_cap`: extension patterns with more embeddings than this
  /// are not analyzed (Get returns NotFound; callers fall back to a
  /// neutral weight).
  explicit DispersionCatalog(const graph::Graph& g,
                             uint64_t materialize_cap = 2'000'000)
      : g_(g), materialize_cap_(materialize_cap) {}

  DispersionCatalog(const DispersionCatalog&) = delete;
  DispersionCatalog& operator=(const DispersionCatalog&) = delete;

  const graph::Graph& graph() const { return g_; }

  /// Dispersion of extending `intersection` to `pattern`, where
  /// `intersection_edges` selects I's edges within `pattern`'s edge
  /// numbering. `pattern` must have <= 3 edges (Markov-table sized).
  util::StatusOr<ExtensionDispersion> Get(
      const query::QueryGraph& pattern,
      query::EdgeSet intersection_edges) const;

  size_t num_cached() const { return cache_.size(); }

  // ---- Maintenance surface (dynamic layer) ----

  /// Calls `fn(marked_canonical_code, dispersion)` for every entry,
  /// cached or still served off an attached snapshot index.
  template <typename Fn>
  void VisitEntries(Fn&& fn) const {
    cache_.ForEachEntry(fn);
  }

  /// Re-inserts an entry carried over from a previous graph epoch.
  void UpsertEntry(const std::string& key,
                   const ExtensionDispersion& d) const {
    cache_.Upsert(key, d);
  }

  /// Removes every entry whose key matches `pred`; returns how many were
  /// removed. Keys are canonical codes with intersection edges marked by a
  /// num_labels() offset (see Get), which the predicate must unmark.
  template <typename Pred>
  size_t EvictMatching(Pred&& pred) const {
    return cache_.EraseIf([&](const std::string& key,
                              const ExtensionDispersion&) {
      return pred(key);
    });
  }

  /// Lookup/eviction counters of the memo cache.
  util::CacheCounters cache_counters() const { return cache_.counters(); }

  /// Snapshot entry encoding: key = marked canonical code, value = the
  /// three dispersion doubles (mean, cv2, entropy).
  struct Codec : util::StringKeyCodec {
    static std::string EncodeValue(const ExtensionDispersion& d);
    static util::StatusOr<ExtensionDispersion> DecodeValue(
        std::string_view bytes);
  };
  using Cache = util::MappedKeyedCache<std::string, ExtensionDispersion, Codec>;

  /// The memo with its attached snapshot indexes (see MarkovTable::cache).
  const Cache& cache() const { return cache_; }

 private:
  const graph::Graph& g_;
  uint64_t materialize_cap_;
  Cache cache_;
};

}  // namespace cegraph::stats

#endif  // CEGRAPH_STATS_DISPERSION_H_
