#ifndef CEGRAPH_STATS_DEGREE_STATS_H_
#define CEGRAPH_STATS_DEGREE_STATS_H_

#include <array>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "query/query_graph.h"
#include "util/keyed_cache.h"
#include "util/status.h"

namespace cegraph::stats {

/// Maximum-degree statistics of one relation over up to 3 attributes,
/// keyed by attribute-subset bitmask pairs: Get(X, Y) = deg(X, Y, R) =
/// max over values v of X of the number of distinct Y-values co-occurring
/// with v (§5.1). Get(X, X) == 1 and Get(0, Y) == |pi_Y(R)| by definition.
struct DegreeMap {
  uint32_t num_attrs = 0;
  /// deg[X][Y]; 0 means "not defined" (X not a subset of Y).
  std::array<std::array<double, 8>, 8> deg{};

  double Get(uint32_t x, uint32_t y) const { return deg[x][y]; }
};

/// Computes the full DegreeMap of a materialized relation given as tuples
/// over `num_attrs` (<= 3) attributes. Tuples beyond index num_attrs-1 are
/// ignored.
DegreeMap ComputeDegreeMap(
    uint32_t num_attrs,
    const std::vector<std::array<graph::VertexId, 3>>& tuples);

/// Per-graph cache of degree statistics: base-relation statistics are
/// derived from the graph's CSR summaries in O(1); degree statistics of
/// small-size join results (§5.1.1) are materialized once per isomorphism
/// class and shared across the whole workload.
class StatsCatalog {
 public:
  /// `materialize_cap`: join results with more tuples than this are not
  /// materialized (TwoJoin returns nullptr); estimators then simply run
  /// without those extra statistics, which only loosens bounds (it never
  /// breaks soundness).
  explicit StatsCatalog(const graph::Graph& g,
                        uint64_t materialize_cap = 4'000'000)
      : g_(g),
        materialize_cap_(materialize_cap),
        base_cache_(BaseCodec{g.num_labels()}) {}

  StatsCatalog(const StatsCatalog&) = delete;
  StatsCatalog& operator=(const StatsCatalog&) = delete;

  const graph::Graph& graph() const { return g_; }

  /// Degree map of base relation `l` with local attributes {0 = src,
  /// 1 = dst}.
  const DegreeMap& BaseRelation(graph::Label l) const;

  /// Degree statistics of the join result of a connected 2-edge pattern.
  struct JoinStats {
    query::QueryGraph representative;  ///< pattern the stats are numbered in
    DegreeMap deg;                     ///< attrs = representative's vertices
    double cardinality = 0;            ///< |join result|
  };

  /// Returns stats for `pattern` (a connected 2-edge query), or nullptr if
  /// the join was too large to materialize. The caller must map attribute
  /// ids through FindIsomorphism(pattern, result->representative).
  const JoinStats* TwoJoin(const query::QueryGraph& pattern) const;

  size_t num_base_cached() const { return base_cache_.size(); }
  size_t num_joins_cached() const { return join_cache_.size(); }

  // ---- Maintenance surface (dynamic layer) ----

  /// Calls `fn(label, degree_map)` for every base relation, cached or
  /// still served off an attached snapshot index.
  template <typename Fn>
  void VisitBaseRelations(Fn&& fn) const {
    base_cache_.ForEachEntry(fn);
  }

  /// Calls `fn(canonical_code, join_stats_or_null)` for every two-join
  /// entry, cached or still served off an attached snapshot index (null =
  /// over-cap verdict).
  template <typename Fn>
  void VisitJoinEntries(Fn&& fn) const {
    join_cache_.ForEachEntry(
        [&](const std::string& key, const std::unique_ptr<JoinStats>& js) {
          fn(key, js.get());
        });
  }

  /// Recomputes the degree map of base relation `l` from the graph's O(1)
  /// CSR summaries and overwrites any cached entry — the exact in-place
  /// update path after an edge delta touched label `l`.
  void RefreshBaseRelation(graph::Label l) const;

  /// Inserts a two-join entry carried over from a previous graph epoch
  /// (null = over-cap verdict).
  void InsertJoinEntry(const std::string& key,
                       std::unique_ptr<JoinStats> stats) const {
    join_cache_.Insert(key, std::move(stats));
  }

  /// Removes every two-join entry whose canonical code matches `pred`;
  /// returns how many were removed.
  template <typename Pred>
  size_t EvictJoinsMatching(Pred&& pred) const {
    return join_cache_.EraseIf(
        [&](const std::string& key, const std::unique_ptr<JoinStats>&) {
          return pred(key);
        });
  }

  uint64_t materialize_cap() const { return materialize_cap_; }

  /// Lookup/eviction counters of the two memo caches.
  util::CacheCounters base_cache_counters() const {
    return base_cache_.counters();
  }
  util::CacheCounters join_cache_counters() const {
    return join_cache_.counters();
  }

  /// Snapshot entry encodings. Base relations: key = the 8 LE bytes of
  /// the label (what StableHash64(uint64_t) hashes), value = DegreeMap.
  /// Two-joins: key = canonical code, value = u8 has_stats (0 = over-cap
  /// verdict), then the representative pattern, DegreeMap and f64
  /// cardinality.
  struct BaseCodec {
    uint32_t num_labels = 0;  ///< decoded labels must lie below this
    static std::string EncodeKey(graph::Label l);
    util::StatusOr<graph::Label> DecodeKey(std::string_view bytes) const;
    static std::string EncodeValue(const DegreeMap& dm);
    static util::StatusOr<DegreeMap> DecodeValue(std::string_view bytes);
  };
  struct JoinCodec : util::StringKeyCodec {
    static std::string EncodeValue(const std::unique_ptr<JoinStats>& js);
    static util::StatusOr<std::unique_ptr<JoinStats>> DecodeValue(
        std::string_view bytes);
  };
  using BaseCache = util::MappedKeyedCache<graph::Label, DegreeMap, BaseCodec>;
  using JoinCache =
      util::MappedKeyedCache<std::string, std::unique_ptr<JoinStats>,
                             JoinCodec>;

  /// The two memos with their attached snapshot indexes (see
  /// MarkovTable::cache); the arena keeps one index per memo, so each is
  /// probed in place without scanning the other.
  const BaseCache& base_cache() const { return base_cache_; }
  const JoinCache& join_cache() const { return join_cache_; }

 private:
  const graph::Graph& g_;
  uint64_t materialize_cap_;
  /// Returned references/pointers stay valid because the caches never
  /// erase outside maintenance (unordered_map node stability). A null
  /// JoinStats pointer is a cached "too large to materialize" verdict.
  BaseCache base_cache_;
  JoinCache join_cache_;
};

/// One statistics-bearing relation of a query, with attributes expressed as
/// query-vertex bitmasks. This is the uniform input format of CEG_M / CBS /
/// DBPLP: base relations and small-join results look identical here.
struct StatRelation {
  query::VertexSet attrs = 0;
  /// deg[(X, Y)] with X subset of Y subset of attrs (bitmasks over query
  /// vertices).
  std::map<std::pair<query::VertexSet, query::VertexSet>, double> deg;
  std::string description;

  double Get(query::VertexSet x, query::VertexSet y) const {
    auto it = deg.find({x, y});
    return it == deg.end() ? 0.0 : it->second;
  }
};

/// The degree statistics available to the pessimistic estimators for one
/// query: one StatRelation per query edge, plus (optionally, §5.1.1) one
/// per connected 2-edge sub-query.
class DegreeStats {
 public:
  static util::StatusOr<DegreeStats> Build(const StatsCatalog& catalog,
                                           const query::QueryGraph& q,
                                           bool include_two_joins);

  const std::vector<StatRelation>& relations() const { return relations_; }

 private:
  std::vector<StatRelation> relations_;
};

}  // namespace cegraph::stats

#endif  // CEGRAPH_STATS_DEGREE_STATS_H_
