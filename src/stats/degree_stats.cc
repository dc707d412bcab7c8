#include "stats/degree_stats.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>

#include "matching/matcher.h"
#include "query/subquery.h"
#include "util/serde.h"

namespace cegraph::stats {

namespace {

using graph::VertexId;
using query::QueryGraph;
using query::QVertex;
using query::VertexSet;

/// Projects `tuple` onto the attribute bitmask `mask`, writing attribute
/// values in ascending attribute order; unused slots are zero.
std::array<VertexId, 3> Project(const std::array<VertexId, 3>& tuple,
                                uint32_t mask) {
  std::array<VertexId, 3> out{};
  size_t k = 0;
  for (uint32_t a = 0; a < 3; ++a) {
    if (mask & (1u << a)) out[k++] = tuple[a];
  }
  return out;
}

}  // namespace

DegreeMap ComputeDegreeMap(
    uint32_t num_attrs,
    const std::vector<std::array<graph::VertexId, 3>>& tuples) {
  DegreeMap dm;
  dm.num_attrs = num_attrs;
  const uint32_t full = (1u << num_attrs) - 1;

  dm.deg[0][0] = 1;
  for (uint32_t y = 0; y <= full; ++y) dm.deg[y][y] = 1;

  for (uint32_t y = 1; y <= full; ++y) {
    // Distinct projections onto Y.
    std::vector<std::array<VertexId, 3>> proj;
    proj.reserve(tuples.size());
    for (const auto& t : tuples) proj.push_back(Project(t, y));
    std::sort(proj.begin(), proj.end());
    proj.erase(std::unique(proj.begin(), proj.end()), proj.end());
    dm.deg[0][y] = static_cast<double>(proj.size());

    // For each proper non-empty subset X of Y: group the distinct
    // Y-projections by their X-part and take the max group size.
    for (uint32_t x = (y - 1) & y; x != 0; x = (x - 1) & y) {
      // Re-sort by the X-part of each distinct Y-tuple. The X-projection of
      // a Y-projected tuple needs the attribute positions *within* Y.
      uint32_t x_in_y = 0;  // bitmask over the packed positions of Y
      {
        uint32_t pos = 0;
        for (uint32_t a = 0; a < 3; ++a) {
          if (!(y & (1u << a))) continue;
          if (x & (1u << a)) x_in_y |= 1u << pos;
          ++pos;
        }
      }
      auto x_part = [&](const std::array<VertexId, 3>& t) {
        std::array<VertexId, 3> out{};
        size_t k = 0;
        for (uint32_t p = 0; p < 3; ++p) {
          if (x_in_y & (1u << p)) out[k++] = t[p];
        }
        return out;
      };
      std::vector<std::array<VertexId, 3>> keys;
      keys.reserve(proj.size());
      for (const auto& t : proj) keys.push_back(x_part(t));
      std::sort(keys.begin(), keys.end());
      double max_group = 0, run = 0;
      for (size_t i = 0; i < keys.size(); ++i) {
        run = (i > 0 && keys[i] == keys[i - 1]) ? run + 1 : 1;
        max_group = std::max(max_group, run);
      }
      dm.deg[x][y] = max_group;
    }
  }
  return dm;
}

namespace {

/// Degree map of base relation `l` from the graph's O(1) CSR summaries.
/// Local attributes: 0 = src (bit 1), 1 = dst (bit 2).
DegreeMap BaseRelationMap(const graph::Graph& g, graph::Label l) {
  DegreeMap dm;
  dm.num_attrs = 2;
  dm.deg[0][0] = 1;
  dm.deg[1][1] = 1;
  dm.deg[2][2] = 1;
  dm.deg[3][3] = 1;
  dm.deg[0][1] = static_cast<double>(g.NumDistinctSources(l));
  dm.deg[0][2] = static_cast<double>(g.NumDistinctDests(l));
  dm.deg[0][3] = static_cast<double>(g.RelationSize(l));
  dm.deg[1][3] = static_cast<double>(g.MaxOutDegree(l));
  dm.deg[2][3] = static_cast<double>(g.MaxInDegree(l));
  return dm;
}

}  // namespace

const DegreeMap& StatsCatalog::BaseRelation(graph::Label l) const {
  // Compute outside the lock (check-compute-insert like every other memo
  // cache here); a race on a cold label recomputes the same values.
  return base_cache_.GetOrCompute(l, [&] { return BaseRelationMap(g_, l); });
}

void StatsCatalog::RefreshBaseRelation(graph::Label l) const {
  base_cache_.Upsert(l, BaseRelationMap(g_, l));
}

const StatsCatalog::JoinStats* StatsCatalog::TwoJoin(
    const query::QueryGraph& pattern) const {
  const std::string key = pattern.CanonicalCode();
  if (const auto* hit = join_cache_.Find(key)) return hit->get();

  matching::Matcher matcher(g_);
  matching::MatchOptions options;
  options.step_budget = materialize_cap_ * 8;
  std::vector<std::array<VertexId, 3>> tuples;
  bool over_cap = false;
  auto status = matcher.Enumerate(
      pattern, options,
      [&](const std::vector<VertexId>& assignment) {
        std::array<VertexId, 3> t{};
        for (uint32_t v = 0; v < pattern.num_vertices() && v < 3; ++v) {
          t[v] = assignment[v];
        }
        tuples.push_back(t);
        if (tuples.size() > materialize_cap_) {
          over_cap = true;
          return false;
        }
        return true;
      });
  if (!status.ok() || over_cap) {
    return join_cache_.Insert(key, nullptr).get();
  }
  auto stats = std::make_unique<JoinStats>();
  stats->representative = pattern;
  stats->deg = ComputeDegreeMap(pattern.num_vertices(), tuples);
  stats->cardinality = static_cast<double>(tuples.size());
  return join_cache_.Insert(key, std::move(stats)).get();
}

namespace {

void WriteDegreeMap(util::serde::Writer& writer, const DegreeMap& dm) {
  writer.WriteU32(dm.num_attrs);
  for (uint32_t x = 0; x < 8; ++x) {
    for (uint32_t y = 0; y < 8; ++y) writer.WriteDouble(dm.deg[x][y]);
  }
}

util::StatusOr<DegreeMap> ReadDegreeMap(util::serde::Reader& reader) {
  DegreeMap dm;
  auto num_attrs = reader.ReadU32();
  if (!num_attrs.ok()) return num_attrs.status();
  if (*num_attrs > 3) {
    return util::InvalidArgumentError("degree map with > 3 attributes");
  }
  dm.num_attrs = *num_attrs;
  for (uint32_t x = 0; x < 8; ++x) {
    for (uint32_t y = 0; y < 8; ++y) {
      auto v = reader.ReadDouble();
      if (!v.ok()) return v.status();
      dm.deg[x][y] = *v;
    }
  }
  return dm;
}

void WriteQueryGraph(util::serde::Writer& writer, const QueryGraph& q) {
  writer.WriteU32(q.num_vertices());
  writer.WriteU32(q.num_edges());
  for (const query::QueryEdge& e : q.edges()) {
    writer.WriteU32(e.src);
    writer.WriteU32(e.dst);
    writer.WriteU32(e.label);
  }
  const bool constrained = q.has_vertex_constraints();
  writer.WriteU32(constrained ? q.num_vertices() : 0);
  if (constrained) {
    for (QVertex v = 0; v < q.num_vertices(); ++v) {
      writer.WriteU32(q.vertex_constraint(v));
    }
  }
}

util::StatusOr<QueryGraph> ReadQueryGraph(util::serde::Reader& reader) {
  auto num_vertices = reader.ReadU32();
  if (!num_vertices.ok()) return num_vertices.status();
  auto num_edges = reader.ReadU32();
  if (!num_edges.ok()) return num_edges.status();
  // A cached pattern has at most a handful of edges; an absurd count is a
  // corruption signature, caught before any allocation.
  if (*num_vertices > 64 || *num_edges > 64) {
    return util::InvalidArgumentError("implausible cached pattern size");
  }
  std::vector<query::QueryEdge> edges;
  edges.reserve(*num_edges);
  for (uint32_t i = 0; i < *num_edges; ++i) {
    auto src = reader.ReadU32();
    if (!src.ok()) return src.status();
    auto dst = reader.ReadU32();
    if (!dst.ok()) return dst.status();
    auto label = reader.ReadU32();
    if (!label.ok()) return label.status();
    edges.push_back({*src, *dst, *label});
  }
  auto num_constraints = reader.ReadU32();
  if (!num_constraints.ok()) return num_constraints.status();
  if (*num_constraints != 0 && *num_constraints != *num_vertices) {
    return util::InvalidArgumentError("constraint arity mismatch");
  }
  std::vector<graph::VertexLabel> constraints;
  for (uint32_t i = 0; i < *num_constraints; ++i) {
    auto c = reader.ReadU32();
    if (!c.ok()) return c.status();
    constraints.push_back(*c);
  }
  return QueryGraph::Create(*num_vertices, std::move(edges),
                            std::move(constraints));
}

}  // namespace

std::string StatsCatalog::BaseCodec::EncodeKey(graph::Label l) {
  std::string bytes(8, '\0');
  const uint64_t v = l;
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  return bytes;
}

util::StatusOr<graph::Label> StatsCatalog::BaseCodec::DecodeKey(
    std::string_view bytes) const {
  if (bytes.size() != 8) {
    return util::InvalidArgumentError("base-relation arena key malformed");
  }
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = v << 8 | static_cast<uint8_t>(bytes[i]);
  }
  if (v >= num_labels) {
    return util::InvalidArgumentError("base-relation label out of range");
  }
  return static_cast<graph::Label>(v);
}

std::string StatsCatalog::BaseCodec::EncodeValue(const DegreeMap& dm) {
  util::serde::Writer writer;
  WriteDegreeMap(writer, dm);
  return writer.TakeBuffer();
}

util::StatusOr<DegreeMap> StatsCatalog::BaseCodec::DecodeValue(
    std::string_view bytes) {
  util::serde::Reader reader(bytes);
  auto dm = ReadDegreeMap(reader);
  if (!dm.ok()) return dm.status();
  if (!reader.AtEnd()) {
    return util::InvalidArgumentError("base-relation arena entry malformed");
  }
  return *dm;
}

std::string StatsCatalog::JoinCodec::EncodeValue(
    const std::unique_ptr<JoinStats>& js) {
  util::serde::Writer writer;
  writer.WriteU8(js != nullptr ? 1 : 0);  // 0 = over-cap verdict
  if (js != nullptr) {
    WriteQueryGraph(writer, js->representative);
    WriteDegreeMap(writer, js->deg);
    writer.WriteDouble(js->cardinality);
  }
  return writer.TakeBuffer();
}

util::StatusOr<std::unique_ptr<StatsCatalog::JoinStats>>
StatsCatalog::JoinCodec::DecodeValue(std::string_view bytes) {
  util::serde::Reader reader(bytes);
  auto has_stats = reader.ReadU8();
  if (!has_stats.ok()) return has_stats.status();
  if (*has_stats == 0) {
    if (!reader.AtEnd()) {
      return util::InvalidArgumentError("two-join arena entry malformed");
    }
    return std::unique_ptr<JoinStats>(nullptr);
  }
  auto representative = ReadQueryGraph(reader);
  if (!representative.ok()) return representative.status();
  auto dm = ReadDegreeMap(reader);
  if (!dm.ok()) return dm.status();
  auto cardinality = reader.ReadDouble();
  if (!cardinality.ok()) return cardinality.status();
  if (!reader.AtEnd()) {
    return util::InvalidArgumentError("two-join arena entry malformed");
  }
  auto js = std::make_unique<JoinStats>();
  js->representative = std::move(*representative);
  js->deg = *dm;
  js->cardinality = *cardinality;
  return js;
}

util::StatusOr<DegreeStats> DegreeStats::Build(const StatsCatalog& catalog,
                                               const query::QueryGraph& q,
                                               bool include_two_joins) {
  DegreeStats out;
  const graph::Graph& g = catalog.graph();

  // One StatRelation per base relation (query edge).
  for (uint32_t ei = 0; ei < q.num_edges(); ++ei) {
    const query::QueryEdge& e = q.edge(ei);
    StatRelation rel;
    rel.description = "edge" + std::to_string(ei) + "(label " +
                      std::to_string(e.label) + ")";
    if (e.src == e.dst) {
      // Self-loop: the relation is constrained to the diagonal.
      rel.attrs = VertexSet{1} << e.src;
      double loops = 0;
      for (const graph::Edge& de : g.RelationEdges(e.label)) {
        loops += (de.src == de.dst);
      }
      rel.deg[{0, 0}] = 1;
      rel.deg[{rel.attrs, rel.attrs}] = 1;
      rel.deg[{0, rel.attrs}] = loops;
      out.relations_.push_back(std::move(rel));
      continue;
    }
    const DegreeMap& dm = catalog.BaseRelation(e.label);
    rel.attrs = (VertexSet{1} << e.src) | (VertexSet{1} << e.dst);
    // Map local bit 0 (src) / bit 1 (dst) to query-vertex bits.
    auto to_query = [&](uint32_t local) {
      VertexSet s = 0;
      if (local & 1u) s |= VertexSet{1} << e.src;
      if (local & 2u) s |= VertexSet{1} << e.dst;
      return s;
    };
    for (uint32_t y = 0; y < 4; ++y) {
      for (uint32_t x = 0; x < 4; ++x) {
        if ((x & y) != x) continue;
        if (dm.Get(x, y) <= 0) continue;
        rel.deg[{to_query(x), to_query(y)}] = dm.Get(x, y);
      }
    }
    out.relations_.push_back(std::move(rel));
  }

  if (!include_two_joins) return out;

  // One StatRelation per connected 2-edge sub-query (§5.1.1).
  for (query::EdgeSet s : query::ConnectedSubsetsOfSize(q, 2)) {
    std::vector<QVertex> vmap;
    const QueryGraph pattern = q.ExtractPattern(s, &vmap);
    const StatsCatalog::JoinStats* js = catalog.TwoJoin(pattern);
    if (js == nullptr) continue;  // too large; skip (bounds stay sound)
    const std::vector<QVertex> iso =
        query::FindIsomorphism(pattern, js->representative);
    if (iso.empty()) {
      return util::InternalError("catalog representative not isomorphic");
    }
    // Map a bitmask over representative vertices to query vertices:
    // representative vertex r corresponds to pattern vertex iso^{-1}(r),
    // which is query vertex vmap[iso^{-1}(r)].
    std::vector<QVertex> rep_to_query(pattern.num_vertices());
    for (QVertex p = 0; p < pattern.num_vertices(); ++p) {
      rep_to_query[iso[p]] = vmap[p];
    }
    auto to_query = [&](uint32_t local) {
      VertexSet out_set = 0;
      for (uint32_t r = 0; r < pattern.num_vertices(); ++r) {
        if (local & (1u << r)) out_set |= VertexSet{1} << rep_to_query[r];
      }
      return out_set;
    };
    StatRelation rel;
    rel.description = "join(" + pattern.CanonicalCode() + ")";
    rel.attrs = to_query((1u << pattern.num_vertices()) - 1);
    const uint32_t full = (1u << pattern.num_vertices()) - 1;
    for (uint32_t y = 0; y <= full; ++y) {
      for (uint32_t x = 0; x <= full; ++x) {
        if ((x & y) != x) continue;
        if (js->deg.Get(x, y) <= 0) continue;
        rel.deg[{to_query(x), to_query(y)}] = js->deg.Get(x, y);
      }
    }
    out.relations_.push_back(std::move(rel));
  }
  return out;
}

}  // namespace cegraph::stats
