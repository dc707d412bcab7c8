#include "stats/dispersion.h"

#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "matching/matcher.h"
#include "query/subquery.h"
#include "util/serde.h"

namespace cegraph::stats {

namespace {

using graph::VertexId;
using query::EdgeSet;
using query::QueryGraph;
using query::QVertex;

}  // namespace

util::StatusOr<ExtensionDispersion> DispersionCatalog::Get(
    const query::QueryGraph& pattern, query::EdgeSet intersection_edges)
    const {
  if (pattern.num_edges() == 0 || pattern.num_edges() > 3) {
    return util::InvalidArgumentError("pattern must have 1..3 edges");
  }
  if ((intersection_edges & pattern.AllEdges()) != intersection_edges) {
    return util::InvalidArgumentError("intersection outside pattern");
  }

  // Cache key: canonical code of the pattern with intersection edges
  // distinguished by a label offset (sound: equal keys imply an
  // isomorphism mapping I to I).
  std::string key;
  {
    std::vector<query::QueryEdge> marked = pattern.edges();
    const graph::Label offset = g_.num_labels();
    for (uint32_t i = 0; i < marked.size(); ++i) {
      if (intersection_edges & (EdgeSet{1} << i)) marked[i].label += offset;
    }
    auto marked_q =
        QueryGraph::Create(pattern.num_vertices(), std::move(marked));
    if (!marked_q.ok()) return marked_q.status();
    key = marked_q->CanonicalCode();
  }
  if (const ExtensionDispersion* hit = cache_.Find(key)) return *hit;

  matching::Matcher matcher(g_);
  ExtensionDispersion result;

  if (intersection_edges == 0) {
    // First hop: the "distribution" is a single cell, |E| ways.
    auto count = matcher.Count(pattern);
    if (!count.ok()) return count.status();
    result.mean = *count;
    result.cv2 = 0;
    result.entropy = 1;
    return cache_.Insert(key, result);
  }

  // Vertices of the intersection within the pattern.
  const query::VertexSet i_vertices = pattern.VerticesOf(intersection_edges);
  std::vector<QVertex> i_vertex_list;
  for (QVertex v = 0; v < pattern.num_vertices(); ++v) {
    if (i_vertices & (query::VertexSet{1} << v)) i_vertex_list.push_back(v);
  }

  // Count E-embeddings grouped by their I-projection.
  std::map<std::vector<VertexId>, double> groups;
  matching::MatchOptions options;
  options.step_budget = materialize_cap_ * 8;
  uint64_t total = 0;
  bool over_cap = false;
  auto status = matcher.Enumerate(
      pattern, options, [&](const std::vector<VertexId>& assignment) {
        std::vector<VertexId> i_part;
        i_part.reserve(i_vertex_list.size());
        for (QVertex v : i_vertex_list) i_part.push_back(assignment[v]);
        ++groups[std::move(i_part)];
        if (++total > materialize_cap_) {
          over_cap = true;
          return false;
        }
        return true;
      });
  if (!status.ok()) return status;
  if (over_cap) {
    return util::NotFoundError("extension too large to analyze");
  }

  // Number of I-embeddings (groups with zero extensions included).
  const QueryGraph i_pattern = pattern.ExtractPattern(intersection_edges);
  auto i_count = matcher.Count(i_pattern);
  if (!i_count.ok()) return i_count.status();
  const double n_i = *i_count;
  const double n_e = static_cast<double>(total);
  if (n_i <= 0) {
    return util::NotFoundError("empty intersection pattern");
  }

  result.mean = n_e / n_i;
  double sum_sq = 0;
  double entropy = 0;
  for (const auto& [i_part, count] : groups) {
    sum_sq += count * count;
    if (n_e > 0) {
      const double p = count / n_e;
      entropy -= p * std::log2(p);
    }
  }
  const double ex2 = sum_sq / n_i;
  result.cv2 =
      result.mean > 0 ? std::max(0.0, ex2 / (result.mean * result.mean) - 1)
                      : 0;
  // Normalize by the maximum achievable entropy log2(n_i): a perfectly
  // regular extension spreads uniformly over all I-embeddings (entropy
  // log2(n_i), normalized 1); a degenerate single-group distribution has
  // entropy 0.
  result.entropy =
      n_i > 1 ? std::min(1.0, entropy / std::log2(n_i)) : 1.0;
  return cache_.Insert(key, result);
}

std::string DispersionCatalog::Codec::EncodeValue(
    const ExtensionDispersion& d) {
  util::serde::Writer writer;
  writer.WriteDouble(d.mean);
  writer.WriteDouble(d.cv2);
  writer.WriteDouble(d.entropy);
  return writer.TakeBuffer();
}

util::StatusOr<ExtensionDispersion> DispersionCatalog::Codec::DecodeValue(
    std::string_view bytes) {
  util::serde::Reader reader(bytes);
  ExtensionDispersion d;
  auto mean = reader.ReadDouble();
  if (!mean.ok()) return mean.status();
  auto cv2 = reader.ReadDouble();
  if (!cv2.ok()) return cv2.status();
  auto entropy = reader.ReadDouble();
  if (!entropy.ok()) return entropy.status();
  if (!reader.AtEnd()) {
    return util::InvalidArgumentError("dispersion arena entry malformed");
  }
  d.mean = *mean;
  d.cv2 = *cv2;
  d.entropy = *entropy;
  return d;
}

}  // namespace cegraph::stats
