#include "stats/cycle_closing.h"

#include <utility>
#include <vector>

#include "util/serde.h"

namespace cegraph::stats {

namespace {

using graph::Label;
using graph::VertexId;

}  // namespace

std::string CycleClosingRates::Codec::EncodeKey(const ClosingKey& key) {
  util::serde::Writer writer;
  writer.WriteU32(key.first_label);
  writer.WriteU32(key.last_label);
  writer.WriteU32(key.close_label);
  writer.WriteU8((key.first_forward ? 4 : 0) | (key.last_forward ? 2 : 0) |
                 (key.close_from_end ? 1 : 0));
  return writer.TakeBuffer();
}

util::StatusOr<ClosingKey> CycleClosingRates::Codec::DecodeKey(
    std::string_view bytes) {
  util::serde::Reader reader(bytes);
  ClosingKey key;
  auto first = reader.ReadU32();
  if (!first.ok()) return first.status();
  auto last = reader.ReadU32();
  if (!last.ok()) return last.status();
  auto close = reader.ReadU32();
  if (!close.ok()) return close.status();
  auto flags = reader.ReadU8();
  if (!flags.ok()) return flags.status();
  if (!reader.AtEnd()) {
    return util::InvalidArgumentError("closing-rate key has trailing bytes");
  }
  key.first_label = *first;
  key.last_label = *last;
  key.close_label = *close;
  key.first_forward = (*flags & 4) != 0;
  key.last_forward = (*flags & 2) != 0;
  key.close_from_end = (*flags & 1) != 0;
  return key;
}

double CycleClosingRates::Rate(const ClosingKey& key) const {
  // Sampling runs outside the cache lock; each key's walks derive a
  // deterministic stream, so a race on a cold key recomputes the identical
  // value.
  return cache_.GetOrCompute(key, [&] { return Sample(key); });
}

double CycleClosingRates::Sample(const ClosingKey& key) const {
  // Derive a per-key deterministic stream so the rate does not depend on
  // the order in which keys are first requested.
  util::Rng rng(options_.seed ^ ClosingKeyHash()(key));

  const auto first_rel = g_.RelationEdges(key.first_label);
  if (first_rel.empty() || g_.RelationSize(key.last_label) == 0) {
    return 0.5 / (options_.walks_per_key + 1);
  }

  int completed = 0;
  int closed = 0;
  std::vector<std::pair<VertexId, Label>> any_nbrs;
  auto collect_any = [&](VertexId v) {
    any_nbrs.clear();
    for (Label l = 0; l < g_.num_labels(); ++l) {
      for (VertexId u : g_.OutNeighbors(v, l)) any_nbrs.emplace_back(u, l);
      for (VertexId u : g_.InNeighbors(v, l)) any_nbrs.emplace_back(u, l);
    }
  };

  const int64_t max_attempts = static_cast<int64_t>(options_.walks_per_key) *
                               options_.max_attempt_factor;
  for (int64_t trial = 0;
       trial < max_attempts && completed < options_.walks_per_key; ++trial) {
    // 1. Start edge: uniform tuple of the first relation, oriented.
    const graph::Edge& fe = first_rel[rng.Uniform(first_rel.size())];
    const VertexId start = key.first_forward ? fe.src : fe.dst;
    VertexId cur = key.first_forward ? fe.dst : fe.src;

    // 2. Intermediate random hops over any label/direction.
    const int mid = static_cast<int>(
        rng.Uniform(static_cast<uint64_t>(options_.max_mid_hops) + 1));
    bool dead = false;
    for (int hop = 0; hop < mid && !dead; ++hop) {
      collect_any(cur);
      if (any_nbrs.empty()) {
        dead = true;
        break;
      }
      cur = any_nbrs[rng.Uniform(any_nbrs.size())].first;
    }
    if (dead) continue;

    // 3. Final edge with the last label, oriented.
    const auto last_nbrs = key.last_forward
                               ? g_.OutNeighbors(cur, key.last_label)
                               : g_.InNeighbors(cur, key.last_label);
    if (last_nbrs.empty()) continue;
    const VertexId end = last_nbrs[rng.Uniform(last_nbrs.size())];

    // 4. Closing check.
    ++completed;
    const bool has_close =
        key.close_from_end
            ? g_.HasEdge(end, start, key.close_label)
            : g_.HasEdge(start, end, key.close_label);
    closed += has_close;
  }
  return (closed + 0.5) / (completed + 1.0);
}

}  // namespace cegraph::stats
