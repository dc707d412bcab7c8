#include "stats/char_sets.h"

#include <cmath>
#include <map>
#include <utility>

#include "util/arena.h"
#include "util/serde.h"

namespace cegraph::stats {

namespace {

// Fixed strides of the flat arena layout (see char_sets.h).
constexpr size_t kCsHeaderBytes = 32;
constexpr size_t kCsGroupStride = 40;
constexpr size_t kCsEdgeStride = 16;

}  // namespace

CharacteristicSets::CharacteristicSets(const graph::Graph& g) {
  // Group vertices by their out-label set. Labels are visited in ascending
  // order, so each set comes out sorted, and the map orders the groups by
  // set, lexicographically.
  struct Group {
    uint64_t vertex_count = 0;
    std::vector<uint64_t> label_edges;  ///< 1:1 with the set's labels
  };
  std::map<std::vector<graph::Label>, Group> by_set;
  std::vector<graph::Label> labels;
  std::vector<uint64_t> degrees;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    labels.clear();
    degrees.clear();
    for (graph::Label l = 0; l < g.num_labels(); ++l) {
      if (const uint64_t d = g.OutDegree(v, l); d > 0) {
        labels.push_back(l);
        degrees.push_back(d);
      }
    }
    if (labels.empty()) continue;
    Group& group = by_set[labels];
    group.label_edges.resize(labels.size());
    ++group.vertex_count;
    for (size_t i = 0; i < labels.size(); ++i) {
      group.label_edges[i] += degrees[i];
    }
  }

  uint64_t labels_count = 0;
  for (const auto& [set, group] : by_set) labels_count += set.size();
  util::serde::Writer w;
  w.WriteU64(g.num_vertices());
  w.WriteU64(by_set.size());
  w.WriteU64(labels_count);
  w.WriteU64(labels_count);  // edges mirror the char sets 1:1
  uint64_t start = 0;
  for (const auto& [set, group] : by_set) {
    w.WriteU64(group.vertex_count);
    w.WriteU64(start);
    w.WriteU64(set.size());
    w.WriteU64(start);
    w.WriteU64(set.size());
    start += set.size();
  }
  for (const auto& [set, group] : by_set) {
    for (graph::Label l : set) w.WriteU32(l);
  }
  if (labels_count % 2 != 0) w.WriteU32(0);  // pad labels blob to 8
  for (const auto& [set, group] : by_set) {
    for (size_t i = 0; i < set.size(); ++i) {
      w.WriteU32(set[i]);
      w.WriteU32(0);  // reserved
      w.WriteU64(group.label_edges[i]);
    }
  }
  auto buffer = std::make_shared<const std::string>(w.TakeBuffer());
  const std::string_view payload = *buffer;
  // Well-formed by construction, so no deferred scan (gate_ stays null).
  if (util::Status adopted = Adopt(payload, std::move(buffer)); !adopted.ok()) {
    util::internal::StatusOrCrash("CharacteristicSets: " + adopted.ToString());
  }
}

util::Status CharacteristicSets::Adopt(std::string_view payload,
                                       std::shared_ptr<const void> owner) {
  auto malformed = [](const char* what) {
    return util::InvalidArgumentError(
        std::string("char-sets arena section: ") + what);
  };
  if (payload.size() < kCsHeaderBytes) return malformed("truncated header");
  const char* base = payload.data();
  const uint64_t num_vertices = util::LoadLittleU64(base);
  const uint64_t num_groups = util::LoadLittleU64(base + 8);
  const uint64_t labels_count = util::LoadLittleU64(base + 16);
  const uint64_t edges_count = util::LoadLittleU64(base + 24);
  if (num_vertices > 0xffffffffull) return malformed("vertex count overflow");
  // Sizes are recomputed bottom-up with overflow-safe division checks.
  const size_t avail = payload.size() - kCsHeaderBytes;
  if (num_groups > avail / kCsGroupStride) {
    return malformed("group table exceeds payload");
  }
  const size_t labels_off = kCsHeaderBytes + num_groups * kCsGroupStride;
  if (labels_count > (payload.size() - labels_off) / 4) {
    return malformed("labels blob exceeds payload");
  }
  const size_t labels_bytes = (labels_count * 4 + 7) / 8 * 8;
  const size_t edges_off = labels_off + labels_bytes;
  if (edges_off > payload.size() ||
      edges_count > (payload.size() - edges_off) / kCsEdgeStride) {
    return malformed("edges blob exceeds payload");
  }
  num_vertices_ = static_cast<uint32_t>(num_vertices);
  bytes_ = payload;
  owner_ = std::move(owner);
  num_groups_ = num_groups;
  labels_off_ = labels_off;
  edges_off_ = edges_off;
  return util::Status::OK();
}

util::StatusOr<CharacteristicSets> CharacteristicSets::Attach(
    std::string_view payload, std::shared_ptr<const void> owner) {
  CharacteristicSets cs;
  CEGRAPH_RETURN_IF_ERROR(cs.Adopt(payload, std::move(owner)));
  // The per-group scan is deferred to first use (see CheckGroups) so an
  // arena open pays O(1) here however many groups the graph has.
  cs.gate_ = std::make_shared<Gate>();
  return cs;
}

util::Status CharacteristicSets::CheckGroups() const {
  auto malformed = [](const char* what) {
    return util::InvalidArgumentError(
        std::string("char-sets arena section: ") + what);
  };
  const char* base = bytes_.data();
  const uint64_t labels_count = util::LoadLittleU64(base + 16);
  const uint64_t edges_count = util::LoadLittleU64(base + 24);
  // Strict per-group label ordering and an exact 1:1 labels/edges
  // correspondence (what the graph-scan constructor guarantees), so
  // EstimateStar can run check-free once this scan passed.
  for (uint64_t gi = 0; gi < num_groups_; ++gi) {
    const char* ge = base + kCsHeaderBytes + gi * kCsGroupStride;
    const uint64_t vertex_count = util::LoadLittleU64(ge);
    const uint64_t set_start = util::LoadLittleU64(ge + 8);
    const uint64_t set_count = util::LoadLittleU64(ge + 16);
    const uint64_t edges_start = util::LoadLittleU64(ge + 24);
    const uint64_t group_edges = util::LoadLittleU64(ge + 32);
    if (vertex_count == 0) return malformed("group with no vertices");
    if (set_start > labels_count || set_count > labels_count - set_start) {
      return malformed("group label range out of bounds");
    }
    if (edges_start > edges_count ||
        group_edges > edges_count - edges_start) {
      return malformed("group edge range out of bounds");
    }
    if (group_edges != set_count) {
      return malformed("label/edge arity mismatch");
    }
    uint32_t prev = 0;
    for (uint64_t i = 0; i < set_count; ++i) {
      const uint32_t l = util::LoadLittleU32(base + labels_off_ +
                                             (set_start + i) * 4);
      const uint32_t el = util::LoadLittleU32(
          base + edges_off_ + (edges_start + i) * kCsEdgeStride);
      if (l != el) return malformed("label/edge key mismatch");
      if (i > 0 && l <= prev) return malformed("labels not ascending");
      prev = l;
    }
  }
  return util::Status::OK();
}

bool CharacteristicSets::GroupsValid() const {
  if (gate_ == nullptr) return true;
  std::call_once(gate_->once, [&] {
    util::Status checked = CheckGroups();
    if (!checked.ok()) gate_->error = checked.ToString();
    gate_->valid.store(checked.ok(), std::memory_order_release);
  });
  return gate_->valid.load(std::memory_order_acquire);
}

util::Status CharacteristicSets::ValidateNow() const {
  if (GroupsValid()) return util::Status::OK();
  return util::InvalidArgumentError(gate_->error);
}

double CharacteristicSets::EstimateStar(
    const std::vector<graph::Label>& labels) const {
  // Count multiplicity per distinct label.
  std::map<graph::Label, int> need;
  for (graph::Label l : labels) ++need[l];

  // A payload that fails the (deferred, latched) group scan serves as an
  // empty summary: degraded, but never an out-of-bounds read.
  if (!GroupsValid()) return 0;
  const char* base = bytes_.data();
  double total = 0;
  for (uint64_t gi = 0; gi < num_groups_; ++gi) {
    const char* ge = base + kCsHeaderBytes + gi * kCsGroupStride;
    const uint64_t vertex_count = util::LoadLittleU64(ge);
    const uint64_t set_start = util::LoadLittleU64(ge + 8);
    const uint64_t set_count = util::LoadLittleU64(ge + 16);
    const uint64_t edges_start = util::LoadLittleU64(ge + 24);
    // Binary search the group's sorted label array; a hit's position also
    // indexes the 1:1 edges array.
    auto find_pos = [&](graph::Label l) -> int64_t {
      uint64_t lo = 0, hi = set_count;
      while (lo < hi) {
        const uint64_t mid = (lo + hi) / 2;
        const uint32_t at =
            util::LoadLittleU32(base + labels_off_ + (set_start + mid) * 4);
        if (at == l) return static_cast<int64_t>(mid);
        if (at < l) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return -1;
    };
    bool covers = true;
    for (const auto& [l, cnt] : need) {
      if (find_pos(l) < 0) {
        covers = false;
        break;
      }
    }
    if (!covers) continue;
    double contribution = static_cast<double>(vertex_count);
    for (const auto& [l, cnt] : need) {
      const uint64_t edges = util::LoadLittleU64(
          base + edges_off_ +
          (edges_start + static_cast<uint64_t>(find_pos(l))) * kCsEdgeStride +
          8);
      const double avg =
          static_cast<double>(edges) / static_cast<double>(vertex_count);
      contribution *= std::pow(avg, cnt);
    }
    total += contribution;
  }
  return total;
}

}  // namespace cegraph::stats
