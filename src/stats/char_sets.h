#ifndef CEGRAPH_STATS_CHAR_SETS_H_
#define CEGRAPH_STATS_CHAR_SETS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace cegraph::stats {

/// The Characteristic Sets summary of Neumann & Moerkotte [22] (§6.4):
/// vertices are grouped by their characteristic set — the set of distinct
/// outgoing edge labels — and, per group, the summary stores the number of
/// member vertices and the total number of outgoing edges per label (from
/// which average per-label multiplicities follow).
///
/// The summary has one in-memory representation, a flat little-endian
/// layout that is also the kCharSets payload of an arena snapshot:
///
///   u64 num_vertices, u64 num_groups, u64 labels_count, u64 edges_count
///   group table: num_groups x { u64 vertex_count, u64 set_start,
///       u64 set_count, u64 edges_start, u64 edges_count }   (40 bytes)
///   labels blob: labels_count x u32 (each group's char-set labels,
///       strictly ascending), zero-padded to 8
///   edges blob: edges_count x { u32 label, u32 reserved, u64 count }
///       (strictly ascending per group, 1:1 with the group's labels)
///
/// Groups are ordered by their label sets, compared lexicographically. A
/// summary built from a graph holds the layout in an owned buffer; one
/// attached from a snapshot reads the mapped bytes in place. Copies share
/// the immutable bytes.
class CharacteristicSets {
 public:
  explicit CharacteristicSets(const graph::Graph& g);

  uint32_t num_graph_vertices() const { return num_vertices_; }
  size_t num_groups() const { return num_groups_; }

  /// Estimated number of matches of an out-star whose center emits one
  /// edge per entry of `labels` (labels may repeat): the CS formula
  /// sum over groups G containing all labels of
  ///   |G| * prod_l (avg multiplicity of l in G)^{count(l)}.
  double EstimateStar(const std::vector<graph::Label>& labels) const;

  /// The flat layout above (the snapshot payload).
  std::string_view bytes() const { return bytes_; }

  /// Wraps a payload previously taken from bytes(); `owner` keeps it
  /// alive. Checks the header and blob extents up front (O(1), so arena
  /// opens stay O(sections)) and fails with a clean Status on any defect
  /// there. The per-group scan that lets EstimateStar run check-free is
  /// deferred and latched on first use: defects it finds surface via
  /// ValidateNow (eagerly) or degrade reads to an empty summary (lazily).
  static util::StatusOr<CharacteristicSets> Attach(
      std::string_view payload, std::shared_ptr<const void> owner);

  /// Forces the deferred per-group validation of an attached summary and
  /// reports the result (always OK for one built from a graph).
  /// Validation-only snapshot passes call this for full rigor; serving
  /// paths instead pay the one-time scan on first EstimateStar.
  util::Status ValidateNow() const;

 private:
  CharacteristicSets() = default;

  /// Sets the layout fields from `payload` after checking its header and
  /// blob extents.
  util::Status Adopt(std::string_view payload,
                     std::shared_ptr<const void> owner);

  /// Runs (or reuses) the deferred per-group scan; false means the group
  /// data is malformed and readers must treat the summary as empty.
  bool GroupsValid() const;
  /// The scan itself: strict per-group label ordering and an exact 1:1
  /// labels/edges correspondence, with a precise error on failure.
  util::Status CheckGroups() const;

  uint32_t num_vertices_ = 0;
  std::string_view bytes_;
  std::shared_ptr<const void> owner_;
  uint64_t num_groups_ = 0;
  size_t labels_off_ = 0;  ///< byte offset of the labels blob
  size_t edges_off_ = 0;   ///< byte offset of the edges blob

  /// Latch for the deferred scan (heap-held so instances stay copyable;
  /// shared across copies, which alias the same immutable bytes). Null for
  /// a summary built from a graph, which is valid by construction.
  struct Gate {
    std::once_flag once;
    std::atomic<bool> valid{false};
    std::string error;  ///< written inside the once, read-only after
  };
  std::shared_ptr<Gate> gate_;
};

}  // namespace cegraph::stats

#endif  // CEGRAPH_STATS_CHAR_SETS_H_
