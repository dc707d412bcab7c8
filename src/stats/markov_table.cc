#include "stats/markov_table.h"

namespace cegraph::stats {

bool MarkovTable::Contains(const query::QueryGraph& pattern) const {
  return pattern.num_edges() >= 1 &&
         pattern.num_edges() <= static_cast<uint32_t>(h_) &&
         pattern.IsConnected();
}

util::StatusOr<double> MarkovTable::Cardinality(
    const query::QueryGraph& pattern) const {
  if (!Contains(pattern)) {
    return util::InvalidArgumentError(
        "pattern not covered by this Markov table");
  }
  const std::string key = pattern.CanonicalCode();
  if (const double* hit = cache_.Find(key)) return *hit;
  // Count outside the lock: exact matching dominates, and two threads
  // racing on the same cold pattern just compute the same value twice.
  auto count = matcher_.Count(pattern);
  if (!count.ok()) return count.status();
  return cache_.Insert(key, *count);
}

size_t MarkovTable::ApproximateSizeBytes() const {
  if (cache_.size() == 0) return 0;
  // libstdc++-style hash node: next pointer + cached hash code per entry.
  constexpr size_t kNodeOverhead = 2 * sizeof(void*);
  size_t bytes = cache_.bucket_count() * sizeof(void*);
  cache_.ForEach([&](const std::string& key, const double& value) {
    bytes += sizeof(key) + sizeof(value) + kNodeOverhead;
    // The key's characters live on the heap unless the small-string buffer
    // holds them (detected by whether data() points into the object).
    const char* data = key.data();
    const char* obj = reinterpret_cast<const char*>(&key);
    const bool small_string = data >= obj && data < obj + sizeof(key);
    if (!small_string) bytes += key.capacity() + 1;
  });
  return bytes;
}

}  // namespace cegraph::stats
