#ifndef CEGRAPH_UTIL_KEYED_CACHE_H_
#define CEGRAPH_UTIL_KEYED_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/arena.h"
#include "util/serde.h"
#include "util/shard.h"
#include "util/status.h"

namespace cegraph::util {

/// Lookup/maintenance counters of one KeyedCache: Find hits and misses
/// (GetOrCompute goes through Find, so misses count cold computes; a
/// MappedKeyedCache lookup answered from an attached index is a hit) and
/// entries removed by EraseIf (the dynamic layer's targeted invalidation).
struct CacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

/// The one memo-cache shape shared by every statistics structure in this
/// library: a mutex-guarded unordered_map with check-compute-insert
/// semantics, where values are computed *outside* the lock (expensive exact
/// matching / sampling must not serialize other readers) and the first
/// completed insert wins.
///
/// Entries are only ever removed by EraseIf, which exists for the dynamic
/// layer's targeted invalidation (stats maintenance after a graph delta).
/// Outside maintenance windows the cache is append-only, so returned
/// references stay valid (unordered_map node stability); maintenance must
/// run quiesced — no concurrent estimation holding entry references — which
/// is the same contract the surrounding stats swap requires anyway.
///
/// MappedKeyedCache below layers it over attached snapshot indexes; that
/// pair is the memo of MarkovTable, CycleClosingRates, StatsCatalog (twice)
/// and DispersionCatalog.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class KeyedCache {
 public:
  KeyedCache() = default;
  KeyedCache(const KeyedCache&) = delete;
  KeyedCache& operator=(const KeyedCache&) = delete;

  /// Returns the cached value for `key`, or nullptr. The pointer stays
  /// valid as long as the entry lives (no erasure outside maintenance).
  const Value* Find(const Key& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++counters_.misses;
      return nullptr;
    }
    ++counters_.hits;
    return &it->second;
  }

  /// Find with a second tier: on a memo miss, `fallback()` (run outside the
  /// lock) may supply the value as a std::optional. A supplied value is
  /// inserted (first insert wins) and the lookup counts as a hit; only a
  /// lookup neither tier answers counts as a miss.
  template <typename Fallback>
  const Value* FindOr(const Key& key, Fallback&& fallback) const {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = map_.find(key);
      if (it != map_.end()) {
        ++counters_.hits;
        return &it->second;
      }
    }
    std::optional<Value> supplied = fallback();
    std::lock_guard<std::mutex> lock(mutex_);
    if (!supplied.has_value()) {
      ++counters_.misses;
      return nullptr;
    }
    ++counters_.hits;
    return &map_.try_emplace(key, std::move(*supplied)).first->second;
  }

  /// Inserts `value` under `key` unless present; returns the resident
  /// value either way (first insert wins on a race).
  const Value& Insert(const Key& key, Value value) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.try_emplace(key, std::move(value)).first->second;
  }

  /// Inserts or overwrites the value under `key` — the exact in-place
  /// update path of incremental stats maintenance (e.g. refreshing a
  /// base-relation degree map after an edge delta).
  const Value& Upsert(const Key& key, Value value) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.insert_or_assign(key, std::move(value)).first->second;
  }

  /// The value for `key`, computing it with `compute()` outside the lock
  /// on a miss. Two threads racing on a cold key may both compute; the
  /// first insert wins (all compute functions here are deterministic, so
  /// the loser's value is identical).
  template <typename Fn>
  const Value& GetOrCompute(const Key& key, Fn&& compute) const {
    if (const Value* hit = Find(key)) return *hit;
    return Insert(key, compute());
  }

  /// Removes every entry for which `pred(key, value)` is true and returns
  /// how many were removed — the targeted-invalidation path of the dynamic
  /// layer. Invalidates references to the removed entries only; must run
  /// quiesced (see class comment).
  template <typename Pred>
  size_t EraseIf(Pred&& pred) const {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t erased = 0;
    for (auto it = map_.begin(); it != map_.end();) {
      if (pred(it->first, it->second)) {
        it = map_.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
    counters_.evictions += erased;
    return erased;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
  }

  /// Bucket count of the underlying map (for resident-size accounting).
  size_t bucket_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.bucket_count();
  }

  /// Lookup/eviction counters since construction.
  CacheCounters counters() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
  }

  /// Calls `fn(key, value)` for every entry, under the lock — the uniform
  /// export path. `fn` must not re-enter the cache.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, value] : map_) fn(key, value);
  }

 private:
  mutable std::mutex mutex_;
  mutable std::unordered_map<Key, Value, Hash> map_;
  mutable CacheCounters counters_;
};

/// Codec halves for the common arena index shapes (see MappedKeyedCache):
/// keys that are already byte strings, and 8-byte little-endian doubles.
struct StringKeyCodec {
  static std::string_view EncodeKey(const std::string& key) { return key; }
  static StatusOr<std::string> DecodeKey(std::string_view bytes) {
    return std::string(bytes);
  }
};

struct F64ValueCodec {
  static std::string EncodeValue(double value) {
    serde::Writer writer;
    writer.WriteDouble(value);
    return writer.TakeBuffer();
  }
  static StatusOr<double> DecodeValue(std::string_view bytes) {
    serde::Reader reader(bytes);
    auto value = reader.ReadDouble();
    if (!value.ok()) return value.status();
    if (!reader.AtEnd()) {
      return InvalidArgumentError("arena entry has trailing bytes");
    }
    return *value;
  }
};

/// A KeyedCache memo over read-only arena hash indexes attached from a
/// mapped snapshot: the one copy-on-first-touch lookup every keyed
/// statistics structure shares. A lookup consults the memo first, then each
/// attached index in attach order; an index hit is decoded, copied into the
/// memo and counted as a hit, so the page-cache probe is paid once per
/// entry and the counters read the same whether an entry came off the
/// mapping or was already resident. Writes (Insert/Upsert/EraseIf) touch
/// only the memo, so an attached index must describe the current graph:
/// stale snapshot loads Materialize and scrub instead of attaching, and a
/// delta fold migrates every entry (ForEachEntry) into a new cache.
///
/// `Codec` supplies the entry encoding of the structure:
///   EncodeKey(const Key&)         -> std::string or std::string_view
///   DecodeKey(std::string_view)   -> StatusOr<Key>
///   EncodeValue(const Value&)     -> std::string
///   DecodeValue(std::string_view) -> StatusOr<Value>
/// The cache holds a Codec instance, so a decoder may carry context (e.g.
/// the graph's label count). Index probes hash the encoded key with
/// StableHash64, the function sharding pins, so Export's shard filter and
/// a probe agree on every key.
///
/// Attach and Materialize run quiesced (load time), like every maintenance
/// operation; concurrent estimation only reads the attached list. A corrupt
/// index entry degrades to a miss (the caller recomputes the value), never
/// an error: lookups have no Status channel.
template <typename Key, typename Value, typename Codec,
          typename Hash = std::hash<Key>>
class MappedKeyedCache {
 public:
  explicit MappedKeyedCache(Codec codec = {}) : codec_(std::move(codec)) {}

  /// The value for `key` from the memo or an attached index, or nullptr.
  const Value* Find(const Key& key) const {
    if (mapped_.empty()) return memo_.Find(key);
    return memo_.FindOr(key, [&] { return FindMapped(key); });
  }

  /// The value for `key`, computing it with `compute()` outside the lock
  /// when neither the memo nor an index holds it.
  template <typename Fn>
  const Value& GetOrCompute(const Key& key, Fn&& compute) const {
    if (const Value* hit = Find(key)) return *hit;
    return memo_.Insert(key, compute());
  }

  const Value& Insert(const Key& key, Value value) const {
    return memo_.Insert(key, std::move(value));
  }
  const Value& Upsert(const Key& key, Value value) const {
    return memo_.Upsert(key, std::move(value));
  }
  template <typename Pred>
  size_t EraseIf(Pred&& pred) const {
    return memo_.EraseIf(std::forward<Pred>(pred));
  }
  /// Calls `fn(key, value)` for every memo entry, under the memo lock.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    memo_.ForEach(std::forward<Fn>(fn));
  }

  /// Calls `fn(key, value)` for every entry the cache can answer: the
  /// memo's (under its lock), then each attached-index entry the memo does
  /// not hold, decoded. Index entries that fail to decode are skipped
  /// (they recompute lazily to the same values). This is the walk behind
  /// snapshot export and delta migration, so neither loses the entries a
  /// fresh load left attached. `fn` must not re-enter the cache.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    std::unordered_set<Key, Hash> seen;
    memo_.ForEach([&](const Key& key, const Value& value) {
      if (!mapped_.empty()) seen.insert(key);
      fn(key, value);
    });
    for (const auto& [index, owner] : mapped_) {
      (void)index.Visit([&](std::string_view key_bytes,
                            std::string_view value_bytes) {
        auto key = codec_.DecodeKey(key_bytes);
        if (!key.ok() || seen.contains(*key)) return;
        auto value = codec_.DecodeValue(value_bytes);
        if (!value.ok()) return;
        seen.insert(*key);
        fn(*key, *value);
      });
    }
  }

  /// Memo residency (entries only reachable through an index not counted).
  size_t size() const { return memo_.size(); }
  size_t bucket_count() const { return memo_.bucket_count(); }
  CacheCounters counters() const { return memo_.counters(); }

  /// Attaches one index; `owner` keeps its bytes alive.
  void Attach(MappedIndex index, std::shared_ptr<const void> owner) const {
    mapped_.emplace_back(std::move(index), std::move(owner));
  }

  /// Adds every entry ForEachEntry visits whose key hash falls in range
  /// `shard` of `num_shards` (all entries when num_shards == 0; see
  /// util/shard.h) to `builder`, so re-saving a freshly mapped context is
  /// lossless.
  void Export(ArenaIndexBuilder& builder, uint32_t shard = 0,
              uint32_t num_shards = 0) const {
    ForEachEntry([&](const Key& key, const Value& value) {
      const auto& key_bytes = codec_.EncodeKey(key);
      const std::string_view view(key_bytes);
      if (InShard(StableHash64(view), shard, num_shards)) {
        builder.Add(std::string(view), codec_.EncodeValue(value));
      }
    });
  }

  /// Decodes every entry of `index` into the memo (existing entries win).
  /// Fails on the first malformed record, key or value.
  Status Materialize(const MappedIndex& index) const {
    Status decode = Status::OK();
    Status walk =
        index.Visit([&](std::string_view key_bytes, std::string_view value) {
          if (!decode.ok()) return;
          auto key = codec_.DecodeKey(key_bytes);
          if (!key.ok()) {
            decode = key.status();
            return;
          }
          auto decoded = codec_.DecodeValue(value);
          if (!decoded.ok()) {
            decode = decoded.status();
            return;
          }
          memo_.Insert(*key, std::move(*decoded));
        });
    if (!walk.ok()) return walk;
    return decode;
  }

 private:
  std::optional<Value> FindMapped(const Key& key) const {
    const auto& key_bytes = codec_.EncodeKey(key);
    const std::string_view view(key_bytes);
    for (const auto& [index, owner] : mapped_) {
      auto hit = index.Find(view);
      if (!hit.ok()) continue;  // clean miss or corrupt index
      auto decoded = codec_.DecodeValue(*hit);
      if (decoded.ok()) return std::move(*decoded);
    }
    return std::nullopt;
  }

  Codec codec_;
  KeyedCache<Key, Value, Hash> memo_;
  mutable std::vector<std::pair<MappedIndex, std::shared_ptr<const void>>>
      mapped_;
};

}  // namespace cegraph::util

#endif  // CEGRAPH_UTIL_KEYED_CACHE_H_
