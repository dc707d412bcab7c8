// In-memory span recorder for the traced run (--trace 1).
//
// Spans are recorded by the benchmark around its calls into the library's
// public API — nothing inside the program is instrumented. Each span has a
// name, start, end, the span that was open on the same thread when it
// started (its parent) and the request id of the operation it belongs to.
// Spans stay in per-thread buffers until the run ends, then are written as
// JSON lines and folded into per-name self times (duration minus the part
// covered by child spans).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  ///< static string
  int64_t start_ns = 0;        ///< relative to the tracer's origin
  int64_t end_ns = 0;
  uint64_t id = 0;             ///< unique within the run, never 0
  uint64_t parent = 0;         ///< 0 = root
  uint64_t request_id = 0;
};

/// Per-name totals over every recorded span.
struct SpanTotals {
  uint64_t count = 0;
  double total_us = 0;  ///< sum of durations
  double self_us = 0;   ///< sum of durations minus child coverage
  double mean_us() const { return count ? total_us / count : 0; }
  double mean_self_us() const { return count ? self_us / count : 0; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Turns recording on or off for spans opened from now on (the traced
  /// run alternates untraced and traced phases to measure the overhead).
  void set_recording(bool on) {
    recording_.store(on && enabled_, std::memory_order_relaxed);
  }
  bool recording() const { return recording_.load(std::memory_order_relaxed); }

  /// RAII span. A no-op when the tracer is not recording.
  class Span {
   public:
    Span(Tracer& tracer, const char* name, uint64_t request_id = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_ = nullptr;  ///< null when not recording
    size_t index_ = 0;          ///< slot in the thread's buffer
  };

  /// Number of spans recorded so far.
  size_t size() const;
  /// Totals per span name (call after every recording thread joined).
  std::map<std::string, SpanTotals> Totals() const;
  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Buffer {
    uint64_t thread_index = 0;
    uint64_t next_seq = 1;
    std::vector<SpanRecord> spans;
    std::vector<size_t> open;  ///< stack of indices of open spans
  };
  Buffer& LocalBuffer();
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  const bool enabled_;
  std::atomic<bool> recording_{false};
  const Clock::time_point origin_;
  mutable std::mutex mutex_;  ///< guards buffers_ (not their contents)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
