// Shared plumbing of the perfbench program: command-line options, timing,
// order statistics, the run result printed as the last stdout line, and
// the correctness-check ledger every workload writes into.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for the run's files (snapshot, trace JSONL).
  std::string work_dir = ".";
};

/// Reports a failure to produce inputs or start the run and exits nonzero
/// without printing a result line.
[[noreturn]] void Die(const std::string& what);

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// One completed operation of a timed phase.
struct Sample {
  double end_s = 0;       ///< completion, seconds since the phase started
  double latency_us = 0;
  bool traced = false;    ///< run while the tracer was recording
};

/// Latency and throughput of a timed phase, read per window of
/// `window_ops` consecutive operations. Each workload sizes its windows
/// to whole rounds of its own cycle (passes over the query set, or one
/// delta batch's worth of requests), so windows are alike in make-up.
/// Interference from other tenants of the machine only ever slows a window
/// down, so the phase is summarized by its better windows: throughput is
/// the 90th percentile of the window rates, p50 and p90 are the 10th
/// percentiles of the window p50s and p90s. A window needs at least
/// kTailSamples operations for its p90 to have five beyond it; with
/// smaller windows p90 is taken over all samples.
struct PhaseSummary {
  double ops_per_s = 0;
  double p50_us = 0;
  double p90_us = 0;
  uint64_t samples = 0;
};
inline constexpr size_t kTailSamples = 50;
PhaseSummary Summarize(std::vector<Sample> samples, size_t window_ops);

/// Tracing overhead of a phase whose windows of `window_ops` consecutive
/// operations alternate between untraced and traced: 100 * (1 - traced /
/// untraced throughput), each the 90th percentile of its windows' rates.
/// Interleaving the two keeps the host's drift over a run out of the
/// difference. The first window (a warm-up) and windows that mix both
/// kinds are skipped.
double TracingOverheadPct(std::vector<Sample> samples, size_t window_ops);

/// Peak resident set size over one stretch of a run (set-up and the timed
/// phase), MiB. A background thread reads the current RSS from
/// /proc/self/statm every millisecond from construction until PeakMb().
/// Construction first hands freed heap back to the system, so the
/// benchmark's own input generation, done and freed before, is not
/// counted; what the inputs still hold (the graph, the query set) is.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling (on first call) and returns the peak seen.
  double PeakMb();

 private:
  void ReadOnce();

  int fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> peak_pages_{0};
  std::thread thread_;
};

/// q-error of an estimate against a positive truth: max(e/t, t/e);
/// infinity when the estimate is not positive.
double QError(double estimate, double truth);

/// Thread-safe ledger of correctness checks. A failed check marks the run
/// incorrect and counts one failed operation; the first few messages go to
/// stderr so a broken run says why.
class Checks {
 public:
  void Fail(const std::string& what);
  /// Records `ok` as one check; returns it.
  bool Expect(bool ok, const std::string& what) {
    if (!ok) Fail(what);
    return ok;
  }
  bool correct() const;
  uint64_t failures() const;

 private:
  mutable std::mutex mutex_;
  uint64_t failures_ = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run prints as its final line (see README.md).
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// One JSON object: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
  std::string ToJson(bool correct) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
