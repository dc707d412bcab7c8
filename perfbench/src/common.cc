#include "common.h"

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace perfbench {

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

void SortByEnd(std::vector<Sample>& samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.end_s < b.end_s; });
}

/// Calls f(begin, rate) for each whole window of sorted `samples`; a
/// window runs from the previous window's last completion to its own.
template <typename F>
void ForEachWindow(const std::vector<Sample>& samples, size_t window_ops,
                   F f) {
  double window_start = 0;
  for (size_t begin = 0; begin + window_ops <= samples.size();
       begin += window_ops) {
    const double window_end = samples[begin + window_ops - 1].end_s;
    const double rate = window_end > window_start
                            ? static_cast<double>(window_ops) /
                                  (window_end - window_start)
                            : 0;
    f(begin, rate);
    window_start = window_end;
  }
}

}  // namespace

PhaseSummary Summarize(std::vector<Sample> samples, size_t window_ops) {
  PhaseSummary out;
  out.samples = samples.size();
  if (samples.empty() || window_ops == 0) return out;
  SortByEnd(samples);
  std::vector<double> all, rates, medians, tails;
  for (const Sample& s : samples) all.push_back(s.latency_us);
  ForEachWindow(samples, window_ops, [&](size_t begin, double rate) {
    const std::vector<double> window(all.begin() + begin,
                                     all.begin() + begin + window_ops);
    if (rate > 0) rates.push_back(rate);
    medians.push_back(Median(window));
    tails.push_back(Quantile(window, 0.9));
  });
  if (rates.empty()) {  // shorter than one window: the phase is the window
    rates.push_back(static_cast<double>(samples.size()) /
                    samples.back().end_s);
    medians.push_back(Median(all));
    tails.push_back(Quantile(all, 0.9));
  }
  out.ops_per_s = Quantile(rates, 0.9);
  out.p50_us = Quantile(medians, 0.1);
  out.p90_us = window_ops >= kTailSamples ? Quantile(tails, 0.1)
                                          : Quantile(all, 0.9);
  return out;
}

double TracingOverheadPct(std::vector<Sample> samples, size_t window_ops) {
  if (samples.empty() || window_ops == 0) return 0;
  SortByEnd(samples);
  std::vector<double> rates[2];  // [untraced, traced]
  ForEachWindow(samples, window_ops, [&](size_t begin, double rate) {
    if (begin == 0) return;  // warm-up: on serve_churn, before any fold
    const bool traced = samples[begin].traced;
    for (size_t i = begin; i < begin + window_ops; ++i) {
      if (samples[i].traced != traced) return;
    }
    if (rate > 0) rates[traced].push_back(rate);
  });
  if (rates[0].empty() || rates[1].empty()) return 0;
  return 100 * (1 - Quantile(rates[1], 0.9) / Quantile(rates[0], 0.9));
}

RssSampler::RssSampler() {
  malloc_trim(0);
  fd_ = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) Die("cannot open /proc/self/statm");
  ReadOnce();
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ReadOnce();
    }
  });
}

RssSampler::~RssSampler() {
  PeakMb();
  ::close(fd_);
}

void RssSampler::ReadOnce() {
  char buf[128];
  const ssize_t n = ::pread(fd_, buf, sizeof(buf) - 1, 0);
  if (n <= 0) return;
  buf[n] = '\0';
  unsigned long long size = 0, resident = 0;  // pages
  if (std::sscanf(buf, "%llu %llu", &size, &resident) != 2) return;
  if (resident > peak_pages_.load(std::memory_order_relaxed)) {
    peak_pages_.store(resident, std::memory_order_relaxed);
  }
}

double RssSampler::PeakMb() {
  if (thread_.joinable()) {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    ReadOnce();
  }
  return static_cast<double>(peak_pages_.load(std::memory_order_relaxed)) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double QError(double estimate, double truth) {
  if (!(estimate > 0) || !std::isfinite(estimate)) {
    return std::numeric_limits<double>::infinity();
  }
  return std::max(estimate / truth, truth / estimate);
}

void Checks::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (++failures_ <= 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

bool Checks::correct() const { return failures() == 0; }

uint64_t Checks::failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_;
}

std::string RunResult::ToJson(bool correct) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no NaN/Infinity; a non-finite reading is reported as -1.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1;
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << v << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
