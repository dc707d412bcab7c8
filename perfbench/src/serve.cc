// serve_hot and serve_churn: the estimation service behind its TCP server,
// driven over loopback by closed-loop connections (each waits for its
// reply before sending the next request, as an optimizer does).
#include <unistd.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "engine/engine.h"
#include "inputs.h"
#include "matching/matcher.h"
#include "service/request.h"
#include "service/server.h"
#include "service/service.h"
#include "service/wire.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace engine = cegraph::engine;
namespace service = cegraph::service;
namespace wire = cegraph::service::wire;
namespace util = cegraph::util;

/// One closed-loop reader connection (plus the writer on serve_churn).
/// On the 4-vCPU VM this benchmark was tuned on, loading every vCPU drew
/// host steal that moved throughput by about 30% between runs of one seed;
/// one reader keeps the load to the server's one or two busy threads.
constexpr int kReaders = 1;
constexpr int kServerWorkers = 4;
/// A set-up takes about a millisecond, and a few in each run take several
/// times that, so setup_s is the median of many.
constexpr int kSetupRepeats = 100;
/// Summarize windows: one pass over the hot set; one delta batch's worth
/// of requests on serve_churn (each window then holds one fold).
constexpr size_t kHotWindowPasses = 1;
/// Traced runs split --seconds into a load phase whose windows alternate
/// untraced and traced (their throughput difference is the tracing
/// overhead) and an in-process probe phase that times each layer's public
/// call.
constexpr double kProbeShare = 0.30;

/// The service's estimator suite, in response order, with the span name
/// each is timed under.
constexpr std::array<std::pair<const char*, const char*>, 5> kSuite = {{
    {"max-hop-max", "estimators.max-hop-max"},
    {"all-hops-avg", "estimators.all-hops-avg"},
    {"molp", "estimators.molp"},
    {"cbs", "estimators.cbs"},
    {"cs", "estimators.cs"},
}};
constexpr size_t kMaxHopMax = 0, kMolp = 2, kCbs = 3;

std::vector<std::string> SuiteNames() {
  std::vector<std::string> names;
  for (const auto& [name, span] : kSuite) names.push_back(name);
  return names;
}

wire::Request EstimateFrame(const std::string& line) {
  wire::Request request;
  request.type = wire::MessageType::kEstimate;
  request.text = line;
  return request;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// log2(hi) >= log2(lo) up to the LP solver's tolerance (theory_test's).
bool AtLeast(double hi, double lo) {
  return std::log2(hi) >= std::log2(lo) - 1e-6;
}

struct Serving {
  std::unique_ptr<service::EstimationService> service;
  std::unique_ptr<service::TcpServer> server;  ///< destroyed first
};

/// The first request of every set-up: one fixed relation, so set-up time
/// does not depend on which pattern a seed happens to put first.
constexpr const char* kFirstRequest = "(a)-[0]->(b)";

/// Everything the program does before its first answer: open the arena
/// snapshot into a new service, start the TCP server, answer one request.
std::unique_ptr<Serving> StartServing(const ServeInputs& in,
                                      double& seconds) {
  const auto t0 = Clock::now();
  service::ServiceOptions options;
  options.estimators = SuiteNames();
  options.initial_snapshot = in.snapshot_path;
  options.compact_trigger_ops = 0;  // the writer folds on its schedule
  auto created = service::EstimationService::Create(in.graph, options);
  if (!created.ok()) Die("service: " + created.status().ToString());
  auto serving = std::make_unique<Serving>();
  serving->service = std::move(created).value();
  service::ServerOptions server_options;
  server_options.workers = kServerWorkers;
  serving->server = std::make_unique<service::TcpServer>(*serving->service,
                                                         server_options);
  if (auto started = serving->server->Start(); !started.ok()) {
    Die("server: " + started.ToString());
  }
  auto fd = wire::DialTcp("127.0.0.1", serving->server->port());
  if (!fd.ok()) Die("dial: " + fd.status().ToString());
  auto first = wire::RoundTrip(
      *fd, EstimateFrame(kFirstRequest));
  ::close(*fd);
  if (!first.ok() || !first->status.ok()) Die("first answer failed");
  seconds = SecondsSince(t0);
  return serving;
}

/// Starts serving kSetupRepeats times, tearing the previous service down
/// (untimed) first, and keeps the last; returns the median set-up time.
std::unique_ptr<Serving> RepeatedSetup(const ServeInputs& in,
                                       double& median_seconds) {
  std::vector<double> seconds(kSetupRepeats);
  std::unique_ptr<Serving> serving;
  for (double& s : seconds) {
    serving.reset();
    serving = StartServing(in, s);
  }
  median_seconds = Median(seconds);
  return serving;
}

/// Per-state cache counters summed over the timed phase. A delta fold
/// publishes a state with fresh counters, so the writer closes the
/// outgoing state's tally before each fold and opens the new one after.
class CacheTally {
 public:
  void Begin(const service::ServiceStats& stats) {
    base_.clear();
    for (const auto& row : stats.caches) base_[row.name] = row;
  }
  void End(const service::ServiceStats& stats) {
    for (const auto& row : stats.caches) {
      const auto& base = base_[row.name];
      Row& sum = sums_[row.name.substr(0, row.name.find('('))];
      sum.hits += row.hits - base.hits;
      sum.misses += row.misses - base.misses;
    }
  }
  double HitRatio(const std::string& name) const {
    const Row r = Get(name);
    return r.hits + r.misses ? static_cast<double>(r.hits) /
                                   static_cast<double>(r.hits + r.misses)
                             : 0;
  }
  double Misses(const std::string& name) const {
    return static_cast<double>(Get(name).misses);
  }

 private:
  struct Row {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  Row Get(const std::string& name) const {
    auto it = sums_.find(name);
    return it == sums_.end() ? Row{} : it->second;
  }
  std::map<std::string, service::ServiceStats::CacheRow> base_;
  std::map<std::string, Row> sums_;
};

/// What one closed-loop connection saw.
struct ConnLog {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Sample> samples;
  std::vector<double> post_fold_us;  ///< first reply of each new epoch
  /// (query index, epoch) -> the suite's answer, first seen.
  std::map<std::pair<size_t, uint64_t>, std::vector<double>> answers;
  bool seen = false;
  uint64_t last_epoch = 0;
};

struct LoadContext {
  const ServeInputs& in;
  int port = 0;
  Tracer& tracer;
  Checks& checks;
  /// serve_hot: requests carry base-graph truth, so each first answer is
  /// checked against the pessimistic bounds right away.
  bool check_bounds = false;
  /// Requests completed by every connection so far (the writer's clock).
  std::atomic<uint64_t>& served;
  /// Traced runs: the connection turns recording off for even and on for
  /// odd windows of this many requests (0: leaves the tracer alone). The
  /// tracer is process-wide, so this needs one reader connection.
  size_t alternate_ops = 0;
};

util::StatusOr<wire::Response> ClientRoundTrip(Tracer& tracer, int fd,
                                               const wire::Request& request,
                                               uint64_t request_id) {
  Tracer::Span span(tracer, "client.request", request_id);
  std::string payload;
  {
    Tracer::Span encode(tracer, "client.encode");
    payload = wire::EncodeRequest(request);
  }
  auto frame = [&]() -> util::StatusOr<std::string> {
    Tracer::Span io(tracer, "client.io");
    if (auto written = wire::WriteFrame(fd, payload); !written.ok()) {
      return written;
    }
    return wire::ReadFrame(fd);
  }();
  if (!frame.ok()) return frame.status();
  Tracer::Span decode(tracer, "client.decode");
  return wire::DecodeResponse(*frame);
}

/// Validates one reply and records it; false when the operation failed.
bool Record(const LoadContext& ctx, size_t qi, double rtt_us,
            const util::StatusOr<wire::Response>& response, ConnLog& log) {
  if (!response.ok()) {
    ctx.checks.Fail("transport: " + response.status().ToString());
    return false;
  }
  if (!response->status.ok()) {
    ctx.checks.Fail("server: " + response->status.ToString());
    return false;
  }
  const service::EstimateResponse& est = response->estimate;
  std::vector<double> values;
  bool ok = est.results.size() == kSuite.size();
  for (size_t i = 0; ok && i < kSuite.size(); ++i) {
    const auto& r = est.results[i];
    ok = r.ok && r.name == kSuite[i].first && std::isfinite(r.estimate) &&
         r.estimate >= 0;
    values.push_back(r.estimate);
  }
  if (!ctx.checks.Expect(ok, "non-finite, negative or missing estimate for " +
                                 ctx.in.lines[qi])) {
    return false;
  }
  if (!ctx.checks.Expect(!log.seen || est.epoch >= log.last_epoch,
                         "connection saw its epoch go backwards")) {
    return false;
  }
  if (log.seen && est.epoch > log.last_epoch) log.post_fold_us.push_back(rtt_us);
  log.seen = true;
  log.last_epoch = est.epoch;
  auto [it, inserted] = log.answers.try_emplace({qi, est.epoch}, values);
  if (!inserted) {
    return ctx.checks.Expect(BitEqual(it->second, values),
                             "answer changed within one epoch: " +
                                 ctx.in.lines[qi]);
  }
  if (ctx.check_bounds && ctx.in.queries[qi].query.IsAcyclic()) {
    const double truth = ctx.in.queries[qi].true_cardinality;
    return ctx.checks.Expect(
        AtLeast(values[kCbs], values[kMolp]) && AtLeast(values[kMolp], truth),
        "CBS >= MOLP >= truth violated: " + ctx.in.lines[qi]);
  }
  return true;
}

void DriveConnection(const LoadContext& ctx, int fd, size_t start,
                     Clock::time_point phase_start,
                     Clock::time_point deadline, uint64_t rid_base,
                     ConnLog& log) {
  const size_t n = ctx.in.order.size();
  for (size_t i = start; Clock::now() < deadline; ++i) {
    const size_t qi = ctx.in.order[i % n];
    if (ctx.alternate_ops && log.attempted % ctx.alternate_ops == 0) {
      ctx.tracer.set_recording(log.attempted / ctx.alternate_ops % 2 == 1);
    }
    ++log.attempted;
    const auto t0 = Clock::now();
    auto response =
        ClientRoundTrip(ctx.tracer, fd,
                        EstimateFrame(ctx.in.lines[qi]),
                        rid_base + log.attempted);
    const double rtt = MicrosSince(t0);
    if (Record(ctx, qi, rtt, response, log)) {
      log.samples.push_back(
          {SecondsSince(phase_start), rtt, ctx.tracer.recording()});
      ctx.served.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++log.failed;
    }
  }
}

/// `connections` closed-loop clients for `seconds`.
void RunLoad(const LoadContext& ctx, int connections, double seconds,
             uint64_t rid_base, std::vector<ConnLog>& logs) {
  std::vector<int> fds;
  for (int c = 0; c < connections; ++c) {
    auto fd = wire::DialTcp("127.0.0.1", ctx.port);
    if (!fd.ok()) Die("dial: " + fd.status().ToString());
    fds.push_back(*fd);
  }
  logs.resize(static_cast<size_t>(connections));
  const size_t n = ctx.in.order.size();
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      DriveConnection(ctx, fds[c], c * n / connections, t0, deadline,
                      rid_base + (static_cast<uint64_t>(c) << 32), logs[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int fd : fds) ::close(fd);
}

/// The churn writer's tally over its folds.
struct WriterLog {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t folds = 0;
  double evicted = 0;
  double carried = 0;
  double cs_drops = 0;
  std::vector<double> visible_ms;
};

/// Submits and flushes batch k once (k+1) * kRequestsPerBatch requests
/// have been served, until `stop` is set or the batches run out.
void RunWriter(service::EstimationService& svc, const ServeInputs& in,
               const std::atomic<uint64_t>& served,
               const std::atomic<bool>& stop, Tracer& tracer, Checks& checks,
               CacheTally& tally, WriterLog& log) {
  for (size_t k = 0; k < in.batches.size(); ++k) {
    const uint64_t due = (k + 1) * kRequestsPerBatch;
    while (served.load(std::memory_order_relaxed) < due &&
           !stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (stop.load(std::memory_order_relaxed)) break;
    ++log.attempted;
    tally.End(svc.Stats());
    const auto t0 = Clock::now();
    auto report = [&]() -> util::StatusOr<service::SwapReport> {
      Tracer::Span batch(tracer, "dynamic.batch", (1ull << 62) + k);
      util::Status submitted;
      {
        Tracer::Span submit(tracer, "dynamic.submit");
        submitted = svc.SubmitDeltas(in.batches[k]);
      }
      if (!submitted.ok()) return submitted;
      Tracer::Span fold(tracer, "dynamic.fold");
      return svc.FlushDeltas();
    }();
    log.visible_ms.push_back(SecondsSince(t0) * 1e3);
    tally.Begin(svc.Stats());
    if (!checks.Expect(report.ok(), "delta batch failed: " +
                                        report.status().ToString())) {
      ++log.failed;
      continue;
    }
    const auto& m = report->maintenance;
    ++log.folds;
    log.evicted += static_cast<double>(m.total_evicted());
    log.carried += static_cast<double>(m.markov_carried + m.joins_carried +
                                       m.closing_carried +
                                       m.dispersion_carried);
    log.cs_drops += m.char_sets_dropped ? 1 : 0;
  }
}

/// Traced runs only: for each request line in order, time every layer's
/// public call once — parse, canonical code, each suite estimator (code
/// already memoized), the in-process Estimate, the wire codecs, and one
/// TCP round trip of the same line.
/// Returns the mean of the service's own per-estimator micros across the
/// probed Estimate calls: `service.estimate` minus it is the service's
/// self time on the same calls, whatever the cache state (under churn an
/// estimator probed separately may build what the service then reuses).
double RunProbe(service::EstimationService& svc, const LoadContext& ctx,
                double seconds) {
  const ServeInputs& in = ctx.in;
  Tracer& tracer = ctx.tracer;
  Checks& checks = ctx.checks;
  double estimator_micros = 0;
  size_t estimates = 0;
  auto fd = wire::DialTcp("127.0.0.1", ctx.port);
  if (!fd.ok()) Die("dial: " + fd.status().ToString());
  const auto t0 = Clock::now();
  for (size_t i = 0; SecondsSince(t0) < seconds; ++i) {
    const std::string& line = in.lines[in.order[i % in.order.size()]];
    Tracer::Span root(tracer, "probe.request", (1ull << 61) + i);
    auto parsed = [&] {
      Tracer::Span span(tracer, "query.parse");
      return service::ParseRequestLine(line);
    }();
    if (!checks.Expect(parsed.ok(), "probe parse: " + line)) continue;
    {
      Tracer::Span span(tracer, "query.canonicalize");
      parsed->query.CanonicalCode();
    }
    {
      auto state = svc.AcquireState();
      for (size_t e = 0; e < kSuite.size(); ++e) {
        Tracer::Span span(tracer, kSuite[e].second);
        checks.Expect(state->suite[e]->Estimate(parsed->query).ok(),
                      "probe estimate: " + line);
      }
    }
    auto response = [&] {
      Tracer::Span span(tracer, "service.estimate");
      return svc.Estimate(*parsed);
    }();
    if (!checks.Expect(response.ok(), "probe service estimate: " + line)) {
      continue;
    }
    for (const auto& r : response->results) estimator_micros += r.micros;
    ++estimates;
    const wire::Request request = EstimateFrame(line);
    {
      Tracer::Span span(tracer, "service.wire_codec");
      wire::Response reply;
      reply.type = wire::MessageType::kEstimate;
      reply.estimate = *response;
      const bool ok =
          wire::DecodeRequest(wire::EncodeRequest(request)).ok() &&
          wire::DecodeResponse(wire::EncodeResponse(reply)).ok();
      checks.Expect(ok, "probe codec round trip: " + line);
    }
    {
      Tracer::Span span(tracer, "service.tcp_round_trip");
      auto reply = wire::RoundTrip(*fd, request);
      if (checks.Expect(reply.ok() && reply->status.ok(), "probe TCP: " + line)) {
        ctx.served.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  ::close(*fd);
  return estimates ? estimator_micros / static_cast<double>(estimates) : 0;
}

/// Fills the serving layers of `layers` from the span totals.
void ServeLayers(const std::map<std::string, SpanTotals>& totals,
                 double service_estimator_us, PerLayer& layers) {
  auto mean = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.mean_self_us();
  };
  layers.query_parse_us = mean("query.parse");
  layers.query_canonicalize_us = mean("query.canonicalize");
  layers.est_max_hop_max_us = mean("estimators.max-hop-max");
  layers.est_all_hops_avg_us = mean("estimators.all-hops-avg");
  layers.est_molp_us = mean("estimators.molp");
  layers.est_cbs_us = mean("estimators.cbs");
  layers.est_cs_us = mean("estimators.cs");
  layers.service_estimate_us = mean("service.estimate");
  layers.service_self_us = layers.service_estimate_us - service_estimator_us;
  layers.service_wire_codec_us = mean("service.wire_codec");
  layers.service_server_us =
      mean("service.tcp_round_trip") -
      (layers.query_parse_us + layers.query_canonicalize_us +
       layers.service_estimate_us);
  layers.dynamic_fold_ms = mean("dynamic.fold") / 1e3;
  if (auto it = totals.find("dynamic.batch"); it != totals.end()) {
    layers.dynamic_visible_ms = it->second.mean_us() / 1e3;
  }
}

template <typename T>
std::vector<T> Concat(const std::vector<ConnLog>& logs,
                      std::vector<T> ConnLog::*field) {
  std::vector<T> all;
  for (const ConnLog& log : logs) {
    all.insert(all.end(), (log.*field).begin(), (log.*field).end());
  }
  return all;
}

enum class Mix { kHot, kChurn };

size_t WindowOps(Mix mix, const ServeInputs& in) {
  return mix == Mix::kHot ? kHotWindowPasses * in.queries.size()
                          : kRequestsPerBatch;
}

/// Traced runs alternate tracing in units of at least one pass over the
/// request order, so traced and untraced windows serve the same mix of
/// queries. A churn window is about half a pass of the pool: strict
/// alternation would trace one half of the order and not the other, so
/// churn windows alternate in pairs.
size_t AlternateOps(Mix mix, const ServeInputs& in) {
  return mix == Mix::kHot ? WindowOps(mix, in) : 2 * WindowOps(mix, in);
}

WorkloadReport RunServe(Mix mix, const Options& options, Tracer& tracer,
                        Checks& checks) {
  const size_t num_batches =
      mix == Mix::kChurn
          ? static_cast<size_t>(options.seconds * kBatchesPerSecond)
          : 0;
  const ServeInputs in =
      mix == Mix::kHot
          ? MakeHotInputs(options.seed, options.work_dir)
          : MakeChurnInputs(options.seed, options.work_dir, num_batches);
  std::fprintf(stderr,
               "inputs: %zu distinct queries, %zu delta batches of %zu ops, "
               "snapshot prewarm %.1f ms\n",
               in.queries.size(), in.batches.size(), kDeltaBatchOps,
               in.prewarm_ms);

  WorkloadReport report;
  RssSampler rss;
  std::unique_ptr<Serving> serving = RepeatedSetup(in, report.e2e.setup_s);
  service::EstimationService& svc = *serving->service;
  service::TcpServer& server = *serving->server;
  const service::ServiceStats initial = svc.Stats();
  const uint64_t bytes0 = server.bytes_in() + server.bytes_out();
  const uint64_t frames0 = server.requests_handled();

  std::atomic<uint64_t> served{0};
  std::atomic<bool> stop_writer{false};
  LoadContext ctx{in, server.port(), tracer, checks, mix == Mix::kHot,
                  served};
  CacheTally tally;
  tally.Begin(initial);
  WriterLog writer_log;
  std::thread writer;
  if (mix == Mix::kChurn) {
    writer = std::thread(RunWriter, std::ref(svc), std::cref(in),
                         std::cref(served), std::cref(stop_writer),
                         std::ref(tracer), std::ref(checks), std::ref(tally),
                         std::ref(writer_log));
  }

  std::vector<ConnLog> logs;
  double overhead_pct = 0;
  double service_estimator_us = 0;
  if (!options.trace) {
    RunLoad(ctx, kReaders, options.seconds, 0, logs);
  } else {
    ctx.alternate_ops = AlternateOps(mix, in);
    RunLoad(ctx, kReaders, options.seconds * (1 - kProbeShare), 0, logs);
    ctx.alternate_ops = 0;
    tracer.set_recording(true);
    service_estimator_us =
        RunProbe(svc, ctx, options.seconds * kProbeShare);
    tracer.set_recording(false);
    overhead_pct = TracingOverheadPct(Concat(logs, &ConnLog::samples),
                                      WindowOps(mix, in));
  }
  stop_writer.store(true, std::memory_order_relaxed);
  if (writer.joinable()) writer.join();
  const service::ServiceStats final_stats = svc.Stats();
  tally.End(final_stats);
  report.e2e.peak_rss_mb = rss.PeakMb();

  for (const ConnLog& log : logs) {
    report.attempted += log.attempted;
    report.failed += log.failed;
  }
  report.attempted += writer_log.attempted;
  report.failed += writer_log.failed;
  const PhaseSummary load =
      Summarize(Concat(logs, &ConnLog::samples), WindowOps(mix, in));
  report.e2e.ops_per_s = load.ops_per_s;
  report.e2e.latency_p50_us = load.p50_us;
  report.e2e.latency_p90_us = load.p90_us;
  report.e2e.latency_samples = load.samples;
  if (!writer_log.visible_ms.empty()) {
    std::fprintf(stderr, "delta batches: %zu folds, visible median %.2f ms\n",
                 writer_log.folds, Median(writer_log.visible_ms));
  }

  // ---- checks (untimed) ----
  std::map<std::pair<size_t, uint64_t>, std::vector<double>> agreed;
  for (const ConnLog& log : logs) {
    for (const auto& [key, values] : log.answers) {
      auto [it, inserted] = agreed.try_emplace(key, values);
      if (!inserted) {
        checks.Expect(BitEqual(it->second, values),
                      "connections disagree within one epoch: " +
                          in.lines[key.first]);
      }
    }
  }
  std::vector<double> qerrors;
  const uint64_t final_epoch = final_stats.epoch;
  if (mix == Mix::kHot) {
    // Every TCP answer equals a cold engine over the same graph.
    engine::EstimationEngine cold(in.graph);
    auto suite = cold.Estimators(SuiteNames());
    if (!suite.ok()) Die("cold suite: " + suite.status().ToString());
    for (const auto& [key, values] : agreed) {
      const auto& wq = in.queries[key.first];
      std::vector<double> expected;
      for (const auto* estimator : *suite) {
        auto e = estimator->Estimate(wq.query);
        expected.push_back(e.ok() ? *e : -1);
      }
      checks.Expect(key.second == 0 && BitEqual(values, expected),
                    "TCP answer differs from a cold engine: " +
                        in.lines[key.first]);
      qerrors.push_back(QError(values[kMaxHopMax], wq.true_cardinality));
    }
  } else {
    // After the last fold: every pool answer equals a cold engine on the
    // base graph with the same batches applied by the benchmark, and MOLP
    // bounds the matcher's count on that graph for acyclic patterns.
    checks.Expect(writer_log.folds == writer_log.attempted &&
                      writer_log.folds < in.batches.size(),
                  "writer failed a batch or ran out of batches");
    const graph::Graph final_graph =
        ApplyBatches(*in.graph, in.batches, writer_log.folds);
    engine::EstimationEngine cold(final_graph);
    auto suite = cold.Estimators(SuiteNames());
    if (!suite.ok()) Die("cold suite: " + suite.status().ToString());
    cegraph::matching::Matcher matcher(final_graph);
    auto fd = wire::DialTcp("127.0.0.1", server.port());
    if (!fd.ok()) Die("dial: " + fd.status().ToString());
    ConnLog final_log;
    for (size_t qi = 0; qi < in.queries.size(); ++qi) {
      auto response =
          wire::RoundTrip(*fd, EstimateFrame(in.lines[qi]));
      if (!Record(ctx, qi, 0, response, final_log) ||
          !checks.Expect(response->estimate.epoch == final_epoch,
                         "final pass not served at the final epoch")) {
        continue;
      }
      std::vector<double> values;
      for (const auto& r : response->estimate.results) {
        values.push_back(r.estimate);
      }
      std::vector<double> expected;
      for (const auto* estimator : *suite) {
        auto e = estimator->Estimate(in.queries[qi].query);
        expected.push_back(e.ok() ? *e : -1);
      }
      checks.Expect(BitEqual(values, expected),
                    "final answer differs from a cold engine on the "
                    "delta-applied graph: " + in.lines[qi]);
      if (!in.queries[qi].query.IsAcyclic()) continue;
      auto truth = matcher.Count(in.queries[qi].query);
      if (!checks.Expect(truth.ok(), "matcher count failed: " + in.lines[qi])) {
        continue;
      }
      checks.Expect(AtLeast(values[kMolp], *truth),
                    "MOLP below truth on the final graph: " + in.lines[qi]);
      if (*truth > 0) qerrors.push_back(QError(values[kMaxHopMax], *truth));
    }
    ::close(*fd);
  }
  report.layers.est_qerror_p50 = Median(qerrors);

  if (options.trace) {
    PerLayer& layers = report.layers;
    ServeLayers(tracer.Totals(), service_estimator_us, layers);
    layers.engine_ceg_hit_ratio = tally.HitRatio("ceg-cache");
    layers.engine_ceg_builds = tally.Misses("ceg-cache");
    layers.engine_markov_hit_ratio = tally.HitRatio("markov");
    layers.engine_markov_misses = tally.Misses("markov");
    layers.engine_snapshot_open_ms = initial.snapshot_load.map_millis +
                                     initial.snapshot_load.parse_millis;
    layers.engine_prewarm_ms = in.prewarm_ms;
    const uint64_t frames = server.requests_handled() - frames0;
    layers.service_bytes_per_request =
        frames ? static_cast<double>(server.bytes_in() + server.bytes_out() -
                                     bytes0) /
                     static_cast<double>(frames)
               : 0;
    layers.service_post_fold_us = Mean(Concat(logs, &ConnLog::post_fold_us));
    if (writer_log.folds > 0) {
      const double folds = static_cast<double>(writer_log.folds);
      layers.dynamic_evicted_per_fold = writer_log.evicted / folds;
      layers.dynamic_carried_per_fold = writer_log.carried / folds;
      layers.dynamic_cs_drops = writer_log.cs_drops;
    }
    layers.trace_overhead_pct = overhead_pct;
  }
  return report;
}

}  // namespace

WorkloadReport RunServeHot(const Options& options, Tracer& tracer,
                           Checks& checks) {
  return RunServe(Mix::kHot, options, tracer, checks);
}

WorkloadReport RunServeChurn(const Options& options, Tracer& tracer,
                             Checks& checks) {
  return RunServe(Mix::kChurn, options, tracer, checks);
}

}  // namespace perfbench
