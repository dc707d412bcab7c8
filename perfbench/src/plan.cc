// plan_dp: the paper's §6.6 use of an estimator — a DP join optimizer asks
// for one estimate per connected sub-plan — on the Fig. 15 acyclic
// workload, with the chosen plans executed afterwards as the check.
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>

#include "engine/engine.h"
#include "inputs.h"
#include "planner/dp_optimizer.h"
#include "planner/executor.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace engine = cegraph::engine;
namespace planner = cegraph::planner;
namespace util = cegraph::util;
using cegraph::CardinalityEstimator;

constexpr int kSetupRepeats = 3;
/// Summarize windows: one pass over the workload.
constexpr size_t kWindowPasses = 1;
/// Queries up to this many edges get the exhaustive bushy-plan check (the
/// whole Acyclic suite: 6- to 8-edge trees).
constexpr uint32_t kExhaustiveMaxEdges = 8;

/// The optimizer's estimators, with the span each sub-plan estimate is
/// timed under and whether the estimator computes the sub-pattern's
/// canonical code itself (max-hop-max keys its CEG cache by it; MOLP reads
/// degree statistics per relation and never does).
struct PlanEstimator {
  const char* name;
  const char* span;
  bool canonicalizes;
};
constexpr PlanEstimator kPlanEstimators[] = {
    {"max-hop-max", "estimators.max-hop-max", true},
    {"molp", "estimators.molp", false},
};
constexpr size_t kNumEstimators = std::size(kPlanEstimators);

/// What the traced run hands the optimizer: wraps each sub-plan estimate
/// in a span and, for an estimator that canonicalizes, computes the
/// sub-pattern's canonical code first under its own span, so the estimator
/// span sees the code memoized and canonicalization is counted once.
class TracedEstimator : public CardinalityEstimator {
 public:
  TracedEstimator(const CardinalityEstimator& inner, Tracer& tracer,
                  const PlanEstimator& spec)
      : inner_(inner), tracer_(tracer), spec_(spec) {}
  std::string name() const override { return inner_.name(); }
  util::StatusOr<double> Estimate(
      const query::QueryGraph& q) const override {
    Tracer::Span call(tracer_, "planner.estimate");
    if (spec_.canonicalizes) {
      Tracer::Span span(tracer_, "query.canonicalize_subplan");
      q.CanonicalCode();
    }
    Tracer::Span span(tracer_, spec_.span);
    return inner_.Estimate(q);
  }

 private:
  const CardinalityEstimator& inner_;
  Tracer& tracer_;
  const PlanEstimator& spec_;
};

struct Planning {
  std::unique_ptr<engine::EstimationEngine> engine;
  std::vector<const CardinalityEstimator*> estimators;
};

/// Everything before steady-state answers: a cold engine, Prewarm over the
/// workload, and a first plan of every query under every estimator (which
/// builds each sub-plan class's CEG once).
Planning StartPlanning(const PlanInputs& in, Tracer& tracer,
                       double& seconds) {
  const auto t0 = Clock::now();
  Planning p;
  p.engine = std::make_unique<engine::EstimationEngine>(in.graph);
  {
    Tracer::Span span(tracer, "engine.prewarm");
    p.engine->context().Prewarm(in.queries);
  }
  for (const PlanEstimator& spec : kPlanEstimators) {
    auto estimator = p.engine->Estimator(spec.name);
    if (!estimator.ok()) Die(estimator.status().ToString());
    p.estimators.push_back(*estimator);
  }
  for (const auto* estimator : p.estimators) {
    for (const query::WorkloadQuery& wq : in.queries) {
      auto first = planner::DpOptimizer(*estimator).Optimize(wq.query);
      if (!first.ok()) Die("first plan: " + first.status().ToString());
    }
  }
  seconds = SecondsSince(t0);
  return p;
}

struct CacheCounts {
  uint64_t ceg_hits = 0, ceg_misses = 0, markov_hits = 0, markov_misses = 0;
};

CacheCounts ReadCaches(const engine::EstimationContext& context) {
  CacheCounts c;
  for (const auto& row : context.CollectCacheStats()) {
    if (row.name == "ceg-cache") {
      c.ceg_hits += row.counters.hits;
      c.ceg_misses += row.counters.misses;
    } else if (row.name.starts_with("markov")) {
      c.markov_hits += row.counters.hits;
      c.markov_misses += row.counters.misses;
    }
  }
  return c;
}

double Ratio(uint64_t num, uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0;
}

struct LoopLog {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Sample> samples;
};

/// Plans queries in seeded order until `seconds` pass. One operation is
/// one query planned under every estimator; its latency is the sum of
/// those Optimize calls. Each estimator's plan cost is checked to repeat
/// bit for bit across passes. With `traced` estimators (traced runs),
/// passes over the workload alternate: even passes use `estimators` with
/// the tracer off, odd passes `traced` with it recording.
void PlanLoop(const PlanInputs& in,
              const std::vector<const CardinalityEstimator*>& estimators,
              const std::vector<const CardinalityEstimator*>* traced,
              double seconds, Tracer& tracer,
              std::map<std::pair<size_t, size_t>, double>& costs,
              Checks& checks, LoopLog& log) {
  std::vector<planner::DpOptimizer> optimizers[2];
  for (const auto* e : estimators) optimizers[0].emplace_back(*e);
  if (traced != nullptr) {
    for (const auto* e : *traced) optimizers[1].emplace_back(*e);
  }
  const std::vector<size_t>& order = in.order;
  const auto t0 = Clock::now();
  for (size_t i = 0; SecondsSince(t0) < seconds; ++i) {
    const size_t qi = order[i % order.size()];
    const bool tracing = traced != nullptr && i / order.size() % 2 == 1;
    if (i % order.size() == 0) tracer.set_recording(tracing);
    ++log.attempted;
    bool ok = true;
    const auto start = Clock::now();
    for (size_t e = 0; e < estimators.size(); ++e) {
      auto plan = [&] {
        Tracer::Span span(tracer, "planner.optimize", i + 1);
        return optimizers[tracing][e].Optimize(in.queries[qi].query);
      }();
      if (!checks.Expect(plan.ok(), "Optimize failed")) {
        ok = false;
        continue;
      }
      auto [it, inserted] = costs.try_emplace({qi, e}, plan->estimated_cost);
      ok &= inserted || checks.Expect(
                            std::bit_cast<uint64_t>(it->second) ==
                                std::bit_cast<uint64_t>(plan->estimated_cost),
                            "plan cost changed between passes");
    }
    if (ok) {
      log.samples.push_back({SecondsSince(t0), MicrosSince(start), tracing});
    } else {
      ++log.failed;
    }
  }
  tracer.set_recording(false);
}

bool Connected(const query::QueryGraph& q, query::EdgeSet s) {
  // Grow from the lowest edge through shared endpoints.
  query::EdgeSet reached = s & (~s + 1);
  for (bool grew = true; grew;) {
    grew = false;
    for (uint32_t e = 0; e < q.num_edges(); ++e) {
      if (!(s >> e & 1) || (reached >> e & 1)) continue;
      for (uint32_t r = 0; r < q.num_edges(); ++r) {
        if (!(reached >> r & 1)) continue;
        const auto& a = q.edge(e);
        const auto& b = q.edge(r);
        if (a.src == b.src || a.src == b.dst || a.dst == b.src ||
            a.dst == b.dst) {
          reached |= query::EdgeSet{1} << e;
          grew = true;
          break;
        }
      }
    }
  }
  return reached == s;
}

/// Cheapest bushy plan over connected sub-plans, by trying every split of
/// every sub-plan (no memo: each plan tree is costed): the sum of the
/// internal nodes' estimates.
double ExhaustiveMinCost(query::EdgeSet s, const std::vector<double>& card,
                         const std::vector<bool>& connected) {
  if (std::popcount(s) == 1) return 0;
  double best = std::numeric_limits<double>::infinity();
  for (query::EdgeSet left = (s - 1) & s; left != 0; left = (left - 1) & s) {
    const query::EdgeSet right = s & ~left;
    if (left > right || !connected[left] || !connected[right]) continue;
    best = std::min(best, ExhaustiveMinCost(left, card, connected) +
                              ExhaustiveMinCost(right, card, connected));
  }
  return best + card[s];
}

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

/// Checks one plan against the query and the estimator, independently of
/// the optimizer; returns false on any violation.
bool CheckPlan(const query::WorkloadQuery& wq, const planner::Plan& plan,
               const CardinalityEstimator& estimator, Checks& checks) {
  const query::QueryGraph& q = wq.query;
  const uint32_t m = q.num_edges();
  const query::EdgeSet all = q.AllEdges();
  if (!checks.Expect(plan.root >= 0 &&
                         static_cast<size_t>(plan.root) < plan.nodes.size(),
                     "plan has no root")) {
    return false;
  }
  std::vector<int> visits(plan.nodes.size(), 0);
  query::EdgeSet leaves = 0;
  int leaf_count = 0;
  double internal_sum = 0;
  bool ok = true;
  std::function<void(int)> walk = [&](int id) {
    if (id < 0 || static_cast<size_t>(id) >= plan.nodes.size() ||
        visits[id]++ > 0) {
      ok = false;
      return;
    }
    const planner::PlanNode& node = plan.nodes[id];
    ok &= node.subquery != 0 && (node.subquery & ~all) == 0 &&
          Connected(q, node.subquery);
    auto est = estimator.Estimate(q.ExtractPattern(node.subquery));
    ok &= est.ok() && std::bit_cast<uint64_t>(*est) ==
                          std::bit_cast<uint64_t>(node.estimated_cardinality);
    if (node.left < 0 && node.right < 0) {
      ok &= std::popcount(node.subquery) == 1 &&
            node.subquery == query::EdgeSet{1} << node.scan_edge;
      leaves |= node.subquery;
      ++leaf_count;
      return;
    }
    internal_sum += node.estimated_cardinality;
    walk(node.left);
    walk(node.right);
    if (!ok) return;
    const query::EdgeSet l = plan.nodes[node.left].subquery;
    const query::EdgeSet r = plan.nodes[node.right].subquery;
    ok &= (l & r) == 0 && (l | r) == node.subquery;
  };
  walk(plan.root);
  ok = checks.Expect(ok && plan.nodes[plan.root].subquery == all &&
                         leaves == all && leaf_count == static_cast<int>(m),
                     "plan is not a binary tree over connected sub-queries "
                     "with every edge once: " + wq.template_name) &&
       checks.Expect(Close(plan.estimated_cost, internal_sum),
                     "estimated_cost is not the sum of internal estimates");
  if (!ok || m > kExhaustiveMaxEdges) return ok;
  std::vector<double> card(size_t{1} << m, 0);
  std::vector<bool> connected(size_t{1} << m, false);
  for (query::EdgeSet s = 1; s <= all; ++s) {
    connected[s] = Connected(q, s);
    if (!connected[s]) continue;
    auto est = estimator.Estimate(q.ExtractPattern(s));
    if (!checks.Expect(est.ok(), "sub-plan estimate failed")) return false;
    card[s] = *est;
  }
  const double best = ExhaustiveMinCost(all, card, connected);
  return checks.Expect(plan.estimated_cost <= best * (1 + 1e-9),
                       "exhaustive enumeration found a cheaper plan: " +
                           wq.template_name);
}

}  // namespace

WorkloadReport RunPlanDp(const Options& options, Tracer& tracer,
                         Checks& checks) {
  const PlanInputs in = MakePlanInputs(options.seed);
  std::fprintf(stderr, "inputs: %zu queries on %s\n", in.queries.size(),
               kPlanDataset);

  WorkloadReport report;
  RssSampler rss;
  tracer.set_recording(options.trace);
  std::vector<double> setups(kSetupRepeats);
  Planning planning;
  for (double& s : setups) {
    planning = {};  // one engine at a time
    planning = StartPlanning(in, tracer, s);
  }
  report.e2e.setup_s = Median(setups);
  tracer.set_recording(false);
  const engine::EstimationContext& context = planning.engine->context();

  std::map<std::pair<size_t, size_t>, double> costs;
  LoopLog log;
  const CacheCounts before = ReadCaches(context);
  double overhead_pct = 0;
  if (!options.trace) {
    PlanLoop(in, planning.estimators, nullptr, options.seconds, tracer,
             costs, checks, log);
  } else {
    std::vector<std::unique_ptr<TracedEstimator>> wrapped;
    std::vector<const CardinalityEstimator*> traced;
    for (size_t e = 0; e < kNumEstimators; ++e) {
      wrapped.push_back(std::make_unique<TracedEstimator>(
          *planning.estimators[e], tracer, kPlanEstimators[e]));
      traced.push_back(wrapped.back().get());
    }
    PlanLoop(in, planning.estimators, &traced, options.seconds, tracer,
             costs, checks, log);
    overhead_pct = TracingOverheadPct(log.samples,
                                      kWindowPasses * in.queries.size());
  }
  const CacheCounts after = ReadCaches(context);
  report.e2e.peak_rss_mb = rss.PeakMb();
  report.attempted = log.attempted;
  report.failed = log.failed;
  const PhaseSummary loop =
      Summarize(log.samples, kWindowPasses * in.queries.size());
  report.e2e.ops_per_s = loop.ops_per_s;
  report.e2e.latency_p50_us = loop.p50_us;
  report.e2e.latency_p90_us = loop.p90_us;
  report.e2e.latency_samples = loop.samples;

  // ---- checks (untimed): every query's plan under every estimator ----
  tracer.set_recording(options.trace);
  planner::Executor executor(*in.graph);
  double plan_tuples = 0;
  std::vector<double> qerrors;
  for (size_t qi = 0; qi < in.queries.size(); ++qi) {
    const query::WorkloadQuery& wq = in.queries[qi];
    for (size_t e = 0; e < kNumEstimators; ++e) {
      const CardinalityEstimator& estimator = *planning.estimators[e];
      auto plan = planner::DpOptimizer(estimator).Optimize(wq.query);
      if (!checks.Expect(plan.ok(), "Optimize failed") ||
          !CheckPlan(wq, *plan, estimator, checks)) {
        continue;
      }
      auto it = costs.find({qi, e});
      checks.Expect(it == costs.end() ||
                        std::bit_cast<uint64_t>(it->second) ==
                            std::bit_cast<uint64_t>(plan->estimated_cost),
                    "plan cost differs from the timed phase");
      if (e == 0) {
        qerrors.push_back(QError(plan->nodes[plan->root].estimated_cardinality,
                                 wq.true_cardinality));
      }
      auto run = [&] {
        Tracer::Span span(tracer, "planner.execute", (1ull << 60) + qi);
        return executor.Execute(wq.query, *plan);
      }();
      if (!checks.Expect(run.ok(), "execution failed: " + wq.template_name)) {
        continue;
      }
      checks.Expect(run->output_cardinality == wq.true_cardinality,
                    "executed plan disagrees with the matcher count: " +
                        wq.template_name);
      plan_tuples += static_cast<double>(run->total_intermediate_tuples);
    }
  }
  tracer.set_recording(false);
  report.layers.est_qerror_p50 = Median(qerrors);

  if (options.trace) {
    const auto totals = tracer.Totals();
    auto get = [&](const char* name) {
      auto it = totals.find(name);
      return it == totals.end() ? SpanTotals{} : it->second;
    };
    PerLayer& layers = report.layers;
    const SpanTotals optimize = get("planner.optimize");
    const SpanTotals call = get("planner.estimate");
    const SpanTotals canon = get("query.canonicalize_subplan");
    const SpanTotals mhm = get("estimators.max-hop-max");
    const SpanTotals molp = get("estimators.molp");
    layers.query_canonicalize_subplan_us = canon.mean_us();
    layers.query_subplans_per_query = Ratio(call.count, optimize.count);
    layers.est_max_hop_max_us = mhm.mean_us();
    layers.est_molp_us = molp.mean_us();
    layers.est_plan_estimate_us =
        (mhm.total_us + molp.total_us) / static_cast<double>(
                                             std::max<uint64_t>(
                                                 1, mhm.count + molp.count));
    layers.engine_ceg_hit_ratio =
        Ratio(after.ceg_hits - before.ceg_hits,
              after.ceg_hits - before.ceg_hits + after.ceg_misses -
                  before.ceg_misses);
    layers.engine_ceg_builds =
        static_cast<double>(after.ceg_misses - before.ceg_misses);
    layers.engine_markov_hit_ratio =
        Ratio(after.markov_hits - before.markov_hits,
              after.markov_hits - before.markov_hits + after.markov_misses -
                  before.markov_misses);
    layers.engine_markov_misses =
        static_cast<double>(after.markov_misses - before.markov_misses);
    layers.engine_prewarm_ms = get("engine.prewarm").mean_us() / 1e3;
    layers.planner_dp_self_ms = optimize.mean_self_us() / 1e3;
    layers.planner_estimator_share =
        optimize.total_us > 0 ? call.total_us / optimize.total_us : 0;
    layers.planner_execute_ms = get("planner.execute").mean_us() / 1e3;
    layers.planner_plan_tuples = plan_tuples;
    layers.trace_overhead_pct = overhead_pct;
  }
  return report;
}

}  // namespace perfbench
