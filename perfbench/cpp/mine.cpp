// `mine`: exact-certified worst-case mining in E14's shape.
//
// Why: the instances are tiny (they fit in L1) and each objective call is
// about 10 us, split between the `sim` replay (with prefix-replay resumes),
// the `offline` exact solver and lower-bound pre-cut, and the `adversary`
// miner's own bookkeeping (memo, lockstep screen). 14 jobs rather than
// E14's 10 so the exact solver carries a real share of the time.
//
// A unit is one pool-less mine_worst_case call (population 512, 200 rounds,
// 64 mutations per round, 14 jobs, horizon 16). Units cycle through E14's
// 8 target keys in a fixed order, one key per unit; a cycle is kStreams
// such rotations, and every unit has its own seed stream. A mine's cost
// depends strongly on its seed (how early a high incumbent lets the
// pre-cut settle candidates), so a run averages over 16 streams x 8 keys
// for runs with different seeds to agree.
//
// Units run without a pool: the miner's batches are so fine-grained (tens
// of microseconds) that on a host whose hypervisor steals CPU time every
// batch barrier waits for a descheduled thread, and pooled runs differed
// by 30-50% from run to run. The pooled path still runs, untimed: it
// computes the reference every unit must equal.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <sstream>

#include "adversary/instance_miner.h"
#include "common.h"
#include "offline/exact.h"
#include "offline/lower_bound.h"
#include "schedulers/classify_by_duration.h"
#include "schedulers/profit.h"
#include "schedulers/registry.h"
#include "sim/portfolio.h"
#include "support/thread_pool.h"

namespace fjs::bench {
namespace {

struct Target {
  const char* key;
  double bound;  // proven ratio bound for mu <= 5 (lengths 1..5); 0 = none
};

std::vector<Target> e14_targets() {
  const double mu = 5.0;
  const double alpha = CdbScheduler::optimal_alpha();
  const double k = ProfitScheduler::optimal_k();
  return {
      {"eager", 0.0},
      {"lazy", 0.0},
      {"batch", 2.0 * mu + 1.0},
      {"batch+", mu + 1.0},
      {"cdb", 3.0 * alpha + 4.0 + 2.0 / (alpha - 1.0)},
      {"profit", 2.0 * k + 2.0 + 1.0 / (k - 1.0)},
      {"doubler*", 0.0},
      {"overlap", 0.0},
  };
}

bool same_result(const MinerResult& a, const MinerResult& b) {
  if (a.worst_ratio != b.worst_ratio || a.trajectory != b.trajectory ||
      a.evaluations != b.evaluations || a.memo_hits != b.memo_hits ||
      a.screen_rejects != b.screen_rejects ||
      a.budget_skips != b.budget_skips ||
      a.worst_instance.size() != b.worst_instance.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.worst_instance.size(); ++i) {
    const auto id = static_cast<JobId>(i);
    const Job x = a.worst_instance.job(id);
    const Job y = b.worst_instance.job(id);
    if (x.arrival != y.arrival || x.deadline != y.deadline ||
        x.length != y.length) {
      return false;
    }
  }
  return true;
}

constexpr std::size_t kStreams = 16;
constexpr std::uint64_t kWarmupSeed = 0;

/// Status tags of exact-solver spans.
enum ExactTag : std::uint16_t { kOptimal = 0, kFloor = 1, kBudget = 2 };

class MineWorkload final : public Workload {
 public:
  explicit MineWorkload(const RunConfig& config)
      : config_(config), targets_(e14_targets()) {}

  void setup() override {
    // Warm-up: one mine per key grows the replay runner, checkpoint series
    // and solver scratch. Its seeds are the same in every run: a mine's
    // cost depends strongly on its seed, and setup_s should not.
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      MinerOptions options = options_for(i, nullptr);
      options.seed = mix_seed(kWarmupSeed, i);
      mine_worst_case(key_of(i), options);
    }
  }

  void build_reference(Outcome& out) override {
    // The same mines on a pool (nproc - 1 workers and the caller): the
    // result must not depend on the thread count.
    ThreadPool pool(pool_workers());
    reference_.clear();
    for (std::size_t i = 0; i < cycle_units(); ++i) {
      reference_.push_back(mine_worst_case(key_of(i), options_for(i, &pool)));
      check_sound(reference_.back(), i, out);
    }
  }

  std::size_t cycle_units() const override {
    return kStreams * targets_.size();
  }

  double run_unit(std::size_t i, Outcome& out) override {
    const MinerResult r = mine_worst_case(key_of(i), options_for(i, nullptr));
    account(r, i, "mine", out);
    return static_cast<double>(r.evaluations);
  }

  double run_traced_unit(std::size_t i, Outcome& out) override {
    MinerOptions options = options_for(i, nullptr);
    options.screen_lb_precut = true;
    const std::string key = key_of(i);
    const bool clairvoyant = make_scheduler(key)->requires_clairvoyance();
    std::atomic<std::size_t> budget_skips{0};
    MinerResult r = mine_instance(
        [&key, clairvoyant, &budget_skips](InstanceView view, double threshold,
                                           Time earliest_affected) {
          return traced_objective(key, clairvoyant, view, threshold,
                                  earliest_affected, budget_skips);
        },
        options);
    r.budget_skips = budget_skips.load();
    account(r, i, "traced mine", out);
    return static_cast<double>(r.evaluations);
  }

  void layer_metrics(const std::vector<Span>& spans,
                     const CounterDelta& counters, std::size_t units,
                     Outcome& out) override {
    std::size_t calls = 0;
    std::size_t exact_calls = 0;
    std::size_t precuts = 0;
    std::uint64_t nodes = 0;
    std::uint64_t settled = 0;
    std::uint64_t floor_proven = 0;
    std::uint64_t budget = 0;
    for (const Span& s : spans) {
      if (s.name == kSpanExact) {
        ++exact_calls;
        nodes += s.value;
        floor_proven += s.tag == kFloor ? 1 : 0;
        budget += s.tag == kBudget ? 1 : 0;
      } else if (s.name == kSpanPrecut) {
        ++precuts;
        settled += s.value;
      }
    }
    const double run_span_ms = span_total_ms(spans, kSpanReplay, &calls);
    const auto per = [](double total, std::size_t n) {
      return n == 0 ? 0.0 : total / static_cast<double>(n);
    };
    const auto n_units = static_cast<double>(units);
    set_metric(out, "sim.run_span_us", per(run_span_ms * 1e3, calls));
    set_metric(out, "offline.precut_us",
               per(span_total_ms(spans, kSpanPrecut) * 1e3, precuts));
    set_metric(out, "offline.exact_us",
               per(span_total_ms(spans, kSpanExact) * 1e3, exact_calls));
    set_metric(out, "offline.exact_nodes",
               per(static_cast<double>(nodes), exact_calls));
    set_metric(out, "offline.exact_calls",
               static_cast<double>(exact_calls) / n_units);
    set_metric(out, "offline.floor_proven_frac",
               per(static_cast<double>(floor_proven), exact_calls));
    set_metric(out, "offline.budget_exceeded",
               static_cast<double>(budget) / n_units);
    set_metric(out, "adversary.precut_settle_frac",
               per(static_cast<double>(settled), precuts));
    // Miner self time: the part of each unit outside objective calls
    // (candidate generation, memo, lockstep screen and selection).
    set_metric(out, "adversary.miner_self_ms",
               uncovered_ms(spans, kSpanUnit, kSpanObjective) / n_units);
    counter_metrics(counters, units, out);
  }

  bool single_threaded() const override { return true; }

  std::string describe() const override {
    std::ostringstream os;
    os << "mine: " << kStreams << " rotations through " << targets_.size()
       << " E14 target keys, population 512, 200 rounds x 64 mutations, "
          "14 jobs, horizon 16, single-threaded (pooled reference)";
    return os.str();
  }

 private:
  const Target& target_of(std::size_t i) const {
    return targets_[i % targets_.size()];
  }
  std::string key_of(std::size_t i) const { return target_of(i).key; }

  /// Unit i mines target i % 8 with its own seed stream.
  MinerOptions options_for(std::size_t i, ThreadPool* pool) const {
    MinerOptions options;
    options.population = 512;
    options.rounds = 200;
    options.mutations_per_round = 64;
    options.jobs = 14;
    options.horizon = 16;
    options.seed = mix_seed(config_.seed, i);
    options.pool = pool;
    return options;
  }

  /// mine_worst_case's objective, call for call, with a span around each
  /// public call it makes (see adversary/instance_miner.cpp).
  static double traced_objective(const std::string& key, bool clairvoyant,
                                 InstanceView view, double threshold,
                                 Time earliest_affected,
                                 std::atomic<std::size_t>& budget_skips) {
    ScopedSpan objective(kSpanObjective);
    thread_local PortfolioRunner runner;
    thread_local std::unique_ptr<OnlineScheduler> scheduler;
    thread_local std::string scheduler_key;
    thread_local std::vector<Time> starts;
    if (!scheduler || scheduler_key != key) {
      scheduler = make_scheduler(key);
      scheduler_key = key;
    }
    runner.enable_prefix_replay(EngineCheckpointSeries::kDefaultSlots,
                                /*include_nonclairvoyant=*/true);
    Time span;
    {
      ScopedSpan replay(kSpanReplay);
      span = runner.run_span(view, PortfolioEntry{scheduler.get(), clairvoyant},
                             &starts, earliest_affected);
    }
    if (threshold > 0.0) {
      ScopedSpan precut(kSpanPrecut);
      Time lb = max_length_lower_bound(view);
      if (lb > Time::zero() && time_ratio(span, lb) <= threshold) {
        precut.set_value(1);
        return time_ratio(span, lb);
      }
      lb = std::max(lb, mandatory_lower_bound(view));
      if (lb > Time::zero() && time_ratio(span, lb) <= threshold) {
        precut.set_value(1);
        return time_ratio(span, lb);
      }
      lb = std::max(lb, chain_lower_bound(view));
      if (lb > Time::zero() && time_ratio(span, lb) <= threshold) {
        precut.set_value(1);
        return time_ratio(span, lb);
      }
    }
    ExactOptions exact_options;
    exact_options.seed_with_heuristic = false;
    exact_options.span_only = true;
    exact_options.seed_span = span;
    exact_options.max_cache_entries = 0;
    if (threshold > 0.0) {
      auto floor_ticks = static_cast<std::int64_t>(
          std::ceil(static_cast<double>(span.ticks()) / threshold));
      while (floor_ticks > 0 &&
             time_ratio(span, Time(floor_ticks)) > threshold) {
        ++floor_ticks;
      }
      exact_options.decision_floor = Time(floor_ticks);
    }
    ExactResult opt;
    {
      ScopedSpan exact(kSpanExact);
      opt = exact_optimal(view, exact_options);
      exact.set_value(opt.nodes_explored);
      exact.set_tag(opt.status == ExactStatus::kFloorProven ? kFloor
                    : opt.optimal()                         ? kOptimal
                                                            : kBudget);
    }
    if (opt.status == ExactStatus::kFloorProven) {
      return time_ratio(span, exact_options.decision_floor);
    }
    if (!opt.optimal()) {
      budget_skips.fetch_add(1, std::memory_order_relaxed);
      return 0.0;
    }
    return time_ratio(span, opt.span);
  }

  /// Output checks that need no reference: ratio >= 1, a non-decreasing
  /// trajectory, and the proven bound where E14 has one.
  bool check_sound(const MinerResult& r, std::size_t i, Outcome& out) const {
    const Target& target = target_of(i);
    const std::string key = target.key;
    bool ok = out.check(r.worst_ratio >= 1.0 - 1e-9,
                        "mine " + key + ": ratio < 1");
    ok &= out.check(
        std::is_sorted(r.trajectory.begin(), r.trajectory.end()),
        "mine " + key + ": trajectory decreases");
    if (target.bound > 0.0) {
      ok &= out.check(r.worst_ratio <= target.bound + 1e-6,
                      "mine " + key + ": ratio above the proven bound");
    }
    return ok;
  }

  void account(const MinerResult& r, std::size_t i, const char* what,
               Outcome& out) {
    bool ok = check_sound(r, i, out);
    ok &= out.check(same_result(r, reference_[i]),
                    std::string(what) + " " + key_of(i) +
                        ": result differs from the pooled reference");
    // Budget exhaustions are failed evaluations; a failed check fails all
    // of the unit's evaluations.
    out.attempted += r.evaluations;
    out.failed += ok ? r.budget_skips : r.evaluations;
  }

  RunConfig config_;
  std::vector<Target> targets_;
  std::vector<MinerResult> reference_;
};

}  // namespace

std::unique_ptr<Workload> make_mine(const RunConfig& config) {
  return std::make_unique<MineWorkload>(config);
}

}  // namespace fjs::bench
