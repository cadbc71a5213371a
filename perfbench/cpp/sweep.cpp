// `sweep`: competitive-ratio brackets in E7's shape at a larger size.
//
// Why: the offline heuristic upper bound dominates (about 96% of the
// serial busy time), its pool tasks are coarse, and prefix replay only
// captures checkpoints here (it never resumes), so this is the workload
// where the `offline` heuristic and coarse pool scheduling show, and
// where checkpoint capture is pure overhead.
//
// Inputs: the 8 standard_suite() families x 32 seed groups at n = 400.
// A unit is one run_ratio_sweep over one seed group (8 cases, one per
// family) with all 9 registry schedulers, E7's full heuristic settings and
// the benchmark's pool; units cycle through the seed groups.
#include <algorithm>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "analysis/sweep.h"
#include "common.h"
#include "offline/lower_bound.h"
#include "schedulers/registry.h"
#include "sim/portfolio.h"
#include "support/parallel.h"
#include "support/thread_pool.h"
#include "workload/generator.h"
#include "workload/suite.h"

namespace fjs::bench {
namespace {

constexpr std::size_t kJobs = 400;
// Many seed groups: per-case heuristic cost varies with the instance, and
// a run must average over enough instances that runs with different seeds
// agree.
constexpr std::size_t kGroups = 32;
constexpr std::size_t kWarmupGroups = 4;

/// Every sample of every aggregate in insertion (case) order, for a
/// bit-for-bit comparison of two sweeps.
std::vector<std::vector<double>> fingerprint(
    const std::vector<SchedulerAggregate>& aggs) {
  std::vector<std::vector<double>> out;
  for (const auto& agg : aggs) {
    out.push_back(agg.ratio_lower.samples());
    out.push_back(agg.ratio_upper.samples());
    out.push_back(agg.spans.samples());
  }
  return out;
}

class SweepWorkload final : public Workload {
 public:
  explicit SweepWorkload(const RunConfig& config) : config_(config) {}

  void setup() override {
    const std::int64_t t0 = now_ns();
    groups_.assign(kGroups, {});
    for (std::size_t g = 0; g < kGroups; ++g) {
      const std::uint64_t seed = mix_seed(config_.seed, g);
      for (const auto& named : standard_suite()) {
        WorkloadConfig wc = named.config;
        wc.job_count = kJobs;
        groups_[g].push_back(SweepCase{
            .label = named.name, .seed = seed,
            .instance = generate_workload(wc, seed)});
      }
    }
    generate_ms_ = ms_between(t0, now_ns());
    keys_ = known_scheduler_keys();
    pool_ = std::make_unique<ThreadPool>(pool_workers());
    options_.heuristic_options.restarts = 1;
    options_.heuristic_options.max_passes = 8;
    options_.pool = pool_.get();
    // Warm-up: a few groups grow the workers' thread-local runners,
    // scheduler caches and heuristic scratch.
    for (std::size_t g = 0; g < kWarmupGroups; ++g) {
      run_ratio_sweep(groups_[g], keys_, options_);
    }
  }

  void build_reference(Outcome& out) override {
    // Serial sweeps, one per group, fanned out over the pool.
    SweepOptions serial = options_;
    serial.serial = true;
    serial.pool = nullptr;
    std::vector<std::vector<SchedulerAggregate>> aggs(kGroups);
    parallel_for(
        *pool_, kGroups,
        [&](std::size_t g) {
          aggs[g] = run_ratio_sweep(groups_[g], keys_, serial);
        },
        1, ChunkPolicy::kDynamic);
    reference_.clear();
    for (std::size_t g = 0; g < kGroups; ++g) {
      check_brackets(aggs[g], g, out);
      reference_.push_back(fingerprint(aggs[g]));
    }
  }

  std::size_t cycle_units() const override { return kGroups; }

  double run_unit(std::size_t g, Outcome& out) override {
    const auto aggs = run_ratio_sweep(groups_[g], keys_, options_);
    check_unit(aggs, g, "sweep", out);
    return static_cast<double>(groups_[g].size());
  }

  double run_traced_unit(std::size_t g, Outcome& out) override {
    const auto aggs = traced_sweep(groups_[g]);
    check_unit(aggs, g, "traced sweep", out);
    return static_cast<double>(groups_[g].size());
  }

  void layer_metrics(const std::vector<Span>& spans,
                     const CounterDelta& counters, std::size_t units,
                     Outcome& out) override {
    std::size_t cases = 0;
    set_metric(out, "offline.heuristic_ms",
               span_total_ms(spans, kSpanHeuristic, &cases) /
                   static_cast<double>(std::max<std::size_t>(1, cases)));
    set_metric(out, "offline.lower_bound_ms",
               span_total_ms(spans, kSpanLowerBound, &cases) /
                   static_cast<double>(std::max<std::size_t>(1, cases)));
    // Pool: wait from dispatch to task start, and the share of the
    // (workers + caller) x unit time the task bodies kept busy.
    std::size_t tasks = 0;
    double wait_ms = 0.0;
    for (const Span& s : spans) {
      if (s.name == kSpanTask) {
        wait_ms += static_cast<double>(s.value) / 1e6;
        ++tasks;
      }
    }
    set_metric(out, "support.pool.task_wait_ms",
               wait_ms / static_cast<double>(std::max<std::size_t>(1, tasks)));
    const double unit_ms = span_total_ms(spans, kSpanUnit);
    const double threads = static_cast<double>(pool_->thread_count() + 1);
    set_metric(out, "support.pool.busy_frac",
               span_total_ms(spans, kSpanTask) / (threads * unit_ms));
    // Sweep self time: the part of each unit no task covered (dispatch,
    // the barrier between phases, the reduction).
    set_metric(out, "analysis.sweep_self_ms",
               uncovered_ms(spans, kSpanUnit, kSpanTask) /
                   static_cast<double>(units));
    set_metric(out, "workload.generate_ms", generate_ms_);
    counter_metrics(counters, units, out);
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "sweep: " << kGroups << " seed groups x " << standard_suite().size()
       << " families, n=" << kJobs << ", " << keys_.size()
       << " schedulers, heuristic restarts=1 max_passes=8, pool "
       << pool_->thread_count() << " workers + caller";
    return os.str();
  }

 private:
  /// run_ratio_sweep's calls re-issued through the public API with spans:
  /// per-case OPT bounds, then one portfolio replay per case, then the
  /// same index-order reduction.
  std::vector<SchedulerAggregate> traced_sweep(
      const std::vector<SweepCase>& cases) {
    struct Bounds {
      Time upper;
      Time lower;
    };
    std::vector<Bounds> bounds(cases.size());
    std::int64_t dispatch = now_ns();
    parallel_for(
        *pool_, cases.size(),
        [&](std::size_t i) {
          ScopedSpan task(kSpanTask);
          task.set_value(static_cast<std::uint64_t>(now_ns() - dispatch));
          {
            ScopedSpan span(kSpanHeuristic);
            bounds[i].upper =
                heuristic_span(cases[i].instance, options_.heuristic_options);
          }
          ScopedSpan span(kSpanLowerBound);
          bounds[i].lower = best_lower_bound(cases[i].instance);
        },
        1, ChunkPolicy::kDynamic);

    const std::size_t n_keys = keys_.size();
    std::vector<Time> spans(cases.size() * n_keys);
    dispatch = now_ns();
    parallel_for(
        *pool_, cases.size(),
        [&](std::size_t c) {
          ScopedSpan task(kSpanTask);
          task.set_value(static_cast<std::uint64_t>(now_ns() - dispatch));
          thread_local PortfolioRunner runner;
          runner.enable_prefix_replay();
          thread_local std::unordered_map<std::string,
                                          std::unique_ptr<OnlineScheduler>>
              scheduler_cache;
          thread_local std::vector<PortfolioEntry> entries;
          thread_local std::vector<Time> case_spans;
          entries.clear();
          for (const std::string& key : keys_) {
            auto& slot = scheduler_cache[key];
            if (slot == nullptr) {
              slot = make_scheduler(key);
            }
            entries.push_back(
                PortfolioEntry{slot.get(), slot->requires_clairvoyance()});
          }
          {
            ScopedSpan span(kSpanReplay);
            runner.run_spans(cases[c].instance, entries, case_spans);
          }
          std::copy(case_spans.begin(), case_spans.end(),
                    spans.begin() + static_cast<std::ptrdiff_t>(c * n_keys));
        },
        1, ChunkPolicy::kDynamic);

    std::vector<SchedulerAggregate> aggregates(n_keys);
    for (std::size_t s = 0; s < n_keys; ++s) {
      aggregates[s].scheduler_key = keys_[s];
    }
    for (std::size_t c = 0; c < cases.size(); ++c) {
      for (std::size_t s = 0; s < n_keys; ++s) {
        const Time span = spans[c * n_keys + s];
        SchedulerAggregate& agg = aggregates[s];
        agg.spans.add(span.to_units());
        if (bounds[c].upper > Time::zero()) {
          agg.ratio_lower.add(time_ratio(span, bounds[c].upper));
        }
        if (bounds[c].lower > Time::zero()) {
          agg.ratio_upper.add(time_ratio(span, bounds[c].lower));
        }
      }
    }
    return aggregates;
  }

  /// Every per-case bracket is ordered and sound.
  static void check_brackets(const std::vector<SchedulerAggregate>& aggs,
                             std::size_t g, Outcome& out) {
    bool ok = true;
    for (const auto& agg : aggs) {
      const auto& lo = agg.ratio_lower.samples();
      const auto& hi = agg.ratio_upper.samples();
      ok &= out.check(lo.size() == hi.size() && !lo.empty(),
                      "sweep group " + std::to_string(g) + " " +
                          agg.scheduler_key + ": missing brackets");
      for (std::size_t c = 0; ok && c < lo.size(); ++c) {
        ok &= out.check(lo[c] <= hi[c] + 1e-9,
                        "sweep bracket unordered: " + agg.scheduler_key);
        ok &= out.check(hi[c] >= 1.0 - 1e-9,
                        "sweep ratio_upper < 1: " + agg.scheduler_key);
      }
    }
  }

  void check_unit(const std::vector<SchedulerAggregate>& aggs, std::size_t g,
                  const char* what, Outcome& out) {
    ++out.attempted;
    // The brackets' order is pinned by the reference check; an equal
    // fingerprint therefore carries it over.
    const bool ok = out.check(
        fingerprint(aggs) == reference_[g],
        std::string(what) + " group " + std::to_string(g) +
            ": aggregates differ from the serial reference");
    if (!ok) {
      ++out.failed;
    }
  }

  RunConfig config_;
  std::vector<std::vector<SweepCase>> groups_;
  std::vector<std::string> keys_;
  std::unique_ptr<ThreadPool> pool_;
  SweepOptions options_;
  std::vector<std::vector<std::vector<double>>> reference_;
  double generate_ms_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_sweep(const RunConfig& config) {
  return std::make_unique<SweepWorkload>(config);
}

}  // namespace fjs::bench
