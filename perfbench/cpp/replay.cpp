// `replay`: large-scale online simulation, single-threaded, with no
// offline solver, no pool and no prefix cache.
//
// Why: the one workload where the engine, the event heap and the
// schedulers do all the work. Each unit simulates 100,000 jobs (hundreds
// of thousands of events) over a working set of several MB of job records,
// larger than a core's L2, unlike `mine`.
//
// Inputs: the 8 standard_suite() families at n = 100,000. A unit is one
// PortfolioRunner::run_span of one registry scheduler on one instance;
// units cycle scheduler x family (72 per cycle).
#include <memory>
#include <sstream>

#include "common.h"
#include "offline/lower_bound.h"
#include "schedulers/registry.h"
#include "sim/portfolio.h"
#include "workload/generator.h"
#include "workload/suite.h"

namespace fjs::bench {
namespace {

constexpr std::size_t kJobs = 100'000;

class ReplayWorkload final : public Workload {
 public:
  explicit ReplayWorkload(const RunConfig& config) : config_(config) {}

  void setup() override {
    const std::int64_t t0 = now_ns();
    instances_.clear();
    for (std::size_t f = 0; f < standard_suite().size(); ++f) {
      WorkloadConfig wc = standard_suite()[f].config;
      wc.job_count = kJobs;
      instances_.push_back(generate_workload(wc, mix_seed(config_.seed, f)));
    }
    generate_ms_ = ms_between(t0, now_ns());
    keys_ = known_scheduler_keys();
    for (const std::string& key : keys_) {
      schedulers_.push_back(make_scheduler(key));
      OnlineScheduler* s = schedulers_.back().get();
      entries_.push_back(PortfolioEntry{s, s->requires_clairvoyance()});
    }
    runner_ = std::make_unique<PortfolioRunner>();
    // Warm-up: every scheduler once, on rotating families, grows the
    // runner's workspace to the instance size.
    for (std::size_t s = 0; s < keys_.size(); ++s) {
      runner_->run_span(instances_[s % instances_.size()], entries_[s]);
    }
  }

  void build_reference(Outcome& out) override {
    (void)out;
    lower_bounds_.clear();
    for (const Instance& instance : instances_) {
      lower_bounds_.push_back(best_lower_bound(instance));
    }
    first_span_.assign(cycle_units(), Time::zero());
  }

  std::size_t cycle_units() const override {
    return keys_.size() * instances_.size();
  }

  double run_unit(std::size_t i, Outcome& out) override {
    const std::size_t s = i % keys_.size();
    const std::size_t f = i / keys_.size();
    check(i, runner_->run_span(instances_[f], entries_[s]), out);
    return static_cast<double>(kJobs);
  }

  double run_traced_unit(std::size_t i, Outcome& out) override {
    const std::size_t s = i % keys_.size();
    const std::size_t f = i / keys_.size();
    Time span;
    {
      ScopedSpan replay(kSpanReplay, static_cast<std::uint16_t>(s));
      span = runner_->run_span(instances_[f], entries_[s]);
    }
    check(i, span, out);
    return static_cast<double>(kJobs);
  }

  void layer_metrics(const std::vector<Span>& spans,
                     const CounterDelta& counters, std::size_t units,
                     Outcome& out) override {
    std::vector<double> total_ms(keys_.size(), 0.0);
    std::vector<std::size_t> count(keys_.size(), 0);
    double replay_ms = 0.0;
    for (const Span& s : spans) {
      if (s.name == kSpanReplay) {
        total_ms[s.tag] += ms_between(s.t0, s.t1);
        ++count[s.tag];
        replay_ms += ms_between(s.t0, s.t1);
      }
    }
    for (std::size_t s = 0; s < keys_.size(); ++s) {
      set_metric(out, "sim.replay_ms." + metric_key(keys_[s]),
                 count[s] == 0 ? 0.0
                               : total_ms[s] / static_cast<double>(count[s]));
    }
    // The lowering inside run_span is not separable from outside the
    // library, so it is timed by the same public call on a separate
    // PreparedInstance, once per family, after the traced loop.
    PreparedInstance prepared;
    double prepare_ms = 0.0;
    for (const Instance& instance : instances_) {
      const std::int64_t t0 = now_ns();
      prepared.prepare(instance);
      prepare_ms += ms_between(t0, now_ns());
    }
    set_metric(out, "sim.prepare_ms",
               prepare_ms / static_cast<double>(instances_.size()));
    set_metric(out, "workload.generate_ms", generate_ms_);
    counter_metrics(counters, units, out);
    if (const auto events = counters.get("engine.events")) {
      set_metric(out, "sim.events_per_s",
                 static_cast<double>(*events) / (replay_ms / 1e3));
    } else {
      drop_metric(out, "sim.events_per_s");
    }
  }

  bool single_threaded() const override { return true; }

  std::string describe() const override {
    std::ostringstream os;
    os << "replay: " << instances_.size() << " families, n=" << kJobs << ", "
       << keys_.size() << " schedulers, single-threaded, no prefix cache";
    return os.str();
  }

 private:
  /// span >= a certified lower bound on OPT, and identical every time the
  /// same (scheduler, family) pair repeats.
  void check(std::size_t i, Time span, Outcome& out) {
    const std::size_t s = i % keys_.size();
    const std::size_t f = i / keys_.size();
    ++out.attempted;
    bool ok = out.check(span >= lower_bounds_[f],
                        "replay " + keys_[s] + " family " + std::to_string(f) +
                            ": span below the lower bound");
    if (first_span_[i] == Time::zero()) {
      first_span_[i] = span;
    }
    ok &= out.check(span == first_span_[i],
                    "replay " + keys_[s] + " family " + std::to_string(f) +
                        ": span changed on repeat");
    if (!ok) {
      ++out.failed;
    }
  }

  RunConfig config_;
  std::vector<Instance> instances_;
  std::vector<std::string> keys_;
  std::vector<std::unique_ptr<OnlineScheduler>> schedulers_;
  std::vector<PortfolioEntry> entries_;
  std::unique_ptr<PortfolioRunner> runner_;
  std::vector<Time> lower_bounds_;
  std::vector<Time> first_span_;
  double generate_ms_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_replay(const RunConfig& config) {
  return std::make_unique<ReplayWorkload>(config);
}

}  // namespace fjs::bench
