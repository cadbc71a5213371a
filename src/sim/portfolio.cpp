#include "sim/portfolio.h"

#include <algorithm>
#include <utility>

#include "support/assert.h"
#include "support/telemetry.h"

namespace fjs {
namespace {

// Always 0: checkpointed prefix replay is gone. These stay registered
// because perfbench's per-layer `sim.prefix_*` metrics read them and drop
// the metric when a counter is missing; retire them together in the next
// benchmark change.
telemetry::Counter g_tm_prefix_hits{"portfolio.prefix_hits",
                                    telemetry::Stability::kDeterministic};
telemetry::Counter g_tm_prefix_misses{"portfolio.prefix_misses",
                                      telemetry::Stability::kDeterministic};
telemetry::Counter g_tm_prefix_events_skipped{
    "portfolio.prefix_events_skipped", telemetry::Stability::kDeterministic};

}  // namespace

namespace {

/// Source that releases nothing: the engine's timeline was installed by
/// Engine::preload_static before the run.
class NullSource final : public JobSource {
 public:
  SourceAction begin() override { return {}; }
};

}  // namespace

void PreparedInstance::prepare(InstanceView view) {
  records_.clear();
  staged_.clear();
  original_ids_.clear();
  const std::size_t n = view.size();
  records_.reserve(n);
  staged_.reserve(n);
  original_ids_.reserve(n);

  const auto add = [this, view](JobId original) {
    const Time arrival = view.arrival(original);
    const Time deadline = view.deadline(original);
    const Time length = view.length(original);
    // Same model checks Engine::release applies to a StaticSource stream,
    // hoisted out of the per-replay path. Views may come from unvalidated
    // scratch tables, so the checks stay even on the view path.
    FJS_REQUIRE(arrival <= deadline,
                "prepare: job with deadline before arrival");
    FJS_REQUIRE(length > Time::zero(),
                "prepare: job with non-positive length");
    const auto id = static_cast<JobId>(records_.size());
    detail::EngineJobRecord rec;
    rec.job = Job{.id = id,
                  .arrival = arrival,
                  .deadline = deadline,
                  .length = length};
    rec.length_known = true;
    records_.push_back(rec);
    staged_.push_back(Event{.time = arrival,
                            .seq = id,
                            .tag = 0,
                            .job = id,
                            .kind = EventKind::kArrival});
    original_ids_.push_back(original);
  };

  // Mirror StaticSource exactly: arrival order with the same sorted fast
  // path, so engine ids and event seqs match the classic replay bit for
  // bit.
  if (view.sorted_by_arrival()) {
    for (JobId id = 0; id < n; ++id) {
      add(id);
    }
    return;
  }
  // Same (arrival, id) order as Instance::ids_by_arrival(), sorted into a
  // member scratch so re-preparing stays allocation-free once warm.
  view.ids_by_arrival(sort_scratch_);
  for (const JobId id : sort_scratch_) {
    add(id);
  }
}

Time PortfolioRunner::shared_span(const PortfolioEntry& entry,
                                  std::vector<Time>* starts_out) {
  NullSource source;
  NoDeferralOracle oracle;
  Engine engine(source, oracle, *entry.scheduler,
                EngineOptions{.clairvoyant = entry.clairvoyant,
                              .record_trace = false,
                              .reserve_jobs = prepared_.size()},
                workspace_.get());
  engine.preload_static(prepared_.records(), prepared_.staged());
  if (starts_out == nullptr) {
    return engine.run_span();
  }
  const Time span = engine.run_span(&starts_scratch_);
  // Engine order is arrival order; hand the caller starts under the
  // instance's own ids.
  starts_out->resize(starts_scratch_.size());
  const std::vector<JobId>& original = prepared_.original_ids();
  for (std::size_t k = 0; k < starts_scratch_.size(); ++k) {
    (*starts_out)[original[k]] = starts_scratch_[k];
  }
  return span;
}

Time PortfolioRunner::adaptive_span(const Instance& instance,
                                    const PortfolioEntry& entry,
                                    const PortfolioOptions& options) {
  std::unique_ptr<JobSource> source;
  if (options.source_factory) {
    source = options.source_factory(instance);
  } else {
    source = std::make_unique<StaticSource>(instance);
  }
  std::unique_ptr<LengthOracle> oracle;
  if (options.oracle_factory) {
    oracle = options.oracle_factory(instance);
  }
  NoDeferralOracle no_deferral;
  LengthOracle& oracle_ref = oracle ? *oracle : no_deferral;
  Engine engine(*source, oracle_ref, *entry.scheduler,
                EngineOptions{.clairvoyant = entry.clairvoyant,
                              .record_trace = false,
                              .reserve_jobs = instance.size()},
                workspace_.get());
  return engine.run_span();
}

bool PortfolioRunner::run_spans(const Instance& instance,
                                std::span<const PortfolioEntry> entries,
                                std::vector<Time>& spans_out,
                                const PortfolioOptions& options) {
  spans_out.resize(entries.size());
  if (options.adaptive()) {
    // The realized timeline depends on scheduler behavior: never share.
    for (std::size_t i = 0; i < entries.size(); ++i) {
      spans_out[i] = adaptive_span(instance, entries[i], options);
    }
    return false;
  }
  prepared_.prepare(instance);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    spans_out[i] = shared_span(entries[i], nullptr);
  }
  return true;
}

void PortfolioRunner::run_spans(InstanceView view,
                                std::span<const PortfolioEntry> entries,
                                std::vector<Time>& spans_out) {
  spans_out.resize(entries.size());
  prepared_.prepare(view);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    spans_out[i] = shared_span(entries[i], nullptr);
  }
}

Time PortfolioRunner::run_span(InstanceView view, const PortfolioEntry& entry,
                               std::vector<Time>* starts_out,
                               Time /*unused*/) {
  prepared_.prepare(view);
  return shared_span(entry, starts_out);
}

Time PortfolioRunner::run_span(const Instance& instance,
                               const PortfolioEntry& entry,
                               std::vector<Time>* starts_out,
                               const PortfolioOptions& options) {
  if (options.adaptive()) {
    FJS_REQUIRE(starts_out == nullptr,
                "run_span: start capture requires the shared timeline");
    return adaptive_span(instance, entry, options);
  }
  prepared_.prepare(instance);
  return shared_span(entry, starts_out);
}

std::vector<SimulationResult> PortfolioRunner::run_full(
    const Instance& instance, std::span<const PortfolioEntry> entries,
    const PortfolioOptions& options) {
  std::vector<SimulationResult> results;
  results.reserve(entries.size());
  const bool adaptive = options.adaptive();
  if (!adaptive) {
    prepared_.prepare(instance);
  }
  for (const PortfolioEntry& entry : entries) {
    const EngineOptions engine_options{.clairvoyant = entry.clairvoyant,
                                       .record_trace = options.record_trace,
                                       .reserve_jobs = instance.size()};
    if (adaptive) {
      std::unique_ptr<JobSource> source;
      if (options.source_factory) {
        source = options.source_factory(instance);
      } else {
        source = std::make_unique<StaticSource>(instance);
      }
      std::unique_ptr<LengthOracle> oracle;
      if (options.oracle_factory) {
        oracle = options.oracle_factory(instance);
      }
      NoDeferralOracle no_deferral;
      LengthOracle& oracle_ref = oracle ? *oracle : no_deferral;
      Engine engine(*source, oracle_ref, *entry.scheduler, engine_options,
                    workspace_.get());
      results.push_back(engine.run());
    } else {
      NullSource source;
      NoDeferralOracle oracle;
      Engine engine(source, oracle, *entry.scheduler, engine_options,
                    workspace_.get());
      engine.preload_static(prepared_.records(), prepared_.staged());
      results.push_back(engine.run());
    }
  }
  return results;
}

PortfolioSpanResult simulate_portfolio_spans(
    const Instance& instance, std::span<const PortfolioEntry> entries,
    const PortfolioOptions& options) {
  thread_local PortfolioRunner runner;
  PortfolioSpanResult result;
  result.shared_timeline = runner.run_spans(instance, entries, result.spans,
                                            options);
  return result;
}

std::vector<SimulationResult> simulate_portfolio(
    const Instance& instance, std::span<const PortfolioEntry> entries,
    const PortfolioOptions& options) {
  thread_local PortfolioRunner runner;
  return runner.run_full(instance, entries, options);
}

}  // namespace fjs
